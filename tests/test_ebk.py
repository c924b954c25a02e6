import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from symcap import (
    ActionHamiltonian,
    DegenerateInputError,
    ValidationError,
    action_quadrature_1d,
    capacity_condition,
    energy_levels,
    ground_bound,
    oscillator_hamiltonian,
    quantized_actions,
    torus_radii_from_actions,
    verify_energy_bound,
)
from symcap import ebk, regions
from symcap.ebk import (
    FD_STEP,
    CapacityCheck,
    EBKLevel,
    InvalidMaslovError,
    NonCompactOrbitError,
    TheoremHypothesisError,
)


def test_quantized_actions_ground_1d():
    [(N, I)] = quantized_actions((2,), 0, hbar=1.0)
    assert N == (0,)
    assert I[0] == pytest.approx(0.5)


def test_quantized_actions_2d():
    pairs = dict(quantized_actions((2, 2), 1, hbar=1.0))
    assert np.allclose(pairs[(1, 0)], [1.5, 0.5])
    assert len(pairs) == 4


def test_quantized_actions_odd_maslov():
    [(N, I)] = quantized_actions((3,), 0, hbar=1.0)
    assert I[0] == pytest.approx(0.75)


def test_quantized_actions_rejects_bad_maslov():
    with pytest.raises(InvalidMaslovError):
        quantized_actions((0,), 2)
    with pytest.raises(InvalidMaslovError):
        quantized_actions((2, -1), 2)


@pytest.mark.parametrize("maslov", [(0.5,), (2.9,), (2, 2.5), (math.nan,), (math.inf,),
                                    (None,), ("2",), (np.float64(3.25),),
                                    # integers no float holds
                                    (10**400,), (2, -10**400), (np.int64(2), 10**309)])
def test_non_integral_maslov_indices_are_refused_as_given(maslov):
    with pytest.raises(InvalidMaslovError, match=re.escape(f"got {maslov}")):
        quantized_actions(maslov, 0)
    with pytest.raises(InvalidMaslovError, match=re.escape(f"got {maslov}")):
        energy_levels(oscillator_hamiltonian([1.0] * len(maslov)), maslov, 1)


@pytest.mark.parametrize("m", [2, np.int64(2), 2.0, np.float64(2.0)])
def test_integral_maslov_indices_are_read_as_ints(m):
    spec = energy_levels(oscillator_hamiltonian([1.0]), (m,), 1)
    assert spec.to_dict() == energy_levels(oscillator_hamiltonian([1.0]), (2,), 1).to_dict()
    assert all(type(e.maslov[0]) is int for e in spec.entries)
    assert quantized_actions([m], 0)[0][1].tolist() == [0.5]


def test_oscillator_levels():
    omegas = [1.0, 2.0]
    spec = energy_levels(oscillator_hamiltonian(omegas), (2, 2), 1)
    assert [e.energy for e in spec.entries] == pytest.approx([1.5, 2.5, 3.5, 4.5])


def test_quadratic_action_hamiltonian_levels():
    K = ActionHamiltonian(K=lambda I: float(I[0] ** 2), n=1, monotone=True)
    spec = energy_levels(K, (2,), 3)
    expected = [(N + 0.5) ** 2 for N in range(4)]
    assert [e.energy for e in spec.entries] == pytest.approx(expected)


def test_table_hamiltonian_matches_direct_evaluation():
    # pendulum-like numeric table: levels are just K at the quantized actions
    grid = np.linspace(0.0, 10.0, 201)
    vals = 2.0 * np.sqrt(grid) + 0.1 * grid
    K = ActionHamiltonian(K=lambda I: float(np.interp(I[0], grid, vals)), n=1,
                          monotone=True)
    spec = energy_levels(K, (2,), 5)
    for e in spec.entries:
        assert e.energy == pytest.approx(float(np.interp(e.actions[0], grid, vals)))


def test_spectrum_sorted_and_invariants():
    spec = energy_levels(oscillator_hamiltonian([1.0, 0.3]), (2, 4), 3, hbar=0.7)
    energies = [e.energy for e in spec.entries]
    assert energies == sorted(energies)
    for e in spec.entries:
        for Ij, Nj, mj, Rj in zip(e.actions, e.N, e.maslov, e.radii):
            assert Ij == pytest.approx((Nj + mj / 4.0) * 0.7, rel=1e-15)
            assert Rj == pytest.approx(math.sqrt(2.0 * Ij), rel=1e-15)


def test_ground_bound_examples():
    assert ground_bound(oscillator_hamiltonian([1.0, 2.0])) == pytest.approx(1.5)
    K = ActionHamiltonian(K=lambda I: float(I[0] * I[1]), n=2)
    assert ground_bound(K, 1.0) == pytest.approx(0.25)
    K2 = ActionHamiltonian(K=lambda I: float(math.sqrt(I[0])), n=1)
    assert ground_bound(K2, 2.0) == pytest.approx(1.0)


def test_torus_radii():
    assert torus_radii_from_actions([0.5])[0] == pytest.approx(1.0)
    assert torus_radii_from_actions([2.0])[0] == pytest.approx(2.0)
    assert np.allclose(torus_radii_from_actions([0.5, 2.0]), [1.0, 2.0])
    with pytest.raises(ValidationError):
        torus_radii_from_actions([0.0])


def test_torus_radii_refuse_overflowing_actions():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow warning either
        with pytest.raises(ValidationError, match="1e\\+308"):
            torus_radii_from_actions([1.0, 1e308])
        assert torus_radii_from_actions([0.5 * np.finfo(float).max])[0] < math.inf


def test_capacity_condition_ground():
    spec = energy_levels(oscillator_hamiltonian([1.0, 1.0]), (2, 2), 0)
    check = capacity_condition(spec.entries[0], hbar=1.0)
    assert check.capacity == pytest.approx(math.pi)
    assert check.satisfied


def test_capacity_condition_min_over_planes():
    spec = energy_levels(oscillator_hamiltonian([1.0, 1.0]), (2, 2), 3)
    entry = next(e for e in spec.entries if e.N == (3, 0))
    check = capacity_condition(entry, hbar=1.0)
    assert check.capacity == pytest.approx(math.pi)  # min governed by N=0 factor
    assert check.satisfied


def test_capacity_condition_non_quantized_torus():
    entry = EBKLevel(N=(0, 0), maslov=(2, 2), actions=np.array([0.125, 0.5]),
                     radii=np.array([0.5, 1.0]), energy=1.0)
    check = capacity_condition(entry, hbar=1.0)
    assert check.capacity == pytest.approx(math.pi / 4.0)
    assert not check.satisfied


def _level(radii):
    return EBKLevel(N=(0, 0), maslov=(2, 2), actions=np.array([0.5, 0.5]),
                    radii=None if radii is None else np.array(radii), energy=1.0)


@pytest.mark.parametrize("radii", [None, [], [1.0, 0.0], [-1.0], [1e154], [1e155]])
@pytest.mark.parametrize("check", [capacity_condition])  # the parameter keeps the test ids
def test_radii_checks_need_positive_radii(check, radii):
    with pytest.raises(ValidationError):
        check(_level(radii), hbar=1.0)


# pi R^2 overflows from R = 1e154 on and underflows to 0 at R = 1e-170
@pytest.mark.parametrize("radii, value", [([1e155], "inf"), ([1e-170], "0.0"),
                                          ([1e-170, 1.0], "0.0")])
def test_capacity_condition_refuses_a_capacity_out_of_range(radii, value):
    with pytest.raises(ValidationError, match=f"capacity must be finite and > 0, got {value}$"):
        capacity_condition(_level(radii))


def test_capacity_condition_reads_only_the_least_plane():
    # a plane whose area pi R^2 overflows does not decide the capacity
    assert capacity_condition(_level([1.0, 1e155])) == CapacityCheck(math.pi, True)


def _capacity_grids():
    yield energy_levels(oscillator_hamiltonian([1.0, 0.5]), (2, 2), 9, hbar=0.7)
    yield energy_levels(oscillator_hamiltonian([0.9, 2.0, 1.3]), (2, 2, 2), 5, hbar=1.6)
    yield energy_levels(oscillator_hamiltonian([1.5]), (1,), 20, hbar=1.0)
    yield energy_levels(ActionHamiltonian(K=_quartic, n=3, monotone=True), (2, 4, 2), 5,
                        hbar=1.3)


def test_capacity_condition_is_the_solid_torus_capacity():
    # against regions.capacity, and against the least per-plane area pi R_j^2 with its
    # per-plane verdict (rounding is monotone, so the two minima agree bit for bit)
    for spec in _capacity_grids():
        half_h = math.pi * spec.hbar
        for e in spec.entries:
            check = capacity_condition(e, spec.hbar)
            planes = [math.pi * (r * r) for r in e.radii.tolist()]
            assert check.capacity == regions.capacity(regions.SolidTorus(e.radii)).value
            assert check.capacity == min(planes)
            assert check.satisfied == all(a >= half_h * (1.0 - ebk.ROUNDING_RTOL) for a in planes)


@pytest.mark.parametrize("hbar", [1e-300, 1e-170, 1.0, 1e300])
def test_capacity_condition_reads_the_same_at_every_hbar(hbar):
    # Maslov-1 ground levels have capacity pi hbar / 2 and fail; every Maslov-2 level has
    # capacity >= pi hbar in exact arithmetic (pi hbar on three of them) and passes
    assert not capacity_condition(energy_levels(oscillator_hamiltonian([1.0]), (1,), 0,
                                                hbar=hbar).entries[0], hbar).satisfied
    spec = energy_levels(oscillator_hamiltonian([1.0, 1.0]), (2, 2), 1, hbar=hbar)
    assert all(capacity_condition(e, hbar).satisfied for e in spec.entries)


def test_capacity_condition_slack_covers_the_measured_rounding():
    # the capacity of a Maslov-2 ground level strays from pi hbar by at most 2.5 eps
    # (measured), inside ROUNDING_RTOL; a capacity 2 ROUNDING_RTOL short fails
    for hbar in np.geomspace(1e-300, 1e300, 2001).tolist():
        entry = energy_levels(oscillator_hamiltonian([1.0]), (2,), 0, hbar=hbar).entries[0]
        check = capacity_condition(entry, hbar)
        assert check.satisfied
        assert abs(check.capacity - math.pi * hbar) <= 3 * np.finfo(float).eps * math.pi * hbar
    short = math.sqrt(1.0 - 2 * ebk.ROUNDING_RTOL)
    assert not capacity_condition(_level([short, 1.0]), 1.0).satisfied


@pytest.mark.parametrize("hbar", [1e-170, 1.0, 1e300])
def test_verify_energy_bound_reads_the_same_at_every_hbar(hbar):
    K = oscillator_hamiltonian([1.0, 1.0])
    assert verify_energy_bound(K, energy_levels(K, (2, 2), 1, hbar=hbar)).ok
    rep = verify_energy_bound(K, energy_levels(K, (1, 2), 1, hbar=hbar))
    assert not rep.ok and min(rep.margins) == pytest.approx(-hbar / 4.0)


def test_verify_energy_bound_oscillator():
    omegas = np.array([1.0, 0.5])
    K = oscillator_hamiltonian(omegas)
    spec = energy_levels(K, (2, 2), 4)
    rep = verify_energy_bound(K, spec)
    assert rep.ok
    for e, margin in zip(spec.entries, [e.energy - rep.ground for e in spec.entries]):
        assert margin == pytest.approx(float(np.dot(np.asarray(e.N), omegas)), abs=1e-12)


def test_verify_energy_bound_frequencies_eighteen_decades_apart():
    # the finite differences of |K| ~ 1e7 resolve dK/dI_2 = 1e-12 only to about 1e-3
    K = oscillator_hamiltonian([1e6, 1e-12])
    assert verify_energy_bound(K, energy_levels(K, (2, 2), 0)).ok
    # so the same K built by hand is sampled and read as not monotone
    assert not ActionHamiltonian(K=lambda I: K.K(I), n=2, monotone=True).check_monotone()


def reference_fd_grad(K, actions):
    """The per-coordinate central differences that check_monotone replaced."""
    out = np.empty(K.n)
    for j in range(K.n):
        h = FD_STEP * max(abs(actions[j]), 1.0)
        up, dn = actions.copy(), actions.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (K.K(up) - K.K(dn)) / (2.0 * h)
    return out


def reference_check_monotone(K, samples=1000, seed=0, box=(1e-3, 10.0)):
    """The one-sample-at-a-time spot check that check_monotone replaced."""
    rng = np.random.default_rng(seed)
    lo, hi = box
    for _ in range(samples):
        g = reference_fd_grad(K, rng.uniform(lo, hi, size=K.n))
        if not np.all(np.isfinite(g) & (g > 0)):
            return False
    return True


def _power_sum(a, n):
    return ActionHamiltonian(K=lambda I: float(np.sum(I**a)), n=n, monotone=True)


def _quartic(I):
    return float(np.sum(I**2) + np.prod(I))


def _nan_above_five(I):
    return math.nan if I[0] > 5.0 else float(np.sum(I))


def _oscillators():
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        for k in range(3):
            yield f"oscillator n={n} #{k}", oscillator_hamiltonian(10.0 ** rng.uniform(-300, 300, n))
    yield "oscillator 1e6, 1e-12", oscillator_hamiltonian([1e6, 1e-12])
    yield "oscillator 1e300, 1e-300", oscillator_hamiltonian([1e300, 1e-300])


EQUIVALENCE_SET = {
    **dict(_oscillators()),
    # "declared=False": ids kept from when a K could also declare its gradient
    **{f"power a={a} n={n} declared=False": _power_sum(a, n)
       for a in (0.5, 1.0, 2.0, 3.0, -1.0) for n in (1, 3)},
    "quartic": ActionHamiltonian(K=_quartic, n=3, monotone=True),
    "decreasing": ActionHamiltonian(K=lambda I: float(-I[0]), n=1, monotone=True),
    "decreasing from 9 declared=False": ActionHamiltonian(
        K=lambda I: float(-(I[0] - 9.0) ** 2), n=1),
    "nan on part of the box": ActionHamiltonian(K=_nan_above_five, n=2, monotone=True),
}


@pytest.mark.parametrize("K", EQUIVALENCE_SET.values(), ids=EQUIVALENCE_SET.keys())
def test_check_monotone_matches_the_per_sample_loop(K):
    if isinstance(K.K, ebk._Linear):
        assert K.check_monotone() is True  # exact, without sampling K
    else:
        expected = reference_check_monotone(K)
        assert K.check_monotone() is expected
        assert K.check_monotone() is expected  # the kept verdict


def test_oscillator_bound_calls_k_only_for_the_ground_bound(monkeypatch):
    spec = energy_levels(oscillator_hamiltonian([1.0, 2.5, 1e-3]), (2, 2, 2), 3, hbar=0.7)
    expected = verify_energy_bound(oscillator_hamiltonian([1.0, 2.5, 1e-3]), spec)
    calls, call = [], ebk._Linear.__call__
    monkeypatch.setattr(ebk._Linear, "__call__",
                        lambda self, I: calls.append(I.copy()) or call(self, I))
    osc = oscillator_hamiltonian([1.0, 2.5, 1e-3])  # its first check runs under the counter
    reports = [verify_energy_bound(osc, spec) for _ in range(2)]
    assert [I.tolist() for I in calls] == [[0.35, 0.35, 0.35]] * 2
    assert reports == [expected] * 2 and expected.ok


def test_a_replaced_k_carries_its_own_monotonicity_verdict(monkeypatch):
    osc = oscillator_hamiltonian([1.0])
    decreasing = dataclasses.replace(osc, K=lambda I: -float(I[0]))
    assert decreasing.check_monotone() is False
    with pytest.raises(TheoremHypothesisError, match="spot check"):
        verify_energy_bound(decreasing, energy_levels(osc, (2,), 1))

    def no_sampling(self, I):
        raise AssertionError("an oscillator's K was sampled")

    monkeypatch.setattr(ActionHamiltonian, "_differences", no_sampling)
    other = dataclasses.replace(osc, K=oscillator_hamiltonian([3.0]).K)
    assert other.check_monotone() is True
    assert verify_energy_bound(other, energy_levels(other, (2,), 1)).ok


def test_differences_of_an_infinite_k_fail_without_a_warning():
    K = ActionHamiltonian(K=lambda I: 1e308 * float(I[0]) + float(I[1]), n=2, monotone=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert K.check_monotone() is False


def test_check_monotone_draws_the_per_sample_actions():
    rng = np.random.default_rng(0)
    per_sample = np.array([rng.uniform(1e-3, 10.0, size=3) for _ in range(1000)])
    seen = []
    K = ActionHamiltonian(K=lambda I: seen.append(I.copy()) or float(np.sum(I)), n=3)
    assert K.check_monotone()
    pts = np.array(seen).reshape(1000, 3, 2, 3)  # sample, stepped coordinate, +h or -h, I
    j = np.arange(3)
    assert np.array_equal(pts[:, (j + 1) % 3, 0, j], per_sample)  # I_j where I_{j+1} steps
    h = FD_STEP * np.maximum(per_sample, 1.0)
    assert np.array_equal(pts[:, j, 0, j], per_sample + h)
    assert np.array_equal(pts[:, j, 1, j], per_sample - h)


class _Counted:
    """A K that counts its calls."""

    def __init__(self, K):
        self.K, self.calls = K, 0

    def __call__(self, I):
        self.calls += 1
        return self.K(I)


def test_check_monotone_samples_k_once_per_instance():
    counted = _Counted(_quartic)
    K = ActionHamiltonian(K=counted, n=3, monotone=True)
    assert K.check_monotone() is True
    assert counted.calls == 2 * K.n * ebk.MONOTONE_SAMPLES
    counted.calls = 0
    assert K.check_monotone() is True
    assert counted.calls == 0
    spec = energy_levels(K, (2, 2, 2), 1)
    counted.calls = 0
    assert verify_energy_bound(K, spec) == verify_energy_bound(K, spec)
    assert counted.calls == 2  # one ground bound per report, no sampling


def test_a_replaced_k_is_sampled_afresh():
    K = ActionHamiltonian(K=_quartic, n=3, monotone=True)
    assert K.check_monotone() is True
    other = dataclasses.replace(K, K=lambda I: float(np.sum(I) - I[1] ** 2))
    assert other.check_monotone() is reference_check_monotone(other) is False
    assert K.check_monotone() is True


def test_a_raising_k_raises_on_every_call():
    def raising(I):
        raise ArithmeticError("K is undefined here")

    K = ActionHamiltonian(K=raising, n=2, monotone=True)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="undefined"):
            K.check_monotone()
    assert "_monotone_verdict" not in vars(K)


def test_a_kept_verdict_is_not_redecided_by_later_settings(monkeypatch):
    K = ActionHamiltonian(K=_nan_above_five, n=2, monotone=True)
    assert K.check_monotone() is False
    monkeypatch.setattr(ebk, "MONOTONE_BOX", (1e-3, 1.0))
    assert K.check_monotone() is False
    assert dataclasses.replace(K).check_monotone() is True


def test_grad_is_bit_identical_to_the_per_coordinate_differences():
    Ks = [_power_sum(2.0, 3), _power_sum(0.5, 2), ActionHamiltonian(K=_quartic, n=3),
          ActionHamiltonian(K=lambda I: float(math.exp(I[0]) * I[1]), n=2)]
    rng = np.random.default_rng(9)
    for k in range(10_000):  # random actions over eight decades
        K = Ks[k % len(Ks)]
        I = 10.0 ** rng.uniform(-6, 2, K.n)
        assert np.array_equal(K._differences(I[None])[0], reference_fd_grad(K, I))


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan-differences", "inf-differences"])
def test_non_finite_gradient_fails_the_spot_check(value):
    K = ActionHamiltonian(K=lambda I: value, n=1, monotone=True)
    assert K.check_monotone() is False
    spec = energy_levels(oscillator_hamiltonian([1.0]), (2,), 1)
    with pytest.raises(TheoremHypothesisError, match="spot check"):
        verify_energy_bound(K, spec)


@pytest.mark.parametrize("K, hbar, n_max", [
    (oscillator_hamiltonian([10.0]), 1e308, 1),                       # K overflows
    (ActionHamiltonian(K=lambda I: float(np.sum(I**1e308)), n=1), 1.0, 1),  # K overflows
    (oscillator_hamiltonian([1e-10]), 1e308, 0),                      # 2 pi I overflows
    (ActionHamiltonian(K=lambda I: math.nan, n=1), 1.0, 0),           # K is NaN
], ids=["oscillator", "power", "plane-area", "nan"])
def test_energy_levels_refuses_overflow(K, hbar, n_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="with hbar"):
            energy_levels(K, (2,), n_max, hbar)


def test_verify_energy_bound_power():
    K = ActionHamiltonian(K=lambda I: float(I[0] ** 2), n=1, monotone=True)
    spec = energy_levels(K, (2,), 5)
    rep = verify_energy_bound(K, spec)
    assert rep.ok and rep.ground == pytest.approx(0.25)


def test_verify_energy_bound_refuses_non_monotone():
    K = ActionHamiltonian(K=lambda I: float(-I[0]), n=1, monotone=False)
    spec = energy_levels(ActionHamiltonian(K=lambda I: float(-I[0]), n=1, monotone=True),
                         (2,), 1)
    with pytest.raises(TheoremHypothesisError):
        verify_energy_bound(K, spec)
    # a false monotone claim is caught by the spot check
    decreasing = ActionHamiltonian(K=lambda I: float(-I[0]), n=1, monotone=True)
    with pytest.raises(TheoremHypothesisError):
        verify_energy_bound(decreasing, spec)


def test_hbar_scaling_linear_k():
    omegas = [1.0, 2.0]
    for lam in (0.5, 3.0):
        a = energy_levels(oscillator_hamiltonian(omegas), (2, 2), 2, hbar=1.0)
        b = energy_levels(oscillator_hamiltonian(omegas), (2, 2), 2, hbar=lam)
        for ea, eb in zip(a.entries, b.entries):
            assert np.allclose(eb.actions, lam * ea.actions)
            assert eb.energy == pytest.approx(lam * ea.energy)
        assert ground_bound(oscillator_hamiltonian(omegas), lam) == \
            pytest.approx(lam * ground_bound(oscillator_hamiltonian(omegas), 1.0))


def test_spectrum_json_and_csv():
    spec = energy_levels(oscillator_hamiltonian([1.0]), (2,), 1)
    obj = json.loads(spec.to_json())
    assert obj["hbar"] == 1.0
    assert [lvl["energy"] for lvl in obj["levels"]] == pytest.approx([0.5, 1.5])
    text = spec.to_csv()
    header, *rows = text.strip().splitlines()
    assert header.split(",") == ["N", "actions", "radii", "energy", "capacity", "satisfied"]
    assert len(rows) == 2


def _two_branch_widths(hamiltonian, x, energy):
    """p+ - p- with both momentum branches solved as H(x, +-sqrt(q)) = E, the
    reference for ebk._widths."""
    v = hamiltonian(x, np.zeros_like(x)) - energy
    inside = np.flatnonzero(v < 0)
    xs, sign = np.tile(x[inside], 2), np.repeat([1.0, -1.0], inside.size)
    f = lambda q: hamiltonian(xs, sign * np.sqrt(q)) - energy
    a, fa = np.zeros(xs.size), np.tile(v[inside], 2)
    hi = 1.0
    b, fb = np.full(xs.size, hi), f(hi)
    low = np.flatnonzero(fb < 0)
    while low.size:
        hi *= 2.0
        b[low], fb[low] = hi * hi, hamiltonian(xs[low], sign[low] * hi) - energy
        low = low[fb[low] < 0]
    for _ in range(ebk.ILLINOIS_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        swap = (fc > 0) != (fb > 0)
        a, fa = np.where(swap, b, a), np.where(swap, fb, 0.5 * fa)
        b, fb = c, fc
        if np.all((fc == 0) | (np.abs(b - a) <= ebk.ROOT_RTOL * np.abs(c))):
            width = np.zeros(x.size)
            width[inside] = np.sqrt(b).reshape(2, -1).sum(axis=0)
            return width
    raise AssertionError("no convergence")


WELLS = {
    "harmonic": lambda x, p: 0.5 * p**2 + 0.5 * 2.3**2 * x**2,
    "quartic": lambda x, p: 0.5 * p**2 + 0.5 * x**2 + 0.07 * x**4,
    "morse": lambda x, p: 0.5 * p**2 + 4.0 * (1.0 - np.exp(-0.7 * x)) ** 2,
}


@pytest.mark.parametrize("H", WELLS.values(), ids=WELLS.keys())
@pytest.mark.parametrize("E", [0.05, 1.0, 3.5])
def test_widths_equal_both_branches_solved(H, E):
    # H is even in p, so solving p+ alone and doubling it loses no bit
    x = np.linspace(-6.0, 6.0, 241)
    assert ebk._widths(H, x, E).tobytes() == _two_branch_widths(H, x, E).tobytes()


@pytest.mark.parametrize("H", WELLS.values(), ids=WELLS.keys())
@pytest.mark.parametrize("E", [0.05, 1.0, 3.5, 1e3])
def test_widths_match_the_closed_form(H, E):
    # p+ = sqrt(2 (E - V)) for the kinetic energy p^2 / 2; measured worst 2.5 eps
    x = np.linspace(-6.0, 6.0, 2401)
    V = H(x, np.zeros_like(x))
    width, inside = ebk._widths(H, x, E), V < E
    assert np.all(width[~inside] == 0.0)
    exact = 2.0 * np.sqrt(2.0 * (E - V[inside]))
    assert np.max(np.abs(width[inside] - exact) / exact) <= 4 * np.finfo(float).eps


def test_action_quadrature_call_budget():
    # q = p^2 makes H linear in the unknown, so false position needs about two
    # steps: 1095 array calls of H over these 90 wells, 3300 solving for p
    rng = np.random.default_rng(21)
    array_calls = []

    def counted(H):
        def H_counted(x, p):
            array_calls.append(isinstance(x, np.ndarray))
            return H(x, p)
        return H_counted

    for _ in range(30):
        w, lam = rng.uniform(0.3, 3.0), rng.uniform(0.01, 0.3)
        D, a = rng.uniform(1.0, 8.0), rng.uniform(0.3, 1.5)
        for H, E in [(lambda x, p: 0.5 * p**2 + 0.5 * w * w * x**2, rng.uniform(0.1, 5.0)),
                     (lambda x, p: 0.5 * p**2 + 0.5 * x**2 + lam * x**4, rng.uniform(0.1, 5.0)),
                     (lambda x, p: 0.5 * p**2 + D * (1.0 - np.exp(-a * x)) ** 2,
                      rng.uniform(0.05, 0.9) * D)]:
            action_quadrature_1d(counted(H), E)
    assert sum(array_calls) <= 1200


@pytest.mark.parametrize("p_peak, solved", [(3e11, True), (3e12, False)])
def test_momentum_cap_applies_to_p(p_peak, solved):
    # H = p^2 / 2m + x^2 / 2 at E = 1 has turning points +-sqrt(2) and p+ peaking
    # at sqrt(2m); the bracket on p stops at MOMENTUM_CAP = 1e12
    m = p_peak**2 / 2.0
    H = lambda x, p: 0.5 * p**2 / m + 0.5 * x**2
    if solved:
        assert action_quadrature_1d(H, 1.0) == pytest.approx(math.sqrt(m), rel=1e-12)
    else:
        with pytest.raises(NonCompactOrbitError, match="momentum"):
            action_quadrature_1d(H, 1.0)


def test_action_quadrature_harmonic():
    for omega in (0.5, 1.0, 3.0):
        H = lambda x, p, w=omega: 0.5 * p**2 + 0.5 * w**2 * x**2
        for E in (0.5, 1.0, 4.0):
            I = action_quadrature_1d(H, E)
            assert I == pytest.approx(E / omega, rel=1e-8)


def test_action_quadrature_offset_well():
    # shifted minimum: H = (p^2 + (x - 1)^2) / 2, same action as centered
    H = lambda x, p: 0.5 * p**2 + 0.5 * (x - 1.0) ** 2
    assert action_quadrature_1d(H, 2.0) == pytest.approx(2.0, rel=1e-8)


def test_action_quadrature_quartic_below_harmonic():
    lam = 0.1
    H = lambda x, p: 0.5 * p**2 + 0.5 * x**2 + lam * x**4
    I = action_quadrature_1d(H, 1.0)
    assert I < 1.0


def test_action_quadrature_quartic_vs_reference():
    # independent reference: 400-point Gauss-Legendre on the explicit branch
    # sqrt(2 (E - V)) with the sine substitution
    lam, E = 0.05, 1.0
    V = lambda x: 0.5 * x**2 + lam * x**4
    H = lambda x, p: 0.5 * p**2 + V(x)
    x_hi = math.sqrt((-0.5 + math.sqrt(0.25 + 4.0 * lam * E)) / (2.0 * lam))
    nodes, weights = np.polynomial.legendre.leggauss(400)
    theta = 0.5 * math.pi * nodes
    xs = x_hi * np.sin(theta)
    vals = np.sqrt(np.maximum(2.0 * (E - V(xs)), 0.0)) * x_hi * np.cos(theta)
    ref = float(np.dot(weights, vals)) * 0.5 * math.pi / math.pi
    assert action_quadrature_1d(H, E) == pytest.approx(ref, rel=1e-6)


SHIFTED = lambda x, p: 0.5 * p**2 + 0.5 * (x - 3.0) ** 2  # level set [3 - sqrt(2E), 3 + sqrt(2E)]


def _reference_turning_points(V, energy):
    """A reference search written out longhand: a for/else walk over the probes, an
    expand closure per side and a bisection loop of its own."""
    def bisect(inside, outside):
        while True:
            mid = 0.5 * (inside + outside)
            if mid in (inside, outside):
                return inside
            if V(mid) > energy:
                outside = mid
            else:
                inside = mid

    x0 = 0.0
    if V(x0) > energy:
        for step in 2.0 ** np.arange(-6, 21):
            for cand in (x0 - step, x0 + step):
                if V(cand) <= energy:
                    x0 = cand
                    break
            else:
                continue
            break
        else:
            raise NonCompactOrbitError("energy level set appears empty")

    def expand(direction):
        step, x = 1e-3, x0
        while True:
            nxt = x + direction * step
            if abs(nxt) > ebk.POSITION_CAP:
                raise NonCompactOrbitError("no turning point found: orbit not compact")
            if V(nxt) > energy:
                return bisect(x, nxt)
            x, step = nxt, 2.0 * step

    return expand(-1.0), expand(+1.0)


@pytest.mark.parametrize("H", [*WELLS.values(), SHIFTED], ids=[*WELLS, "shifted"])
@pytest.mark.parametrize("E", [0.05, 0.5, 1.0, 3.5])
def test_turning_points_match_the_reference_search(H, E):
    V = lambda x: H(x, 0.0)
    try:
        expected = _reference_turning_points(V, E)
    except NonCompactOrbitError:
        with pytest.raises(NonCompactOrbitError):
            ebk._bracket_turning_points(V, E)
        return
    bits = lambda ends: [(type(x), float(x).hex()) for x in ends]  # np.float64 from a probe
    assert bits(ebk._bracket_turning_points(V, E)) == bits(expected)


def test_turning_point_search_finds_a_well_at_a_probe():
    # V(0) = 4.5 > E = 2, so the search starts from the first probe with V <= E, x = 2
    assert SHIFTED(0.0, 0.0) > 2.0 >= SHIFTED(2.0, 0.0)
    assert action_quadrature_1d(SHIFTED, 2.0) == pytest.approx(2.0, rel=1e-8)


def test_turning_point_search_names_its_probes():
    # the level set [2.106, 3.894] holds no probe: 2 and 4 lie just outside it
    with pytest.raises(NonCompactOrbitError, match=re.escape(
            "V(x) > E = 0.4 at x = 0 and at x = -2^k, 2^k for k = -6, ..., 20")):
        action_quadrature_1d(SHIFTED, 0.4)


def test_action_quadrature_empty_level_set():
    H = lambda x, p: 0.5 * p**2 + 0.5 * x**2 + 1.0
    with pytest.raises(NonCompactOrbitError):
        action_quadrature_1d(H, 0.5)


def test_action_quadrature_open_orbit():
    H = lambda x, p: 0.5 * p**2 - x  # no right turning point
    with pytest.raises(NonCompactOrbitError):
        action_quadrature_1d(H, 1.0)


def test_action_quadrature_unbounded_momentum():
    # for |x| < 1, H = x^2/2 + 1 - exp(-p^2) stays below 1.5 at every p
    H = lambda x, p: 0.5 * x**2 + 1.0 - np.exp(-p**2)
    with pytest.raises(NonCompactOrbitError, match="momentum"):
        action_quadrature_1d(H, 1.5)


@pytest.mark.parametrize("E", [0.1, 1.0, 3.0])
def test_action_quadrature_morse_exact(E):
    D, a = 4.0, 0.7
    H = lambda x, p: 0.5 * p**2 + D * (1.0 - np.exp(-a * x)) ** 2
    exact = math.sqrt(2.0 * D) / a * (1.0 - math.sqrt(1.0 - E / D))
    assert action_quadrature_1d(H, E) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("H", [
    lambda x, p: 0.5 * p**2 + np.abs(x),  # a kink: Gauss-Legendre converges slowly
], ids=["kink"])
def test_action_quadrature_non_convergence_raises(H):
    with pytest.raises(DegenerateInputError, match="orders 512 and 1024"):
        action_quadrature_1d(H, 1.0)


def test_action_quadrature_nan_momentum_raises():
    # H is NaN beyond |p| = 0.5, so no momentum bracket can converge
    H = lambda x, p: np.where(np.abs(p) > 0.5, np.nan, 0.5 * p**2 + 0.5 * x**2)
    with pytest.raises(DegenerateInputError, match="root finder"):
        action_quadrature_1d(H, 1.0)
