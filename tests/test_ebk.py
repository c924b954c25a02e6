import json
import math
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
    FD_ROUNDOFF,
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
            assert check.satisfied == all(a >= half_h - 1e-12 for a in planes)


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


@pytest.mark.parametrize("declared", [[1e6, 1.0], [1e6 * (1.0 + 1e-4), 1e-12]])
def test_check_monotone_catches_a_gradient_error_differences_resolve(declared):
    K = ActionHamiltonian(K=oscillator_hamiltonian([1e6, 1e-12]).K, n=2,
                          gradient=lambda I: np.array(declared), monotone=True)
    with pytest.raises(ValidationError, match="declared gradient"):
        K.check_monotone()


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
        I = rng.uniform(lo, hi, size=K.n)
        g = (np.asarray(K.gradient(I), dtype=float) if K.gradient is not None
             else reference_fd_grad(K, I))
        if np.any(g <= 0):
            return False
        if K.gradient is not None:
            excess = np.abs(g - reference_fd_grad(K, I)) - 1e-5 * np.abs(g)
            if np.any(excess > 0) and np.any(
                    excess * FD_STEP * np.maximum(np.abs(I), 1.0)
                    > FD_ROUNDOFF * np.finfo(float).eps * abs(K.K(I))):
                raise ValidationError("declared gradient disagrees with finite differences")
    return True


def _verdict(check, K):
    try:
        return check(K)
    except ValidationError as exc:
        return str(exc)


def _power_sum(a, n, declared):
    return ActionHamiltonian(K=lambda I: float(np.sum(I**a)), n=n, monotone=True,
                             gradient=(lambda I: a * I ** (a - 1)) if declared else None)


def _quartic(I):
    return float(np.sum(I**2) + np.prod(I))


def _wrong_after_first_failure():
    # K = I_1; the declared gradient is 0 below I_1 = 1 and 2 (wrong) from I_1 = 9 on
    return ActionHamiltonian(K=lambda I: float(I[0]), n=1, monotone=True,
                             gradient=lambda I: np.array([0.0 if I[0] < 1 else
                                                          2.0 if I[0] >= 9 else 1.0]))


def _oscillators():
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        for k in range(3):
            yield f"oscillator n={n} #{k}", oscillator_hamiltonian(10.0 ** rng.uniform(-12, 6, n))
    yield "oscillator 1e6, 1e-12", oscillator_hamiltonian([1e6, 1e-12])


EQUIVALENCE_SET = {
    **dict(_oscillators()),
    **{f"power a={a} n={n} declared={d}": _power_sum(a, n, d)
       for a in (0.5, 1.0, 2.0, 3.0, -1.0) for n in (1, 3) for d in (False, True)},
    "quartic": ActionHamiltonian(K=_quartic, n=3, monotone=True),
    "decreasing": ActionHamiltonian(K=lambda I: float(-I[0]), n=1, monotone=True),
    **{f"decreasing from 9 declared={d}": ActionHamiltonian(
        K=lambda I: float(-(I[0] - 9.0) ** 2), n=1,
        gradient=(lambda I: -2.0 * (I - 9.0)) if d else None) for d in (False, True)},
    **{f"wrong declared gradient {g}": ActionHamiltonian(
        K=oscillator_hamiltonian([1e6, 1e-12]).K, n=2, gradient=lambda I, g=g: np.array(g))
       for g in ([1e6, 1.0], [1e6 * (1.0 + 1e-4), 1e-12])},
    "wrong after the first failure": _wrong_after_first_failure(),
}


@pytest.mark.parametrize("K", EQUIVALENCE_SET.values(), ids=EQUIVALENCE_SET.keys())
def test_check_monotone_matches_the_per_sample_loop(K):
    assert _verdict(ActionHamiltonian.check_monotone, K) == _verdict(reference_check_monotone, K)


def test_check_monotone_ignores_a_gradient_error_after_the_first_failure():
    I = np.random.default_rng(0).uniform(1e-3, 10.0, 1000)
    assert np.argmax(I < 1) < np.argmax(I >= 9)  # a non-positive sample comes first
    assert _wrong_after_first_failure().check_monotone() is False


def test_check_monotone_draws_the_per_sample_actions():
    rng = np.random.default_rng(0)
    per_sample = np.array([rng.uniform(1e-3, 10.0, size=3) for _ in range(1000)])
    seen = []
    K = ActionHamiltonian(K=lambda I: float(np.sum(I)), n=3,
                          gradient=lambda I: seen.append(I.copy()) or np.ones(3))
    assert K.check_monotone()
    assert np.array_equal(np.array(seen), per_sample)


def test_grad_is_bit_identical_to_the_per_coordinate_differences():
    Ks = [_power_sum(2.0, 3, False), _power_sum(0.5, 2, False), ActionHamiltonian(K=_quartic, n=3),
          ActionHamiltonian(K=lambda I: float(math.exp(I[0]) * I[1]), n=2)]
    rng = np.random.default_rng(9)
    for k in range(10_000):  # random actions over eight decades
        K = Ks[k % len(Ks)]
        I = 10.0 ** rng.uniform(-6, 2, K.n)
        assert np.array_equal(K.grad(I), reference_fd_grad(K, I))


@pytest.mark.parametrize("gradient", [None, lambda I: np.array([np.nan]),
                                      lambda I: np.array([np.inf])],
                         ids=["nan-differences", "nan-declared", "inf-declared"])
def test_non_finite_gradient_fails_the_spot_check(gradient):
    K = ActionHamiltonian(K=lambda I: math.nan, n=1, gradient=gradient, monotone=True)
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
    """p+ - p- with both momentum branches solved, the reference for ebk._widths."""
    v = hamiltonian(x, np.zeros_like(x)) - energy
    inside = np.flatnonzero(v < 0)
    xs, sign = np.tile(x[inside], 2), np.repeat([1.0, -1.0], inside.size)
    f = lambda p: hamiltonian(xs, sign * p) - energy
    a, fa = np.zeros(xs.size), np.tile(v[inside], 2)
    hi = 1.0
    b, fb = np.full(xs.size, hi), f(hi)
    low = np.flatnonzero(fb < 0)
    while low.size:
        hi *= 2.0
        b[low], fb[low] = hi, hamiltonian(xs[low], sign[low] * hi) - energy
        low = low[fb[low] < 0]
    for _ in range(ebk.ILLINOIS_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        swap = (fc > 0) != (fb > 0)
        a, fa = np.where(swap, b, a), np.where(swap, fb, 0.5 * fa)
        b, fb = c, fc
        if np.all((fc == 0) | (np.abs(b - a) <= ebk.ROOT_RTOL * np.abs(c))):
            width = np.zeros(x.size)
            width[inside] = b.reshape(2, -1).sum(axis=0)
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
