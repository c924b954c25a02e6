import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcap import (
    Ball,
    Cylinder,
    Ellipsoid,
    ValidationError,
    capacity,
    inclusion_check,
    normal_radii,
    quad_propagator,
    random_symplectic,
    symplectic_spectrum,
    williamson_decompose,
)
from symcap.regions import region_to_dict
from symcap.symcore import (
    QuadraticHamiltonian,
    _plane_rotations,
    flow_energy_drift,
    standard_form_matrix,
    validate_posdef,
)
from symcap.williamson import _normal_form


def random_posdef(n2, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n2, n2))
    return A @ A.T + 0.1 * np.eye(n2)


def test_spectrum_identity():
    assert np.allclose(symplectic_spectrum(np.eye(4)).mu, [1.0, 1.0])


def test_spectrum_diag_ab():
    # eigenvalues of J diag(a, b) are +/- i sqrt(ab)
    for a, b in ((4.0, 1.0), (2.0, 3.0), (0.5, 0.1)):
        mu = symplectic_spectrum(np.diag([a, b])).mu
        assert mu[0] == pytest.approx(math.sqrt(a * b), rel=1e-12)


def test_spectrum_oscillator_frequency():
    m, omega = 2.0, 1.3
    R = np.diag([m * omega**2, 1.0 / m])
    mu = symplectic_spectrum(R).mu[0]
    assert mu == pytest.approx(omega, rel=1e-12)
    # cross-check against the flow period 2 pi / omega
    period = 2.0 * math.pi / mu
    S = quad_propagator(QuadraticHamiltonian(R), period)
    assert np.max(np.abs(S.entries - np.eye(2))) <= 1e-8


def test_spectrum_rejects_bad_input():
    with pytest.raises(ValidationError):
        symplectic_spectrum(np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="eigenvalue"):
        symplectic_spectrum(np.diag([1.0, -2.0]))


def test_decompose_identity():
    dec = williamson_decompose(np.eye(4))
    assert dec.residual <= 1e-10
    assert np.allclose(dec.spectrum.mu, [1.0, 1.0])


def test_decompose_diag_4_1():
    R = np.diag([4.0, 1.0])
    dec = williamson_decompose(R)
    D = dec.S.entries.T @ R @ dec.S.entries
    assert np.allclose(D, np.diag([2.0, 2.0]), atol=1e-10)
    assert dec.spectrum.mu[0] == pytest.approx(2.0, rel=1e-12)


def test_decompose_random_n5():
    R = random_posdef(10, seed=11)
    dec = williamson_decompose(R)
    assert dec.residual <= 1e-8 * np.max(np.abs(R))
    n = 5
    D = dec.S.entries.T @ R @ dec.S.entries
    mu = dec.spectrum.mu
    target = np.diag(np.concatenate([mu, mu]))
    assert np.max(np.abs(D - target)) <= 1e-8 * np.max(np.abs(R))
    # paired entries at (j, n+j)
    for j in range(n):
        assert D[j, j] == pytest.approx(D[n + j, n + j], rel=1e-8)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=30, deadline=None)
def test_spectrum_scaling(lam):
    R = random_posdef(4, seed=2)
    mu = symplectic_spectrum(R).mu
    mu_scaled = symplectic_spectrum(lam * R).mu
    assert np.max(np.abs(mu_scaled - lam * mu) / (lam * mu)) <= 1e-10


def test_spectrum_congruence_invariance():
    R = random_posdef(6, seed=4)
    mu = symplectic_spectrum(R).mu
    for seed in range(10):
        S = random_symplectic(3, seed, 0.6).entries
        mu2 = symplectic_spectrum(S.T @ R @ S).mu
        assert np.max(np.abs(mu2 - mu) / mu) <= 1e-8


def test_flow_period_consistency():
    R = random_posdef(2, seed=9)
    mu = symplectic_spectrum(R).mu[0]
    S = quad_propagator(QuadraticHamiltonian(R), 2.0 * math.pi / mu)
    assert np.max(np.abs(S.entries - np.eye(2))) <= 1e-8


def test_normal_radii_unit_ball():
    assert np.allclose(normal_radii(np.eye(4), 0.5), [1.0, 1.0])


def test_normal_radii_scaled_plane():
    # 2I at level 1: x^2 + p^2 <= 1
    assert normal_radii(2.0 * np.eye(2), 1.0)[0] == pytest.approx(1.0)


def test_normal_radii_minimal_oscillator_ellipse():
    # p^2/(m hbar w) + x^2/(hbar/(m w)) = 1 at E = hbar w / 2
    m, omega, hbar = 1.7, 0.6, 1.0
    R = np.diag([m * omega**2, 1.0 / m])
    r = normal_radii(R, 0.5 * hbar * omega)[0]
    assert r == pytest.approx(math.sqrt(hbar * omega / omega), rel=1e-12)
    # enclosed area in normal coordinates is h/2
    assert math.pi * r**2 == pytest.approx(math.pi * hbar, rel=1e-12)


def test_normal_radii_level_validation():
    with pytest.raises(ValidationError):
        normal_radii(np.eye(2), 0.0)


def test_radii_descending_mu_ascending():
    spec = symplectic_spectrum(random_posdef(8, seed=21))
    assert np.all(np.diff(spec.mu) >= 0)
    assert np.all(np.diff(spec.radii) <= 0)
    assert np.array_equal(spec.omega, spec.mu)


def test_csv_export():
    spec = symplectic_spectrum(np.diag([4.0, 1.0]))
    text = spec.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "j,mu,radius,omega"
    j, mu, radius, omega = lines[1].split(",")
    assert j == "1"
    assert float(mu) == pytest.approx(2.0)
    assert float(radius) == pytest.approx(1.0)
    assert float(omega) == float(mu)


def hessian_with_spectrum(mu, S):
    """R = S^T diag(mu, mu) S, whose symplectic spectrum is mu."""
    R = S.T @ np.diag(np.concatenate([mu, mu])) @ S
    return (R + R.T) / 2.0


def spectrum_reference(R):
    """The positive imaginary parts of the eigenvalues of J R, ascending."""
    n = R.shape[0] // 2
    return np.sort(np.linalg.eigvals(standard_form_matrix(n) @ R).imag)[n:]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_decompose_multiples_of_the_identity(n):
    # every mu_j is repeated; measured: mu within 2 eps of c, residual 6e-16 c
    for c in 10.0 ** np.arange(-300, 301, 25):
        dec = williamson_decompose(c * np.eye(2 * n))
        assert np.max(np.abs(dec.spectrum.mu / c - 1.0)) <= 4 * np.finfo(float).eps
        assert dec.residual <= 1e-8 * c


# at spread 2 and n = 10, cond(S)^2 passes 1e12 and R = S^T D S is no longer positive
# definite in floating point
@pytest.mark.parametrize("n, spread", [(n, 1.0) for n in (1, 2, 3, 5, 10)] +
                         [(n, 2.0) for n in (1, 2, 3, 5)])
def test_decompose_repeated_and_distinct_spectra(n, spread):
    # measured: |mu - exact| <= 0.4 eps cond(R) max(mu) at these spreads
    checked = 0
    for seed in range(6):
        mu = np.sort([np.full(n, 1.5), np.repeat([0.5, 2.0], n)[:n],
                      np.linspace(0.5, 2.0, n)][seed % 3])
        R = hessian_with_spectrum(mu, random_symplectic(n, seed, spread).entries)
        try:
            validate_posdef(R)
        except ValidationError:
            continue  # numerically indefinite: not a valid input
        dec = williamson_decompose(R)  # residual <= 1e-8 |R| or NumericalError
        bound = np.finfo(float).eps * np.linalg.cond(R) * mu[-1]
        assert np.max(np.abs(dec.spectrum.mu - mu)) <= bound
        assert np.max(np.abs(symplectic_spectrum(R).mu - mu)) <= bound
        checked += 1
    assert checked >= 1


@pytest.mark.parametrize("seed", range(20))
def test_spectrum_matches_eigenvalues_of_JR(seed):
    n = 1 + seed % 10
    R = random_posdef(2 * n, seed)
    ref = spectrum_reference(R)
    assert np.max(np.abs(symplectic_spectrum(R).mu - ref) / ref) <= 1e-10


def test_spectrum_of_diag_4_1_is_exact():
    assert symplectic_spectrum(np.diag([4.0, 1.0])).mu.tolist() == [2.0]


def test_flow_of_an_ill_conditioned_hessian():
    # R = S^T diag(1, 2, 1, 2) S with cond(S) about 9e3: expm(t J R) missed the det
    # limit at t = 0.7 (det 0.99999985); the flow is S^-1 rot(t mu) S
    S = random_symplectic(2, 17, 1.0).entries
    mu = np.array([1.0, 2.0])
    R = hessian_with_spectrum(mu, S)
    flow = quad_propagator(QuadraticHamiltonian(R), 0.7).entries
    J = standard_form_matrix(2)
    theta = 0.7 * mu
    c, s = np.diag(np.tile(np.cos(theta), 2)), np.diag(np.sin(theta))
    rot = c + np.block([[np.zeros((2, 2)), s], [-s, np.zeros((2, 2))]])
    exact = -J @ S.T @ J @ rot @ S
    # measured 1.2e-9 relative; the frequencies carry eps cond(R) round-off
    assert np.max(np.abs(flow - exact)) <= np.finfo(float).eps * np.linalg.cond(R) * \
        np.max(np.abs(exact))


# Symmetric to 1e-10 max|R|, yet the lower triangle and the symmetrized matrix disagree
# on positive-definiteness: A's lower triangle is positive definite, (A + A^T) / 2 has
# eigenvalue -1.56e-11; B's mirror image is the other way round (2.44e-11).  The
# verdict was on the lower triangle, the spectrum on the symmetrized matrix, so A gave
# mu = NaN and B was refused.
MISJUDGED_A = [[1.0, 0.5 + 0.99e-10], [0.5, 0.25 + 3e-11]]
MISJUDGED_B = [[1.0, 0.5], [0.5 + 0.99e-10, 0.25 + 8e-11]]


@pytest.mark.parametrize("build", [validate_posdef, symplectic_spectrum, williamson_decompose,
                                   QuadraticHamiltonian,
                                   lambda R: Ellipsoid(np.zeros(2), R, 1.0)],
                         ids=["validate_posdef", "symplectic_spectrum", "williamson_decompose",
                              "QuadraticHamiltonian", "Ellipsoid"])
def test_posdef_verdict_is_on_the_symmetrized_matrix(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="matrix is not positive definite"):
            build(MISJUDGED_A)
        mu = symplectic_spectrum(MISJUDGED_B).mu
    assert np.isfinite(mu).all() and mu[0] == pytest.approx(5.52e-6, rel=1e-2)


def count_factorizations(monkeypatch, dim):
    """The list that numpy.linalg.eigh and eigvalsh append their name to, from now
    on, whenever they are called on a real (dim, dim) array."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            if np.shape(a) == (dim, dim) and not np.iscomplexobj(a):
                calls.append(_name)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def normal_form_reference(R):
    """(spectrum mu, decomposition mu, S, residual) along two factorizations of R:
    eigh of (R + R^T) / 2, then eigvalsh or eigh of iK."""
    n = R.shape[0] // 2
    R = (R + R.T) / 2.0
    w, U = np.linalg.eigh(R)
    half_inv = (U * (1.0 / np.sqrt(w))) @ U.T
    K = half_inv @ standard_form_matrix(n) @ half_inv
    mu_spec = -1.0 / np.linalg.eigvalsh(1j * K)[:n]
    lam, V = np.linalg.eigh(1j * K)
    mu = -1.0 / lam[:n]
    O = np.concatenate([V[:, :n].real, V[:, :n].imag], axis=1)
    S = half_inv @ O * np.sqrt(2.0 * np.concatenate([mu, mu]))
    residual = float(np.max(np.abs(S.T @ R @ S - np.diag(np.concatenate([mu, mu])))))
    return mu_spec, mu, S, residual


@pytest.mark.parametrize("n", range(1, 11))
def test_one_factorization_per_call_and_the_same_bits(monkeypatch, n):
    R = random_posdef(2 * n, seed=100 + n)
    R = (R + R.T) / 2.0
    H, region = QuadraticHamiltonian(R), Ellipsoid(np.zeros(2 * n), R, 1.0)
    shifted = Ellipsoid(np.full(2 * n, 0.1), R, 1.0)
    calls = count_factorizations(monkeypatch, 2 * n)
    # quad_propagator, capacity and inclusion_check read the factors kept at construction
    for call, expected in [(lambda: symplectic_spectrum(R), ["eigh"]),
                           (lambda: williamson_decompose(R), ["eigh"]),
                           (lambda: quad_propagator(H, 0.5), []),
                           (lambda: capacity(region), []),
                           (lambda: inclusion_check(Ball(np.zeros(2 * n), 0.5), region), []),
                           (lambda: inclusion_check(shifted, Cylinder(1, np.zeros(2 * n), 9.0)),
                            [])]:
        calls.clear()
        call()
        assert calls == expected
    for seed in range(5):
        R = random_posdef(2 * n, seed)
        R = (R + R.T) / 2.0
        mu_spec, mu, S, residual = normal_form_reference(R)
        dec = williamson_decompose(R)
        assert np.array_equal(symplectic_spectrum(R).mu, mu_spec)
        assert np.array_equal(dec.spectrum.mu, mu)
        assert np.array_equal(dec.S.entries, S)
        assert dec.residual == residual


def count_complex_eighs(monkeypatch):
    """The list that numpy.linalg.eigh appends to, from now on, whenever it is called
    on a complex array (the Hermitian iK of williamson._normal_form)."""
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if np.iscomplexobj(a):
            calls.append(np.shape(a))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("R", [random_posdef(2, 41), random_posdef(4, 42), random_posdef(10, 45),
                               np.diag([2.0, 0.5, 3.0, 1.0]), 1.5 * np.eye(6),
                               np.array([[2.0, 0.0, 0.3, 0.0], [0.0, 1.0, 0.0, 0.0],
                                         [0.3, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 4.0]])],
                         ids=["n=1", "n=2", "n=5", "diagonal", "scalar", "one-plane-coupling"])
def test_one_normal_form_per_hamiltonian(monkeypatch, R):
    H = QuadraticHamiltonian(R)
    calls = count_complex_eighs(monkeypatch)
    times = [*np.linspace(-7.0, 7.0, 48), 0.0, 1e17]
    flows = [quad_propagator(H, t).entries for t in times]
    assert calls == [R.shape]
    flow_energy_drift(QuadraticHamiltonian(R), np.ones(len(R)), np.linspace(0.0, 30.0, 101))
    assert len(calls) == 2
    # every flow is S rot(t mu) (-J S^T J), S from a fresh normal form
    mu, S = _normal_form(*validate_posdef(H.hessian)[1:])
    J = standard_form_matrix(H.n)
    for t, flow in zip(times, flows):
        assert flow.tobytes() == (S @ _plane_rotations(t * mu) @ (-J @ S.T @ J)).tobytes()


@pytest.mark.parametrize("build, names", [
    (QuadraticHamiltonian, ["hessian"]),
    (lambda R: Ellipsoid(np.zeros(4), R, 1.0), ["center", "hessian", "level"]),
], ids=["QuadraticHamiltonian", "Ellipsoid"])
def test_kept_factors_are_read_only_and_not_fields(build, names):
    R = random_posdef(4, seed=3)
    R = (R + R.T) / 2.0 + np.triu(np.full((4, 4), 1e-14), 1)  # symmetric within the check
    held = build(R)
    assert [f.name for f in dataclasses.fields(held)] == names
    assert "_factors" not in repr(held)
    # (R + R^T) / 2 of the stored symmetric R is R, so re-validating gives the same bits
    for kept, fresh in zip((held.hessian, *held._factors), validate_posdef(held.hessian)):
        assert kept.tobytes() == fresh.tobytes() and not kept.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        held.hessian[0, 0] = 2.0
    if isinstance(held, QuadraticHamiltonian):
        assert "_normal_form" not in vars(held)  # built on the first flow
        quad_propagator(held, 0.3)
        mu, S, S_inv = held._normal_form
        assert "_normal_form" not in repr(held)
        fresh_mu, fresh_S = _normal_form(*validate_posdef(held.hessian)[1:])
        J = standard_form_matrix(2)
        for kept, fresh in zip((mu, S, S_inv), (fresh_mu, fresh_S, -J @ fresh_S.T @ J)):
            assert np.array_equal(kept, fresh) and not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            S_inv[0, 0] = 2.0
    if isinstance(held, Ellipsoid):
        assert region_to_dict(held) == {"variant": "Ellipsoid", "center": [0.0] * 4,
                                        "hessian": held.hessian.tolist(), "level": 1.0}
