"""Tests of the benchmark's own reference formulas and checkers.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracles.py

Each checker must accept the program's right answer and reject a perturbed
one; the reference formulas must reproduce cases worked out by hand.
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles as o
from symcap import ebk, maslov, squeeze, symcore, williamson

SHEAR = np.block([[np.eye(2), np.zeros((2, 2))],
                  [np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)]])


# --- reference formulas on hand cases ---------------------------------------

def test_shear_shadow_areas():
    assert o.projection_area(SHEAR, 1.0, 1) == pytest.approx(math.sqrt(2.0) * math.pi, 1e-14)
    assert o.slice_area(SHEAR, 1.0, 1) == pytest.approx(math.pi / math.sqrt(2.0), 1e-14)


@pytest.mark.parametrize("a,b", [(4.0, 1.0), (2.0, 3.0), (0.25, 9.0)])
def test_diagonal_symplectic_eigenvalue(a, b):
    assert o.symplectic_eigenvalues(np.diag([a, b]))[0] == pytest.approx(math.sqrt(a * b), 1e-14)


def test_areas_scale_with_radius_and_match_determinant_forms():
    S = symcore.random_symplectic(3, 4, 0.5).entries
    M = S @ S.T
    for j in (1, 2, 3):
        idx = [j - 1, 3 + j - 1]
        det_p = np.linalg.det(M[np.ix_(idx, idx)])
        det_s = np.linalg.det(np.linalg.inv(M)[np.ix_(idx, idx)])
        assert o.projection_area(S, 2.0, j) == pytest.approx(4 * math.pi * math.sqrt(det_p), 1e-9)
        assert o.slice_area(S, 2.0, j) == pytest.approx(4 * math.pi / math.sqrt(det_s), 1e-9)


def test_shadow_radius_of_a_ball_and_a_diagonal_ellipse():
    assert o.shadow_radius(2.5 * np.eye(4), 2) == pytest.approx(2.5)
    # 1/2 (4 x^2 + p^2) <= 1 has semi-axes sqrt(2)/2 and sqrt(2)
    A = math.sqrt(2.0) * o.inverse_sqrt(np.diag([4.0, 1.0]))
    assert o.shadow_radius(A, 1) == pytest.approx(math.sqrt(2.0))


def test_quartic_action_reduces_to_the_harmonic_one():
    assert o.quartic_action(1e-9, 1.3) == pytest.approx(1.3, 1e-8)
    assert o.quartic_action(0.05, 1.0) == pytest.approx(o.quartic_action(0.05, 1.0, 800), 1e-12)
    assert o.quartic_action(0.05, 1.0) < 1.0  # the quartic wall shrinks the orbit


# --- each checker accepts the right answer and rejects a perturbed one -------

def test_nonsqueeze_checker():
    rep = squeeze.nonsqueeze_verify(3, trials=20, seed=5)
    o.check_nonsqueeze(rep, 3)
    bad = dataclasses.replace(rep, violations=[{"trial": 0, "j": 1}])
    with pytest.raises(o.CheckError):
        o.check_nonsqueeze(bad, 3)
    bad = dataclasses.replace(rep, min_projection_ratio=rep.min_projection_ratio * 1.02)
    with pytest.raises(o.CheckError):
        o.check_nonsqueeze(bad, 3)
    bad = dataclasses.replace(rep, max_intersection_ratio=1.02)
    with pytest.raises(o.CheckError):
        o.check_nonsqueeze(bad, 3)


def test_monte_carlo_area_checkers():
    S = symcore.SymplecticMatrix(SHEAR)
    proj, inter = o.projection_area(SHEAR, 1.0, 1), o.slice_area(SHEAR, 1.0, 1)
    o.check_mc_projection(SHEAR, 1.0, 1, proj * 0.995)
    o.check_mc_slice(SHEAR, 1.0, 1, inter * 1.005)
    o.check_mc_slice(SHEAR, 1.0, 1, squeeze.mc_intersection_area(S, 1.0, 1, 10**5, 0))
    for off in (0.98, 1.02):
        with pytest.raises(o.CheckError):
            o.check_mc_projection(SHEAR, 1.0, 1, proj * off)
        with pytest.raises(o.CheckError):
            o.check_mc_slice(SHEAR, 1.0, 1, inter * off)


def test_maslov_checker():
    res = maslov.maslov_index(maslov.torus_cycle_loop([1.0, 2.0], 2))
    o.check_maslov(res)
    with pytest.raises(o.CheckError):
        o.check_maslov(dataclasses.replace(res, index=0))


def test_williamson_and_spectrum_checkers():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 6))
    R = A @ A.T + 0.1 * np.eye(6)
    dec = williamson.williamson_decompose(R)
    o.check_williamson(R, dec)
    o.check_spectrum(R, williamson.symplectic_spectrum(R).mu)
    mu = dec.spectrum.mu * (1.0 + 1e-6)
    with pytest.raises(o.CheckError):
        o.check_spectrum(R, mu)
    wrong = dataclasses.replace(dec, spectrum=dataclasses.replace(dec.spectrum, mu=mu))
    with pytest.raises(o.CheckError):
        o.check_williamson(R, wrong)
    o.check_diag_spectrum(4.0, 1.0, [2.0])
    with pytest.raises(o.CheckError):
        o.check_diag_spectrum(4.0, 1.0, [2.5])


def test_flow_checker():
    R = np.array([[2.0, 0.3], [0.3, 1.0]])
    S = symcore.quad_propagator(symcore.QuadraticHamiltonian(R), 0.7).entries
    o.check_flow(R, S, [1.0, -0.5])
    with pytest.raises(o.CheckError):
        o.check_flow(R, S * 1.01, [1.0, -0.5])


def test_value_and_inclusion_checkers():
    o.check_value(math.pi, math.pi, "capacity")
    with pytest.raises(o.CheckError):
        o.check_value(math.pi * 1.02, math.pi, "capacity")
    o.check_inclusion(True, True, "ball in cylinder")
    with pytest.raises(o.CheckError):
        o.check_inclusion(False, True, "ball in cylinder")


def _oscillator(hbar=0.7):
    omegas = np.array([1.0, 2.5])
    K = ebk.oscillator_hamiltonian(omegas)
    spec = ebk.energy_levels(K, (2, 2), 3, hbar)
    return omegas, K, spec


def _shifted(spec, k, delta):
    entries = list(spec.entries)
    entries[k] = dataclasses.replace(entries[k], energy=entries[k].energy + delta)
    return dataclasses.replace(spec, entries=tuple(entries))


def test_oscillator_level_checker():
    omegas, _, spec = _oscillator()
    o.check_oscillator_spectrum(spec, omegas, 3, 0.7)
    with pytest.raises(o.CheckError):
        o.check_oscillator_spectrum(_shifted(spec, 5, 0.7), omegas, 3, 0.7)


def test_energy_bound_checker():
    omegas, K, spec = _oscillator()
    Kfn = lambda I: float(np.dot(omegas, I))  # noqa: E731
    o.check_levels_bounded(spec, Kfn, 0.7, ebk.verify_energy_bound(K, spec))
    low = _shifted(spec, 0, -0.7)  # the ground level moved down by hbar
    with pytest.raises(o.CheckError):
        o.check_levels_bounded(low, Kfn, 0.7, ebk.verify_energy_bound(K, low))


def test_capacity_condition_checker():
    _, _, spec = _oscillator()
    e = spec.entries[4]
    check = ebk.capacity_condition(e, 0.7)
    o.check_capacity_condition(e, check, 0.7)
    with pytest.raises(o.CheckError):
        o.check_capacity_condition(e, dataclasses.replace(check, capacity=check.capacity * 1.02),
                                   0.7)
