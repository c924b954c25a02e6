"""Reference computations and output checkers of the benchmark.

Every formula here is derived apart from the program under test: areas come
from singular values instead of determinants of S S^T, symplectic eigenvalues
from a Hermitian eigenproblem instead of eig(J R), and the quartic action from
a Gauss-Legendre rule instead of adaptive quadrature.  A checker returns
nothing when the output is right and raises ``CheckError`` naming the first
property that fails.
"""

from __future__ import annotations

import math

import numpy as np

# Relative slack on identities that hold exactly in real arithmetic.  The
# program's own verification tolerance is 1e-9; the residuals measured over
# the workload inputs of seeds 1-20 stay below 2e-13 (see README.md).
RTOL = 1e-9
MC_RTOL = 0.01  # the Monte Carlo oracles promise 1% at 10^6 samples
QUAD_RTOL = 1e-6  # quartic action against a 400-node Gauss-Legendre rule
HARMONIC_RTOL = 1e-8


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's reference."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), np.finfo(float).tiny)


# --- independent formulas ---------------------------------------------------

def form_matrix(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def symplectic_residual(S) -> float:
    """max|S^T J S - J| relative to max|S|^2."""
    S = np.asarray(S, dtype=float)
    J = form_matrix(S.shape[0] // 2)
    return float(np.max(np.abs(S.T @ J @ S - J))) / max(float(np.max(np.abs(S))) ** 2, 1.0)


def plane_rows(A, j: int) -> np.ndarray:
    """Rows (x_j, p_j) of a 2n-row matrix, j 1-based."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0] // 2
    return A[[j - 1, n + j - 1], :]


def projection_area(S, R: float, j: int) -> float:
    """pi R^2 sigma_1 sigma_2 of the two plane rows of S."""
    sv = np.linalg.svd(plane_rows(S, j), compute_uv=False)
    return math.pi * R**2 * float(sv[0] * sv[1])


def slice_area(S, R: float, j: int) -> float:
    """pi R^2 / sqrt(det(C^T C)), C the plane columns of S^-1 = -J S^T J."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0] // 2
    J = form_matrix(n)
    C = (-J @ S.T @ J)[:, [j - 1, n + j - 1]]
    sv = np.linalg.svd(C, compute_uv=False)
    return math.pi * R**2 / float(sv[0] * sv[1])


def shadow_radius(A, j: int) -> float:
    """Largest semi-axis of the shadow of A(B(1)) on the plane (x_j, p_j)."""
    return float(np.linalg.svd(plane_rows(A, j), compute_uv=False)[0])


def inverse_sqrt(H) -> np.ndarray:
    w, U = np.linalg.eigh(np.asarray(H, dtype=float))
    return (U / np.sqrt(w)) @ U.T


def symplectic_eigenvalues(R) -> np.ndarray:
    """Ascending mu_j: the positive eigenvalues of the Hermitian i R^1/2 J R^1/2."""
    R = np.asarray(R, dtype=float)
    w, U = np.linalg.eigh(R)
    half = (U * np.sqrt(w)) @ U.T
    K = half @ form_matrix(R.shape[0] // 2) @ half
    ev = np.linalg.eigvalsh(1j * K)
    return ev[R.shape[0] // 2:]


def oscillator_energy(omegas, N, hbar: float) -> float:
    return float(sum((Nj + 0.5) * hbar * w for Nj, w in zip(N, omegas)))


def quartic_action(lam: float, E: float, nodes: int = 400) -> float:
    """Action of H = p^2/2 + x^2/2 + lam x^4 at energy E by Gauss-Legendre.

    I = (1/pi) int_{-a}^{a} sqrt(2 (E - V)) dx with x = a sin(theta), which
    turns the square-root endpoints into a smooth integrand.
    """
    a = math.sqrt((-0.5 + math.sqrt(0.25 + 4.0 * lam * E)) / (2.0 * lam))
    t, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * t
    x = a * np.sin(theta)
    V = 0.5 * x**2 + lam * x**4
    f = np.sqrt(np.maximum(2.0 * (E - V), 0.0)) * a * np.cos(theta)
    return 0.5 * float(np.dot(w, f))  # (1/pi) * (pi/2) * sum


# --- checkers ---------------------------------------------------------------

def check_nonsqueeze(report, n: int, R: float = 1.0, tol: float = RTOL):
    expect(not report.violations, f"n={n}: {len(report.violations)} violations")
    expect(report.min_projection_ratio >= 1.0 - tol,
           f"n={n}: min projection ratio {report.min_projection_ratio!r} < 1")
    expect(report.max_intersection_ratio <= 1.0 + tol,
           f"n={n}: slice ratio {report.max_intersection_ratio!r} > 1")
    W = report.worst_case_matrix
    res = symplectic_residual(W)
    expect(res <= tol, f"n={n}: worst-case matrix symplectic residual {res:.2e}")
    ratio = min(projection_area(W, R, j) for j in range(1, n + 1)) / (math.pi * R**2)
    expect(rel_err(report.min_projection_ratio, ratio) <= tol,
           f"n={n}: min ratio {report.min_projection_ratio!r} vs singular values {ratio!r}")


def check_mc_projection(S, R: float, j: int, area: float):
    exact = projection_area(S, R, j)
    expect(area <= exact * (1.0 + RTOL),
           f"hull area {area!r} exceeds the shadow area {exact!r}")
    expect(area >= exact * (1.0 - MC_RTOL),
           f"hull area {area!r} more than 1% below {exact!r}")


def check_mc_slice(S, R: float, j: int, area: float):
    exact = slice_area(S, R, j)
    expect(rel_err(area, exact) <= MC_RTOL, f"slice area {area!r} vs {exact!r}")


def check_maslov(result, expected: int = 2):
    expect(result.index == expected, f"Maslov index {result.index}, expected {expected}")


def check_williamson(R, dec):
    R = np.asarray(R, dtype=float)
    S = dec.S.entries
    mu = np.asarray(dec.spectrum.mu)
    D = np.diag(np.concatenate([mu, mu]))
    res = float(np.max(np.abs(S.T @ R @ S - D))) / float(np.max(np.abs(R)))
    expect(res <= 1e-8, f"S^T R S - diag(mu, mu) residual {res:.2e}")
    res = symplectic_residual(S)
    expect(res <= RTOL, f"S^T J S - J residual {res:.2e}")
    check_spectrum(R, mu)


def check_spectrum(R, mu):
    ref = symplectic_eigenvalues(R)
    err = float(np.max(np.abs(np.asarray(mu) - ref) / ref))
    expect(err <= 1e-8, f"symplectic eigenvalues off by {err:.2e}")


def check_diag_spectrum(a: float, b: float, mu):
    expect(rel_err(float(mu[0]), math.sqrt(a * b)) <= 1e-12,
           f"mu {float(mu[0])!r} for diag({a}, {b}), expected sqrt(ab)")


def check_flow(R, S, z0):
    R = np.asarray(R, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    zt = np.asarray(S, dtype=float) @ z0
    e0, et = 0.5 * z0 @ R @ z0, 0.5 * zt @ R @ zt
    expect(rel_err(et, e0) <= RTOL, f"flow energy {et!r} vs {e0!r}")
    res = symplectic_residual(S)
    expect(res <= RTOL, f"propagator symplectic residual {res:.2e}")


def check_value(value: float, expected: float, what: str, rtol: float = RTOL):
    expect(rel_err(value, expected) <= rtol, f"{what}: {value!r}, expected {expected!r}")


def check_inclusion(holds: bool, expected: bool, what: str):
    expect(bool(holds) == expected, f"{what}: verdict {bool(holds)}, expected {expected}")


def check_oscillator_spectrum(spec, omegas, n_max: int, hbar: float):
    expect(len(spec.entries) == (n_max + 1) ** len(omegas),
           f"{len(spec.entries)} levels on an N grid of size {n_max + 1}^{len(omegas)}")
    for e in spec.entries:
        check_value(e.energy, oscillator_energy(omegas, e.N, hbar), f"level N={e.N}", 1e-12)


def check_levels_bounded(spec, K, hbar: float, bound_report):
    ground = float(K(np.full(len(spec.entries[0].N), hbar / 2.0)))
    check_value(bound_report.ground, ground, "K(hbar/2, ...)", 1e-12)
    expect(bound_report.ok, "verify_energy_bound reported a violation")
    low = min(e.energy for e in spec.entries)
    expect(low >= ground * (1.0 - 1e-12), f"level {low!r} below K(hbar/2, ...) = {ground!r}")


def check_capacity_condition(entry, check, hbar: float):
    ref = math.pi * hbar * min(2 * N + m / 2.0 for N, m in zip(entry.N, entry.maslov))
    check_value(check.capacity, ref, f"torus capacity N={entry.N}", 1e-12)
    expect(check.satisfied == (ref >= math.pi * hbar * (1.0 - 1e-12)),
           f"capacity condition N={entry.N}: {check.satisfied}")
