"""Symplectic spectrum and Williamson normal form of positive-definite forms.

For a symmetric positive-definite 2n x 2n matrix R there is a symplectic S and
a unique tuple mu_1 <= ... <= mu_n > 0 (the symplectic eigenvalues) with

    S^T R S = diag(mu_1, ..., mu_n, mu_1, ..., mu_n).

The mu_j are the positive imaginary parts of the eigenvalues of J R.  The
quadratic Hamiltonian H(z) = 1/2 z . R z then flows with angular frequencies
omega_j = mu_j, and the level set 1/2 z . R z <= level is, in normal
coordinates, the ellipsoid with conjugate-plane radii sqrt(2 * level / mu_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symcore import (
    SymplecticMatrix,
    _maxabs,
    positive,
    standard_form_matrix,
    validate_posdef,
    write_csv,
)


class NumericalError(RuntimeError):
    """A numerical contract (residual bound) could not be met."""


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues mu (ascending), unit-level radii, and frequencies.

    ``radii[j] = sqrt(2 / mu[j])`` are the conjugate-plane radii of the
    ellipsoid 1/2 z . R z <= 1 in normal coordinates (descending, since mu is
    ascending); ``omega = mu`` are the rotation frequencies of the exact flow.
    """

    mu: np.ndarray
    radii: np.ndarray
    omega: np.ndarray

    @property
    def n(self) -> int:
        return len(self.mu)

    def to_csv(self, path_or_file=None) -> str:
        """Write columns (j, mu, radius, omega); returns the CSV text."""
        rows = ([j + 1, repr(float(self.mu[j])), repr(float(self.radii[j])),
                 repr(float(self.omega[j]))] for j in range(self.n))
        return write_csv(["j", "mu", "radius", "omega"], rows, path_or_file)


@dataclass(frozen=True)
class WilliamsonDecomposition:
    S: SymplecticMatrix
    spectrum: SymplecticSpectrum
    residual: float


def symplectic_spectrum(R) -> SymplecticSpectrum:
    """Symplectic eigenvalues of a positive-definite symmetric matrix.

    The mu_j are read off from the spectrum of J R, whose eigenvalues come in
    pairs +/- i mu_j for positive-definite R.
    """
    R = validate_posdef(R)
    n = R.shape[0] // 2
    ev = np.linalg.eigvals(standard_form_matrix(n) @ R)
    imag = np.sort(ev.imag)
    mu = imag[n:]  # positive half of the +/- i mu pairs, ascending
    return SymplecticSpectrum(mu=mu, radii=np.sqrt(2.0 / mu), omega=mu.copy())


def williamson_decompose(R) -> WilliamsonDecomposition:
    """Symplectic congruence of R to diag(mu, mu).

    Construction: with K = R^{-1/2} J R^{-1/2} (antisymmetric), bring K to
    canonical skew form by a real Schur orthogonal congruence, then assemble
    S = R^{-1/2} O D^{1/2}.  Only the residual bound
    |S^T R S - D| <= 1e-8 |R| is contractual.
    """
    from scipy.linalg import schur

    R = validate_posdef(R)
    n = R.shape[0] // 2
    J = standard_form_matrix(n)

    w, U = np.linalg.eigh(R)
    half_inv = (U * (1.0 / np.sqrt(w))) @ U.T
    K = half_inv @ J @ half_inv
    K = (K - K.T) / 2.0
    T, O = schur(K, output="real")

    nus = np.empty(n)
    for b in range(n):
        nu = T[2 * b, 2 * b + 1]
        if nu < 0:
            O[:, [2 * b, 2 * b + 1]] = O[:, [2 * b + 1, 2 * b]]
            nu = -nu
        nus[b] = nu

    # nu_b = 1/mu_b; sort blocks so mu ascends
    order = np.argsort(-nus)
    mu = 1.0 / nus[order]
    cols = [2 * b for b in order] + [2 * b + 1 for b in order]
    O = O[:, cols]

    d_half = np.concatenate([np.sqrt(mu), np.sqrt(mu)])
    S_mat = half_inv @ O @ np.diag(d_half)
    D = np.diag(np.concatenate([mu, mu]))
    residual = _maxabs(S_mat.T @ R @ S_mat - D)
    bound = 1e-8 * max(_maxabs(R), np.finfo(float).tiny)
    if residual > bound:
        raise NumericalError(
            f"Williamson residual {residual:.3e} exceeds bound {bound:.3e} "
            f"(n={n}, spectrum range {mu[0]:.3e}..{mu[-1]:.3e})"
        )
    spectrum = SymplecticSpectrum(mu=mu, radii=np.sqrt(2.0 / mu), omega=mu.copy())
    return WilliamsonDecomposition(S=SymplecticMatrix(S_mat), spectrum=spectrum,
                                   residual=residual)


def normal_radii(R, level: float) -> np.ndarray:
    """Conjugate-plane radii of the ellipsoid 1/2 z . R z <= level.

    Radii are sqrt(2 * level / mu_j), listed descending (mu ascending).
    """
    return np.sqrt(2.0 * positive("level", level) / symplectic_spectrum(R).mu)
