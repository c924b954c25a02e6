"""Symplectic spectrum and Williamson normal form of positive-definite forms.

For a symmetric positive-definite 2n x 2n matrix R there is a symplectic S and
a unique tuple mu_1 <= ... <= mu_n > 0 (the symplectic eigenvalues) with

    S^T R S = diag(mu_1, ..., mu_n, mu_1, ..., mu_n).

The mu_j are the positive imaginary parts of the eigenvalues of J R.  The
quadratic Hamiltonian H(z) = 1/2 z . R z then flows with angular frequencies
omega_j = mu_j, and the level set 1/2 z . R z <= level is, in normal
coordinates, the ellipsoid with conjugate-plane radii sqrt(2 * level / mu_j).

R is factorized once, by the eigh in symcore.validate_posdef of the
symmetrized (R + R^T) / 2 that it judges and returns; a QuadraticHamiltonian or
an Ellipsoid keeps those factors, and R^{-1/2} is built from them.  One Hermitian
eigendecomposition (_normal_form) gives both mu and S, and a QuadraticHamiltonian
keeps (mu, S, S^{-1}) from its first flow exp(t J R) = S rot(t mu) S^{-1}.  The
spectrum alone, and an Ellipsoid's capacity, take only the eigenvalues of the same
Hermitian matrix (_spectrum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symcore import TINY, SymplecticMatrix, _J, positive, validate_posdef, write_csv


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

    def to_csv(self) -> str:
        """CSV text of the columns (j, mu, radius, omega)."""
        rows = ([j + 1, repr(float(self.mu[j])), repr(float(self.radii[j])),
                 repr(float(self.omega[j]))] for j in range(self.n))
        return write_csv(["j", "mu", "radius", "omega"], rows)


@dataclass(frozen=True)
class WilliamsonDecomposition:
    S: SymplecticMatrix
    spectrum: SymplecticSpectrum
    residual: float


def _hermitian_form(w: np.ndarray, U: np.ndarray):
    """(R^{-1/2}, K = R^{-1/2} J R^{-1/2}) from the eigendecomposition R = U diag(w) U^T
    that validate_posdef returns; see _normal_form."""
    half_inv = (U * (1.0 / np.sqrt(w))) @ U.T
    return half_inv, half_inv @ _J(len(w) // 2) @ half_inv


def _normal_form(w, U):
    """(mu, S) with S^T R S = diag(mu, mu), mu ascending and S symplectic, from the
    eigendecomposition R = U diag(w) U^T that validate_posdef returns.

    K = R^{-1/2} J R^{-1/2} is antisymmetric, so iK is Hermitian with eigenvalues
    -1/mu_1 < ... <= -1/mu_n < 0 < 1/mu_n <= ... <= 1/mu_1.  The conjugate of an
    eigenvector a + ib of -1/mu_j belongs to +1/mu_j, so v^T w = 0 for any two of the
    n eigenvectors of the negative half, v = w and repeated mu included: O = sqrt(2)
    [a | b] is orthogonal, O^T K O = J diag(1/mu, 1/mu), and S = R^{-1/2} O diag(mu, mu)^{1/2}.
    """
    n = len(w) // 2
    half_inv, K = _hermitian_form(w, U)
    lam, V = np.linalg.eigh(1j * K)  # reads the lower triangle: K is taken antisymmetric
    mu = -1.0 / lam[:n]
    O = np.concatenate([V[:, :n].real, V[:, :n].imag], axis=1)
    return mu, half_inv @ O * np.sqrt(2.0 * np.concatenate([mu, mu]))


def _spectrum(w, U) -> SymplecticSpectrum:
    """symplectic_spectrum of R = U diag(w) U^T, from the factors validate_posdef returns."""
    mu = -1.0 / np.linalg.eigvalsh(1j * _hermitian_form(w, U)[1])[:len(w) // 2]
    return SymplecticSpectrum(mu=mu, radii=np.sqrt(2.0 / mu), omega=mu.copy())


def symplectic_spectrum(R) -> SymplecticSpectrum:
    """Symplectic eigenvalues of a positive-definite symmetric matrix: -1/mu_j are the
    n negative eigenvalues of the Hermitian iK of _normal_form, taken without eigenvectors."""
    return _spectrum(*validate_posdef(R)[1:])


def williamson_decompose(R) -> WilliamsonDecomposition:
    """Symplectic congruence of R to diag(mu, mu), built by _normal_form.

    Only the residual bound |S^T R S - D| <= 1e-8 |R| is contractual.
    """
    R, w, U = validate_posdef(R)
    mu, S = _normal_form(w, U)
    D = S.T @ R @ S
    D.ravel()[::len(D) + 1] -= np.concatenate([mu, mu])  # a view: D is C-contiguous
    residual = float(np.abs(D).max())
    bound = 1e-8 * max(float(np.abs(R).max()), TINY)
    if residual > bound:
        raise NumericalError(
            f"Williamson residual {residual:.3e} exceeds bound {bound:.3e} "
            f"(n={len(mu)}, spectrum range {mu[0]:.3e}..{mu[-1]:.3e})"
        )
    spectrum = SymplecticSpectrum(mu=mu, radii=np.sqrt(2.0 / mu), omega=mu.copy())
    return WilliamsonDecomposition(S=SymplecticMatrix(S), spectrum=spectrum, residual=residual)


def normal_radii(R, level: float) -> np.ndarray:
    """Conjugate-plane radii of the ellipsoid 1/2 z . R z <= level.

    Radii are sqrt(2 * level / mu_j), listed descending (mu ascending).
    """
    return np.sqrt(2.0 * positive("level", level) / symplectic_spectrum(R).mu)
