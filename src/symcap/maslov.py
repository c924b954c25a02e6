"""Lagrangian frames, the symmetric-unitary identification, and Maslov indices.

A Lagrangian plane is spanned by the columns of a stacked frame [X; P] with
X^T P symmetric and full rank.  Orthonormalizing the frame makes U = X + iP
unitary, and the plane is identified with the symmetric unitary matrix
w = (X + iP)(X - iP)^{-1} = U U^T, which depends on the plane only.  The
Maslov index of a closed loop of planes is the winding number of det w(t),
read step by step from the eigenphases of w_k^H w_{k+1}, one per principal
direction.  A loop stores its K frames as one array of shape (K, 2n, n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .symcore import DimensionError, SymplecticMatrix, ValidationError, plane_indices, positive

CLOSURE_TOL = 1e-8  # max principal angle between endpoint planes


class ClosureError(ValueError):
    """Loop endpoints do not span the same Lagrangian plane."""


def validate_frames(frames: np.ndarray) -> None:
    """Raise unless every frame [X; P] of the stack (K, 2n, n) spans a Lagrangian plane.

    Both tests run on the frame scaled to unit columns, which spans the same plane
    (a zero column stays zero): full rank, sigma_min > 1e-10 sigma_max, and
    isotropy, max|X^T P - P^T X| <= 1e-10 (|X|_2 + |P|_2)^2.
    """
    if frames.ndim != 3 or frames.shape[2] < 1 or frames.shape[1] != 2 * frames.shape[2]:
        raise DimensionError(f"frames must have shape (K, 2n, n), got {frames.shape}")
    norms = np.linalg.norm(frames, axis=1, keepdims=True)
    frames = frames / np.maximum(norms, np.finfo(float).tiny)
    X, P = np.split(frames, 2, axis=1)
    svals = np.linalg.svd(frames, compute_uv=False)
    if np.any(svals[:, -1] <= 1e-10 * svals[:, 0]):
        raise ValidationError("frame is rank deficient")
    iso = np.max(np.abs(np.swapaxes(X, 1, 2) @ P - np.swapaxes(P, 1, 2) @ X), axis=(1, 2))
    scale = (np.linalg.norm(X, 2, axis=(1, 2)) + np.linalg.norm(P, 2, axis=(1, 2))) ** 2
    bad = iso > 1e-10 * scale
    if np.any(bad):
        raise ValidationError(f"frame is not Lagrangian: isotropy residual {iso[bad][0]:.3e}")


def closure_angle(F0: np.ndarray, F1: np.ndarray) -> float:
    """Largest principal angle between the column spaces of two frames (2n, n).

    Taken from its sine, |Q1 - Q0 Q0^T Q1|_2 for orthonormal bases Q0, Q1,
    which keeps full relative accuracy at small angles, where the cosine
    loses it.
    """
    (Q0, Q1), _ = np.linalg.qr(np.stack([F0, F1]))
    return float(np.arcsin(min(1.0, np.linalg.norm(Q1 - Q0 @ (Q0.T @ Q1), 2))))


@dataclass(frozen=True)
class LagrangianFrame:
    """A frame [X; P] spanning a Lagrangian plane."""

    X: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        X = np.array(self.X, dtype=float, ndmin=2)
        P = np.array(self.P, dtype=float, ndmin=2)
        X.setflags(write=False)
        P.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "P", P)
        if X.shape != P.shape or X.shape[0] != X.shape[1]:
            raise DimensionError(f"X and P must be equal square matrices, got {X.shape}, {P.shape}")
        validate_frames(self.stacked()[None])

    def stacked(self) -> np.ndarray:
        return np.vstack([self.X, self.P])


def _souriau(frames: np.ndarray) -> np.ndarray:
    """w = U U^T, U = Q[:n] + iQ[n:] for orthonormal frames Q, of a stack (K, 2n, n)."""
    Q, _ = np.linalg.qr(frames)
    n = frames.shape[2]
    U = Q[:, :n] + 1j * Q[:, n:]
    return U @ np.swapaxes(U, 1, 2)


def souriau_map(frame: LagrangianFrame) -> np.ndarray:
    """Symmetric unitary matrix w = (X + iP)(X - iP)^{-1} of the plane.

    Computed from an orthonormal representative as U U^T with U = X + iP,
    which is manifestly symmetric and unitary and frame-independent.
    """
    return _souriau(frame.stacked()[None])[0]


@dataclass(frozen=True)
class LagrangianLoop:
    """A closed sampled path of Lagrangian frames, stacked as (K, 2n, n), at parameters ts."""

    frames: np.ndarray
    ts: tuple

    def __post_init__(self):
        frames = np.array(self.frames, dtype=float)
        frames.setflags(write=False)
        ts = tuple(float(t) for t in self.ts)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "ts", ts)
        validate_frames(frames)
        if len(frames) < 2 or len(frames) != len(ts):
            raise ValidationError("loop needs >= 2 frames with matching parameters")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValidationError("loop parameters must be strictly increasing")
        angle = closure_angle(frames[0], frames[-1])
        if angle > CLOSURE_TOL:
            raise ClosureError(f"endpoint planes differ by principal angle {angle:.3e}")

    @property
    def n(self) -> int:
        return self.frames.shape[2]

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "frames": [{"X": F[:self.n].tolist(), "P": F[self.n:].tolist(), "t": t}
                       for F, t in zip(self.frames, self.ts)],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LagrangianLoop":
        records = json.loads(text)["frames"]
        X = np.array([rec["X"] for rec in records], dtype=float)
        P = np.array([rec["P"] for rec in records], dtype=float)
        if X.ndim != 3 or X.shape != P.shape or X.shape[1] != X.shape[2]:
            raise DimensionError(f"X and P must be equal square matrices, got {X.shape}, {P.shape}")
        return cls(np.concatenate([X, P], axis=1), [rec["t"] for rec in records])


@dataclass(frozen=True)
class MaslovResult:
    """Index and raw winding of a loop.

    refinement_depth is always 0: every step is read from the samples alone.
    It stays in the result and in the `symcap maslov` JSON schema.
    """

    index: int
    raw_winding: float
    refinement_depth: int


def maslov_index(loop: LagrangianLoop) -> MaslovResult:
    """Winding number of det w(t) over the loop, rounded to an integer.

    Within step k the principal directions of the plane turn by angles
    theta_j, and the unitary w_k^H w_{k+1} has eigenvalues exp(2i theta_j).
    The raw winding is (1/2 pi) times the sum, over all steps, of the
    principal phases of those eigenvalues, from one batched eigvals call.
    Step k's phases add up to the phase of det w_{k+1} / det w_k modulo 2 pi,
    so the steps telescope to the phase of det w_K / det w_0: on a loop closed
    to CLOSURE_TOL, |raw - index| <= n CLOSURE_TOL / pi up to rounding, and
    the raw winding is never near a half-integer.

    The loop is known only at its samples, and a plane is only determined by
    its principal angles modulo pi.  A direction that turns by pi/2 or more
    within one step is read as the shorter turn the other way, and the index
    may come out wrong with no error; a turn of exactly pi/2 is undetermined.
    Sample fast-turning loops (for example a torus cycle moved by an
    ill-conditioned map) densely enough that no direction turns by pi/2
    within a step.
    """
    w = _souriau(loop.frames)
    steps = np.angle(np.linalg.eigvals(np.swapaxes(w[:-1], 1, 2).conj() @ w[1:]))
    raw = float(np.cumsum(steps.sum(axis=1))[-1]) / (2.0 * np.pi)  # step sums added in order
    return MaslovResult(index=int(round(raw)), raw_winding=raw, refinement_depth=0)


def torus_cycle_loop(radii, j: int, samples: int = 64) -> LagrangianLoop:
    """Tangent-frame loop along the j-th basic cycle of the torus T^n(R_1..R_n).

    The torus point at angles theta is (R_i cos theta_i; R_i sin theta_i);
    tangent column i is the derivative in theta_i.  Along the basic cycle,
    theta_j sweeps [0, 2 pi] while the other angles stay at 0.
    """
    radii = positive("torus radii", radii)
    n = len(radii)
    plane_indices(n, j)
    if samples < 16:
        raise ValidationError(f"need samples >= 16, got {samples}")
    ts = 2.0 * np.pi * np.arange(samples + 1) / samples
    theta = np.zeros((samples + 1, n))
    theta[:, j - 1] = ts
    i = np.arange(n)
    frames = np.zeros((samples + 1, 2 * n, n))
    frames[:, i, i] = -radii * np.sin(theta)
    frames[:, n + i, i] = radii * np.cos(theta)
    return LagrangianLoop(frames, ts)


def transport_loop(loop: LagrangianLoop, S: SymplecticMatrix) -> LagrangianLoop:
    """Frame-wise image of the loop under a fixed linear symplectomorphism."""
    if S.n != loop.n:
        raise DimensionError("map dimension does not match the loop")
    return LagrangianLoop(S.entries @ loop.frames, loop.ts)
