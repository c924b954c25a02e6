"""Lagrangian frames, the symmetric-unitary identification, and Maslov indices.

A Lagrangian plane is spanned by the columns of a stacked frame [X; P] with
X^T P symmetric and full rank.  Orthonormalizing the frame makes U = X + iP
unitary, and the plane is identified with the symmetric unitary matrix
w = (X + iP)(X - iP)^{-1} = U U^T, which depends on the plane only.  The
Maslov index of a closed loop of planes is the winding number of det w(t).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import subspace_angles

from .symcore import DimensionError, SymplecticMatrix, ValidationError, plane_indices

CLOSURE_TOL = 1e-8  # max principal angle between endpoint planes
SNAP_TOL = 0.1      # max |raw winding - integer| accepted


class ClosureError(ValueError):
    """Loop endpoints do not span the same Lagrangian plane."""


class SamplingTooCoarseError(RuntimeError):
    """Phase steps stayed >= pi/2 after exhausting refinement depth."""


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
        stacked = np.vstack([X, P])
        svals = np.linalg.svd(stacked, compute_uv=False)
        if svals[-1] <= 1e-10 * svals[0]:
            raise ValidationError("frame is rank deficient")
        sX = np.linalg.norm(X, 2)
        sP = np.linalg.norm(P, 2)
        iso = np.max(np.abs(X.T @ P - P.T @ X))
        if iso > 1e-10 * (sX + sP) ** 2:
            raise ValidationError(f"frame is not Lagrangian: isotropy residual {iso:.3e}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def stacked(self) -> np.ndarray:
        return np.vstack([self.X, self.P])

    def orthonormal(self) -> np.ndarray:
        """Orthonormal representative of the same plane."""
        Q, _ = np.linalg.qr(self.stacked())
        return Q


def souriau_map(frame: LagrangianFrame) -> np.ndarray:
    """Symmetric unitary matrix w = (X + iP)(X - iP)^{-1} of the plane.

    Computed from an orthonormal representative as U U^T with U = X + iP,
    which is manifestly symmetric and unitary and frame-independent.
    """
    Q = frame.orthonormal()
    n = frame.n
    U = Q[:n] + 1j * Q[n:]
    return U @ U.T


@dataclass(frozen=True)
class LagrangianLoop:
    """A closed sampled path of Lagrangian frames at parameters ts."""

    frames: tuple
    ts: tuple

    def __post_init__(self):
        frames = tuple(self.frames)
        ts = tuple(float(t) for t in self.ts)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "ts", ts)
        if len(frames) < 2 or len(frames) != len(ts):
            raise ValidationError("loop needs >= 2 frames with matching parameters")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValidationError("loop parameters must be strictly increasing")
        angles = subspace_angles(frames[0].stacked(), frames[-1].stacked())
        if np.max(angles, initial=0.0) > CLOSURE_TOL:
            raise ClosureError(
                f"endpoint planes differ by principal angle {np.max(angles):.3e}"
            )

    @property
    def n(self) -> int:
        return self.frames[0].n

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "frames": [{"X": f.X.tolist(), "P": f.P.tolist(), "t": t}
                       for f, t in zip(self.frames, self.ts)],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LagrangianLoop":
        obj = json.loads(text)
        frames = [LagrangianFrame(rec["X"], rec["P"]) for rec in obj["frames"]]
        ts = [rec["t"] for rec in obj["frames"]]
        return cls(tuple(frames), tuple(ts))


@dataclass(frozen=True)
class MaslovResult:
    index: int
    raw_winding: float
    refinement_depth: int


def _interp_frame(f0: LagrangianFrame, f1: LagrangianFrame, s: float) -> LagrangianFrame:
    """Midpoint-style Lagrangian frame between two nearby planes.

    Linear interpolation of U = X + iP followed by polar projection back to
    the unitary group, which is exactly a Lagrangian frame.
    """
    n = f0.n
    q0, q1 = f0.orthonormal(), f1.orthonormal()
    U0 = q0[:n] + 1j * q0[n:]
    U1 = q1[:n] + 1j * q1[n:]
    # align the (real orthogonal) frame gauge so the chord stays short
    u, _, vh = np.linalg.svd((U1.conj().T @ U0).real)
    U1 = U1 @ (u @ vh)
    Um = (1.0 - s) * U0 + s * U1
    u, _, vh = np.linalg.svd(Um)
    U = u @ vh
    return LagrangianFrame(U.real, U.imag)


def _phase_step(f0, f1, w0_det, w1_det, depth, max_depth):
    step = np.angle(w1_det * np.conj(w0_det))
    if abs(step) < np.pi / 2:
        return step, depth
    if depth >= max_depth:
        raise SamplingTooCoarseError(
            "det-phase step stayed >= pi/2 after refinement; sample the loop more densely"
        )
    fm = _interp_frame(f0, f1, 0.5)
    wm_det = np.linalg.det(souriau_map(fm))
    a, d1 = _phase_step(f0, fm, w0_det, wm_det, depth + 1, max_depth)
    b, d2 = _phase_step(fm, f1, wm_det, w1_det, depth + 1, max_depth)
    return a + b, max(d1, d2)


def maslov_index(loop: LagrangianLoop, max_depth: int = 20) -> MaslovResult:
    """Winding number of det w(t) over the loop, snapped to an integer.

    Per-step phases use the principal argument of det(w_{k+1}) / det(w_k);
    steps >= pi/2 are bisected with interpolated frames up to ``max_depth``.
    Refuses (rather than rounds) when the raw winding is farther than 0.1
    from the nearest integer.
    """
    dets = [np.linalg.det(souriau_map(f)) for f in loop.frames]
    total = 0.0
    depth = 0
    for k in range(len(loop.frames) - 1):
        step, d = _phase_step(loop.frames[k], loop.frames[k + 1],
                              dets[k], dets[k + 1], 0, max_depth)
        total += step
        depth = max(depth, d)
    raw = total / (2.0 * np.pi)
    index = int(round(raw))
    if abs(raw - index) >= SNAP_TOL:
        raise SamplingTooCoarseError(
            f"raw winding {raw} is not within {SNAP_TOL} of an integer"
        )
    return MaslovResult(index=index, raw_winding=raw, refinement_depth=depth)


def torus_cycle_loop(radii, j: int, samples: int = 64) -> LagrangianLoop:
    """Tangent-frame loop along the j-th basic cycle of the torus T^n(R_1..R_n).

    The torus point at angles theta is (R_i cos theta_i; R_i sin theta_i);
    tangent column i is the derivative in theta_i.  Along the basic cycle,
    theta_j sweeps [0, 2 pi] while the other angles stay at 0.
    """
    radii = [float(r) for r in radii]
    n = len(radii)
    plane_indices(n, j)
    if samples < 16:
        raise ValidationError(f"need samples >= 16, got {samples}")
    if any(r <= 0 for r in radii):
        raise ValidationError("torus radii must be > 0")
    frames, ts = [], []
    for k in range(samples + 1):
        t = 2.0 * np.pi * k / samples
        theta = np.zeros(n)
        theta[j - 1] = t
        X = np.diag(-np.asarray(radii) * np.sin(theta))
        P = np.diag(np.asarray(radii) * np.cos(theta))
        frames.append(LagrangianFrame(X, P))
        ts.append(t)
    return LagrangianLoop(tuple(frames), tuple(ts))


def transport_loop(loop: LagrangianLoop, S: SymplecticMatrix) -> LagrangianLoop:
    """Frame-wise image of the loop under a fixed linear symplectomorphism."""
    if S.n != loop.n:
        raise DimensionError("map dimension does not match the loop")
    n = loop.n
    frames = []
    for f in loop.frames:
        F = S.entries @ f.stacked()
        frames.append(LagrangianFrame(F[:n], F[n:]))
    return LagrangianLoop(tuple(frames), loop.ts)
