"""Shadow areas of linearly transformed balls and non-squeezing verification.

The image S(B(R)) of the ball under a symplectic matrix S is the ellipsoid
z . (S S^T)^{-1} z <= R^2.  Its orthogonal projection on the conjugate plane
(x_j, p_j) is an ellipse of area pi R^2 sqrt(det(P M P^T)) with M = S S^T and
P the row selector of the plane; the central slice by that plane has area
pi R^2 / sqrt(det(P M^{-1} P^T)).  Linear non-squeezing says the projection
area is never below pi R^2.

Neither M nor its inverse is formed: sqrt(det(P M P^T)) = |r_11 r_22| for the
QR factor r of the two plane rows of S, and M^{-1} = S^{-T} S^{-1} with
S^{-T} = J S J^T exact on Sp(n), so the slice uses the plane rows of J S J^T.

The slice area is <= pi R^2 (with equality when the preimage plane is
invariant under the standard rotation J); only that inequality is asserted
here, and the verification report tracks both ratios.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from .symcore import (
    SymplecticMatrix,
    ValidationError,
    plane_indices,
    random_symplectic,
    standard_form_matrix,
)

NONSQUEEZE_TOL = 1e-9  # dominates the QR round-off of the shadow areas for n <= 10


def _shadow_areas(S: SymplecticMatrix, R: float, planes):
    """(projection areas, slice areas) of S(B(R)) on each conjugate plane j in planes."""
    if not R > 0:
        raise ValidationError(f"ball radius must be > 0, got {R}")
    idx = np.array([plane_indices(S.n, j) for j in planes])  # (k, 2)
    J = standard_form_matrix(S.n)

    def gram_root(A):  # sqrt(det(A_p A_p^T)) for the plane rows A_p, all planes at once
        r = np.linalg.qr(A[idx].transpose(0, 2, 1), mode="r")
        return np.abs(r[:, 0, 0] * r[:, 1, 1])

    disk = math.pi * R**2
    return disk * gram_root(S.entries), disk / gram_root(J @ S.entries @ J.T)


def projection_area(S: SymplecticMatrix, R: float, j: int) -> float:
    """Area of the orthogonal projection of S(B(R)) on the (x_j, p_j) plane."""
    return float(_shadow_areas(S, R, [j])[0][0])


def intersection_area(S: SymplecticMatrix, R: float, j: int) -> float:
    """Area of the central slice of S(B(R)) by the (x_j, p_j) plane."""
    return float(_shadow_areas(S, R, [j])[1][0])


@dataclass(frozen=True)
class ShadowReport:
    j: int
    projection_area: float
    intersection_area: float
    projection_ratio: float  # area / (pi R^2)
    intersection_ratio: float

    def __post_init__(self):
        slack = NONSQUEEZE_TOL * self.projection_area
        if not self.projection_area + slack >= self.intersection_area > 0:
            raise ValidationError("shadow areas must satisfy projection >= intersection > 0")


def shadow_report(S: SymplecticMatrix, R: float, j: int) -> ShadowReport:
    bound = math.pi * R**2
    (proj,), (inter,) = _shadow_areas(S, R, [j])
    return ShadowReport(j=j, projection_area=float(proj), intersection_area=float(inter),
                        projection_ratio=float(proj / bound),
                        intersection_ratio=float(inter / bound))


def mc_projection_area(S: SymplecticMatrix, R: float, j: int,
                       samples: int = 10**6, seed: int = 0) -> float:
    """Monte-Carlo oracle: convex-hull area of projected sphere samples.

    The shadow of the convex body S(B(R)) equals the projection of its
    boundary S(|u| = R), so the hull of projected sphere samples never
    exceeds it.  For n >= 3 the projected density still vanishes at the
    shadow boundary, so the hull falls short: up to 0.95% at 10^6 samples
    on n = 3 maps drawn at spread 0.6.
    """
    idx = plane_indices(S.n, j)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(samples, 2 * S.n))
    g *= R / np.linalg.norm(g, axis=1, keepdims=True)
    pts = g @ S.entries.T
    return float(ConvexHull(pts[:, idx]).volume)


def mc_intersection_area(S: SymplecticMatrix, R: float, j: int,
                         samples: int = 10**6, seed: int = 0) -> float:
    """Monte-Carlo oracle: rejection-sampled area of the central plane slice.

    Membership is tested through |S^{-1} z| <= R only, independent of the
    closed-form determinant expression.  Samples fill the bounding box of the
    slice {w : |C w| <= R}, whose half-widths are R sqrt(((C^T C)^{-1})_ii).
    """
    idx = plane_indices(S.n, j)
    rng = np.random.default_rng(seed)
    Sinv = S.inverse().entries
    cols = Sinv[:, idx]  # preimage of a plane point (w1, w2) is cols @ w

    def inside(w):
        return np.einsum("ij,ij->i", w @ cols.T, w @ cols.T) <= R**2

    half = R * np.sqrt(np.diag(np.linalg.inv(cols.T @ cols)))
    pts = rng.uniform(-half, half, size=(samples, 2))
    frac = float(np.count_nonzero(inside(pts))) / samples
    return 4.0 * float(np.prod(half)) * frac


@dataclass
class NonsqueezeReport:
    n: int
    trials: int
    seed: int
    violations: list = field(default_factory=list)
    min_projection_ratio: float = math.inf
    max_intersection_ratio: float = 0.0
    worst_case_matrix: np.ndarray = None
    intersection_equality_cases: int = 0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "violations": self.violations,
            "min_ratio": self.min_projection_ratio,
            "max_intersection_ratio": self.max_intersection_ratio,
            "intersection_equality_cases": self.intersection_equality_cases,
            "worst_case_matrix": self.worst_case_matrix.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def nonsqueeze_verify(n: int, trials: int, seed: int, R: float = 1.0,
                      spread: float = 1.0, tol: float = NONSQUEEZE_TOL) -> NonsqueezeReport:
    """Batch verification of linear non-squeezing over random symplectic maps.

    For each trial and each conjugate plane, checks projection_area >=
    pi R^2 (1 - tol) and intersection_area <= projection_area.  Violations
    (which would indicate a bug) are collected in the report, never raised.
    """
    if trials < 1:
        raise ValidationError(f"need trials >= 1, got {trials}")
    bound = math.pi * R**2
    planes = range(1, n + 1)
    report = NonsqueezeReport(n=n, trials=trials, seed=seed)
    for t in range(trials):
        S = random_symplectic(n, (seed * 1_000_003 + t) % 2**63, spread)
        proj, inter = _shadow_areas(S, R, planes)
        for j, p, i in zip(planes, proj.tolist(), inter.tolist()):
            if p / bound < report.min_projection_ratio:
                report.min_projection_ratio = p / bound
                report.worst_case_matrix = np.asarray(S.entries)
            report.max_intersection_ratio = max(report.max_intersection_ratio, i / bound)
            if abs(i - bound) <= tol * bound:
                report.intersection_equality_cases += 1
            if p < bound * (1.0 - tol) or i > p * (1.0 + tol):
                report.violations.append({"trial": t, "j": j,
                                          "projection_ratio": p / bound,
                                          "intersection_ratio": i / bound,
                                          "matrix": S.entries.tolist()})
    return report
