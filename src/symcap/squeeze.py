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

from .symcore import (
    SymplecticMatrix,
    ValidationError,
    plane_indices,
    positive,
    random_symplectic_stack,
    standard_form_matrix,
)

# The QR round-off of the shadow areas grows like eps cond(S); this tolerance
# dominates it for n <= 10 only while cond(S) stays below about 1e7.  Past that
# (n = 1 maps at spread 3) round-off is reported as a violation; see CHANGES.md.
NONSQUEEZE_TOL = 1e-9
NONSQUEEZE_BLOCK = 512  # maps drawn and checked at once; bounds the memory of a run
# Directions of the extreme points that span the hull prefilter's polygon.
HULL_DIRECTIONS = np.array([[math.cos(k * math.pi / 8), math.sin(k * math.pi / 8)]
                            for k in range(16)])


def _area_in_range(area, R: float):
    """area (a float or an array) if positive and finite, else a ValidationError naming R."""
    if not np.all((area > 0) & np.isfinite(area)):
        raise ValidationError(f"ball radius R = {R} puts an area out of the float range")
    return area


def _shadow_areas(S: np.ndarray, R: float, planes):
    """(projection areas, slice areas) of S(B(R)) on each conjugate plane j in planes,
    for a stack S of shape (T, 2n, 2n): two (T, len(planes)) arrays."""
    R = positive("ball radius", R)
    n = S.shape[-1] // 2
    idx = np.array([plane_indices(n, j) for j in planes])  # (k, 2)
    J = standard_form_matrix(n)

    def gram_root(A):  # sqrt(det(A_p A_p^T)) for the plane rows A_p of every map and plane
        r = np.linalg.qr(np.swapaxes(A[:, idx], 2, 3), mode="r")
        return np.abs(r[..., 0, 0] * r[..., 1, 1])

    disk = math.pi * (R * R)
    with np.errstate(over="ignore"):
        proj, inter = disk * gram_root(S), disk / gram_root(J @ S @ J.T)
    return _area_in_range(proj, R), _area_in_range(inter, R)


def projection_area(S: SymplecticMatrix, R: float, j: int) -> float:
    """Area of the orthogonal projection of S(B(R)) on the (x_j, p_j) plane."""
    return float(_shadow_areas(S.entries[None], R, [j])[0][0, 0])


def intersection_area(S: SymplecticMatrix, R: float, j: int) -> float:
    """Area of the central slice of S(B(R)) by the (x_j, p_j) plane."""
    return float(_shadow_areas(S.entries[None], R, [j])[1][0, 0])


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
    ((proj,),), ((inter,),) = _shadow_areas(S.entries[None], R, [j])
    bound = math.pi * (R * R)
    return ShadowReport(j=j, projection_area=float(proj), intersection_area=float(inter),
                        projection_ratio=float(proj / bound),
                        intersection_ratio=float(inter / bound))


def _hull_candidates(pts: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Mask of the points pts (2, m) of the shadow B(|u| = 1) that may be hull vertices.

    With B^T = Q r, the factor r^T of B B^T = r^T r whitens the shadow into the
    unit disk.  The points extreme in the 16 HULL_DIRECTIONS span a
    polygon, in whitened coordinates, with inradius r_in about the origin (0
    when the origin is not inside it).  A point whose whitened radius is below
    (1 - 1e-9) r_in, less the whitening round-off 8 eps cond(r), lies
    strictly inside that polygon, so strictly inside the hull of the points
    kept: it is not a vertex, and dropping it leaves the hull unchanged.
    """
    r = np.linalg.qr(B.T, mode="r")
    w = np.empty_like(pts)
    w[0] = pts[0] / r[0, 0]
    w[1] = (pts[1] - r[0, 1] * w[0]) / r[1, 1]
    ext = w[:, [np.argmax(u @ w) for u in HULL_DIRECTIONS]]  # in counterclockwise order
    nxt = np.roll(ext, -1, axis=1)
    length = np.hypot(*(nxt - ext))
    dist = (ext[0] * nxt[1] - ext[1] * nxt[0])[length > 0] / length[length > 0]
    r_in = max(float(dist.min()), 0.0) if dist.size else 0.0
    cut = r_in * (1.0 - 1e-9) - 8 * np.finfo(float).eps * np.linalg.cond(r)
    return w[0] ** 2 + w[1] ** 2 >= max(cut, 0.0) ** 2


def mc_projection_area(S: SymplecticMatrix, R: float, j: int,
                       samples: int = 10**6, seed: int = 0) -> float:
    """Monte-Carlo oracle: convex-hull area of projected sphere samples.

    The shadow of the convex body S(B(R)) equals the projection of its
    boundary S(|u| = R), so the hull of projected sphere samples never
    exceeds it; the samples lie on |u| = 1 and R^2 scales the hull area.  For
    n >= 3 the projected density still vanishes at the shadow boundary, so the
    hull falls short: up to 0.95% at 10^6 samples on n = 3 maps drawn at spread 0.6.

    Only the points _hull_candidates keeps go to qhull.  The others lie
    strictly inside the hull, so the hull is unchanged; its area can still
    move in the last bits, as qhull's sums run in an order that depends on
    every point it is given.
    """
    from scipy.spatial import ConvexHull

    R = positive("ball radius", R)
    B = S.entries[plane_indices(S.n, j)]
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(samples, 2 * S.n))
    # |g| summed column by column: the bits of np.linalg.norm(g, axis=1) while 2n < 8
    # (numpy sums wider rows pairwise), without its (samples, 2n) temporary
    norm = np.square(g[:, 0])
    for k in range(1, 2 * S.n):
        norm += np.square(g[:, k])
    g *= (1.0 / np.sqrt(norm))[:, None]
    pts = B @ g.T  # (2, samples)
    del g  # free the samples before the prefilter allocates
    return _area_in_range(ConvexHull(pts[:, _hull_candidates(pts, B)].T).volume * (R * R), R)


def mc_intersection_area(S: SymplecticMatrix, R: float, j: int,
                         samples: int = 10**6, seed: int = 0) -> float:
    """Monte-Carlo oracle: rejection-sampled area of the central plane slice.

    Membership is tested through |S^{-1} z| <= 1 only, independent of the
    closed-form determinant expression.  Samples fill the bounding box of the
    slice {w : |C w| <= 1}, half-widths sqrt(((C^T C)^{-1})_ii); R^2 scales the area.
    """
    R = positive("ball radius", R)
    idx = plane_indices(S.n, j)
    rng = np.random.default_rng(seed)
    Sinv = S.inverse().entries
    cols = Sinv[:, idx]  # preimage of a plane point (w1, w2) is cols @ w

    half = np.sqrt(np.diag(np.linalg.inv(cols.T @ cols)))
    pre = rng.uniform(-half, half, size=(samples, 2)) @ cols.T
    frac = float(np.count_nonzero(np.einsum("ij,ij->i", pre, pre) <= 1.0)) / samples
    return _area_in_range(4.0 * float(np.prod(half)) * frac * (R * R), R)


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
    R = positive("ball radius", R)
    bound = math.pi * (R * R)
    report = NonsqueezeReport(n=n, trials=trials, seed=seed)
    for start in range(0, trials, NONSQUEEZE_BLOCK):
        seeds = [(seed * 1_000_003 + t) % 2**63
                 for t in range(start, min(start + NONSQUEEZE_BLOCK, trials))]
        S = random_symplectic_stack(n, seeds, spread)
        proj, inter = _shadow_areas(S, R, range(1, n + 1))  # (T, n) each
        ratio = proj / bound
        k = int(np.argmin(ratio))  # first occurrence in (trial, j) order
        if ratio.flat[k] < report.min_projection_ratio:
            report.min_projection_ratio = float(ratio.flat[k])
            report.worst_case_matrix = S[k // n].copy()
        report.max_intersection_ratio = max(report.max_intersection_ratio,
                                            float(np.max(inter / bound)))
        report.intersection_equality_cases += int(
            np.count_nonzero(np.abs(inter - bound) <= tol * bound))
        bad = (proj < bound * (1.0 - tol)) | (inter > proj * (1.0 + tol))
        for t, col in zip(*np.nonzero(bad)):
            report.violations.append({"trial": start + int(t), "j": int(col) + 1,
                                      "projection_ratio": float(ratio[t, col]),
                                      "intersection_ratio": float(inter[t, col] / bound),
                                      "matrix": S[t].tolist()})
    return report
