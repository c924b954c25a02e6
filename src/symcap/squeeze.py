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

Two Monte Carlo oracles check these closed forms independently, with numpy
alone: the convex hull of projected sphere samples, whose candidates a
certified radial prefilter picks and an angular scan reduces to the
vertices, and rejection sampling of the slice through |S^{-1} z| <= R.  Both
draw their samples MC_BLOCK rows at a time, and nonsqueeze_verify draws its
maps NONSQUEEZE_ENTRIES matrix entries at a time, so no kernel's memory grows
with its sample count, trial count or n, and no output depends on the blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .symcore import (
    DegenerateInputError,
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
# Matrix entries drawn and checked at once by nonsqueeze_verify, and sample rows
# drawn at once by the Monte Carlo oracles: the memory of a run stays fixed
# whatever its n, trial count or sample count.
NONSQUEEZE_ENTRIES = 2**15
MC_BLOCK = 2**14
# Directions of the extreme points that span the hull prefilter's polygon.
HULL_FAN = np.array([[math.cos(k * math.pi / 32), math.sin(k * math.pi / 32)]
                     for k in range(64)])


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


def _hull_stream(B: np.ndarray, samples: int, seed: int):
    """(pts, w, flip) for the shadow B(|u| = 1) of `samples` sphere samples drawn
    from default_rng(seed): the points pts (2, m) that may be hull vertices,
    their whitened coordinates w (2, m), and flip = sign(det r) of the whitening.

    The samples are drawn, normalised and projected MC_BLOCK rows at a time, and
    each block is folded into the running candidates.  With B^T = Q r, the
    factor r^T of B B^T = r^T r whitens the shadow into the unit disk, which
    reverses orientation when det r < 0.  After each block, the points of
    largest whitened radius so far (16 per HULL_FAN direction) that are extreme
    in the HULL_FAN directions span a polygon with inradius r_in about the
    origin (0 when the origin is not inside it).  A point whose whitened radius
    is below cut = (1 - 1e-9) r_in, less the whitening round-off 8 eps cond(r),
    lies strictly inside the hull of the samples, so it is not a vertex (Akl
    and Toussaint, Inf. Proc. Lett. 7 (1978) 219).  The cut only grows; each
    block drops the points below it, and the candidates are cut again whenever
    the newer ones outnumber the older, so each point is copied O(1) times.
    """
    def outside(a):  # the columns of a (points over their whitened ones) that pass the cut
        return a[:, a[2] ** 2 + a[3] ** 2 >= cut2]

    r = np.linalg.qr(B.T, mode="r")
    slack = 8 * np.finfo(float).eps * np.linalg.cond(r)
    rng = np.random.default_rng(seed)
    block = np.empty((min(MC_BLOCK, samples), B.shape[1]))
    cand = top = np.empty((4, 0))
    fresh, cut2 = [], 0.0
    for start in range(0, samples, MC_BLOCK):
        g = block[:samples - start]
        rng.standard_normal(out=g)
        # |g| summed column by column: the bits of np.linalg.norm(g, axis=1) while
        # 2n < 8 (numpy sums wider rows pairwise), without its (rows, 2n) temporary
        norm = np.square(g[:, 0])
        for k in range(1, g.shape[1]):
            norm += np.square(g[:, k])
        g *= np.divide(1.0, np.sqrt(norm, out=norm), out=norm)[:, None]
        pw = np.empty((4, len(g)))
        np.matmul(B, g.T, out=pw[:2])
        pw[2] = pw[0] / r[0, 0]
        pw[3] = (pw[1] - r[0, 1] * pw[2]) / r[1, 1]
        fresh.append(outside(pw))
        top = np.concatenate([top, fresh[-1]], axis=1)
        r2 = top[2] ** 2 + top[3] ** 2
        k = min(r2.size, 16 * len(HULL_FAN))
        top = top[:, np.argpartition(r2, r2.size - k)[r2.size - k:]]
        ext = top[2:, np.argmax(HULL_FAN @ top[2:], axis=1)]  # counterclockwise
        nxt = np.roll(ext, -1, axis=1)
        length = np.hypot(*(nxt - ext))
        dist = (ext[0] * nxt[1] - ext[1] * nxt[0])[length > 0] / length[length > 0]
        r_in = max(float(dist.min()), 0.0) if dist.size else 0.0
        cut2 = max(cut2, max(r_in * (1.0 - 1e-9) - slack, 0.0) ** 2)
        if sum(f.shape[1] for f in fresh) > cand.shape[1]:
            cand, fresh = outside(np.concatenate([cand, *fresh], axis=1)), []
    cand = outside(np.concatenate([cand, *fresh], axis=1))
    return cand[:2], cand[2:], math.copysign(1.0, r[0, 0] * r[1, 1])


def _hull_vertices(pts: np.ndarray, w: np.ndarray, flip: float) -> np.ndarray:
    """Vertices (2, h) of the convex hull of the candidates pts (2, m), with whitened
    coordinates w and whitening orientation flip, counterclockwise in whitened
    coordinates from the vertex of least whitened angle, so that the cycle (and
    the rounding of an area summed over it) depends on the vertex set alone.

    A Graham-style scan (Graham, Inf. Proc. Lett. 1 (1972) 132) in whole-array
    passes: the candidates, sorted by angle about their whitened centroid,
    form a polygon that is star-shaped about it.  A vertex that is not a
    strict left turn from its two neighbours lies in the triangle they span
    with the centroid, so it is not a hull vertex; every such vertex is
    dropped at once, pass after pass, until none is left.  The turns are
    taken in the original coordinates, with the whitening's orientation.
    """
    order = np.argsort(np.arctan2(w[1] - w[1].mean(), w[0] - w[0].mean()))
    while order.size >= 3:
        p = pts[:, order]
        a, c = np.roll(p, 1, axis=1), np.roll(p, -1, axis=1)
        left = flip * ((p[0] - a[0]) * (c[1] - a[1]) - (p[1] - a[1]) * (c[0] - a[0])) > 0
        if left.all():
            break
        order = order[left]
    return pts[:, np.roll(order, -np.argmin(np.arctan2(w[1, order], w[0, order])))]


def mc_projection_area(S: SymplecticMatrix, R: float, j: int,
                       samples: int = 10**6, seed: int = 0) -> float:
    """Monte-Carlo oracle: convex-hull area of projected sphere samples.

    The shadow of the convex body S(B(R)) equals the projection of its
    boundary S(|u| = R), so the hull of projected sphere samples never
    exceeds it; the samples lie on |u| = 1 and R^2 scales the hull area.  For
    n >= 3 the projected density still vanishes at the shadow boundary, so the
    hull falls short: up to 0.95% at 10^6 samples on n = 3 maps drawn at spread 0.6.

    The hull is numpy only, in memory that does not grow with the samples:
    _hull_stream draws them in blocks and keeps the points of largest whitened
    radius that may be vertices (about 4000 of 10^6 on n = 2 maps), and
    _hull_vertices scans them in angular order.  The area is
    1/2 |sum p_i x (p_{i+1} - p_i)| over the vertices: the short edges
    p_{i+1} - p_i cancel less than the terms p_i x p_{i+1} of the plain
    shoelace sum, which strays far more from the exact area on ill-conditioned B.
    """
    if samples < 3:
        raise ValidationError(f"need samples >= 3, got {samples}")
    R = positive("ball radius", R)
    p = _hull_vertices(*_hull_stream(S.entries[plane_indices(S.n, j)], samples, seed))
    d = np.roll(p, -1, axis=1) - p
    area = 0.5 * abs(float(np.sum(p[0] * d[1] - p[1] * d[0])))
    return _area_in_range(area * (R * R), R)


def mc_intersection_area(S: SymplecticMatrix, R: float, j: int,
                         samples: int = 10**6, seed: int = 0) -> float:
    """Monte-Carlo oracle: rejection-sampled area of the central plane slice.

    Membership is tested through |S^{-1} z| <= 1 only, independent of the
    closed-form determinant expression.  Samples fill the bounding box of the
    slice {w : |C w| <= 1}, half-widths sqrt(((C^T C)^{-1})_ii); R^2 scales the area.
    """
    if samples < 1:
        raise ValidationError(f"need samples >= 1, got {samples}")
    R = positive("ball radius", R)
    idx = plane_indices(S.n, j)
    rng = np.random.default_rng(seed)
    Sinv = S.inverse().entries
    cols = Sinv[:, idx]  # preimage of a plane point (w1, w2) is cols @ w

    half = np.sqrt(np.diag(np.linalg.inv(cols.T @ cols)))
    hits = 0
    for start in range(0, samples, MC_BLOCK):  # the bits of one rng.uniform(-half, half) draw
        pre = (rng.random((min(MC_BLOCK, samples - start), 2)) * (2 * half) - half) @ cols.T
        hits += np.count_nonzero(np.einsum("ij,ij->i", pre, pre) <= 1.0)
    if hits == 0:
        raise DegenerateInputError(f"no sample hit the slice at samples = {samples}")
    return _area_in_range(4.0 * float(np.prod(half)) * (hits / samples) * (R * R), R)


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
    The areas carry round-off of about eps cond(S), so maps with cond(S)
    beyond about 1e7, which n = 1 draws reach at spread 3, can be listed as
    violations: nonsqueeze_verify(1, 50, seed=3, spread=3.0) lists 2.
    """
    if trials < 1:
        raise ValidationError(f"need trials >= 1, got {trials}")
    R = positive("ball radius", R)
    bound = math.pi * (R * R)
    report = NonsqueezeReport(n=n, trials=trials, seed=seed)
    block = max(1, NONSQUEEZE_ENTRIES // max(1, 4 * n * n))
    for start in range(0, trials, block):
        seeds = [(seed * 1_000_003 + t) % 2**63 for t in range(start, min(start + block, trials))]
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
