"""Canonical phase-space regions and their exact symplectic capacities.

Supported shapes: balls, ellipsoids 1/2 (z-c) . M (z-c) <= level, solid tori
D^2(R_1) x ... x D^2(R_n), cylinders over a conjugate plane, and affine
symplectic images of any of these.  A symplectic capacity is monotone, scales
as lambda^2, is invariant under symplectomorphisms, and equals pi R^2 on balls
and cylinders; on ellipsoids and solid tori all capacities coincide and equal
pi * min_j R_j^2.  Inclusion has one rule: each outer is |D z| <= r on one or
more linear forms D (a cylinder's plane rows, one per plane of a solid torus, one
for a ball or ellipsoid), and inner fits when its largest |D z| is <= r on each.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .symcore import (
    DimensionError,
    SymplecticMatrix,
    ValidationError,
    _bisect,
    as_phase_point,
    plane_indices,
    positive,
    validate_posdef,
)
from .williamson import _spectrum


class UnsupportedCombinationError(ValueError):
    """inclusion_check has no decision procedure for this pair of shapes."""


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_phase_point(self.center))
        positive("ball radius", self.radius)

    @property
    def n(self) -> int:
        return len(self.center) // 2


@dataclass(frozen=True)
class Ellipsoid:
    """The set 1/2 (z - center) . hessian (z - center) <= level.  The read-only
    factors hessian = U diag(w) U^T of validate_posdef are kept as _factors = (w, U),
    which is not a field."""

    center: np.ndarray
    hessian: np.ndarray
    level: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_phase_point(self.center))
        R, w, U = validate_posdef(self.hessian)
        object.__setattr__(self, "hessian", R)
        object.__setattr__(self, "_factors", (w, U))
        positive("ellipsoid level", self.level)
        if self.hessian.shape[0] != len(self.center):
            raise DimensionError("ellipsoid center and hessian dimensions differ")

    @property
    def n(self) -> int:
        return len(self.center) // 2


@dataclass(frozen=True)
class SolidTorus:
    """Product of disks D^2(R_1) x ... x D^2(R_n), one per conjugate plane."""

    radii: tuple

    def __post_init__(self):
        positive("solid-torus radii", self.radii)
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))

    @property
    def n(self) -> int:
        return len(self.radii)


@dataclass(frozen=True)
class Cylinder:
    """Z_j(center, r): the set x_j^2 + p_j^2 <= r^2 (about the center), j 1-based."""

    pair_index: int
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_phase_point(self.center))
        positive("cylinder radius", self.radius)
        # kept as the Python int j, which JSON and numpy indexing both take
        object.__setattr__(self, "pair_index", plane_indices(self.n, self.pair_index)[0] + 1)

    @property
    def n(self) -> int:
        return len(self.center) // 2


@dataclass(frozen=True)
class AffineImage:
    """The image S(inner) + shift of another region."""

    map: SymplecticMatrix
    shift: np.ndarray
    inner: "PhaseRegion"

    def __post_init__(self):
        object.__setattr__(self, "shift", as_phase_point(self.shift))
        if len(self.shift) != 2 * self.map.n:
            raise DimensionError("shift dimension does not match the map")
        if self.inner.n != self.map.n:
            raise DimensionError("inner region dimension does not match the map")

    @property
    def n(self) -> int:
        return self.map.n


PhaseRegion = Union[Ball, Ellipsoid, SolidTorus, Cylinder, AffineImage]


@dataclass(frozen=True)
class CapacityValue:
    """A capacity in action units, > 0 and finite.  A value that underflowed to 0 or
    overflowed to inf is refused.  Every capacity is exact, so the JSON keeps
    "exact": true and "bounds": [value, value] as constants."""

    value: float

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValidationError(f"capacity must be finite and > 0, got {self.value}")

    def to_json(self) -> str:
        return json.dumps({"value": self.value, "exact": True, "bounds": [self.value] * 2},
                          sort_keys=True)


def capacity(region: PhaseRegion) -> CapacityValue:
    """The (common) symplectic capacity of a canonical region.

    Balls and cylinders give pi R^2 (normalization axiom); ellipsoids and
    solid tori give pi * min_j R_j^2; affine images inherit the capacity of
    the underlying region (invariance axiom, no geometric recomputation).
    """
    if isinstance(region, (Ball, Cylinder)):
        return CapacityValue(math.pi * (region.radius * region.radius))
    if isinstance(region, SolidTorus):
        return CapacityValue(math.pi * min(r * r for r in region.radii))
    if isinstance(region, Ellipsoid):
        mu_max = float(_spectrum(*region._factors).mu[-1])  # numpy would warn on overflow
        return CapacityValue(2.0 * math.pi * region.level / mu_max)
    if isinstance(region, AffineImage):
        return capacity(region.inner)
    raise ValidationError(f"not a phase region: {region!r}")


def scale_region(region: PhaseRegion, lam: float) -> PhaseRegion:
    """The dilate lambda * region about the origin (capacity scales as lambda^2)."""
    if lam == 0 or not math.isfinite(lam):
        raise ValidationError(f"scale factor must be nonzero and finite, got {lam}")
    a = abs(lam)
    if isinstance(region, Ball):
        return Ball(lam * region.center, a * region.radius)
    if isinstance(region, Cylinder):
        return Cylinder(region.pair_index, lam * region.center, a * region.radius)
    if isinstance(region, SolidTorus):
        # disks are centrally symmetric, so the sign of lambda drops out
        return SolidTorus(tuple(a * r for r in region.radii))
    if isinstance(region, Ellipsoid):
        return Ellipsoid(lam * region.center, region.hessian / lam**2, region.level)
    if isinstance(region, AffineImage):
        return AffineImage(region.map, lam * region.shift, scale_region(region.inner, lam))
    raise ValidationError(f"not a phase region: {region!r}")


def map_region(region: PhaseRegion, S: SymplecticMatrix, shift=None) -> PhaseRegion:
    """Wrap the region in an affine symplectic image, collapsing nested layers."""
    image = AffineImage(S, np.zeros(2 * S.n) if shift is None else shift, region)
    if isinstance(region, AffineImage):
        # S(S0 z + c0) + c = (S S0) z + (S c0 + c)
        composed = SymplecticMatrix(S.entries @ region.map.entries)
        return AffineImage(composed, S.entries @ region.shift + image.shift, region.inner)
    return image


@dataclass(frozen=True)
class InclusionResult:
    holds: bool
    exact: bool
    witness: Optional[np.ndarray] = None  # a point of inner outside outer

    def __bool__(self) -> bool:
        return bool(self.holds)


def _circle_argmax(h) -> float:
    """Angle maximizing h, for h evaluated elementwise on an array of angles.

    Every local maximum of a fixed grid of 720 angles is refined by zooming:
    each round re-samples 17 angles across the bracket and shrinks it 8-fold,
    so 6 rounds narrow the 2 pi / 720 bracket to below 1e-7 rad.  A round
    shadow, level on the whole grid within round-off, is refined at one angle.
    """
    step = 2.0 * math.pi / 720
    vals = h(step * np.arange(720))
    # the grid values of round shadows (rotated solid tori, n <= 10) spread by <= 3.5 eps |h|
    if np.ptp(vals) <= 16.0 * np.finfo(float).eps * np.max(np.abs(vals)):
        peaks = step * np.array([np.argmax(vals)])
    else:
        peaks = step * np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    for _ in range(6):
        cand = peaks[:, None] + step * np.linspace(-1.0, 1.0, 17)
        vals = h(cand)
        peaks = cand[np.arange(len(cand)), np.argmax(vals, axis=1)]
        step /= 8.0
    return peaks[np.argmax(np.max(vals, axis=1))]


def _compose(region: PhaseRegion):
    """(c, L, base), base not an image: region = c + L B(1) for a ball or ellipsoid
    base, else c + L(base)."""
    L, c, base = np.eye(2 * region.n), np.zeros(2 * region.n), region
    while isinstance(base, AffineImage):
        L, c, base = L @ base.map.entries, L @ base.shift + c, base.inner
    c = c + L @ getattr(base, "center", np.zeros(len(c)))
    if isinstance(base, Ellipsoid):  # base = center + U diag(sqrt(2 level / w)) B(1)
        w, U = base._factors
        L = L @ (U * np.sqrt(2.0 * base.level / w))
    return c, (base.radius * L if isinstance(base, Ball) else L), base


def _farthest(K, a):
    """The largest |a + K u| over |u| <= 1 and a u attaining it, the trust-region
    subproblem (More and Sorensen 1983).  With K = Y diag(s) Z^T, beta = s Y^T a and
    gap = s_0^2 - s^2 (in units of s_0^2), u = Z v with v_i = beta_i / (t + gap_i),
    t >= 0 the root of |v| = 1.  In the hard case (beta = 0 where gap = 0, as for
    every centered region) t = 0 gives |v| <= 1, and v is completed along s_0.
    """
    Y, s, Zt = np.linalg.svd(K, full_matrices=False)
    beta, gap = s / s[0] * (Y.T @ a) / s[0], 1.0 - (s / s[0]) ** 2
    v = np.divide(beta, gap, out=np.zeros_like(beta), where=gap > 0.0)
    if np.any(beta[gap == 0.0]) or math.hypot(*v) > 1.0:  # hypot neither overflows nor warns
        t = _bisect(lambda t: np.sum((beta / (t + gap)) ** 2), 1.0, math.hypot(*beta), 0.0)
        v = beta / (t + gap)
    else:
        v[0] = math.sqrt(max(0.0, 1.0 - v @ v))  # |v| <= 1 up to round-off
    u = Zt.T @ v
    return math.hypot(*(a + K @ u)), u


def _extent(region: PhaseRegion, D):
    """The largest |D z| over z in the region, and a point z attaining it.

    A ball, ellipsoid or image of one is c + L B(1), a trust-region problem.  A
    solid torus or its image c + L(torus) is measured by a plane's rows D only:
    its shadow's support function is h(u) = sum_k R_k |B_k^T u| + u . D c, B = D L
    and B_k its columns on plane k, and the farthest shadow point lies at
    max_u h(u).  A bare torus casts a round disk, so any u is farthest.
    """
    c, L, base = _compose(region)
    if isinstance(base, (Ball, Ellipsoid)):
        value, u = _farthest(D @ L, D @ c)
        return value, c + L @ u
    if not isinstance(base, SolidTorus):
        raise UnsupportedCombinationError(f"{type(base).__name__} has no bounded shadow")
    n, B, off = base.n, D @ L, D @ c

    def support(theta):  # torus points maximizing z . B^T u, u = (cos, sin)(theta); h(u)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        v = u @ B
        # each disk D^2(R_k) contributes R_k (v_xk, v_pk) / |(v_xk, v_pk)|
        norm = np.hypot(v[..., :n], v[..., n:])
        scale = np.divide(base.radii, norm, out=np.zeros_like(norm), where=norm > 0)
        z = v * np.concatenate([scale, scale], axis=-1)
        return z, np.sum(v * z, axis=-1) + u @ off

    z, h = support(np.array(0.0 if base is region else _circle_argmax(lambda t: support(t)[1])))
    return float(h), L @ z + c


def inclusion_check(inner: PhaseRegion, outer: PhaseRegion) -> InclusionResult:
    """Decide whether inner is contained in outer (same n; outer centered).

    Each outer is {z : |D z| <= r} on one or more forms (D, r): a plane's rows
    and r for a cylinder Z_j(r), one per plane for a solid torus, (I, R) for a
    ball B(R), and diag(sqrt(w / w_max)) U^T with the shortest semi-axis for an
    ellipsoid of Hessian U diag(w) U^T.  A ball, ellipsoid, solid torus or affine
    image of one fits exactly when its largest |D z| is at most r on every form;
    a negative verdict carries a witness point of inner outside outer.  A solid
    torus or its image into a ball or ellipsoid, a cylinder inner and an
    affine-image outer raise UnsupportedCombinationError.
    """
    if inner.n != outer.n:
        raise DimensionError("regions live in different dimensions")
    if np.any(getattr(outer, "center", 0.0)):
        raise UnsupportedCombinationError("inclusion_check requires a centered outer region")
    n, slack = outer.n, 1.0 + 1e-12  # relative slack on each r compared
    if isinstance(outer, Cylinder):
        forms = [(np.eye(2 * n)[plane_indices(n, outer.pair_index)], outer.radius)]
    elif isinstance(outer, SolidTorus):
        forms = [(np.eye(2 * n)[plane_indices(n, j)], r) for j, r in enumerate(outer.radii, 1)]
    elif isinstance(outer, Ball) and not isinstance(_compose(inner)[2], SolidTorus):
        forms = [(np.eye(2 * n), outer.radius)]
    elif isinstance(outer, Ellipsoid) and not isinstance(_compose(inner)[2], SolidTorus):
        w, U = outer._factors
        forms = [(np.sqrt(w / w[-1])[:, None] * U.T, math.sqrt(2.0 * outer.level / w[-1]))]
    else:
        raise UnsupportedCombinationError(
            f"no inclusion test for {type(inner).__name__} into {type(outer).__name__}")
    for D, r in forms:
        value, point = _extent(inner, D)
        if value > r * slack:
            return InclusionResult(False, True, witness=point)
    return InclusionResult(True, True)


# --- JSON interchange -------------------------------------------------------

def region_to_dict(region: PhaseRegion) -> dict:
    if isinstance(region, Ball):
        return {"variant": "Ball", "center": region.center.tolist(), "R": region.radius}
    if isinstance(region, Ellipsoid):
        return {"variant": "Ellipsoid", "center": region.center.tolist(),
                "hessian": region.hessian.tolist(), "level": region.level}
    if isinstance(region, SolidTorus):
        return {"variant": "SolidTorus", "radii": list(region.radii)}
    if isinstance(region, Cylinder):
        return {"variant": "Cylinder", "j": region.pair_index,
                "center": region.center.tolist(), "r": region.radius}
    if isinstance(region, AffineImage):
        return {"variant": "AffineImage",
                "S": region.map.to_dict(),
                "shift": region.shift.tolist(),
                "inner": region_to_dict(region.inner)}
    raise ValidationError(f"not a phase region: {region!r}")


def region_from_dict(obj: dict) -> PhaseRegion:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValidationError('region JSON must be an object with a "variant" key')
    variant = obj["variant"]
    if variant == "Ball":
        n = obj.get("n", 1)
        center = obj.get("center", [0.0] * (2 * n))
        return Ball(center, float(obj["R"]))
    if variant == "Ellipsoid":
        hessian = np.asarray(obj["hessian"], dtype=float)
        center = obj.get("center", [0.0] * hessian.shape[0])
        return Ellipsoid(center, hessian, float(obj.get("level", 1.0)))
    if variant == "SolidTorus":
        return SolidTorus(tuple(float(r) for r in obj["radii"]))
    if variant == "Cylinder":
        n = obj.get("n", max(1, int(obj["j"])))
        center = obj.get("center", [0.0] * (2 * n))
        return Cylinder(int(obj["j"]), center, float(obj["r"]))
    if variant == "AffineImage":
        S = SymplecticMatrix.from_dict(obj["S"])
        shift = obj.get("shift", [0.0] * (2 * S.n))
        return AffineImage(S, shift, region_from_dict(obj["inner"]))
    raise ValidationError(f"unknown region variant {variant!r}")


def region_from_json(text: str) -> PhaseRegion:
    return region_from_dict(json.loads(text))


def region_to_json(region: PhaseRegion) -> str:
    return json.dumps(region_to_dict(region), sort_keys=True)
