import json
import math
import warnings

import numpy as np
import pytest

from symcap import (
    AffineImage,
    Ball,
    Cylinder,
    DimensionError,
    Ellipsoid,
    SolidTorus,
    SymplecticMatrix,
    ValidationError,
    capacity,
    inclusion_check,
    map_region,
    random_symplectic,
    region_from_json,
    region_to_json,
    scale_region,
)
from symcap import regions
from symcap.maslov import maslov_index, torus_cycle_loop
from symcap.squeeze import intersection_area, projection_area
from symcap.symcore import plane_indices
from symcap.regions import (
    CapacityValue,
    UnsupportedCombinationError,
    _extent,
)


def test_ball_capacity():
    c = capacity(Ball(np.zeros(4), 1.0))
    assert c.value == pytest.approx(math.pi)


def test_cylinder_equals_ball():
    for r in (0.5, 1.0, 2.7):
        assert capacity(Cylinder(1, np.zeros(6), r)).value == capacity(Ball(np.zeros(6), r)).value


def test_solid_torus_half_h():
    hbar = 1.0
    for n in range(1, 7):
        c = capacity(SolidTorus((math.sqrt(hbar),) * n))
        assert c.value == pytest.approx(math.pi * hbar, abs=1e-15)


def test_ellipsoid_min_radius():
    # normal radii (1, 2, 3): hessian diag(2/R_j^2) paired, level 1
    radii = np.array([1.0, 2.0, 3.0])
    diag = 2.0 / radii**2
    M = np.diag(np.concatenate([diag, diag]))
    c = capacity(Ellipsoid(np.zeros(6), M, 1.0))
    assert c.value == pytest.approx(math.pi, rel=1e-12)


def test_ellipsoid_matches_solid_torus_on_equal_radii():
    radii = (1.3, 0.7, 2.0)
    diag = 2.0 / np.array(radii) ** 2
    M = np.diag(np.concatenate([diag, diag]))
    ce = capacity(Ellipsoid(np.zeros(6), M, 1.0)).value
    ct = capacity(SolidTorus(radii)).value
    assert ce == pytest.approx(ct, rel=1e-12)


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
def test_conformality(lam):
    shapes = [Ball(np.zeros(4), 1.0),
              Cylinder(2, np.zeros(4), 0.8),
              SolidTorus((1.0, 3.0)),
              Ellipsoid(np.zeros(4), np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1, 1.0)]
    for shape in shapes:
        c0 = capacity(shape).value
        c1 = capacity(scale_region(shape, lam)).value
        assert c1 == pytest.approx(lam**2 * c0, rel=1e-12)


def test_scale_identity_and_negative():
    t = SolidTorus((1.0, 3.0))
    assert scale_region(t, 1.0) == t
    assert scale_region(t, -1.0) == t  # disks are centrally symmetric
    with pytest.raises(ValidationError):
        scale_region(t, 0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("region", [Ball(np.zeros(2), 1.0), SolidTorus((1.0, 3.0))],
                         ids=["ball", "solid-torus"])
def test_scale_rejects_zero_and_non_finite_factors(region, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        with pytest.raises(ValidationError, match=f"scale factor .* got {lam}"):
            scale_region(region, lam)


def test_scale_ball():
    b = scale_region(Ball(np.zeros(4), 1.0), 2.0)
    assert b.radius == 2.0
    assert capacity(b).value == pytest.approx(4.0 * math.pi)


def test_scale_affine_image_keeps_the_map():
    S, shift = random_symplectic(2, seed=7), np.array([0.3, -0.2, 0.1, 0.5])
    image = map_region(Ellipsoid(np.zeros(4), np.diag([1.0, 2.0, 3.0, 0.5]), 1.5), S, shift)
    for lam in (2.5, -0.4):
        scaled = scale_region(image, lam)
        assert isinstance(scaled, AffineImage) and scaled.map is image.map
        assert scaled.shift.tolist() == (lam * shift).tolist()
        assert regions.region_to_dict(scaled.inner) == regions.region_to_dict(
            scale_region(image.inner, lam))
        assert capacity(scaled).value == pytest.approx(lam**2 * capacity(image).value, rel=1e-14)


def test_map_region_invariance():
    S = random_symplectic(2, seed=5)
    mapped = map_region(Ball(np.zeros(4), 1.0), S)
    assert capacity(mapped).value == pytest.approx(math.pi)


def test_map_region_identity_unwraps_to_same_capacity():
    from symcap import SymplecticMatrix
    S = SymplecticMatrix(np.eye(4))
    region = SolidTorus((1.0, 2.0))
    mapped = map_region(region, S)
    assert mapped.inner == region
    assert capacity(mapped).value == capacity(region).value


def test_map_region_collapses_affine_layers():
    S1 = random_symplectic(2, seed=1)
    S2 = random_symplectic(2, seed=2)
    once = map_region(Ball(np.zeros(4), 1.0), S1, np.arange(4.0))
    twice = map_region(once, S2, np.ones(4))
    assert isinstance(twice.inner, Ball)  # not AffineImage(AffineImage(...))
    assert np.allclose(twice.map.entries, S2.entries @ S1.entries)
    assert np.allclose(twice.shift, S2.entries @ np.arange(4.0) + 1.0)


@pytest.mark.parametrize("nested", [False, True], ids=["plain", "nested"])
def test_map_region_rejects_mismatched_dimensions(nested):
    S = random_symplectic(2, seed=1)
    region = map_region(Ball(np.zeros(4), 1.0), S) if nested else Ball(np.zeros(4), 1.0)
    with pytest.raises(DimensionError, match="shift dimension does not match the map"):
        map_region(region, S, np.zeros(6))
    with pytest.raises(DimensionError, match="region dimension does not match the map"):
        map_region(region, random_symplectic(3, seed=1))


def test_mapped_ellipsoid_congruent_hessian():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(4, 4))
    M = A @ A.T + 0.2 * np.eye(4)
    e = Ellipsoid(np.zeros(4), M, 1.0)
    S = random_symplectic(2, seed=13)
    Sinv = S.inverse().entries
    direct = capacity(map_region(e, S)).value
    congruent = capacity(Ellipsoid(np.zeros(4), Sinv.T @ M @ Sinv, 1.0)).value
    assert direct == pytest.approx(capacity(e).value, rel=1e-12)
    assert congruent == pytest.approx(capacity(e).value, rel=1e-9)


@pytest.mark.parametrize("make", [
    lambda: capacity(Ball(np.zeros(2), 1e160)),
    lambda: capacity(Cylinder(1, np.zeros(2), 1e160)),
    lambda: capacity(SolidTorus((1e160, 1e161))),
    lambda: capacity(Ellipsoid(np.zeros(2), 1e-300 * np.eye(2), 1e10)),
    lambda: CapacityValue(math.nan),
], ids=["ball", "cylinder", "solid-torus", "ellipsoid", "nan"])
def test_capacity_must_be_finite(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        with pytest.raises(ValidationError, match="must be finite"):
            make()


@pytest.mark.parametrize("make", [
    lambda: capacity(Ball(np.zeros(2), 1e-170)),
    lambda: capacity(Cylinder(1, np.zeros(2), 1e-170)),
    lambda: capacity(SolidTorus((1e-170, 1.0))),
], ids=["ball", "cylinder", "solid-torus"])
def test_capacity_must_not_underflow(make):
    """Positive radii have positive capacity: pi R^2 = 0 is refused, not returned."""
    with pytest.raises(ValidationError, match=r"must be finite and > 0, got 0\.0"):
        make()


def test_inclusion_ball_in_cylinder():
    assert inclusion_check(Ball(np.zeros(4), 1.0), Cylinder(1, np.zeros(4), 1.0))
    assert not inclusion_check(Ball(np.zeros(4), 1.5), Cylinder(2, np.zeros(4), 1.0))


def test_inclusion_ellipsoid_in_solid_torus():
    radii = np.array([1.0, 2.0])
    diag = 2.0 / radii**2
    M = np.diag(np.concatenate([diag, diag]))
    e = Ellipsoid(np.zeros(4), M, 1.0)
    assert inclusion_check(e, SolidTorus((1.0, 2.0)))
    assert not inclusion_check(e, SolidTorus((0.9, 2.0)))


def test_inclusion_solid_torus_in_cylinder():
    res = inclusion_check(SolidTorus((2.0, 1.0)), Cylinder(1, np.zeros(4), 1.0))
    assert not res
    assert inclusion_check(SolidTorus((2.0, 1.0)), Cylinder(2, np.zeros(4), 1.0))


def test_inclusion_ball_in_ellipsoid():
    e = Ellipsoid(np.zeros(4), 0.5 * np.eye(4), 1.0)  # ball of radius 2
    assert inclusion_check(Ball(np.zeros(4), 2.0), e)
    ball = Ball(np.zeros(4), 2.1)
    res = inclusion_check(ball, e)
    assert not res
    assert np.linalg.norm(res.witness) == pytest.approx(ball.radius, rel=1e-14)  # on the ball
    assert 0.5 * res.witness @ e.hessian @ res.witness > e.level  # outside the ellipsoid
    # an off-center ball reaches |center| + radius along its center
    assert inclusion_check(Ball(np.full(4, 0.5), 0.1), e)
    res = inclusion_check(Ball(np.ones(4), 0.1), e)
    assert not res and res.exact
    assert np.allclose(res.witness, np.full(4, 1.05), rtol=1e-14)


def test_inclusion_unsupported_pair():
    S = random_symplectic(2, seed=4)
    zero = np.zeros(4)
    for outer in (Ball(zero, 5.0), Cylinder(2, zero, 5.0), SolidTorus((5.0, 5.0))):
        with pytest.raises(UnsupportedCombinationError):
            inclusion_check(Cylinder(1, zero, 1.0), outer)
    # a solid torus, or an image of one, has no exact test against a ball or ellipsoid
    for inner in (SolidTorus((0.1, 0.1)), map_region(SolidTorus((0.1, 0.1)), S)):
        for outer in (Ball(zero, 5.0), Ellipsoid(zero, np.eye(4), 5.0)):
            with pytest.raises(UnsupportedCombinationError):
                inclusion_check(inner, outer)
    for inner in (Ball(zero, 0.1), Ellipsoid(zero, np.eye(4), 0.1), SolidTorus((0.1, 0.1))):
        with pytest.raises(UnsupportedCombinationError):
            inclusion_check(inner, map_region(Ball(zero, 5.0), S))


def _preimage_inside(S, shift, base, z, slack=1e-9):
    """Whether z lies in S(base) + shift, tested on the preimage."""
    w = np.linalg.solve(S, z - shift) - getattr(base, "center", 0.0)
    if isinstance(base, Ball):
        return np.linalg.norm(w) <= base.radius * (1.0 + slack)
    if isinstance(base, Ellipsoid):
        return 0.5 * w @ base.hessian @ w <= base.level * (1.0 + slack)
    n = base.n
    return bool(np.all(np.hypot(w[:n], w[n:]) <= np.asarray(base.radii) * (1.0 + slack)))


def _dense_shadow_max(S, shift, base, j, count=10**6):
    """Largest |w| over `count` boundary points w of the shadow of S(base) + shift
    on plane j, taken at evenly spaced outward normals u."""
    n = base.n
    idx = [j - 1, n + j - 1]
    B = S[idx]
    c = (S @ getattr(base, "center", np.zeros(2 * n)) + shift)[idx]
    t = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    u = np.column_stack([np.cos(t), np.sin(t)])
    if isinstance(base, SolidTorus):
        # Minkowski sum of the ellipses R_k B_k(D^2), B_k the columns of pair k
        pts = np.tile(c, (count, 1))
        for k, R in enumerate(base.radii):
            Bk = B[:, [k, n + k]]
            v = u @ Bk
            norm = np.linalg.norm(v, axis=1, keepdims=True)  # zero where B_k = 0
            pts += R * np.divide(v, norm, out=np.zeros_like(v), where=norm > 0) @ Bk.T
    else:
        # ellipse c + L (cos t, sin t) with L L^T = B M B^T, M^{-1} the base's form
        M = (base.radius**2 * np.eye(2 * n) if isinstance(base, Ball)
             else 2.0 * base.level * np.linalg.inv(base.hessian))
        pts = c + u @ np.linalg.cholesky(B @ M @ B.T).T
    return float(np.max(np.hypot(pts[:, 0], pts[:, 1])))


def test_inclusion_affine_image_exact():
    S = random_symplectic(2, seed=4, spread=0.5)
    mapped = map_region(Ball(np.zeros(4), 1.0), S)
    small = inclusion_check(mapped, Cylinder(1, np.zeros(4), 0.5))
    assert not small and small.exact  # non-squeezing: shadow > pi/4
    assert _preimage_inside(S.entries, np.zeros(4), mapped.inner, small.witness)
    assert np.hypot(small.witness[0], small.witness[2]) > 0.5
    big = inclusion_check(mapped, Cylinder(1, np.zeros(4), 100.0))
    assert big and big.exact and big.witness is None
    # the shadow's largest semi-axis is the top singular value of the plane rows
    semi = np.linalg.svd(S.entries[[0, 2]], compute_uv=False)[0]
    assert inclusion_check(mapped, Cylinder(1, np.zeros(4), semi * (1.0 + 1e-9)))
    assert not inclusion_check(mapped, Cylinder(1, np.zeros(4), semi * (1.0 - 1e-9)))


def _plane(n, j):
    """The two rows of plane j, so |_plane(n, j) z| is the shadow distance."""
    return np.eye(2 * n)[[j - 1, n + j - 1]]


def _affine_cases():
    rng = np.random.default_rng(29)
    A = rng.normal(size=(4, 4))
    H = A @ A.T + 0.3 * np.eye(4)
    S1 = random_symplectic(2, seed=21, spread=0.6)
    S2 = random_symplectic(2, seed=22, spread=0.6)
    S3 = random_symplectic(3, seed=23, spread=1.0)
    c1, c2, c3 = rng.normal(size=4), rng.normal(size=4), rng.normal(size=6)
    torus2, torus3 = SolidTorus((0.7, 1.3)), SolidTorus((0.5, 1.0, 1.5))
    ball = Ball(rng.normal(size=4), 1.2)
    ell = Ellipsoid(rng.normal(size=4), H, 0.8)
    # (region, composed map, composed shift, base, plane)
    return [
        (map_region(torus2, S1), S1.entries, np.zeros(4), torus2, 1),
        (map_region(torus2, S1), S1.entries, np.zeros(4), torus2, 2),
        (map_region(torus2, S1, c1), S1.entries, c1, torus2, 2),
        (map_region(torus3, S3, c3), S3.entries, c3, torus3, 2),
        (map_region(ball, S2, c2), S2.entries, c2, ball, 1),
        (map_region(ell, S1, c1), S1.entries, c1, ell, 2),
        (map_region(Ellipsoid(np.zeros(4), H, 0.8), S2), S2.entries, np.zeros(4),
         Ellipsoid(np.zeros(4), H, 0.8), 1),
        (AffineImage(S2, c2, AffineImage(S1, c1, torus2)),
         S2.entries @ S1.entries, S2.entries @ c1 + c2, torus2, 1),
        (Ellipsoid(np.zeros(4), H, 0.8), np.eye(4), np.zeros(4),
         Ellipsoid(np.zeros(4), H, 0.8), 2),
    ]


@pytest.mark.parametrize("case", range(9))
def test_affine_image_shadow_extent_matches_dense_reference(case):
    region, S, shift, base, j = _affine_cases()[case]
    extent, point = _extent(region, _plane(base.n, j))
    ref = _dense_shadow_max(S, shift, base, j)
    assert extent >= ref * (1.0 - 1e-12)
    assert extent - ref <= 1e-6 * ref
    n = base.n
    assert _preimage_inside(S, shift, base, point)
    assert np.hypot(point[j - 1], point[n + j - 1]) >= extent * (1.0 - 1e-12)
    zero = np.zeros(2 * n)
    outside = inclusion_check(region, Cylinder(j, zero, extent * (1.0 - 1e-9)))
    inside = inclusion_check(region, Cylinder(j, zero, extent * (1.0 + 1e-9)))
    assert inside and inside.exact
    assert not outside and outside.exact and outside.witness is not None


def test_inclusion_affine_image_of_cylinder_unsupported():
    S = random_symplectic(2, seed=4)
    image = map_region(Cylinder(1, np.zeros(4), 1.0), S)
    with pytest.raises(UnsupportedCombinationError):
        inclusion_check(image, Cylinder(2, np.zeros(4), 5.0))


def test_off_center_ball_in_cylinder_is_decided():
    ball = Ball(np.array([3.0, 1.0, 4.0, 2.0]), 1.0)  # plane 1 center (3, 4), |.| = 5
    assert inclusion_check(ball, Cylinder(1, np.zeros(4), 6.0))
    res = inclusion_check(ball, Cylinder(1, np.zeros(4), 5.99))
    assert not res and res.exact
    assert np.linalg.norm(res.witness - ball.center) <= 1.0 + 1e-12
    assert np.hypot(res.witness[0], res.witness[2]) > 5.99


def test_solid_torus_in_solid_torus():
    assert inclusion_check(SolidTorus((1.0, 2.0)), SolidTorus((1.0, 2.0)))
    res = inclusion_check(SolidTorus((1.0, 2.0)), SolidTorus((1.5, 1.9)))
    assert not res and res.exact
    assert np.array_equal(res.witness, [0.0, 2.0, 0.0, 0.0])


def _composed(region):
    """(S, shift, base) with region = S(base) + shift and base not an image."""
    S, shift = np.eye(2 * region.n), np.zeros(2 * region.n)
    while isinstance(region, AffineImage):
        S, shift, region = S @ region.map.entries, S @ region.shift + shift, region.inner
    return S, shift, region


def _rule_regions(n, rng):
    zero = np.zeros(2 * n)
    for center in (zero, rng.normal(size=2 * n)):
        A = rng.normal(size=(2 * n, 2 * n))
        bases = (Ball(center, float(rng.uniform(0.5, 2.0))),
                 Ellipsoid(center, A @ A.T + 0.3 * np.eye(2 * n), float(rng.uniform(0.5, 2.0))),
                 SolidTorus(tuple(rng.uniform(0.5, 2.0, n))))
        for base in bases:
            S = random_symplectic(n, seed=int(rng.integers(2**31)), spread=0.5)
            yield base
            yield map_region(base, S, center)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solid_torus_verdict_is_all_cylinder_verdicts(n):
    # radii sit 20% inside or 25% outside a dense reference of each shadow
    rng = np.random.default_rng(53 + n)
    zero = np.zeros(2 * n)
    cases = 0
    for inner in _rule_regions(n, rng):
        S, shift, base = _composed(inner)
        extents = np.array([_dense_shadow_max(S, shift, base, j, count=20000)
                            for j in range(1, n + 1)])
        for _ in range(9):
            factors = rng.choice([0.8, 1.25], size=n)
            radii = tuple(extents * factors)
            res = inclusion_check(inner, SolidTorus(radii))
            cylinders = [inclusion_check(inner, Cylinder(j, zero, r))
                         for j, r in enumerate(radii, start=1)]
            assert res.exact and res.holds == all(factors > 1.0)
            assert res.holds == all(cylinders)
            # a witness lies in inner and outside one of the planes its outer constrains
            for res_, planes in [(res, range(n))] + [(c, [k]) for k, c in enumerate(cylinders)]:
                if res_:
                    assert res_.witness is None
                    continue
                w = res_.witness
                assert _preimage_inside(S, shift, base, w)
                assert any(np.hypot(w[k], w[n + k]) > radii[k] for k in planes)
            cases += 1
    assert cases == 108


def _boundary_samples(S, shift, base, count, rng):
    """`count` random boundary points of S(base) + shift, base a ball or ellipsoid."""
    n2 = len(shift)
    u = rng.normal(size=(count, n2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if isinstance(base, Ball):
        w = base.radius * u
    else:  # 1/2 w . H w = level, with H = C C^T
        C = np.linalg.cholesky(base.hessian)
        w = math.sqrt(2.0 * base.level) * np.linalg.solve(C.T, u.T).T
    return (w + base.center) @ S.T + shift


def _quadric_outers(n, rng):
    """(make, D) pairs, a ball and an ellipsoid: make(f) = {z : |D z| <= f}."""
    A = rng.normal(size=(2 * n, 2 * n))
    H = A @ A.T + 0.3 * np.eye(2 * n)
    return [(lambda f: Ball(np.zeros(2 * n), f), np.eye(2 * n)),
            # 1/2 z . H z <= f^2 with H = C C^T
            (lambda f: Ellipsoid(np.zeros(2 * n), H, f * f),
             np.linalg.cholesky(H).T / math.sqrt(2.0))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadric_outer_verdict_matches_dense_reference(n):
    # each outer sits 20% inside or 25% outside the largest |D z| over 2e5
    # boundary samples z of inner, and the solved extent is never below a
    # sample beyond round-off (every sample of a centered ball in a ball attains it)
    rng = np.random.default_rng(71 + n)
    cases = 0
    for inner in _rule_regions(n, rng):
        S, shift, base = _composed(inner)
        if isinstance(base, SolidTorus):
            continue
        z = _boundary_samples(S, shift, base, 200000, rng)
        for make, D in _quadric_outers(n, rng):
            ref = float(np.max(np.linalg.norm(z @ D.T, axis=1)))
            extent, point = _extent(inner, D)
            assert extent >= ref * (1.0 - 1e-12) and _preimage_inside(S, shift, base, point)
            assert np.linalg.norm(D @ point) == pytest.approx(extent, rel=1e-12)
            for factor in (0.8, 1.25):
                res = inclusion_check(inner, make(ref * factor))
                assert res.exact and res.holds == (factor > 1.0)
                if res:
                    assert res.witness is None
                    continue
                assert _preimage_inside(S, shift, base, res.witness)
                assert np.linalg.norm(D @ res.witness) > ref * factor
            cases += 1
    assert cases == 8 * 2


def test_centered_ball_in_equal_ball_is_the_hard_case():
    R = 1.7
    assert inclusion_check(Ball(np.zeros(6), R), Ball(np.zeros(6), R))
    res = inclusion_check(Ball(np.zeros(6), R), Ball(np.zeros(6), R * (1.0 - 1e-9)))
    assert not res and res.exact
    assert np.linalg.norm(res.witness) == pytest.approx(R, rel=1e-14)


def test_ball_and_ellipsoid_pairs_are_decided():
    zero = np.zeros(4)
    # a ball into a ball: B(c, r) fits in B(R) exactly when |c| + r <= R
    ball = Ball(np.array([3.0, 0.0, 4.0, 0.0]), 1.0)
    assert inclusion_check(ball, Ball(zero, 6.0))
    res = inclusion_check(ball, Ball(zero, 5.99))
    assert not res and np.linalg.norm(res.witness) == pytest.approx(6.0, rel=1e-12)
    assert np.linalg.norm(res.witness - ball.center) <= 1.0 + 1e-12
    # an ellipsoid into an ellipsoid of the same level: H_inner >= H_outer
    H = np.diag([1.0, 2.0, 3.0, 4.0])
    H2 = H + np.diag([0.0, 0.0, 0.1, 0.0])
    assert inclusion_check(Ellipsoid(zero, H + 0.1 * np.eye(4), 1.0), Ellipsoid(zero, H, 1.0))
    res = inclusion_check(Ellipsoid(zero, H, 1.0), Ellipsoid(zero, H2, 1.0))
    assert not res and 0.5 * res.witness @ H2 @ res.witness > 1.0
    assert 0.5 * res.witness @ H @ res.witness == pytest.approx(1.0, rel=1e-12)
    # an image of a ball into an ellipsoid: r^2 lambda_max(S^T H S) / 2 <= level
    S = random_symplectic(2, seed=9, spread=0.5)
    r = math.sqrt(2.0 / np.linalg.eigvalsh(S.entries.T @ H @ S.entries)[-1])
    assert inclusion_check(map_region(Ball(zero, r * (1.0 - 1e-9)), S), Ellipsoid(zero, H, 1.0))
    res = inclusion_check(map_region(Ball(zero, r * (1.0 + 1e-9)), S), Ellipsoid(zero, H, 1.0))
    assert not res and 0.5 * res.witness @ H @ res.witness > 1.0
    # an off-center ball into an ellipsoid: the largest 1/2 z . H z is 0.81 over
    # B((0, 0.5, 0, 0), 0.4), at (0, 0.9, 0, 0), and 1.125 over B((0, 0, 0, 0.5), 0.25)
    e = Ellipsoid(zero, H, 1.0)
    assert inclusion_check(Ball(np.array([0.0, 0.5, 0.0, 0.0]), 0.4), e)
    res = inclusion_check(Ball(np.array([0.0, 0.0, 0.0, 0.5]), 0.25), e)
    assert not res and 0.5 * res.witness @ H @ res.witness > 1.0
    assert np.linalg.norm(res.witness - [0.0, 0.0, 0.0, 0.5]) <= 0.25 * (1.0 + 1e-12)


def test_quadric_outers_at_extreme_scales():
    # no radius is squared, so nothing overflows or underflows (a RuntimeWarning fails)
    zero = np.zeros(4)
    assert inclusion_check(Ball(zero, 1e-200), Ellipsoid(zero, 1e-300 * np.eye(4), 1.0))
    assert not inclusion_check(Ball(zero, 1e200), Ellipsoid(zero, 1e-300 * np.eye(4), 1.0))
    assert inclusion_check(Ball(np.full(4, 1e160), 1.0), Ball(zero, 1e200))
    res = inclusion_check(Ball(np.full(4, 1e160), 1e159), Ball(zero, 2e160))
    assert not res and np.linalg.norm(res.witness / 1e160) == pytest.approx(2.1, rel=1e-12)


def test_round_shadow_refines_one_peak(monkeypatch):
    # a solid torus under the identity or a rotation in plane 1 has a round shadow
    calls = []
    real = regions._circle_argmax

    def counting(h):
        return real(lambda theta: calls.append(np.size(theta)) or h(theta))

    monkeypatch.setattr(regions, "_circle_argmax", counting)
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.eye(4)
    rotation[np.ix_([0, 2], [0, 2])] = [[c, -s], [s, c]]
    for S in (np.eye(4), rotation):
        region = map_region(SolidTorus((1.0, 2.0)), SymplecticMatrix(S))
        for j, R in ((1, 1.0), (2, 2.0)):
            calls.clear()
            extent, _ = _extent(region, _plane(2, j))
            assert abs(extent - R) <= 1e-15 * R
            assert sum(calls) <= 2000


def test_monotonicity_follows_inclusion():
    rng = np.random.default_rng(17)
    for _ in range(50):
        A = rng.normal(size=(4, 4))
        M_outer = A @ A.T + 0.1 * np.eye(4)
        M_inner = M_outer + np.eye(4)
        inner = Ellipsoid(np.zeros(4), M_inner, 1.0)
        outer_radii = tuple(np.sqrt(2.0 / np.linalg.eigvalsh(M_outer)[0]) * 1.5 for _ in range(2))
        outer = SolidTorus(outer_radii)
        if inclusion_check(inner, outer):
            assert capacity(inner).value <= capacity(outer).value + 1e-12


def test_volume_is_not_a_capacity():
    # euclidean volume of a 4-ball scales as lambda^4, violating the
    # conformality axiom for n > 1; recorded as a counterexample
    def ball_volume_4d(R):
        return math.pi**2 * R**4 / 2.0

    assert ball_volume_4d(2.0) == pytest.approx(16.0 * ball_volume_4d(1.0))
    assert ball_volume_4d(2.0) != pytest.approx(4.0 * ball_volume_4d(1.0))


def test_region_json_roundtrip():
    S = random_symplectic(2, seed=6)
    regions_ = [Ball(np.zeros(4), 1.5),
                Ellipsoid(np.zeros(4), np.diag([1.0, 2.0, 3.0, 4.0]), 2.0),
                SolidTorus((1.0, 2.0)),
                Cylinder(2, np.zeros(4), 0.7),
                map_region(Ball(np.zeros(4), 1.0), S, np.ones(4))]
    for region in regions_:
        back = region_from_json(region_to_json(region))
        assert capacity(back).value == pytest.approx(capacity(region).value, rel=1e-12)
        assert type(back) is type(region)


def test_region_json_minimal_ball():
    region = region_from_json('{"variant": "Ball", "R": 1}')
    assert capacity(region).value == pytest.approx(math.pi)


def test_region_json_rejects_unknown_variant():
    with pytest.raises(ValidationError):
        region_from_json('{"variant": "Banana", "R": 1}')


@pytest.mark.parametrize("j", [1.0, 1.5, np.float64(2.0), "1", None],
                         ids=["float", "half", "numpy-float", "str", "None"])
def test_a_conjugate_pair_index_must_be_an_integer(j):
    # refused where it enters: a float would give plane_indices(2, 1.5) == [0.5, 2.5]
    # and surface later as an IndexError in inclusion_check, the shadow areas or the loop
    S = random_symplectic(2, seed=0)
    for call in (lambda: plane_indices(2, j), lambda: Cylinder(j, np.zeros(4), 1.0),
                 lambda: projection_area(S, 1.0, j), lambda: intersection_area(S, 1.0, j),
                 lambda: torus_cycle_loop([1.0, 2.0], j)):
        with pytest.raises(ValidationError, match="conjugate-pair index must be an integer"):
            call()


def test_a_numpy_integer_pair_index_is_kept_as_an_int():
    zero = np.zeros(4)
    cylinder = Cylinder(np.int64(2), zero, 1.0)
    assert type(cylinder.pair_index) is int
    text = region_to_json(cylinder)
    assert text == region_to_json(Cylinder(2, zero, 1.0))
    assert region_to_json(region_from_json(text)) == text
    assert inclusion_check(Ball(zero, 0.5), cylinder)
    assert plane_indices(2, np.int64(2)) == [1, 3]
    S = random_symplectic(2, seed=0)
    assert projection_area(S, 1.0, np.int64(2)) == projection_area(S, 1.0, 2)
    assert maslov_index(torus_cycle_loop([1.0, 2.0], np.int64(2))).index == 2
