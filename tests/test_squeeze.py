import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from symcap import (
    DegenerateInputError,
    SymplecticMatrix,
    ValidationError,
    intersection_area,
    mc_intersection_area,
    mc_projection_area,
    nonsqueeze_verify,
    projection_area,
    random_symplectic,
    random_symplectic_stack,
    shadow_report,
)
from symcap import squeeze
from symcap.squeeze import MC_BLOCK, NONSQUEEZE_ENTRIES, _hull_stream, _hull_vertices


def shear_matrix():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    return SymplecticMatrix(np.block([[np.eye(2), np.zeros((2, 2))], [C, np.eye(2)]]))


def test_projection_identity():
    S = SymplecticMatrix(np.eye(4))
    assert projection_area(S, 1.3, 2) == pytest.approx(math.pi * 1.3**2)


def test_projection_n1_always_pi_r2():
    for seed in range(5):
        S = random_symplectic(1, seed)
        assert projection_area(S, 1.0, 1) == pytest.approx(math.pi, rel=1e-12)
        assert intersection_area(S, 1.0, 1) == pytest.approx(math.pi, rel=1e-12)


def test_shear_closed_forms():
    S = shear_matrix()
    assert projection_area(S, 1.0, 1) == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-12)
    assert intersection_area(S, 1.0, 1) == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-12)


def test_intersection_never_exceeds_pi_r2():
    for seed in range(20):
        S = random_symplectic(3, seed)
        for j in (1, 2, 3):
            assert intersection_area(S, 1.0, j) <= math.pi * (1.0 + 1e-9)


def test_projection_at_least_pi_r2():
    for seed in range(20):
        S = random_symplectic(3, seed + 50)
        for j in (1, 2, 3):
            assert projection_area(S, 1.0, j) >= math.pi * (1.0 - 1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("spread", [0.3, 1.0, 2.0])
def test_slice_is_the_dual_of_the_projection(n, spread):
    # the plane columns C of S^{-1} = J^T S^T J give det(C^T C) = det(B B^T) for the
    # plane rows B of S, so projection x slice = (pi R^2)^2 exactly; measured within
    # 1.38 eps cond_2(S) (3.6e-9 at n = 1, spread 2)
    S = random_symplectic_stack(n, range(200), spread)
    proj, inter = squeeze._shadow_areas(S, 1.0, range(1, n + 1))
    bound = 2.0 * np.finfo(float).eps * np.linalg.cond(S)[:, None]
    assert np.all(np.abs(proj * inter / math.pi**2 - 1.0) <= bound)


def test_areas_scale_as_r_squared():
    S = random_symplectic(2, seed=7)
    for j in (1, 2):
        p1 = projection_area(S, 1.0, j)
        i1 = intersection_area(S, 1.0, j)
        assert projection_area(S, 3.0, j) == pytest.approx(9.0 * p1, rel=1e-12)
        assert intersection_area(S, 3.0, j) == pytest.approx(9.0 * i1, rel=1e-12)


def test_index_out_of_range():
    S = random_symplectic(2, seed=0)
    with pytest.raises(ValidationError):
        projection_area(S, 1.0, 3)
    with pytest.raises(ValidationError):
        intersection_area(S, 1.0, 0)


def test_shadow_report_ordering():
    rep = shadow_report(shear_matrix(), 1.0, 1)
    assert rep.projection_area >= rep.intersection_area > 0
    assert rep.projection_ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_mc_oracles_on_shear():
    S = shear_matrix()
    mc_p = mc_projection_area(S, 1.0, 1, samples=300_000, seed=2)
    mc_i = mc_intersection_area(S, 1.0, 1, samples=300_000, seed=2)
    assert mc_p == pytest.approx(math.sqrt(2.0) * math.pi, rel=0.01)
    assert mc_i == pytest.approx(math.pi / math.sqrt(2.0), rel=0.01)


def test_mc_oracles_on_random_map():
    S = random_symplectic(2, seed=31, spread=0.6)
    assert mc_projection_area(S, 1.0, 2, samples=300_000, seed=0) == \
        pytest.approx(projection_area(S, 1.0, 2), rel=0.01)
    assert mc_intersection_area(S, 1.0, 2, samples=300_000, seed=0) == \
        pytest.approx(intersection_area(S, 1.0, 2), rel=0.015)


def test_nonsqueeze_verify_planar():
    rep = nonsqueeze_verify(1, trials=100, seed=3)
    assert not rep.violations
    assert rep.min_projection_ratio == pytest.approx(1.0, abs=1e-9)


def test_nonsqueeze_verify_n3():
    rep = nonsqueeze_verify(3, trials=200, seed=42)
    assert not rep.violations
    assert rep.min_projection_ratio >= 1.0 - 1e-9
    assert rep.max_intersection_ratio <= 1.0 + 1e-9


def test_nonsqueeze_translation_invariance():
    # affine case: translations do not enter the linear shadow formulas at
    # all, so ratios are trivially unchanged; verified via centered reports
    rep1 = nonsqueeze_verify(2, trials=50, seed=9)
    rep2 = nonsqueeze_verify(2, trials=50, seed=9)
    assert rep1.min_projection_ratio == rep2.min_projection_ratio


def test_nonsqueeze_report_json():
    rep = nonsqueeze_verify(2, trials=10, seed=1)
    obj = json.loads(rep.to_json())
    assert obj["trials"] == 10
    assert obj["violations"] == []
    assert obj["min_ratio"] >= 1.0 - 1e-9
    assert np.asarray(obj["worst_case_matrix"]).shape == (4, 4)


def test_nonsqueeze_requires_trials():
    with pytest.raises(ValidationError):
        nonsqueeze_verify(2, trials=0, seed=0)


def test_mc_intersection_box_holds_whole_slice():
    # a small slice in a large starting box once left a coarse-pass box inside it
    S = random_symplectic(2, seed=1736664013, spread=0.6)
    assert mc_intersection_area(S, 1.0, 2, samples=300_000, seed=579296968) == \
        pytest.approx(intersection_area(S, 1.0, 2), rel=0.01)


def test_shadow_report_on_ill_conditioned_planar_map():
    S = random_symplectic(1, 11821)  # cond(S) about 1.8e4
    rep = shadow_report(S, 1.0, 1)
    assert rep.projection_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.intersection_ratio == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, trials, seed, spread", [(1, 10, 0, 2.0), (5, 2000, 11, 1.5)])
def test_nonsqueeze_verify_ill_conditioned_maps(n, trials, seed, spread):
    rep = nonsqueeze_verify(n, trials=trials, seed=seed, spread=spread)
    assert not rep.violations
    assert rep.min_projection_ratio >= 1.0 - 1e-9


def test_nonsqueeze_verify_never_raises_across_spreads():
    for n in (1, 2, 3, 5, 10):
        for spread in (0.5, 1.0, 2.0, 3.0):
            rep = nonsqueeze_verify(n, trials=15, seed=n, spread=spread)
            if spread <= 2.0:
                assert not rep.violations, (n, spread)


def reference_report(n, trials, seed, R=1.0, spread=1.0, tol=1e-9):
    """nonsqueeze_verify(...).to_json(), one map and one plane at a time."""
    bound = math.pi * R**2
    rep = {"n": n, "trials": trials, "seed": seed, "violations": [], "min_ratio": math.inf,
           "max_intersection_ratio": 0.0, "intersection_equality_cases": 0}
    for t in range(trials):
        S = random_symplectic(n, (seed * 1_000_003 + t) % 2**63, spread)
        for j in range(1, n + 1):
            p, i = projection_area(S, R, j), intersection_area(S, R, j)
            if p / bound < rep["min_ratio"]:
                rep["min_ratio"] = p / bound
                rep["worst_case_matrix"] = S.entries.tolist()
            rep["max_intersection_ratio"] = max(rep["max_intersection_ratio"], i / bound)
            rep["intersection_equality_cases"] += abs(i - bound) <= tol * bound
            if p < bound * (1.0 - tol) or i > p * (1.0 + tol):
                rep["violations"].append({"trial": t, "j": j, "projection_ratio": p / bound,
                                          "intersection_ratio": i / bound,
                                          "matrix": S.entries.tolist()})
    return json.dumps(rep, sort_keys=True)


@given(st.integers(1, 10), st.integers(1, 12), st.integers(0, 2**40), st.floats(0.5, 3.0))
@settings(max_examples=25, deadline=None)
def test_nonsqueeze_verify_matches_per_trial_loop(n, trials, seed, spread):
    assert nonsqueeze_verify(n, trials, seed, spread=spread).to_json() == \
        reference_report(n, trials, seed, spread=spread)


def test_nonsqueeze_verify_across_blocks():
    trials = NONSQUEEZE_ENTRIES // (2 * 5) ** 2 + 3  # a block holds 327 maps at n = 5
    assert nonsqueeze_verify(5, trials, seed=5, R=1.7).to_json() == \
        reference_report(5, trials, seed=5, R=1.7)


def test_nonsqueeze_verify_planar_round_off_violations():
    # at cond(S) ~ 2.6e8 the QR round-off of the areas passes the 1e-9 tolerance
    rep = nonsqueeze_verify(1, 50, seed=3, spread=3.0)
    assert len(rep.violations) == 2
    assert rep.to_json() == reference_report(1, 50, seed=3, spread=3.0)


def test_nonsqueeze_verify_memory_does_not_grow_with_trials():
    # 3 and 25 blocks of 81 maps at n = 10; drawn in one block, 2 000 maps peak at 205 MB
    def peak(trials):
        tracemalloc.start()
        try:
            nonsqueeze_verify(10, trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2_000) <= 1.25 * peak(200) + 2**20


def test_nonsqueeze_verify_memory_does_not_grow_with_n():
    # a block holds a fixed number of matrix entries: 910 maps at n = 3, 81 at n = 10
    def peak(n):
        tracemalloc.start()
        try:
            nonsqueeze_verify(n, 2_000, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10) <= 1.25 * peak(3) + 2**20


def projected_sphere(S, R, j, samples, seed):
    """The projected sample points mc_projection_area draws, shape (2, samples), in one
    draw; |g| is summed column by column, as there."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(samples, 2 * S.n))
    g *= R / np.sqrt(sum(np.square(g[:, k]) for k in range(2 * S.n)))[:, None]
    return S.entries[[j - 1, S.n + j - 1]] @ g.T


def vertex_set(points):
    return sorted(map(tuple, points))


def exact_area(V):
    """The exact shoelace area of the polygon with vertices V (h, 2), in order."""
    x, y = [list(map(Fraction, map(float, c))) for c in V.T]
    h = len(x)
    return abs(sum(x[i] * y[i - 1] - x[i - 1] * y[i] for i in range(h))) / 2


def area_round_off(V):
    """A bound on the round-off of 1/2 |sum p_i x (p_{i+1} - p_i)| over the vertices V (h, 2):
    each difference, product and the final subtraction add eps, the h-term sum (h - 1) eps."""
    d = np.roll(V, -1, axis=0) - V
    return (len(V) + 3) * np.finfo(float).eps * 0.5 * np.sum(np.abs(V * d[:, ::-1]))


HULL_MAPS = [(shear_matrix(), 1)] + [(random_symplectic(n, 7 * n, spread), 1 + n // 2)
                                     for n in (2, 3, 5, 10) for spread in (0.3, 1.0, 3.0)]


@pytest.mark.parametrize("samples", [3, 4, 16, 10**3, 10**5])
def test_hull_prefilter_keeps_every_vertex(samples):
    for k, (S, j) in enumerate(HULL_MAPS):
        pts = projected_sphere(S, 1.0, j, samples, k)
        B = S.entries[[j - 1, S.n + j - 1]]
        full = ConvexHull(pts.T)
        kept = _hull_stream(B, samples, k)
        assert set(vertex_set(full.points[full.vertices])) <= set(vertex_set(kept[0].T))
        V = _hull_vertices(*kept).T
        assert vertex_set(V) == vertex_set(full.points[full.vertices])
        area = mc_projection_area(S, 1.3, j, samples, k) / (1.3 * 1.3)
        assert abs(Fraction(area) - exact_area(full.points[full.vertices])) <= \
            area_round_off(V)


def test_hull_prefilter_keeps_every_vertex_over_many_fan_updates(monkeypatch):
    # 390 blocks of 257 samples: the prefilter leaves most of them three rows or fewer to project
    monkeypatch.setattr(squeeze, "MC_BLOCK", 257)
    for k, (S, j) in enumerate(HULL_MAPS):
        full = ConvexHull(projected_sphere(S, 1.0, j, 10**5, k).T)
        kept = _hull_stream(S.entries[[j - 1, S.n + j - 1]], 10**5, k)
        assert set(vertex_set(full.points[full.vertices])) <= set(vertex_set(kept[0].T))


def test_hull_prefilter_drops_the_interior():
    S = random_symplectic(2, seed=11, spread=0.3)
    assert _hull_stream(S.entries[[0, 2]], 10**5, 0)[0].shape[1] < 10**4


def test_hull_prefilter_margin_covers_the_raw_round_off():
    # the prefilter reads |M g|^2 / |g|^2, M = r^-T B, where the exact path whitens B g / |g|
    # by forward substitution; measured: at most 4.2 eps cond(r) apart over 73 maps, these
    # among them
    eps = np.finfo(float).eps
    for k, (S, j) in enumerate(HULL_MAPS):
        B = S.entries[[j - 1, S.n + j - 1]]
        r = np.linalg.qr(B.T, mode="r")
        g = np.random.default_rng(k).standard_normal((10**5, 2 * S.n))
        g2 = sum(np.square(g[:, i]) for i in range(2 * S.n))
        raw = np.sum(np.square(g @ np.linalg.solve(r.T, B).T), axis=1) / g2
        p = B @ (g / np.sqrt(g2)[:, None]).T
        w0 = p[0] / r[0, 0]
        exact = w0 ** 2 + ((p[1] - r[0, 1] * w0) / r[1, 1]) ** 2
        assert np.max(np.abs(raw - exact)) <= squeeze.HULL_PREFILTER / 8 * eps * np.linalg.cond(r)


@pytest.mark.parametrize("block", [257, MC_BLOCK])
def test_hull_prefilter_never_drops_a_point_the_exact_cut_keeps(monkeypatch, block):
    # an infinite margin turns the prefilter off; every exact candidate, and the cut that
    # follows from them, must be the same bits in the same order
    monkeypatch.setattr(squeeze, "MC_BLOCK", block)
    for k, (S, j) in enumerate(HULL_MAPS):
        B = S.entries[[j - 1, S.n + j - 1]]
        kept = _hull_stream(B, 10**5, k)
        with monkeypatch.context() as m:
            m.setattr(squeeze, "HULL_PREFILTER", math.inf)
            every = _hull_stream(B, 10**5, k)
        assert [a.tobytes() for a in kept[:2]] == [a.tobytes() for a in every[:2]]


# the third map is the benchmark's case: n = 2, spread 0.3, 10^6 samples
@pytest.mark.parametrize("S, j, seed", [(shear_matrix(), 1, 0),
                                        (random_symplectic(2, 101, 0.6), 1, 1),
                                        (random_symplectic(2, 1234567, 0.3), 2, 9),
                                        (random_symplectic(3, 5, 0.6), 3, 4)])
def test_mc_projection_area_equals_full_hull_at_full_samples(S, j, seed):
    pts = projected_sphere(S, 1.0, j, 10**6, seed)
    full = ConvexHull(pts.T)
    V = full.points[full.vertices]
    B = S.entries[[j - 1, S.n + j - 1]]
    assert vertex_set(_hull_vertices(*_hull_stream(B, 10**6, seed)).T) == vertex_set(V)
    # measured: at most 1.5e-16 from the exact area (qhull's own volume: up to 7.9e-16)
    exact = exact_area(V)
    assert abs(Fraction(mc_projection_area(S, 1.0, j, 10**6, seed)) - exact) <= \
        4 * np.finfo(float).eps * exact


def test_mc_projection_area_of_a_planar_map_is_the_inscribed_polygon():
    # at n = 1 every sample lies on the ellipse S(|u| = 1), so every one is a vertex and
    # the prefilter keeps every point; the hull is the polygon inscribed at
    # the samples' angles phi, of area 1/2 sum sin(dphi) (det S = 1), short of pi by
    # (2 pi)^3 / (2 samples^2) = 3.9e-9 pi in expectation; measured: 2.2e-16 from the polygon
    S, R, samples = random_symplectic(1, 5, 1.0), 1.7, 10**5
    assert _hull_stream(S.entries, samples, 3)[0].shape[1] == samples
    g = np.random.default_rng(3).normal(size=(samples, 2))
    phi = np.sort(np.arctan2(g[:, 1], g[:, 0]))
    polygon = 0.5 * np.sum(np.sin(np.diff(phi, append=phi[0] + 2 * math.pi)))
    area = mc_projection_area(S, R, 1, samples, 3)
    assert area == pytest.approx(polygon * R * R, rel=1e-14)
    assert 0 < math.pi * R * R - area <= 1e-8 * math.pi * R * R


def test_mc_projection_area_of_three_samples_is_their_triangle():
    S = random_symplectic(2, 3, 0.6)
    pts = projected_sphere(S, 1.0, 2, 3, 7)
    V = _hull_vertices(*_hull_stream(S.entries[[1, 3]], 3, 7)).T
    assert vertex_set(V) == vertex_set(pts.T)
    area = mc_projection_area(S, 2.0, 2, 3, 7) / 4.0
    assert abs(Fraction(area) - exact_area(V)) <= area_round_off(V)


@pytest.mark.parametrize("samples", [MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 5])
def test_hull_stream_across_blocks_equals_the_one_shot_hull(samples):
    for k, (S, j) in enumerate(HULL_MAPS[:5]):
        full = ConvexHull(projected_sphere(S, 1.0, j, samples, k).T)
        V = _hull_vertices(*_hull_stream(S.entries[[j - 1, S.n + j - 1]], samples, k)).T
        assert vertex_set(V) == vertex_set(full.points[full.vertices])


def one_shot_intersection_area(S, R, j, samples, seed):
    """mc_intersection_area with all samples drawn by one rng.uniform call."""
    cols = S.inverse().entries[:, [j - 1, S.n + j - 1]]
    half = np.sqrt(np.diag(np.linalg.inv(cols.T @ cols)))
    pre = np.random.default_rng(seed).uniform(-half, half, size=(samples, 2)) @ cols.T
    hits = np.count_nonzero(np.einsum("ij,ij->i", pre, pre) <= 1.0)
    return 4.0 * float(np.prod(half)) * (hits / samples) * (R * R)


@pytest.mark.parametrize("samples", [5, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 123_457])
def test_mc_intersection_area_equals_the_one_shot_draw(samples):
    for k, (S, j) in enumerate(HULL_MAPS):
        expected = one_shot_intersection_area(S, 1.3, j, samples, k)
        if expected == 0.0:  # every sample missed the slice
            with pytest.raises(DegenerateInputError):
                mc_intersection_area(S, 1.3, j, samples, k)
        else:
            assert mc_intersection_area(S, 1.3, j, samples, k) == expected


@pytest.mark.parametrize("block", [2, 3, 4, 5, MC_BLOCK])
def test_mc_projection_area_does_not_depend_on_a_one_row_tail(monkeypatch, block):
    # a last sample left alone in its block would be projected by numpy's matrix-vector
    # product, whose bits differ from the block product's; it joins the block before it
    cases = [(random_symplectic(2, 1000 + s, 0.6), s) for s in range(200)]
    expected = [mc_projection_area(S, 1.0, 1, samples, s)
                for S, s in cases for samples in (5, 9)]
    monkeypatch.setattr(squeeze, "MC_BLOCK", block)
    assert [mc_projection_area(S, 1.0, 1, samples, s)
            for S, s in cases for samples in (5, 9)] == expected


@pytest.mark.parametrize("block", [1000, 4096, MC_BLOCK])
def test_mc_areas_do_not_depend_on_the_block(monkeypatch, block):
    S, samples = random_symplectic(3, 21, 0.6), 50_001
    expected = [mc_projection_area(S, 1.0, 2, samples, 4),
                mc_intersection_area(S, 1.0, 2, samples, 4)]
    monkeypatch.setattr(squeeze, "MC_BLOCK", block)
    assert [mc_projection_area(S, 1.0, 2, samples, 4),
            mc_intersection_area(S, 1.0, 2, samples, 4)] == expected


@pytest.mark.parametrize("oracle", [mc_projection_area, mc_intersection_area])
def test_mc_oracle_memory_does_not_grow_with_samples(oracle):
    S = random_symplectic(2, 1234567, 0.3)

    def peak(samples):
        tracemalloc.start()
        try:
            oracle(S, 1.0, 2, samples, 9)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10**6) <= 1.25 * peak(10**5) + 2**20


@pytest.mark.parametrize("samples", [-1, 0, 1, 2])
def test_mc_projection_area_needs_three_samples(samples):
    with pytest.raises(ValidationError, match=f"samples >= 3, got {samples}"):
        mc_projection_area(shear_matrix(), 1.0, 1, samples)


@pytest.mark.parametrize("samples", [-1, 0])
def test_mc_intersection_area_needs_a_sample(samples):
    with pytest.raises(ValidationError, match=f"samples >= 1, got {samples}"):
        mc_intersection_area(shear_matrix(), 1.0, 1, samples)


def test_mc_intersection_area_without_hits_names_the_samples():
    # the one sample of seed 8 falls outside the slice; R = 1.0 is not to blame
    with pytest.raises(DegenerateInputError, match="samples = 1"):
        mc_intersection_area(random_symplectic(2, 11, 0.3), 1.0, 1, 1, 8)


@pytest.mark.parametrize("R", [1e160, 1e-170])
def test_areas_out_of_float_range_name_the_radius(R):
    # pi R^2 overflows at 1e160 and underflows to 0 at 1e-170; both R are valid inputs
    S = random_symplectic(2, 1, 0.3)
    calls = [lambda: projection_area(S, R, 1), lambda: intersection_area(S, R, 1),
             lambda: shadow_report(S, R, 1), lambda: mc_projection_area(S, R, 1, 10**4),
             lambda: mc_intersection_area(S, R, 1, 10**4),
             lambda: nonsqueeze_verify(2, 3, seed=0, R=R)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValidationError, match=re.escape(f"R = {R!r}")):
                call()


def test_areas_scale_by_r_squared_near_the_float_range():
    S = random_symplectic(2, 1, 0.3)
    for R in (1e150, 1e-150):
        for area in (projection_area, intersection_area):
            assert area(S, R, 1) == pytest.approx(area(S, 1.0, 1) * R * R, rel=1e-14)
        for area in (mc_projection_area, mc_intersection_area):
            assert area(S, R, 1, 10**4) == pytest.approx(area(S, 1.0, 1, 10**4) * R * R,
                                                          rel=1e-14)
