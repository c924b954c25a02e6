import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from symcap import (
    DimensionError,
    LagrangianFrame,
    LagrangianLoop,
    ValidationError,
    maslov_index,
    random_symplectic,
    souriau_map,
    torus_cycle_loop,
    transport_loop,
)
from symcap.maslov import CLOSURE_TOL, ClosureError, closure_angle
from symcap.symcore import _plane_rotations


DATA = Path(__file__).parent / "data"


def circle_frame(t):
    return LagrangianFrame([[-math.sin(t)]], [[math.cos(t)]])


def circle_frames(ts):
    """Stacked unit-circle tangent frames [-sin t; cos t], shape (K, 2, 1)."""
    return np.stack([circle_frame(t).stacked() for t in ts])


def test_souriau_horizontal_plane():
    w = souriau_map(LagrangianFrame(np.eye(2), np.zeros((2, 2))))
    assert np.allclose(w, np.eye(2), atol=1e-12)


def test_souriau_vertical_plane():
    w = souriau_map(LagrangianFrame(np.zeros((2, 2)), np.eye(2)))
    assert np.allclose(w, -np.eye(2), atol=1e-12)


def test_souriau_circle_tangent():
    for t in (0.0, 0.4, 1.9, 3.0):
        w = souriau_map(circle_frame(t))
        assert w[0, 0] == pytest.approx(-cmath.exp(2j * t), abs=1e-12)


def test_souriau_symmetric_unitary():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    A = rng.normal(size=(3, 3))
    P = np.linalg.inv(X).T @ (A + A.T)  # X^T P symmetric
    w = souriau_map(LagrangianFrame(X, P))
    assert np.max(np.abs(w - w.T)) <= 1e-9
    assert np.max(np.abs(w @ w.conj().T - np.eye(3))) <= 1e-9


def test_souriau_frame_independence():
    rng = np.random.default_rng(6)
    frame = LagrangianFrame(np.eye(2), np.diag([0.5, -1.0]))
    w0 = souriau_map(frame)
    for _ in range(100):
        G = rng.normal(size=(2, 2))
        while abs(np.linalg.det(G)) < 0.1:
            G = rng.normal(size=(2, 2))
        other = LagrangianFrame(frame.X @ G, frame.P @ G)
        assert np.max(np.abs(souriau_map(other) - w0)) <= 1e-8


def test_non_lagrangian_frame_rejected():
    with pytest.raises(ValidationError):
        LagrangianFrame(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_isotropy_threshold_is_never_above_the_sum_of_block_norms(n, seed):
    # sigma_max^2 of a unit-column frame F = [X; P] against the (|X|_2 + |P|_2)^2 it replaced
    rng = np.random.default_rng(seed)  # each column's X and P parts scaled apart by 10^U(-3, 3)
    F = (rng.normal(size=(2, n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, 1, n))).reshape(2 * n, n)
    F /= np.linalg.norm(F, axis=0)
    X, P = F[:n], F[n:]
    sigma_max = np.linalg.svd(F, compute_uv=False)[0]
    assert sigma_max**2 <= (np.linalg.norm(X, 2) + np.linalg.norm(P, 2)) ** 2


def test_frame_between_the_old_and_new_isotropy_thresholds_is_refused():
    # residual ~1.4e-10 of a unit-column frame with sigma_max^2 ~ 1, (|X|_2 + |P|_2)^2 ~ 2
    a, delta = math.sqrt(0.5), 2e-10
    X, P = a * np.eye(2), np.array([[a, delta], [0.0, a]])
    F = np.vstack([X, P]) / np.linalg.norm(np.vstack([X, P]), axis=0)
    iso = np.abs(F[:2].T @ F[2:] - F[2:].T @ F[:2]).max()
    old = 1e-10 * (np.linalg.norm(F[:2], 2) + np.linalg.norm(F[2:], 2)) ** 2
    assert 1e-10 * np.linalg.svd(F, compute_uv=False)[0] ** 2 < iso < old
    with pytest.raises(ValidationError, match="not Lagrangian"):
        LagrangianFrame(X, P)


def test_rank_deficient_frame_rejected():
    with pytest.raises(ValidationError):
        LagrangianFrame(np.zeros((2, 2)), np.diag([1.0, 0.0]))


@pytest.mark.parametrize("radii", [[1e5, 1e-5], [1e11, 1.0]])
@pytest.mark.parametrize("j", [1, 2])
def test_torus_radii_far_apart_keep_index_two(radii, j):
    # the tangent frame has condition max R / min R, but spans the same plane for any radii
    assert maslov_index(torus_cycle_loop(radii, j)).index == 2


def test_constant_loop_index_zero():
    loop = LagrangianLoop(circle_frames([0.3] * 5), (0.0, 1.0, 2.0, 3.0, 4.0))
    assert maslov_index(loop).index == 0


def test_circle_loop_index_two():
    res = maslov_index(torus_cycle_loop([1.0], 1, samples=64))
    assert res.index == 2
    assert abs(res.raw_winding - 2.0) < 0.1


def test_torus_basic_cycles_index_two():
    for n in (2, 3, 4):
        radii = [1.0 + 0.3 * j for j in range(n)]
        for j in range(1, n + 1):
            res = maslov_index(torus_cycle_loop(radii, j, samples=48))
            assert res.index == 2
            assert res.index % 2 == 0  # oriented torus: even index


def test_index_stable_under_doubling():
    a = maslov_index(torus_cycle_loop([1.0, 2.0], 1, samples=32))
    b = maslov_index(torus_cycle_loop([1.0, 2.0], 1, samples=64))
    assert a.index == b.index == 2


def test_transport_identity():
    from symcap import SymplecticMatrix
    loop = torus_cycle_loop([1.0, 2.0], 1)
    moved = transport_loop(loop, SymplecticMatrix(np.eye(4)))
    assert np.array_equal(loop.frames, moved.frames)


def test_transport_diag_squeeze():
    from symcap import SymplecticMatrix
    S = SymplecticMatrix(np.diag([2.0, 0.5]))
    loop = torus_cycle_loop([1.0], 1, samples=64)
    assert maslov_index(transport_loop(loop, S)).index == 2


def test_transport_random_invariance():
    loop = torus_cycle_loop([1.0, 2.0], 2, samples=96)
    for seed in (9, 10, 11):
        S = random_symplectic(2, seed, 0.7)
        assert maslov_index(transport_loop(loop, S)).index == 2


def test_reversal_negates_index():
    loop = torus_cycle_loop([1.0], 1, samples=64)
    ts = loop.ts
    reversed_loop = LagrangianLoop(loop.frames[::-1], ts)
    assert maslov_index(reversed_loop).index == -2


def test_k_fold_traversal():
    base = torus_cycle_loop([1.0], 1, samples=64)
    frames = np.concatenate([base.frames, base.frames[1:], base.frames[1:]])
    ts = tuple(np.linspace(0.0, 3.0, len(frames)))
    assert maslov_index(LagrangianLoop(frames, ts)).index == 6


def test_sixteen_sample_circle_loop_index_two():
    # 16 samples on a double winding: the plane turns by pi/8 per step and
    # det w by pi/4, both well below pi/2
    res = maslov_index(torus_cycle_loop([1.0], 1, samples=16))
    assert res.index == 2


@pytest.mark.parametrize("samples", [5, 6, 8])
@pytest.mark.parametrize("n", [2, 3])
def test_diagonal_cycle_index_is_additive(n, samples):
    # theta_1 = ... = theta_n = t: every direction turns by 2 pi / samples per
    # step, but det w by 2n times that, which folds past pi; the Maslov class
    # is additive, so the index is n times that of a basic cycle
    t = 2.0 * np.pi * np.arange(samples + 1) / samples
    radii = 1.0 + 0.5 * np.arange(n)
    i = np.arange(n)
    frames = np.zeros((samples + 1, 2 * n, n))
    frames[:, i, i] = -radii * np.sin(t)[:, None]
    frames[:, n + i, i] = radii * np.cos(t)[:, None]
    assert maslov_index(LagrangianLoop(frames, t)).index == 2 * n


def test_open_path_rejected():
    frames = circle_frames(np.linspace(0.0, 1.0, 8))
    with pytest.raises(ClosureError):
        LagrangianLoop(frames, tuple(np.linspace(0.0, 1.0, 8)))


@pytest.mark.parametrize("gap, closed", [(0.9 * CLOSURE_TOL, True), (1.1 * CLOSURE_TOL, False)])
def test_closure_verdict_on_each_side_of_tolerance(gap, closed):
    ts = np.linspace(0.0, 2.0 * math.pi + gap, 16)
    if closed:
        LagrangianLoop(circle_frames(ts), ts)
    else:
        with pytest.raises(ClosureError):
            LagrangianLoop(circle_frames(ts), ts)


def rotated_lagrangian_pair(rng, n, theta, cond):
    """Two frames of Lagrangian planes whose largest principal angle is theta.

    The second plane turns column k of an orthonormal frame Q towards J Q by
    theta_k <= theta (a phase e^{-i theta_k} on that column of X + iP), so its
    principal angles to the first are the theta_k.  Each frame is then re-based
    by a random matrix of condition number cond and scaled by 10^[-3, 3].
    """
    U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    Q = np.vstack([U.real, U.imag])
    JQ = np.vstack([Q[n:], -Q[:n]])
    angles = theta * np.concatenate([[1.0], rng.uniform(0.0, 1.0, n - 1)])

    def rebase(F):
        u, _, vh = np.linalg.svd(rng.normal(size=(n, n)))
        return F @ ((u * np.geomspace(1.0, cond, n)) @ vh) * 10 ** rng.uniform(-3, 3)

    return rebase(Q), rebase(Q * np.cos(angles) + JQ * np.sin(angles))


# Largest |closure_angle - max(subspace_angles)| over 30 000 pairs of this
# generator (n = 1..6, cond 1..100, a third each with theta in [1e-12, 1e-4],
# in [1e-4, pi/2] and within 0.1 of pi/2): 0.35 eps (cond F0 + cond F1) for
# theta < 1e-4, and 2.9e-8 relative above, where arcsin of a sine near 1 keeps
# only half the digits.  The verdict at CLOSURE_TOL agreed on all 30 000.
ANGLE_RTOL = 1e-7
ANGLE_ATOL_COND = 1.0


@given(st.integers(1, 6), st.floats(-12.0, math.log10(math.pi / 2)), st.floats(1.0, 100.0),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_closure_angle_matches_subspace_angles(n, log_theta, cond, seed):
    F0, F1 = rotated_lagrangian_pair(np.random.default_rng(seed), n, 10**log_theta, cond)
    angle = closure_angle(F0, F1)
    expected = float(np.max(subspace_angles(F0, F1)))
    tol = (ANGLE_RTOL * expected
           + ANGLE_ATOL_COND * np.finfo(float).eps * (np.linalg.cond(F0) + np.linalg.cond(F1)))
    assert abs(angle - expected) <= tol
    if abs(expected - CLOSURE_TOL) > tol:  # the verdict is only defined outside round-off
        if expected > CLOSURE_TOL:
            with pytest.raises(ClosureError):
                LagrangianLoop([F0, F1], (0.0, 1.0))
        else:
            LagrangianLoop([F0, F1], (0.0, 1.0))


def test_two_frame_loop_with_antipodal_frames_has_index_zero():
    # the frames at t = 0 and t = pi are opposite vectors spanning the same
    # plane, so det w agrees at both ends: the two-sample loop stands still
    loop = LagrangianLoop(circle_frames([0.0, math.pi]), (0.0, 1.0))
    res = maslov_index(loop)
    assert res.index == 0  # shortest homotopy representative


def test_loop_json_roundtrip():
    loop = torus_cycle_loop([1.0, 2.0], 1, samples=24)
    back = LagrangianLoop.from_json(loop.to_json())
    assert maslov_index(back).index == maslov_index(loop).index
    assert back.ts == loop.ts


def test_torus_loop_validation():
    with pytest.raises(ValidationError):
        torus_cycle_loop([1.0], 2)
    with pytest.raises(ValidationError):
        torus_cycle_loop([1.0], 1, samples=8)
    with pytest.raises(ValidationError):
        torus_cycle_loop([-1.0], 1)


def test_torus_loop_json_golden():
    golden = (DATA / "torus_loop_n2_j2_16.json").read_text()
    assert torus_cycle_loop([1.0, 2.0], 2, samples=16).to_json() + "\n" == golden
    assert LagrangianLoop.from_json(golden).to_json() + "\n" == golden


def test_loop_json_rejects_mismatched_blocks():
    text = ('{"n": 1, "frames": [{"X": [[1.0, 0.0], [0.0, 1.0]], "P": [[0.0]], "t": 0.0},'
            ' {"X": [[1.0, 0.0], [0.0, 1.0]], "P": [[0.0]], "t": 1.0}]}')
    with pytest.raises(DimensionError):
        LagrangianLoop.from_json(text)


@pytest.mark.parametrize("X, P", [
    (np.zeros((2, 2)), np.diag([1.0, 0.0])),             # rank deficient
    (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])),      # not Lagrangian
])
def test_loop_rejects_one_bad_frame_mid_loop(X, P):
    with pytest.raises(ValidationError) as lone:
        LagrangianFrame(X, P)
    frames = torus_cycle_loop([1.0, 2.0], 1, samples=16).frames.copy()
    frames[8] = np.vstack([X, P])
    with pytest.raises(ValidationError) as looped:
        LagrangianLoop(frames, range(len(frames)))
    assert str(looped.value) == str(lone.value)


def reference_maslov_index(frames):
    """maslov_index one step at a time: a QR and U U^T per frame, and per step
    the eigenphases of w_k^H w_{k+1} from their own eigvals call, summed left
    to right."""
    n = frames.shape[2]

    def souriau(F):
        Q = np.linalg.qr(F)[0]
        U = Q[:n] + 1j * Q[n:]
        return U @ U.T

    ws = [souriau(F) for F in frames]
    total = 0.0
    for w0, w1 in zip(ws, ws[1:]):
        total += np.angle(np.linalg.eigvals(w0.conj().T @ w1)).sum()
    raw = total / (2.0 * np.pi)
    return int(round(raw)), raw


@given(st.integers(1, 6), st.integers(16, 96), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.floats(0.3, 0.7)), st.booleans(), st.sampled_from([1, 3]))
@example(2, 16, 0, 0.7, False, 1)   # a step turns det w by pi/2 or more
@example(2, 16, 20, 0.7, False, 1)  # a direction turns by more than pi/2: index 0
@example(2, 16, 3, 0.7, True, 3)    # the same fold, reversed and traversed three times
@settings(max_examples=40, deadline=None)
def test_maslov_index_matches_per_frame_reference(n, samples, seed, spread, reverse, folds):
    rng = np.random.default_rng(seed)
    loop = torus_cycle_loop(rng.uniform(0.5, 2.0, n), int(rng.integers(1, n + 1)), samples)
    if spread is not None:
        loop = transport_loop(loop, random_symplectic(n, seed, spread))
    frames = loop.frames[::-1] if reverse else loop.frames
    frames = np.concatenate([frames] + [frames[1:]] * (folds - 1))
    loop = LagrangianLoop(frames, range(len(frames)))
    index, raw = reference_maslov_index(frames)
    res = maslov_index(loop)
    assert res.index == index
    assert abs(res.raw_winding - raw) <= 1e-13
    # the step phases telescope to the closure phase, so the winding is near an integer
    assert abs(res.raw_winding - res.index) <= n * CLOSURE_TOL / math.pi
    assert res.refinement_depth == 0


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_raw_winding_stays_within_the_telescoping_bound_at_the_closure_edge(n, sign):
    # the step phases telescope to the phase of det w_K / det w_0, so on a loop closed
    # to CLOSURE_TOL the raw winding is within n CLOSURE_TOL / pi of its index (plus
    # rounding, 2.2e-13 measured).  Turning the last frame by 0.99 CLOSURE_TOL in every
    # conjugate plane keeps the loop closed and turns det w_K by 2n of those angles.
    bound = n * CLOSURE_TOL / math.pi
    for seed in range(5):
        rng = np.random.default_rng(seed)
        loop = transport_loop(torus_cycle_loop(rng.uniform(0.5, 2.0, n), 1 + seed % n),
                              random_symplectic(n, seed, 0.3))
        frames = loop.frames.copy()
        frames[-1] = _plane_rotations(np.full(n, sign * 0.99 * CLOSURE_TOL)) @ frames[-1]
        res = maslov_index(LagrangianLoop(frames, loop.ts))
        assert res.index == maslov_index(loop).index == 2
        assert 0.98 * bound <= abs(res.raw_winding - res.index) <= bound + 1e-12
