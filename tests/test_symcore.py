import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm as scipy_expm

from symcap import (
    DegenerateInputError,
    DimensionError,
    QuadraticHamiltonian,
    SymplecticMatrix,
    ValidationError,
    flow_energy_drift,
    is_symplectic,
    quad_propagator,
    random_symplectic,
    random_symplectic_stack,
    standard_form_matrix,
    symplectic_form,
    williamson_decompose,
)
from symcap.symcore import (
    DEFAULT_TOL,
    _bisect,
    _J,
    _inverse,
    _plane_rotations,
    _streams,
    _symplectic_verdicts,
    expm,
    validate_symplectic,
)


def test_standard_form_matrix_convention():
    J = standard_form_matrix(2)
    z = np.array([1.0, 2.0, 3.0, 4.0])   # (x1, x2, p1, p2)
    zp = np.array([5.0, 6.0, 7.0, 8.0])
    # sigma(z, z') = p.x' - p'.x
    assert symplectic_form(z, zp) == pytest.approx(3 * 5 + 4 * 6 - 7 * 1 - 8 * 2)
    assert symplectic_form(z, zp) == pytest.approx((J @ z) @ zp)


def test_standard_form_matrix_is_a_fresh_copy_of_the_kept_j():
    J = standard_form_matrix(2)
    assert J.flags.writeable and J is not standard_form_matrix(2)
    assert not _J(2).flags.writeable
    with pytest.raises(ValueError):
        _J(2)[0, 2] = 7.0
    maps = [np.eye(4), np.diag([2.0, 1.0, 0.5, 1.0]), random_symplectic(2, 3).entries]
    R = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1

    def outputs():
        dec = williamson_decompose(R)
        return ([is_symplectic(M) for M in maps], dec.S.entries.tobytes(), dec.residual,
                random_symplectic_stack(2, list(range(20))).tobytes())

    before = outputs()
    J[...] = 7.0  # the caller owns its copy: nothing else sees the write
    assert outputs() == before
    assert standard_form_matrix(2).tobytes() == _J(2).tobytes() != J.tobytes()


def test_is_symplectic_identity():
    ok, resid = is_symplectic(np.eye(4))
    assert ok and resid == 0.0


def test_is_symplectic_j_itself():
    assert is_symplectic(standard_form_matrix(1)).ok


def test_is_symplectic_rejects_scaling():
    ok, resid = is_symplectic(np.diag([2.0, 2.0]))
    assert not ok
    assert resid == pytest.approx(3.0)  # scales sigma by 4


def test_is_symplectic_odd_dimension():
    with pytest.raises(DimensionError):
        is_symplectic(np.eye(3))


def test_random_symplectic_det_one():
    S = random_symplectic(1, seed=7)
    assert np.linalg.det(S.entries) == pytest.approx(1.0, abs=1e-9)


def test_random_symplectic_group_membership():
    S = random_symplectic(3, seed=0)
    assert is_symplectic(S.entries, 1e-9).ok


def test_random_symplectic_deterministic():
    a = random_symplectic(2, seed=5, spread=1.5)
    b = random_symplectic(2, seed=5, spread=1.5)
    assert np.array_equal(a.entries, b.entries)


def test_random_symplectic_mixes_coordinates():
    # off-diagonal blocks must not vanish (coordinate-mixing maps)
    S = random_symplectic(2, seed=1).entries
    assert np.max(np.abs(S[:2, 2:])) > 1e-3
    assert np.max(np.abs(S[2:, :2])) > 1e-3


def test_random_symplectic_validation():
    with pytest.raises(ValidationError):
        random_symplectic(0, seed=1)
    with pytest.raises(ValidationError):
        random_symplectic(1, seed=1, spread=0.0)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_sigma_preserved_by_random_symplectic(seed):
    S = random_symplectic(2, seed)
    rng = np.random.default_rng(seed + 1)
    z, zp = rng.normal(size=4), rng.normal(size=4)
    lhs = symplectic_form(S.transform(z), S.transform(zp))
    rhs = symplectic_form(z, zp)
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


def test_sigma_preserved_bulk():
    S = random_symplectic(3, seed=11)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        z, zp = rng.normal(size=6), rng.normal(size=6)
        assert abs(symplectic_form(S.transform(z), S.transform(zp))
                   - symplectic_form(z, zp)) <= 1e-9 * max(1.0, abs(symplectic_form(z, zp)))


def test_symplectic_matrix_rejects_garbage():
    with pytest.raises(ValidationError):
        SymplecticMatrix(np.diag([2.0, 2.0]))


def test_random_symplectic_accepts_ill_conditioned_draws():
    # det S carries round-off of order eps |S|_F^2 at these spreads
    for seed in (113, 219):
        S = random_symplectic(1, seed=seed, spread=3.0)
        assert is_symplectic(S.entries).ok


@given(st.integers(1, 10), st.floats(0.5, 3.0),
       st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_stacked_draw_equals_random_symplectic(n, spread, seeds):
    stack = random_symplectic_stack(n, seeds, spread)
    assert stack.shape == (len(seeds), 2 * n, 2 * n)
    for S, seed in zip(stack, seeds):
        assert S.tobytes() == random_symplectic(n, seed, spread).entries.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("spread", [0.3, 1.0, 3.0])
def test_stacked_draw_keeps_the_per_seed_stream(n, spread):
    # each seed's matrix comes from default_rng(seed).normal(scale=spread, size=(2, 2n, 2n))
    # and then .uniform(0, 2 pi, n), bit for bit
    seeds = [*range(40), 12345, 2**63 - 1]
    A = np.empty((len(seeds), 2, 2 * n, 2 * n))
    theta = np.empty((len(seeds), n))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        A[k] = rng.normal(scale=spread, size=(2, 2 * n, 2 * n))
        theta[k] = rng.uniform(0.0, 2.0 * np.pi, n)
    E = expm(standard_form_matrix(n) @ ((A + np.swapaxes(A, 2, 3)) / 2.0))
    expected = E[:, 0] @ E[:, 1] @ _plane_rotations(theta)
    assert random_symplectic_stack(n, seeds, spread).tobytes() == expected.tobytes()


def fancy_index_rotations(theta):
    """_plane_rotations as it was built by fancy indexing, the reference for its slices."""
    n = theta.shape[-1]
    i = np.arange(n)
    s = np.sin(theta)
    rot = np.zeros((*theta.shape[:-1], 2 * n, 2 * n))
    rot[..., i, i] = rot[..., n + i, n + i] = np.cos(theta)
    rot[..., i, n + i] = s
    rot[..., n + i, i] = -s
    return rot


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("shape", [(), (7,)], ids=["single", "stack"])
def test_plane_rotations_match_the_fancy_index_construction(n, shape):
    theta = np.random.default_rng(n).uniform(-10.0, 10.0, (*shape, n))
    theta.flat[0] = -0.0
    rot = _plane_rotations(theta)
    assert rot.shape == (*shape, 2 * n, 2 * n)
    assert rot.tobytes() == fancy_index_rotations(theta).tobytes()


def stream_heads(seeds, streams):
    """The first standard_normal and random draws of each stream, and the distinct generators."""
    heads, rngs = [], []
    for seed, rng in zip(seeds, streams):
        heads.append((seed, rng.standard_normal(3).tobytes(), rng.random(2).tobytes()))
        rngs.append(rng)
    return heads, len({id(rng) for rng in rngs})


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


# a batch of ints in [0, 2^64) is seeded at once and drawn through one generator; any other
# batch, and a short one, is seeded by numpy's default_rng itself
@pytest.mark.parametrize("seeds, generators", [
    (EDGE_SEEDS + list(range(2, 22)), 1),
    ([((2**61 + 5) * 1_000_003 + t) % 2**63 for t in range(3000)], 1),  # nonsqueeze_verify's
    (EDGE_SEEDS + [2**64, 2**100] + list(range(2, 22)), 28),
    (EDGE_SEEDS, 6),
])
def test_batched_seeding_gives_numpy_streams(seeds, generators):
    heads, distinct = stream_heads(seeds, _streams(seeds))
    assert heads == stream_heads(seeds, map(np.random.default_rng, seeds))[0]
    assert distinct == generators


@pytest.mark.parametrize("seeds", [[-1], [*range(20), -1]])
def test_negative_seed_raises_numpy_error(seeds):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        random_symplectic_stack(2, seeds)


def hamiltonian_stack(n, shape, seed):
    """J A for random symmetric A, entries scaled by 0.1, 1 and 3 along the first axis."""
    A = np.random.default_rng(seed).normal(size=(3, *shape, 2 * n, 2 * n))
    A *= np.array([0.1, 1.0, 3.0]).reshape(3, *[1] * (len(shape) + 2))
    return standard_form_matrix(n) @ (A + np.swapaxes(A, -1, -2))


@pytest.mark.parametrize("n", range(1, 11))
def test_expm_agrees_with_scipy(n):
    H = hamiltonian_stack(n, (8,), seed=n)
    E, F = expm(H), scipy_expm(H)
    assert np.all(np.max(np.abs(E - F), axis=(-2, -1)) <= 1e-12 * np.max(np.abs(F), axis=(-2, -1)))


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5, -7.0, 100.0])
def test_expm_of_tJ_is_a_rotation(t):
    for n in (1, 2, 3):
        c, s, eye = np.cos(t), np.sin(t), np.eye(n)
        rotation = np.block([[c * eye, s * eye], [-s * eye, c * eye]])
        assert np.allclose(expm(t * standard_form_matrix(n)), rotation, rtol=0, atol=1e-14)


def test_expm_of_zero_is_exactly_the_identity():
    for m in (1, 2, 5):
        assert np.array_equal(expm(np.zeros((m, m))), np.eye(m))
    assert np.array_equal(expm(np.zeros((3, 2, 4, 4))), np.broadcast_to(np.eye(4), (3, 2, 4, 4)))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_expm_stack_equals_its_slices(n):
    # the scales 0.1 to 3 give the matrices of one stack different squaring counts
    H = hamiltonian_stack(n, (4, 2), seed=10 + n)
    E = expm(H)
    assert E.shape == H.shape
    for k in np.ndindex(H.shape[:-2]):
        assert expm(H[k]).tobytes() == E[k].tobytes()


def test_validate_symplectic_checks_every_matrix_of_a_stack():
    stack = random_symplectic_stack(2, [4, 5, 6])
    validate_symplectic(stack)
    stack[1] *= 1.001
    with pytest.raises(ValidationError):
        validate_symplectic(stack)
    with pytest.raises(DimensionError):
        validate_symplectic(np.zeros((2, 3, 3)))


@pytest.mark.parametrize("M", [[[1e200, 1e200], [0.0, 1.0]],   # det 1e200
                               [[1e200, 0.0], [0.0, 1e-200]]],  # in Sp(1)
                         ids=["det-1e200", "diagonal"])
def test_overflowing_scale_is_rejected_without_warnings(M):
    # max|M|^2 overflows, so the relative residual test cannot be made
    M = np.array(M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            SymplecticMatrix(M)
        assert not is_symplectic(M).ok


@pytest.mark.parametrize("M, det", [(np.diag([1e6, 2e-6]), "2.0"),       # doubles areas
                                    (np.full((2, 2), 1e154), "0.0")],  # det limit overflows
                         ids=["area-doubling", "det-limit-overflow"])
def test_is_symplectic_applies_the_det_test(M, det):
    # both fail the residual test too; a matrix that fails both is reported by its det
    assert not is_symplectic(M).ok
    with pytest.raises(ValidationError, match=f"det S = {det}"):
        validate_symplectic(M[None])


def test_residual_is_read_against_the_column_norms():
    # det 1 and max|M^T J M - J| = 5, within 1e-9 max|M|^2 = 10; but the entry
    # sigma(e_x1, e_p2) = 5 has round-off scale |s_x1| |s_p2| = 1e5
    A = np.diag([1e5, 1.0])
    M = np.block([[A, np.zeros((2, 2))],
                  [np.zeros((2, 2)), np.linalg.inv(A).T @ np.array([[1.0, 5.0], [0.0, 1.0]])]])
    assert is_symplectic(M) == (False, 5.0)
    with pytest.raises(ValidationError, match="residual 5.000e-05 of"):
        validate_symplectic(M[None])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_random_maps_read_far_below_the_tolerance(n):
    # measured: at most 9.0e-14 over n in {1, 2, 3, 5, 10}, spreads 0.3 to 3
    S = random_symplectic_stack(n, range(200), 3.0)
    assert _symplectic_verdicts(S, DEFAULT_TOL)[1].max() <= 1e-12


# np.full((2, 2), 1e100) is singular, but within entrywise round-off of a matrix in Sp(1)
@pytest.mark.parametrize("M", [np.eye(2), np.diag([2.0, 2.0]), np.full((2, 2), 1e100),
                               np.diag([1e200, 1e-200]), np.diag([3.0, -1.0 / 3.0]),
                               np.diag([-1.0, -1.0, -1.0, -1.0])],
                         ids=["identity", "scaling", "round-off-singular", "overflow",
                              "det-minus-1", "minus-identity"])
def test_is_symplectic_agrees_with_validate_symplectic(M):
    try:
        validate_symplectic(M[None])
        valid = True
    except ValidationError:
        valid = False
    assert is_symplectic(M).ok == valid


def test_overflowing_det_limit_is_rejected_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="det S = 0.0"):
            SymplecticMatrix(np.full((2, 2), 1e154))  # |M|_F^2 overflows


def test_symplectic_matrix_json_roundtrip():
    S = random_symplectic(2, seed=3)
    T = SymplecticMatrix.from_json(S.to_json())
    assert np.array_equal(S.entries, T.entries)
    obj = json.loads(S.to_json())
    assert set(obj) == {"n", "rows"}


def test_symplectic_matrix_json_strict_shape():
    with pytest.raises(ValidationError):
        SymplecticMatrix.from_json(json.dumps({"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}))
    with pytest.raises(ValidationError):
        SymplecticMatrix.from_json(json.dumps({"n": 1, "rows": [[1, 0], [0, 1]], "x": 1}))


def test_quadratic_hamiltonian_validation():
    with pytest.raises(ValidationError):
        QuadraticHamiltonian(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="eigenvalue -1.0$") as info:
        QuadraticHamiltonian(np.diag([1.0, -1.0]))
    assert "np.float64" not in str(info.value)


def test_propagator_rotation():
    H = QuadraticHamiltonian(np.eye(2))
    t = 0.7
    expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.allclose(quad_propagator(H, t).entries, expected, atol=1e-12)


def test_propagator_at_zero_is_identity():
    H = QuadraticHamiltonian(np.diag([2.0, 0.5, 3.0, 1.0]))
    assert np.allclose(quad_propagator(H, 0.0).entries, np.eye(4), atol=1e-15)


def test_propagator_rejects_nonfinite_time():
    H = QuadraticHamiltonian(np.eye(2))
    with pytest.raises(ValidationError):
        quad_propagator(H, np.inf)


def test_propagator_composition_and_inverse():
    H = QuadraticHamiltonian(np.array([[2.0, 0.3, 0.1, 0.0],
                                       [0.3, 1.5, 0.0, 0.2],
                                       [0.1, 0.0, 1.0, 0.1],
                                       [0.0, 0.2, 0.1, 0.8]]))
    a = quad_propagator(H, 0.4).entries
    b = quad_propagator(H, 1.1).entries
    ab = quad_propagator(H, 1.5).entries
    assert np.max(np.abs(a @ b - ab)) <= 1e-9
    inv = quad_propagator(H, -0.4).entries
    assert np.max(np.abs(a @ inv - np.eye(4))) <= 1e-9


def test_oscillator_energy_conserved():
    m, omega = 1.3, 0.8
    H = QuadraticHamiltonian(np.diag([m * omega**2, 1.0 / m]))
    z0 = np.array([0.5, -0.2])
    for t in np.linspace(0.0, 10.0, 17):
        zt = quad_propagator(H, t).transform(z0)
        assert abs(H.value(zt) - H.value(z0)) <= 1e-10 * H.value(z0)


def test_drift_exact_rotation():
    H = QuadraticHamiltonian(np.eye(2))
    assert flow_energy_drift(H, [1.0, 0.0], np.linspace(0, 2 * np.pi, 64)) <= 1e-10


def test_drift_zero_point_rejected():
    H = QuadraticHamiltonian(np.eye(2))
    with pytest.raises(DegenerateInputError):
        flow_energy_drift(H, [0.0, 0.0], [0.0, 1.0])


def test_flow_matches_ode_oracle():
    # independent oracle: high-accuracy adaptive integration of Hamilton's
    # equations zdot = J R z
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    R = A @ A.T + 0.5 * np.eye(4)
    H = QuadraticHamiltonian(R)
    J = standard_form_matrix(2)
    z0 = np.array([1.0, -0.3, 0.2, 0.7])
    times = np.linspace(0.0, 10.0, 100)
    sol = solve_ivp(lambda t, z: J @ R @ z, (0.0, 10.0), z0, t_eval=times,
                    rtol=1e-12, atol=1e-13, method="DOP853")
    for t, z_ode in zip(times, sol.y.T):
        z_exact = quad_propagator(H, t).transform(z0)
        assert np.max(np.abs(z_exact - z_ode)) <= 1e-8 * max(1.0, np.max(np.abs(z_ode)))
    assert flow_energy_drift(H, z0, times) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("spread", [0.3, 1.0, 3.0])
def test_inverse_is_the_bits_of_minus_j_s_transpose_j(n, spread):
    S = random_symplectic_stack(n, range(300), spread)
    J = standard_form_matrix(n)
    assert _inverse(S).tobytes() == np.array([-J @ s.T @ J for s in S]).tobytes()


def test_inverse_writes_each_zero_as_the_matrix_product_does():
    # -J S^T J sums exact zeros into +0.0, also where S holds -0.0
    C = np.array([[1.0, 0.3], [0.3, -0.0]])
    shear = np.block([[np.eye(2), np.zeros((2, 2))], [C, np.eye(2)]])
    for S in (np.eye(2), -np.eye(2), np.eye(6), shear, np.diag([2.0, -0.5, 0.5, -2.0])):
        J = standard_form_matrix(len(S) // 2)
        assert _inverse(S).tobytes() == (-J @ S.T @ J).tobytes()
        assert _inverse(S[None]).tobytes() == _inverse(S).tobytes()
        assert "-0.0" not in SymplecticMatrix(S).inverse().to_json()


@pytest.mark.parametrize("f, level, inside, outside, expected", [
    (lambda x: x * x, 2.0, 0.0, 2.0, 1.414213562373095),  # sqrt(2) squares to 2 + 2^-51
    (lambda x: x * x, 2.0, 0.0, -2.0, -1.414213562373095),  # the bracket may point down
    (lambda x: -x, -0.5, 3.0, 0.0, 0.5),  # a decreasing f, inside above outside
    (lambda x: math.nan, 0.0, 0.0, 1.0, 1.0 - 2.0**-53),  # a NaN counts as <= level
    (lambda x: x, 0.0, 0.0, math.inf, 0.0),  # no midpoint between 0 and inf
])
def test_bisect_stops_at_adjacent_floats(f, level, inside, outside, expected):
    x = _bisect(f, level, inside, outside)
    assert x == expected
    if math.isfinite(f(outside)):
        assert f(math.nextafter(x, outside)) > level
