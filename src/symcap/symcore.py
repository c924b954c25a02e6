"""Phase-space conventions, symplectic matrices, and exact quadratic flows.

Coordinates are ordered (x_1, ..., x_n, p_1, ..., p_n); the conjugate pair j
occupies indices (j, n+j) (0-based).  The standard-form matrix is

    J = [[0,  I],
         [-I, 0]]

so that sigma(z, z') = (J z) . z' = p . x' - p' . x.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9
# The round-off of det S grows with cond_2(S) = |S|_2^2 <= |S|_F^2 on Sp(n).  Over
# 6000 draws of random_symplectic (n in {1, 2, 3, 5, 10}, spread 0.5 to 3, seeds
# 0-199 each), |det S - 1| stayed below 2.9 eps |S|_F^2; 820 of them fail a fixed
# 10 * tol bound.
DET_ROUNDOFF = 10.0
EPS, TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


class DimensionError(ValueError):
    """Matrix or vector has the wrong shape for phase space."""


class ValidationError(ValueError):
    """An input fails a structural invariant."""


class DegenerateInputError(ValueError):
    """An input is degenerate (e.g. zero energy where a ratio is needed)."""


def _positive_entries(x):
    v = np.asarray(x, dtype=float)
    # a Python loop beats numpy's reductions on the short vectors checked here
    return v, v.size > 0 and all(0.0 < r < math.inf for r in v.ravel().tolist())


def positive(name: str, x):
    """x as a float, or a float array for a sequence or an array, if every value
    is > 0 and finite; anything else (no value, NaN, +-inf, a value <= 0, or one
    float() cannot read, None included) raises ValidationError naming x."""
    try:
        if isinstance(x, np.ndarray) and x.ndim:  # numpy < 2.4 would read a size-1 one as a float
            v, ok = _positive_entries(x)
        else:
            try:
                v = float(x)
                ok = 0.0 < v < math.inf
            except TypeError:  # a sequence (None reads as NaN)
                v, ok = _positive_entries(x)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be > 0 and finite, got {x}")
    return v


def finite_capacity(c: float) -> float:
    """c if it is > 0 and finite: a capacity that under- or overflowed raises ValidationError."""
    if not (c > 0.0 and math.isfinite(c)):
        raise ValidationError(f"capacity must be finite and > 0, got {c}")
    return c


def _least_disk_area(radii) -> float:
    """pi min_j R_j^2 of a sequence of float radii, unchecked: the formula of
    solid_torus_capacity, for radii that a SolidTorus has already validated."""
    return math.pi * min(r * r for r in radii)


def solid_torus_capacity(radii) -> float:
    """pi min_j R_j^2, the capacity of the solid torus D^2(R_1) x ... x D^2(R_n), for a
    sequence or 1-d array of radii; radii that are not all > 0 and finite, and a capacity
    that under- or overflows, raise ValidationError."""
    return finite_capacity(_least_disk_area(positive("solid-torus radii", radii).tolist()))


def plane_indices(n: int, j: int) -> list:
    """Indices [x_j, p_j] of the conjugate pair j (1-based) in a 2n-vector, as Python
    ints; j is any integer type (operator.index) but bool, never a float."""
    try:
        if isinstance(j, bool):
            raise TypeError
        j = operator.index(j)
    except TypeError:
        raise ValidationError(f"conjugate-pair index must be an integer, got {j!r}") from None
    if not 1 <= j <= n:
        raise ValidationError(f"conjugate-pair index {j} out of range 1..{n}")
    return [j - 1, n + j - 1]


def validate_posdef(R):
    """(R, w, U) for a symmetric positive-definite matrix of even order >= 2: R the
    symmetrized copy (R + R^T) / 2 and R = U diag(w) U^T its eigendecomposition,
    w ascending.  The verdict is on that copy, the matrix every caller uses.  The
    three arrays are read-only, so a region or Hamiltonian can keep them; one
    reduction max|R| gives both the finiteness verdict and the scale of the tests."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1] or R.shape[0] % 2 or not R.size:
        raise DimensionError(f"expected a square matrix of even order >= 2, got shape {R.shape}")
    scale = float(np.abs(R).max())  # NaN or inf if any entry is
    if not math.isfinite(scale):
        raise ValidationError(f"matrix entries must be finite, got {R.tolist()}")
    scale = max(scale, TINY)
    if np.abs(R - R.T).max() > 1e-10 * scale:
        raise ValidationError("matrix is not symmetric")
    R = (R + R.T) / 2.0
    w, U = np.linalg.eigh(R)
    if w[0] < 1e-12 * scale:
        raise ValidationError(f"matrix is not positive definite: eigenvalue {float(w[0])!r}")
    for a in (R, w, U):
        a.setflags(write=False)
    return R, w, U


def write_csv(header, rows) -> str:
    """CSV text of a header and rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@functools.lru_cache(maxsize=16)  # bounded: one J at n = 2000 is 128 MB
def _J(n: int) -> np.ndarray:
    """The J of standard_form_matrix(n), built once per n and read-only."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    J.setflags(write=False)
    return J


def standard_form_matrix(n: int) -> np.ndarray:
    """Return the 2n x 2n matrix J of the standard symplectic form.  J is built once
    per n; each call returns a new, writable copy that the caller owns."""
    return _J(n).copy()


def as_phase_point(z) -> np.ndarray:
    """Coerce to a finite 1-d float array of even length >= 2."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim != 1 or len(z) < 2 or len(z) % 2:
        raise DimensionError(f"phase point must have even length >= 2, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValidationError(f"phase point must be finite, got {z.tolist()}")
    return z


def symplectic_form(z, zp) -> float:
    """Evaluate sigma(z, z') = p . x' - p' . x."""
    z = as_phase_point(z)
    zp = as_phase_point(zp)
    if len(z) != len(zp):
        raise DimensionError("phase points live in different dimensions")
    n = len(z) // 2
    return float(z[n:] @ zp[:n] - zp[n:] @ z[:n])


def _inverse(S: np.ndarray) -> np.ndarray:
    """S^{-1} = -J S^T J of each S = [[A, B], [C, D]] of a stack (..., 2n, 2n) in Sp(n),
    exactly: the block transpose [[D^T, -B^T], [-C^T, A^T]], each zero +0.0 as in J's product."""
    n = S.shape[-1] // 2
    T = np.swapaxes(S, -1, -2)
    inv = np.empty(S.shape)
    inv[..., :n, :n], inv[..., :n, n:] = T[..., n:, n:], -T[..., n:, :n]
    inv[..., n:, :n], inv[..., n:, n:] = -T[..., :n, n:], T[..., :n, :n]
    inv += 0.0  # -0.0 + 0.0 is +0.0
    return inv


def _bisect(f, level, inside, outside):
    """The last float from inside toward outside with f <= level (NaN counts), for f(inside)
    <= level < f(outside): the bracket is halved until its ends are adjacent floats."""
    while inside < (mid := 0.5 * (inside + outside)) < outside or outside < mid < inside:
        if f(mid) > level:
            outside = mid
        else:
            inside = mid
    return inside


class SymplecticCheck(NamedTuple):
    ok: bool
    residual: float


def _symplectic_verdicts(S: np.ndarray, tol: float):
    """For each matrix of a stack S (T, 2n, 2n): |S^T J S - J|, its largest entry
    |(S^T J S - J)_ik| / (|s_i| |s_k|) against the round-off scale of the columns s_i,
    whether that is <= tol, det S, and whether |det S - 1| is within max(10 tol
    max(1, |det S|), DET_ROUNDOFF eps |S|_F^2).  A norm or a limit that overflows fails.

    Both callers require the det verdict, whose limit must be finite, so a column
    norm |s_i| is not tested for finiteness: a NaN or infinite entry makes |S|_F^2, and
    so the limit, NaN or infinite too, and a column whose squares sum past the float
    range makes |S|_F^2, which adds the same squares and more, overflow as well (the
    two sums add in different orders, which can matter only within a few ulps of it)."""
    if S.ndim != 3 or S.shape[1] != S.shape[2]:
        raise DimensionError(f"expected square matrices, got shape {S.shape[1:]}")
    if S.shape[-1] % 2:
        raise DimensionError(f"symplectic matrices have even order, got {S.shape[-1]}")
    J = _J(S.shape[-1] // 2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # an overflow fails
        diff = np.abs(S.swapaxes(1, 2) @ J @ S - J)
        sq = S**2
        col = np.sqrt(sq.sum(axis=1))
        reading = (diff / (col[:, :, None] * col[:, None, :])).max(axis=(1, 2))
        det = np.linalg.det(S)
        limit = np.maximum(10 * tol * np.maximum(1.0, np.abs(det)),
                           DET_ROUNDOFF * EPS * sq.sum(axis=(1, 2)))
    return diff, reading, reading <= tol, det, (np.abs(det - 1.0) <= limit) & np.isfinite(limit)


def is_symplectic(M, tol: float = DEFAULT_TOL) -> SymplecticCheck:
    """Test whether M preserves the standard form.

    Returns (ok, residual) where residual = max|M^T J M - J| and ok is the verdict
    of validate_symplectic: the residual test and the det test both hold.  The
    residual is returned regardless of the verdict so callers can report near-misses.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    diff, _, (ok,), _, (det_ok,) = _symplectic_verdicts(M[None], tol)
    return SymplecticCheck(bool(ok and det_ok), float(diff.max()))


def validate_symplectic(S: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """Raise ValidationError unless every matrix of the stack S (T, 2n, 2n) is in Sp(n).

    |det S - 1| must stay within max(10 tol max(1, |det S|), DET_ROUNDOFF eps |S|_F^2),
    and each entry of S^T J S - J within tol |s_i| |s_k| (s_i the columns of S), the
    scale of its round-off.  A norm or a limit that overflows fails; det is checked first.
    """
    _, reading, ok, det, det_ok = _symplectic_verdicts(S, tol)
    if not det_ok.all():  # argmin: the first bad matrix
        raise ValidationError(f"det S = {float(det[det_ok.argmin()])!r}, expected 1")
    if not ok.all():
        raise ValidationError(
            f"matrix is not symplectic: residual {reading[ok.argmin()]:.3e} "
            f"of |s_i| |s_k| exceeds {tol:.1e}"
        )


@dataclass(frozen=True)
class SymplecticMatrix:
    """A 2n x 2n real matrix certified to satisfy S^T J S = J.

    Construction validates the defining relation (relative tolerance
    ``tol``) and det S = 1; invalid matrices raise ValidationError.
    """

    entries: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        validate_symplectic(entries[None], self.tol)

    @property
    def n(self) -> int:
        return self.entries.shape[0] // 2

    def transform(self, z) -> np.ndarray:
        """Image of a phase point under the linear map."""
        z = as_phase_point(z)
        if len(z) != 2 * self.n:
            raise DimensionError("phase point dimension does not match matrix")
        return self.entries @ z

    def inverse(self) -> "SymplecticMatrix":
        return SymplecticMatrix(_inverse(self.entries), self.tol)

    def to_dict(self) -> dict:
        return {"n": self.n, "rows": self.entries.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SymplecticMatrix":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, obj: dict) -> "SymplecticMatrix":
        if not isinstance(obj, dict) or set(obj) != {"n", "rows"}:
            raise ValidationError('matrix JSON must have exactly the keys "n" and "rows"')
        n = obj["n"]
        rows = np.asarray(obj["rows"], dtype=float)
        if not (isinstance(n, int) and n >= 1):
            raise ValidationError(f'"n" must be a positive integer, got {n!r}')
        if rows.shape != (2 * n, 2 * n):
            raise ValidationError(f"rows have shape {rows.shape}, expected {(2*n, 2*n)}")
        return cls(rows)


# The [13/13] Pade approximant of exp is exact to unit round-off on matrices of 1-norm
# below THETA_13 (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179).  With the
# coefficients b_0..b_13 of its numerator, it is (V - U)^-1 (V + U) for U = A (A6 X0 + X2)
# and V = A6 X1 + X3, where the rows (b13 b11 b9 0), (b12 b10 b8 0), (b7 b5 b3 b1) and
# (b6 b4 b2 b0) of PADE_13 give X0..X3 from (A6, A4, A2, I).  Dividing by b_0 makes
# V = I at A = 0, so exp(0) = I exactly.
THETA_13 = 5.371920351148152
PADE_13 = np.array([
    [1.0, 16380.0, 40840800.0, 0.0],
    [182.0, 960960.0, 1323241920.0, 0.0],
    [33522128640.0, 10559470521600.0, 1187353796428800.0, 32382376266240000.0],
    [670442572800.0, 129060195264000.0, 7771770303897600.0, 64764752532480000.0],
]) / 64764752532480000.0


def expm(A) -> np.ndarray:
    """exp(A) of every matrix of a stack A (..., m, m), by scaling and squaring.

    Each matrix is scaled by 2^-s, with the least s >= 0 (one more at a power of
    two) that brings its 1-norm below THETA_13, goes through the [13/13] Pade
    approximant, and is squared s times.  A stack gives the bits of its matrices
    taken one at a time.
    """
    A = np.asarray(A, dtype=float)
    batch, m = A.shape[:-2], A.shape[-1]
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.maximum(np.frexp(norm / THETA_13)[1], 0)
    A = A * np.ldexp(1.0, -s)[..., None, None]
    P = np.empty((*batch, 4, m, m))  # A6, A4, A2, I
    P[..., 3, :, :] = np.eye(m)
    np.matmul(A, A, out=P[..., 2, :, :])
    np.matmul(P[..., 2, :, :], P[..., 2, :, :], out=P[..., 1, :, :])
    np.matmul(P[..., 1, :, :], P[..., 2, :, :], out=P[..., 0, :, :])
    X = (PADE_13 @ P.reshape(*batch, 4, m * m)).reshape(P.shape)
    W = P[..., :1, :, :] @ X[..., :2, :, :] + X[..., 2:, :, :]
    U, V = A @ W[..., 0, :, :], W[..., 1, :, :]
    E = np.linalg.solve(V - U, V + U)
    E, s = E.reshape(-1, m, m), s.ravel()
    for k in range(int(s.max(initial=0))):
        i = np.flatnonzero(s > k)  # the matrices squared more than k times
        Ei = E[i]
        E[i] = Ei @ Ei
    return E.reshape(A.shape)


def _plane_rotations(theta: np.ndarray) -> np.ndarray:
    """exp(J diag(theta, theta)) for theta (..., n): the rotations by theta_j in the
    conjugate planes j, as a (..., 2n, 2n) stack.  Its four diagonals, (j, j), (n+j, n+j),
    (j, n+j) and (n+j, j), are strided slices of each flattened matrix."""
    n = theta.shape[-1]
    m = 2 * n + 1  # the stride of a diagonal in a flattened 2n x 2n matrix
    c, s = np.cos(theta), np.sin(theta)
    rot = np.zeros((*theta.shape[:-1], 4 * n * n))
    rot[..., :2 * n * n:m] = rot[..., 2 * n * n + n::m] = c
    rot[..., n:2 * n * n:m] = s
    rot[..., 2 * n * n::m] = -s
    return rot.reshape(*theta.shape[:-1], 2 * n, 2 * n)


def _hashmix(v, c):
    """SeedSequence's hashmix of the words v, with c the hash constants before and after each."""
    v = (v ^ c[:-1]) * c[1:]
    return v ^ (v >> np.uint32(16))


def _hash_constants(h: int, m: int, k: int) -> np.ndarray:  # h m^i mod 2^32 for i <= k
    return np.array([h * pow(m, i, 2**32) % 2**32 for i in range(k + 1)], np.uint32)[:, None]


# NEP 19's SeedSequence (numpy's bit_generator.pyx) hashes with these running constants
# when it mixes its 4-word pool and when it draws 8 words of state, whatever the entropy.
MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
# Below this many seeds numpy's own default_rng seeds each stream faster than one batch.
SEED_BATCH = 16


def _streams(seeds):
    """Yield default_rng(seed) for each seed of seeds, bit for bit.  A batch of SEED_BATCH
    or more ints in [0, 2^64) runs SeedSequence(seed).generate_state(4, np.uint64) in uint32
    passes over the batch, then PCG64's seeding (pcg64_set_seed: inc = 2 i + 1, state =
    (s + inc) M + inc mod 2^128 for the words (s, i)) in Python ints, and sets the state of
    one Generator before each yield; any other batch takes default_rng seed by seed."""
    if len(seeds) < SEED_BATCH or not all(type(s) is int and 0 <= s < 2**64 for s in seeds):
        yield from map(np.random.default_rng, seeds)
        return
    s = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), np.uint32)  # the entropy words, low first, 0-padded
    pool[0], pool[1] = s & np.uint64(0xFFFFFFFF), s >> np.uint64(32)
    pool = _hashmix(pool, MIX_HASH[:5])
    for src in range(4):  # mix(x, y) = (L x - R y) ^ >> 16 into every other word
        dst = [d for d in range(4) if d != src]
        x = (np.uint32(0xCA01F9DD) * pool[dst]
             - np.uint32(0x4973F715) * _hashmix(pool[src], MIX_HASH[4 + 3 * src:8 + 3 * src]))
        pool[dst] = x ^ (x >> np.uint32(16))
    words = _hashmix(np.tile(pool, (2, 1)), STATE_HASH).astype(np.uint64)
    words = words[0::2] | (words[1::2] << np.uint64(32))  # little-endian uint32 pairs
    rng = np.random.default_rng(0)  # its state is replaced for every seed
    for s_hi, s_lo, i_hi, i_lo in words.T.tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & (2**128 - 1)
        state = (((s_hi << 64 | s_lo) + inc) * PCG64_MULT + inc) & (2**128 - 1)
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        yield rng


def _draw_symplectic(n: int, seeds, spread: float) -> np.ndarray:
    """The unvalidated stack (T, 2n, 2n) behind random_symplectic, one map per seed, each
    drawn from default_rng(seed): _streams mirrors numpy's SeedSequence and PCG64 seeding."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    positive("spread", spread)
    A, theta = np.empty((len(seeds), 2, 2 * n, 2 * n)), np.empty((len(seeds), n))
    for k, rng in enumerate(_streams(seeds)):  # each map keeps its own stream
        rng.standard_normal(out=A[k])  # scaled below: numpy draws normal(scale=s) as 0 + s z
        rng.random(out=theta[k])  # and uniform(0, 2 pi) as 0 + 2 pi u, so the bits are the same
    A *= spread
    A = (A + np.swapaxes(A, 2, 3)) / 2.0
    E = expm(_J(n) @ A)
    return E[:, 0] @ E[:, 1] @ _plane_rotations(2.0 * np.pi * theta)


def random_symplectic_stack(n: int, seeds, spread: float = 1.0) -> np.ndarray:
    """random_symplectic(n, seed, spread).entries for every seed, as one validated
    (T, 2n, 2n) array."""
    S = _draw_symplectic(n, seeds, spread)
    validate_symplectic(S)
    return S


def random_symplectic(n: int, seed: int, spread: float = 1.0) -> SymplecticMatrix:
    """Draw a deterministic pseudo-random element of Sp(n).

    Built as a product of two exponentials exp(J A) for random symmetric A
    (entries scaled by ``spread``), composed with a random rotation in every
    conjugate plane.  Group membership is exact up to matrix-exponential
    accuracy, and the factors mix position and momentum coordinates.
    """
    return SymplecticMatrix(_draw_symplectic(n, [seed], spread)[0])


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H(z) = 1/2 z . R z with R symmetric positive definite.  The read-only factors
    R = U diag(w) U^T of validate_posdef are kept as _factors = (w, U), and the
    Williamson form built from them on the first flow as _normal_form; neither is a field."""

    hessian: np.ndarray = field()

    def __post_init__(self):
        R, w, U = validate_posdef(self.hessian)
        object.__setattr__(self, "hessian", R)
        object.__setattr__(self, "_factors", (w, U))

    @property
    def n(self) -> int:
        return self.hessian.shape[0] // 2

    @functools.cached_property
    def _normal_form(self):
        """Read-only (mu, S, S^{-1}) with S^T R S = diag(mu, mu)."""
        from .williamson import _normal_form

        mu, S = _normal_form(*self._factors)
        S_inv = _inverse(S)
        for a in (mu, S, S_inv):
            a.setflags(write=False)
        return mu, S, S_inv

    def value(self, z) -> float:
        z = as_phase_point(z)
        return 0.5 * float(z @ self.hessian @ z)

    def drift(self, z0, zt) -> float:
        """Relative energy drift |H(z_t) - H(z0)| / H(z0) between two points of a flow."""
        with np.errstate(over="ignore", invalid="ignore"):
            e0, et = self.value(z0), self.value(zt)
        if not np.isfinite(e0) or not np.isfinite(et):
            raise ValidationError(f"energy overflows at z0 = {np.asarray(z0).tolist()}")
        if e0 <= 0.0:
            raise DegenerateInputError("H(z0) = 0: relative drift undefined for z0 = 0")
        return abs(et - e0) / e0


def quad_propagator(H: QuadraticHamiltonian, t: float,
                    tol: float = DEFAULT_TOL) -> SymplecticMatrix:
    """Exact flow map exp(t J R) of the quadratic Hamiltonian.

    With the Williamson form S^T R S = diag(mu, mu) that H keeps it is S rot(t mu)
    S^{-1}, a rotation by t mu_j in each normal plane, so its round-off does not grow
    with |t|.  A non-finite angle t mu_j raises a ValidationError naming t.
    """
    mu, S, S_inv = H._normal_form
    with np.errstate(over="ignore"):
        theta = float(t) * mu
    if not np.isfinite(theta).all():
        raise ValidationError(f"flow angle t * mu must be finite, got t = {t!r}")
    return SymplecticMatrix(S @ _plane_rotations(theta) @ S_inv, tol)


def flow_energy_drift(H: QuadraticHamiltonian, z0, times) -> float:
    """Max relative energy drift |H(z(t)) - H(z0)| / H(z0) over sample times."""
    z0 = as_phase_point(z0)
    drift = H.drift(z0, z0)  # 0.0; raises for z0 = 0 even when times is empty
    for t in np.atleast_1d(np.asarray(times, dtype=float)).tolist():  # quad_propagator checks t
        drift = max(drift, H.drift(z0, quad_propagator(H, t).transform(z0)))
    return drift
