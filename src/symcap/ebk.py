"""EBK semiclassical quantization for action Hamiltonians K(I).

Quantized actions are I_j = (N_j + m_j / 4) hbar with N_j >= 0 integer and
m_j the Maslov index of the j-th basic cycle; the invariant torus has radii
R_j = sqrt(2 I_j) and semiclassical energy E_N = K(I).  For even m_j >= 2 the
solid torus of a quantized entry has capacity pi min R_j^2 >= h/2, and for
monotone K every level is bounded below by K(hbar/2, ..., hbar/2).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .symcore import EPS, DegenerateInputError, ValidationError, _bisect, positive, write_csv

FD_STEP = 1e-6  # central differences step by h = FD_STEP max(|I_j|, 1)
# Relative slack of the capacity condition and the energy bound: pi R^2 and pi hbar round
# within 3 eps of exact (measured worst gap 2.5 eps over 4e5 levels, hbar 1e-300..1e300)
ROUNDING_RTOL = 4 * EPS
HALF_MAX = sys.float_info.max / 2.0  # 2 I overflows above it
# check_monotone draws this many actions from this seed, uniformly in this box
MONOTONE_SAMPLES, MONOTONE_SEED, MONOTONE_BOX = 1000, 0, (1e-3, 10.0)


class InvalidMaslovError(ValueError):
    """A basic-cycle Maslov index is not an integer >= 1 (radii would collapse at <= 0)."""


class TheoremHypothesisError(ValueError):
    """A result was requested outside its hypotheses (non-monotone K)."""


class NonCompactOrbitError(ValueError):
    """The 1D energy level curve is empty or unbounded."""


@dataclass(frozen=True)
class ActionHamiltonian:
    """An energy function K of the action variables (I_1, ..., I_n).

    ``monotone`` claims all dK/dI_j > 0 on the positive orthant; :meth:`check_monotone`
    spot-checks it (exactly for the linear K of :func:`oscillator_hamiltonian`) on its
    first call and keeps the verdict for the life of the instance, also past a later
    change to MONOTONE_*.  K must be a pure function of I, as energy_levels assumes.
    """

    K: Callable
    n: int
    monotone: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"need n >= 1, got {self.n}")

    def energy(self, actions) -> float:
        actions = np.asarray(actions, dtype=float)
        if actions.shape != (self.n,):
            raise ValidationError(f"expected {self.n} actions, got shape {actions.shape}")
        return float(self.K(actions))

    def _differences(self, I) -> np.ndarray:
        """Central differences of K at every row of I, one K call per perturbed point."""
        m, n = I.shape
        h = FD_STEP * np.maximum(np.abs(I), 1.0)
        j = np.arange(n)
        pts = np.broadcast_to(I[:, None, None, :], (m, n, 2, n)).copy()
        pts[:, j, 0, j] += h  # pts[k, j] = (I_k + h_kj e_j, I_k - h_kj e_j)
        pts[:, j, 1, j] -= h
        K = np.array([float(self.K(p)) for p in pts.reshape(-1, n)]).reshape(m, n, 2)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN, which fails
            return (K[..., 0] - K[..., 1]) / (2.0 * h)

    def check_monotone(self) -> bool:
        """Spot-check dK/dI > 0 on the orthant; exact for an oscillator's K.

        MONOTONE_SAMPLES actions are drawn uniformly in MONOTONE_BOX, and the
        check fails if any central difference at any of them is not both > 0
        and finite.  K is evaluated at the 2n difference points of every sample.
        The verdict is decided on the first call and kept for the life of the
        instance: later calls do not evaluate K (which must be a pure function of
        I), and a later change to MONOTONE_* does not re-decide it.  A
        dataclasses.replace copy decides afresh; a K that raises keeps nothing.
        """
        return self._monotone_verdict

    @functools.cached_property
    def _monotone_verdict(self) -> bool:
        if isinstance(self.K, _Linear):
            return True  # dK/dI = omega, every omega_j > 0 by construction
        I = np.random.default_rng(MONOTONE_SEED).uniform(*MONOTONE_BOX,
                                                         size=(MONOTONE_SAMPLES, self.n))
        g = self._differences(I)
        failed = np.flatnonzero(~np.all(np.isfinite(g) & (g > 0), axis=1))
        return not failed.size


class _Linear:
    """K(I) = omega . I with all 0 < omega_j < inf, so dK/dI = omega > 0 exactly."""

    def __init__(self, omegas):
        self.omegas = positive("oscillator frequencies", omegas)

    def __call__(self, I) -> float:
        return float(np.dot(self.omegas, I))


def oscillator_hamiltonian(omegas) -> ActionHamiltonian:
    """K(I) = sum_j omega_j I_j with all 0 < omega_j < inf.  check_monotone returns
    True for this K without sampling it, also in a dataclasses.replace copy that keeps K."""
    K = _Linear(omegas)
    return ActionHamiltonian(K=K, n=len(K.omegas), monotone=True)


def _maslov_indices(maslov) -> tuple:
    """maslov as ints if every index is an integer >= 1 that a float holds (2, 2.0 and
    np.int64(2) are; 10**400 is not)."""
    given = tuple(maslov)
    if not all(isinstance(m, numbers.Real) and 1 <= m <= sys.float_info.max
               and float(m).is_integer() for m in given):
        raise InvalidMaslovError(f"basic-cycle Maslov indices must be integers >= 1, got {given}")
    return tuple(int(m) for m in given)


def _action_grid(maslov, n_max: int, hbar: float):
    """(Ns, I): the N tuples with 0 <= N_j <= N_max in itertools.product order, and the
    (L, n) array of their actions I_j = (N_j + m_j/4) hbar, one that overflows read as inf."""
    maslov = _maslov_indices(maslov)
    if n_max < 0:
        raise ValidationError(f"need N_max >= 0, got {n_max}")
    positive("hbar", hbar)
    Ns = list(itertools.product(range(n_max + 1), repeat=len(maslov)))
    with np.errstate(over="ignore"):
        I = (np.array(Ns, dtype=float) + np.array(maslov, dtype=float) / 4.0) * hbar
    return Ns, I


def quantized_actions(maslov, n_max: int, hbar: float = 1.0):
    """All (N, I) pairs with 0 <= N_j <= N_max and I_j = (N_j + m_j/4) hbar."""
    return list(zip(*_action_grid(maslov, n_max, hbar)))


def torus_radii_from_actions(actions) -> np.ndarray:
    """R_j = sqrt(2 I_j) for the invariant torus carrying the actions."""
    I = np.atleast_1d(positive("actions", actions))
    if np.any(I > HALF_MAX):
        raise ValidationError(f"actions {I.tolist()} overflow 2 I in the torus radii")
    return np.sqrt(2.0 * I)


@dataclass(frozen=True)
class EBKLevel:
    N: tuple
    maslov: tuple
    actions: np.ndarray
    radii: np.ndarray
    energy: float


@dataclass(frozen=True)
class EBKSpectrum:
    entries: tuple
    hbar: float

    def to_dict(self) -> dict:
        return {"hbar": self.hbar,
                "levels": [{"N": list(e.N), "maslov": list(e.maslov),
                            "actions": e.actions.tolist(), "radii": e.radii.tolist(),
                            "energy": e.energy} for e in self.entries]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv(self) -> str:
        rows = []
        for e in self.entries:
            check = capacity_condition(e, self.hbar)
            rows.append([" ".join(map(str, e.N)),
                         " ".join(repr(float(a)) for a in e.actions),
                         " ".join(repr(float(r)) for r in e.radii),
                         repr(e.energy), repr(check.capacity), check.satisfied])
        return write_csv(["N", "actions", "radii", "energy", "capacity", "satisfied"], rows)


def energy_levels(K: ActionHamiltonian, maslov, n_max: int, hbar: float = 1.0) -> EBKSpectrum:
    """Semiclassical spectrum E_N = K((N + m/4) hbar) over the full N grid.

    K is called once per level, in grid order.  The first level whose K raises or
    overflows, or whose largest plane area 2 pi I_j overflows, is refused, named by its
    actions."""
    maslov = _maslov_indices(maslov)
    if len(maslov) != K.n:
        raise ValidationError("Maslov tuple length does not match K")
    Ns, I = _action_grid(maslov, n_max, hbar)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        area = 2.0 * math.pi * I.max(axis=1)  # the largest plane area pi R_j^2 = 2 pi I_j
        fits = (np.isfinite(area) & (I.min(axis=1) > 0.0)).tolist()  # an I_j may round to 0
        energies = []
        for row, fit, a in zip(I, fits, area.tolist()):
            try:
                energies.append(energy := K.energy(row))
            except Exception as exc:
                raise ValidationError(f"K failed at actions {row.tolist()}: {exc}") from exc
            if not (math.isfinite(energy) and fit):
                if math.isfinite(energy) and math.isfinite(a):
                    torus_radii_from_actions(row)  # refuses the action that rounded to 0
                raise ValidationError(f"EBK level at actions {row.tolist()} with hbar = {hbar!r} "
                                      f"overflows: energy {energy!r}, plane area {a!r}")
    radii = np.sqrt(2.0 * I)  # every I_j > 0 and, its area 2 pi I_j finite, 2 I_j finite
    entries = [EBKLevel(N=N, maslov=maslov, actions=a, radii=r, energy=e)
               for N, a, r, e in zip(Ns, I, radii, energies)]
    entries.sort(key=lambda e: (e.energy, e.N))
    return EBKSpectrum(entries=tuple(entries), hbar=hbar)


def ground_bound(K: ActionHamiltonian, hbar: float = 1.0) -> float:
    """The capacity-based lower bound K(hbar/2, ..., hbar/2)."""
    return K.energy(np.full(K.n, positive("hbar", hbar) / 2.0))


@dataclass(frozen=True)
class CapacityCheck:
    capacity: float
    satisfied: bool


def capacity_condition(entry: EBKLevel, hbar: float = 1.0) -> CapacityCheck:
    """Check c(solid torus of the entry) = pi min_j R_j^2 >= h/2 = pi hbar, to ROUNDING_RTOL.

    The capacity is regions.capacity(SolidTorus(radii)), which refuses a capacity
    that under- or overflows.  For even Maslov indices m_j >= 2 the condition
    holds automatically, since R_j^2 = (2 N_j + m_j/2) hbar >= hbar.
    """
    from . import regions  # here: it loads williamson, which `symcap ebk` JSON output never needs

    half_h = math.pi * positive("hbar", hbar)
    c = regions.capacity(regions.SolidTorus(entry.radii)).value
    return CapacityCheck(capacity=c, satisfied=c >= half_h * (1.0 - ROUNDING_RTOL))


@dataclass(frozen=True)
class EnergyBoundReport:
    ground: float
    margins: tuple
    ok: bool


def verify_energy_bound(K: ActionHamiltonian, spectrum: EBKSpectrum) -> EnergyBoundReport:
    """Assert every level satisfies E_N >= K(hbar/2, ..., hbar/2).

    Requires the monotonicity hypothesis (all frequencies dK/dI_j > 0),
    which is spot-checked before use.  A margin may fall to -ROUNDING_RTOL |K(hbar/2, ...)|.
    """
    if not K.monotone:
        raise TheoremHypothesisError("energy bound requires a monotone action Hamiltonian")
    if not K.check_monotone():
        raise TheoremHypothesisError("monotone flag failed its spot check")
    e0 = ground_bound(K, spectrum.hbar)
    margins = tuple(e.energy - e0 for e in spectrum.entries)
    return EnergyBoundReport(ground=e0, margins=margins,
                             ok=all(m >= -ROUNDING_RTOL * abs(e0) for m in margins))


# --- 1D action quadrature ----------------------------------------------------

# Gauss-Legendre orders: the first rule, doubled until two rules agree to GL_RTOL
# (relative), and the last allowed
GL_FIRST, GL_LAST, GL_RTOL = 16, 1024, 1e-10
MOMENTUM_CAP = 1e12  # a momentum bracket that passes it means an unbounded level set
POSITION_CAP = 1e6  # a turning-point walk that passes it means an unbounded level set
ILLINOIS_STEPS = 100
ROOT_RTOL = 4 * EPS  # a bracket on q = p^2 this narrow relative to q has converged


@functools.cache
def _sine_rule(order: int):
    """(sin theta_k, w_k cos theta_k) of the Gauss-Legendre rule on theta in [-pi/2, pi/2]."""
    t, w = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * math.pi * t
    return np.sin(theta), 0.5 * math.pi * w * np.cos(theta)


def _bracket_turning_points(V, energy):
    x0 = 0.0
    if V(x0) > energy:  # start from the first probe with V <= E instead
        x0 = next((x for s in 2.0 ** np.arange(-6, 21) for x in (-s, s) if V(x) <= energy), None)
        if x0 is None:
            raise NonCompactOrbitError(f"energy level set appears empty: V(x) > E = {energy!r} "
                                       "at x = 0 and at x = -2^k, 2^k for k = -6, ..., 20")
    ends = []
    for step in (-1e-3, 1e-3):  # walk out in doubling steps, then bisect the last one
        x = x0
        while abs(nxt := x + step) <= POSITION_CAP and not V(nxt) > energy:
            x, step = nxt, 2.0 * step
        if abs(nxt) > POSITION_CAP:
            raise NonCompactOrbitError("no turning point found: orbit not compact")
        ends.append(_bisect(V, energy, x, nxt))
    return ends


def _widths(hamiltonian, x, energy):
    """p+(x) - p-(x) = 2 p+(x) with H(x, p+) = E at each node x, zero where H(x, 0) >= E.

    H is even in p, so only p+ is solved, and as q = p+^2: for a kinetic energy
    p^2 / 2m, H(x, sqrt(q)) is linear in q, so false position lands on the root in
    its first step.  Each root is bracketed in [0, hi^2], hi doubling from 1 up to
    MOMENTUM_CAP, and all are refined together by the Illinois variant of false
    position (Dowell and Jarratt 1971) until every bracket is within 4 eps |q|.
    On the three wells of the tests the width is within 2.5 eps, relative, of
    the closed form 2 sqrt(2 (E - V(x))).
    """
    v = hamiltonian(x, np.zeros_like(x)) - energy
    inside = np.flatnonzero(v < 0)
    xs = x[inside]
    f = lambda q: hamiltonian(xs, np.sqrt(q)) - energy
    a, fa = np.zeros(xs.size), v[inside]
    hi = 1.0
    b = np.full(xs.size, hi)
    fb = f(b)
    low = np.flatnonzero(fb < 0)
    while low.size:
        hi *= 2.0
        if hi > MOMENTUM_CAP:
            raise NonCompactOrbitError("level set unbounded in momentum")
        b[low] = hi * hi
        fb[low] = hamiltonian(xs[low], np.sqrt(b[low])) - energy
        low = low[fb[low] < 0]
    for _ in range(ILLINOIS_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        swap = (fc > 0) != (fb > 0)  # the root lies between c and b
        a, fa = np.where(swap, b, a), np.where(swap, fb, 0.5 * fa)
        b, fb = c, fc
        if np.all((fc == 0) | (np.abs(b - a) <= ROOT_RTOL * np.abs(c))):
            width = np.zeros(x.size)
            width[inside] = 2.0 * np.sqrt(b)
            return width
    raise DegenerateInputError("momentum root finder did not converge")


def action_quadrature_1d(hamiltonian: Callable, energy: float) -> float:
    """Action I = (1/2 pi) * (area enclosed by the level curve H(x, p) = E).

    Assumes a kinetic-plus-potential profile: H is even-increasing in |p| at
    fixed x, with V(x) = H(x, 0).  H is called elementwise on numpy arrays x
    and p of one shape (and on floats for V).  The turning points are found by
    bisection from x = 0, else from the first of x = -2^k, 2^k (k = -6, ..., 20)
    where V <= E, and the momentum branch p+(x) = -p-(x) >= 0 by false position
    in q = p+^2, where a kinetic energy p^2 / 2m makes H linear (see _widths);
    the width 2 p+ is integrated by Gauss-Legendre rules after a sine substitution
    that absorbs the square-root endpoints.  The order doubles from 16 until
    two successive rules agree to GL_RTOL, their difference standing in for
    the error of the finer one, which is returned; a potential that is not
    smooth inside the well may not get there by order 1024 and raises
    DegenerateInputError.
    """
    V = lambda x: hamiltonian(x, 0.0)
    x_lo, x_hi = _bracket_turning_points(V, energy)
    if not x_hi > x_lo:
        raise NonCompactOrbitError("degenerate level set (turning points coincide)")
    mid = 0.5 * (x_lo + x_hi)
    half = 0.5 * (x_hi - x_lo)

    def area(order):
        sines, weights = _sine_rule(order)
        return half * float(weights @ _widths(hamiltonian, mid + half * sines, energy))

    order, coarse = GL_FIRST, area(GL_FIRST)
    while order < GL_LAST:
        order *= 2
        fine = area(order)
        gap = abs(fine - coarse)
        if gap <= GL_RTOL * abs(fine):
            return fine / (2.0 * math.pi)
        coarse = fine
    raise DegenerateInputError(f"Gauss-Legendre areas at orders {order // 2} and {order} "
                               f"differ by {gap:.3e}")
