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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .symcore import DegenerateInputError, ValidationError, positive, write_csv

# Central differences step by h = FD_STEP max(|I_j|, 1), with round-off about eps |K| / h:
# over 150 000 declared gradients g (frequencies 1e-12..1e6, power sums, n <= 4),
# |g - difference| - 1e-5 |g| stayed below 0.74 eps |K| / h.
FD_STEP, FD_ROUNDOFF = 1e-6, 4.0
# check_monotone draws this many actions from this seed, uniformly in this box
MONOTONE_SAMPLES, MONOTONE_SEED, MONOTONE_BOX = 1000, 0, (1e-3, 10.0)


class InvalidMaslovError(ValueError):
    """A basic-cycle Maslov index is <= 0 (torus radii would collapse)."""


class TheoremHypothesisError(ValueError):
    """A result was requested outside its hypotheses (non-monotone K)."""


class NonCompactOrbitError(ValueError):
    """The 1D energy level curve is empty or unbounded."""


@dataclass(frozen=True)
class ActionHamiltonian:
    """An energy function K of the action variables (I_1, ..., I_n).

    ``gradient`` may be omitted; central finite differences are used then.
    ``monotone`` claims all dK/dI_j > 0 on the positive orthant and can be
    spot-checked with :meth:`check_monotone`.
    """

    K: Callable
    n: int
    gradient: Optional[Callable] = None
    monotone: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"need n >= 1, got {self.n}")

    def energy(self, actions) -> float:
        actions = np.asarray(actions, dtype=float)
        if actions.shape != (self.n,):
            raise ValidationError(f"expected {self.n} actions, got shape {actions.shape}")
        return float(self.K(actions))

    def grad(self, actions) -> np.ndarray:
        actions = np.asarray(actions, dtype=float)
        if self.gradient is not None:
            return np.asarray(self.gradient(actions), dtype=float)
        return self._differences(actions[None])[0]

    def _differences(self, I) -> np.ndarray:
        """Central differences of K at every row of I, one K call per perturbed point."""
        m, n = I.shape
        h = FD_STEP * np.maximum(np.abs(I), 1.0)
        j = np.arange(n)
        pts = np.broadcast_to(I[:, None, None, :], (m, n, 2, n)).copy()
        pts[:, j, 0, j] += h  # pts[k, j] = (I_k + h_kj e_j, I_k - h_kj e_j)
        pts[:, j, 1, j] -= h
        K = np.array([float(self.K(p)) for p in pts.reshape(-1, n)]).reshape(m, n, 2)
        return (K[..., 0] - K[..., 1]) / (2.0 * h)

    def check_monotone(self) -> bool:
        """Spot-check dK/dI > 0 (and gradient vs finite differences) on the orthant.

        MONOTONE_SAMPLES actions are drawn uniformly in MONOTONE_BOX, and a
        sample fails if any component of its gradient is not both > 0 and
        finite.  A declared gradient that disagrees with the central differences
        beyond their round-off raises ValidationError if that happens at a sample
        before the first failing one.  K is evaluated at the 2n difference points
        of every sample before the verdict, also when an earlier sample fails.
        """
        I = np.random.default_rng(MONOTONE_SEED).uniform(*MONOTONE_BOX,
                                                         size=(MONOTONE_SAMPLES, self.n))
        fd = self._differences(I)
        if self.gradient is None:
            g = fd
        else:
            g = np.empty_like(I)
            for k, row in enumerate(I):
                g[k] = self.grad(row)
        failed = np.flatnonzero(~np.all(np.isfinite(g) & (g > 0), axis=1))
        first = failed[0] if failed.size else MONOTONE_SAMPLES
        if self.gradient is not None:
            excess = np.abs(g[:first] - fd[:first]) - 1e-5 * np.abs(g[:first])
            for k in np.flatnonzero(np.any(excess > 0, axis=1)):
                # the round-off bound costs a call of K, so only suspect samples pay it
                if np.any(excess[k] * FD_STEP * np.maximum(np.abs(I[k]), 1.0)
                          > FD_ROUNDOFF * np.finfo(float).eps * abs(self.K(I[k]))):
                    raise ValidationError("declared gradient disagrees with finite differences")
        return not failed.size


def oscillator_hamiltonian(omegas) -> ActionHamiltonian:
    """K(I) = sum_j omega_j I_j with all 0 < omega_j < inf."""
    omegas = positive("oscillator frequencies", omegas)
    return ActionHamiltonian(K=lambda I: float(np.dot(omegas, I)), n=len(omegas),
                             gradient=lambda I: omegas.copy(), monotone=True)


def quantized_actions(maslov, n_max: int, hbar: float = 1.0):
    """All (N, I) pairs with 0 <= N_j <= N_max and I_j = (N_j + m_j/4) hbar."""
    maslov = tuple(int(m) for m in maslov)
    if any(m < 1 for m in maslov):
        raise InvalidMaslovError(f"basic-cycle Maslov indices must be >= 1, got {maslov}")
    if n_max < 0:
        raise ValidationError(f"need N_max >= 0, got {n_max}")
    positive("hbar", hbar)
    n = len(maslov)
    out = []
    for N in itertools.product(range(n_max + 1), repeat=n):
        I = np.array([(N[j] + maslov[j] / 4.0) * hbar for j in range(n)])
        out.append((N, I))
    return out


def torus_radii_from_actions(actions) -> np.ndarray:
    """R_j = sqrt(2 I_j) for the invariant torus carrying the actions."""
    I = np.atleast_1d(positive("actions", actions))
    if np.any(I > np.finfo(float).max / 2.0):
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
    """Semiclassical spectrum E_N = K((N + m/4) hbar) over the full N grid."""
    maslov = tuple(int(m) for m in maslov)
    if len(maslov) != K.n:
        raise ValidationError("Maslov tuple length does not match K")
    entries = []
    for N, I in quantized_actions(maslov, n_max, hbar):
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
                energy = K.energy(I)
        except Exception as exc:
            raise ValidationError(f"K failed at actions {I.tolist()}: {exc}") from exc
        area = 2.0 * math.pi * max(I.tolist())  # the largest plane area pi R_j^2 = 2 pi I_j
        if not (math.isfinite(energy) and math.isfinite(area)):
            raise ValidationError(f"EBK level at actions {I.tolist()} with hbar = {hbar!r} "
                                  f"overflows: energy {energy!r}, plane area {area!r}")
        entries.append(EBKLevel(N=N, maslov=maslov, actions=I,
                                radii=torus_radii_from_actions(I), energy=energy))
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
    """Check c(solid torus of the entry) = pi min_j R_j^2 >= h/2 = pi hbar.

    The capacity is regions.capacity(SolidTorus(radii)), which refuses a capacity
    that under- or overflows.  For even Maslov indices m_j >= 2 the condition
    holds automatically, since R_j^2 = (2 N_j + m_j/2) hbar >= hbar.
    """
    from . import regions  # here: it loads williamson, which `symcap ebk` JSON output never needs

    half_h = math.pi * positive("hbar", hbar)
    c = regions.capacity(regions.SolidTorus(entry.radii)).value
    return CapacityCheck(capacity=c, satisfied=c >= half_h - 1e-12)


@dataclass(frozen=True)
class EnergyBoundReport:
    ground: float
    margins: tuple
    ok: bool


def verify_energy_bound(K: ActionHamiltonian, spectrum: EBKSpectrum) -> EnergyBoundReport:
    """Assert every level satisfies E_N >= K(hbar/2, ..., hbar/2).

    Requires the monotonicity hypothesis (all frequencies dK/dI_j > 0),
    which is spot-checked before use.
    """
    if not K.monotone:
        raise TheoremHypothesisError("energy bound requires a monotone action Hamiltonian")
    if not K.check_monotone():
        raise TheoremHypothesisError("monotone flag failed its spot check")
    e0 = ground_bound(K, spectrum.hbar)
    margins = tuple(e.energy - e0 for e in spectrum.entries)
    return EnergyBoundReport(ground=e0, margins=margins,
                             ok=all(m >= -1e-12 for m in margins))


# --- 1D action quadrature ----------------------------------------------------

# Gauss-Legendre orders: the first rule, doubled until two rules agree to GL_RTOL
# (relative), and the last allowed
GL_FIRST, GL_LAST, GL_RTOL = 16, 1024, 1e-10
MOMENTUM_CAP = 1e12  # a momentum bracket that passes it means an unbounded level set
POSITION_CAP = 1e6  # a turning-point walk that passes it means an unbounded level set
ILLINOIS_STEPS = 100
ROOT_RTOL = 4 * np.finfo(float).eps  # a momentum bracket this narrow relative to p has converged


@functools.cache
def _sine_rule(order: int):
    """(sin theta_k, w_k cos theta_k) of the Gauss-Legendre rule on theta in [-pi/2, pi/2]."""
    t, w = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * math.pi * t
    return np.sin(theta), 0.5 * math.pi * w * np.cos(theta)


def _bisect(V, energy, inside, outside):
    """The turning point between V(inside) <= E < V(outside), to the last float inside."""
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return inside
        if V(mid) > energy:
            outside = mid
        else:
            inside = mid


def _bracket_turning_points(V, energy):
    x0 = 0.0
    if V(x0) > energy:
        # walk toward lower potential to find a classically allowed point
        for step in 2.0 ** np.arange(-6, 21):
            for cand in (x0 - step, x0 + step):
                if V(cand) <= energy:
                    x0 = cand
                    break
            else:
                continue
            break
        else:
            raise NonCompactOrbitError("energy level set appears empty")

    def expand(direction):
        step = 1e-3
        x = x0
        while True:
            nxt = x + direction * step
            if abs(nxt) > POSITION_CAP:
                raise NonCompactOrbitError("no turning point found: orbit not compact")
            if V(nxt) > energy:
                return _bisect(V, energy, x, nxt)
            x = nxt
            step *= 2.0

    return expand(-1.0), expand(+1.0)


def _widths(hamiltonian, x, energy):
    """p+(x) - p-(x) = 2 p+(x) with H(x, p+) = E at each node x, zero where H(x, 0) >= E.

    H is even in p, so only p+ is solved: each root is bracketed in [0, hi], hi
    doubling from 1, and all are refined together by the Illinois variant of false
    position (Dowell and Jarratt 1971) until every bracket is within 4 eps |p|.
    """
    v = hamiltonian(x, np.zeros_like(x)) - energy
    inside = np.flatnonzero(v < 0)
    xs = x[inside]
    f = lambda p: hamiltonian(xs, p) - energy
    a, fa = np.zeros(xs.size), v[inside]
    hi = 1.0
    b = np.full(xs.size, hi)
    fb = f(b)
    low = np.flatnonzero(fb < 0)
    while low.size:
        hi *= 2.0
        if hi > MOMENTUM_CAP:
            raise NonCompactOrbitError("level set unbounded in momentum")
        b[low] = hi
        fb[low] = hamiltonian(xs[low], b[low]) - energy
        low = low[fb[low] < 0]
    for _ in range(ILLINOIS_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        swap = (fc > 0) != (fb > 0)  # the root lies between c and b
        a, fa = np.where(swap, b, a), np.where(swap, fb, 0.5 * fa)
        b, fb = c, fc
        if np.all((fc == 0) | (np.abs(b - a) <= ROOT_RTOL * np.abs(c))):
            width = np.zeros(x.size)
            width[inside] = 2.0 * b
            return width
    raise DegenerateInputError("momentum root finder did not converge")


def action_quadrature_1d(hamiltonian: Callable, energy: float) -> float:
    """Action I = (1/2 pi) * (area enclosed by the level curve H(x, p) = E).

    Assumes a kinetic-plus-potential profile: H is even-increasing in |p| at
    fixed x, with V(x) = H(x, 0).  H is called elementwise on numpy arrays x
    and p of one shape (and on floats for V).  The turning points are found by
    bisection and the momentum branch p+(x) = -p-(x) >= 0 by false position;
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
