"""Acceptance checks: exact-value and property verification of every result.

Each check returns a CheckResult; the CLI ``selftest`` subcommand and the
test suite both run them.  Sample counts and tolerances are fixed here, not
calibrated at run time; only the verification tolerance ``tol`` and hbar are
configurable (so a deliberately absurd tolerance reports failures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ebk, maslov, regions, squeeze, symcore, williamson


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class AcceptanceConfig:
    hbar: float = 1.0
    tol: float = 1e-9
    seed: int = 0


def check_oscillator_levels(cfg: AcceptanceConfig) -> CheckResult:
    """EBK oscillator levels reproduce sum_j (N_j + 1/2) hbar omega_j exactly."""
    hbar = cfg.hbar
    worst = 0.0
    for n in range(1, 5):
        omegas = np.array([1.0, math.sqrt(2.0), math.pi / 2.0, 2.5][:n])
        K = ebk.oscillator_hamiltonian(omegas)
        spec = ebk.energy_levels(K, maslov=(2,) * n, n_max=5, hbar=hbar)
        for e in spec.entries:
            expected = float(np.dot(omegas, (np.asarray(e.N) + 0.5) * hbar))
            worst = max(worst, abs(e.energy - expected) / max(abs(expected), 1e-300))
        ground = min(e.energy for e in spec.entries)
        e0 = float(np.dot(omegas, np.full(n, 0.5 * hbar)))
        worst = max(worst, abs(ground - e0) / abs(e0))
        worst = max(worst, abs(ebk.ground_bound(K, hbar) - e0) / abs(e0))
    ok = worst <= 1e-14
    return CheckResult("oscillator_levels", ok, f"max relative deviation {worst:.3e}")


def check_intro_ellipse(cfg: AcceptanceConfig) -> CheckResult:
    """Minimal oscillator torus: radius sqrt(hbar), enclosed area h/2."""
    hbar = cfg.hbar
    K = ebk.oscillator_hamiltonian([1.0])
    spec = ebk.energy_levels(K, maslov=(2,), n_max=0, hbar=hbar)
    radius = spec.entries[0].radii[0]
    area = math.pi * radius**2
    err = max(abs(radius - math.sqrt(hbar)), abs(area - math.pi * hbar))
    ok = err <= 1e-12
    return CheckResult("intro_ellipse", ok,
                       f"radius {float(radius):.12g}, area {float(area):.12g}, "
                       f"max error {err:.3e}")


def check_capacity_normalization(cfg: AcceptanceConfig) -> CheckResult:
    hbar = cfg.hbar
    worst = 0.0
    for R in (1.0, 0.5, 3.0):
        ball = regions.capacity(regions.Ball(np.zeros(4), R)).value
        cyl = regions.capacity(regions.Cylinder(1, np.zeros(4), R)).value
        worst = max(worst, abs(ball - math.pi * R**2), abs(cyl - ball))
    for n in range(1, 7):
        torus = regions.capacity(regions.SolidTorus((math.sqrt(hbar),) * n)).value
        worst = max(worst, abs(torus - math.pi * hbar))
    ok = worst <= 1e-12
    return CheckResult("capacity_normalization", ok, f"max deviation {worst:.3e}")


def _random_posdef(n2, rng):
    A = rng.normal(size=(n2, n2))
    return A @ A.T + 0.1 * np.eye(n2)


def check_capacity_axioms(cfg: AcceptanceConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed)
    worst_conf = 0.0
    # conformality, exact lambda^2
    shapes = [regions.Ball(np.zeros(4), 1.3),
              regions.Cylinder(2, np.zeros(4), 0.8),
              regions.SolidTorus((1.0, 2.5)),
              regions.Ellipsoid(np.zeros(4), _random_posdef(4, rng), 1.0)]
    for lam in (0.5, 2.0, 7.0):
        for shape in shapes:
            c0 = regions.capacity(shape).value
            c1 = regions.capacity(regions.scale_region(shape, lam)).value
            worst_conf = max(worst_conf, abs(c1 - lam**2 * c0) / (lam**2 * c0))
    if worst_conf > 1e-12:
        return CheckResult("capacity_axioms", False, f"conformality off by {worst_conf:.3e}")
    # monotonicity on 500 ellipsoid pairs, M_inner >= M_outer, nested by inclusion_check
    mono_fail = 0
    for _ in range(500):
        n2 = 2 * int(rng.integers(1, 4))
        M_outer = _random_posdef(n2, rng)
        M_inner = M_outer + _random_posdef(n2, rng)
        inner, outer = (regions.Ellipsoid(np.zeros(n2), M, 1.0) for M in (M_inner, M_outer))
        ci, co = regions.capacity(inner).value, regions.capacity(outer).value
        if ci > co + 1e-12 or not regions.inclusion_check(inner, outer):
            mono_fail += 1
    if mono_fail:
        return CheckResult("capacity_axioms", False, f"{mono_fail} monotonicity failures")
    # symplectic invariance: 100 random maps per shape; for ellipsoids the
    # image is recomputed geometrically from the transformed Hessian
    worst_inv = 0.0
    for shape in shapes:
        c0 = regions.capacity(shape).value
        for k in range(100):
            S = symcore.random_symplectic(2, cfg.seed + 17 * k + 1, 0.8)
            c1 = regions.capacity(regions.map_region(shape, S)).value
            worst_inv = max(worst_inv, abs(c1 - c0) / c0)
            if isinstance(shape, regions.Ellipsoid):
                Sinv = S.inverse().entries
                mapped = regions.Ellipsoid(np.zeros(4), Sinv.T @ shape.hessian @ Sinv,
                                           shape.level)
                c2 = regions.capacity(mapped).value
                worst_inv = max(worst_inv, abs(c2 - c0) / c0)
    ok = worst_inv <= cfg.tol
    return CheckResult("capacity_axioms", ok,
                       f"conformality {worst_conf:.1e}, invariance {worst_inv:.1e}")


def check_nonsqueezing(cfg: AcceptanceConfig) -> CheckResult:
    total_viol = 0
    min_ratio = math.inf
    for n in (1, 2, 3, 5):
        rep = squeeze.nonsqueeze_verify(n, trials=10**4, seed=cfg.seed + n,
                                        tol=cfg.tol)
        total_viol += len(rep.violations)
        min_ratio = min(min_ratio, rep.min_projection_ratio)
    ok = total_viol == 0
    return CheckResult("linear_nonsqueezing", ok,
                       f"{total_viol} violations, min projection ratio {min_ratio:.12f}")


def check_shadow_oracles(cfg: AcceptanceConfig) -> CheckResult:
    n = 2
    R = 1.0
    shear = np.block([[np.eye(2), np.zeros((2, 2))],
                      [np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)]])
    cases = [(symcore.SymplecticMatrix(shear), True)]
    cases += [(symcore.random_symplectic(n, cfg.seed + 100 + k, 0.6), False)
              for k in range(20)]
    worst = 0.0
    for k, (S, is_shear) in enumerate(cases):
        for j in (1,):
            proj = squeeze.projection_area(S, R, j)
            inter = squeeze.intersection_area(S, R, j)
            mc_p = squeeze.mc_projection_area(S, R, j, samples=10**6, seed=cfg.seed + k)
            mc_i = squeeze.mc_intersection_area(S, R, j, samples=10**6, seed=cfg.seed + k)
            worst = max(worst, abs(mc_p - proj) / proj, abs(mc_i - inter) / inter)
            if is_shear:
                sh_err = max(abs(proj - math.sqrt(2.0) * math.pi * R**2),
                             abs(inter - math.pi * R**2 / math.sqrt(2.0)))
                if sh_err > 1e-12:
                    return CheckResult("shadow_oracles", False,
                                       f"shear closed form off by {sh_err:.3e}")
    ok = worst <= 0.01
    return CheckResult("shadow_oracles", ok, f"max closed-form vs MC deviation {worst:.4f}")


def check_williamson(cfg: AcceptanceConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed + 7)
    worst_resid = 0.0
    worst_inv = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        R = _random_posdef(2 * n, rng)
        dec = williamson.williamson_decompose(R)
        worst_resid = max(worst_resid, dec.residual / np.max(np.abs(R)))
        S = symcore.random_symplectic(n, int(rng.integers(0, 2**31)), 0.5)
        mu2 = williamson.symplectic_spectrum(S.entries.T @ R @ S.entries).mu
        worst_inv = max(worst_inv, float(np.max(np.abs(mu2 - dec.spectrum.mu) / dec.spectrum.mu)))
    worst_diag = 0.0
    for a, b in ((4.0, 1.0), (2.0, 3.0), (0.25, 9.0)):
        mu = williamson.symplectic_spectrum(np.diag([a, b])).mu[0]
        worst_diag = max(worst_diag, abs(mu - math.sqrt(a * b)) / math.sqrt(a * b))
    ok = worst_resid <= 1e-8 and worst_inv <= 1e-8 and worst_diag <= 1e-10
    return CheckResult("williamson", ok,
                       f"residual {worst_resid:.1e}, congruence {worst_inv:.1e}, "
                       f"diag {worst_diag:.1e}")


def check_maslov(cfg: AcceptanceConfig) -> CheckResult:
    circle = maslov.torus_cycle_loop([1.0], 1, samples=64)
    if maslov.maslov_index(circle).index != 2:
        return CheckResult("maslov", False, "circle loop index != 2")
    for n in range(1, 5):
        radii = [1.0 + 0.5 * j for j in range(n)]
        for j in range(1, n + 1):
            res = maslov.maslov_index(maslov.torus_cycle_loop(radii, j, samples=64))
            if res.index != 2:
                return CheckResult("maslov", False, f"torus cycle (n={n}, j={j}) index {res.index}")
    loop = maslov.torus_cycle_loop([1.0, 2.0], 1, samples=96)
    for k in range(50):
        S = symcore.random_symplectic(2, cfg.seed + 300 + k, 0.7)
        if maslov.maslov_index(maslov.transport_loop(loop, S)).index != 2:
            return CheckResult("maslov", False, f"transport by seed {cfg.seed + 300 + k} changed index")
    coarse = maslov.maslov_index(maslov.torus_cycle_loop([1.0, 2.0], 1, samples=32))
    fine = maslov.maslov_index(maslov.torus_cycle_loop([1.0, 2.0], 1, samples=64))
    ok = coarse.index == fine.index == 2
    return CheckResult("maslov", ok, "all torus-cycle indices 2, transport- and sampling-stable")


def check_theorem_chain(cfg: AcceptanceConfig) -> CheckResult:
    hbar = cfg.hbar
    K = ebk.ActionHamiltonian(K=lambda I: float(np.sum(I**2) + np.prod(I)), n=3,
                              monotone=True)
    spec = ebk.energy_levels(K, maslov=(2, 4, 2), n_max=9, hbar=hbar)
    if len(spec.entries) != 1000:
        return CheckResult("theorem_chain", False, f"grid size {len(spec.entries)} != 1000")
    bound = ebk.verify_energy_bound(K, spec)
    violations = sum(not ebk.capacity_condition(e, hbar).satisfied for e in spec.entries)
    violations += sum(m < -ebk.ROUNDING_RTOL * abs(bound.ground) for m in bound.margins)
    ok = violations == 0 and bound.ok
    return CheckResult("theorem_chain", ok,
                       f"{violations} violations over {len(spec.entries)} entries, "
                       f"ground bound {bound.ground!r}, half-h {math.pi * hbar!r}")


def check_action_quadrature(cfg: AcceptanceConfig) -> CheckResult:
    worst_h = 0.0
    for omega in (0.5, 1.0, 3.0):
        H = lambda x, p, w=omega: 0.5 * p**2 + 0.5 * w**2 * x**2
        for E in (0.5, 2.0):
            I = ebk.action_quadrature_1d(H, E)
            worst_h = max(worst_h, abs(I - E / omega) / (E / omega))
    # quartic perturbation against a high-order Gauss-Legendre reference on
    # the explicit branch sqrt(2 (E - V))
    lam = 0.05
    V = lambda x: 0.5 * x**2 + lam * x**4
    E = 1.0
    H = lambda x, p: 0.5 * p**2 + V(x)
    I = ebk.action_quadrature_1d(H, E)
    x_hi = math.sqrt((-0.5 + math.sqrt(0.25 + 4.0 * lam * E)) / (2.0 * lam))
    nodes, weights = np.polynomial.legendre.leggauss(400)
    theta = 0.5 * math.pi * nodes  # x = x_hi sin(theta), symmetric well
    xs = x_hi * np.sin(theta)
    vals = np.sqrt(np.maximum(2.0 * (E - V(xs)), 0.0)) * x_hi * np.cos(theta)
    ref = (2.0 / (2.0 * math.pi)) * float(np.dot(weights, vals)) * 0.5 * math.pi
    worst_q = abs(I - ref) / ref
    ok = worst_h <= 1e-8 and worst_q <= 1e-6 and I < E
    return CheckResult("action_quadrature", ok,
                       f"harmonic {worst_h:.1e}, quartic vs reference {worst_q:.1e}")


def check_determinism(cfg: AcceptanceConfig) -> CheckResult:
    a = squeeze.nonsqueeze_verify(2, trials=50, seed=cfg.seed).to_json()
    b = squeeze.nonsqueeze_verify(2, trials=50, seed=cfg.seed).to_json()
    sa = symcore.random_symplectic(3, cfg.seed).to_json()
    sb = symcore.random_symplectic(3, cfg.seed).to_json()
    ok = a == b and sa == sb
    return CheckResult("determinism", ok, "identical JSON for identical seeds" if ok
                       else "reports differ between runs")


ALL_CHECKS = [
    check_oscillator_levels,
    check_intro_ellipse,
    check_capacity_normalization,
    check_capacity_axioms,
    check_nonsqueezing,
    check_shadow_oracles,
    check_williamson,
    check_maslov,
    check_theorem_chain,
    check_action_quadrature,
    check_determinism,
]


def run_all(cfg: AcceptanceConfig = AcceptanceConfig()):
    return [check(cfg) for check in ALL_CHECKS]
