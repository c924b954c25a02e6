"""The three workloads: their inputs, operations and output checks.

An operation is one public call (``call``) plus the check of its output
(``check``); only the call is timed.  Every input is drawn from the run's
seed during set-up, and every round repeats the same operations, so each run
attempts whole rounds of one fixed list.  ``kind`` names the family an
operation belongs to; ``work`` is what it adds to that family's rate.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np

import oracles as o

# Inputs shared by the workloads, fixed so that a seed selects maps and
# parameters but never the amount of work.
NONSQUEEZE_NS = (2, 3, 5, 10)  # n = 1 is left out: see CHANGES.md
NONSQUEEZE_TRIALS = 400
MC_SAMPLES = 10**6
MC_MAPS = 2
MC_SPREAD = 0.3  # larger spreads meet the slice-box fault in CHANGES.md
TORUS_NS = range(1, 7)
TRANSPORT_SPREAD = 0.3  # larger spreads meet the Maslov fault in CHANGES.md
NORMAL_FORM_NS = range(1, 11)
# The geometry families are sized so that each takes about a fifth of a round
# (README.md gives the measured shares): a slowdown by a factor f of any one of
# them then moves round_s by about (f - 1) / 5.
NORMAL_FORM_SETS = 14  # independent inputs per n
HARMONIC_LEVELS, QUARTIC_LEVELS = 36, 24
INCLUSION_MARGIN = 0.1  # cylinder radii sit 10% off the largest shadow semi-axis


class Op(NamedTuple):
    kind: str
    work: int
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


def interleave(*groups):
    """Merge the groups in proportion to their lengths, so each stretch of a
    round mixes the families evenly."""
    keyed = [((k + 0.5) / len(g), i, k) for i, g in enumerate(groups) for k in range(len(g))]
    return [groups[i][k] for _, i, k in sorted(keyed)]


def _posdef(rng, n2, shift):
    A = rng.normal(size=(n2, n2))
    return A @ A.T / n2 + shift * np.eye(n2)


# --- squeeze ----------------------------------------------------------------

def squeeze_workload(seed):
    from symcap import squeeze, symcore

    rng = np.random.default_rng(seed)
    batches, mc = [], []
    for n in NONSQUEEZE_NS:
        s = int(rng.integers(2**31))
        batches.append(Op(
            "nonsqueeze_maps", NONSQUEEZE_TRIALS, f"nonsqueeze_verify(n={n})",
            lambda n=n, s=s: squeeze.nonsqueeze_verify(n, NONSQUEEZE_TRIALS, seed=s),
            lambda rep, n=n: o.check_nonsqueeze(rep, n)))
    for k in range(MC_MAPS):
        S = symcore.random_symplectic(2, int(rng.integers(2**31)), MC_SPREAD)
        j, s = 1 + k % 2, int(rng.integers(2**31))
        mc.append(Op(
            "mc_areas", 1, f"mc_projection_area(map {k})",
            lambda S=S, j=j, s=s: squeeze.mc_projection_area(S, 1.0, j, MC_SAMPLES, s),
            lambda a, S=S, j=j: o.check_mc_projection(S.entries, 1.0, j, a)))
        mc.append(Op(
            "mc_areas", 1, f"mc_intersection_area(map {k})",
            lambda S=S, j=j, s=s: squeeze.mc_intersection_area(S, 1.0, j, MC_SAMPLES, s),
            lambda a, S=S, j=j: o.check_mc_slice(S.entries, 1.0, j, a)))

    def warm_up():
        for n in NONSQUEEZE_NS:
            squeeze.nonsqueeze_verify(n, 2, seed=seed)
        S = symcore.random_symplectic(2, seed, MC_SPREAD)
        squeeze.mc_projection_area(S, 1.0, 1, 10**4, seed)
        squeeze.mc_intersection_area(S, 1.0, 1, 10**4, seed)

    return interleave(batches, mc), warm_up


# --- geometry ---------------------------------------------------------------

def _maslov_ops(rng):
    from symcap import maslov, symcore

    ops = []
    for n in TORUS_NS:
        radii = rng.uniform(0.5, 2.0, n).tolist()
        j = int(rng.integers(1, n + 1))
        s = int(rng.integers(2**31))
        base = maslov.torus_cycle_loop(radii, j)
        ops.append(Op("maslov_loops", 1, f"torus loop (n={n}, j={j})",
                      lambda r=radii, j=j: maslov.maslov_index(maslov.torus_cycle_loop(r, j)),
                      o.check_maslov))
        ops.append(Op("maslov_loops", 1, f"transported loop (n={n}, j={j})",
                      lambda b=base, n=n, s=s: maslov.maslov_index(maslov.transport_loop(
                          b, symcore.random_symplectic(n, s, TRANSPORT_SPREAD))),
                      o.check_maslov))
    return ops


def _normal_form_ops(rng):
    from symcap import symcore, williamson

    ops = []
    for n in list(NORMAL_FORM_NS) * NORMAL_FORM_SETS:
        R = _posdef(rng, 2 * n, 0.1)
        ops.append(Op("normal_forms", 1, f"williamson_decompose(n={n})",
                      lambda R=R: williamson.williamson_decompose(R),
                      lambda dec, R=R: o.check_williamson(R, dec)))
        ops.append(Op("normal_forms", 1, f"symplectic_spectrum(n={n})",
                      lambda R=R: williamson.symplectic_spectrum(R),
                      lambda spec, R=R: o.check_spectrum(R, spec.mu)))
        Rf = _posdef(rng, 2 * n, 0.5)
        H = symcore.QuadraticHamiltonian(Rf)
        t = float(rng.uniform(0.1, 2.0))
        z0 = rng.normal(size=2 * n)
        ops.append(Op("normal_forms", 1, f"quad_propagator(n={n})",
                      lambda H=H, t=t: symcore.quad_propagator(H, t),
                      lambda S, Rf=Rf, z0=z0: o.check_flow(Rf, S.entries, z0)))
    a, b = rng.uniform(0.25, 9.0, 2)
    ops.append(Op("normal_forms", 1, "symplectic_spectrum(diag(a, b))",
                  lambda: williamson.symplectic_spectrum(np.diag([a, b])),
                  lambda spec: o.check_diag_spectrum(a, b, spec.mu)))
    return ops


def _region_ops(rng):
    from symcap import regions, symcore

    ops = []

    def cap(label, region, expected):
        ops.append(Op("region_queries", 1, f"capacity({label})",
                      lambda: regions.capacity(region),
                      lambda c: o.check_value(c.value, expected, f"capacity({label})")))

    def incl(label, inner, outer, expected):
        ops.append(Op("region_queries", 1, f"inclusion_check({label})",
                      lambda: regions.inclusion_check(inner, outer),
                      lambda res: o.check_inclusion(res.holds, expected, label)))

    def cylinders(label, inner, n, j, semi_axis):
        # one cylinder a margin outside the shadow, one a margin inside it
        for sign, verdict in ((1.0, True), (-1.0, False)):
            r = semi_axis * (1.0 + sign * INCLUSION_MARGIN)
            incl(f"{label} in Z_{j}({r:.3g})", inner, regions.Cylinder(j, np.zeros(2 * n), r),
                 verdict)

    for n in (2, 3):
        zero = np.zeros(2 * n)
        R = float(rng.uniform(0.5, 2.0))
        ball = regions.Ball(zero, R)
        radii = tuple(rng.uniform(0.5, 2.0, n))
        torus = regions.SolidTorus(radii)
        H, level = _posdef(rng, 2 * n, 0.2), float(rng.uniform(0.5, 2.0))
        ell = regions.Ellipsoid(zero, H, level)
        S = symcore.random_symplectic(n, int(rng.integers(2**31)), 0.5)
        lam = float(rng.uniform(0.3, 3.0))
        c_ell = 2.0 * math.pi * level / o.symplectic_eigenvalues(H)[-1]
        Sinv = -o.form_matrix(n) @ S.entries.T @ o.form_matrix(n)

        cap(f"Ball n={n}", ball, math.pi * R**2)
        cap(f"SolidTorus n={n}", torus, math.pi * min(radii) ** 2)
        cap(f"Ellipsoid n={n}", ell, c_ell)
        cap(f"S(Ellipsoid) n={n}", regions.map_region(ell, S), c_ell)
        cap(f"S-transformed Ellipsoid n={n}",
            regions.Ellipsoid(zero, Sinv.T @ H @ Sinv, level), c_ell)
        cap(f"lambda Ellipsoid n={n}", regions.scale_region(ell, lam), lam**2 * c_ell)
        cap(f"lambda S(Ball) n={n}", regions.scale_region(regions.map_region(ball, S), lam),
            lam**2 * math.pi * R**2)

        j = int(rng.integers(1, n + 1))
        ell_map = math.sqrt(2.0 * level) * o.inverse_sqrt(H)  # ell = ell_map(B(1))
        cylinders(f"Ball n={n}", ball, n, j, R)
        cylinders(f"SolidTorus n={n}", torus, n, j, radii[j - 1])
        cylinders(f"Ellipsoid n={n}", ell, n, j, o.shadow_radius(ell_map, j))
        cylinders(f"S(Ball) n={n}", regions.map_region(ball, S), n, j,
                  o.shadow_radius(R * S.entries, j))
        cylinders(f"S(Ellipsoid) n={n}", regions.map_region(ell, S), n, j,
                  o.shadow_radius(S.entries @ ell_map, j))
        semi = [o.shadow_radius(ell_map, k) for k in range(1, n + 1)]
        incl(f"Ellipsoid n={n} in wider torus", ell,
             regions.SolidTorus(tuple(a * (1.0 + INCLUSION_MARGIN) for a in semi)), True)
        narrow = [a * (1.0 + INCLUSION_MARGIN) for a in semi]
        narrow[j - 1] = semi[j - 1] * (1.0 - INCLUSION_MARGIN)
        incl(f"Ellipsoid n={n} in narrower torus", ell, regions.SolidTorus(tuple(narrow)), False)
        smallest = math.sqrt(2.0 * level / np.linalg.eigvalsh(H)[-1])  # shortest semi-axis
        for sign, verdict in ((-1.0, True), (1.0, False)):
            r = smallest * (1.0 + sign * INCLUSION_MARGIN)
            incl(f"B({r:.3g}) in Ellipsoid n={n}", regions.Ball(zero, r), ell, verdict)
    return ops


def _ebk_ops(rng):
    from symcap import ebk

    ops = []

    def grid(label, K, Kfn, maslov, n_max, hbar, omegas=None):
        def call():
            spec = ebk.energy_levels(K, maslov, n_max, hbar)
            conds = [ebk.capacity_condition(e, hbar) for e in spec.entries]
            return spec, conds, ebk.verify_energy_bound(K, spec)

        def check(out):
            spec, conds, bound = out
            if omegas is not None:
                o.check_oscillator_spectrum(spec, omegas, n_max, hbar)
            o.check_levels_bounded(spec, Kfn, hbar, bound)
            for e, c in zip(spec.entries, conds):
                o.check_capacity_condition(e, c, hbar)

        ops.append(Op("ebk_levels", (n_max + 1) ** len(maslov), label, call, check))

    for n, n_max in ((2, 9), (3, 5)):
        omegas = rng.uniform(0.5, 3.0, n)
        hbar = float(rng.uniform(0.5, 2.0))
        grid(f"oscillator grid n={n}", ebk.oscillator_hamiltonian(omegas),
             lambda I, w=omegas: float(np.dot(w, I)), (2,) * n, n_max, hbar, omegas)
    hbar = float(rng.uniform(0.5, 2.0))

    def quartic_k(I):
        return float(np.sum(I**2) + np.prod(I))

    grid("sum I^2 + prod I grid n=3", ebk.ActionHamiltonian(K=quartic_k, n=3, monotone=True),
         quartic_k, (2, 4, 2), 5, hbar)
    return ops


def _action_ops(rng):
    from symcap import ebk

    ops = []
    for _ in range(HARMONIC_LEVELS):
        w, E = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
        ops.append(Op("action_integrals", 1, f"harmonic action (omega={w:.3g}, E={E:.3g})",
                      lambda w=w, E=E: ebk.action_quadrature_1d(
                          lambda x, p: 0.5 * p**2 + 0.5 * w**2 * x**2, E),
                      lambda I, w=w, E=E: o.check_value(I, E / w, "harmonic action",
                                                        o.HARMONIC_RTOL)))
    for _ in range(QUARTIC_LEVELS):
        lam, E = rng.uniform(0.01, 0.1), rng.uniform(0.5, 2.0)
        ops.append(Op("action_integrals", 1, f"quartic action (lambda={lam:.3g}, E={E:.3g})",
                      lambda lam=lam, E=E: ebk.action_quadrature_1d(
                          lambda x, p: 0.5 * p**2 + 0.5 * x**2 + lam * x**4, E),
                      lambda I, lam=lam, E=E: o.check_value(I, o.quartic_action(lam, E),
                                                            "quartic action", o.QUAD_RTOL)))
    return ops


def geometry_workload(seed):
    rng = np.random.default_rng(seed)
    ops = interleave(_maslov_ops(rng), _normal_form_ops(rng), _region_ops(rng),
                     _ebk_ops(rng), _action_ops(rng))

    def warm_up():
        kinds = set()
        for op in ops:
            if op.kind not in kinds:
                kinds.add(op.kind)
                op.call()

    return ops, warm_up


# --- cli_oneshot ------------------------------------------------------------

def cli_argvs(seed):
    """(kind, name, argv, check) for each one-shot call; light calls first."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 3.0, 2).tolist()
    radii = rng.uniform(0.5, 2.0, 2).tolist()
    j = int(rng.integers(1, 3))
    a, b = rng.uniform(0.5, 3.0, 2).tolist()
    c = float(rng.uniform(-0.3, 0.3))
    R = [[a, c], [c, b]]
    t = float(rng.uniform(0.1, 2.0))
    z0 = rng.normal(size=2).tolist()
    s = int(rng.integers(2**31))

    def capacity(out):
        o.check_value(out["value"], math.pi, "capacity of the unit ball", 1e-15)

    def spectrum(out):
        o.check_diag_spectrum(4.0, 1.0, out["mu"])

    def levels(out):
        o.expect(len(out["levels"]) == 9, f"{len(out['levels'])} EBK levels, expected 9")
        for lev in out["levels"]:
            o.check_value(lev["energy"], o.oscillator_energy(w, lev["N"], 1.0),
                          f"level N={lev['N']}", 1e-12)

    def index(out):
        o.expect(out["index"] == 2, f"Maslov index {out['index']}, expected 2")

    def flow(out):
        o.check_flow(R, out["propagator"]["rows"], z0)
        zt = np.asarray(out["z_t"])
        o.check_value(0.5 * zt @ np.asarray(R) @ zt, 0.5 * np.dot(z0, np.asarray(R) @ z0),
                      "energy of z_t")

    def squeeze(out):
        o.expect(not out["violations"], f"{len(out['violations'])} squeeze violations")
        o.expect(out["min_ratio"] >= 1.0 - o.RTOL, f"min ratio {out['min_ratio']!r}")

    return [
        ("cli_latency", "capacity", ["capacity", "--region", '{"variant": "Ball", "R": 1}'],
         capacity),
        ("cli_latency", "spectrum", ["spectrum", "--hessian", "[[4.0, 0.0], [0.0, 1.0]]"],
         spectrum),
        ("cli_latency", "ebk", ["ebk", "--K", f"oscillator:{w[0]!r},{w[1]!r}", "--maslov", "2,2",
                              "--Nmax", "2"], levels),
        ("cli_latency", "maslov", ["maslov", "--torus", f"{radii[0]!r},{radii[1]!r}",
                                 "--cycle", str(j)], index),
        ("cli_latency", "flow", ["flow", "--hessian", json.dumps(R), "--t", repr(t),
                               "--z0=" + ",".join(repr(v) for v in z0)], flow),
        ("cli_squeeze", "squeeze", ["--seed", str(s), "squeeze", "--n", "3", "--trials", "1000"],
         squeeze),
    ]


def cli_call(argv):
    """Run ``python -m symcap.cli`` once in a fresh interpreter; returns its stdout."""
    proc = subprocess.run([sys.executable, "-m", "symcap.cli", *argv],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def cli_workload(seed):
    ops = [Op(kind, 1, "symcap " + name, lambda argv=argv: cli_call(argv),
              lambda text, check=check: check(json.loads(text)))
           for kind, name, argv, check in cli_argvs(seed)]

    def warm_up():
        ops[0].call()

    return ops, warm_up


WORKLOADS = {
    "squeeze": squeeze_workload,
    "geometry": geometry_workload,
    "cli_oneshot": cli_workload,
}
