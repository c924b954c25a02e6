"""Command-line entry point.

Subcommands: spectrum, capacity, squeeze, maslov, ebk, flow, selftest.
Global flags --hbar/--tol/--seed/--format/--out; environment variables
SYMCAP_HBAR, SYMCAP_TOL, SYMCAP_SEED, SYMCAP_FORMAT supply defaults, with
flags taking precedence.  Exit codes: 0 success, 1 verification failure,
2 input error (a malformed flag, environment value or JSON value, or a file
that cannot be read or written).

Only symcore is imported up front, for the flags; each subcommand imports
the module it runs, so a one-shot call loads no other (capacity loads
regions and williamson, spectrum and flow williamson, selftest every module).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import symcore

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _parse(name: str, raw: str, cast=float):
    """cast(raw); a malformed value is an input error naming its flag or variable."""
    try:
        return cast(raw)
    except ValueError as exc:
        raise ValueError(f"bad {name}={raw!r}: {exc}") from exc


def _config(args):
    """Fill args.hbar/tol/seed/format from the flag, else SYMCAP_*, else the default."""
    for name, cast, default in (("hbar", float, 1.0), ("tol", float, symcore.DEFAULT_TOL),
                                ("seed", int, 0), ("format", str, "json")):
        var = "SYMCAP_" + name.upper()
        if getattr(args, name) is None:
            raw = os.environ.get(var)
            setattr(args, name, default if raw is None else _parse(var, raw, cast))
    symcore.positive("hbar", args.hbar)
    symcore.positive("tol", args.tol)
    if args.format not in ("json", "csv"):
        raise ValueError(f"unknown format {args.format!r}")


def _emit(text: str, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _hessian(raw: str) -> np.ndarray:
    """--hessian: a JSON file or argument holding the rows, bare or as {"rows": ...}."""
    if os.path.exists(raw):
        with open(raw) as fh:
            raw = fh.read()
    obj = json.loads(raw)
    return np.asarray(obj["rows"] if isinstance(obj, dict) else obj, dtype=float)


def _cmd_spectrum(args):
    from . import williamson

    spec = williamson.symplectic_spectrum(_hessian(args.hessian))
    if args.format == "csv":
        _emit(spec.to_csv(), args)
    else:
        _emit(json.dumps({"mu": spec.mu.tolist(), "radii": spec.radii.tolist(),
                          "omega": spec.omega.tolist()}, sort_keys=True), args)
    return EXIT_OK


def _cmd_capacity(args):
    from . import regions

    region = regions.region_from_json(args.region)
    _emit(regions.capacity(region).to_json(), args)
    return EXIT_OK


def _cmd_squeeze(args):
    from . import squeeze

    report = squeeze.nonsqueeze_verify(args.n, trials=args.trials, seed=args.seed,
                                       tol=args.tol)
    _emit(report.to_json(), args)
    return EXIT_OK if not report.violations else EXIT_VERIFICATION


def _cmd_maslov(args):
    from . import maslov

    if args.loop:
        with open(args.loop) as fh:
            loop = maslov.LagrangianLoop.from_json(fh.read())
    elif args.torus:
        radii = [_parse("--torus", r) for r in args.torus.split(",")]
        loop = maslov.torus_cycle_loop(radii, args.cycle, samples=args.loop_samples)
    else:
        raise ValueError("provide --loop FILE or --torus R1,R2,...")
    res = maslov.maslov_index(loop)
    _emit(json.dumps(asdict(res), sort_keys=True), args)
    return EXIT_OK


def _parse_action_hamiltonian(spec: str, n: int):
    from . import ebk

    kind, _, payload = spec.partition(":")
    if kind == "oscillator":
        omegas = [_parse("--K", w) for w in payload.split(",")]
        return ebk.oscillator_hamiltonian(omegas)
    if kind == "power":
        a = _parse("--K", payload)
        if not math.isfinite(a):
            raise ValueError(f"power exponent must be finite, got {a}")
        return ebk.ActionHamiltonian(K=lambda I: float(np.sum(I**a)), n=n,
                                     monotone=a > 0)
    if kind == "table":
        # JSON file mapping action grids to energies via linear interpolation (1D)
        with open(payload) as fh:
            table = json.load(fh)
        grid = np.asarray(table["I"], dtype=float)
        vals = np.asarray(table["K"], dtype=float)
        if grid.ndim != 1 or grid.shape != vals.shape or not np.all(np.diff(grid) > 0):
            raise ValueError(f"table {payload}: I must be a strictly increasing list of actions "
                             f"as long as K, got {grid.size} actions for {vals.size} energies")
        return ebk.ActionHamiltonian(
            K=lambda I: float(np.interp(I[0], grid, vals)), n=1,
            monotone=bool(np.all(np.diff(vals) > 0)))
    raise ValueError(f"unknown K spec {spec!r}")


def _cmd_ebk(args):
    from . import ebk

    maslov_tuple = tuple(_parse("--maslov", m, int) for m in args.maslov.split(","))
    K = _parse_action_hamiltonian(args.K, len(maslov_tuple))
    spec = ebk.energy_levels(K, maslov_tuple, args.Nmax, hbar=args.hbar)
    if args.format == "csv":
        _emit(spec.to_csv(), args)
    else:
        _emit(spec.to_json(), args)
    return EXIT_OK


def _cmd_flow(args):
    H = symcore.QuadraticHamiltonian(_hessian(args.hessian))
    S = symcore.quad_propagator(H, args.t, tol=args.tol)
    out = {"propagator": S.to_dict(), "t": args.t}
    if args.z0:
        z0 = np.asarray([_parse("--z0", v) for v in args.z0.split(",")])
        zt = S.transform(z0)
        out.update(z0=z0.tolist(), z_t=zt.tolist(), energy_drift=H.drift(z0, zt))
    _emit(json.dumps(out, sort_keys=True), args)
    return EXIT_OK


def _cmd_selftest(args):
    from . import acceptance

    results = acceptance.run_all(acceptance.AcceptanceConfig(
        hbar=args.hbar, tol=args.tol, seed=args.seed))
    lines = []
    failures = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        failures += not res.ok
        lines.append(f"{status} {res.name}: {res.detail}")
    _emit("\n".join(lines), args)
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symcap")
    parser.add_argument("--hbar", type=float, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=["json", "csv"], default=None)
    parser.add_argument("--out", default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="symplectic spectrum of a positive-definite matrix")
    p.add_argument("--hessian", required=True, help="JSON rows or a file path")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("capacity", help="capacity of a phase-space region")
    p.add_argument("--region", required=True, help="region JSON")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("squeeze", help="batch non-squeezing verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_squeeze)

    p = sub.add_parser("maslov", help="Maslov index of a Lagrangian-frame loop")
    p.add_argument("--loop", default=None, help="loop JSON file")
    p.add_argument("--torus", default=None, help="torus radii R1,R2,...")
    p.add_argument("--cycle", type=int, default=1, help="basic-cycle index j")
    p.add_argument("--loop-samples", type=int, default=64)
    p.set_defaults(func=_cmd_maslov)

    p = sub.add_parser("ebk", help="EBK semiclassical energy levels")
    p.add_argument("--K", required=True,
                   help='"oscillator:w1,w2", "power:a", or "table:file.json"')
    p.add_argument("--maslov", required=True, help="Maslov indices m1,m2,...")
    p.add_argument("--Nmax", type=int, required=True)
    p.set_defaults(func=_cmd_ebk)

    p = sub.add_parser("flow", help="exact propagator of a quadratic Hamiltonian")
    p.add_argument("--hessian", required=True, help="JSON rows or a file path")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--z0", default=None, help="initial point x1,..,xn,p1,..,pn")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.set_defaults(func=_cmd_selftest)
    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _config(args)
        return args.func(args)
    # symcap/JSON/LinAlg errors are ValueErrors; mistyped JSON: Type/LookupError; files: OSError
    except (ValueError, TypeError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
