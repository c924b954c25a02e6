"""One run of one workload in one process; started by run.py.

Set-up (imports, inputs, warm-up) ends with a line ``ready`` on stdout; the
launcher times the worker from its start to that line.  With ``--setup-only``
the worker stops there.  Otherwise it repeats whole rounds of the workload's
operations until ``--seconds`` have passed and prints one JSON line with the
counts, the metrics named in BENCHMARK.json, the per-family rates and each
family's share of the call time.

With ``--trace 1`` every round runs the in-process work twice, plain and
under the tracer, so the per-layer figures and the tracing overhead come from
the same run; the two passes take turns at going first, so that neither
carries the cost of coming first.

The speed of a shared machine drifts by a fifth over minutes, the same for
the program and for any other work.  So the worker also times a fixed
reference kernel, right after set-up and about every half second while it
measures, and scales the gated times by REF_S / (the kernel's median time in
this process): they read as seconds on a machine that runs the kernel in
REF_S.  The unscaled figures are kept in the report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from collections import defaultdict

import numpy as np

import oracles
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
PROBES = 3  # cold-start probes per traced run of the in-process workloads
REF_S = 0.04  # median time of reference_sample() on the 2-core machine of README.md
REF_EVERY_S = 0.5  # while measuring, a reference sample after the first call this late
SETUP_REFS = 5  # reference samples right after set-up


def reference_sample() -> float:
    """Time one pass of fixed work: small LAPACK calls, a sort, a Python loop."""
    rng = np.random.default_rng(0)
    A = rng.normal(size=(12, 12))
    x = rng.normal(size=10**6)
    start = time.perf_counter()
    acc = 0.0
    for k in range(200):
        q, r = np.linalg.qr(A + k * 1e-3)
        acc += float(np.linalg.det(q @ r))
    acc += float(np.sort(x)[0]) + sum(i * i % 7 for i in range(300000))
    return time.perf_counter() - start


class Tally:
    """Counts, per-family times and the first few problems of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.last = {}  # kind -> call times of the latest pass
        self.work = defaultdict(float)
        self.times = defaultdict(list)
        self.refs = []
        self._ref_at = time.perf_counter()

    def run(self, ops) -> float:
        """Run each op once; returns the summed time of the calls."""
        total = 0.0
        self.last = defaultdict(list)
        for op in ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a program fault: count it and go on
                total += time.perf_counter() - start
                self.failed += 1
                self.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            total += elapsed
            self.work[op.kind] += op.work
            self.times[op.kind].append(elapsed)
            self.last[op.kind].append(elapsed)
            try:
                op.check(out)
            except oracles.CheckError as exc:
                self.wrong += 1
                self.problems.append(f"{op.label}: {exc}")
            if time.perf_counter() - self._ref_at >= REF_EVERY_S:
                self.refs.append(reference_sample())
                self._ref_at = time.perf_counter()
        return total

    def rates(self) -> dict:
        out = {}
        for kind, times in self.times.items():
            if kind.startswith("cli_"):
                out[kind + "_s"] = statistics.median(times)
            else:
                out[kind + "_per_s"] = self.work[kind] / sum(times)
        return out

    def shares(self) -> dict:
        """Each family's share of the summed call time."""
        total = sum(sum(times) for times in self.times.values())
        return {kind: sum(times) / total for kind, times in self.times.items()}


def cold_start_probes() -> dict:
    """Bare interpreter start and a fresh ``import symcap.cli``, in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    interpreter = time.perf_counter() - start
    code = ("import time; t = time.perf_counter(); import symcap.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True).stdout
    return {"cli.interpreter_s": interpreter, "cli.import_s": float(out)}


def dispatch_ops(seed):
    """The cli_oneshot calls made in-process through ``cli.dispatch``."""
    from symcap import cli

    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.dispatch(argv)
        if code != 0:
            raise RuntimeError(f"dispatch exit {code}")
        return buf.getvalue()

    return [workloads.Op(kind, 1, "dispatch " + name, lambda argv=argv: call(argv),
                         lambda text, check=check: check(json.loads(text)))
            for kind, name, argv, check in workloads.cli_argvs(seed)]


def peak_rss_mb() -> float:
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0  # ru_maxrss is in KiB on Linux


def per_layer(names, passes, probes, plain_s, traced_s) -> dict:
    """Median over the traced passes of each per-layer figure (max for *.max)."""
    out = {}
    for name in names:
        if name in probes:
            out[name] = statistics.median(probes[name]) if probes[name] else 0.0
        elif name.endswith(".max"):
            out[name] = max(p.get(name, 0.0) for p in passes)
        else:
            out[name] = statistics.median(p.get(name, 0.0) for p in passes)
    plain, traced = statistics.median(plain_s), statistics.median(traced_s)
    out["trace.overhead_s"] = traced - plain
    out["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ops, warm_up = workloads.WORKLOADS[args.workload](args.seed)
    in_process = args.workload != "cli_oneshot"
    traced_ops = ops if in_process else None
    if args.trace and not in_process:
        traced_ops = dispatch_ops(args.seed)
        traced_ops[0].call()
    warm_up()
    print("ready", flush=True)
    setup_ref = statistics.median(reference_sample() for _ in range(SETUP_REFS))
    print(json.dumps({"scale": REF_S / setup_ref}), flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    tracer = Tracer() if args.trace else None
    round_s, plain_s, traced_s, passes, pass_starts = [], [], [], [], []
    probes = defaultdict(list)

    def plain_pass():
        plain_s.append(tally.run(traced_ops))
        if in_process:
            round_s.append(plain_s[-1])
        else:
            probes["cli.dispatch_s"].extend(tally.last["cli_latency"])

    def traced_pass():
        mark, frames = len(tracer.spans), tracer.frames
        pass_starts.append(time.perf_counter())
        tracer.install()
        try:
            traced_s.append(tally.run(traced_ops))
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals(tracer.spans[mark:])
        totals["maslov.frames"] = tracer.frames - frames
        passes.append(totals)

    start = time.perf_counter()
    while True:
        if tracer is None:
            round_s.append(tally.run(ops))
        else:
            if not in_process:
                round_s.append(tally.run(ops))
                for name, value in cold_start_probes().items():
                    probes[name].append(value)
            pair = (plain_pass, traced_pass) if len(passes) % 2 == 0 else (traced_pass, plain_pass)
            for one_pass in pair:
                one_pass()
        if time.perf_counter() - start >= args.seconds:
            break

    result = {"correct": tally.wrong == 0,
              "attempted": tally.attempted, "failed": tally.failed}
    if tracer is None:
        names = [m["name"] for m in spec["end_to_end"] if m["name"] != "setup_s"]
        scale = REF_S / statistics.median(tally.refs or [reference_sample()])
        result["raw_round_s"] = statistics.median(round_s)
        result["scale"] = scale
        values = {"round_s": result["raw_round_s"] * scale, "peak_rss_mb": peak_rss_mb()}
    else:
        if in_process:
            for _ in range(PROBES):
                for name, value in cold_start_probes().items():
                    probes[name].append(value)
        names = [m["name"] for m in spec["per_layer"]]
        layer_names = [n for n in names if not n.startswith("trace.")]
        values = per_layer(layer_names, passes, probes, plain_s, traced_s)
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.jsonl")
        tracer.write(path, lambda t: bisect_right(pass_starts, t) - 1)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result["metrics"] = {n: {"value": values[n], "unit": units[n]} for n in names}
    if tracer is None:
        result["rates"] = tally.rates()
        result["shares"] = tally.shares()
    result["rounds"] = len(round_s)
    result["problems"] = tally.problems[:10]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
