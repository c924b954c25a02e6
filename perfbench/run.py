"""Benchmark entry point: one run of one workload of symcap.

    python3 perfbench/run.py --workload squeeze --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is taken from ``src``
alone (it need not be installed).  Every workload runs in a worker process
with one BLAS thread.  An untraced run first starts the worker several times
for set-up only and reports the median set-up time; then one worker measures.
The last line of stdout is the result as JSON; the same object, with the
per-family rates, is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("squeeze", "geometry", "cli_oneshot")
SETUP_RUNS = 5  # set-ups timed per untraced run; the median is reported
DEADLINE_S = 170.0  # whole run, kept under the 180 s a run may take
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update({name: "1" for name in THREAD_VARS})
    return env


def start_worker(args, deadline, setup_only):
    """Start a worker and wait for its set-up to end.

    Returns the process, the seconds from its start to its ``ready`` line,
    and the machine-speed scale it printed next (see worker.py).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RunError(f"worker set-up failed (exit {proc.returncode})")
    scale = json.loads(proc.stdout.readline())["scale"]
    return proc, setup, scale


def finish(proc, deadline) -> str:
    """Wait for the worker within the deadline; kill it past that.  Returns stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker overran the run deadline")
    return out


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []  # (seconds, scale) per worker start
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            proc, setup, scale = start_worker(args, deadline, setup_only=True)
            finish(proc, deadline)
            if proc.returncode != 0:
                raise RunError(f"set-up worker exited {proc.returncode}")
            setups.append((setup, scale))
    proc, setup, scale = start_worker(args, deadline, setup_only=False)
    setups.append((setup, scale))
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        value = statistics.median(s * k for s, k in setups)
        report["metrics"]["setup_s"] = {"value": value, "unit": "s"}
        report["raw_setups_s"] = [s for s, _ in setups]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symcap", "__init__.py")):
        print(f"error: no symcap sources under {SRC}; run from a symcap checkout",
              file=sys.stderr)
        return 2
    try:
        report = run(args)
    except (RunError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if "rates" in report:
        print("rates " + json.dumps(report["rates"], sort_keys=True))
        print("shares " + json.dumps(report["shares"], sort_keys=True))
        print(f"unscaled round_s {report['raw_round_s']:.6g}, setup_s "
              f"{statistics.median(report['raw_setups_s']):.6g}; scale {report['scale']:.4g}")
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
