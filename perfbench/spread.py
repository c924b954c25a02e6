"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload geometry --seeds 1-10

Each run is untraced and lasts the ``run_seconds`` of BENCHMARK.json.  For
every metric it prints the median and the quartiles of the runs (as
``statistics.quantiles(values, n=4)`` gives them) and the distance between
the quartiles as a share of the median, the figure the bounds in
BENCHMARK.json are set against.  Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    values, failed = {}, []
    for seed in args.seeds:
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              args.workload, "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", "0"],
                             capture_output=True, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks", file=sys.stderr)
        failed.append(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: seeds {args.seeds.start}-{args.seeds.stop - 1}, "
          f"failed/attempted {' '.join(failed)}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"  {name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  iqr/median {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
