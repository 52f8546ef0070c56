"""Run workloads repeatedly and report each metric's median, quartiles and spread.

    python3 perfbench/steady.py [--workloads search,verify,bqf] [--runs 10] [--first-seed 1] [--trace 0]

Each run uses the next seed and the run length from BENCHMARK.json.  The
spread is the distance between the first and third quartiles as a share of
the median.  Each end-to-end metric is marked "ok" below a third of its
bound in BENCHMARK.json, "within" up to the bound, and "WIDE" past it.
Also prints the share of failed operations, which must be the same in
every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, correct={result['correct']}\n{proc.stderr}")
                ok = False
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            # the bound must hold; a third of it is the aim
            if bound is None:
                flag = ""
            else:
                flag = "  ok" if spread < bound / 3 else "  within" if spread <= bound else "  WIDE"
            ok &= flag != "  WIDE" or name == "setup_s"
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{'' if bound is None else format(bound, '6.2f')}{flag}")
        ok &= len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
