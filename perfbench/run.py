"""Run one lenspairs benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload search|verify|bqf --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  The workload runs in a fresh child process (``child.py``) for at
least S seconds of whole rounds; every output is then checked against
independent computations (``check.py``).  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run and the tracing overhead.  Exits 1 when an output is wrong and 2 when
the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 12  # half before the workload process, half after it
CHILD_TIMEOUT_S = 150  # a run must end within 180 s

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import lenspairs.cli; "
    "lenspairs.cli.build_parser(); sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def launch(cmd, **kwargs):
    # own process group, so that a timeout also stops pool workers
    return subprocess.Popen(cmd, start_new_session=True, **kwargs)


def stop(proc):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def setup_samples(count: int) -> list:
    """Seconds from launching an interpreter until lenspairs is imported and the parser built."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = launch([sys.executable, "-c", SETUP_CODE, str(SRC)], stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            proc.wait(timeout=30)
        finally:
            stop(proc)
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError("the set-up interpreter did not import lenspairs")
        samples.append(elapsed)
    return samples


def run_child(queries, seconds, trace, trace_path) -> dict:
    layers = [m["name"] for m in BENCH["per_layer"] if m["name"] != "trace.overhead_s"]
    job = {"src": str(SRC), "queries": queries, "seconds": seconds, "trace": trace,
           "trace_path": str(trace_path), "layer_metrics": layers}
    proc = launch([sys.executable, str(HERE / "child.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(json.dumps(job).encode(), timeout=CHILD_TIMEOUT_S)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"the workload process exited with {proc.returncode}")
    return json.loads(out)


def check_outputs(queries, outputs, expected_search) -> tuple[list, int]:
    """Errors over all first-round outputs, and how many failures were accepted."""
    errors, accepted = [], 0
    for i, (q, o) in enumerate(zip(queries, outputs)):
        kind, rc, out = q["kind"], o["rc"], o["out"]
        if kind == "unit":
            errs = check.check_unit(rc, out, q["delta"])
            accepted += rc != 0 and not errs
        elif rc != 0:
            errs = [f"query {q.get('argv', q.get('call'))} exited {rc}: {o['err'][-500:]}"]
        elif "same_output_as" in q:
            errs = [] if out == outputs[q["same_output_as"]]["out"] else [
                f"search with --workers {q['workers']} printed other JSONL than --workers 1"]
        elif kind == "search":
            errs = check.check_search(out, expected_search[i])
        elif kind == "verify":
            errs = check.check_verify(out, q["family"], q["lo"], q["hi"])
        elif kind == "dual":
            errs = check.check_dual(out, q["a"], q["b"])
        elif kind == "identities":
            errs = check.check_identities(out, q["top"])
        elif kind == "nonintegral":
            errs = check.check_nonintegral(out, *q["args"])
        elif kind == "solve":
            errs = check.check_solve(out, q["form"], q["m"], q["count"])
        else:
            errs = [f"no checker for {kind}"]
        errors += errs
    return errors, accepted


def query_medians(rounds) -> list:
    """Each query's median time over the rounds, so that a stall in one round moves little."""
    return [statistics.median(ts) for ts in zip(*(r["times"] for r in rounds))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lenspairs" / "__init__.py").is_file():
        print(f"error: no lenspairs source under {SRC}", file=sys.stderr)
        return 2

    queries = workloads.build(args.workload, args.seed)
    if not args.trace:
        setup_samples(1)  # the first launch may compile bytecode; it is not counted
        setup = setup_samples(SETUP_SAMPLES // 2)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    res = run_child(queries, args.seconds, args.trace, OUT_DIR / f"trace-{args.workload}.bin")
    if not args.trace:
        setup = statistics.median(setup + setup_samples(SETUP_SAMPLES // 2))

    # a query with same_output_as is checked by byte equality with that query
    candidates = {i: check.enumerate_candidates(q["spec"]) for i, q in enumerate(queries)
                  if q["kind"] == "search" and "same_output_as" not in q}
    expected = {i: check.expected_records(c) for i, c in candidates.items()}
    errors, accepted = check_outputs(queries, res["outputs"], expected)
    rounds = res["rounds"] + res.get("traced_rounds", [])
    if not all(r["same"] for r in rounds):
        errors.append("a later round printed other output than the first")
    failed = sum(r["failed"] for r in rounds)
    if failed != accepted * len(rounds):
        errors.append(f"{failed} failed queries over {len(rounds)} rounds, {accepted} accepted per round")

    if args.trace:
        overhead = sum(query_medians(res["traced_rounds"])) - sum(query_medians(res["rounds"]))
        values = dict(res["layers"], **{"trace.overhead_s": overhead})
        declared = BENCH["per_layer"]
    else:
        times = query_medians(res["rounds"])
        # surgeries of the sequential queries; the pool query has no entry in candidates
        surgeries = {i: len(c) for i, c in candidates.items()}
        surgeries.update({i: 2 * (q["hi"] - q["lo"] + 1) for i, q in enumerate(queries) if q["kind"] == "verify"})
        values = {
            "setup_s": setup,
            "wall_s": sum(times),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "surgeries_per_s": sum(surgeries.values()) / sum(times[i] for i in surgeries),
        }
        declared = BENCH["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {[m['name'] for m in declared]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for line in errors[:50]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(queries) * len(rounds), "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
