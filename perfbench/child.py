"""The workload process: runs whole rounds of queries through lenspairs.

Reads a JSON job on stdin: the source directory, the queries, the seconds to
measure, whether to trace, and where to write the spans.  Rounds repeat while
the next one is expected to end within the seconds; there is at least one.
With tracing on, untraced rounds run for half the seconds, then the wrappers
are installed and traced rounds run for the other half.  Writes one JSON result on stdout: per-round query times,
first-round outputs, whether later rounds printed the same, peak memory,
and the traced rounds' per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from dataclasses import asdict
from time import perf_counter


def run_query(query: dict, lenspairs) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one query; -1 for an exception."""
    out, err = io.StringIO(), io.StringIO()
    rc = -1
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in query:
                rc = lenspairs.cli.run(query["argv"])
            else:
                report = getattr(lenspairs.search, query["call"])(*query["args"])
                rc = 0
    except Exception:  # a crash is reported as a failed query, with its traceback
        err.write(traceback.format_exc())
    elapsed = perf_counter() - start
    if rc == 0 and "call" in query:
        d = asdict(report)
        out.write(json.dumps({"pairs": [[*a, *b] for a, b in d["pairs"]], "checked": d["checked"],
                              "violations": [list(v) for v in d["violations"]]}))
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_rounds(queries, seconds, lenspairs, first, tracer=None, requests=None):
    """Whole rounds within ``seconds``, at least one; returns per-round records.

    Another round starts only if one more round as long as the last still
    ends within the seconds, so a run never overruns by a whole round.
    """
    rounds = []
    began = perf_counter()
    while True:
        start = perf_counter()
        times, same, failed = [], True, 0
        for i, query in enumerate(queries):
            if tracer is not None:
                tracer.begin(len(requests))
                requests.append([len(rounds), i, query.get("workers", 1) > 1])
            rc, out, err, elapsed = run_query(query, lenspairs)
            times.append(elapsed)
            failed += rc != 0
            if len(first) <= i:
                first.append({"rc": rc, "out": out, "err": err})
            else:
                same &= first[i] == {"rc": rc, "out": out, "err": err}
        rounds.append({"times": times, "same": same, "failed": failed})
        now = perf_counter()
        if now - began + (now - start) > seconds:
            return rounds


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import lenspairs.cli
    import lenspairs.search

    if not lenspairs.__file__.startswith(job["src"]):
        raise SystemExit(f"lenspairs imported from {lenspairs.__file__}, not from {job['src']}")
    queries = job["queries"]
    first: list = []
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    result = {"rounds": run_rounds(queries, seconds, lenspairs, first)}
    if job["trace"]:
        from tracer import Tracer

        tracer, requests = Tracer(), []
        tracer.install()
        traced = run_rounds(queries, seconds, lenspairs, first, tracer, requests)
        tracer.finish()
        # pool queries are left out: their layer calls run in worker processes
        per_round = tracer.layer_metrics({k: rnd for k, (rnd, _, pool) in enumerate(requests) if not pool})
        result["traced_rounds"] = traced
        result["layers"] = {key: statistics.median_low(m[key] for m in per_round) for key in job["layer_metrics"]}
        tracer.write(job["trace_path"], requests)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = own + workers
    result["outputs"] = first
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
