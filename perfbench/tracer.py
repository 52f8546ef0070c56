"""Spans and counts around the public functions of each lenspairs module.

``install`` replaces each traced function, in every lenspairs module that
bound it, by a wrapper that records one span: (name, start, end, parent
span, request).  The request is the query the span belongs to.  Spans stay
in flat arrays in memory; ``write`` saves them when the run ends and
``layer_metrics`` derives call counts, total and self times from them.

``arith.is_perfect_square`` runs millions of times per bqf query, so it is
counted without a span.  Calls made inside process-pool workers run in
other processes and are not recorded.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); each also counts its calls
SPANS = (
    ("cli", "run", "cli.run"),
    ("search", "find_coincidences", "search.find_coincidences"),
    ("search", "enumerate_surgeries", "search.enumerate_surgeries"),
    ("search", "verify_family", "search.verify_family"),
    ("knots", "lens_surgery", "knots.lens_surgery"),
    ("knots", "distinct", "knots.distinct"),
    ("lens", "make_lens", "lens.make_lens"),
    ("lens", "canonical_form", "lens.canonical_form"),
    ("lens", "homeomorphic", "lens.homeomorphic"),
    ("dualknot", "basic_stats", "dualknot.basic_stats"),
    ("sequences", "fib", "sequences.fib"),
    ("sequences", "pair", "sequences.pair"),
    ("sequences", "check_identity", "sequences.check_identity"),
    ("bqf", "fundamental_unit", "bqf.fundamental_unit"),
    ("bqf", "orbit_representatives", "bqf.orbit_representatives"),
    ("bqf", "generate_solutions", "bqf.generate_solutions"),
)
COUNTED = (("arith", "is_perfect_square", "arith.is_perfect_square"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current = -1                   # request of the query now running
        self.counts = defaultdict(int)      # (counter, request) -> value
        self.cells: dict = {}               # count-only label -> [calls so far]
        self.marks: list = []               # cells at the start of each request

    def _name_id(self, label: str) -> int:
        if label not in self.names:
            self.names.append(label)
        return self.names.index(label)

    def _push(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.request.append(self.current)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _pop(self, i: int):
        self.end[i] = perf_counter()
        self.stack.pop()

    def span(self, label: str, fn, observe=None):
        nid = self._name_id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._push(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(i)
            if observe is not None:
                observe(result)
            return result

        return traced

    def span_generator(self, label: str, fn, counter: str):
        # the span covers the whole iteration; the consumer must make no
        # traced call between items, or that call is parented to this span
        nid = self._name_id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._push(nid)
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                self._pop(i)
                self.counts[counter, self.current] += items

        return traced

    def counted(self, label: str, fn):
        cell = self.cells.setdefault(label, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def begin(self, request: int):
        """Mark the start of a request; requests are numbered 0, 1, 2, ... in order."""
        self.current = request
        self.marks.append({label: cell[0] for label, cell in self.cells.items()})

    def finish(self):
        self.marks.append({label: cell[0] for label, cell in self.cells.items()})
        for req in range(len(self.marks) - 1):
            for label, value in self.marks[req + 1].items():
                self.counts[label, req] += value - self.marks[req][label]

    def add(self, counter: str, value: int):
        self.counts[counter, self.current] += value

    def install(self):
        """Wrap the traced functions in every lenspairs module that bound them."""
        import lenspairs.search as search

        mods = {name: sys.modules["lenspairs." + name]
                for name in ("cli", "search", "knots", "lens", "dualknot", "sequences", "bqf", "arith")}
        observers = {
            "search.find_coincidences": lambda recs: self.add("search.kept", sum(len(r.members) for r in recs)),
            "knots.distinct": lambda verdict: self.add("knots.distinct.unknown", verdict == "unknown"),
        }
        for mod, attr, label in SPANS + COUNTED:
            original = getattr(mods[mod], attr)
            if (mod, attr, label) in COUNTED:
                wrapped = self.counted(label, original)
            elif label == "search.enumerate_surgeries":
                wrapped = self.span_generator(label, original, "search.candidates")
            else:
                wrapped = self.span(label, original, observers.get(label))
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("lenspairs"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        prop = search.CoincidenceRecord.certified_multiplicity
        search.CoincidenceRecord.certified_multiplicity = property(
            self.span("search.certified_multiplicity", prop.fget))

    def write(self, path, requests: list):
        """Save the spans: a JSON header line, then the five arrays as raw bytes."""
        header = {"names": self.names, "requests": requests, "spans": len(self.name),
                  "arrays": [["name", "i"], ["parent", "i"], ["request", "i"], ["start", "d"], ["end", "d"]],
                  "counts": [[k, r, v] for (k, r), v in sorted(self.counts.items())]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for field in (self.name, self.parent, self.request, self.start, self.end):
                field.tofile(handle)

    def layer_metrics(self, group_of: dict) -> list:
        """Per-layer metrics of each group of requests, in one pass over the spans.

        ``group_of`` maps a request to its group (a round); requests it
        leaves out are not counted.
        """
        n = len(self.name)
        groups = max(group_of.values()) + 1
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        under_solve = [False] * n
        solve, unit = self._name_id("bqf.generate_solutions"), self._name_id("bqf.fundamental_unit")
        calls = [defaultdict(int) for _ in range(groups)]
        total = [defaultdict(float) for _ in range(groups)]
        own = [defaultdict(float) for _ in range(groups)]
        count = [defaultdict(int) for _ in range(groups)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                under_solve[i] = self.name[p] == solve or under_solve[p]
        for i in range(n):  # children end before their parent, so child[] is complete here
            g = group_of.get(self.request[i])
            if g is None:
                continue
            label = self.names[self.name[i]]
            calls[g][label] += 1
            total[g][label] += dur[i]
            own[g][label] += dur[i] - child[i]
            count[g]["units_in_solve"] += self.name[i] == unit and under_solve[i]
        for (key, req), value in self.counts.items():
            if req in group_of:
                count[group_of[req]][key] += value
        return [self._metrics(*per) for per in zip(calls, total, own, count)]

    def _metrics(self, calls, total, own, count) -> dict:
        out = {}
        for label in self.names:
            out[label + ".s"] = total[label]
            out[label + ".calls"] = calls[label]
        out["search.self_s"] = own["search.find_coincidences"]
        out["cli.self_s"] = own["cli.run"]
        out["search.candidates"] = count["search.candidates"]
        out["search.kept_ratio"] = count["search.kept"] / max(1, count["search.candidates"])
        out["knots.distinct.unknown"] = count["knots.distinct.unknown"]
        out["bqf.unit_calls_per_solve"] = count["units_in_solve"] / max(1, calls["bqf.generate_solutions"])
        out["arith.is_perfect_square.calls"] = count["arith.is_perfect_square"]
        return out
