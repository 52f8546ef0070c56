"""Command-line frontend exposing every subsystem as a subcommand.

Results go to stdout (one JSON object per line under ``--jsonl``),
diagnostics to stderr.  Exit codes: 0 for a successful query or a fully
verified check, 1 when a verification fails or a counterexample is found,
2 for usage errors, and 141 (128 + SIGPIPE) from ``main`` when the reader
of stdout closes it early.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import bqf, search
from .dualknot import basic_stats, kplus_dual
from .knots import FAMILIES, KnotDescriptor, Lens, ReducibleTwoLens, SurgerySlope, kplus, lens_surgery
from .lens import LensSpace, homeomorphic, make_lens, oriented_homeomorphic
from .sequences import IDENTITIES, _failures


# argparse reports an ArgumentTypeError from a type= parser with its message,
# but any ValueError as "invalid <parser name> value"
def _parse_slope(text: str) -> SurgerySlope:
    num, _, den = text.partition("/")
    try:
        return SurgerySlope(int(num), int(den) if den else 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed slope {text!r}: {exc}") from None


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return range(int(lo), int(hi) + 1)
        return range(int(lo), int(lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}, expected 'a..b'") from None


def _emit(args, obj: dict | None, text: str) -> None:
    # obj None marks a line that only the text mode prints
    if not args.jsonl:
        print(text)
    elif obj is not None:
        print(json.dumps(obj, sort_keys=True))


def _cmd_surgery(args) -> int:
    knot = KnotDescriptor(args.family, tuple(args.params))
    result = lens_surgery(knot, args.slope)
    record = {"knot": str(knot), "slope": str(args.slope)}
    if isinstance(result, Lens):
        record.update(kind="lens", p=result.space.p, q=result.space.q)
        text = str(result.space)
    elif isinstance(result, ReducibleTwoLens):
        record.update(kind="reducible-two-lens", p=result.p, q=result.q)
        text = f"connected sum of two lens spaces (torus parameters {result.p} and {result.q})"
    else:
        record.update(kind="not-lens", reason=result.reason, note=result.note)
        text = f"not a lens space ({result.reason})" + (f": {result.note}" if result.note else "")
    _emit(args, record, text)
    return 0


def _cmd_homeo(args) -> int:
    first = make_lens(args.p1, args.q1)
    second = make_lens(args.p2, args.q2)
    if args.oriented:
        verdict = oriented_homeomorphic(first, second)
        word = "oriented-homeomorphic"
    else:
        verdict = homeomorphic(first, second)
        word = "homeomorphic"
    _emit(
        args,
        {"first": str(first), "second": str(second), "oriented": args.oriented, "homeomorphic": verdict},
        word if verdict else f"not {word}",
    )
    return 0


def _cmd_dual(args) -> int:
    knot = kplus(args.a, args.b)
    triple = kplus_dual(args.a, args.b)
    stats = basic_stats(triple)
    hyperbolic = stats.phi >= 2
    _emit(
        args,
        {"knot": str(knot), "p": triple.p, "q": triple.q, "k": triple.k,
         "h": stats.h, "s": stats.s, "ell": stats.ell, "s_prime": stats.s_prime,
         "ell_prime": stats.ell_prime, "phi": stats.phi, "hyperbolic": hyperbolic},
        f"{knot}: dual knot in {LensSpace(triple.p, triple.q)} with k={triple.k}\n"
        f"h={stats.h} s={stats.s} ell={stats.ell} s'={stats.s_prime} ell'={stats.ell_prime} "
        f"phi={stats.phi}\n"
        f"{'hyperbolic (phi >= 2)' if hyperbolic else 'not hyperbolic (phi < 2)'}",
    )
    return 0


def _cmd_bqf_solve(args) -> int:
    form = bqf.QuadForm(args.A, args.B, args.C)
    sols = bqf.generate_solutions(form, args.m, args.count)
    for sol in sols:
        _emit(args, {"x": sol.x, "y": sol.y}, f"({sol.x}, {sol.y})")
    if not sols:
        _emit(args, None, "no solutions")
    return 0


def _cmd_bqf_unit(args) -> int:
    unit = bqf.fundamental_unit(args.delta)
    _emit(
        args,
        {"delta": args.delta, "u": unit.u, "v": unit.v},
        f"u={unit.u} v={unit.v}",
    )
    return 0


def _cmd_bqf_scan(args) -> int:
    report = bqf.divisibility_scan(
        range(args.a_min, args.a_max + 1),
        range(1, args.bc_max + 1),
        range(1, args.bc_max + 1),
        args.n,
    )
    for hit in report.counterexamples:
        _emit(
            args,
            {"a": hit.a, "b": hit.b, "c": hit.c, "n": hit.n,
             "value": hit.value, "modulus": hit.modulus},
            f"COUNTEREXAMPLE a={hit.a} b={hit.b} c={hit.c} n={hit.n}: "
            f"{hit.modulus} divides {hit.value}",
        )
    _emit(
        args,
        {"checked": report.checked, "counterexamples": len(report.counterexamples)},
        f"{report.checked} divisibility checks, {len(report.counterexamples)} counterexamples",
    )
    return 0 if report.clean else 1


def _cmd_identities(args) -> int:
    if args.range < 1:
        raise ValueError("--range must be >= 1")
    failed = 0
    for name, start in IDENTITIES.items():
        bad = _failures(name, range(start, args.range + 1))
        failed += len(bad)
        _emit(
            args,
            {"identity": name, "range": [start, args.range], "failures": bad},
            f"{'PASS' if not bad else 'FAIL'} {name} n={start}..{args.range}"
            + (f" failures={bad}" if bad else ""),
        )
    return 0 if failed == 0 else 1


def _verify_lines(family: str, checks):
    """Each check as the line, newline included, that ``json.dumps`` writes
    for {"family", "n", "passed", "witness"}: inside a dict, json writes a
    str as ``json.dumps`` of that str, an int by ``repr`` and a bool as true
    or false.  Every check is of ``family``, so its name is encoded once.
    ``json.dumps`` of a str under its default arguments is
    ``encode_basestring_ascii`` of it, which the witness takes directly."""
    name = json.dumps(family)
    encode = json.encoder.encode_basestring_ascii
    for check in checks:
        passed = "true" if check.passed else "false"
        yield f'{{"family": {name}, "n": {check.n!r}, "passed": {passed}, "witness": {encode(check.witness)}}}\n'


def _cmd_verify(args) -> int:
    # each line is written as its check is made, so memory stays flat in the
    # range and `| head` stops the work; only the counts are kept
    counts = [0, 0]  # checks passed, checks made

    def counted(checks):
        for check in checks:
            counts[0] += check.passed
            counts[1] += 1
            yield check

    checks = counted(search._checks(args.family, args.range))
    lines = _verify_lines(args.family, checks) if args.jsonl else (check.line() + "\n" for check in checks)
    for line in lines:
        sys.stdout.write(line)
    good, total = counts
    if not args.jsonl:
        print(search._summary(args.family, good, total))
    return 0 if good == total else 1


def _cmd_search(args) -> int:
    text = args.denominators
    try:
        denominators = [int(n) for n in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed --denominators {text!r}, expected integers separated by commas") from None
    config = search.SearchConfig(
        families=args.families.split(","),
        slope_denominators=denominators,
        workers=args.workers,
        **{name: getattr(args, name) for name in search.SearchConfig.BOUNDS},
    )
    # open --out before the search, so that a path that cannot be written fails at once
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext()
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from None
    # each record is written as its shard finishes, so the first line comes after one shard
    # and `| head` stops the work; only the record count and the largest multiplicity are kept
    count = top = 0
    with out as handle, contextlib.closing(search._records(config)) as records:
        for record in records:
            line = record.to_json() + "\n" if args.jsonl or handle is not None else None
            if handle is not None:
                handle.write(line)
            if args.jsonl:
                sys.stdout.write(line)
            else:
                members = ", ".join(f"{knot}[{space}]" for knot, space in record.members)
                print(f"slope {record.slope} class L{record.lens_class}: {members} "
                      f"(certified {record.certified_multiplicity})")
            count += 1
            top = max(top, record.certified_multiplicity)
    print(f"{count} coincidence records, largest certified-distinct group: {top}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenspairs",
        description="Lens spaces from Dehn surgery, exactly.",
    )
    parser.add_argument("--jsonl", action="store_true", help="machine-readable line-delimited output")
    sub = parser.add_subparsers(dest="command")

    p_surgery = sub.add_parser("surgery", help="evaluate m/n-surgery on a knot")
    p_surgery.add_argument("family", choices=sorted(FAMILIES))
    p_surgery.add_argument("params", nargs="+", type=int)
    p_surgery.add_argument("--slope", required=True, type=_parse_slope, help="slope as m/n")
    p_surgery.set_defaults(cmd=_cmd_surgery)

    p_homeo = sub.add_parser("homeo", help="compare two lens spaces")
    for name in ("p1", "q1", "p2", "q2"):
        p_homeo.add_argument(name, type=int)
    p_homeo.add_argument("--oriented", action="store_true")
    p_homeo.set_defaults(cmd=_cmd_homeo)

    p_dual = sub.add_parser("dual", help="dual-knot data and phi for kplus(a, b)")
    p_dual.add_argument("a", type=int)
    p_dual.add_argument("b", type=int)
    p_dual.set_defaults(cmd=_cmd_dual)

    p_bqf = sub.add_parser("bqf", help="binary quadratic form tools")
    bqf_sub = p_bqf.add_subparsers(dest="bqf_command")
    p_solve = bqf_sub.add_parser("solve", help="solutions of A x^2 + B xy + C y^2 = m")
    for name in ("A", "B", "C", "m"):
        p_solve.add_argument(name, type=int)
    p_solve.add_argument("--count", type=int, default=5, help="solutions per orbit")
    p_solve.set_defaults(cmd=_cmd_bqf_solve)
    p_unit = bqf_sub.add_parser("unit", help="fundamental norm-1 unit of a discriminant")
    p_unit.add_argument("delta", type=int)
    p_unit.set_defaults(cmd=_cmd_bqf_unit)
    p_scan = bqf_sub.add_parser("scan", help="scan b^2 +- c^2 against n*a*b*c +- 1")
    p_scan.add_argument("--a-min", type=int, default=2)
    p_scan.add_argument("--a-max", type=int, required=True)
    p_scan.add_argument("--bc-max", type=int, required=True)
    p_scan.add_argument("--n", type=_parse_range, required=True, help="denominator range as a..b")
    p_scan.set_defaults(cmd=_cmd_bqf_scan)

    p_idents = sub.add_parser("identities", help="machine-check the sequence identities")
    p_idents.add_argument("--range", type=int, required=True)
    p_idents.set_defaults(cmd=_cmd_identities)

    p_verify = sub.add_parser("verify", help="verify a family of coincidence pairs")
    p_verify.add_argument("family", choices=search.VERIFY_FAMILIES)
    p_verify.add_argument("--range", type=_parse_range, required=True, help="index range as a..b")
    p_verify.set_defaults(cmd=_cmd_verify)

    p_search = sub.add_parser("search", help="search for knots sharing slope and lens space")
    defaults = search.SearchConfig()
    p_search.add_argument("--families", default=",".join(sorted(defaults.families)))
    for name in defaults.BOUNDS:
        p_search.add_argument("--" + name.replace("_", "-"), type=int, default=getattr(defaults, name))
    p_search.add_argument("--denominators", default=",".join(map(str, sorted(defaults.slope_denominators))))
    p_search.add_argument("--workers", type=int, default=defaults.workers)
    p_search.add_argument("--out", help="write records to this jsonl file")
    p_search.set_defaults(cmd=_cmd_search)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: parse_args keeps no state and returns a new namespace each call
    return build_parser()


def run(argv=None) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "cmd", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    # units, orbit solutions and verify witnesses can run to thousands of digits:
    # lift the int-to-str digit limit for the command, and restore it after
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.cmd(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stderr.write(parser.format_usage())
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`): not a failed verification;
        # stdout goes to devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as for a process that the signal ended
    raise SystemExit(code)
