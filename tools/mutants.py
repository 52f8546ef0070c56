"""Mutation check: each mutant listed here must fail the tests named beside it.

    python tools/mutants.py

Run from anywhere; it works on a temporary copy of the checkout's ``src/``,
``tests/`` and ``pyproject.toml``.  First the named tests of every mutant
run on the unedited copy and must pass.  Then, one mutant at a time,
the mutant's old text, which must occur exactly once in its file, becomes
its new text, ``python -m pytest -x -q`` runs the mutant's test node ids,
and the file is restored.  A mutant is killed when a test fails or the run
passes its time limit.  Exits 0 when every mutant is killed, and 1 when one
survives, its old text is missing or repeated, or the tests cannot run.
Only the standard library is used, besides pytest for the tests themselves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 120  # per pytest run


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


KNOTS, SEARCH = "src/lenspairs/knots.py", "src/lenspairs/search.py"
BQF, CLI = "src/lenspairs/bqf.py", "src/lenspairs/cli.py"
SEQUENCES, DUALKNOT = "src/lenspairs/sequences.py", "src/lenspairs/dualknot.py"
RUN_MEMBERS = "tests/test_family_table.py::test_run_members_are_regular_rows_that_share_no_key"
VALID_KNOTS = "tests/test_family_table.py::test_verified_constructions_are_valid_knots"
TABLE_LEMMA = "tests/test_family_table.py::test_table_lemma"
DISTINCT = "tests/test_family_table.py::test_distinct_matches_rules_on_every_ordered_pair"
CLI_OUTPUTS = "tests/test_cli.py::test_single_index_not_lens_and_no_solution_outputs"
WINDOW_WALK = "tests/test_bqf.py::test_representatives_match_window_walk"
SHARD_LAYOUT = "tests/test_search.py::test_shards_tile_the_orders_within_the_cap"
VERIFY_STREAM = "tests/test_cli.py::test_verify_streams_the_lines_of_its_report"
VERIFY_ORDER = "tests/test_search.py::test_verify_family_checks_each_n_once_in_increasing_order"
PLANTED_SLOPE = "tests/test_search.py::test_verify_witness_writes_the_slope_and_spaces_as_their_objects_do"
WITNESS_ORACLE = "tests/test_search.py::test_verify_witnesses_match_the_oracle_text_by_text"
SEARCH_STREAM = "tests/test_cli.py::test_search_streams_the_records_of_find_coincidences"
SEARCH_CI_BYTES = "tests/test_search.py::test_ci_bound_jsonl_bytes"
CROSS_PROOF = "tests/test_sequences.py::test_cross_identities_hold_for_every_n"
# the two closed forms of an irregular row's q_min in a block t >= 2, and the text between them
LOW_END, HIGH_END = "q_min = k * s * r - eps * t  # z", "q_min = k * s * (a - r) + eps * (t + 1)  # m - z"
BETWEEN_ENDS = (
    "\n                            yield q_min * scale + (ka * s + eps) * base + den, ident + step * s"
    "\n                    for s in range(c + 1, high + 1):"
    "\n                        r = s - ta"
    "\n                        if gcd(a, r) == 1:"
    "\n                            "
)

MUTANTS = (
    Mutant("run member without its gcd", KNOTS,
           "x < z < m - x and gcd(a, r) == 1 else None", "x < z < m - x else None", (RUN_MEMBERS,)),
    Mutant("run member without its regularity test", KNOTS,
           "if t >= 2 and x < z < m - x and gcd(a, r) == 1 else None", "if gcd(a, r) == 1 else None",
           (RUN_MEMBERS,)),
    Mutant("runs never probed", KNOTS,
           "    for run in runs:\n        for key in filter(", "    for run in ():\n        for key in filter(",
           ("tests/test_search.py::test_shard_buckets_match_the_per_row_closed_form",)),
    Mutant("regular blocks start one block early", KNOTS,
           "regular = max(2, (x - k) // (ka - eps) + 1, (x - ka + k - eps) // (ka + eps) + 1)",
           "regular = max(2, (x - k) // (ka - eps), (x - ka + k - eps) // (ka + eps))",
           (RUN_MEMBERS, "tests/test_family_table.py::test_product_rows_class_minimum_matches_pow")),
    Mutant("low-end block scan stops one row early", KNOTS,
           "while b <= c and k * b * (b - ta) - eps * t <= x:", "while b < c and k * b * (b - ta) - eps * t <= x:",
           (RUN_MEMBERS, "tests/test_family_table.py::test_product_rows_class_minimum_matches_pow")),
    Mutant("shared classes list their members unsorted", KNOTS,
           "sorted(_knot_of(ident, width) for ident in idents)", "[_knot_of(ident, width) for ident in idents]",
           ("tests/test_search.py::test_ci_bound_three_member_records",)),
    Mutant("torus_cable's torus knot shares the factor 2n+1", SEARCH,
           "4 * n + 4", "4 * n + 2", (VALID_KNOTS + "[torus_cable]",)),
    Mutant("tangleTH's lens parameter shares the factor 3(n+1) with its order", KNOTS,
           "18 * n + 19", "18 * n + 18", (TABLE_LEMMA + "[tangleTH]",)),
    Mutant("pair check leaves its lens parameters unreduced", KNOTS,
           "r1, r2 = q1 % m, q2 % m", "r1, r2 = q1, q2",
           ("tests/test_family_table.py::test_shared_lens_slopes_match_lens_surgery",)),
    Mutant("verify and the sequences take a bool as an index", SEQUENCES,
           "if type(n) is not int:", "if not isinstance(n, int):",
           ("tests/test_search.py::test_verify_takes_only_int_indices",
            "tests/test_sequences.py::test_sequences_take_only_int_indices")),
    Mutant("make_lens names the reduced parameter in its error", "src/lenspairs/lens.py",
           "raise _not_coprime(p, q) from None", "raise", ("tests/test_lens.py::test_make_lens_errors",)),
    Mutant("pair check calls every shared slope homeomorphic", KNOTS,
           "shared.append((den, m, r1, r2, _same_class(m, r1, r2)))", "shared.append((den, m, r1, r2, True))",
           ("tests/test_search.py::test_no_nonintegral_pairs",)),
    Mutant("distinct without its genus certificate", KNOTS,
           '    if g1 is not None and g2 is not None and g1 != g2:\n        return "distinct"\n', "",
           (DISTINCT,)),
    Mutant("distinct without its type certificate", KNOTS,
           '    if one.types.isdisjoint(two.types):\n        return "distinct"\n', "", (DISTINCT,)),
    Mutant("phi certificate ignores the other family's types", KNOTS,
           'if "hyperbolic" not in other.types and entry.hyperbolic(*params):', "if entry.hyperbolic(*params):",
           (DISTINCT,)),
    Mutant("sequential search keeps the pool's 16-shard floor", SEARCH,
           "    if workers > 1:\n        width = min(", "    if workers >= 1:\n        width = min(", (SHARD_LAYOUT,)),
    Mutant("shard layout drops its last partial shard", SEARCH,
           "range(1, config.order_max + 1, width)", "range(1, config.order_max - width + 2, width)",
           (SHARD_LAYOUT, "tests/test_search.py::test_find_coincidences_respects_order_bound")),
    Mutant("nonintegral scan checks only the sign of p_max", SEARCH,
           "if p_max < 10:", "if p_max < 0:",
           ("tests/test_search.py::test_no_nonintegral_pairs_rejects_a_bound_with_no_pair",)),
    Mutant("same class without the reversal case", "src/lenspairs/lens.py",
           "q1 == q2 or q1 + q2 == p or q1 * q2", "q1 == q2 or q1 * q2",
           ("tests/test_lens.py::test_same_class_matches_canonical_form_equality",)),
    Mutant("basic_stats ell' one too large", DUALKNOT,
           "p - 1 - h - s_prime", "p - h - s_prime", ("tests/test_dualknot.py::test_streaming_equals_bruteforce",)),
    Mutant("basic_stats ell' one too small", DUALKNOT,
           "p - 1 - h - s_prime", "p - 2 - h - s_prime", ("tests/test_dualknot.py::test_streaming_equals_bruteforce",)),
    Mutant("floor sum without its n * (b // m) term", DUALKNOT,
           "total += n * (n - 1) // 2 * qa + n * qb", "total += n * (n - 1) // 2 * qa",
           ("tests/test_dualknot.py::test_floor_sum_matches_direct_sum",)),
    Mutant("lens parameter without its gcd check", "src/lenspairs/lens.py",
           "if gcd(p, reduced) != 1:", "if False:", ("tests/test_lens.py::test_make_lens_errors",)),
    Mutant("verify witness writes its slope unreduced", SEARCH,
           "_reduced_slope(m, den) if den > 1 else (m, 1)", "(m, den)", (PLANTED_SLOPE,)),
    Mutant("verify witness reduces its slope only at denominator 1", SEARCH,
           "if den > 1 else (m, 1)", "if den <= 1 else (m, 1)", (PLANTED_SLOPE,)),
    Mutant("verify witness template swaps the two knot families", SEARCH,
           "{_TABLE[family1].text} & {_TABLE[family2].text}", "{_TABLE[family2].text} & {_TABLE[family1].text}",
           (WITNESS_ORACLE, "tests/test_cli.py::test_verify_output_bytes")),
    Mutant("verify witness template swaps the two lens parameters", SEARCH,
           "text, q1, text, q2)", "text, q2, text, q1)",
           (WITNESS_ORACLE, "tests/test_cli.py::test_verify_output_bytes")),
    Mutant("verify lines leave non-ASCII witness text unescaped", CLI,
           "json.encoder.encode_basestring_ascii(check.witness)", "json.encoder.encode_basestring(check.witness)",
           ("tests/test_cli.py::test_verify_lines_are_json_dumps_of_each_check",)),
    Mutant("the table's phi path re-checks its knot and builds a dual triple", DUALKNOT,
           "return _stats(*_kplus_pqk(a, b)).phi >= 2", "return basic_stats(kplus_dual(a, b)).phi >= 2",
           ("tests/test_search.py::test_verify_phi_certificate_builds_no_dual_triple",)),
    Mutant("verify summary counts only the last check as passed", CLI,
           "good += check.passed", "good = check.passed", (VERIFY_STREAM,)),
    Mutant("verify counts only the last check made", CLI,
           "total += 1", "total = 1", (VERIFY_STREAM,)),
    Mutant("verify makes every check before its first line", CLI,
           "for check in search._checks(args.family, args.range):",
           "for check in tuple(search._checks(args.family, args.range)):",
           ("tests/test_cli.py::test_verify_memory_is_flat_in_the_range",
            "tests/test_cli.py::test_a_closed_stdout_stops_verify_at_once")),
    Mutant("verify takes a negative-step range as already sorted", SEARCH,
           "ns = n_range if n_range.step > 0 else n_range[::-1]", "ns = n_range", (VERIFY_ORDER,)),
    Mutant("verify lists a range before its first check", SEARCH,
           "ns = n_range if n_range.step > 0 else n_range[::-1]", "ns = sorted(set(n_range))",
           ("tests/test_search.py::test_verify_checks_a_huge_range_without_listing_it",)),
    Mutant("sequence walk never restarts", SEQUENCES,
           "if n - 1 != last:", "if last is None:", ("tests/test_sequences.py::test_walk_matches_pair_and_fib_pair",)),
    Mutant("window bound never exact", BQF,
           "return floor, floor if floor * floor * delta == n else None", "return floor, None",
           ("tests/test_bqf.py::test_window_bound",)),
    Mutant("Pell classes skip every square divisor", BQF,
           "for i in range(e // 2 + 1)", "for i in range(1)", (WINDOW_WALK,)),
    Mutant("Tonelli-Shanks drops its correction of the root", BQF,
           "r * b % p", "r % p",
           ("tests/test_bqf.py::test_square_roots_match_sympy_when_a_repeated_odd_prime_divides_delta",)),
    Mutant("LMM solution without its parity test", BQF,
           "if big_q == 1 and (k % 2 == 0) == (n > 0):", "if big_q == 1:",
           ("tests/test_bqf.py::test_orbit_representatives", WINDOW_WALK)),
    Mutant("orbit walk leaves the inverse unit after its first step", BQF,
           "use_inverse = nxt == backward and nxt != forward", "use_inverse = nxt != backward and nxt != forward",
           ("tests/test_bqf.py::test_generate_solutions_walks_each_orbit_towards_growing_y",)),
    Mutant("divisibility scan divides by a zero modulus", BQF,
           "                            if modulus == 0:\n                                continue\n", "",
           ("tests/test_bqf.py::test_divisibility_scan_skips_a_zero_modulus",)),
    Mutant("lens space without its reducedness check", "src/lenspairs/lens.py",
           "if _reduced_q(self.p, self.q) != self.q:", "if _reduced_q(self.p, self.q) is None:",
           ("tests/test_lens.py::test_make_lens_errors",)),
    Mutant("a range of one value is empty", CLI,
           "return range(int(lo), int(lo) + 1)", "return range(int(lo), int(lo))", (CLI_OUTPUTS,)),
    Mutant("not-lens text drops its note", CLI,
           'text = f"not a lens space ({result.reason})" + (f": {result.note}" if result.note else "")',
           'text = f"not a lens space ({result.reason})"', (CLI_OUTPUTS,)),
    Mutant("no-solutions line also in jsonl mode", CLI,
           '_emit(args, None, "no solutions")', '_emit(args, {}, "no solutions")', (CLI_OUTPUTS,)),
    Mutant("search text counts raw members", CLI,
           "(certified {record.certified_multiplicity})", "(certified {len(record.members)})",
           ("tests/test_cli.py::test_search_text_output",)),
    Mutant("walked pell_cross flips the sign of its left side", SEQUENCES,
           "return 2 * a0 * b1 - sign ==", "return 2 * a0 * b1 + sign ==",
           ("tests/test_sequences.py::test_walked_identities_match_the_oracle",)),
    Mutant("class minimum of a first-block row takes x, which exceeds m - x there", KNOTS,
           "u = m - x  #", "u = x  #", ("tests/test_family_table.py::test_product_rows_class_minimum_matches_pow",)),
    Mutant("irregular rows of a block take each other's closed form", KNOTS,
           LOW_END + BETWEEN_ENDS + HIGH_END, HIGH_END + BETWEEN_ENDS + LOW_END,
           ("tests/test_family_table.py::test_product_rows_class_minimum_matches_pow",)),
    Mutant("fib_cross's second pair takes b(n) for b(n+1)", SEQUENCES,
           "return (f3, f1 + f3), (f2, f2 + f2 + f3)", "return (f3, f1 + f3), (f2, f1 + f3)",
           (CROSS_PROOF + "[fib_cross]", "tests/test_sequences.py::test_walked_identities_match_the_oracle")),
    Mutant("pell_cross's second pair takes b(n+1) for a(n+1)", SEQUENCES,
           "return (a, a + a + b), (b, a + b)", "return (a, a + a + b), (b, a + a + b)",
           (CROSS_PROOF + "[pell_cross]", "tests/test_sequences.py::test_walked_identities_match_the_oracle")),
    Mutant("record template drops the space after raw_q's colon", SEARCH,
           '"raw_q": %d}', '"raw_q":%d}', ("tests/test_search.py::test_record_json_matches_json_dumps",)),
    Mutant("sequential search yields each shard's records unsorted", SEARCH,
           "yield from sorted(_shard_records(task), key=_record_key)", "yield from _shard_records(task)",
           (SEARCH_CI_BYTES, "tests/test_cli.py::test_search_text_output")),
    Mutant("pooled search yields each shard's records unsorted", SEARCH,
           "yield from sorted(part, key=_record_key)", "yield from part", (SEARCH_CI_BYTES, SEARCH_STREAM)),
    Mutant("a closed search waits for every queued shard", SEARCH,
           "pool.shutdown(cancel_futures=True)", "pool.shutdown(cancel_futures=False)",
           ("tests/test_cli.py::test_a_closed_pipe_stops_a_search_far_too_long_to_finish",)),
    Mutant("search lists every record before its first line", CLI,
           "contextlib.closing(search._records(config)) as records",
           "contextlib.nullcontext(search.find_coincidences(config)) as records",
           ("tests/test_cli.py::test_a_closed_stdout_stops_search_after_its_first_shard",)),
    Mutant("search writes --out only for the first shard", CLI,
           "            if handle is not None:\n                handle.write(line)",
           "            if handle is not None and record.slope.m <= search._SHARD_WIDTH:"
           "\n                handle.write(line)",
           (SEARCH_STREAM,)),
    Mutant("identities accepts a range of 0", CLI,
           "if args.range < 1:", "if args.range < 0:",
           ("tests/test_cli.py::test_identities_below_one_is_a_usage_error",)),
)


def run_tests(copy: Path, tests) -> int:
    """pytest's exit code for the node ids ``tests`` in ``copy``; -1 past the time limit."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def main() -> int:
    problems = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.file).read_text().count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name}: its old text occurs {count} times in {mutant.file}")
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, copy / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / part)
        code = run_tests(copy, sorted({test for m in MUTANTS for test in m.tests}))
        if code != 0:
            print(f"the named tests do not pass on the unedited code (pytest exit code {code})")
            return 1
        for mutant in MUTANTS:
            path = copy / mutant.file
            text = path.read_text()
            path.write_text(text.replace(mutant.old, mutant.new))
            try:
                code = run_tests(copy, mutant.tests)
            finally:
                path.write_text(text)
            verdict = {0: "SURVIVED", 1: "killed", -1: "killed (time limit)"}.get(code, f"tests could not run ({code})")
            print(f"{verdict}: {mutant.name}", flush=True)
            if code not in (1, -1):
                problems.append(mutant.name)
    print(f"{len(MUTANTS) - len(problems)}/{len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
