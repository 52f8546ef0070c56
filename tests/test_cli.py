import argparse
import contextlib
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc

import hypothesis
import hypothesis.strategies as st
import pytest

from lenspairs import cli, knots, search
from lenspairs.cli import build_parser, run
from lenspairs.search import FamilyCheck, FamilyReport, SearchConfig
from lenspairs.sequences import IDENTITIES, fib
from test_pins import DIGESTS, SEARCH_CI, fresh_env, run_fresh
from test_search import CI_BOUNDS

HAS_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")


@contextlib.contextmanager
def _int_digits(limit: int):
    """Set the int-to-str digit limit (0 lifts it) for a block, and restore it after."""
    if not HAS_DIGIT_LIMIT:  # a Python without the limit converts ints of any length
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


# the fixed regression set: (argv, expected exit code)
REGRESSION_SET = [
    (["surgery", "torus", "3", "4", "--slope", "13/1"], 0),
    (["surgery", "torus", "2", "3", "--slope", "6/1"], 0),
    (["surgery", "cable", "2", "3", "+1", "--slope", "25/1"], 0),
    (["surgery", "torus", "3", "4", "--slope", "13/0"], 2),
    (["homeo", "13", "3", "13", "9", "--oriented"], 0),
    (["homeo", "91", "12", "91", "27"], 0),
    (["dual", "2", "3"], 0),
    (["bqf", "unit", "32"], 0),
    (["bqf", "solve", "1", "-6", "1", "1", "--count", "3"], 0),
    (["identities", "--range", "40"], 0),
    (["verify", "torus_torus", "--range", "1..5"], 0),
    (["bqf", "scan", "--a-min", "1", "--a-max", "1", "--bc-max", "8", "--n", "3..3"], 1),
    (["bqf", "unit", "244"], 0),
    (["surgery", "kplus", "2", "3", "--slope", "19/1"], 0),
    (["surgery", "tangleHH", "1", "--slope", "93/1"], 0),
    (["surgery", "tangleTH", "1", "--slope", "66/1"], 0),
    (["surgery", "torus", "3", "--slope", "13/1"], 2),
    (["surgery", "cable", "2", "3", "--slope", "25/1"], 2),
    (["surgery", "kplus", "2", "--slope", "19/1"], 2),
    (["surgery", "tangleHH", "1", "2", "--slope", "93/1"], 2),
    (["surgery", "tangleTH", "1", "2", "--slope", "66/1"], 2),
    (["surgery", "cable", "2", "3", "0", "--slope", "25/1"], 2),
    (["search", "--families", "torus,nosuch"], 2),
]


@pytest.mark.parametrize("argv,expected", REGRESSION_SET)
def test_exit_codes(argv, expected, capsys):
    assert run(argv) == expected
    capsys.readouterr()


def test_surgery_family_choices():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (family,) = [a for a in commands.choices["surgery"]._actions if a.dest == "family"]
    assert family.choices == sorted(knots.FAMILIES)


def test_surgery_output(capsys):
    assert run(["surgery", "torus", "3", "4", "--slope", "13/1"]) == 0
    assert capsys.readouterr().out.strip() == "L(13,3)"


@pytest.mark.parametrize("argv,out", [
    # a --range of one value names that one index
    (["verify", "torus_torus", "--range", "5"],
     "PASS torus_torus n=5 witness=torus(21,29) & torus(13,47) @ 610/1 -> L(610,231) ~ L(610,379)\n"
     "torus_torus: 1/1 instances verified\n"),
    (["surgery", "torus", "2", "3", "--slope", "7/2"], "not a lens space (slope-condition-fails)\n"),
    (["surgery", "cable", "2", "3", "+1", "--slope", "26"],
     "not a lens space (unknown-for-family): cabling slope: reducible filling with a lens space summand\n"),
    (["--jsonl", "surgery", "cable", "2", "3", "+1", "--slope", "26"],
     '{"kind": "not-lens", "knot": "cable(2,3,+1)", "note": "cabling slope: reducible filling with a lens '
     'space summand", "reason": "unknown-for-family", "slope": "26/1"}\n'),
    # x^2 - 3y^2 = -1 has no solution mod 3; only the text mode says so
    (["bqf", "solve", "1", "0", "-3", "-1"], "no solutions\n"),
    (["--jsonl", "bqf", "solve", "1", "0", "-3", "-1"], ""),
])
def test_single_index_not_lens_and_no_solution_outputs(argv, out, capsys):
    assert run(argv) == 0
    assert capsys.readouterr() == (out, "")


def test_search_text_output(capsys):
    assert run(["search", "--order-max", "500"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "slope 7/1 class L(7, 2): kplus(1,2)[L(7,2)], torus(2,3)[L(7,2)] (certified 1)"
    assert len(out.splitlines()) == 66
    assert hashlib.sha256(out.encode()).hexdigest() == "bdf5c3b9c6b3f780f7ff92c252917bc7729d4a1ec1f3e2b257c435e11b441da8"
    assert err == "66 coincidence records, largest certified-distinct group: 2\n"


def test_homeo_output(capsys):
    assert run(["homeo", "13", "3", "13", "9", "--oriented"]) == 0
    assert capsys.readouterr().out.strip() == "oriented-homeomorphic"
    assert run(["homeo", "5", "1", "5", "4", "--oriented"]) == 0
    assert capsys.readouterr().out.strip() == "not oriented-homeomorphic"
    assert run(["homeo", "5", "1", "5", "4"]) == 0
    assert capsys.readouterr().out.strip() == "homeomorphic"


def test_dual_output(capsys):
    assert run(["dual", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "L(19,11)" in out and "k=7" in out and "phi=2" in out and "hyperbolic" in out


def test_dual_fibonacci_n_1000(capsys):
    assert run(["--jsonl", "dual", str(fib(1002)), str(fib(1000))]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["hyperbolic"] is True
    assert len(str(record["p"])) == 419


def test_verify_output(capsys):
    assert run(["verify", "torus_torus", "--range", "1..20"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 21
    assert sum(line.startswith("PASS") for line in lines) == 20


def test_identities_output(capsys):
    assert run(["identities", "--range", "25"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_identities_below_one_is_a_usage_error(capsys):
    assert run(["identities", "--range", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --range must be >= 1\nusage: lenspairs")


def test_identities_start_at_each_first_index(capsys):
    assert run(["--jsonl", "identities", "--range", "3"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [report["identity"] for report in reports] == list(IDENTITIES)
    for report in reports:
        assert report["range"] == [IDENTITIES[report["identity"]], 3]


@pytest.mark.parametrize("count", ["0", "-2"])
def test_bqf_solve_count_below_one_is_a_usage_error(count, capsys):
    # x^2 - 2y^2 = 1 has solutions, so "no solutions" would be wrong; m = 0 is rejected too
    for m in ("1", "0"):
        assert run(["bqf", "solve", "1", "0", "-2", m, "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: count must be >= 1\n")


@pytest.mark.parametrize("bounds", [
    ["--a-min", "0", "--a-max", "0", "--bc-max", "2", "--n", "3..3"],
    ["--a-max", "2", "--bc-max", "2", "--n", "0..0"],
])
def test_bqf_scan_outside_the_domain_is_a_usage_error(bounds, capsys):
    # n*a*b*c +- 1 would be +-1 there, so every value would read as a counterexample
    assert run(["bqf", "scan", *bounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a, b, c and n must be >= 1\n")


@pytest.mark.parametrize("bounds", [
    ["--a-max", "4", "--bc-max", "0", "--n", "3..5"],
    ["--a-min", "5", "--a-max", "2", "--bc-max", "5", "--n", "3..5"],
    ["--a-max", "3", "--bc-max", "5", "--n", "5..3"],
])
def test_bqf_scan_of_an_empty_box_is_a_usage_error(bounds, capsys):
    # zero checks would otherwise print "0 counterexamples" and exit 0
    assert run(["bqf", "scan", *bounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the a, b, c and n ranges must not be empty\n")


def test_search_flag_defaults_are_the_config_defaults(monkeypatch, capsys):
    seen = []

    def capture(config):
        seen.append(config)
        yield from ()

    monkeypatch.setattr("lenspairs.search._records", capture)
    assert run(["search"]) == 0
    capsys.readouterr()
    assert seen == [SearchConfig()]


def test_usage_errors(capsys):
    assert run(["surgery", "torus", "3", "--slope", "13/1"]) == 2  # missing parameter
    assert run(["surgery", "torus", "3", "6", "--slope", "13/1"]) == 2  # not coprime
    assert run(["homeo", "6", "2", "5", "1"]) == 2  # invalid lens space
    assert run(["verify", "torus_torus", "--range", "x..y"]) == 2
    assert run(["nonsense"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_flag_rejected(capsys):
    assert run(["homeo", "13", "3", "13", "9", "--sideways"]) == 2
    capsys.readouterr()


def test_jsonl_mode_lines_parse(capsys):
    assert run(["--jsonl", "homeo", "13", "3", "13", "9"]) == 0
    obj = json.loads(capsys.readouterr().out.strip())
    assert obj["homeomorphic"] is True
    assert run(["--jsonl", "bqf", "solve", "1", "-6", "1", "1", "--count", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"x": 1, "y": 0},
        {"x": 6, "y": 1},
        {"x": 35, "y": 6},
    ]


def test_bqf_unit_output(capsys):
    assert run(["--jsonl", "bqf", "unit", "244"]) == 0
    assert json.loads(capsys.readouterr().out) == {"delta": 244, "u": 1766319049, "v": 226153980}
    # v has about 4900 digits, past the default limit on converting ints to text
    assert run(["bqf", "unit", "40000564"]) == 0
    u_text, v_text = capsys.readouterr().out.split()
    with _int_digits(0):
        u, v = int(u_text.removeprefix("u=")), int(v_text.removeprefix("v="))
    assert len(v_text) > 4800
    assert u * u - 10000141 * v * v == 1


def test_search_writes_jsonl_file(tmp_path, capsys):
    out_file = tmp_path / "records.jsonl"
    code = run(
        ["search", "--families", "torus", "--torus-max", "7", "--order-max", "20",
         "--denominators", "1", "--out", str(out_file)]
    )
    assert code == 0
    capsys.readouterr()
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["slope"] == "13/1"
    assert obj["lens"] == {"p": 13, "q_canonical": 3}
    assert len(obj["members"]) == 2


def test_search_out_to_missing_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the path is rejected before any search work is done
    def no_search(config):
        raise AssertionError("searched before opening --out")

    monkeypatch.setattr("lenspairs.search._records", no_search)
    out_file = tmp_path / "missing" / "records.jsonl"
    assert run(["search", "--order-max", "50", "--out", str(out_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out_file) in err
    assert "Traceback" not in err
    assert not out_file.exists()


def test_dual_and_surgery_reject_a_bad_kplus_alike(capsys):
    assert run(["dual", "2", "4"]) == 2
    dual_err = capsys.readouterr().err.splitlines()
    assert run(["surgery", "kplus", "2", "4", "--slope", "28"]) == 2
    surgery_err = capsys.readouterr().err.splitlines()
    assert dual_err[0] == surgery_err[0] == "error: kplus parameters must be coprime and >= 1, got (2, 4)"


def test_slope_roundtrip_format(capsys):
    assert run(["--jsonl", "surgery", "torus", "3", "4", "--slope", "13"]) == 0
    obj = json.loads(capsys.readouterr().out.strip())
    assert obj["slope"] == "13/1"


def _fresh(argv):
    code, out, err = run_fresh(["-m", "lenspairs", *argv], 60)
    return code, out.decode(), err.decode()


@pytest.mark.parametrize("sequence", [
    [["--jsonl", "bqf", "unit", "5"], ["bqf", "unit", "5"]],
    [["bqf", "solve", "1", "0", "-2", "1", "--count", "1"], ["bqf", "solve", "1", "0", "-2", "1"]],
    [["verify", "torus_torus", "--range"], ["surgery", "torus", "3", "6", "--slope", "13/1"],
     ["verify", "torus_torus", "--range", "1..3"]],
])
def test_reused_parser_matches_a_fresh_interpreter(sequence, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in sequence:
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh(argv), argv


def test_run_builds_the_parser_once(monkeypatch, capsys):
    run(["bqf", "unit", "5"])  # the parser is built by now
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
    for _ in range(50):
        assert run(["bqf", "unit", "5"]) == 0
    capsys.readouterr()
    assert calls == []


def test_import_loads_no_process_pool():
    code = ("import sys, lenspairs.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    assert run_fresh(["-c", code], 60)[:2] == (0, b"[]\n")


def test_closed_stdout_exits_141_without_a_traceback():
    # verify prints its first line at once, so `| head -1` ends a range far too long to finish
    argv = [sys.executable, "-m", "lenspairs", "--jsonl", "verify", "torus_torus", "--range", "1..100000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
    deadline = threading.Timer(20, proc.kill)  # as `timeout 20`: a run still going at 20 s exits -9
    deadline.start()
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
    finally:
        deadline.cancel()
    assert first == (b'{"family": "torus_torus", "n": 1, "passed": true, '
                     b'"witness": "torus(3,4) & torus(2,7) @ 13/1 -> L(13,3) ~ L(13,10)"}\n')
    assert err == b""


@pytest.mark.parametrize("argv,message", [
    (["verify", "torus_torus", "--range", "1..3..5"],
     "argument --range: malformed range '1..3..5', expected 'a..b'"),
    (["bqf", "scan", "--a-max", "3", "--bc-max", "3", "--n", "5.."],
     "argument --n: malformed range '5..', expected 'a..b'"),
    (["surgery", "torus", "2", "3", "--slope", "5/0"],
     "argument --slope: malformed slope '5/0': slope denominator must be nonzero"),
])
def test_parse_errors_keep_their_message(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(": error: " + message)


def test_malformed_denominators_name_the_flag(capsys):
    assert run(["search", "--denominators", "1,,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "error: malformed --denominators '1,,2', expected integers separated by commas\n"
    assert captured.err.startswith(message)


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("argv,code", [
    (["homeo", "5", "1", "5", "4"], 0),
    (["homeo", "5", "10", "5", "2"], 2),  # the command raises
    (["homeo", "5"], 2),  # argparse rejects the line before the command runs
])
def test_run_leaves_the_int_digit_limit_as_it_found_it(argv, code, capsys):
    for limit in (4300, 5000, 0):
        with _int_digits(limit):
            assert run(argv) == code
            assert sys.get_int_max_str_digits() == limit
    capsys.readouterr()


def test_verify_prints_a_witness_past_the_digit_limit_whole(capsys):
    # the lens order of instance 10300 has 4306 digits, past the default limit of 4300
    n = 10300
    with _int_digits(4300):
        assert run(["--jsonl", "verify", "torus_torus", "--range", f"{n}..{n}"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    witness = json.loads(line)["witness"]
    with _int_digits(0):
        (check,) = search.verify_family("torus_torus", [n]).checks
        assert witness == check.witness
    assert max(len(digits) for digits in re.findall(r"[0-9]+", witness)) > 4300


def test_coprimality_error_names_the_parameter_as_given(capsys):
    assert run(["homeo", "5", "10", "5", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gcd(5, 10) != 1\n")


# text that json escapes: quotes, backslashes, control and non-ASCII characters, lone surrogates
_ESCAPED = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\xe9", "\u2028", "\ud800", "\udfff", "\U0001f600"]
_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(_ESCAPED))


@hypothesis.given(
    family=_TEXT,
    checks=st.lists(st.tuples(st.integers() | st.integers(10**4300, 10**4400), st.booleans(), _TEXT), max_size=4),
)
@hypothesis.example(family="torus_torus", checks=[
    (10**4400 + 7, True, 'a "quoted" \\ \x00\t\xe9 \ud800 witness'),
    (-(10**4301), False, "\udfff\U0001f600"),
])
def test_verify_lines_are_json_dumps_of_each_check(family, checks):
    report = FamilyReport(family, tuple(FamilyCheck(family, n, passed, witness) for n, passed, witness in checks))
    with _int_digits(0):
        expected = [
            json.dumps({"family": family, "n": n, "passed": passed, "witness": witness}) + "\n"
            for n, passed, witness in checks
        ]
        assert [cli._verify_line(json.dumps(report.family), check) for check in report.checks] == expected



def _verify_spans():
    # a dozen instances of each construction, from its first n
    for family in search.VERIFY_FAMILIES:
        low = search._VERIFY[family][0]
        yield family, f"{low}..{low + 11}", range(low, low + 12)


# for each pair of families of a construction, two knots that share no lens slope at den 1 or 2
_SHARING_NONE = {
    ("torus", "torus"): ((2, 3), (2, 5)),
    ("torus", "cable"): ((2, 3), (2, 3, 1)),
    ("torus", "tangleTH"): ((2, 3), (1,)),
    ("cable", "kplus"): ((2, 3, 1), (1, 2)),
    ("tangleHH", "kplus"): ((1,), (1, 2)),
}


def _with_a_failing_instance(monkeypatch, family, bad_n):
    # instance bad_n of family becomes two knots of its families that share no lens slope
    low, den, walk, first, second, params_of = search._VERIFY[family]

    def failing(n, *walked):
        return _SHARING_NONE[first, second] if n == bad_n else params_of(n, *walked)

    monkeypatch.setitem(search._VERIFY, family, (low, den, walk, first, second, failing))


@pytest.mark.parametrize("family,span,ns", _verify_spans())
@pytest.mark.parametrize("bad_n", [None, "second"])
def test_verify_streams_the_lines_of_its_report(monkeypatch, capsys, family, span, ns, bad_n):
    if bad_n:
        _with_a_failing_instance(monkeypatch, family, ns[1])
    report = search.verify_family(family, ns)
    code = 1 if bad_n else 0
    assert run(["--jsonl", "verify", family, "--range", span]) == code
    assert capsys.readouterr().out.splitlines() == [json.dumps(check._asdict()) for check in report.checks]
    assert run(["verify", family, "--range", span]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines == report.lines()
    assert lines[-1] == f"{family}: {12 - bool(bad_n)}/12 instances verified"


class _Sink:
    """A stdout that keeps nothing and raises BrokenPipeError once ``lines`` lines are written."""

    def __init__(self, lines=None):
        self.lines, self.written = lines, 0

    def write(self, text):
        if self.written == self.lines:
            raise BrokenPipeError(32, "Broken pipe")
        self.written += text.count("\n")
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("jsonl", [["--jsonl"], []])
def test_verify_memory_is_flat_in_the_range(monkeypatch, jsonl):
    # while verify kept every check before its first line, the peak that tracemalloc traced at
    # torus_torus 1..3000 was 13.4 MiB under --jsonl and 26.1 MiB in plain text; streamed, it
    # is below 0.3 MiB
    monkeypatch.setattr(sys, "stdout", _Sink())
    tracemalloc.start()
    try:
        assert run([*jsonl, "verify", "torus_torus", "--range", "1..3000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("jsonl", [["--jsonl"], []])
def test_a_closed_stdout_stops_verify_at_once(monkeypatch, jsonl):
    built = []
    *row, params_of = search._VERIFY["torus_cable"]
    monkeypatch.setitem(search._VERIFY, "torus_cable", (*row, lambda n: built.append(n) or params_of(n)))
    monkeypatch.setattr(sys, "stdout", _Sink(lines=1))
    with pytest.raises(BrokenPipeError):
        run([*jsonl, "verify", "torus_cable", "--range", "1..10000"])
    assert built == [1, 2]  # the second line is made, and its write meets the closed pipe


@pytest.mark.parametrize("family,span", [(argv[1], argv[3]) for argv in DIGESTS if argv[0] == "verify"])
def test_verify_output_bytes(family, span, capsys):
    # in-process, verify prints the bytes pinned for a fresh interpreter
    for argv in (("verify", family, "--range", span), ("--jsonl", "verify", family, "--range", span)):
        assert run(list(argv)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DIGESTS[argv]


@pytest.mark.parametrize("workers", [1, 2])
def test_search_streams_the_records_of_find_coincidences(workers, tmp_path, capsys):
    # the lines written shard by shard are those of the records listed at once, and --out gets each too
    out_file = tmp_path / "records.jsonl"
    argv = ["--jsonl", "search", *SEARCH_CI.split(), "--workers", str(workers), "--out", str(out_file)]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    records = search.find_coincidences(SearchConfig(**CI_BOUNDS, workers=workers))
    assert out == "".join(record.to_json() + "\n" for record in records)
    assert out_file.read_text() == out
    assert err == f"{len(records)} coincidence records, largest certified-distinct group: 2\n"


@pytest.mark.parametrize("jsonl", [["--jsonl"], []])
def test_a_closed_stdout_stops_search_after_its_first_shard(monkeypatch, tmp_path, jsonl):
    shards, shard_records = [], search._shard_records
    monkeypatch.setattr(search, "_shard_records", lambda task: shards.append(task[1:]) or shard_records(task))
    monkeypatch.setattr(sys, "stdout", _Sink(lines=1))
    out_file = tmp_path / "records.jsonl"
    with pytest.raises(BrokenPipeError):
        run([*jsonl, "search", *SEARCH_CI.split(), "--workers", "1", "--out", str(out_file)])
    assert shards == [(1, 1 + search._SHARD_WIDTH)]  # of 13
    # --out holds the records written before the pipe closed: the second meets it on stdout
    first = search.find_coincidences(SearchConfig(**CI_BOUNDS))[:2]
    assert out_file.read_text() == "".join(record.to_json() + "\n" for record in first)


def test_a_closed_pipe_stops_a_search_far_too_long_to_finish():
    # the first line comes after one shard, so `| head -1` ends a search of minutes; a pool that
    # waited for its queued shards would still be running at the deadline
    bounds = "--order-max 30000000 --torus-max 30000000 --cable-max 30000000 --kplus-max 300 --tangle-max 200"
    argv = [sys.executable, "-m", "lenspairs", "--jsonl", "search", *bounds.split(), "--workers", "2"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
                            start_new_session=True)
    deadline = threading.Timer(20, os.killpg, (proc.pid, signal.SIGKILL))  # the pool workers too
    deadline.start()
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
    finally:
        deadline.cancel()
    assert first.decode() == search.find_coincidences(SearchConfig(**CI_BOUNDS))[0].to_json() + "\n"
    assert err == b""  # no summary line
