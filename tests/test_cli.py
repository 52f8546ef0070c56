import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lenspairs import cli, knots
from lenspairs.cli import build_parser, run
from lenspairs.search import SearchConfig
from lenspairs.sequences import IDENTITIES, fib

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
        return []

    monkeypatch.setattr("lenspairs.search.find_coincidences", capture)
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

    monkeypatch.setattr("lenspairs.search.find_coincidences", no_search)
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


def _fresh_env():
    # the source tree this test imported, and a fixed width for argparse's usage text
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, COLUMNS="80")


def _fresh(argv):
    proc = subprocess.run([sys.executable, "-m", "lenspairs", *argv], capture_output=True, text=True,
                          env=_fresh_env(), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env(),
                          timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_closed_stdout_exits_141_without_a_traceback():
    # about 360 kB of output, far more than a pipe buffers, so the writer meets the closed pipe
    argv = [sys.executable, "-m", "lenspairs", "verify", "torus_cable", "--range", "1..3000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"PASS torus_cable n=1 ")
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
