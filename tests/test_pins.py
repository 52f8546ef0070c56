"""Every pinned command-line output, in one table.

Each row's argvs of ``python -m lenspairs`` run in a fresh interpreter, each within the row's timeout in
seconds, and must exit 0 and print the same stdout, with the row's sha256 and line count where it pins them.
A digest is written here once; the tests that check the same bytes in-process read it from ``DIGESTS``.
"""

import collections
import contextlib
import hashlib
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from lenspairs import cli

ROOT = Path(__file__).resolve().parents[1]


class Pin(NamedTuple):
    argvs: tuple
    timeout: float
    sha256: str | None
    lines: int | None = None


def _search(bounds, *runs):
    return tuple(("--jsonl", "search", *bounds.split(), *run.split()) for run in runs)


# the search bounds of the benchmark and CI, where the largest buckets have three members
SEARCH_CI = "--order-max 50000 --torus-max 3000 --cable-max 3000 --kplus-max 300 --tangle-max 100"

PINS = (
    # the six verified families at the benchmark's ranges, plain and --jsonl, and the two torus
    # families at three and four times those ranges
    *(Pin(((*mode.split(), "verify", family, "--range", span),), 60, sha256) for mode, family, span, sha256 in (
        ("", "cable_kplus", "3..300", None),  # which an O(p) phi scan could not finish
        ("", "torus_torus", "1..1000", "830f2091593b502597f2ca604ab6bec079640828bf4e4ed54d8d80d9d18e5c89"),
        ("", "torus_torus_half", "1..500", "3ed15efaa010cb4bdd5f1a6266ac39f150f5ad1ddf953baa26c5572ec343e431"),
        ("", "torus_cable", "1..10000", "3a3c23716059735906e97c41155ee9ded3fcde2097191d70fc28adccce4b6c7d"),
        ("", "tangle_kplus", "1..2000", "39d99f00a5309166c1386295d890f54b0a20f1f4e3aac2e45b3cd2522077428a"),
        ("", "torus_tangle", "1..10000", "7e798a6acc975741d6d1746915cb1b138530d829bb7d0d1403db55e322f2cd29"),
        ("", "cable_kplus", "3..16", "5b8152014e83148301af83781f1d1a209caef46c04bf2a3234c256bb0bfd2a5e"),
        ("--jsonl", "torus_torus", "1..1000", "35c8caf06b04fd8afd41251347e49bc1dd2c5be4c376dda86446f8ca1b22febd"),
        ("--jsonl", "torus_torus_half", "1..500", "fa6f4ce20680940dab6dcfaaf616ebb496654c53873d6fd9f574a247e7c8ab99"),
        ("--jsonl", "torus_cable", "1..10000", "77c646c03c02a3306417667b771e2dc5494067d920bb3b3d64fd62d3fc09bc49"),
        ("--jsonl", "tangle_kplus", "1..2000", "21fa34c5c0421d0ba7a985e67a44aa73a946d9d46424063313638039a22e43f2"),
        ("--jsonl", "torus_tangle", "1..10000", "f584b4853af8c2d47320369c3b36b67f92d9678657c8f12f9ec94180c43360da"),
        ("--jsonl", "cable_kplus", "3..16", "84009925f6f6b0986dff9317212363414157e75253e98f0f0a3e13f3494466d4"),
        ("--jsonl", "torus_torus", "1..3000", "39933b54027c1d1721017576bf11dd89502f098eccbf3d425892a769eb7e2ac3"),
        ("--jsonl", "torus_torus_half", "1..2000", "32b010eaab20b967e3dc891229efe0d93ea80ebc732e332bc2226aa58b11fe52"),
        # Fibonacci and Pell scale: parameters of about 2000 digits
        ("--jsonl", "torus_torus", "9991..10000", "06c7341cf74a61bf9aedc59bf799d55251fc7782fbd69bd11795dd422969671a"),
        ("--jsonl", "torus_torus_half", "4991..5000", "62961e36258839698188165aca9f8e087b4aadc05f9aae1e9ab8890174c5b508"),
    )),
    # a large prime dividing the discriminant, which solve must not walk the residues of
    Pin((("bqf", "solve", "1", "0", "-1000000007", "1000000007", "--count", "1"),), 10, None),
    # the shared continued-fraction walk at scale: identities to n = 2000 and an 88k-bit unit
    Pin((("identities", "--range", "2000"),), 60, None),
    # the walked identities to n = 3000, plain and --jsonl
    Pin((("identities", "--range", "3000"),), 60, "19fd584b0e4f950ee08d31a6e1bba279c246f664881d4bdfd42933349e7903ca"),
    Pin((("--jsonl", "identities", "--range", "3000"),), 60,
        "85de69156e852b5d833ac722bc69fa97fabdeb296fdf8f3c6f7a3fd7a2975a33"),
    Pin((("bqf", "unit", "999999937"),), 10, None),
    # search prints the same records on 1 and 2 workers, and with families and denominators in
    # another order
    Pin(_search(SEARCH_CI, "--workers 1", "--workers 2",
                "--workers 1 --families tangleTH,torus,kplus,cable,tangleHH --denominators 2,1"), 120,
        "4731e0bc6da12506049eea1136611c6f4f3515c2320ee58b93637b01c4f3f9f0"),
    # a third denominator, so the bucketing loop runs at scale: 937 records
    Pin(_search("--order-max 200000 --torus-max 200000 --cable-max 200000 --kplus-max 300 --tangle-max 200"
                " --denominators 1,2,3", "--workers 1", "--workers 2"), 120,
        "de721871a4dce18bac6beda593d4116a70a025dc0b91b54319b472a580d4b2de"),
    # order 10^6, where runs of regular torus and cable rows span whole shards of both layouts
    Pin(_search("--order-max 1000000 --torus-max 1000000 --cable-max 1000000 --kplus-max 300 --tangle-max 200",
                "--workers 2", "--workers 1"), 60,
        "395d0ca378ecaea1582c410435bc2a8e8cafd166cc23d03abcbe58833a5ac528", lines=1490),
)

DIGESTS = {argv: pin.sha256 for pin in PINS if pin.sha256 for argv in pin.argvs}


def fresh_env():
    # the source tree this test imported, and a fixed width for argparse's usage text
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, COLUMNS="80")


def run_fresh(args, timeout):
    """(exit code, stdout, stderr) of ``python *args``; past ``timeout`` its whole session is killed."""
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=fresh_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
        proc.communicate()
        raise
    return proc.returncode, out, err


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(pin.argvs[0]) for pin in PINS])
def test_pin(pin):
    digests = []
    for argv in pin.argvs:
        code, out, err = run_fresh(["-m", "lenspairs", *argv], pin.timeout)
        assert code == 0, (argv, err)
        if pin.lines is not None:
            assert out.count(b"\n") == pin.lines, argv
        digests.append(hashlib.sha256(out).hexdigest())
    assert digests == [pin.sha256 or digests[0]] * len(digests)


def _live_members(pgid):
    """Pids in process group ``pgid`` that have not exited."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):
            state, _, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
            if int(group) == pgid and state not in "ZX":
                live.append(int(stat.parent.name))
    return live


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process groups from /proc")
def test_a_timed_out_pin_leaves_no_process(monkeypatch):
    killed, killpg = [], os.killpg

    def recorded(pgid, sig):
        killed.append((pgid, _live_members(pgid)))
        killpg(pgid, sig)

    monkeypatch.setattr(os, "killpg", recorded)
    argv = PINS[-1].argvs[0]  # the order-10^6 search on 2 workers
    assert argv[-2:] == ("--workers", "2")
    with pytest.raises(subprocess.TimeoutExpired):
        run_fresh(["-m", "lenspairs", *argv], 0.5)
    ((pgid, members),) = killed
    assert len(members) >= 3  # the command and its two pool workers, which start within 0.1 s
    for _ in range(100):  # SIGKILL is sent, but the kernel may take a moment to end each process
        if not _live_members(pgid):
            break
        time.sleep(0.05)
    assert _live_members(pgid) == []


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_exits_0(demo):
    code, _, err = run_fresh([str(ROOT / "demos" / demo)], 60)
    assert code == 0, err


def test_each_digest_is_written_once():
    # the benchmark records and the change log quote digests as history; a tracked file
    # deleted from the working tree is still listed, and holds no digest
    command = ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"]
    names = subprocess.run(command, cwd=ROOT, capture_output=True, check=True).stdout
    places = collections.defaultdict(list)
    for name in filter(None, names.decode().split("\0")):
        if name != "CHANGES.md" and not re.fullmatch(r"BENCH_.*\.json", name) and (ROOT / name).is_file():
            for digest in re.findall(rb"(?<![0-9a-f])[0-9a-f]{64}(?![0-9a-f])", (ROOT / name).read_bytes()):
                places[digest.decode()].append(name)
    assert {digest: names for digest, names in places.items() if len(names) > 1} == {}
