"""The cost contract: hostile inputs that must finish within a time and memory bound.

Each row of ROWS runs one interpreter, `python ARGV`, and states what it
must print, its exit code, its wall-time budget and, where memory is the
point, a bound on its peak RSS.  The bounds are those of the command's
cost in the README ("Cost of each command"); a row whose input the
program still cannot bound is not listed here but in ROADMAP.

Each row is started by LAUNCHER, a separate small interpreter, because
Linux seeds a new process's ru_maxrss with the peak of the process that
spawned it: spawned from pytest, every row would read pytest's peak.  The
launcher caps its own address space at ADDRESS_SPACE_CAP, which the row
inherits, so a runaway allocation fails fast.  It spawns the row with
stdout on a pipe, reads the row's stdout (or only its first line, after
which it closes the pipe), kills the row once it runs past its budget,
and reaps it with os.wait4 for its exit code and peak RSS.  The row's
stderr is the launcher's own, which writes nothing else there.

-O strips assert statements, so nothing an output depends on may be one.
Three rows run under -O: the first walk-bound row, the scan 24x24 lines
against the digest pinned in perfbench/expected.json, and the files of
`table --out` against tests/golden/tables.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from typing import NamedTuple, Optional

import pytest

from conftest import RUN_ENV

# Every row reads under 64 MB of RSS; the cap leaves room for a row that
# grows past its RSS bound to be measured rather than stopped.
ADDRESS_SPACE_CAP = 512 * 2**20

LAUNCHER = f"""\
import json, os, resource, signal, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_CAP}, {ADDRESS_SPACE_CAP}))
row = json.loads(sys.argv[1])
read, write = os.pipe()
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *row["argv"]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_DUP2, write, 1)])
os.close(write)

def kill(*_):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # it ended just before the alarm

signal.signal(signal.SIGALRM, kill)
signal.setitimer(signal.ITIMER_REAL, row["budget_s"])
try:
    with open(read, "rb") as pipe:
        out = pipe.readline() if row["first_line"] else pipe.read()
    _, status, usage = os.wait4(pid, 0)
finally:
    signal.setitimer(signal.ITIMER_REAL, 0)
print(json.dumps({{"code": os.waitstatus_to_exitcode(status),
                  "wall_s": time.perf_counter() - start,
                  "rss_mb": usage.ru_maxrss / 1024,
                  "stdout": out.decode()}}))
"""


class Row(NamedTuple):
    argv: tuple[str, ...]  # after the interpreter
    code: int
    budget_s: float
    stdout: Optional[str] = None  # the whole stdout, when short
    sha256: Optional[str] = None  # else its digest
    stderr: str = ""
    rss_mb: Optional[float] = None
    first_line: bool = False  # close the row's stdout after its first line


def cli(*argv: str) -> tuple[str, ...]:
    return ("-m", "polyadic.cli", *argv)


HERE = os.path.dirname(__file__)

with open(os.path.join(HERE, os.pardir, "perfbench", "expected.json")) as f:
    SCAN_24X24_SHA256 = json.load(f)["scan_sha256"]["24x24"]

# Runs table --out into a fresh directory and prints one "name sha256" line
# per written file, in name order, as `manifest` does for the golden files.
TABLE_OUT = """\
import contextlib, hashlib, io, os, sys, tempfile
from polyadic.cli import main
with tempfile.TemporaryDirectory() as tmp:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["table", "--out", tmp])
    tables = os.path.join(tmp, "tables")
    for name in sorted(os.listdir(tables)):
        with open(os.path.join(tables, name), "rb") as f:
            print(name, hashlib.sha256(f.read()).hexdigest())
sys.exit(code)
"""


def manifest(tables: str) -> str:
    lines = []
    for name in sorted(os.listdir(tables)):
        with open(os.path.join(tables, name), "rb") as f:
            lines.append(f"{name} {hashlib.sha256(f.read()).hexdigest()}\n")
    return "".join(lines)


HUGE_RINGS = """\
from polyadic.finite import (characteristic, element_order, find_zero, finite_ring,
                             is_field, mult_querelements)
for abq in ((1, 2, 2**61 - 1), (3, 4, 10**18), (2, 3, 10**40 + 1)):
    fr = finite_ring(*abq)
    print(fr, is_field(fr), find_zero(fr), element_order(fr, 1), mult_querelements(fr, 1),
          characteristic(fr))
"""

LONG_WORDS = """\
import hashlib
from polyadic.ring import make_descriptor, mu_long, nu_long
d, e = make_descriptor(1, 2), make_descriptor(2, 3)
total = nu_long([d.element(k) for k in range(100001)]).value
product = mu_long([e.element(k) for k in range(20001)]).value
print(total, product.bit_length(), hashlib.sha256(hex(product).encode()).hexdigest())
"""

ROWS = {
    # Classification walks each cycle of powers once, and the zero, the
    # field test, an element's order and its querelements are closed
    # forms; per-element walks took seconds and hundreds of MB at q = 4001.
    "finite-16001": Row(
        cli("finite", "--a", "1", "--b", "2", "--q", "16001"), 0, 20,
        sha256="ab6c8b2c791f357a81ca094778065e17a7983a7f15fd76e549d21e6cdc3f5551"),
    "group-16001": Row(
        cli("group", "--a", "1", "--b", "2", "--q", "16001"), 0, 20,
        sha256="d15349a2c9f7b29cb49c41ce6d5868fde3a8afc9d6b0cafbf5f6790040b724de"),
    # Text finite and group walk the q indices.  Above the walk bound they
    # exit 4 before they allocate; a bytearray(q) used to end in a
    # MemoryError or OverflowError traceback.  -O strips assert statements,
    # so the bound must not be one: the first row runs under -O.
    **{f"{command}-q{q}": Row(
        (*opt, *cli(command, "--a", "1", "--b", "2", "--q", str(q))), 4, 2, stdout="",
        rss_mb=50,
        stderr=f"error: q = {q} is above 10000000, the largest order walked index by index\n")
       for opt, command, q in ((("-O",), "finite", 10**10), ((), "finite", 2**61 - 1),
                               ((), "finite", 10**20), ((), "group", 10**10))},
    # scan checks --qmax against the same bound before its first line.
    "scan-qmax-10000001": Row(
        cli("scan", "--bmax", "2", "--qmax", "10000001"), 4, 2, stdout="", rss_mb=50,
        stderr="error: qmax must be <= 10000000\n"),
    # Any loop over the q indices would never finish at these orders.
    "huge-rings": Row(
        ("-c", HUGE_RINGS), 0, 20,
        sha256="2d75baa7690b322a6b9cce9e7f6444130e23eb493c6d042da64817078509b1f4"),
    # The arities are a closed form over a factorisation; a search of the
    # powers up to b did not finish these in 20 s.
    "large-moduli": Row(
        ("-c", "from polyadic.ring import derive_arities as d, allowed_residues as r\n"
               "print(d(2, 10**9 + 7), d(3, 10000019), len(r(10**6)))"), 0, 20,
        stdout="(1000000008, 500000004) (10000020, 5000010) 412532\n"),
    # No product of s factors of size >= 2 is below 2^s, so the lengths
    # stop there whatever the depth; a loop to the depth would hang.
    "depth-1e9": Row(
        ("-c", "from polyadic.arithmetic import decompositions as d\n"
               "from polyadic.ring import make_descriptor as r\n"
               "x = r(8, 10).from_value(-3072)\n"
               "print(d(x, 10**9) == d(x, 3), len(d(r(3, 4).from_value(3**41))))"), 0, 20,
        stdout="True 4486\n"),
    # An admissible word is one sum or one product; reducing it one m- or
    # n-ary chunk at a time copied the rest of the word at every step and
    # took 31.9 s for the sum alone.
    "long-words": Row(
        ("-c", LONG_WORDS), 0, 10,
        stdout="10000200001 288619 "
               "9d1b04e2ea032edf1458be1a27eb3bd44f89738652109a5fb20fdfebdfc86986\n"),
    # The (a, b) pairs are generated as the scan reaches them; a list of
    # every pair with b <= 10^6 was never finished, so nothing printed.
    # The reader then goes away, which the scan reports with exit 5.
    "scan-first-line": Row(
        cli("scan", "--bmax", "1000000", "--qmax", "2"), 5, 10,
        stdout='{"a":1,"b":2,"m":3,"n":2,"I":1,"J":0,"q":2,"q_star":2,"n_admissible":true,'
               '"zero":null,"units":[0],"kappa_e":1,"is_field":true,"chi_p":null,"lambda_p":2,'
               '"zeroless":true,"nonunital":false,"element_orders":{"0":1,"1":2},'
               '"group":{"subgroups":[[0,1]],"units":[0],"split":false,"covers":true,'
               '"primitive":[1],"reflections":{"1":1}}}\n',
        stderr="error: cannot write stdout: Broken pipe\n", first_line=True),
    # The pairs are written as they are found: 15.5 MB of output.  Building
    # the whole list first peaked at 220 MB.
    "remainder-1e6": Row(
        cli("remainder", "--a", "8", "--b", "10", "--dividend", "38", "--divisor", "-22",
            "--radius", "1000000", "--format", "json"), 0, 20,
        sha256="a076e013e17b15597a72258e20803db09a653f76df497d5dfcd4d425803f372b", rss_mb=40),
    # Polylog in b: the order of a modulo b0 comes from factoring b0.
    "arity-b1e30": Row(
        cli("arity", "--a", "1", "--b", str(10**30)), 0, 10,
        stdout='{"m":1000000000000000000000000000001,"n":2,"I":1,"J":0}\n'),
    # Polylog in the values: one factorisation of the dividend (978 digits).
    "divide-1000-digits": Row(
        cli("divide", "--a", "1", "--b", "4", "--dividend", str(5**1400), "--divisor", "5"), 0, 10,
        sha256="ec2641c7206dbfd92b78a1bf9c29272efaf96e1ba995005e8e04ceb1507dca18"),
    # A tall scan, 6,365,743 bytes: its residue rings outgrow the scan's
    # memo, which holds at most cli.SCAN_MEMO_INDICES indices.  It read
    # 0.55 s and 17.3 MB; unbounded, the memo read 31.5 MB, and a scan
    # without one 15.4 MB.
    "scan-3x600": Row(
        cli("scan", "--bmax", "3", "--qmax", "600"), 0, 10, rss_mb=20,
        sha256="6fc65db08975edc8cd0cf29d1d77097615306024a5b90de4e102e2e93f965a9c"),
    # The published bytes under -O: the scan lines and every table file.
    "scan-24x24-O": Row(
        ("-O", *cli("scan", "--bmax", "24", "--qmax", "24")), 0, 20, sha256=SCAN_24X24_SHA256),
    "table-out-O": Row(
        ("-O", "-c", TABLE_OUT), 0, 20, stdout=manifest(os.path.join(HERE, "golden", "tables"))),
}


def launch(row: Row) -> tuple[dict, str]:
    """The row's exit code, wall seconds, peak RSS and stdout, and its stderr."""
    request = json.dumps({"argv": row.argv, "budget_s": row.budget_s,
                          "first_line": row.first_line})
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, request], capture_output=True,
                          text=True, env=RUN_ENV, timeout=row.budget_s + 60)
    assert proc.returncode == 0 and proc.stdout, proc.stderr
    return json.loads(proc.stdout), proc.stderr


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_cost_contract(row):
    result, stderr = launch(row)
    killed = result["code"] == -signal.SIGKILL
    assert not killed and result["wall_s"] <= row.budget_s, (
        f"ran {result['wall_s']:.2f} s, budget {row.budget_s} s")
    if row.rss_mb is not None:
        assert result["rss_mb"] < row.rss_mb, f"peak RSS {result['rss_mb']:.1f} MB"
    assert (result["code"], stderr) == (row.code, row.stderr)
    out = result["stdout"]
    if row.sha256 is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == row.sha256
    else:
        assert out == row.stdout
