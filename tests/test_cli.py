import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from argparse import Namespace

import pytest

from conftest import RUN_ENV
from polyadic.cli import _cmd_scan, main


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExamples:
    def test_arity_output_is_bit_exact(self, capsys):
        code, out, _ = run_main(capsys, "arity", "--a", "3", "--b", "4")
        assert code == 0
        assert out == '{"m":5,"n":3,"I":3,"J":6}\n'

    def test_divide(self, capsys):
        code, out, _ = run_main(
            capsys, "divide", "--a", "4", "--b", "9",
            "--dividend", "256", "--divisor", "4")
        assert code == 0 and out == "4\n"

    def test_forbidden_pair_exits_2(self, capsys):
        code, _, err = run_main(capsys, "arity", "--a", "2", "--b", "4")
        assert code == 2 and "no closed" in err

    def test_not_a_field_exits_3(self, capsys):
        code, _, _ = run_main(capsys, "group", "--a", "2", "--b", "3", "--q", "6")
        assert code == 3

    def test_not_limiting_exits_3(self, capsys):
        code, out, err = run_main(capsys, "primes", "--a", "2", "--b", "5", "--kmax", "2")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_arguments_exit_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["arity", "--a", "3"])
        assert exc.value.code == 4

    def test_unknown_appendix_field_exits_4(self, capsys):
        code, _, _ = run_main(capsys, "appendix", "--a", "1", "--b", "2", "--q", "3")
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ["finite", "--a", "5", "--b", "8", "--q", "2", "--format", "csv"],
        ["group", "--a", "7", "--b", "8", "--q", "8", "--format", "md"],
        ["arity", "--a", "3", "--b", "4", "--format", "json"],
        ["appendix", "--a", "2", "--b", "3", "--q", "5", "--format", "text"],
        ["table", "--format", "text"],
    ])
    def test_format_without_effect_exits_4(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4

    def test_removed_lmax_exits_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["euler", "--a", "1", "--b", "29", "--kmax", "10", "--lmax", "3"])
        assert exc.value.code == 4

    def test_negative_kmax_exits_4(self, capsys):
        code, out, err = run_main(
            capsys, "primes", "--a", "43", "--b", "44", "--kmax", "-3")
        assert code == 4 and out == "" and "k_max" in err

    def test_negative_radius_exits_4(self, capsys):
        code, out, err = run_main(
            capsys, "remainder", "--a", "8", "--b", "10",
            "--dividend", "38", "--divisor", "-22", "--radius", "-100")
        assert code == 4 and out == "" and "radius" in err

    @pytest.mark.parametrize("bounds, message", [
        (("-5", "4"), "bmax"),
        (("0", "0"), "bmax"),
        (("4", "-2"), "qmax"),
        (("4", "1"), "qmax"),
    ])
    def test_scan_bounds_below_the_grid_exit_4(self, capsys, bounds, message):
        code, out, err = run_main(
            capsys, "scan", "--bmax", bounds[0], "--qmax", bounds[1])
        assert code == 4 and out == "" and message in err

    @pytest.mark.parametrize("command", ["finite", "group"])
    def test_out_of_memory_exits_4(self, capsys, monkeypatch, command):
        def exhausted(fr):
            raise MemoryError

        monkeypatch.setattr("polyadic.finite.power_cycles", exhausted)
        code, out, err = run_main(capsys, command, "--a", "1", "--b", "2", "--q", "5")
        assert (code, out, err) == (4, "", "error: out of memory\n")

    def test_unwritable_out_exits_5(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for argv in (["table", "--out", str(blocker / "dir")],
                     ["scan", "--bmax", "2", "--qmax", "2", "--out", str(tmp_path)],
                     ["arity", "--a", "3", "--b", "4", "--out", str(blocker / "x")]):
            code, out, err = run_main(capsys, *argv)
            assert code == 5 and out == "", argv
            assert err.startswith("error: cannot write ") and err.count("\n") == 1, argv

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_5(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "polyadic.cli", "arity", "--a", "3", "--b", "4"],
                stdout=full, stderr=subprocess.PIPE, env=RUN_ENV, timeout=60)
        assert proc.returncode == 5
        assert proc.stderr.decode() == "error: cannot write stdout: No space left on device\n"


@pytest.fixture
def unlimited_int_digits():
    """Lift CPython's limit on converting ints of over 4300 digits, where it exists."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class TestExactIntegers:
    @pytest.mark.parametrize("command", [
        ["arity"], ["ring", "--format", "json"], ["finite", "--q", "5", "--format", "json"],
    ], ids=["arity", "ring", "finite"])
    def test_shape_invariant_beyond_the_digit_limit_is_printed(
            self, command, unlimited_int_digits):
        # n = 30011 for [[2]]_30011, so J = (2^n - 2)/30011 has 9,030 digits,
        # over CPython's default int-to-str limit of 4300.
        proc = subprocess.run(
            [sys.executable, "-m", "polyadic.cli", *command, "--a", "2", "--b", "30011"],
            capture_output=True, text=True, env=RUN_ENV, timeout=60)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert len(str(payload["J"])) > 4300
        assert payload["J"] * 30011 == 2 ** payload["n"] - 2


class TestPayloads:
    def test_primes_json(self, capsys):
        code, out, _ = run_main(
            capsys, "primes", "--a", "43", "--b", "44", "--kmax", "2",
            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["primes"] == [-45, -1, 43, 87, 131]
        assert payload["pi"] == 5
        assert payload["delta"] == [-45, 87]

    def test_euler_json(self, capsys):
        code, out, _ = run_main(
            capsys, "euler", "--a", "31", "--b", "32", "--kmax", "5",
            "--format", "json")
        payload = json.loads(out)
        assert payload["phi"] == 6
        assert payload["members"] == [-97, -65, -1, 31, 95, 127]

    def test_remainder_includes_published_pair(self, capsys):
        code, out, _ = run_main(
            capsys, "remainder", "--a", "8", "--b", "10",
            "--dividend", "38", "--divisor", "-22",
            "--radius", "2", "--format", "json")
        assert [-2, 78] in json.loads(out)

    # The bytes of the command when it built the whole list before printing.
    @pytest.mark.parametrize("values, fmt, expected", [
        (("8", "10", "38", "-22"), "json", "[[-2,78],[48,23357038]]\n"),
        (("8", "10", "38", "-22"), "text", "(-2, 78)\n(48, 23357038)\n"),
        (("3", "4", "-9", "-9"), "json", "[]\n"),
        (("3", "4", "-9", "-9"), "text", "no remainder pairs in the searched range\n"),
    ], ids=["pairs-json", "pairs-text", "empty-json", "empty-text"])
    def test_remainder_bytes(self, capsys, values, fmt, expected):
        a, b, x1, x2 = values
        code, out, _ = run_main(
            capsys, "remainder", "--a", a, "--b", b, "--dividend", x1,
            "--divisor", x2, "--radius", "2", "--format", fmt)
        assert code == 0 and out == expected

    # The README's example inputs, in each --format the command accepts.
    @pytest.mark.parametrize("argv, expected", [
        ("ring --a 8 --b 10",
         "Z_(6,5)^[8,10]: I=4 J=3276 limiting=no units=none\n"),
        ("ring --a 8 --b 10 --format json",
         '{"a":8,"b":10,"m":6,"n":5,"I":4,"J":3276,"limiting":false,"units":[]}\n'),
        ("primes --a 50 --b 51 --kmax 5",
         "Z_(52,3)^[50,51] k_max=5\n"
         "primes gap: (-2500, 2600)\n"
         "primes: -205, -154, -103, -52, -1, 50, 101, 152, 203, 254, 305\n"
         "pi = 11\n"
         "binary-composite primes: -205, -154, -52, 50, 152, 203, 254, 305\n"),
        ("primes --a 50 --b 51 --kmax 5 --format json",
         '{"gap":[-2500,2600],"primes":[-205,-154,-103,-52,-1,50,101,152,203,254,305],'
         '"pi":11,"delta":[-205,-154,-52,50,152,203,254,305]}\n'),
        ("euler --a 1 --b 29 --kmax 10",
         "Z_(30,2)^[1,29] k_max=10\n"
         "S = {-260, -202, -173, -115, -86, -28, 1, 59, 88, 146, 175, 233, 262}\n"
         "phi = 13\n"),
        ("euler --a 1 --b 29 --kmax 10 --format json",
         '{"members":[-260,-202,-173,-115,-86,-28,1,59,88,146,175,233,262],"phi":13}\n'),
        ("divide --a 4 --b 9 --dividend 256 --divisor 4 --format json",
         '{"quotient":4}\n'),
        ("finite --a 5 --b 8 --q 2",
         "Z_(9,3)^[5,8](2): field=yes\n"
         "zero: none\n"
         "units: none (kappa_e=0)\n"
         "q* = 2 (not n-admissible)\n"
         "chi_p = undefined\n"
         "lambda_p = 2\n"),
        ("finite --a 5 --b 8 --q 2 --format json",
         '{"a":5,"b":8,"m":9,"n":3,"I":5,"J":15,"q":2,"q_star":2,"n_admissible":false,'
         '"zero":null,"units":[],"kappa_e":0,"is_field":true,"chi_p":null,"lambda_p":2,'
         '"zeroless":true,"nonunital":true,"element_orders":{"0":2,"1":2}}\n'),
    ], ids=["ring-text", "ring-json", "primes-text", "primes-json", "euler-text",
            "euler-json", "divide-json", "finite-text", "finite-json"])
    def test_output_bytes(self, capsys, argv, expected):
        code, out, err = run_main(capsys, *argv.split())
        assert code == 0 and err == "" and out == expected

    def test_remainder_json_is_json_dumps(self, capsys, tmp_path):
        from polyadic.arithmetic import divide_with_remainder
        from polyadic.ring import make_descriptor

        d = make_descriptor(8, 10)
        pairs = divide_with_remainder(d.from_value(38), d.from_value(-22), 3 + 300)
        expected = json.dumps([[q.value, r.value] for q, r in pairs],
                              separators=(",", ":")) + "\n"
        argv = ("remainder", "--a", "8", "--b", "10", "--dividend", "38",
                "--divisor", "-22", "--radius", "300", "--format", "json")
        code, out, _ = run_main(capsys, *argv)
        assert code == 0 and out == expected and out.count("],[") == 120
        path = tmp_path / "pairs.json"
        assert run_main(capsys, *argv, "--out", str(path))[0] == 0
        assert path.read_text(encoding="utf-8") == expected

    def test_finite_report_keys(self, capsys):
        code, out, _ = run_main(
            capsys, "finite", "--a", "5", "--b", "8", "--q", "2",
            "--format", "json")
        payload = json.loads(out)
        assert payload["is_field"] and payload["zeroless"] and payload["nonunital"]
        assert list(payload)[:4] == ["a", "b", "m", "n"]
        assert payload["chi_p"] is None

    @pytest.mark.parametrize("field, digest", [
        ((5, 6, 6), "c4cc878fda63fb7ca5c66a901b319f838578835dc520a2cb38a6b0470f18e60b"),
        ((5, 6, 4), "f8c3d518c6bc407eda7cc41fd61257891f5ee2111fd3178aad881e057cceda28"),
        ((3, 8, 2), "33272ccab88cb11af3eddd6a7b4b504fbeddf8fc64fafdbc6b22aad2b86b65e2"),
        ((7, 8, 2), "7281b652c5b76aa37d0ad3578e80fa3b25fd7882d1542279de43257e3a7ba757"),
        ((2, 3, 5), "3418e02ee255d3317fa7862bf2d852c770b1ca949565b867c280726e9497102b"),
    ], ids=["5_6_6", "5_6_4", "3_8_2", "7_8_2", "2_3_5"])
    def test_appendix_json_bytes_are_pinned(self, capsys, field, digest):
        a, b, q = map(str, field)
        code, out, _ = run_main(capsys, "appendix", "--a", a, "--b", b, "--q", q,
                                "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_group_json(self, capsys):
        code, out, _ = run_main(
            capsys, "group", "--a", "7", "--b", "8", "--q", "8",
            "--format", "json")
        payload = json.loads(out)
        assert payload["split"] is True
        assert payload["subgroups"] == [[0, 2, 4, 6], [1, 5]]

    def test_group_tie_order_is_pinned(self, capsys):
        # All four subgroups start at 1, so their order is that of the
        # candidate set in groups.decompose, which the output bytes keep.
        code, out, _ = run_main(capsys, "group", "--a", "1", "--b", "2", "--q", "8")
        assert code == 0
        assert out == (
            "Z_(3,2)^[1,2](8) multiplicative group\n"
            "G1 = {1, 7}\n"
            "G2 = {1, 5, 9, 13}\n"
            "G3 = {1, 15}\n"
            "G4 = {1, 3, 9, 11}\n"
            "E(G) = {1}\n"
            "disjoint=False covers=True split=False\n"
            "primitive: none (kappa_prim=0)\n"
            "reflections: 3->3, 5->3, 7->1, 9->1, 11->3, 13->3, 15->1\n"
        )

    def test_ring_text_uses_standard_notation(self, capsys):
        code, out, _ = run_main(capsys, "ring", "--a", "3", "--b", "4")
        assert out.startswith("Z_(5,3)^[3,4]")


class TestScan:
    def test_ordering_and_shape(self, capsys):
        code, out, _ = run_main(capsys, "scan", "--bmax", "3", "--qmax", "3")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        keys = [(r["b"], r["a"], r["q"]) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 3 * 2  # (1,2), (1,3), (2,3) each with q = 2, 3
        for row in rows:
            if row["is_field"]:
                assert "group" in row

    def test_subgroup_tie_order_is_pinned(self, capsys):
        code, out, _ = run_main(capsys, "scan", "--bmax", "2", "--qmax", "16")
        assert code == 0
        row = json.loads(out.splitlines()[-1])
        assert (row["a"], row["b"], row["q"]) == (1, 2, 16)
        assert row["group"]["subgroups"] == [
            [0, 1, 4, 5, 8, 9, 12, 13], [0, 15], [0, 2, 4, 6, 8, 10, 12, 14],
            [0, 3, 8, 11], [0, 7],
        ]

    def test_scan_40x40_bytes_are_pinned(self, capsys, tmp_path):
        # 26,598 rings: orders above 24, and 132 fields whose subgroups tie
        # on their least element.  Defining the tie order by the whole tuple
        # (ROADMAP item 2) re-pins this digest along with the tie-order tests.
        target = tmp_path / "scan.jsonl"
        code, out, _ = run_main(
            capsys, "scan", "--bmax", "40", "--qmax", "40", "--out", str(target))
        assert code == 0 and out == ""
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "62d0590a21aefd87681c8251c42362143175ac9063d518de7819dcf24811d80b")

    def test_first_line_comes_before_the_grid_is_built(self, capsys):
        # The (a, b) pairs are generated as the scan reaches them; a list of
        # all pairs with b <= 1000 took 36 MB before the first line.
        tracemalloc.start()
        try:
            line = next(iter(_cmd_scan(Namespace(bmax=1000, qmax=2))))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        code, out, _ = run_main(capsys, "scan", "--bmax", "2", "--qmax", "2")
        assert code == 0 and line == out.splitlines(keepends=True)[0]

    def test_out_flag_writes_the_file(self, capsys, tmp_path):
        target = tmp_path / "scan.jsonl"
        code, out, _ = run_main(
            capsys, "scan", "--bmax", "2", "--qmax", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().count("\n") == 1


class TestTableCommand:
    def test_stdout_mode_prints_all_tables(self, capsys):
        code, out, _ = run_main(capsys, "table", "--format", "md")
        assert code == 0
        assert "Polyadic characteristics" in out
        assert "Idempotence orders" in out
        assert "| 10 | 9 |" in out

    @pytest.mark.parametrize("fmt", ["json", "csv", "md"])
    def test_stdout_mode_matches_the_golden_files(self, capsys, fmt):
        golden = os.path.join(os.path.dirname(__file__), "golden", "tables")
        texts = []
        for table in ("T0", "T1", "T2"):
            with open(os.path.join(golden, f"{table}.{fmt}"), encoding="utf-8",
                      newline="") as f:
                texts.append(f.read())
        code, out, _ = run_main(capsys, "table", "--format", fmt)
        assert code == 0
        assert out == ("\n" if fmt == "md" else "").join(texts)

    def test_out_mode_matches_the_golden_files(self, capsys, tmp_path):
        golden = os.path.join(os.path.dirname(__file__), "golden", "tables")
        code, out, _ = run_main(capsys, "table", "--out", str(tmp_path))
        assert code == 0
        written = sorted(os.listdir(tmp_path / "tables"))
        assert written == sorted(os.listdir(golden))
        for name in written:
            with open(tmp_path / "tables" / name, "rb") as f1:
                with open(os.path.join(golden, name), "rb") as f2:
                    assert f1.read() == f2.read(), name
