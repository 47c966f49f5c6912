import json
import os
import subprocess
import sys

import pytest

from polyadic.cli import main

RUN_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


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

    def test_unwritable_out_exits_5(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for argv in (["table", "--out", str(blocker / "dir")],
                     ["scan", "--bmax", "2", "--qmax", "2", "--out", str(tmp_path)],
                     ["arity", "--a", "3", "--b", "4", "--out", str(blocker / "x")]):
            code, out, err = run_main(capsys, *argv)
            assert code == 5 and out == "", argv
            assert err.startswith("error: cannot write ") and err.count("\n") == 1, argv

    def test_closed_stdout_exits_5(self):
        # The scan writes far more than a pipe holds, so it is still writing
        # when the reader goes away after ten bytes.
        proc = subprocess.Popen(
            [sys.executable, "-m", "polyadic.cli", "scan", "--bmax", "12", "--qmax", "12"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=RUN_ENV)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 5
        assert err == "error: cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_5(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "polyadic.cli", "arity", "--a", "3", "--b", "4"],
                stdout=full, stderr=subprocess.PIPE, env=RUN_ENV, timeout=60)
        assert proc.returncode == 5
        assert proc.stderr.decode() == "error: cannot write stdout: No space left on device\n"


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

    def test_finite_report_keys(self, capsys):
        code, out, _ = run_main(
            capsys, "finite", "--a", "5", "--b", "8", "--q", "2",
            "--format", "json")
        payload = json.loads(out)
        assert payload["is_field"] and payload["zeroless"] and payload["nonunital"]
        assert list(payload)[:4] == ["a", "b", "m", "n"]
        assert payload["chi_p"] is None

    def test_group_json(self, capsys):
        code, out, _ = run_main(
            capsys, "group", "--a", "7", "--b", "8", "--q", "8",
            "--format", "json")
        payload = json.loads(out)
        assert payload["split"] is True
        assert payload["subgroups"] == [[0, 2, 4, 6], [1, 5]]

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


class TestSubprocessDeterminism:
    def run(self, threads):
        env = dict(RUN_ENV)
        env["POLYADIC_THREADS"] = str(threads)
        return subprocess.run(
            [sys.executable, "-m", "polyadic.cli", "scan",
             "--bmax", "6", "--qmax", "6"],
            capture_output=True, env=env, check=True).stdout

    def test_scan_bytes_do_not_depend_on_thread_count(self):
        assert self.run(1) == self.run(4)

    def test_table_bytes_do_not_depend_on_thread_count(self, tmp_path):
        outs = []
        for threads in (1, 3):
            env = dict(RUN_ENV)
            env["POLYADIC_THREADS"] = str(threads)
            outdir = tmp_path / f"t{threads}"
            subprocess.run(
                [sys.executable, "-m", "polyadic.cli", "table",
                 "--out", str(outdir)],
                capture_output=True, env=env, check=True)
            tables = outdir / "tables"
            outs.append({p.name: p.read_bytes() for p in tables.iterdir()})
        assert outs[0] == outs[1]
