"""The benchmark's own test, on reduced sizes.  Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that every workload, traced and untraced, passes its output
checks and emits exactly the metrics BENCHMARK.json names, with their
units; that traced counts repeat exactly; that arithmetic results with
parts missing fail their checks; that a wrong expected scan digest drives
failed_share above 0; and that in a directory holding only
BENCHMARK.json and perfbench/ the benchmark exits non-zero without a
result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "scan-2w", "paper", "arith")


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result(*args: str) -> dict:
    code, lines = run(*args)
    assert code == 0 and lines, f"{args}: exit {code}"
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = result("--workload", workload, "--trace", str(trace), "--smoke")
            units = {name: m["unit"] for name, m in r["metrics"].items()}
            assert units == wanted[trace], f"{workload} trace {trace}: {sorted(units)}"
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, (workload, r)
            assert all(isinstance(m["value"], (int, float)) for m in r["metrics"].values())
            print(f"smoke: {workload} trace {trace}: {r['attempted']} operations checked")

    counts = [{name: m["value"] for name, m in
               result("--workload", "paper", "--trace", "1", "--smoke")["metrics"].items()
               if m["unit"] in ("count", "bytes")} for _ in range(2)]
    assert counts[0] == counts[1], f"traced counts differ between runs: {counts}"

    import child  # this directory is on sys.path, as the script's own
    import run as benchmark

    inputs = benchmark.arith_inputs(3, smoke=True)
    results = child.run_arith(inputs)
    assert benchmark.checks.arith_failures(inputs, results) == 0
    results["decompositions"][-1].pop()
    results["remainder"][0].pop()
    assert benchmark.checks.arith_failures(inputs, results) == 2
    print("smoke: a dropped decomposition and a dropped remainder pair each fail")

    benchmark.checks.EXPECTED["scan_sha256"]["8x8"] = "0" * 64
    r, _ = benchmark.measure("scan", seed=3, seconds=1, trace=False, smoke=True)
    assert not r["correct"] and r["failed"] / r["attempted"] > 0, r
    print(f"smoke: wrong digest gives failed_share {r['failed'] / r['attempted']:.3f}")

    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = run("--workload", "scan", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # another run is using it
    assert code != 0 and not any(line.startswith('{"correct"') for line in lines), (code, lines)
    print(f"smoke: without src/ the benchmark exits {code} and prints no result")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
