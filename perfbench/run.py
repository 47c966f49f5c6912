"""Benchmark of the polyadic CLI and library, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of scan, scan-2w, paper, arith (README.md says why each exists).
Every polyadic process is a fresh interpreter on the checkout's src/, run
one at a time from this process (a closed loop with one client).  A run
repeats passes of the workload for about S seconds (at least MIN_PASSES).
Before and after the passes it times SETUP_RUNS fresh `polyadic arity`
calls each, so that setup_s samples both ends of the run.  A time metric
is the sum, over the processes of a pass, of each one's fastest sample in
the run, for the reason given in README.md, "Noise"; every sample is listed
in the metadata.
Each child's CPU time and peak RSS come from its own rusage (os.wait4 in
launcher.py, which says why a separate small process starts them).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes (see child.py), demands byte-identical outputs from the two,
and prints the per-layer metrics.  Every output is checked (checks.py); a
wrong answer counts as a failed operation.  The last stdout line is the
result object; the line before it holds the run's metadata.  `--workload
all` also prints one table row per workload, with failed_share.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "tables"
WORK = ROOT / ".perfbench-work"
if not (SRC / "polyadic" / "cli.py").is_file() or not GOLDEN.is_dir():
    print(f"error: {ROOT} holds no polyadic source tree (src/polyadic, tests/golden)",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import checks  # noqa: E402  (imports polyadic.oracle from src/)

# The `polyadic` console script, run from source.
CLI = [sys.executable, "-c", "import sys; from polyadic.cli import main; sys.exit(main())"]
CHILD = [sys.executable, str(HERE / "child.py")]
SETUP_ARGS = ["arity", "--a", "3", "--b", "4"]
SETUP_OUT = b'{"m":5,"n":3,"I":3,"J":6}\n'
SETUP_RUNS = 6           # before the passes, after one warm-up call, and again after them
MIN_PASSES = 2           # untraced; a traced run needs one untraced/traced pair
RUN_LIMIT_S = 160        # no child may still run after this; results print by 180 s
APPENDIX_FIELDS = ((5, 6, 6), (5, 6, 4), (3, 8, 2), (7, 8, 2), (2, 3, 5))
WORKLOADS = ("scan", "scan-2w", "paper", "arith")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"finite.{f}.self_s": "s" for f in ("find_zero", "is_field", "find_units",
                                            "structure_report", "characteristic",
                                            "report_to_dict")},
    "finite.structure_report.calls": "count",
    "finite.structure_report.repeat_share": "ratio",
    "finite.rings": "count",
    "finite.fields": "count",
    **{f"groups.{f}.self_s": "s" for f in ("decompose", "primitive_elements",
                                            "decomposition_to_dict")},
    "groups.decompose.calls": "count",
    "ring.busy_s": "s",
    "ring.make_descriptor.calls": "count",
    **{f"tables.{f}.self_s": "s" for f in ("generate_t2", "generate_t0", "generate_t1",
                                            "generate_appendix", "table_deviations",
                                            "render", "write_tables")},
    "tables.bytes_written": "bytes",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "arithmetic.is_composite.self_s": "s",
    "arithmetic.is_composite.calls": "count",
    **{f"arithmetic.{f}.self_s": "s" for f in ("prime_scan", "euler_scan", "decompositions",
                                                "polyadic_divide", "divide_with_remainder")},
    "pool.workers": "count",
    "pool.cpu_per_wall": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.interpreter_s": "s",
    "trace.unattributed_s": "s",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def equals(expected: bytes):
    return lambda out: (int(out != expected), out)


def hashes_to(digest: str):
    return lambda out: (int(sha256(out) != digest), out)


@dataclass
class Child:
    code: int
    out: bytes
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Call:
    """One polyadic process of a pass and the check of its output."""

    mode: str                     # "cli" or "arith"
    args: list[str]
    threads: int = 1
    ops: int = 1
    check: object = None          # check(stdout) -> (failed ops, output bytes to compare)


@dataclass
class Pass:
    walls: list = field(default_factory=list)     # per call, in call order
    cpus: list = field(default_factory=list)
    rss_mb: float = 0.0
    artifacts: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def cpu(self) -> float:
        return sum(self.cpus)


class Runner:
    """Starts children through launcher.py, checks them and counts operations for one run."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self._traces = 0
        self._launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                          text=True)

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.stdout.close()
        try:
            self._launcher.wait(timeout=max(1.0, self.deadline + 5 - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()

    def child(self, argv: list[str], threads: int) -> Child:
        out_path = self.work / "stdout"
        request = {
            "argv": argv, "stdout": str(out_path),
            "env": dict(os.environ, PYTHONPATH=str(SRC), POLYADIC_THREADS=str(threads)),
            "timeout": max(1.0, self.deadline - time.perf_counter()),
        }
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        r = json.loads(reply)
        out = out_path.read_bytes()
        out_path.unlink()
        return Child(r["code"], out, r["wall"], r["cpu"], r["rss_mb"])

    def run_pass(self, calls: list[Call], untraced: Pass | None = None) -> Pass:
        """One pass; traced, and required to repeat the outputs of `untraced`, if that is given."""
        traced = untraced is not None
        result = Pass()
        for i, call in enumerate(calls):
            trace_file = None
            if traced:
                self._traces += 1
                trace_file = self.work / f"trace-{self._traces}.json"
                argv = CHILD + ["--trace-out", str(trace_file), call.mode] + call.args
            elif call.mode == "cli":
                argv = CLI + call.args
            else:
                argv = CHILD + [call.mode] + call.args
            child = self.child(argv, call.threads)
            result.walls.append(child.wall)
            result.cpus.append(child.cpu)
            result.rss_mb = max(result.rss_mb, child.rss_mb)
            failed, artifact = call.check(child.out)
            result.artifacts.append(sha256(artifact))
            if child.code != 0 or (traced and result.artifacts[i] != untraced.artifacts[i]):
                failed = call.ops
            self.attempted += call.ops
            self.failed += failed
            if traced:
                summary = None
                if trace_file.is_file():
                    summary = json.loads(trace_file.read_text(encoding="utf-8"))
                    trace_file.unlink()
                result.traces.append((child, summary))
        return result


# ---------------------------------------------------------------- workloads

def scan_calls(runner: Runner, seed: int, smoke: bool, threads: int) -> list[Call]:
    size = "8" if smoke else "24"
    want = checks.EXPECTED["scan_sha256"][f"{size}x{size}"]
    verdicts: dict[str, list[str]] = {}

    def check(out: bytes):
        digest = sha256(out)
        if digest not in verdicts:
            verdicts[digest] = checks.oracle_sample(out, seed, 4 if smoke else 12)
            for problem in verdicts[digest]:
                print(f"check: {problem}", file=sys.stderr)
        return int(digest != want or bool(verdicts[digest])), out

    return [Call("cli", ["scan", "--bmax", size, "--qmax", size], threads, check=check)]


def paper_calls(runner: Runner, seed: int, smoke: bool, threads: int) -> list[Call]:
    out_dir = runner.work / "paper"
    tables = out_dir / "tables"
    golden = {p.name: p.read_bytes() for p in sorted(GOLDEN.iterdir())}

    def check_tables(out: bytes):
        written = {p.name: p.read_bytes() for p in sorted(tables.iterdir())} \
            if tables.is_dir() else {}
        shutil.rmtree(out_dir, ignore_errors=True)
        artifact = out + b"".join(name.encode() + body for name, body in written.items())
        return int(written != golden), artifact

    calls = [Call("cli", ["table", "--out", str(out_dir)], threads, check=check_tables)]
    for a, b, q in APPENDIX_FIELDS:
        abq = ["--a", str(a), "--b", str(b), "--q", str(q)]
        calls.append(Call("cli", ["appendix"] + abq, threads,
                          check=equals(golden[f"appendix_{a}_{b}_{q}.md"])))
        calls.append(Call("cli", ["group"] + abq, threads,
                          check=hashes_to(checks.EXPECTED["group_sha256"][f"{a},{b},{q}"])))
    return calls


def arith_inputs(seed: int, smoke: bool) -> dict:
    """Seeded inputs for the arithmetic workload.

    b is drawn from 10**9 + 30030*j, j < 1000: one residue class modulo
    2*3*5*7*11*13 fixes which members of [[1]]_b and [[b-1]]_b have small
    prime factors, and so keeps the factor-search work of different seeds
    close, while the large factors still change with the seed.
    """
    rng = random.Random(seed)
    base, step, k_max, powers, radius = (10**4, 30, 6, range(9, 12), 10**3) if smoke \
        else (10**9, 30030, 20, range(21, 26), 10**5)
    b = base + step * rng.randrange(1000)
    scans = [[1, b, k_max], [b - 1, b, k_max]]
    divide = []
    for a, b in ((3, 4), (2, 7), (3, 7), (8, 10)):
        _, n = checks.oracle_arity(a, b)
        for _ in range(5):
            x2 = a + b * rng.randrange(1, 10**6)
            q = a + b * rng.randrange(10**18, 10**20)
            divide.append([a, b, x2 * q ** (n - 1), x2])
    x1 = 8 + 10 * rng.randrange(-10**12, 10**12)
    x2 = 8 + 10 * rng.randrange(1, 1000)
    return {
        "primes": scans,
        "euler": scans,
        # 3**e or -3**e, whichever lies in [[3]]_4; smooth, so enumeration-bound.
        "decompositions": [[3, 4, 3**e if e % 2 else -(3**e)] for e in powers],
        "divide": divide,
        "remainder": [[8, 10, x1, x2, radius]],
    }


def arith_calls(runner: Runner, seed: int, smoke: bool, threads: int) -> list[Call]:
    """One child per kind of arithmetic call, so that each child is short (README, "Noise")."""
    inputs = arith_inputs(seed, smoke)

    def checker(part: dict):
        def check(out: bytes):
            try:
                results = json.loads(out)
            except ValueError:
                return sum(len(v) for v in part.values()), out
            return checks.arith_failures(part, results), out
        return check

    calls = []
    for kind, args in inputs.items():
        part = {k: (v if k == kind else []) for k, v in inputs.items()}
        path = runner.work / f"arith-{kind}.json"
        path.write_text(json.dumps(part), encoding="utf-8")
        calls.append(Call("arith", [str(path)], threads, ops=len(args), check=checker(part)))
    return calls


CALLS = {"scan": (scan_calls, 1), "scan-2w": (scan_calls, 2),
         "paper": (paper_calls, 1), "arith": (arith_calls, 1)}


# ---------------------------------------------------------------- metrics

RENDERERS = {f"tables.{t}_to_{f}" for t in ("t0", "t1", "t2") for f in ("json", "csv", "md")} \
    | {"tables.appendix_to_md", "tables.deviations_report"}


def layer_metrics(untraced: Pass, traced: Pass) -> dict[str, float]:
    """Per-layer numbers of one traced pass; self times plus the remainder add up to its wall."""
    spans: dict[str, list] = {}
    m = {"trace.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.bytes_out": 0,
         "tables.bytes_written": 0, "finite.rings": 0, "finite.fields": 0, "pool.workers": 0}
    repeats = 0
    main_s = 0.0
    for child, summary in traced.traces:
        m["cli.bytes_out"] += len(child.out)
        if summary is None:
            continue
        main_s += summary["main_s"]
        m["trace.interpreter_s"] += child.wall - summary["main_s"]
        m["cli.import_s"] += summary["import_s"]
        m["tables.bytes_written"] += summary["bytes_written"]
        m["finite.rings"] += summary["rings"]
        m["finite.fields"] += summary["fields"]
        m["pool.workers"] = max(m["pool.workers"], summary["pool_threads"])
        repeats += summary["repeats"]
        for name, (calls, self_s) in summary["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    get = lambda name: spans.get(name, [0, 0.0])
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in ("self_s", "calls"):
            m[name] = get(span)[kind == "self_s"]
    m["ring.busy_s"] = sum(s for n, (_, s) in spans.items() if n.startswith("ring."))
    m["tables.render.self_s"] = sum(get(n)[1] for n in RENDERERS)
    reports = get("finite.structure_report")[0]
    m["finite.structure_report.repeat_share"] = repeats / reports if reports else 0.0
    m["pool.cpu_per_wall"] = untraced.cpu / untraced.wall
    m["trace.wall_s"] = traced.wall
    m["trace.overhead_s"] = traced.wall - untraced.wall
    m["trace.unattributed_s"] = main_s - m["cli.import_s"] - sum(s for _, s in spans.values())
    return m


def measure(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> tuple[dict, dict]:
    started = time.perf_counter()
    load_before = os.getloadavg()
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work, started + RUN_LIMIT_S)
    try:
        work.mkdir(parents=True)
        setup_call = Call("cli", SETUP_ARGS, check=equals(SETUP_OUT))
        setup_runs = 2 if smoke else SETUP_RUNS

        def time_setup(count: int) -> list[float]:
            return [runner.run_pass([setup_call]).wall for _ in range(count)]

        setup = time_setup(1 + setup_runs)[1:]
        make, threads = CALLS[workload]
        calls = make(runner, seed, smoke, threads)
        plain, traced = [], []
        begin = time.perf_counter()
        min_passes = 1 if trace or smoke else MIN_PASSES
        while True:
            plain.append(runner.run_pass(calls))
            if trace:
                traced.append(runner.run_pass(calls, untraced=plain[-1]))
            now = time.perf_counter()
            per_pass = (now - begin) / len(plain)
            if now + per_pass > runner.deadline:
                break
            if len(plain) >= min_passes and now + per_pass - begin > seconds:
                break
        setup += time_setup(setup_runs)
        if trace:
            # One pair, the one with the median traced wall time, so that its
            # self times still add up to its wall time.
            layers = sorted((layer_metrics(u, t) for u, t in zip(plain, traced)),
                            key=lambda m: m["trace.wall_s"])
            metrics = layers[(len(layers) - 1) // 2]
            units = PER_LAYER
        else:
            # The fastest sample of each call, not a median: see README.md, "Noise".
            def fastest(samples: list[list[float]]) -> float:
                return sum(min(call) for call in zip(*samples))

            metrics = {
                "wall_s": fastest([p.walls for p in plain]),
                "cpu_s": fastest([p.cpus for p in plain]),
                "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
                "setup_s": min(setup),
            }
            units = END_TO_END
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "passes": len(plain),
        "call_wall_s": [p.walls for p in plain], "call_cpu_s": [p.cpus for p in plain],
        "setup_wall_s": setup,
        "commit": commit(), "src_sha256": src_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "POLYADIC_THREADS": CALLS[workload][1],
        "failed_share": runner.failed / runner.attempted,
        "elapsed_s": time.perf_counter() - started,
        "scope": "process: per-child rusage and in-process spans only; "
                 "no system-wide tracing, no cache dropping",
    }
    return result, meta


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:  # no git installed
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes and one pass, for the benchmark's own test")
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, meta = measure(name, args.seed, args.seconds, bool(args.trace),
                               args.smoke)
        results[name] = result
        print(json.dumps({"meta": meta}))
        if args.workload == "all":
            row = " ".join(f"{k} {v['value']:.4f} {v['unit']}"
                           for k, v in result["metrics"].items())
            print(f"{name}: {row} failed_share {meta['failed_share']:.4f} ratio")
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0

if __name__ == "__main__":
    sys.exit(main())
