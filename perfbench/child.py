"""Child process of the benchmark: traced CLI calls and the arithmetic workload.

    python3 perfbench/child.py [--trace-out FILE] cli ARG...
    python3 perfbench/child.py [--trace-out FILE] arith INPUT.json

`cli` runs `polyadic.cli.main` on ARG..., which is what the `polyadic`
console script does.  `arith` calls the public functions of
`polyadic.arithmetic` on the inputs in INPUT.json (written by run.py from
its seed) and prints their results as one JSON line for run.py to check.
The parent puts the checkout's `src/` on PYTHONPATH.

With --trace-out, a timing wrapper is installed around each function in
SPANS, in every loaded `polyadic.*` module that binds it (several modules
import these functions by name), before any of them runs.  Internal calls
go through module globals, so spans nest.  Each span is timed in thread CPU
time: under the worker pool several threads run spans at once, and CPU time
lets their self times add up without counting the time a thread waits for
the interpreter lock.  A span's self time is its duration minus that of the
spans it called (PART_OF names the one exception).  Totals stay in memory and go to FILE when the child ends,
with the wall time from the start of main() to that point.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

SPANS = {
    "cli": ("main",),
    "ring": ("derive_arities", "make_descriptor", "allowed_residues"),
    "finite": ("find_zero", "find_units", "is_field", "characteristic",
               "structure_report", "report_to_dict"),
    "groups": ("decompose", "primitive_elements", "decomposition_to_dict"),
    "tables": ("generate_t2", "generate_t0", "generate_t1", "generate_appendix",
               "table_deviations", "write_tables",
               "t0_to_json", "t0_to_csv", "t0_to_md",
               "t1_to_json", "t1_to_csv", "t1_to_md",
               "t2_to_json", "t2_to_csv", "t2_to_md",
               "appendix_to_md", "deviations_report"),
    "arithmetic": ("is_composite", "prime_scan", "euler_scan", "decompositions",
                   "polyadic_divide", "divide_with_remainder"),
}

# A span called directly from its owner here is part of the owner's own
# work, not a layer of its own: euler_scan tests each member's
# irreducibility by calling decompositions, and that search is euler_scan's
# cost, not the smooth-number enumeration decompositions.self_s stands for.
PART_OF = {"arithmetic.decompositions": "arithmetic.euler_scan"}


class Tracer:
    """Per-span call counts and self times, kept per thread and merged at the end."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[tuple[bool, dict]] = []
        self._lock = threading.Lock()
        self.rings: dict[tuple[int, int, int], bool] = {}  # (a, b, q) -> is_field
        self.repeats = 0
        self.bytes_written = 0

    def _totals(self) -> dict:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = {}
            self._local.stack = []
            is_main = threading.current_thread() is threading.main_thread()
            with self._lock:
                self._threads.append((is_main, totals))
        return totals

    def wrap(self, name: str, fn, after=None):
        clock = time.thread_time
        owner = PART_OF.get(name)

        def span(*args, **kwargs):
            totals = self._totals()
            stack = self._local.stack
            if owner is not None and stack and stack[-1][0] == owner:
                return fn(*args, **kwargs)  # counted in the owner's self time
            stack.append([name, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()[1]
                if stack:
                    stack[-1][1] += duration
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration - children
            if after is not None:
                after(args, result)
            return result

        return span

    def _saw_report(self, args, report) -> None:
        fr = args[0]
        key = (fr.ring.a, fr.ring.b, fr.q)
        with self._lock:
            if key in self.rings:
                self.repeats += 1
            else:
                self.rings[key] = report.is_field

    def _wrote_tables(self, args, paths) -> None:
        self.bytes_written += sum(os.path.getsize(p) for p in paths)

    def install(self) -> None:
        hooks = {"finite.structure_report": self._saw_report,
                 "tables.write_tables": self._wrote_tables}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "polyadic" or n.startswith("polyadic."))]
        for module_name, names in SPANS.items():
            home = sys.modules.get(f"polyadic.{module_name}")
            if home is None:
                continue
            for name in names:
                original = getattr(home, name)
                span_name = f"{module_name}.{name}"
                wrapper = self.wrap(span_name, original, hooks.get(span_name))
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)

    def summary(self, import_s: float, main_s: float) -> dict:
        spans: dict[str, list] = {}
        pool_threads = 0
        for is_main, totals in self._threads:
            pool_threads += not is_main
            for name, (calls, self_s) in totals.items():
                entry = spans.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        return {
            "main_s": main_s,
            "import_s": import_s,
            "spans": spans,
            "rings": len(self.rings),
            "fields": sum(self.rings.values()),
            "repeats": self.repeats,
            "pool_threads": pool_threads,
            "bytes_written": self.bytes_written,
        }


def _guard(fn, *args):
    # One failing call must not hide the results of the others.
    try:
        return fn(*args)
    except Exception as exc:  # reported to run.py, which counts it as failed
        return {"error": f"{type(exc).__name__}: {exc}"}


def run_arith(inputs: dict) -> dict:
    """Call the arithmetic functions on the inputs; results are plain integers."""
    from polyadic import arithmetic, ring

    def values(xs):
        return [x.value for x in xs]

    def primes(a, b, k_max):
        scan = arithmetic.prime_scan(ring.make_descriptor(a, b), k_max)
        return {"primes": values(scan.primes), "pi": scan.pi, "delta": values(scan.delta)}

    def euler(a, b, k_max):
        members, phi = arithmetic.euler_scan(ring.make_descriptor(a, b), k_max)
        return {"members": values(members), "phi": phi}

    def decompositions(a, b, x):
        found = arithmetic.decompositions(ring.make_descriptor(a, b).from_value(x))
        return [values(d) for d in found]

    def divide(a, b, x1, x2):
        d = ring.make_descriptor(a, b)
        q = arithmetic.polyadic_divide(d.from_value(x1), d.from_value(x2))
        return None if q is None else q.value

    def remainder(a, b, x1, x2, radius):
        d = ring.make_descriptor(a, b)
        pairs = arithmetic.divide_with_remainder(d.from_value(x1), d.from_value(x2), radius)
        return [[q.value, r.value] for q, r in pairs]

    calls = {"primes": primes, "euler": euler, "decompositions": decompositions,
             "divide": divide, "remainder": remainder}
    return {kind: [_guard(calls[kind], *args) for args in inputs[kind]] for kind in calls}


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    start = time.perf_counter()
    if mode == "cli":
        import polyadic.cli
    else:
        import polyadic.arithmetic  # noqa: F401
    import_s = time.perf_counter() - start
    tracer = None
    if trace_out:
        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            code = polyadic.cli.main(rest)
        else:
            with open(rest[0], encoding="utf-8") as f:
                inputs = json.load(f)
            sys.stdout.write(json.dumps(run_arith(inputs), separators=(",", ":")) + "\n")
            code = 0
    finally:
        sys.stdout.flush()
        if tracer is not None:
            with open(trace_out, "w", encoding="utf-8") as f:
                main_s = time.perf_counter() - start
                json.dump(tracer.summary(import_s if mode == "cli" else 0.0, main_s), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
