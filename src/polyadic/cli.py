"""Command-line interface.

Exit codes: 0 success, 2 forbidden residue pair, 3 not a field where a
field is required, 4 bad arguments or running out of memory (stderr is
then exactly `error: out of memory`, and what stdout already received
stays), 5 the --out path or stdout cannot be written (closed pipe, full
disk), 130 interrupted by Ctrl-C (SIGINT; stderr is then exactly
`error: interrupted`).  Integers are printed in full, J included; the
size of J is not bounded yet (ROADMAP item 3).
Output is deterministic for a given argv: scans write one line per ring
in (b, a, q) order as soon as it is made, with one descriptor per (a, b).
Every ring is the canonical ring of its key (a1, b1, q, n) renamed
(`finite.canonical_ring`), so each line renames (`groups.renamed_json`)
its key's classification (`groups.classify_canonical`), kept in a memo
of at most `SCAN_MEMO_INDICES` indices while a later ring may share the
key (`_key_recurs`); only a field whose renamed subgroups tie on their
least element is walked again.  `remainder` writes each pair, in
increasing quotient index, as the search yields it, so its memory does
not grow with --radius.  `finite` writes every JSON report and
decomposition.  The parser and the dispatch in `main` are both read from
one table of commands, `_COMMANDS`.

Importing this module registers `finite`, `groups` and `tables` in
`sys.modules` but executes none of them (`_lazy`, through the stdlib
`importlib.util.LazyLoader`): a module's body first runs when a handler
reads one of its attributes, so each command executes only what it runs,
and `scan` not `tables` (`grid_pairs` lives in `ring`).  Executing the
three was 15.6 ms of a 32.8 ms `import polyadic.cli` (Python 3.11
without bytecode cache, 8.5 ms of it `tables` and `csv`).  Registering,
not importing inside the handlers, lets whoever inspects `sys.modules`
after `import polyadic.cli`, as the benchmark's traced child does, find
all three; a module imported before this one is kept.  `arithmetic` is
imported by its four handlers and `reference` by the deviations report.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from math import gcd
from typing import Iterator

from .errors import ForbiddenPairError, NotAFieldError, NotLimitingError, PolyadicError
from .ring import grid_pairs, is_allowed, make_descriptor


def _lazy(name: str):
    """Module `name`, executed on its first attribute access; one already imported is kept."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)  # as an import would
    return module


finite = _lazy("polyadic.finite")
groups = _lazy("polyadic.groups")
tables = _lazy("polyadic.tables")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; bad usage is 4 here
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="polyadic", description="Exact polyadic ring and field arithmetic")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_line, options, formats, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        for flag, spec in options:
            sp.add_argument(flag, **spec)
        if formats:
            sp.add_argument("--format", choices=formats, default=formats[-1])
    return p


class _StdoutError(Exception):
    """stdout cannot be written: its reader has gone or its device is full."""


def _emit(text: str | Iterator[str], out: str | None) -> None:
    chunks = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w", encoding="utf-8", newline="") as f:
            f.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # so that a full device fails here, not at exit
    except OSError as exc:
        raise _StdoutError(exc.strerror or exc) from None


def _line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _values(fr: finite.FiniteRing, ks) -> str:
    return ", ".join(str(fr.rep(k)) for k in ks)


def _cmd_arity(args) -> str:
    d = make_descriptor(args.a, args.b)
    return _line({"m": d.m, "n": d.n, "I": d.i_shape, "J": d.j_shape})


def _cmd_ring(args) -> str:
    d = make_descriptor(args.a, args.b)
    if args.format == "json":
        return _line({
            "a": d.a, "b": d.b, "m": d.m, "n": d.n, "I": d.i_shape, "J": d.j_shape,
            "limiting": d.is_limiting,
            "units": [u.value for u in d.units()],
        })
    unit_text = ", ".join(str(u.value) for u in d.units()) or "none"
    return (f"{d!r}: I={d.i_shape} J={d.j_shape} "
            f"limiting={'yes' if d.is_limiting else 'no'} units={unit_text}\n")


def _cmd_primes(args) -> str:
    from .arithmetic import prime_scan, primes_gap

    d = make_descriptor(args.a, args.b)
    scan = prime_scan(d, args.kmax)
    gap = primes_gap(d)
    if args.format == "json":
        return _line({
            "gap": list(gap),
            "primes": [x.value for x in scan.primes],
            "pi": scan.pi,
            "delta": [x.value for x in scan.delta],
        })
    return (
        f"{d!r} k_max={args.kmax}\n"
        f"primes gap: ({gap[0]}, {gap[1]})\n"
        f"primes: {', '.join(str(x.value) for x in scan.primes)}\n"
        f"pi = {scan.pi}\n"
        f"binary-composite primes: "
        f"{', '.join(str(x.value) for x in scan.delta) or 'none'}\n"
    )


def _cmd_euler(args) -> str:
    from .arithmetic import euler_scan

    d = make_descriptor(args.a, args.b)
    members, phi = euler_scan(d, args.kmax)
    if args.format == "json":
        return _line({"members": [x.value for x in members], "phi": phi})
    return (f"{d!r} k_max={args.kmax}\n"
            f"S = {{{', '.join(str(x.value) for x in members)}}}\n"
            f"phi = {phi}\n")


def _cmd_divide(args) -> str:
    from .arithmetic import polyadic_divide

    d = make_descriptor(args.a, args.b)
    result = polyadic_divide(d.from_value(args.dividend), d.from_value(args.divisor))
    if args.format == "json":
        return _line({"quotient": None if result is None else result.value})
    return ("none" if result is None else str(result.value)) + "\n"


def _cmd_remainder(args) -> str | Iterator[str]:
    # The pairs are written as the search yields them, so no output of any
    # radius is held whole; the first is taken here to tell an empty search.
    from itertools import chain

    from .arithmetic import divide_with_remainder

    d = make_descriptor(args.a, args.b)
    if args.radius < 0:
        raise ValueError("radius must be >= 0")
    x1 = d.from_value(args.dividend)
    pairs = divide_with_remainder(x1, d.from_value(args.divisor),
                                  abs(x1.k) + args.radius)
    first = next(pairs, None)
    if args.format == "json":
        if first is None:
            return "[]\n"
        q, r = first
        return chain([f"[[{q.value},{r.value}]"],
                     (f",[{q.value},{r.value}]" for q, r in pairs), ["]\n"])
    if first is None:
        return "no remainder pairs in the searched range\n"
    return (f"({q.value}, {r.value})\n" for q, r in chain([first], pairs))


def _cmd_finite(args) -> str:
    fr = finite.finite_ring(args.a, args.b, args.q)
    report = finite.structure_report(fr)
    if args.format == "json":
        return finite.to_json(report) + "\n"
    lines = [
        f"{fr!r}: field={'yes' if report.is_field else 'no'}",
        f"zero: {fr.rep(report.zero) if report.zero is not None else 'none'}",
        f"units: {_values(fr, report.units) or 'none'} (kappa_e={report.kappa_e})",
        f"q* = {report.q_star} ({'n-admissible' if report.n_admissible else 'not n-admissible'})",
        f"chi_p = {report.chi_p if report.chi_p is not None else 'undefined'}",
        f"lambda_p = {report.lambda_p if report.lambda_p is not None else 'undefined'}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_group(args) -> str:
    fr = finite.finite_ring(args.a, args.b, args.q)
    dec = groups.decompose(finite.structure_report(fr))
    if args.format == "json":
        return finite.to_json(group=dec) + "\n"
    lines = [f"{fr!r} multiplicative group"]
    for i, g in enumerate(dec.subgroups, start=1):
        lines.append(f"G{i} = {{{_values(fr, g)}}}")
    lines.append(f"E(G) = {{{_values(fr, dec.unit_subgroup)}}}")
    lines.append(f"disjoint={dec.pairwise_disjoint} covers={dec.covers} "
                 f"split={dec.unit_subgroup_split}")
    lines.append(f"primitive: {_values(fr, dec.primitive_elements) or 'none'} "
                 f"(kappa_prim={dec.kappa_prim})")
    refl = ", ".join(f"{fr.rep(k)}->{l}" for k, l in dec.reflections) or "none"
    lines.append(f"reflections: {refl}")
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> str:
    if args.out:
        return "".join(f"{path}\n" for path in tables.write_tables(args.out))
    texts = tables.render_tables(tables.classify_grid())
    sep = "\n" if args.format == "md" else ""
    return sep.join(texts[f"{t}.{args.format}"] for t in ("T0", "T1", "T2"))


def _cmd_appendix(args) -> str:
    listing = tables.generate_appendix(args.a, args.b, args.q)
    if args.format == "json":
        return json.dumps(listing, sort_keys=True) + "\n"
    return tables.appendix_to_md(listing)


# The most indices, summed over its canonical rings, that one scan's memo holds: 24x24
# keeps 9,836 and 40x40 51,319; at 2^15, 40x40 classified 8,013 canonical rings, not
# 4,431.  `scan --bmax 3 --qmax 600` fills it and read 18.1 MB, 16.5 MB at 2^15.
SCAN_MEMO_INDICES = 2**16


def _key_recurs(a: int, b: int, q: int, b1: int, bmax: int) -> bool:
    """Whether a later ring of a scan to bmax may share the canonical key of (a, b, q).

    It is an allowed a' > a with a' = a (mod b1) in the row of b, or a ring in a row
    b1*t <= bmax with t > b/b1 prime to q (`finite.canonical_ring`); n is not read.
    """
    t = b // b1 + 1
    while gcd(t, q) > 1:
        t += 1
    return b1 * t <= bmax or any(is_allowed(x, b) for x in range(a + b1, b, b1))


def _cmd_scan(args) -> Iterator[str]:
    # Lines are written as they are made, so no scan holds its whole output.
    if args.bmax < 1:
        raise ValueError("bmax must be >= 1")
    if args.qmax < 2:
        raise ValueError("qmax must be >= 2")
    if args.qmax > finite.WALK_Q_MAX:  # checked before the first line is written
        raise ValueError(f"qmax must be <= {finite.WALK_Q_MAX}")
    memo = {}  # (a1, b1, q, n) -> groups.classify_canonical of that canonical ring
    orders = {}  # q -> finite.orders_template(q), for each q in memo
    held = 0  # the indices of the canonical rings in memo

    def line(fr: finite.FiniteRing) -> str:
        nonlocal held
        q, template = fr.q, orders.get(fr.q) or finite.orders_template(fr.q)
        a1, b1, b2, shift = finite.canonical_label(fr)
        entry = memo.get(key := (a1, b1, q, fr.ring.n))
        if entry is None:
            entry = groups.classify_canonical(finite.canonical_ring(fr)[0])
            if held + q <= SCAN_MEMO_INDICES and _key_recurs(*fr.ring[:2], q, b1, args.bmax):
                memo[key], orders[q] = entry, template
                held += q
        return groups.renamed_json(fr, entry, b2, shift, template) + "\n"

    rings = (make_descriptor(a, b) for a, b in grid_pairs(args.bmax))
    return (line(finite.FiniteRing(d, q)) for d in rings for q in range(2, args.qmax + 1))


# Options as add_argument's flag and keywords.
_INT = {"type": int, "required": True}
_A = ("--a", {**_INT, "help": "residue 0 <= a <= b-1"})
_B = ("--b", {**_INT, "help": "modulus b >= 1"})
_Q = ("--q", {**_INT, "help": "finite ring order"})
_KMAX = ("--kmax", {**_INT, "help": "index scan bound"})
_VALUES = (("--dividend", _INT), ("--divisor", _INT))
_RADIUS = ("--radius", {"type": int, "default": 64,
                        "help": "extra quotient-index search radius (default 64)"})
_OUT = ("--out", {"help": "write output to this path instead of stdout"})
_TEXT = ("json", "text")

# name: (help line, options in usage order, the --format values that change
# its output with the default last, handler)
_COMMANDS = {
    "arity": ("derive (m, n) and the shape invariants", (_A, _B, _OUT), (), _cmd_arity),
    "ring": ("describe the infinite ring", (_A, _B, _OUT), _TEXT, _cmd_ring),
    "primes": ("polyadic prime scan", (_A, _B, _KMAX, _OUT), _TEXT, _cmd_primes),
    "euler": ("polyadic totient scan", (_A, _B, _KMAX, _OUT), _TEXT, _cmd_euler),
    "divide": ("exact polyadic division", (_A, _B, *_VALUES, _OUT), _TEXT, _cmd_divide),
    "remainder": ("division with remainder", (_A, _B, _RADIUS, *_VALUES, _OUT), _TEXT,
                  _cmd_remainder),
    "finite": ("classify one finite ring", (_A, _B, _Q, _OUT), _TEXT, _cmd_finite),
    "group": ("multiplicative group decomposition", (_A, _B, _Q, _OUT), _TEXT, _cmd_group),
    "table": ("regenerate the classification tables",
              (("--out", {"help": "directory to write tables/ into"}),),
              ("json", "csv", "md"), _cmd_table),
    "appendix": ("full listing of one catalogued field", (_A, _B, _Q, _OUT),
                 ("json", "md"), _cmd_appendix),
    "scan": ("structure reports over a grid, JSON-lines",
             (("--bmax", _INT), ("--qmax", _INT), _OUT), (), _cmd_scan),
}


def main(argv=None) -> int:
    # Results are exact, and J = (a^n - a)/b can have hundreds of thousands
    # of digits; CPython >= 3.11 refuses to print an int over 4300 digits.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        handler = _COMMANDS[args.command][3]
        # table writes its --out directory itself and lists the files on stdout.
        _emit(handler(args), None if args.command == "table" else args.out)
        return 0
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except MemoryError:
        # Large enough inputs below the walk bound outgrow a capped or full
        # memory; that is reported like a bad input, without a traceback.
        print("error: out of memory", file=sys.stderr)
        return 4
    except (ValueError, PolyadicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ForbiddenPairError):
            return 2
        return 3 if isinstance(exc, (NotAFieldError, NotLimitingError)) else 4
    except _StdoutError as exc:
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        if not args.out:  # only --out is written by the program itself
            raise
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
