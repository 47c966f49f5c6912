"""Command-line interface.

Exit codes: 0 success, 2 forbidden residue pair, 3 not a field where a
field is required, 4 bad arguments, 5 the --out path or stdout cannot be
written (closed pipe, full disk).
Output is deterministic for a given argv: scans classify one ring at a
time in (b, a, q) order and write each line as soon as it is made.  Each
command accepts only the --format values that change its output
(`_FORMATS`).

Importing this module loads `ring`, `finite`, `groups` and `tables`;
`arithmetic` is imported by the four handlers that use it (`primes`,
`euler`, `divide`, `remainder`) and `reference` only by the deviations
report, so the other commands never compile them.  The benchmark's traced
child wraps its spans in the modules loaded by `import polyadic.cli`, so
keep these four imported at module level.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

from .errors import (
    ForbiddenPairError,
    NotAFieldError,
    NotLimitingError,
    PolyadicError,
    UnknownFieldIdError,
)
from .finite import finite_ring, report_to_dict, structure_report
from .groups import decompose, decomposition_to_dict
from .ring import make_descriptor
from .tables import (
    appendix_to_md,
    generate_appendix,
    grid_pairs,
    render_tables,
    write_tables,
)

# --format choices per command; the last one is the default.  `arity`
# and `scan` have a single output shape and take no --format.
_FORMATS = {
    **dict.fromkeys(("ring", "primes", "euler", "divide", "remainder", "finite",
                     "group"), ("json", "text")),
    "appendix": ("json", "md"),
    "table": ("json", "csv", "md"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; bad usage is 4 here
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="polyadic", description="Exact polyadic ring and field arithmetic")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, q=False, kmax=False, lmax=False, radius=False, values=False):
        sp.add_argument("--a", type=int, required=True, help="residue 0 <= a <= b-1")
        sp.add_argument("--b", type=int, required=True, help="modulus b >= 1")
        if q:
            sp.add_argument("--q", type=int, required=True, help="finite ring order")
        if kmax:
            sp.add_argument("--kmax", type=int, required=True, help="index scan bound")
        if lmax:
            sp.add_argument("--lmax", type=int, default=3,
                            help="composition search depth (default 3)")
        if radius:
            sp.add_argument("--radius", type=int, default=64,
                            help="extra quotient-index search radius (default 64)")
        if values:
            sp.add_argument("--dividend", type=int, required=True)
            sp.add_argument("--divisor", type=int, required=True)
        sp.add_argument("--out", help="write output to this path instead of stdout")

    common(sub.add_parser("arity", help="derive (m, n) and the shape invariants"))
    common(sub.add_parser("ring", help="describe the infinite ring"))
    common(sub.add_parser("primes", help="polyadic prime scan"), kmax=True)
    common(sub.add_parser("euler", help="polyadic totient scan"), kmax=True, lmax=True)
    common(sub.add_parser("divide", help="exact polyadic division"), values=True)
    common(sub.add_parser("remainder", help="division with remainder"),
           values=True, radius=True)
    common(sub.add_parser("finite", help="classify one finite ring"), q=True)
    common(sub.add_parser("group", help="multiplicative group decomposition"), q=True)

    t = sub.add_parser("table", help="regenerate the classification tables")
    t.add_argument("--out", help="directory to write tables/ into")

    common(sub.add_parser("appendix", help="full listing of one catalogued field"),
           q=True)

    s = sub.add_parser("scan", help="structure reports over a grid, JSON-lines")
    s.add_argument("--bmax", type=int, required=True)
    s.add_argument("--qmax", type=int, required=True)
    s.add_argument("--out", help="write output to this path instead of stdout")

    for name, choices in _FORMATS.items():
        sub.choices[name].add_argument("--format", choices=choices, default=choices[-1])
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


def _cmd_arity(args) -> str:
    d = make_descriptor(args.a, args.b)
    return json.dumps({"m": d.m, "n": d.n, "I": d.i_shape, "J": d.j_shape},
                      separators=(",", ":")) + "\n"


def _cmd_ring(args) -> str:
    d = make_descriptor(args.a, args.b)
    if args.format == "json":
        return json.dumps({
            "a": d.a, "b": d.b, "m": d.m, "n": d.n, "I": d.i_shape, "J": d.j_shape,
            "limiting": d.is_limiting,
            "units": [u.value for u in d.units()],
        }, separators=(",", ":")) + "\n"
    unit_text = ", ".join(str(u.value) for u in d.units()) or "none"
    return (f"{d!r}: I={d.i_shape} J={d.j_shape} "
            f"limiting={'yes' if d.is_limiting else 'no'} units={unit_text}\n")


def _cmd_primes(args) -> str:
    from .arithmetic import prime_scan, primes_gap

    d = make_descriptor(args.a, args.b)
    scan = prime_scan(d, args.kmax)
    gap = primes_gap(d)
    if args.format == "json":
        return json.dumps({
            "gap": list(gap),
            "primes": [x.value for x in scan.primes],
            "pi": scan.pi,
            "delta": [x.value for x in scan.delta],
        }, separators=(",", ":")) + "\n"
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
    members, phi = euler_scan(d, args.kmax, args.lmax)
    if args.format == "json":
        return json.dumps({"members": [x.value for x in members], "phi": phi},
                          separators=(",", ":")) + "\n"
    return (f"{d!r} k_max={args.kmax}\n"
            f"S = {{{', '.join(str(x.value) for x in members)}}}\n"
            f"phi = {phi}\n")


def _cmd_divide(args) -> str:
    from .arithmetic import polyadic_divide

    d = make_descriptor(args.a, args.b)
    result = polyadic_divide(d.from_value(args.dividend), d.from_value(args.divisor))
    if args.format == "json":
        return json.dumps({"quotient": None if result is None else result.value},
                          separators=(",", ":")) + "\n"
    return ("none" if result is None else str(result.value)) + "\n"


def _cmd_remainder(args) -> str:
    from .arithmetic import divide_with_remainder

    d = make_descriptor(args.a, args.b)
    if args.radius < 0:
        raise ValueError("radius must be >= 0")
    x1 = d.from_value(args.dividend)
    pairs = divide_with_remainder(x1, d.from_value(args.divisor),
                                  abs(x1.k) + args.radius)
    if args.format == "json":
        return json.dumps([[q.value, r.value] for q, r in pairs],
                          separators=(",", ":")) + "\n"
    if not pairs:
        return "no remainder pairs in the searched range\n"
    return "".join(f"({q.value}, {r.value})\n" for q, r in pairs)


def _report_line(a: int, b: int, q: int) -> str:
    fr = finite_ring(a, b, q)
    report = structure_report(fr)
    payload = report_to_dict(report)
    if report.is_field:
        payload["group"] = decomposition_to_dict(decompose(report))
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _cmd_finite(args) -> str:
    fr = finite_ring(args.a, args.b, args.q)
    report = structure_report(fr)
    if args.format == "json":
        return json.dumps(report_to_dict(report), separators=(",", ":")) + "\n"
    values = lambda ks: ", ".join(str(fr.rep(k)) for k in ks)
    lines = [
        f"{fr!r}: field={'yes' if report.is_field else 'no'}",
        f"zero: {fr.rep(report.zero) if report.zero is not None else 'none'}",
        f"units: {values(report.units) or 'none'} (kappa_e={report.kappa_e})",
        f"q* = {report.q_star} ({'n-admissible' if report.n_admissible else 'not n-admissible'})",
        f"chi_p = {report.chi_p if report.chi_p is not None else 'undefined'}",
        f"lambda_p = {report.lambda_p if report.lambda_p is not None else 'undefined'}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_group(args) -> str:
    fr = finite_ring(args.a, args.b, args.q)
    dec = decompose(structure_report(fr))
    if args.format == "json":
        return json.dumps(decomposition_to_dict(dec), separators=(",", ":")) + "\n"
    values = lambda ks: ", ".join(str(fr.rep(k)) for k in ks)
    lines = [f"{fr!r} multiplicative group"]
    for i, g in enumerate(dec.subgroups, start=1):
        lines.append(f"G{i} = {{{values(g)}}}")
    lines.append(f"E(G) = {{{values(dec.unit_subgroup)}}}")
    lines.append(f"disjoint={dec.pairwise_disjoint} covers={dec.covers} "
                 f"split={dec.unit_subgroup_split}")
    lines.append(f"primitive: {values(dec.primitive_elements) or 'none'} "
                 f"(kappa_prim={dec.kappa_prim})")
    refl = ", ".join(f"{fr.rep(k)}->{l}" for k, l in dec.reflections) or "none"
    lines.append(f"reflections: {refl}")
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> str:
    if args.out:
        return "".join(f"{path}\n" for path in write_tables(args.out))
    texts = render_tables()
    sep = "\n" if args.format == "md" else ""
    return sep.join(texts[f"{t}.{args.format}"] for t in ("T0", "T1", "T2"))


def _cmd_appendix(args) -> str:
    listing = generate_appendix(args.a, args.b, args.q)
    if args.format == "json":
        return json.dumps(listing, sort_keys=True, default=list) + "\n"
    return appendix_to_md(listing)


def _cmd_scan(args) -> Iterator[str]:
    # Lines are written as they are made, so no scan holds its whole output.
    if args.bmax < 1:
        raise ValueError("bmax must be >= 1")
    if args.qmax < 2:
        raise ValueError("qmax must be >= 2")
    return (_report_line(a, b, q)
            for a, b in grid_pairs(args.bmax) for q in range(2, args.qmax + 1))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        handler = {
            "arity": _cmd_arity,
            "ring": _cmd_ring,
            "primes": _cmd_primes,
            "euler": _cmd_euler,
            "divide": _cmd_divide,
            "remainder": _cmd_remainder,
            "finite": _cmd_finite,
            "group": _cmd_group,
            "appendix": _cmd_appendix,
            "scan": _cmd_scan,
            "table": _cmd_table,
        }[args.command]
        # table writes its --out directory itself and lists the files on stdout.
        _emit(handler(args), None if args.command == "table" else args.out)
        return 0
    except ForbiddenPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotAFieldError, NotLimitingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnknownFieldIdError, ValueError, PolyadicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
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
