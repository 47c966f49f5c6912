"""Classification tables and the exotic-field listings.

Everything here is regenerated from the finite-ring scans; nothing is
hand-entered.  Each ring is classified by one `finite.structure_report`
call, serially in (b, a, q) order.  `classify_grid` keys the reports of a
grid by (a, b, q); the table generators, `render_tables` and the
deviation scanner read their cells from such a mapping when given one
and classify their own grid otherwise.  `write_tables` classifies each
ring of the T2 grid (b <= 10, q = 2..10) once and builds T0, T1, T2 and
deviations.md from those reports: T0 and T1 cover the b <= 6 part of that
grid.  Only the five appendix listings classify their field again.
Renderers emit JSON (sorted keys, newline-terminated), CSV and Markdown;
`render_tables` maps each T*.{json,csv,md} file name to its text, for
both `write_tables` and the `table` command.  Markdown encodes typography
as explicit markers: framed (zeroless-nonunital) cells as [zl-nu],
unit-plus-zero as a * prefix (or [z+e] on element lists), an
n-admissible reduced order as a trailing _, and non-fields in the
characteristic table as (nf).

A deviation scanner compares the generated cells against the published
reference tables and writes every difference, adjudicated or not, to
deviations.md.  Only that scanner reads `reference`, so it alone imports
that module, and no other command compiles its literals.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import UnknownFieldIdError
from .finite import StructureReport, finite_ring, mult_querelements, structure_report
from .groups import decompose
from .ring import allowed_residues

APPENDIX_FIELDS = ((5, 6, 6), (5, 6, 4), (3, 8, 2), (7, 8, 2), (2, 3, 5))

Reports = Mapping[tuple[int, int, int], StructureReport]


def grid_pairs(b_max: int) -> list[tuple[int, int]]:
    """Allowed (a, b) pairs in (b, a) order, the row order of every table."""
    return [(a, b) for b in range(2, b_max + 1) for a in allowed_residues(b)]


def classify_grid(b_max: int = 10, q_max: int = 10) -> Reports:
    """The structure report of each ring with b <= b_max and q = 2..q_max, by (a, b, q)."""
    return {(a, b, q): structure_report(finite_ring(a, b, q))
            for a, b in grid_pairs(b_max) for q in range(2, q_max + 1)}


def _unit_and_zero(report: StructureReport) -> bool:
    return bool(report.units) and report.zero is not None


# ---------------------------------------------------------------- T2

@dataclass(frozen=True)
class T2Cell:
    a: int
    b: int
    m: int
    n: int
    q: int
    is_field: bool
    lambda_p: Optional[int] = None
    kappa_e: Optional[int] = None
    zeroless_nonunital: bool = False
    underline: bool = False
    unit_and_zero: bool = False

    @property
    def flags(self):
        if not self.is_field:
            return None
        return (self.lambda_p, self.kappa_e, self.zeroless_nonunital,
                self.underline, self.unit_and_zero)


def _t2_cell(report: StructureReport) -> T2Cell:
    fr = report.ring
    d = fr.ring
    if not report.is_field:
        return T2Cell(d.a, d.b, d.m, d.n, fr.q, False)
    underline = d.n >= 3 and report.q_star >= d.n and (report.q_star - 1) % (d.n - 1) == 0
    return T2Cell(
        d.a, d.b, d.m, d.n, fr.q,
        is_field=True,
        lambda_p=report.lambda_p,
        kappa_e=report.kappa_e,
        zeroless_nonunital=report.zeroless and report.nonunital,
        underline=underline,
        unit_and_zero=_unit_and_zero(report),
    )


def generate_t2(b_max: int = 10, q_max: int = 10,
                reports: Optional[Reports] = None) -> list[T2Cell]:
    """Idempotence-order cells; `reports` (see `classify_grid`) must cover the grid."""
    if reports is None:
        reports = classify_grid(b_max, q_max)
    return [_t2_cell(reports[a, b, q])
            for a, b in grid_pairs(b_max) for q in range(2, q_max + 1)]


# ---------------------------------------------------------------- T0

@dataclass(frozen=True)
class T0Cell:
    a: int
    b: int
    m: int
    n: int
    q: int
    chi_p: int
    is_field: bool


def generate_t0(b_max: int = 6, q_max: int = 10,
                reports: Optional[Reports] = None) -> list[T0Cell]:
    """Rings with both unit(s) and zero, with their polyadic characteristic."""
    if reports is None:
        reports = classify_grid(b_max, q_max)
    out = []
    for a, b in grid_pairs(b_max):
        for q in range(2, q_max + 1):
            report = reports[a, b, q]
            if _unit_and_zero(report):
                d = report.ring.ring
                out.append(T0Cell(a, b, d.m, d.n, q, report.chi_p, report.is_field))
    return out


# ---------------------------------------------------------------- T1

@dataclass(frozen=True)
class T1Cell:
    a: int
    b: int
    m: int
    n: int
    q: int
    elements: tuple[tuple[int, str], ...]  # (representative, "", "e" or "z")
    is_field: bool
    unit_and_zero: bool


@dataclass(frozen=True)
class T1Orders:
    a: int
    b: int
    orders: tuple[tuple[int, bool], ...]  # field orders 5..10, bold = unit+zero


def generate_t1(b_max: int = 6, reports: Optional[Reports] = None
                ) -> tuple[list[T1Cell], list[T1Orders]]:
    """Element lists for q = 2..4 and the field orders 5..10 of each (a, b)."""
    if reports is None:
        reports = classify_grid(b_max, 10)
    cells = []
    for a, b in grid_pairs(b_max):
        for q in (2, 3, 4):
            report = reports[a, b, q]
            fr = report.ring
            tagged = tuple(
                (fr.rep(k), "z" if report.zero == k else ("e" if k in report.units else ""))
                for k in fr.elements()
            )
            d = fr.ring
            cells.append(T1Cell(a, b, d.m, d.n, q, tagged, report.is_field,
                                _unit_and_zero(report)))
    orders = []
    for a, b in grid_pairs(b_max):
        line = []
        for q in range(5, 11):
            report = reports[a, b, q]
            if report.is_field:
                line.append((q, _unit_and_zero(report)))
        orders.append(T1Orders(a, b, tuple(line)))
    return cells, orders


# ---------------------------------------------------------------- appendix

def generate_appendix(a: int, b: int, q: int) -> dict:
    """Complete multiplication listing of one catalogued exotic field."""
    if (a, b, q) not in APPENDIX_FIELDS:
        raise UnknownFieldIdError(f"({a},{b},{q}) is not a catalogued field")
    from itertools import combinations_with_replacement

    from .finite import k_mul

    fr = finite_ring(a, b, q)
    report = structure_report(fr)
    products = []
    for combo in combinations_with_replacement(fr.elements(), fr.ring.n):
        res = k_mul(fr, list(combo))
        products.append((tuple(fr.rep(k) for k in combo), fr.rep(res)))
    quers = {}
    for k in fr.elements():
        hits = mult_querelements(fr, k)
        if len(hits) == 1:
            quers[fr.rep(k)] = fr.rep(hits[0])
    dec = decompose(report)
    return {
        "a": a,
        "b": b,
        "q": q,
        "m": fr.ring.m,
        "n": fr.ring.n,
        "elements": [fr.rep(k) for k in fr.elements()],
        "zero": None if report.zero is None else fr.rep(report.zero),
        "units": [fr.rep(e) for e in report.units],
        "chi_p": report.chi_p,
        "lambda_p": report.lambda_p,
        "products": products,
        "querelements": quers,
        "group": {
            "subgroups": [[fr.rep(t) for t in g] for g in dec.subgroups],
            "units": [fr.rep(t) for t in dec.unit_subgroup],
            "split": dec.unit_subgroup_split,
            "covers": dec.covers,
            "disjoint": dec.pairwise_disjoint,
        },
    }


# ---------------------------------------------------------------- renderers

def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def t2_to_json(cells: list[T2Cell]) -> str:
    return _dump_json([cell.__dict__ for cell in cells])


def t2_to_csv(cells: list[T2Cell]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["a", "b", "m", "n", "q", "is_field", "lambda_p", "kappa_e",
                "zeroless_nonunital", "underline", "unit_and_zero"])
    for c in cells:
        w.writerow([c.a, c.b, c.m, c.n, c.q, c.is_field,
                    "" if c.lambda_p is None else c.lambda_p,
                    "" if c.kappa_e is None else c.kappa_e,
                    c.zeroless_nonunital, c.underline, c.unit_and_zero])
    return buf.getvalue()


def _t2_cell_text(c: T2Cell) -> str:
    if not c.is_field:
        return "-"
    text = ("*" if c.unit_and_zero else "") + str(c.lambda_p)
    if c.kappa_e >= 2:
        text += "{%de}" % c.kappa_e
    if c.underline:
        text += "_"
    if c.zeroless_nonunital:
        text = f"[zl-nu]{text}"
    return text


def t2_to_md(cells: list[T2Cell]) -> str:
    lines = [
        "# Idempotence orders of the finite polyadic fields",
        "",
        "Markers: `*` unit and zero present, `{Ke}` K units, trailing `_`"
        " n-admissible reduced order, `[zl-nu]` zeroless-nonunital, `-` not a field.",
        "",
        "| b | a | (m,n) | " + " | ".join(f"q={q}" for q in range(2, 11)) + " |",
        "|---" * 12 + "|",
    ]
    rows: dict[tuple[int, int], list[T2Cell]] = {}
    for c in cells:
        rows.setdefault((c.b, c.a), []).append(c)
    for (b, a), row in sorted(rows.items()):
        row = sorted(row, key=lambda c: c.q)
        arity = f"({row[0].m},{row[0].n})"
        lines.append(
            f"| {b} | {a} | {arity} | " + " | ".join(_t2_cell_text(c) for c in row) + " |"
        )
    return "\n".join(lines) + "\n"


def t0_to_json(cells: list[T0Cell]) -> str:
    return _dump_json([cell.__dict__ for cell in cells])


def t0_to_csv(cells: list[T0Cell]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["a", "b", "m", "n", "q", "chi_p", "is_field"])
    for c in cells:
        w.writerow([c.a, c.b, c.m, c.n, c.q, c.chi_p, c.is_field])
    return buf.getvalue()


def t0_to_md(cells: list[T0Cell]) -> str:
    lines = [
        "# Polyadic characteristics of rings with unit(s) and zero",
        "",
        "Markers: `(nf)` order does not give a field.",
        "",
        "| b | a | (m,n) | chi_p by order |",
        "|---|---|---|---|",
    ]
    rows: dict[tuple[int, int], list[T0Cell]] = {}
    for c in cells:
        rows.setdefault((c.b, c.a), []).append(c)
    for (b, a), row in sorted(rows.items()):
        row = sorted(row, key=lambda c: c.q)
        entries = ", ".join(
            f"q={c.q}: {c.chi_p}" + ("" if c.is_field else " (nf)") for c in row
        )
        lines.append(f"| {b} | {a} | ({row[0].m},{row[0].n}) | {entries} |")
    return "\n".join(lines) + "\n"


def _t1_elements_text(cell: T1Cell) -> str:
    return ",".join(f"{v}_{t}" if t else str(v) for v, t in cell.elements)


def t1_to_json(cells: list[T1Cell], orders: list[T1Orders]) -> str:
    payload = {
        "cells": [
            {**c.__dict__, "elements": [list(e) for e in c.elements]} for c in cells
        ],
        "orders": [
            {"a": o.a, "b": o.b, "orders": [list(e) for e in o.orders]} for o in orders
        ],
    }
    return _dump_json(payload)


def t1_to_csv(cells: list[T1Cell], orders: list[T1Orders]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["a", "b", "m", "n", "q", "elements", "is_field", "unit_and_zero"])
    for c in cells:
        w.writerow([c.a, c.b, c.m, c.n, c.q, _t1_elements_text(c),
                    c.is_field, c.unit_and_zero])
    w.writerow([])
    w.writerow(["a", "b", "field_orders_5_to_10"])
    for o in orders:
        text = ",".join(f"*{q}*" if bold else str(q) for q, bold in o.orders)
        w.writerow([o.a, o.b, text])
    return buf.getvalue()


def t1_to_md(cells: list[T1Cell], orders: list[T1Orders]) -> str:
    lines = [
        "# Contents of the small finite polyadic rings",
        "",
        "Markers: `_e` unit, `_z` zero, `[z+e]` field with unit and zero,"
        " `[field]` field without the pair, `*q*` field order with unit and zero.",
        "",
        "| b | a | (m,n) | q=2 | q=3 | q=4 | field orders 5..10 |",
        "|---|---|---|---|---|---|---|",
    ]
    by_ab: dict[tuple[int, int], dict] = {}
    for c in cells:
        by_ab.setdefault((c.b, c.a), {})[c.q] = c
    order_map = {(o.b, o.a): o for o in orders}
    for (b, a), row in sorted(by_ab.items()):
        texts = []
        for q in (2, 3, 4):
            c = row[q]
            text = _t1_elements_text(c)
            if c.unit_and_zero and c.is_field:
                text += " [z+e]"
            elif c.is_field:
                text += " [field]"
            texts.append(text)
        o = order_map[(b, a)]
        line = ",".join(f"*{q}*" if bold else str(q) for q, bold in o.orders)
        lines.append(
            f"| {b} | {a} | ({row[2].m},{row[2].n}) | " + " | ".join(texts) + f" | {line} |"
        )
    return "\n".join(lines) + "\n"


def appendix_to_md(listing: dict) -> str:
    a, b, q = listing["a"], listing["b"], listing["q"]
    lines = [
        f"# F_({listing['m']},{listing['n']})^[{a},{b}]({q})",
        "",
        f"Elements: {', '.join(map(str, listing['elements']))}",
        f"Zero: {listing['zero'] if listing['zero'] is not None else 'none'}",
        f"Units: {', '.join(map(str, listing['units'])) if listing['units'] else 'none'}",
        f"Polyadic characteristic: {listing['chi_p'] if listing['chi_p'] is not None else 'undefined'}",
        f"Idempotence order: {listing['lambda_p']}",
        "",
        "## Multiplication",
        "",
    ]
    n = listing["n"]
    for operands, res in listing["products"]:
        args = ",".join(map(str, operands))
        lines.append(f"mu{n}[{args}] = {res}")
    lines += ["", "## Querelements", ""]
    for x, y in sorted(listing["querelements"].items()):
        lines.append(f"quer({x}) = {y}")
    g = listing["group"]
    lines += ["", "## Multiplicative group", ""]
    for i, sub in enumerate(g["subgroups"], start=1):
        lines.append(f"G{i} = {{{', '.join(map(str, sub))}}}")
    lines.append(f"E(G) = {{{', '.join(map(str, g['units']))}}}")
    lines.append(
        f"disjoint: {g['disjoint']}, covers: {g['covers']}, units split off: {g['split']}"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- deviations

def table_deviations(reports: Optional[Reports] = None
                     ) -> list[tuple[str, tuple, str, str, str]]:
    """Every cell where recomputation differs from the published reference.

    Returns (table, location, printed, computed, note); the note is the
    adjudication from reference.KNOWN_DEVIATIONS or a loud marker when a
    difference has not been adjudicated yet.  `reports` must cover the
    T2 grid; without it each ring is classified once here.
    """
    from . import reference

    if reports is None:
        reports = classify_grid()
    diffs = []

    def note_for(table, loc):
        return reference.KNOWN_DEVIATIONS.get(
            (table, loc), "UNEXPECTED: not adjudicated, investigate before release"
        )

    t2 = {(c.a, c.b, c.q): c for c in generate_t2(reports=reports)}
    for (a, b), (_, cells) in sorted(reference.REFERENCE_T2.items()):
        for q, printed in sorted(cells.items()):
            got = t2[(a, b, q)].flags
            if got != printed:
                diffs.append(("T2", (a, b, q), str(printed), str(got),
                              note_for("T2", (a, b, q))))

    t0 = {(c.a, c.b, c.q): c for c in generate_t0(reports=reports)}
    seen = set()
    for (a, b), entries in sorted(reference.REFERENCE_T0.items()):
        for (q, chi, is_field_flag) in entries:
            seen.add((a, b, q))
            got = t0.get((a, b, q))
            if got is None or (got.chi_p, got.is_field) != (chi, is_field_flag):
                comp = "no unit or zero" if got is None else str((got.chi_p, got.is_field))
                diffs.append(("T0", (a, b, q), str((chi, is_field_flag)), comp,
                              note_for("T0", (a, b, q))))
    for key in sorted(t0):
        if key not in seen and key[1] <= 6:
            c = t0[key]
            diffs.append(("T0", key, "entry absent", str((c.chi_p, c.is_field)),
                          note_for("T0", key)))

    cells1, orders1 = generate_t1(reports=reports)
    ref1 = reference.REFERENCE_T1
    comp_cells = {(c.a, c.b, c.q): c for c in cells1}
    comp_orders = {(o.a, o.b): o for o in orders1}
    for (a, b), entry in sorted(ref1.items()):
        for q, (frame, els) in sorted(entry["cells"].items()):
            c = comp_cells[(a, b, q)]
            comp_frame = 0 if not c.is_field else (2 if c.unit_and_zero else 1)
            if els != c.elements or frame != comp_frame:
                diffs.append(("T1", (a, b, q),
                              f"frame={frame} {els}",
                              f"frame={comp_frame} {c.elements}",
                              note_for("T1", (a, b, q))))
        if entry["orders"] != comp_orders[(a, b)].orders:
            diffs.append(("T1", (a, b, "orders"),
                          str(entry["orders"]), str(comp_orders[(a, b)].orders),
                          note_for("T1", (a, b, "orders"))))
    return diffs


def deviations_report(reports: Optional[Reports] = None) -> str:
    from . import reference

    lines = [
        "# Deviations from the published reference values",
        "",
        "Every entry below is a place where exact recomputation disagrees",
        "with a printed value.  Computed values are produced by the scan",
        "and cross-checked by the brute-force oracles in the test suite.",
        "",
        "## Table cells",
        "",
    ]
    for table, loc, printed, computed, note in table_deviations(reports):
        lines.append(f"- **{table} {loc}**: printed `{printed}`, computed `{computed}`.")
        lines.append(f"  {note}.")
    lines += ["", "## Worked examples", ""]
    for title, note in reference.ARITHMETIC_NOTES:
        lines.append(f"- **{title}**: {note}.")
    return "\n".join(lines) + "\n"


def render_tables(reports: Optional[Reports] = None) -> dict[str, str]:
    """Text of T2, T0 and T1 as JSON, CSV and Markdown, keyed by file name.

    `reports` must cover the T2 grid; without it each ring is classified
    once here.
    """
    if reports is None:
        reports = classify_grid()
    t2 = generate_t2(reports=reports)
    t0 = generate_t0(reports=reports)
    cells1, orders1 = generate_t1(reports=reports)
    return {
        "T2.json": t2_to_json(t2),
        "T2.csv": t2_to_csv(t2),
        "T2.md": t2_to_md(t2),
        "T0.json": t0_to_json(t0),
        "T0.csv": t0_to_csv(t0),
        "T0.md": t0_to_md(t0),
        "T1.json": t1_to_json(cells1, orders1),
        "T1.csv": t1_to_csv(cells1, orders1),
        "T1.md": t1_to_md(cells1, orders1),
    }


def write_tables(outdir: str) -> list[str]:
    """Write tables/T*.{json,csv,md}, appendix listings and deviations.md.

    Each ring of the T2 grid is classified once, for all three tables and
    the deviations; each appendix field once more.
    """
    tdir = os.path.join(outdir, "tables")
    os.makedirs(tdir, exist_ok=True)
    reports = classify_grid()
    written = []

    def emit(name: str, text: str):
        path = os.path.join(tdir, name)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        written.append(path)

    for name, text in render_tables(reports).items():
        emit(name, text)
    for (a, b, q) in APPENDIX_FIELDS:
        emit(f"appendix_{a}_{b}_{q}.md", appendix_to_md(generate_appendix(a, b, q)))
    emit("deviations.md", deviations_report(reports))
    return written
