"""Classification tables and the exotic-field listings.

Everything here is regenerated from the finite-ring scans; nothing is
hand-entered.  `classify_grid` classifies each ring of the T2 grid
(b <= 10, q = 2..10) once, by one `finite.structure_report` call,
serially in (b, a, q) order.  That mapping is the one input of the table
layer: the table generators, `render_tables` and the deviation scanner
all read their cells from it, and T0 and T1 cover its b <= 6 part.
`write_tables` builds T0, T1, T2 and deviations.md from one such grid;
only the five appendix listings classify their field again.
Renderers emit JSON (sorted keys, newline-terminated), CSV and Markdown;
`render_tables` maps each T*.{json,csv,md} file name to its text, for
both `write_tables` and the `table` command.  Markdown encodes typography
as explicit markers: framed (zeroless-nonunital) cells as [zl-nu],
unit-plus-zero as a * prefix (or [z+e] on element lists), an
n-admissible reduced order as a trailing _, and non-fields in the
characteristic table as (nf).

A deviation scanner compares T2, T0 and T1 with the published reference
tables by one rule and writes every difference, adjudicated or not, to
deviations.md: a printed location whose computed value differs, a printed
location with no computed value, and a computed location with no printed
value.  Only that scanner reads `reference`, so it alone imports that
module, and no other command compiles its literals.

The cells (`T0Cell`, `T1Cell`, `T1Orders`, `T2Cell`) are
`typing.NamedTuple`s, not dataclasses, so that no process pays for
importing `dataclasses` (see `ring`).  The JSON renderers read a cell's
fields with `_asdict()`; cells also iterate and compare equal to a plain
tuple of their fields.
"""

from __future__ import annotations

import csv
import io
import json
import os
from itertools import groupby
from typing import Iterator, Mapping, NamedTuple, Optional

from .errors import UnknownFieldIdError
from .finite import (FiniteRing, StructureReport, finite_ring, mult_querelements,
                     structure_report)
from .groups import decompose
from .ring import grid_pairs, make_descriptor

APPENDIX_FIELDS = ((5, 6, 6), (5, 6, 4), (3, 8, 2), (7, 8, 2), (2, 3, 5))

T0_T1_B_MAX = 6  # T0 and T1 print the rings with b <= 6 of the T2 grid

Reports = Mapping[tuple[int, int, int], StructureReport]


def classify_grid() -> Reports:
    """The structure report of each ring of the T2 grid, b <= 10 and q = 2..10.

    Keyed by (a, b, q) and inserted in (b, a, q) order, the row order of
    every table, so the generators read their cells off `values()` in turn.
    Each (a, b) gets one descriptor, shared by its nine orders.
    """
    rings = (make_descriptor(a, b) for a, b in grid_pairs(10))
    return {(d.a, d.b, q): structure_report(FiniteRing(d, q))
            for d in rings for q in range(2, 11)}


def _unit_and_zero(report: StructureReport) -> bool:
    return bool(report.units) and report.zero is not None


# ---------------------------------------------------------------- T2

class T2Cell(NamedTuple):
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
    underline = d.n >= 3 and report.q_star >= d.n and report.n_admissible
    return T2Cell(
        d.a, d.b, d.m, d.n, fr.q,
        is_field=True,
        lambda_p=report.lambda_p,
        kappa_e=report.kappa_e,
        zeroless_nonunital=report.zeroless and report.nonunital,
        underline=underline,
        unit_and_zero=_unit_and_zero(report),
    )


def generate_t2(reports: Reports) -> list[T2Cell]:
    """Idempotence-order cells of every ring of the grid (see `classify_grid`)."""
    return [_t2_cell(report) for report in reports.values()]


# ---------------------------------------------------------------- T0

class T0Cell(NamedTuple):
    a: int
    b: int
    m: int
    n: int
    q: int
    chi_p: int
    is_field: bool


def generate_t0(reports: Reports) -> list[T0Cell]:
    """Rings with b <= 6 and both unit(s) and zero, with their polyadic characteristic."""
    return [T0Cell(a, b, r.ring.ring.m, r.ring.ring.n, q, r.chi_p, r.is_field)
            for (a, b, q), r in reports.items()
            if b <= T0_T1_B_MAX and _unit_and_zero(r)]


# ---------------------------------------------------------------- T1

class T1Cell(NamedTuple):
    a: int
    b: int
    m: int
    n: int
    q: int
    elements: tuple[tuple[int, str], ...]  # (representative, "", "e" or "z")
    is_field: bool
    unit_and_zero: bool

    @property
    def frame(self) -> int:
        """Printed frame level: 0 not a field, 1 field, 2 field with unit and zero."""
        return 0 if not self.is_field else (2 if self.unit_and_zero else 1)


class T1Orders(NamedTuple):
    a: int
    b: int
    orders: tuple[tuple[int, bool], ...]  # field orders 5..10, bold = unit+zero


def generate_t1(reports: Reports) -> tuple[list[T1Cell], list[T1Orders]]:
    """Element lists for q = 2..4 and the field orders 5..10 of each (a, b) with b <= 6."""
    cells, orders = [], []
    for a, b in grid_pairs(T0_T1_B_MAX):
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
        orders.append(T1Orders(a, b, tuple(
            (q, _unit_and_zero(reports[a, b, q]))
            for q in range(5, 11) if reports[a, b, q].is_field)))
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


def _csv(header, rows) -> str:
    # csv writes None as an empty field and a bool as True/False.
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _rows(cells) -> Iterator[list]:
    """Cells grouped into table rows by (b, a); the generators emit (b, a, q) order."""
    return (list(row) for _, row in groupby(cells, key=lambda c: (c.b, c.a)))


def _md_table(title: str, markers: str, columns, rows) -> str:
    """Markdown table under a title and legend; a (cell, texts) row prints b, a, (m,n), texts."""
    columns = ("b", "a", "(m,n)", *columns)
    lines = [f"# {title}", "", f"Markers: {markers}", "",
             "| " + " | ".join(columns) + " |", "|---" * len(columns) + "|"]
    lines += [f"| {c.b} | {c.a} | ({c.m},{c.n}) | " + " | ".join(texts) + " |"
              for c, texts in rows]
    return "\n".join(lines) + "\n"


def t2_to_json(cells: list[T2Cell] | list[T0Cell]) -> str:
    return _dump_json([cell._asdict() for cell in cells])


t0_to_json = t2_to_json  # one JSON object per cell, for T0 as for T2


def t2_to_csv(cells: list[T2Cell]) -> str:
    return _csv(T2Cell._fields, cells)


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
    return _md_table(
        "Idempotence orders of the finite polyadic fields",
        "`*` unit and zero present, `{Ke}` K units, trailing `_`"
        " n-admissible reduced order, `[zl-nu]` zeroless-nonunital, `-` not a field.",
        [f"q={q}" for q in range(2, 11)],
        ((row[0], map(_t2_cell_text, row)) for row in _rows(cells)))


def t0_to_csv(cells: list[T0Cell]) -> str:
    return _csv(T0Cell._fields, cells)


def t0_to_md(cells: list[T0Cell]) -> str:
    return _md_table(
        "Polyadic characteristics of rings with unit(s) and zero",
        "`(nf)` order does not give a field.",
        ["chi_p by order"],
        ((row[0], [", ".join(f"q={c.q}: {c.chi_p}" + ("" if c.is_field else " (nf)")
                             for c in row)])
         for row in _rows(cells)))


def _t1_elements_text(cell: T1Cell) -> str:
    return ",".join(f"{v}_{t}" if t else str(v) for v, t in cell.elements)


def _t1_orders_text(line: T1Orders) -> str:
    return ",".join(f"*{q}*" if bold else str(q) for q, bold in line.orders)


def t1_to_json(cells: list[T1Cell], orders: list[T1Orders]) -> str:
    return _dump_json({"cells": [c._asdict() for c in cells],
                       "orders": [o._asdict() for o in orders]})


def t1_to_csv(cells: list[T1Cell], orders: list[T1Orders]) -> str:
    return (_csv(T1Cell._fields, (c._replace(elements=_t1_elements_text(c)) for c in cells))
            + "\n"
            + _csv(("a", "b", "field_orders_5_to_10"),
                   ((o.a, o.b, _t1_orders_text(o)) for o in orders)))


def _t1_cell_text(c: T1Cell) -> str:
    return _t1_elements_text(c) + ("", " [field]", " [z+e]")[c.frame]


def t1_to_md(cells: list[T1Cell], orders: list[T1Orders]) -> str:
    return _md_table(
        "Contents of the small finite polyadic rings",
        "`_e` unit, `_z` zero, `[z+e]` field with unit and zero,"
        " `[field]` field without the pair, `*q*` field order with unit and zero.",
        ["q=2", "q=3", "q=4", "field orders 5..10"],
        ((row[0], [*map(_t1_cell_text, row), _t1_orders_text(line)])
         for row, line in zip(_rows(cells), orders)))


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

def table_deviations(reports: Reports) -> list[tuple[str, tuple, str, str, str]]:
    """Every location where recomputation and the published reference differ.

    Returns (table, location, printed, computed, note) for T2, T0 and T1.
    One rule compares each table's maps from location to text, one from
    `reference` and one from its generator: a printed location whose
    computed text differs, in reference order; then a computed location
    with no printed value, "entry absent", by (a, b), then in generator
    order.  A printed location with no computed text reads "no unit or
    zero" in T0 where the ring was classified (b <= 6, in the grid of
    `classify_grid`), and "not computed" elsewhere.  Unadjudicated notes
    read UNEXPECTED.
    """
    from . import reference

    printed1 = {}
    for (a, b), entry in reference.REFERENCE_T1.items():
        for q, (frame, els) in entry["cells"].items():
            printed1[a, b, q] = f"frame={frame} {els}"
        printed1[a, b, "orders"] = str(entry["orders"])
    cells1, orders1 = generate_t1(reports)
    computed1 = {(c.a, c.b, c.q): f"frame={c.frame} {c.elements}" for c in cells1}
    computed1.update({(o.a, o.b, "orders"): str(o.orders) for o in orders1})
    tables = (
        ("T2",
         {(a, b, q): str(flags) for (a, b), (_, row) in reference.REFERENCE_T2.items()
          for q, flags in row.items()},
         {(c.a, c.b, c.q): str(c.flags) for c in generate_t2(reports)}),
        ("T0",
         {(a, b, q): str((chi, field)) for (a, b), entries in reference.REFERENCE_T0.items()
          for q, chi, field in entries},
         {(c.a, c.b, c.q): str((c.chi_p, c.is_field)) for c in generate_t0(reports)}),
        ("T1", printed1, computed1),
    )
    diffs = []
    for table, printed, computed in tables:
        for loc, text in printed.items():
            # T0 leaves out a classified ring that lacks a unit or the zero.
            t0_classified = table == "T0" and loc in reports and loc[1] <= T0_T1_B_MAX
            missing = "no unit or zero" if t0_classified else "not computed"
            if computed.get(loc, missing) != text:
                diffs.append((table, loc, text, computed.get(loc, missing)))
        for loc in sorted((loc for loc in computed if loc not in printed), key=lambda loc: loc[:2]):
            diffs.append((table, loc, "entry absent", computed[loc]))
    unadjudicated = "UNEXPECTED: not adjudicated, investigate before release"
    return [(*diff, reference.KNOWN_DEVIATIONS.get(diff[:2], unadjudicated)) for diff in diffs]


def deviations_report(reports: Reports) -> str:
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


def render_tables(reports: Reports) -> dict[str, str]:
    """Text of T2, T0 and T1 as JSON, CSV and Markdown, keyed by file name.

    `reports` is the grid of `classify_grid`.
    """
    t2 = generate_t2(reports)
    t0 = generate_t0(reports)
    cells1, orders1 = generate_t1(reports)
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
