"""Multiplicative n-ary group structure of finite polyadic fields.

Cyclic subgroups generated by polyadic powers, the split between them
and the subgroup of units, primitive elements, and reflections (elements
a power of which lands on a unit).  Every function here takes the ring's
`finite.StructureReport` and walks nothing: primitive elements are read
off its element orders, and subgroups and reflections off the cycles of
powers that `finite.structure_report` walked once and kept in
`report.cycles`.  The subgroup an element generates is a slice of its
cycle, built once per distinct slice, and its reflection solves a linear
congruence.  An element without an order, which no field has, never
reaches a unit (`_subgroups_and_reflections` proves it), so it needs no
walk either.  The three flags of `decompose` (the split, the cover and
disjointness) come from proofs in its docstring, so no set of covered
indices is built.  The cost is that of reading the cycles, Θ(q) like
the output of `decompose`.  Nothing is cached here: `classify_canonical`
keeps what `renamed_json` needs to write any ring from its canonical one.

`GroupDecomposition` is a `typing.NamedTuple`, not a dataclass, so that
no process pays for importing `dataclasses` (see `ring`): it iterates,
compares equal to a plain tuple of its fields and offers `_asdict()`.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from .errors import NotAFieldError, NoUnitsError
from .finite import (
    FiniteRing,
    StructureReport,
    _group_json,
    _ints,
    _report_json,
    characteristic,
    structure_report,
    to_json,
)


class GroupDecomposition(NamedTuple):
    ring: FiniteRing
    subgroups: tuple[tuple[int, ...], ...]
    unit_subgroup: tuple[int, ...]
    unit_subgroup_split: bool
    covers: bool
    pairwise_disjoint: bool
    primitive_elements: tuple[int, ...]
    kappa_prim: int
    reflections: tuple[tuple[int, int], ...]


def _require_field(report: StructureReport) -> None:
    if not report.is_field:
        raise NotAFieldError(f"{report.ring!r} is not a polyadic field")


def cyclic_subgroup(report: StructureReport, k: int) -> frozenset[int]:
    """The cyclic n-ary subgroup generated by a non-zero element, a slice of its cycle.

    On a cycle w of `report.cycles` that holds k at place i, it is
    w[i mod g::g] with g = len(w) / ord(k) (`_subgroups_and_reflections`).
    """
    _require_field(report)
    if k == report.zero or not 0 <= k < report.ring.q:
        raise ValueError(f"{k} is not a non-zero element of {report.ring!r}")
    cycle = next(w for w in report.cycles if k in w)  # a field's cycles hold every one
    g = len(cycle) // report.element_orders[k]
    return frozenset(cycle[cycle.index(k) % g::g])


def _subgroups_and_reflections(report: StructureReport) -> tuple[set, dict[int, int], set]:
    """The non-units' subgroups, their reflections and the units they reach, in one loop.

    Every element k that is neither a unit nor the zero is taken in index
    order, at its place i on the last cycle w of `report.cycles` that
    holds it.  With o = len(w), e_i = 1 + i(n-1) and g = gcd(o, e_i), read
    off the report as o / ord(k):

    - k generates the slice w[j::g] with j = i mod g, built once per (w, g, j).
    - With a unit at place t of w, k reaches a unit first after
      l = (t - i)/g * (e_i/g)^-1 modulo o/g = ord(k) powers if g | t - i,
      and never otherwise; that unit is then reached.

    Proof sketch.  The l-th power of w[i] is w[(i + l*e_i) mod o] with
    e_i = 1 + i(n-1) (`finite.power_cycles`).  As l runs over the
    integers, l*e_i runs over the multiples of g modulo o, so the powers
    are exactly the places congruent to i modulo g.  Every power of k
    lies on w, so only units on w can be reached, and a cycle holds at
    most one unit: a unit e has order 1, since mu[e^(n-1), e] = e, and
    w[t] has order 1 iff o | 1 + t(n-1), which forces gcd(o, n-1) = 1;
    two such places t, t' then give o | (t - t')(n-1), so t = t'.  The
    least l >= 1 solves l*e_i = t - i (mod o), which has the stated
    solutions by the usual rule; l = 0 would mean t = i, that is k a
    unit.

    An index k with no order is on no cycle and never reaches a unit, so
    it is skipped.  With r = rep(k), it has no order when some prime p
    divides both r and h = b*q / gcd(r, b*q) (`finite.power_cycles`).
    Suppose p does not divide q.  Then p | b, and v_p(r) < v_p(b*q) =
    v_p(b); since r = a (mod b), v_p(a) = v_p(r) < v_p(b).  A unit u =
    rep(e) is a modulo b too, so p | u, u^(n-1) - 1 is prime to p, and
    the unit condition b*q | (u^(n-1) - 1)*a (`finite.find_units`) gives
    v_p(b) <= v_p(a): impossible.  So when the ring has a unit, p | q,
    and every power of k, with representative r^(1+l(n-1)) mod b*q,
    shares p with q, while a unit's representative is prime to q since
    u^(n-1) = 1 (mod q).  No power of k is a unit.
    """
    q, n1 = report.ring.q, report.ring.ring.n - 1
    orders, cycles, zero = report.element_orders, report.cycles, report.zero
    units = set(report.units)
    # Flat tables: per-index (cycle, place) tuples would stay in CPython's
    # tuple free lists after the call and raise the peak RSS of a scan.
    cycle_of, place, unit_place = [-1] * q, [0] * q, [-1] * len(cycles)
    for c, cycle in enumerate(cycles):
        for i, x in enumerate(cycle):
            cycle_of[x], place[x] = c, i
            if x in units:
                unit_place[c] = i
    # The iteration order of `candidates` breaks ties between subgroups
    # with the same least element in the sort in `decompose`, so it is part
    # of the output bytes until that sort uses the whole tuple.  Keep it:
    # add each subgroup once, in order of its first generator.  Building the
    # set at once from a dict pre-sizes its table and reorders the ties.
    candidates, built, refl, reached = set(), set(), {}, set()
    for k in range(q):
        c = cycle_of[k]
        if k in units or k == zero or c < 0:  # c < 0: k has no order
            continue
        i, o, cycle, t = place[k], orders[k], cycles[c], unit_place[c]
        g = len(cycle) // o
        key = (c, g, i % g)
        if key not in built:
            built.add(key)
            candidates.add(frozenset(cycle[i % g::g]))
        if t >= 0 and (t - i) % g == 0:
            refl[k] = (t - i) // g * pow((1 + i * n1) // g, -1, o) % o
            reached.add(cycle[t])
    return candidates, refl, reached


def reflections(report: StructureReport) -> dict[int, int]:
    """Least l per non-unit with the l-th power on a unit; absent if never."""
    if not report.units:
        raise NoUnitsError(f"{report.ring!r} has no unit")
    return _subgroups_and_reflections(report)[1]


def primitive_elements(report: StructureReport) -> tuple[int, ...]:
    """Non-zero elements whose idempotence order is the full reduced order, ascending."""
    _require_field(report)
    zero, q_star = report.zero, report.q_star
    return tuple(k for k, order in enumerate(report.element_orders)
                 if order == q_star and k != zero)


def decompose(report: StructureReport) -> GroupDecomposition:
    """Collect the maximal cyclic subgroups and measure how they fit together.

    Subgroups are generated by non-unit, non-zero elements; the units,
    `report.units`, form their own subgroup reported separately.  One loop
    over the report's cycles gives the subgroups, the reflections and the
    units that some non-unit reaches (`_subgroups_and_reflections`).  The
    three flags come from proofs, and no set of covered indices is built:
    the units split off the subgroups iff no element has a reflection;
    the subgroups and the units always cover the non-zero elements; and
    the subgroups are pairwise disjoint iff their sizes sum to
    q* - kappa_e + |reached|, the size of their union.

    Proof sketch.  Subgroups are slices of the cycles of non-zero
    indices, and the zero lies on no other cycle (`finite.structure_report`).
    A unit zero z would give x = mu[z^(n-1), x] = z for every x, so q = 1,
    where a field has no zero.  So the subgroups and the units lie among
    the q* non-zero indices.  Each non-zero non-unit k lies in the
    subgroup it generates, and that inside a maximal one, so they cover.
    The subgroup k generates is the set of its powers, so a unit lies in
    some subgroup, and then in a maximal one, exactly when a power of
    some non-unit reaches it.  The union of the subgroups is thus the
    q* - kappa_e non-units and the units reached, and the subgroups are
    pairwise disjoint iff their sizes add up to its size.
    """
    _require_field(report)
    candidates, refl, reached = _subgroups_and_reflections(report)  # its order breaks ties below
    maximal = [g for g in candidates if not any(g < h for h in candidates)]
    subgroups = tuple(sorted((tuple(sorted(g)) for g in maximal), key=lambda g: g[0]))
    prim = primitive_elements(report)
    return GroupDecomposition(
        ring=report.ring,
        subgroups=subgroups,
        unit_subgroup=report.units,  # ascending, as `finite.find_units` yields them
        unit_subgroup_split=not refl,
        covers=True,
        pairwise_disjoint=sum(map(len, subgroups)) == report.q_star - report.kappa_e + len(reached),
        primitive_elements=prim,
        kappa_prim=len(prim),
        reflections=tuple(refl.items()),  # inserted in increasing k
    )


class Canonical(NamedTuple):
    """Of a canonical ring's classification, what the lines renamed from it need, spelled once.

    On a field, group holds the subgroups, the primitive elements, each
    index's reflection length (0 for none), the split and the cover.
    """

    orders: list
    zero: Optional[int]
    units: tuple[int, ...]
    q_star: int
    kappa_e: int
    lambda_p: object
    n_admissible: str
    is_field: str
    zeroless: str
    nonunital: str
    group: Optional[tuple]


def classify_canonical(canon: FiniteRing) -> Canonical:
    """Classify and, on a field, decompose a canonical ring once, for `renamed_json`."""
    r, group = structure_report(canon), None
    if r.is_field:
        d = decompose(r)
        refl = dict(d.reflections)
        group = (d.subgroups, d.primitive_elements, [refl.get(k, 0) for k in range(canon.q)],
                 str(d.unit_subgroup_split).lower(), str(d.covers).lower())
    flags = [str(f).lower() for f in (r.n_admissible, r.is_field, r.zeroless, r.nonunital)]
    return Canonical([o if o is not None else "null" for o in r.element_orders], r.zero, r.units,
                     r.q_star, r.kappa_e, r.lambda_p or "null", *flags, group)


def renamed_json(fr: FiniteRing, canonical: Canonical, b2: int, shift: int, orders: str) -> str:
    """The scan line of fr, `to_json` of its report and decomposition, read off its canonical ring.

    canonical is `classify_canonical` of fr's canonical ring, (b2, shift) fr's
    label on it and orders `finite.orders_template(q)`.  By the lemma in
    `finite.canonical_ring`, index k has the order of its label, and fr's zero,
    units, subgroups, primitive elements and reflections are the canonical
    ring's with each x renamed to (x - shift)*b2^-1 mod q, sorted again; chi_p
    is `finite.characteristic(fr)`.  Subgroups that share their least element
    are ordered by `decompose`'s candidate set, so fr's own walk writes those.
    """
    q, c = fr.q, pow(b2, -1, fr.q)
    zero = "null" if canonical.zero is None else (canonical.zero - shift) * c % q
    units = str(sorted([(x - shift) * c % q for x in canonical.units])).replace(" ", "")
    chi_p = characteristic(fr) or "null"  # chi_p is >= 1 or None, as lambda_p is
    text = "{" + _report_json(fr, canonical, zero, units, chi_p,
                              orders % tuple(_gather(canonical.orders, b2, shift)))
    if canonical.group is None:
        return text + "}"
    subgroups, primitive, lengths, split, covers = canonical.group
    name = _gather(list(range(q)), c, -c * shift % q).__getitem__
    subgroups = sorted([sorted(map(name, g)) for g in subgroups])
    if len({g[0] for g in subgroups}) < len(subgroups):
        report = structure_report(fr)
        return to_json(report, decompose(report))
    refl = ",".join([f'"{k}":{l}' for k, l in enumerate(_gather(lengths, b2, shift)) if l])
    return text + ',"group":{%s}}' % _group_json(str(subgroups).replace(" ", ""), units, split,
                                                 covers, _ints(sorted(map(name, primitive))), refl)


def _gather(xs: list, step: int, shift: int) -> list:
    """[xs[(step*k + shift) % q] for k in range(q)], q = len(xs), as one slice of xs repeated."""
    q = len(xs)
    # The slice copies (step + 1)*q places, the comprehension computes q: per call at q = 23
    # to 600 they cross at step 64-70; by slices alone scan 3x600 peaked at 20.8 MB, not 18.1.
    if step < 64:
        return (xs * (step + 1))[shift:shift + step * q:step]
    return [xs[(step * k + shift) % q] for k in range(q)]


def decomposition_to_dict(dec: GroupDecomposition) -> dict:
    """JSON payload attached under the `group` key of a ring report."""
    return json.loads(to_json(group=dec))
