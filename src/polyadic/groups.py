"""Multiplicative n-ary group structure of finite polyadic fields.

Cyclic subgroups generated by polyadic powers, the split between them
and the subgroup of units, primitive elements, and reflections (elements
a power of which lands on a unit).  Every function here takes the ring's
`finite.StructureReport`.  Primitive elements are read off its element
orders.  Subgroups and reflections come from one walk of each cycle of
`finite.power_cycles`: the subgroup an element generates is a slice of
its cycle, built once per distinct slice, and its reflection solves a
linear congruence.  Only an element without an order, which no field
has, is walked on its own.  Nothing is cached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAFieldError, NoUnitsError
from .finite import FiniteRing, StructureReport, power_cycles, power_orbit


@dataclass(frozen=True)
class GroupDecomposition:
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


def _places(report: StructureReport) -> tuple[tuple[tuple[int, ...], ...], list, list]:
    """The cycles of `finite.power_cycles`, where each index sits, and each unit.

    Returns the cycles, per index its (cycle number, place) on the last
    cycle that holds it (None if it has no order and so is on none), and
    per cycle the place of the unit on it (None if it holds none).
    """
    units = set(report.units)
    cycles = power_cycles(report.ring)
    places: list = [None] * report.ring.q
    unit_places: list = [None] * len(cycles)
    for c, cycle in enumerate(cycles):
        for i, x in enumerate(cycle):
            places[x] = (c, i)
            if x in units:
                unit_places[c] = i
    return cycles, places, unit_places


def _slice(report: StructureReport, cycles, places, k: int) -> tuple[int, int, int]:
    """(c, g, j) such that k generates the slice cycles[c][j::g].

    For k = w[i] on a cycle w of length o, g = gcd(o, 1 + i(n-1)) and
    j = i mod g; g is read off the report as o / ord(k).

    Proof sketch.  The l-th power of w[i] is w[(i + l*e_i) mod o] with
    e_i = 1 + i(n-1) (`finite.structure_report`).  As l runs over the
    integers, l*e_i runs over the multiples of g modulo o, so the powers
    are exactly the places congruent to i modulo g.
    """
    c, i = places[k]
    g = len(cycles[c]) // report.element_orders[k]
    return c, g, i % g


def cyclic_subgroup(report: StructureReport, k: int) -> frozenset[int]:
    """The cyclic n-ary subgroup generated by a non-zero element, a slice of its cycle."""
    _require_field(report)
    if report.zero == k:
        raise ValueError("the zero generates no multiplicative subgroup")
    cycles, places, _ = _places(report)
    c, g, j = _slice(report, cycles, places, k)
    return frozenset(cycles[c][j::g])


def _nonunits(report: StructureReport) -> list[int]:
    """Every element that is neither a unit nor the zero, in index order."""
    units = set(report.units)
    return [k for k in report.ring.elements() if k not in units and k != report.zero]


def _reflection_map(report: StructureReport, nonunits: list[int],
                    cycles, places, unit_places) -> dict[int, int]:
    """Least l >= 1 per non-unit with its l-th power on a unit, where one exists.

    For k = w[i] on a cycle w of length o, with e_i = 1 + i(n-1),
    g = gcd(o, e_i) and a unit at place t of w, l is the least solution of
    l*e_i = t - i (mod o): none unless g | t - i, and otherwise
    l = (t - i)/g * (e_i/g)^-1 modulo o/g = ord(k).

    Proof sketch.  The l-th power of k is w[(i + l*e_i) mod o]
    (`finite.structure_report`), and every power of k lies on w, so only
    units on w can be reached.  A cycle holds at most one unit: a unit e
    has order 1, since mu[e^(n-1), e] = e, and w[t] has order 1 iff
    o | 1 + t(n-1), which forces gcd(o, n-1) = 1; two such places t, t'
    then give o | (t - t')(n-1), so t = t'.  The congruence has the
    stated solutions by the usual rule, and l = 0 would mean t = i, that
    is k a unit.  An index with no order is walked by `finite.power_orbit`
    instead; its walk holds every index that any power reaches.
    """
    n = report.ring.ring.n
    orders = report.element_orders
    units = set(report.units)
    out = {}
    for k in nonunits:
        if places[k] is None:
            walk = power_orbit(report.ring, k)
            l = next((l for l in range(1, len(walk)) if walk[l] in units), None)
            if l is not None:
                out[k] = l
            continue
        c, i = places[k]
        t = unit_places[c]
        g = len(cycles[c]) // orders[k]
        if t is not None and (t - i) % g == 0:
            out[k] = (t - i) // g * pow((1 + i * (n - 1)) // g, -1, orders[k]) % orders[k]
    return out


def reflections(report: StructureReport) -> dict[int, int]:
    """Least l per non-unit with the l-th power on a unit; absent if never."""
    if not report.units:
        raise NoUnitsError(f"{report.ring!r} has no unit")
    return _reflection_map(report, _nonunits(report), *_places(report))


def primitive_elements(report: StructureReport) -> tuple[frozenset[int], int]:
    """Non-zero elements whose idempotence order is the full reduced order."""
    _require_field(report)
    prim = frozenset(
        k for k, order in enumerate(report.element_orders)
        if k != report.zero and order == report.q_star
    )
    return prim, len(prim)


def decompose(report: StructureReport) -> GroupDecomposition:
    """Collect the maximal cyclic subgroups and measure how they fit together.

    Subgroups are generated by non-unit, non-zero elements; the units form
    their own subgroup reported separately.  All flags are computed, never
    assumed: disjointness and coverage may legitimately fail.  Each cycle
    is walked once, and each distinct slice of it (`_slice`) is built
    once.
    """
    _require_field(report)
    units = set(report.units)
    zero = report.zero
    nonzero = {k for k in report.ring.elements() if k != zero}
    cycles, places, unit_places = _places(report)
    # The iteration order of `candidates` breaks ties between subgroups
    # with the same least element in the sort below, so it is part of the
    # output bytes until that sort uses the whole tuple.  Keep it: add
    # each subgroup once, in order of its first generator.  Building the
    # set at once from a dict pre-sizes its table and reorders the ties.
    nonunits = _nonunits(report)
    candidates: set[frozenset[int]] = set()
    built = set()
    for k in nonunits:
        key = _slice(report, cycles, places, k)
        if key not in built:
            built.add(key)
            c, g, j = key
            candidates.add(frozenset(cycles[c][j::g]))
    maximal = [g for g in candidates if not any(g < h for h in candidates)]
    subgroups = tuple(sorted((tuple(sorted(g)) for g in maximal), key=lambda g: g[0]))
    union = set().union(*subgroups)
    disjoint = len(union) == sum(map(len, subgroups))
    covers = union | units == nonzero
    split = units.isdisjoint(union)
    prim, kappa = primitive_elements(report)
    refl = _reflection_map(report, nonunits, cycles, places, unit_places)
    return GroupDecomposition(
        ring=report.ring,
        subgroups=subgroups,
        unit_subgroup=tuple(sorted(units)),
        unit_subgroup_split=split,
        covers=covers,
        pairwise_disjoint=disjoint,
        primitive_elements=tuple(sorted(prim)),
        kappa_prim=kappa,
        reflections=tuple(sorted(refl.items())),
    )


def decomposition_to_dict(dec: GroupDecomposition) -> dict:
    """JSON payload attached under the `group` key of a ring report."""
    return {
        "subgroups": [list(g) for g in dec.subgroups],
        "units": list(dec.unit_subgroup),
        "split": dec.unit_subgroup_split,
        "covers": dec.covers,
        "primitive": list(dec.primitive_elements),
        "reflections": {str(k): l for k, l in dec.reflections},
    }
