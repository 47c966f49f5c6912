"""Multiplicative n-ary group structure of finite polyadic fields.

Cyclic subgroups generated by polyadic powers, the split between them
and the subgroup of units, primitive elements, and reflections (elements
a power of which lands on a unit).  Every function here takes the ring's
`finite.StructureReport` and reads it: subgroups and reflections off its
power orbits, primitive elements off its element orders.  Nothing is
walked again and nothing is cached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAFieldError, NoUnitsError
from .finite import FiniteRing, StructureReport


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


def cyclic_subgroup(report: StructureReport, k: int) -> frozenset[int]:
    """The cyclic n-ary subgroup generated by a non-zero element."""
    _require_field(report)
    if report.zero == k:
        raise ValueError("the zero generates no multiplicative subgroup")
    return frozenset(report.orbits[k])


def _nonunit_orbits(report: StructureReport) -> dict[int, tuple[int, ...]]:
    """The power orbit of every element that is neither a unit nor the zero."""
    units = set(report.units)
    return {k: walk for k, walk in enumerate(report.orbits)
            if k not in units and k != report.zero}


def _reflection_map(orbits: dict[int, tuple[int, ...]], units: set[int]) -> dict[int, int]:
    # An orbit holds every index that any power reaches, so the first unit
    # in it after position 0 gives the least l.
    out = {}
    for k, walk in orbits.items():
        l = next((l for l in range(1, len(walk)) if walk[l] in units), None)
        if l is not None:
            out[k] = l
    return out


def reflections(report: StructureReport) -> dict[int, int]:
    """Least l per non-unit with the l-th power on a unit; absent if never."""
    if not report.units:
        raise NoUnitsError(f"{report.ring!r} has no unit")
    return _reflection_map(_nonunit_orbits(report), set(report.units))


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
    assumed: disjointness and coverage may legitimately fail.
    """
    _require_field(report)
    units = set(report.units)
    zero = report.zero
    nonzero = {k for k in report.ring.elements() if k != zero}
    orbits = _nonunit_orbits(report)
    candidates = {frozenset(walk) for walk in orbits.values()}
    maximal = [g for g in candidates if not any(g < h for h in candidates)]
    subgroups = tuple(sorted((tuple(sorted(g)) for g in maximal), key=lambda g: g[0]))
    disjoint = all(
        not set(subgroups[i]) & set(subgroups[j])
        for i in range(len(subgroups))
        for j in range(i + 1, len(subgroups))
    )
    union = set().union(*subgroups) if subgroups else set()
    covers = union | units == nonzero
    split = all(not units & set(g) for g in subgroups)
    prim, kappa = primitive_elements(report)
    refl = _reflection_map(orbits, units)
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
