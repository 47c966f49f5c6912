import sys
from itertools import combinations_with_replacement

import pytest

import polyadic.finite
from conftest import scan_rings
from polyadic.errors import NotAFieldError, NoUnitsError
from polyadic.finite import finite_ring, is_field, k_mul, structure_report
from polyadic.groups import (
    cyclic_subgroup,
    decompose,
    decomposition_to_dict,
    primitive_elements,
    reflections,
)


def reps(fr, ks):
    return sorted(fr.rep(k) for k in ks)


class TestCyclicSubgroups:
    def test_generated_orbits(self):
        fr = finite_ring(2, 3, 3)
        assert reps(fr, cyclic_subgroup(structure_report(fr), 0)) == [2, 5, 8]
        fr = finite_ring(5, 8, 7)
        assert reps(fr, cyclic_subgroup(structure_report(fr), 0)) == [5, 13, 45]

    def test_unit_generates_itself(self):
        fr = finite_ring(5, 6, 4)
        assert reps(fr, cyclic_subgroup(structure_report(fr), 0)) == [5]

    def test_rejects_the_zero_and_non_elements(self):
        report = structure_report(finite_ring(5, 8, 7))  # zero at index 2
        for k in (report.zero, -1, 7):
            with pytest.raises(ValueError):
                cyclic_subgroup(report, k)

    def test_requires_a_field(self):
        with pytest.raises(NotAFieldError):
            cyclic_subgroup(structure_report(finite_ring(2, 3, 6)), 0)
        with pytest.raises(NotAFieldError):
            decompose(structure_report(finite_ring(2, 3, 6)))


class TestDecomposition:
    def test_two_disjoint_subgroups(self):
        fr = finite_ring(5, 6, 6)
        dec = decompose(structure_report(fr))
        assert [reps(fr, g) for g in dec.subgroups] == [[5, 17, 29], [11, 23, 35]]
        assert dec.pairwise_disjoint and dec.covers
        assert not dec.unit_subgroup_split  # units 17 and 35 sit inside G1, G2

    def test_split_unit_subgroup(self):
        fr = finite_ring(7, 8, 8)
        dec = decompose(structure_report(fr))
        assert [reps(fr, g) for g in dec.subgroups] == [[7, 23, 39, 55], [15, 47]]
        assert reps(fr, dec.unit_subgroup) == [31, 63]
        assert dec.unit_subgroup_split and dec.covers and dec.pairwise_disjoint

    def test_unsplit_unit_subgroup_with_zero(self):
        fr = finite_ring(5, 8, 7)
        dec = decompose(structure_report(fr))
        assert [reps(fr, g) for g in dec.subgroups] == [[5, 13, 45], [29, 37, 53]]
        assert reps(fr, dec.unit_subgroup) == [13, 29]
        assert not dec.unit_subgroup_split
        assert dec.covers and dec.pairwise_disjoint

    def test_single_cyclic_part_plus_units(self):
        fr = finite_ring(2, 3, 5)
        dec = decompose(structure_report(fr))
        assert [reps(fr, g) for g in dec.subgroups] == [[2, 8]]
        assert reps(fr, dec.unit_subgroup) == [11, 14]
        assert dec.unit_subgroup_split and dec.covers

    def test_json_payload(self):
        payload = decomposition_to_dict(decompose(structure_report(finite_ring(5, 6, 6))))
        assert set(payload) == {
            "subgroups", "units", "split", "covers", "primitive", "reflections",
        }
        assert payload["subgroups"] == [[0, 2, 4], [1, 3, 5]]


class TestPrimitiveElements:
    def test_published_examples(self):
        fr = finite_ring(2, 3, 3)
        assert reps(fr, primitive_elements(structure_report(fr))) == [2, 5]
        assert len(primitive_elements(structure_report(finite_ring(5, 9, 9)))) == 9

    def test_all_unit_field_has_none(self):
        assert primitive_elements(structure_report(finite_ring(5, 6, 4))) == ()


class TestReflections:
    def test_published_examples(self):
        fr = finite_ring(5, 8, 7)
        got = {fr.rep(k): l for k, l in reflections(structure_report(fr)).items()}
        assert got == {5: 1, 45: 1, 37: 1, 53: 1}
        assert reflections(structure_report(finite_ring(7, 8, 8))) == {}

    def test_requires_units(self):
        with pytest.raises(NoUnitsError):
            reflections(structure_report(finite_ring(5, 8, 2)))


class TestOneWalkPerCycle:
    def test_report_and_groups_walk_each_cycle_once(self, monkeypatch):
        # power_cycles walks each cycle once, starting only at an index with
        # an order that no earlier cycle holds, and stopping at its first
        # return; the same pass gives every order.  The report keeps the
        # cycles and the orders, and groups never walks them again.  No
        # per-element walk is left to count: one-element questions are
        # closed forms.
        cycle_calls = []
        cycles_of = polyadic.finite.power_cycles

        def counting_cycles(fr):
            cycles, orders = cycles_of(fr)
            cycle_calls.append((cycles, orders))
            return cycles, orders

        # Every module that binds the walk, so a by-name import is counted too.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("polyadic"):
                assert not hasattr(module, "power_orbit"), module
                if getattr(module, "power_cycles", None) is cycles_of:
                    monkeypatch.setattr(module, "power_cycles", counting_cycles)
        fields = 0
        for fr in scan_rings(6, 6):
            cycle_calls.clear()
            report = structure_report(fr)
            assert len(cycle_calls) == 1, fr
            cycles, orders = cycle_calls[0]
            assert report.cycles == cycles and report.element_orders == tuple(orders), fr
            seen = set()
            for cycle in cycles:
                assert cycle[0] not in seen and len(set(cycle)) == len(cycle), fr
                assert len(cycle) == report.element_orders[cycle[0]], fr
                seen.update(cycle)
            assert [c[0] for c in cycles] == sorted(c[0] for c in cycles), fr
            assert seen == {k for k, o in enumerate(report.element_orders)
                            if o is not None}, fr
            if not report.is_field:
                continue
            fields += 1
            # groups reads report.cycles and walks nothing on a field.
            cycle_calls.clear()
            for call in [decompose, primitive_elements] + [reflections] * bool(report.units):
                call(report)
            for k in fr.elements():
                if k != report.zero:
                    cyclic_subgroup(report, k)
            assert cycle_calls == [], fr
        assert fields > 0


@pytest.fixture(scope="module")
def field_decompositions(full_grid):
    out = []
    for fr in full_grid:
        if is_field(fr):
            out.append((fr, structure_report(fr), decompose(structure_report(fr))))
    return out


class TestScanInvariants:
    def test_primitive_elements_generate_everything(self, field_decompositions):
        for fr, report, _ in field_decompositions:
            for k in fr.elements():
                if k == report.zero:
                    continue
                from polyadic.finite import element_order

                orbit = cyclic_subgroup(report, k)
                assert (len(orbit) == report.q_star) == (
                    element_order(fr, k) == report.q_star
                )

    def test_zeroless_nonunital_fields_are_indecomposable(self, field_decompositions):
        seen = 0
        for fr, report, dec in field_decompositions:
            if not (report.zeroless and report.nonunital):
                continue
            seen += 1
            assert dec.kappa_prim == fr.q
            assert report.lambda_p == fr.q
            # every orbit is the whole carrier: no proper cyclic subgroup
            assert dec.subgroups == (tuple(fr.elements()),)
        assert seen >= 6

    def test_subgroups_are_closed(self, field_decompositions):
        for fr, _, dec in field_decompositions:
            for g in dec.subgroups:
                members = set(g)
                for combo in combinations_with_replacement(g, fr.ring.n):
                    assert k_mul(fr, list(combo)) in members

    def test_unit_count_matches_subgroup_count(self, field_decompositions):
        # Where the non-zero part decomposes into disjoint covering cyclic
        # subgroups, their number should equal the number of units.  With a
        # zero present this holds throughout the scan.  Zeroless fields in
        # which every element is a unit decompose into singleton unit
        # subgroups, trivially matching kappa_e; beyond those the scan finds
        # exactly four counterexamples, which are reported, not suppressed.
        known_counterexamples = {(3, 4, 4), (7, 8, 4), (5, 6, 8), (9, 10, 8)}
        found = set()
        for fr, report, dec in field_decompositions:
            if report.kappa_e < 2 or not dec.pairwise_disjoint:
                continue
            union = set()
            for g in dec.subgroups:
                union |= set(g)
            nonzero = {k for k in fr.elements() if k != report.zero}
            if report.zero is not None:
                # fields like the order-5 one over 2 mod 3 do not decompose
                # (their cyclic part misses the units); the count claim only
                # applies when the cyclic subgroups alone cover everything
                if union == nonzero:
                    assert len(dec.subgroups) == report.kappa_e, fr
                continue
            if set(dec.unit_subgroup) == nonzero:
                continue  # all units: singleton subgroups, count is kappa_e
            if dec.unit_subgroup_split and union | set(dec.unit_subgroup) == nonzero:
                if len(dec.subgroups) != report.kappa_e:
                    found.add((fr.ring.a, fr.ring.b, fr.q))
        assert found == known_counterexamples
