import json
import random
import sys
from itertools import combinations_with_replacement
from math import gcd

import pytest

import polyadic.finite
from conftest import scan_rings
from polyadic.errors import NotAFieldError, NoUnitsError
from polyadic.finite import (
    canonical_ring,
    finite_ring,
    is_field,
    k_mul,
    orders_template,
    structure_report,
    to_json,
)
from polyadic.groups import (
    classify_canonical,
    cyclic_subgroup,
    decompose,
    decomposition_to_dict,
    primitive_elements,
    reflections,
    renamed_json,
)
from polyadic.oracle import oracle_power_walk, oracle_units
from polyadic.ring import allowed_residues, grid_pairs


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

    def test_prime_fields_have_pairwise_disjoint_maximal_subgroups(self):
        # Found on 16,956 prime fields (b <= 30, p < 200) and not yet proved:
        # on a field of prime order p with p not dividing b, no two maximal
        # subgroups meet, so no two share a first element (ROADMAP item 10).
        primes = [p for p in range(2, 50) if all(p % d for d in range(2, p))]
        fields = [finite_ring(a, b, p) for a, b in grid_pairs(12) for p in primes if b % p]
        assert len(fields) == 776
        for fr in fields:
            members = [k for g in decompose(structure_report(fr)).subgroups for k in g]
            assert len(members) == len(set(members)), fr

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


def walk_line(fr):
    """The scan line of fr by its own walk: `structure_report`, `decompose`, `to_json`."""
    report = structure_report(fr)
    return to_json(report, decompose(report) if report.is_field else None)


def canonical_entry(fr, memo):
    """fr's canonical entry, classified once per key in memo, and fr's label on it."""
    canon, b2, shift = canonical_ring(fr)
    key = (canon.ring.a, canon.ring.b, fr.q, fr.ring.n)
    if key not in memo:
        memo[key] = classify_canonical(canon)
    return memo[key], b2, shift


def renamed_line(fr, memo):
    """The scan line of fr renamed from its canonical ring."""
    return renamed_json(fr, *canonical_entry(fr, memo), orders_template(fr.q))


@pytest.fixture
def walks(monkeypatch):
    """The rings that `groups` classifies from here on."""
    import polyadic.groups

    calls, walk = [], polyadic.groups.structure_report
    monkeypatch.setattr(polyadic.groups, "structure_report", lambda fr: calls.append(fr) or walk(fr))
    return calls


def agrees_with_the_walk(fr, memo, walks):
    """The renamed line is the walk's, and fr is walked exactly when its subgroups tie.

    Returns whether fr is a field whose subgroups tie on their least element.
    """
    entry, b2, shift = canonical_entry(fr, memo)
    walks.clear()
    line, walk = renamed_json(fr, entry, b2, shift, orders_template(fr.q)), walk_line(fr)
    firsts = [g[0] for g in json.loads(walk).get("group", {"subgroups": []})["subgroups"]]
    tie = len(set(firsts)) < len(firsts)
    assert line == walk and walks == [fr] * tie, fr
    return tie


class TestRelabelling:
    """Every ring is its canonical ring renamed (`finite.canonical_ring`)."""

    def test_lines_agree_with_the_walk_up_to_16(self, walks):
        rings = [finite_ring(a, b, q) for a, b in [(0, 1), *grid_pairs(16)] for q in range(1, 17)]
        memo = {}
        ties = sum(agrees_with_the_walk(fr, memo, walks) for fr in rings)
        assert (len(rings), sum(map(is_field, rings)), len(memo), ties) == (1680, 771, 512, 19)

    def test_lines_agree_with_the_walk_on_a_sample_up_to_200(self, walks):
        rng, memo, fields, ties = random.Random(31), {}, 0, 0
        for _ in range(2000):
            b = rng.randint(2, 200)
            a = rng.choice(allowed_residues(b))
            q = rng.choice([q for q in range(2, 201) if gcd(b, q) > 1])
            fr = finite_ring(a, b, q)
            ties += agrees_with_the_walk(fr, memo, walks)
            fields += is_field(fr)
        assert (fields, len(memo), ties) == (428, 1940, 1)

    def test_a_long_label_step_is_gathered_without_the_repeated_list(self, walks):
        # [[1]]_306 of order 307 has b2 = 306 and b2^-1 = 306, past the step
        # of 64 where `groups._gather` turns from its slice to its
        # comprehension, for the orders, the names and the lengths.
        fr = finite_ring(1, 306, 307)
        assert canonical_ring(fr)[1:] == (306, 1) and is_field(fr)
        assert not agrees_with_the_walk(fr, {}, walks)

    def test_orders_and_units_agree_with_the_oracle_up_to_12(self):
        memo = {}
        for fr in [finite_ring(a, b, q) for a, b in [(0, 1), *grid_pairs(12)] for q in range(1, 13)]:
            line = json.loads(renamed_line(fr, memo))
            walks = [oracle_power_walk(fr, k) for k in fr.elements()]
            assert list(line["element_orders"].values()) == [
                len(w) - 1 if w[-1] == w[0] else None for w in walks], fr
            assert tuple(line["units"]) == oracle_units(fr), fr

    def test_subgroups_tied_on_their_least_element_are_left_to_the_walk(self, walks):
        # decompose orders subgroups with the same least element by the
        # iteration order of its candidate set, which renaming cannot
        # reproduce: such a ring must take the walk.  The tie is made here,
        # on [[2]]_3 at q = 7, whose index 0 has label 2 on [[0]]_1.
        fr = finite_ring(2, 3, 7)
        canon, b2, shift = canonical_ring(fr)
        assert (canon.ring[:2], b2, shift) == ((0, 1), 3, 2)
        canonical = classify_canonical(canon)
        walks.clear()
        assert renamed_json(fr, canonical, b2, shift, orders_template(7)) == walk_line(fr)
        assert walks == []
        tied = canonical._replace(group=(((2, 3), (2, 5)), *canonical.group[1:]))
        assert renamed_json(fr, tied, b2, shift, orders_template(7)) == walk_line(fr)
        assert walks == [fr]
