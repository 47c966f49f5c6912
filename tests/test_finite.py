import json
from math import gcd

import pytest

from polyadic import finite
from polyadic.errors import ArityMismatchError, NoFiniteOrderError
from polyadic.factor import _prime_factors
from polyadic.finite import (
    additive_quer_index,
    characteristic,
    element_order,
    find_units,
    find_zero,
    finite_ring,
    is_field,
    k_add,
    k_mul,
    mult_querelements,
    report_to_dict,
    structure_report,
)
from polyadic.oracle import oracle_characteristic, proper_subfields
from polyadic.ring import allowed_residues, grid_pairs
from conftest import larger_arity_rings, scan_rings


def reps(fr, ks):
    return [fr.rep(k) for k in ks]


class TestIndexOperations:
    def test_addition(self):
        fr = finite_ring(1, 2, 3)
        assert k_add(fr, [0, 0, 0]) == 1  # 1+1+1 = 3
        fr = finite_ring(2, 3, 5)
        assert k_add(fr, [0, 0, 0, 0]) == 2  # 2+2+2+2 = 8

    def test_binary_limit_addition_is_plain_modular(self):
        fr = finite_ring(0, 1, 7)
        for x in range(7):
            for y in range(7):
                assert k_add(fr, [x, y]) == (x + y) % 7
                assert k_mul(fr, [x, y]) == (x * y) % 7

    def test_multiplication(self):
        fr = finite_ring(2, 3, 5)
        assert fr.rep(k_mul(fr, [0, 0, 0])) == 8
        fr = finite_ring(5, 6, 6)
        assert fr.rep(k_mul(fr, [0, 0, 0])) == 17
        fr = finite_ring(5, 8, 2)
        assert fr.rep(k_mul(fr, [0, 0, 0])) == 13

    def test_arity_checked(self):
        fr = finite_ring(2, 3, 5)
        with pytest.raises(ArityMismatchError):
            k_mul(fr, [0, 0])
        with pytest.raises(ArityMismatchError):
            k_add(fr, [0] * 3)

    def test_representative_round_trip(self):
        fr = finite_ring(3, 5, 4)
        for k in fr.elements():
            assert fr.index_of(fr.rep(k)) == k
        assert fr.index_of(3 + 5 * 7) == 3  # wraps modulo 20


class TestZeroAndUnits:
    def test_zero_detection(self):
        assert finite_ring(1, 2, 3).rep(find_zero(finite_ring(1, 2, 3))) == 3
        assert finite_ring(2, 3, 5).rep(find_zero(finite_ring(2, 3, 5))) == 5
        assert find_zero(finite_ring(5, 8, 2)) is None

    def test_unit_detection(self):
        fr = finite_ring(5, 6, 4)
        assert reps(fr, find_units(fr)) == [5, 11, 17, 23]
        fr = finite_ring(4, 5, 3)
        assert reps(fr, find_units(fr)) == [4, 14]
        assert fr.rep(find_zero(fr)) == 9
        assert find_units(finite_ring(3, 8, 2)) == ()

    def test_querelements(self):
        fr = finite_ring(5, 8, 2)
        assert reps(fr, mult_querelements(fr, 0)) == [13]
        assert reps(fr, mult_querelements(fr, 1)) == [5]
        fr = finite_ring(2, 3, 6)
        assert reps(fr, mult_querelements(fr, 0)) == [5, 14]
        fr = finite_ring(5, 6, 4)
        for e in find_units(fr):
            assert mult_querelements(fr, e) == (e,)


class TestFieldPredicate:
    def test_published_verdicts(self):
        assert is_field(finite_ring(1, 3, 2))
        assert not is_field(finite_ring(4, 6, 2))
        assert not is_field(finite_ring(2, 3, 6))

    def test_binary_limit_fields_have_prime_order(self):
        for q in range(2, 12):
            expected = all(q % d for d in range(2, q))
            assert is_field(finite_ring(0, 1, q)) == expected, q

    def test_nonunique_querelement_blocks_the_field(self):
        fr = finite_ring(2, 3, 6)
        assert len(mult_querelements(fr, 0)) > 1

    def test_field_iff_unique_querelements(self, full_grid):
        for fr in full_grid:
            report = structure_report(fr)
            unique = all(
                len(mult_querelements(fr, k)) == 1
                for k in fr.elements()
                if k != report.zero
            )
            closed = report.zero is None or all(
                k_mul(fr, [k] * fr.ring.n) != report.zero
                for k in fr.elements()
                if k != report.zero
            )
            assert report.is_field == (unique and closed), fr


class TestCharacteristic:
    def test_published_values(self):
        assert characteristic(finite_ring(2, 3, 5)) == 3
        assert characteristic(finite_ring(1, 2, 3)) == 1
        assert characteristic(finite_ring(1, 4, 7)) == 5

    def test_absent_without_zero_or_unit(self):
        assert characteristic(finite_ring(5, 8, 2)) is None
        assert characteristic(finite_ring(5, 6, 4)) is None  # all units, no zero

    def test_answers_above_the_walk_bound(self):
        # chi_p needs gcd(b, q) and one congruence, and no zero or unit search.
        # 2z = -1 has no solution modulo an even q, so neither ring has a zero.
        assert characteristic(finite_ring(1, 2, 10**10)) is None
        assert characteristic(finite_ring(5, 6, 10**12)) is None
        assert find_zero(finite_ring(2, 6, 10**12)) is not None
        assert characteristic(finite_ring(2, 6, 10**12)) is None  # gcd(b, q) = 2: no unit
        assert characteristic(finite_ring(0, 1, 10**10)) == 10**10 - 1
        q = 2**61 - 1
        assert characteristic(finite_ring(1, 2, q)) == (q - 1) // 2  # 2l = -1 (mod q)

    def test_binary_limit_is_one_less_than_classical(self):
        # over Z/q the classical characteristic is q; the polyadic one
        # counts additions, hence q - 1
        for q in (2, 3, 5, 7):
            assert characteristic(finite_ring(0, 1, q)) == q - 1

    def test_every_unit_reaches_the_zero_in_chi_p_steps(self):
        # chi_p is solved for no unit; characteristic proves that every unit
        # gives the same value.  Here each unit finds its own least l by
        # adding, with no congruence.
        rings = 0
        for fr in scan_rings(12, 12):
            report = structure_report(fr)
            if report.zero is None or not report.units:
                continue
            rings += 1
            for e in report.units:
                x, least = e, None
                for l in range(1, fr.q + 1):  # the sums repeat with a period dividing q
                    x = k_add(fr, [x] + [e] * (fr.ring.m - 1))
                    if x == report.zero:
                        least = l
                        break
                assert least == report.chi_p, (fr, e)
        assert rings == 362


def lemma_rings():
    """Every ring with b, q <= 12, the binary limit and q = 1 included, and
    the 610 rings of `larger_arity_rings`."""
    return [finite_ring(a, b, q) for a, b in [(0, 1), *grid_pairs(12)]
            for q in range(1, 13)] + larger_arity_rings()


class TestOneZeroSearch:
    # The lemma in find_zero: with gcd(b, q) = 1 the zero exists, so chi_p
    # and the field test never search for it, and a report searches once.

    def test_characteristic_and_is_field_search_no_zero(self, monkeypatch):
        rings = lemma_rings()
        # chi_p by its definition, from the searched zero and units; at
        # q = 1 the ring is a field iff its one index is not the zero.
        expected = [(oracle_characteristic(fr, find_zero(fr), find_units(fr)),
                     find_zero(fr) is None if fr.q == 1 else is_field(fr)) for fr in rings]

        def no_search(fr):
            raise AssertionError(f"find_zero({fr!r}) called")

        monkeypatch.setattr(finite, "find_zero", no_search)
        assert [(characteristic(fr), is_field(fr)) for fr in rings] == expected

    def test_structure_report_searches_the_zero_once(self, monkeypatch):
        rings, calls = lemma_rings(), []
        search = finite.find_zero
        monkeypatch.setattr(finite, "find_zero", lambda fr: calls.append(fr) or search(fr))
        for fr in rings:
            structure_report(fr)
        assert calls == rings


class TestElementOrders:
    def test_published_orders(self):
        assert element_order(finite_ring(1, 2, 3), 2) == 2  # element 5
        assert element_order(finite_ring(7, 8, 8), 0) == 4  # element 7
        fr = finite_ring(5, 6, 4)
        assert all(element_order(fr, e) == 1 for e in find_units(fr))

    def test_no_finite_order(self):
        # 10 in the order-2 ring over the class 4 mod 6 collapses onto the
        # zero 4 and never returns.
        with pytest.raises(NoFiniteOrderError):
            element_order(finite_ring(4, 6, 2), 1)


class TestHugeOrders:
    # (a, b, q, field verdict, a non-zero index whose representative shares
    # a prime with q in a non-field).  2^61 - 1 is prime; 10^40 + 1 is
    # divisible by 17 = rep 5 of [[2]]_3.  No call may walk the q indices.
    ROWS = [(1, 2, 2**61 - 1, True, None),
            (3, 4, 10**18, False, 3),
            (2, 3, 10**40 + 1, False, 5)]

    @pytest.mark.parametrize("a,b,q,field,witness", ROWS)
    def test_results_satisfy_their_defining_congruences(self, a, b, q, field, witness):
        fr = finite_ring(a, b, q)
        d, mod = fr.ring, fr.modulus
        n1 = d.n - 1
        zero = find_zero(fr)
        if zero is None:
            assert d.i_shape % gcd(d.m - 1, q) != 0  # (m-1)z = -I has no solution
        else:
            rz = fr.rep(zero)
            assert (d.m * zero + d.i_shape) % q == zero
            for ks in ([0] * n1, [1] * n1, [q - 1, q // 3, 7][:n1]):
                prod = 1
                for k in ks:
                    prod = prod * fr.rep(k) % mod
                assert rz * prod % mod == rz
        assert is_field(fr) is field
        if field:
            # q is prime, and the zero is the one index whose representative q divides.
            assert pow(2, q - 1, q) == 1 and fr.rep(zero) % q == 0
        else:
            assert gcd(fr.rep(witness), q) > 1 and witness != zero
            assert len(mult_querelements(fr, witness)) != 1
        for k in (0, 1, 2, 3, 12345, q // 3, q - 1):
            r = fr.rep(k)
            if k == zero:
                continue  # every y is a querelement of the zero: q of them
            try:
                o = element_order(fr, k)
                start = 0  # r itself lies on its cycle
            except NoFiniteOrderError as err:
                o = err.cycle_length
                start = mod.bit_length()  # past every p^e || b*q with p | r
                tail = pow(r, 1 + start * o * n1, mod)
                assert tail != r  # r is not on the cycle its powers end in
            assert o >= 1
            base = pow(r, 1 + start * n1, mod)
            assert pow(r, 1 + (start + o) * n1, mod) == base, k
            for p in _prime_factors(o):
                assert pow(r, 1 + (start + o // p) * n1, mod) != base, (k, p)
            power = pow(r, n1, mod)
            ys = mult_querelements(fr, k)
            assert list(ys) == sorted(set(ys)) and all(0 <= y < q for y in ys)
            assert all(power * fr.rep(y) % mod == r for y in ys), k
            assert not ys or len(ys) == gcd(power, q), k


class TestStructureReport:
    def test_all_unit_field(self):
        rep = structure_report(finite_ring(5, 6, 4))
        assert rep.is_field and rep.zeroless and not rep.nonunital
        assert rep.kappa_e == 4 and rep.lambda_p == 1

    def test_zeroless_nonunital_field(self):
        rep = structure_report(finite_ring(5, 8, 2))
        assert rep.is_field and rep.zeroless and rep.nonunital
        assert rep.lambda_p == 2 and rep.q_star == 2

    def test_non_field(self):
        assert not structure_report(finite_ring(1, 2, 6)).is_field

    def test_json_report_shape(self):
        payload = report_to_dict(structure_report(finite_ring(5, 8, 2)))
        assert payload["zero"] is None and payload["chi_p"] is None
        assert payload["zeroless"] and payload["nonunital"]
        text = json.dumps(payload)
        assert text.index('"a"') < text.index('"q_star"') < text.index('"element_orders"')

    def test_single_zero_element_is_not_n_admissible(self):
        # At q = 1 the one element is the zero, so q* = 0, and no word of
        # length 0 is admissible; the congruence alone holds for every n = 2.
        rings = [finite_ring(a, b, 1) for b in range(1, 13) for a in allowed_residues(b)]
        assert any(fr.ring.n == 2 for fr in rings)
        for fr in rings:
            report = structure_report(fr)
            assert report.q_star == 0 and report.n_admissible is False, fr

    def test_idempotence_order_is_the_largest_non_zero_order(self):
        # lambda_p is read off the longest cycle; its definition is the
        # largest order of a non-zero element, undefined when one has none
        # or when there is no non-zero element.  Every ring with b, q <= 40.
        rings = [finite_ring(a, b, q) for a, b in [(0, 1), *grid_pairs(40)]
                 for q in range(1, 41)]
        assert len(rings) == 27320
        defined = 0
        for fr in rings:
            report = structure_report(fr)
            orders = [o for k, o in enumerate(report.element_orders) if k != report.zero]
            lam = max(orders) if orders and None not in orders else None
            assert report.lambda_p == lam, fr
            defined += lam is not None
        assert defined == 17995

    def test_fingerprints_separate_same_shape_rings(self):
        # same arities and order, structurally different rings
        for q in (2, 4, 8):
            lo = structure_report(finite_ring(5, 8, q))
            hi = structure_report(finite_ring(7, 8, q))
            assert (lo.kappa_e, lo.lambda_p) != (hi.kappa_e, hi.lambda_p)


class TestScanProperties:
    def test_representative_map_is_a_homomorphism(self):
        # operating on indices then taking representatives equals operating
        # on representatives modulo b*q
        from itertools import combinations_with_replacement

        for fr in scan_rings(6, 6):
            m, n, mod = fr.ring.m, fr.ring.n, fr.modulus
            for ks in combinations_with_replacement(range(fr.q), n):
                prod = 1
                for k in ks:
                    prod = prod * fr.rep(k) % mod
                assert fr.rep(k_mul(fr, list(ks))) == prod
            for ks in combinations_with_replacement(range(fr.q), m):
                assert fr.rep(k_add(fr, list(ks))) == sum(fr.rep(k) for k in ks) % mod

    def test_additive_structure_is_always_a_group(self, full_grid):
        for fr in full_grid:
            for k in fr.elements():
                quer = additive_quer_index(fr, k)
                assert k_add(fr, [k] * (fr.ring.m - 1) + [quer]) == k

    def test_zero_implies_prime_order_in_fields(self, full_grid):
        for fr in full_grid:
            report = structure_report(fr)
            if report.is_field and report.zero is not None:
                q = fr.q
                assert q >= 2 and all(q % d for d in range(2, q)), fr

    def test_neutral_sequences(self, full_grid):
        # in an n-admissible single-unit field, q*(n-1) copies of any element
        # act neutrally, and every element is q*-idempotent
        checked = 0
        for fr in full_grid:
            report = structure_report(fr)
            d = fr.ring
            if not (report.is_field and d.n >= 3 and report.kappa_e == 1):
                continue
            if report.q_star < d.n or (report.q_star - 1) % (d.n - 1) != 0:
                continue
            checked += 1
            mod = fr.modulus
            power = report.q_star * (d.n - 1)
            for y in fr.elements():
                if y == report.zero:
                    continue
                py = pow(fr.rep(y), power, mod)
                assert py * fr.rep(y) % mod == fr.rep(y)
                for x in fr.elements():
                    assert py * fr.rep(x) % mod == fr.rep(x)
        assert checked >= 10

    def test_unit_count_times_order_is_reduced_order(self, full_grid):
        for fr in full_grid:
            report = structure_report(fr)
            d = fr.ring
            if not report.is_field or report.zero is not None:
                continue
            if report.nonunital or d.n < 3 or d.b % d.a == 0:
                continue
            if (report.q_star - 1) % (d.n - 1) == 0 and report.q_star >= d.n:
                continue  # admissible reduced order forces a single unit
            assert report.kappa_e * report.lambda_p == report.q_star, fr

    def test_subfield_detector_positive_control(self):
        # the binary ring of order 6 is not a field but contains images of
        # the two prime fields; the detector must see both
        found = proper_subfields(finite_ring(0, 1, 6))
        assert (0, 3) in found
        assert (0, 2, 4) in found

    def test_no_proper_subfields(self, full_grid):
        for fr in full_grid:
            if fr.q > 7 or not is_field(fr):
                continue
            assert proper_subfields(fr) == [], fr
