import random
from math import gcd

import pytest

from conftest import scan_rings
from polyadic.arithmetic import (
    _abs_divisors,
    _iroot,
    decompositions,
    is_irreducible,
    polyadic_divide,
)
from polyadic.errors import ForbiddenPairError, NoFiniteOrderError, NonUniqueQuotientError
from polyadic.factor import _is_binary_prime, _prime_factors
from polyadic.finite import (
    FiniteRing,
    characteristic,
    element_order,
    find_units,
    find_zero,
    finite_ring,
    is_field,
    mult_querelements,
    structure_report,
)
from polyadic.groups import cyclic_subgroup, decompose, primitive_elements, reflections
from polyadic.oracle import (
    oracle_arity,
    oracle_characteristic,
    oracle_decompositions,
    oracle_divide,
    oracle_divisor_table,
    oracle_divisors,
    oracle_group_axioms,
    oracle_is_field,
    oracle_is_prime,
    oracle_kmult,
    oracle_power_walk,
    oracle_querelements,
    oracle_roots,
    oracle_units,
    oracle_zero,
)
from polyadic.ring import PolyInt, RingDescriptor, derive_arities, make_descriptor
from polyadic.tables import grid_pairs


def wide_grid():
    """Every ring with b, q <= 8, the binary limit included."""
    return [finite_ring(0, 1, q) for q in range(2, 9)] + scan_rings(8, 8)


class TestOracleArity:
    def test_published_values(self):
        assert oracle_arity(3, 4) == (5, 3)
        assert oracle_arity(16, 28) == (8, 4)
        assert oracle_arity(0, 1) == (2, 2)

    def test_forbidden(self):
        with pytest.raises(ForbiddenPairError):
            oracle_arity(2, 4)

    def test_agrees_with_main_path_everywhere(self):
        for b in range(1, 151):
            for a in range(0, b):
                try:
                    main = derive_arities(a, b)
                except ForbiddenPairError:
                    main = None
                try:
                    ref = oracle_arity(a, b)
                except ForbiddenPairError:
                    ref = None
                assert main == ref, (a, b)


    def test_large_moduli_satisfy_the_defining_congruences(self):
        # The k >= 1 with a^(1+k) = a (mod b) are closed under sums and
        # differences, hence the multiples of the least one; so n - 1 is
        # that least k when no (n-1)/r with r a prime of n - 1 qualifies.
        # The same holds for m - 1 and (m-1)*a = 0 (mod b).
        def primes_of(w):
            return [p for p in oracle_divisors(w) if oracle_is_prime(p)]

        rng = random.Random(20)
        moduli = [10**9 + 7, 10000019] + [rng.randrange(10**6, 10**9) for _ in range(6)]
        checked = 0
        for b in moduli:
            for a in (2, 3, b - 2, rng.randrange(b), rng.randrange(b)):
                try:
                    m, n = derive_arities(a, b)
                except ForbiddenPairError:
                    assert gcd(a, b) != 1, (a, b)  # a unit always has an order
                    continue
                assert pow(a, n, b) == a and (m - 1) * a % b == 0, (a, b)
                for r in primes_of(n - 1):
                    assert pow(a, 1 + (n - 1) // r, b) != a, (a, b, r)
                for r in primes_of(m - 1):
                    assert (m - 1) // r * a % b != 0, (a, b, r)
                checked += 1
        assert checked >= 30


class TestOracleKmult:
    def test_published_values(self):
        fr = finite_ring(2, 3, 5)
        assert fr.rep(oracle_kmult(fr, [0, 0, 0])) == 8
        fr = finite_ring(0, 1, 7)
        assert oracle_kmult(fr, [3, 4]) == 12 % 7
        fr = finite_ring(5, 8, 2)
        assert fr.rep(oracle_kmult(fr, [0, 0, 0])) == 13

    def test_agrees_with_exact_product_everywhere(self, kmult_grid_mismatches):
        assert kmult_grid_mismatches == []


class TestOracleGroupAxioms:
    def test_published_verdicts(self):
        assert oracle_is_field(finite_ring(1, 2, 5))
        assert not oracle_is_field(finite_ring(4, 6, 2))
        assert not oracle_is_field(finite_ring(2, 3, 6))

    def test_reports_are_clean(self):
        for abq in ((1, 2, 5), (4, 6, 2), (2, 3, 6)):
            report = oracle_group_axioms(finite_ring(*abq))
            assert report.ok, report.mismatches
            assert report.instances > 0

    def test_field_verdicts_agree_with_main_path(self, oracle_grid_mismatches):
        assert oracle_grid_mismatches == []

    def test_field_verdicts_agree_beyond_the_fixture(self):
        # b, q <= 8 outside the b, q <= 6 fixture, where enumeration is cheap
        checked = 0
        for fr in wide_grid():
            d = fr.ring
            if d.b <= 6 and fr.q <= 6 or fr.q ** (d.m + 1) + fr.q ** (d.n + 1) > 10**5:
                continue
            assert oracle_is_field(fr) == is_field(fr), fr
            checked += 1
        assert checked == 34


class TestOracleZeroAndUnits:
    def test_agree_with_closed_forms(self):
        # Every ring with b, q <= 16, the binary limit and q = 1 included,
        # on which oracle_zero tries at most 10^4 tuples of n - 1 indices
        # per candidate: only large n at large q is left out.
        rings = [finite_ring(a, b, q) for a, b in [(0, 1), *grid_pairs(16)]
                 for q in range(1, 17)]
        rings = [fr for fr in rings if fr.q ** (fr.ring.n - 1) <= 10**4]
        assert len(rings) == 1300
        defined = 0
        for fr in rings:
            zero, units = oracle_zero(fr), oracle_units(fr)
            assert zero == find_zero(fr), fr
            assert units == find_units(fr), fr
            chi_p = oracle_characteristic(fr, zero, units)
            assert chi_p == characteristic(fr) == structure_report(fr).chi_p, fr
            defined += chi_p is not None
        assert defined == 744

    def test_agree_with_closed_forms_at_larger_arities(self):
        # A descriptor may carry any m with (m-1)*a = 0 and any n with
        # a^n = a (mod b), not just the least ones: then both parts of
        # find_zero's test on the congruence's solutions are needed.
        rings = []
        for a, b in grid_pairs(8):
            d = make_descriptor(a, b)
            for m in (2 * d.m - 1, 3 * d.m - 2):
                for n in (d.n, 2 * d.n - 1):
                    ring = RingDescriptor(a, b, m, n, (m - 1) * a // b, (a**n - a) // b)
                    rings += [FiniteRing(ring, q) for q in range(1, 9)
                              if q ** (n - 1) <= 10**3]
        assert len(rings) == 610
        fields = both = undefined = 0
        for fr in rings:
            zero, units = oracle_zero(fr), oracle_units(fr)
            assert zero == find_zero(fr), fr
            assert units == find_units(fr), fr
            chi_p = oracle_characteristic(fr, zero, units)
            assert chi_p == characteristic(fr) == structure_report(fr).chi_p, fr
            if zero is not None and units:
                both += 1
                undefined += chi_p is None  # gcd(m-1, q) > 1: no unit reaches the zero
            if fr.q ** (fr.ring.m - 1) + fr.q ** fr.ring.n <= 10**3:
                assert oracle_is_field(fr) == is_field(fr), fr
                fields += 1
        assert fields == 148 and (both, undefined) == (386, 95)


class TestOraclePowers:
    def test_published_walk(self):
        fr = finite_ring(5, 8, 7)  # 5 -> 13 -> 45 -> 5
        assert [fr.rep(k) for k in oracle_power_walk(fr, 0)] == [5, 13, 45, 5]

    def test_orders_subgroups_and_reflections_agree_everywhere(self):
        # Every ring with b, q <= 12, the binary limit and q = 1 included.
        # The zero comes from the main path (oracle_zero enumerates q^(n-1)
        # tuples; TestOracleZeroAndUnits checks it on a bounded grid).
        rings = [finite_ring(a, b, q) for a, b in [(0, 1), *grid_pairs(12)]
                 for q in range(1, 13)]
        fields = overlapping = joined = 0
        for fr in rings:
            report = structure_report(fr)
            walks = [oracle_power_walk(fr, k) for k in fr.elements()]
            orders = tuple(len(w) - 1 if w[-1] == w[0] else None for w in walks)
            assert report.element_orders == orders, fr
            for k, walk in enumerate(walks):
                # A walk ends at its first repeat; the cycle it closes is
                # the one the powers of k end in.
                if orders[k] is None:
                    with pytest.raises(NoFiniteOrderError) as err:
                        element_order(fr, k)
                    assert err.value.cycle_length == len(walk) - 1 - walk.index(walk[-1])
                else:
                    assert element_order(fr, k) == orders[k], (fr, k)
                assert mult_querelements(fr, k) == oracle_querelements(fr, k), (fr, k)
            nonzero = [k for k in fr.elements() if k != report.zero]
            lam = [orders[k] for k in nonzero]
            assert report.lambda_p == (max(lam) if lam and None not in lam else None), fr
            units = set(oracle_units(fr))
            refl = {}
            for k in nonzero:
                hits = [l for l, x in enumerate(walks[k]) if l and x in units]
                if k not in units and hits:
                    refl[k] = hits[0]
            if units:
                assert reflections(report) == refl, fr
            if not report.is_field:
                continue
            fields += 1
            generated = {k: frozenset(walks[k]) for k in nonzero}
            for k in nonzero:
                assert cyclic_subgroup(report, k) == generated[k], (fr, k)
            candidates = {generated[k] for k in nonzero if k not in units}
            maximal = sorted(tuple(sorted(g)) for g in candidates
                             if not any(g < h for h in candidates))
            dec = decompose(report)
            assert sorted(dec.subgroups) == maximal, fr
            assert dec.reflections == tuple(sorted(refl.items())), fr
            prim = tuple(k for k in nonzero if orders[k] == report.q_star)
            assert dec.primitive_elements == prim, fr
            assert primitive_elements(report) == prim, fr
            union = set().union(*maximal)
            flags = (union | units == set(nonzero), len(union) == sum(map(len, maximal)),
                     units.isdisjoint(union))
            assert (dec.covers, dec.pairwise_disjoint, dec.unit_subgroup_split) == flags, fr
            assert dec.covers, fr  # every field is covered (`decompose`)
            assert dec.unit_subgroup == oracle_units(fr) and dec.kappa_prim == len(prim), fr
            overlapping += not dec.pairwise_disjoint
            joined += not dec.unit_subgroup_split
        assert len(rings) == 696 and fields == 354
        assert (overlapping, joined) == (11, 235)  # both outcomes of both flags occur


class TestOracleFactorisation:
    def test_agrees_with_the_factorisation_up_to_10_to_5(self):
        divisors = oracle_divisor_table(10**5)
        for w in range(1, 10**5 + 1):
            factors = _prime_factors(w)
            product = 1
            for p, e in factors.items():
                product *= p**e
            assert product == w, w
            assert sorted(_abs_divisors(-w, factors)) == divisors[w][1:], w
            assert _is_binary_prime(w) == _is_binary_prime(-w) == (len(divisors[w]) == 2), w

    def test_divisor_table_agrees_with_trial_division(self):
        divisors = oracle_divisor_table(3000)
        assert divisors[0] == []
        for w in range(1, 3001):
            assert divisors[w] == oracle_divisors(w), w
            assert (len(divisors[w]) == 2) == oracle_is_prime(w), w


class TestOracleDecompositions:
    def test_factor_search_matches_the_brute_force(self):
        # Every ring with b <= 12 and the binary limit, 0 < |x| and |k| <= 25,
        # at depth 3: 775 decompositions of lengths 2 to 7, 407 composites.
        cases, found, composites = 0, 0, 0
        for a, b in [(0, 1), *grid_pairs(12)]:
            ring = make_descriptor(a, b)
            for x in map(ring.element, range(-25, 26)):
                if x.value == 0:
                    continue
                expected = oracle_decompositions(x, 3)
                # The oracle tries the lengths and the sorted tuples in the
                # same order as the search, so the order agrees too.
                assert decompositions(x, 3) == expected, x
                composite = any(len(d) == ring.n for d in expected)
                assert is_irreducible(x) is not composite, x
                cases += 1
                found += len(expected)
                composites += composite
        assert (cases, found, composites) == (2957, 775, 407)


def _quotient(divide, x1, x2):
    # The division's outcome: None, the quotient, or the candidates it refused.
    try:
        return divide(x1, x2)
    except NonUniqueQuotientError as exc:
        return ("not unique", exc.candidates)


class TestOracleDivision:
    def test_exact_roots_match_counting_up(self):
        for k in range(1, 13):
            roots = oracle_roots(k, 10**4)
            for r in range(-(10**4), 10**4 + 1):
                assert _iroot(r, k) == roots.get(r), (r, k)

    def test_quotients_match_trying_every_member(self):
        # Every ring with b <= 12 and the binary limit, divisors with
        # 0 < |k| <= 6, and dividends x2*q^(n-1) for every q with |k| <= 6
        # and every x1 with |k| <= 12.  With minimal arities q and -q never
        # both lie in a class of even n - 1, so [[1]]_2 with n = 3 is added
        # for quotients that are not unique.
        rings = [make_descriptor(a, b) for a, b in [(0, 1), *grid_pairs(12)]]
        pairs, quotients, non_unique = 0, 0, 0
        for ring in rings + [RingDescriptor(1, 2, 3, 3, 1, 0)]:
            for x2 in (ring.element(k) for k in range(-6, 7) if k):
                products = [ring.from_value(x2.value * ring.element(k).value ** (ring.n - 1))
                            for k in range(-6, 7)]
                for x1 in products + [ring.element(k) for k in range(-12, 13)]:
                    expected = _quotient(oracle_divide, x1, x2)
                    assert _quotient(polyadic_divide, x1, x2) == expected, (x1, x2)
                    pairs += 1
                    quotients += isinstance(expected, PolyInt)
                    non_unique += expected is not None and not isinstance(expected, PolyInt)
        assert (pairs, quotients, non_unique) == (26904, 9722, 169)
