import hashlib
import json
import time
import tracemalloc
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyadic.arithmetic import (
    are_coprime,
    composition_set,
    decompositions,
    divide_with_remainder,
    euler_scan,
    irreducibility_gap,
    is_irreducible,
    is_polyadic_prime,
    polyadic_divide,
    prime_scan,
    primes_gap,
)
from polyadic.errors import NotLimitingError, NotUnitalError
from polyadic.factor import _is_binary_prime, _prime_factors, _strong_lucas
from polyadic.oracle import oracle_is_prime
from polyadic.ring import make_descriptor, mu, nu
from polyadic.tables import grid_pairs

EVEN_RING = make_descriptor(8, 10)  # (6,5)-ring of even representatives


def values(xs):
    return sorted(x.value for x in xs)


class TestIrreducibility:
    def test_gap_bounds(self):
        assert irreducibility_gap(EVEN_RING) == (-32, 32)
        assert irreducibility_gap(make_descriptor(3, 4)) == (-1, 1)
        assert irreducibility_gap(make_descriptor(7, 10)) == (-243, 243)

    def test_lowest_elements_irreducible(self):
        for v in (-22, -12, 8, 18, 28):
            assert is_irreducible(EVEN_RING.from_value(v))

    def test_smallest_composite(self):
        decs = decompositions(EVEN_RING.from_value(-32))
        assert [values(d) for d in decs] == [[-2, -2, -2, -2, -2]]

    def test_inside_gap_never_decomposes(self):
        for a, b in ((8, 10), (3, 4), (7, 10), (16, 28)):
            ring = make_descriptor(a, b)
            lo, hi = irreducibility_gap(ring)
            k = 0
            while lo < ring.element(k).value < hi:
                assert not decompositions(ring.element(k), 2)
                k += 1
            k = -1
            while lo < ring.element(k).value < hi:
                assert not decompositions(ring.element(k), 2)
                k -= 1


class TestCompositionSets:
    def test_single_factor(self):
        assert values(composition_set(EVEN_RING.from_value(-32)).factors) == [-2]

    def test_known_decomposition_found(self):
        decs = decompositions(EVEN_RING.from_value(-3072), 1)
        assert [-12, -2, -2, 8, 8] in [values(d) for d in decs]

    def test_full_enumeration_is_wider_than_the_published_sets(self):
        # The published set for 32768 lists {8} only; exhaustive search also
        # finds e.g. (-2)*(-2)*8*8*128, so the published coprimality of
        # {-32, 32768} fails under the intersection definition.  Recorded in
        # the deviations report.
        factors = values(composition_set(EVEN_RING.from_value(32768), 1).factors)
        assert 8 in factors
        assert -2 in factors
        assert not are_coprime([EVEN_RING.from_value(-32), EVEN_RING.from_value(32768)])

    def test_published_non_coprime_pair(self):
        x = EVEN_RING.from_value(-3072)
        y = EVEN_RING.from_value(-64512)
        shared = set(composition_set(x).factors) & set(composition_set(y).factors)
        assert {f.value for f in shared} >= {-2, 8}
        assert not are_coprime([x, y])
        assert {-2, 8, 18, 28} <= {f.value for f in composition_set(y).factors}

    def test_gap_elements_are_coprime(self):
        xs = [EVEN_RING.from_value(v) for v in (-22, -12, 18, 28)]
        assert are_coprime(xs)

    def test_composition_set_invariants(self):
        for v in (-32, -3072, 32768, -64512):
            cs = composition_set(EVEN_RING.from_value(v), 2)
            for dec in cs.decompositions:
                assert (len(dec) - 1) % (EVEN_RING.n - 1) == 0
                prod = 1
                for f in dec:
                    assert f.value % 10 == 8 and abs(f.value) >= 2
                    prod *= f.value
                assert prod == v
            assert cs.factors == frozenset(f for d in cs.decompositions for f in d)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            decompositions(EVEN_RING.from_value(-32), 0)

    def test_depth_bound_cannot_hang(self):
        # |x| < 2^13, so no admissible length past 9 = 2*(5-1)+1 fits:
        # the lengths stop there rather than run to the depth.
        x = EVEN_RING.from_value(-3072)
        start = time.perf_counter()
        got = decompositions(x, 10**9)
        assert time.perf_counter() - start < 1
        assert got == decompositions(x, 3)

    @given(st.permutations([-22, -32, 8, 32768]))
    def test_coprimality_is_permutation_invariant(self, order):
        xs = [EVEN_RING.from_value(v) for v in order]
        assert are_coprime(xs) == are_coprime(list(reversed(xs)))


class TestPrimes:
    def test_strict_primality_needs_a_unit(self):
        with pytest.raises(NotUnitalError):
            is_polyadic_prime(EVEN_RING.from_value(-32))
        assert is_irreducible(EVEN_RING.from_value(-32)) is False

    def test_published_primes(self):
        ring = make_descriptor(43, 44)
        assert is_polyadic_prime(ring.from_value(87))
        assert is_polyadic_prime(ring.from_value(-45))
        assert is_polyadic_prime(ring.from_value(-1))

    def test_gap_formulas(self):
        assert primes_gap(make_descriptor(50, 51)) == (-2500, 2600)
        assert primes_gap(make_descriptor(1, 2)) == (-3, 9)
        assert primes_gap(make_descriptor(43, 44)) == (-1849, 1935)
        with pytest.raises(NotLimitingError):
            primes_gap(EVEN_RING)

    def test_scan_43_mod_44(self):
        scan = prime_scan(make_descriptor(43, 44), 2)
        assert values(scan.primes) == [-45, -1, 43, 87, 131]
        assert scan.pi == 5
        # 87 = 3*29 is binary-composite yet polyadically prime, so it joins
        # -45 in the leftover set; the published set prints {-45} alone.
        assert values(scan.delta) == [-45, 87]

    def test_scan_50_mod_51(self):
        scan = prime_scan(make_descriptor(50, 51), 5)
        assert values(scan.primes) == [
            -205, -154, -103, -52, -1, 50, 101, 152, 203, 254, 305]
        assert scan.pi == 11
        assert values(scan.delta) == [-205, -154, -52, 50, 152, 203, 254, 305]

    def test_binary_limit_scan(self):
        scan = prime_scan(make_descriptor(0, 1), 5)
        assert values(scan.primes) == [-5, -3, -2, 2, 3, 5]
        assert values(scan.delta) == []

    def test_everything_inside_the_gap_is_prime(self):
        for a, b in ((1, 2), (43, 44), (50, 51)):
            ring = make_descriptor(a, b)
            lo, hi = primes_gap(ring)
            k_lo = (lo - a) // b + 1
            k_hi = (hi - a) // b
            for k in range(k_lo, k_hi + 1):
                x = ring.element(k)
                if lo < x.value < hi:
                    assert is_polyadic_prime(x), x

    def test_residue_one_gap_overshoots_for_larger_moduli(self):
        # The published bound (b+1)^2 misses the product (1-b)*(1-b): in the
        # class 1 mod 7, 36 = (-6)*(-6) is composite although it sits inside
        # the printed interval (-48, 64).  Up to the exact bound (b-1)^2
        # everything really is prime.  Recorded in the deviations report.
        ring = make_descriptor(1, 7)
        lo, hi = primes_gap(ring)
        assert (lo, hi) == (-48, 64)
        assert lo < 36 < hi
        assert not is_polyadic_prime(ring.from_value(36))
        exact_hi = (7 - 1) ** 2
        for k in range((lo - 1) // 7 + 1, (exact_hi - 1) // 7 + 1):
            x = ring.element(k)
            if lo < x.value < exact_hi:
                assert is_polyadic_prime(x), x


class TestDivision:
    def test_published_quotients(self):
        ring = make_descriptor(4, 9)
        assert polyadic_divide(ring.from_value(256), ring.from_value(4)).value == 4
        ring = make_descriptor(3, 4)
        assert polyadic_divide(ring.from_value(175), ring.from_value(7)).value == -5

    def test_self_division_gives_the_unit(self):
        ring = make_descriptor(3, 4)
        assert polyadic_divide(ring.from_value(175), ring.from_value(175)).value == -1
        ring = make_descriptor(1, 5)
        assert polyadic_divide(ring.from_value(36), ring.from_value(36)).value == 1

    def test_no_quotient(self):
        ring = make_descriptor(3, 4)
        assert polyadic_divide(ring.from_value(7), ring.from_value(11)) is None

    def test_zero_by_zero_is_not_unique(self):
        from polyadic.errors import NonUniqueQuotientError

        ring = make_descriptor(0, 1)
        with pytest.raises(NonUniqueQuotientError):
            polyadic_divide(ring.from_value(0), ring.from_value(0))
        assert polyadic_divide(ring.from_value(5), ring.from_value(0)) is None

    @given(st.sampled_from([(3, 4), (4, 9), (8, 10)]),
           st.integers(-6, 6), st.integers(-6, 6))
    def test_round_trip(self, pair, k2, kq):
        ring = make_descriptor(*pair)
        x2, q = ring.element(k2), ring.element(kq)
        product = mu([x2] + [q] * (ring.n - 1))
        got = polyadic_divide(product, x2)
        if x2.value != 0:
            assert got is not None
            assert got.value ** (ring.n - 1) == q.value ** (ring.n - 1)

    def test_left_distributivity_instance(self):
        # nu[x1..xm] / y == nu[x1/y, ..., xm/y] on an instance where every
        # quotient, including the left-hand one, exists.
        ring = make_descriptor(1, 5)
        y = ring.from_value(6)
        parts = [mu([y, ring.element(k)]) for k in (0, 1, 2, -2, 3, -4)]
        total = nu(parts)
        lhs = polyadic_divide(total, y)
        rhs = nu([polyadic_divide(p, y) for p in parts])
        assert lhs is not None and lhs == rhs

    def test_remainder_published_pair(self):
        # A list, since the pairs are read twice.
        pairs = list(divide_with_remainder(EVEN_RING.from_value(38),
                                           EVEN_RING.from_value(-22)))
        assert (-2, 78) in [(q.value, r.value) for q, r in pairs]
        assert len(pairs) > 1
        for q, r in pairs:
            assert -22 * q.value**4 + 5 * r.value == 38
            assert r.value % 10 == 8

    def test_remainder_corrected_example(self):
        # The published pair (-2, 238) fails exactly; solving with quotient -2
        # leaves remainder 302, outside the class, so no pair with that
        # quotient exists.  The nearest valid quotient -22 is checked in
        # plain integer arithmetic.
        assert -92 * 16 + 5 * 238 != 38
        assert 38 - (-92) * (-2) ** 4 == 5 * 302 and 302 % 10 != 8
        pairs = divide_with_remainder(EVEN_RING.from_value(38), EVEN_RING.from_value(-92))
        got = [(q.value, r.value) for q, r in pairs]
        assert all(q != -2 for q, _ in got)
        assert (-22, 4310318) in got
        assert -92 * (-22) ** 4 + 5 * 4310318 == 38

    def test_remainder_search_radius(self):
        pairs = divide_with_remainder(
            EVEN_RING.from_value(38), EVEN_RING.from_value(-22), search_radius=1)
        assert [(q.value, r.value) for q, r in pairs] == [(-2, 78)]

    def test_remainder_bad_arguments_raise_at_the_call(self):
        x1, x2 = EVEN_RING.from_value(38), EVEN_RING.from_value(-22)
        with pytest.raises(ValueError, match="search_radius"):
            divide_with_remainder(x1, x2, -5)
        with pytest.raises(ValueError, match="different rings"):
            divide_with_remainder(x1, make_descriptor(3, 4).from_value(3))

    def test_remainder_memory_does_not_grow_with_the_radius(self):
        # 20,000 pairs; the list the search used to build peaked near 5 MB.
        x1, x2 = EVEN_RING.from_value(38), EVEN_RING.from_value(-22)
        tracemalloc.start()
        try:
            count = sum(1 for _ in divide_with_remainder(x1, x2, 50_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 20_000
        assert peak < 256 * 1024


def totient(n):
    return sum(1 for t in range(1, n + 1) if gcd(t, n) == 1)


class TestEulerScan:
    def test_published_sets(self):
        members, phi = euler_scan(make_descriptor(1, 29), 10)
        assert values(members) == [
            -260, -202, -173, -115, -86, -28, 1, 59, 88, 146, 175, 233, 262]
        assert phi == 13
        members, phi = euler_scan(make_descriptor(31, 32), 5)
        assert values(members) == [-97, -65, -1, 31, 95, 127]
        assert phi == 6
        members, phi = euler_scan(make_descriptor(7, 10), 10)
        assert values(members) == [
            -83, -73, -53, -43, -23, -13, 7, 17, 37, 47, 67, 77, 97]
        assert phi == 13

    def test_published_counts(self):
        assert euler_scan(make_descriptor(27, 49), 7)[1] == 6
        assert euler_scan(make_descriptor(17, 38), 20)[1] == 21
        assert euler_scan(make_descriptor(16, 28), 30)[1] == 0
        assert euler_scan(make_descriptor(46, 50), 15)[1] == 0

    def test_binary_limit_doubles_the_totient(self):
        ring = make_descriptor(0, 1)
        for k in range(2, 40):
            assert euler_scan(ring, k)[1] == 2 * totient(k)
        # At k_max = 1 the one candidate, 0, is coprime to the ends +-1.
        assert euler_scan(ring, 1) == ([ring.element(0)], 1)


class TestFactorisation:
    # Composites that fool Miller-Rabin on a prefix of the prime bases: the
    # least strong pseudoprimes to the first 4, 9, 12 and 13 primes.  The
    # last one passes all 13 bases, so only the strong Lucas test rejects it.
    PSEUDOPRIMES = {
        3215031751: {151: 1, 751: 1, 28351: 1},
        3825123056546413051: {149491: 1, 747451: 1, 34233211: 1},
        318665857834031151167461: {399165290221: 1, 798330580441: 1},
        3317044064679887385961981: {1287836182261: 1, 2575672364521: 1},
    }

    @pytest.mark.parametrize("w, factors", [
        *PSEUDOPRIMES.items(),
        (561, {3: 1, 11: 1, 17: 1}),  # Carmichael number
        ((10**9 + 7) ** 2, {10**9 + 7: 2}),
        ((2**61 - 1) * (10**9 + 7), {2**61 - 1: 1, 10**9 + 7: 1}),
    ])
    def test_hard_composites(self, w, factors):
        assert not _is_binary_prime(w) and not _is_binary_prime(-w)
        assert _prime_factors(-w) == factors
        assert all(oracle_is_prime(p) for p in factors if p < 10**12)

    def test_prime_near_10_to_18(self):
        p = 10**18 + 3
        assert _is_binary_prime(p) and _is_binary_prime(-p)
        assert _prime_factors(p) == {p: 1}
        assert _prime_factors(p * 2**61) == {2: 61, p: 1}
        # Independent Lucas certificate: 2 has order p - 1 modulo p.
        qs = (2, 3, 17, 131, 1427, 52445056723)
        assert 2 * 3 * 17 * 131 * 1427 * 52445056723 == p - 1
        assert all(oracle_is_prime(q) for q in qs)
        assert pow(2, p - 1, p) == 1
        assert all(pow(2, (p - 1) // q, p) != 1 for q in qs)

    def test_beyond_the_proved_bound(self):
        # Mersenne primes above 3.317e24 and composites built from them.
        for e in (89, 107, 127):
            assert _is_binary_prime(2**e - 1)
        assert not _is_binary_prime((2**89 - 1) ** 2)
        assert not _is_binary_prime((2**61 - 1) * (2**89 - 1))
        assert _prime_factors((2**89 - 1) * 3**5) == {3: 5, 2**89 - 1: 1}

    def test_strong_lucas_matches_its_definition(self):
        # Every prime passes; the composites that pass below 2*10^4 are the
        # published strong Lucas pseudoprimes with Selfridge's parameters.
        passing = [w for w in range(43**2, 2 * 10**4, 2)
                   if all(w % p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
                   and _strong_lucas(w)]
        assert [w for w in passing if not oracle_is_prime(w)] == [5459, 5777, 10877, 16109, 18971]
        assert all(_strong_lucas(w) for w in range(43**2, 2 * 10**4, 2)
                   if oracle_is_prime(w))

    def test_zero_has_no_factorisation(self):
        with pytest.raises(ValueError):
            _prime_factors(0)


def partitions(total, parts, least=1):
    """Number of partitions of `total` into exactly `parts` parts >= least."""
    if parts == 0:
        return int(total == 0)
    return sum(partitions(total - first, parts - 1, first)
               for first in range(least, total // parts + 1))


class TestLargeDecompositions:
    RING = make_descriptor(3, 4)  # n = 3

    def test_power_of_three_finishes(self):
        # The class members dividing 3^41 are -(-3)^j, j >= 1, so each
        # decomposition is a partition of 41 into 3, 5 or 7 parts.
        x = self.RING.from_value(3**41)
        start = time.perf_counter()
        decs = decompositions(x)
        assert time.perf_counter() - start < 30
        assert len(decs) == sum(partitions(41, s) for s in (3, 5, 7))
        assert len({tuple(f.value for f in d) for d in decs}) == len(decs)
        for dec in decs:
            assert len(dec) >= 3 and (len(dec) - 1) % 2 == 0
            product = 1
            for f in dec:
                assert f.value % 4 == 3 and abs(f.value) >= 2
                product *= f.value
            assert product == 3**41

    # sha256 of the JSON list of decompositions, in the order returned,
    # as computed by the trial-division search this code replaced.
    DIGESTS = {
        21: "bf66a20a3f4aec93543e5de15984ed47e3fbac39051039364b8653ad116c3844",
        22: "18f3ea14192f846f1829a48cab6f8a996ab012c755f50f759d1992cdf04f26ea",
        23: "df2f9d4ef56b707398ecc07487459d21e2c9b6fb94499d55b736d222f41c863b",
        24: "864093d5f474ac61e09167b5881a109b2df4a54676c9bc21d9de40c97ddf015e",
        25: "70455fa7deed05f4fa878fca58744883906fcd8b058439a12ee8d399c2872c1b",
    }

    @pytest.mark.parametrize("e", sorted(DIGESTS))
    def test_powers_of_three_unchanged(self, e):
        x = self.RING.from_value(3**e if e % 2 else -(3**e))
        got = [[f.value for f in dec] for dec in decompositions(x)]
        assert len(got) == sum(partitions(e, s) for s in (3, 5, 7))
        text = json.dumps(got, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[e]

    def test_many_class_factors_unchanged(self):
        # 3,072 class factors in [[1]]_2 (1,536 divisors, both signs), so the
        # last entry of each pair is looked up among thousands.  Pinned from
        # the bisecting search this code replaced.
        v = 3**3 * 5**2 * 7 * 11 * 13 * 17 * 19 * 23 * 29
        got = [[f.value for f in dec]
               for dec in decompositions(make_descriptor(1, 2).from_value(v), 1)]
        assert len(got) == 1534
        assert all(a * b == v and abs(a) <= abs(b) for a, b in got)
        text = json.dumps(got, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c5753dbe3cbae072ea886a52b4af717815b7ca413d28b1ebd00849440c537064")


class TestRemainderResidues:
    @pytest.mark.parametrize("pair", [(0, 1), *grid_pairs(12), (1, 13)])
    def test_matches_the_plain_search(self, pair):
        # Every allowed ring with b <= 12, the binary limit and w = 13:
        # w = m - 1 runs from 1 to 13.  Radii 0 .. 2w + 1 give partial first
        # and last blocks, a single block and more than two; 40 gives many.
        ring = make_descriptor(*pair)
        w, e = ring.m - 1, ring.n - 1
        for k1 in range(-30, 31, 7):
            for k2 in range(-9, 10, 4):
                x1, x2 = ring.element(k1), ring.element(k2)
                for radius in [*range(2 * w + 2), 40]:
                    expected = []
                    for k in range(-radius, radius + 1):
                        q = ring.a + ring.b * k
                        r, rest = divmod(x1.value - x2.value * q**e, w)
                        if rest == 0 and ring.contains(r):
                            expected.append((q, r))
                    got = divide_with_remainder(x1, x2, radius)
                    assert [(q.value, r.value) for q, r in got] == expected
