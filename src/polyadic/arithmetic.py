"""Number theory inside one infinite polyadic ring.

Irreducibility, composition sets, polyadic primes and their gaps, prime
counting, exact division (with and without remainder), coprimality, and
the polyadic totient scan.  Everything works on exact integers.  Every
factor search goes through one factorisation primitive,
`factor._prime_factors`, and one search, `_decomposition_values`,
answers both `is_composite` and `decompositions`: a value is factored
once into the sorted list of its class factors, and one multiset search
runs over that list.  Exact division takes one exact root by Newton's
step on integers (`_iroot`, proved in its docstring), and its quotients
are that root and, for even n - 1, its negative, kept if they lie in
the class.  `divide_with_remainder` yields its
pairs in increasing quotient index from a generator, so its memory does
not grow with the search radius.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import NonUniqueQuotientError, NotLimitingError, NotUnitalError
from .factor import _is_binary_prime, _prime_factors
from .ring import PolyInt, RingDescriptor

_DEFAULT_DEPTH = 3


class CompositionSet(NamedTuple):
    """Factors appearing in any admissible product equal to `element`."""

    element: PolyInt
    factors: frozenset[PolyInt]
    decompositions: tuple[tuple[PolyInt, ...], ...]


class PrimeScan(NamedTuple):
    descriptor: RingDescriptor
    k_max: int
    primes: tuple[PolyInt, ...]
    pi: int
    delta: tuple[PolyInt, ...]


def irreducibility_gap(ring: RingDescriptor) -> tuple[int, int]:
    """Open interval (-|a-b|^n, |a-b|^n) of guaranteed-irreducible values.

    The guarantee needs |a-b| to be the smallest representative in
    absolute value, which holds exactly when 2a >= b; for smaller a the
    representative a itself undercuts the bound.
    """
    bound = abs(ring.a - ring.b) ** ring.n
    return -bound, bound


def _abs_divisors(w: int, primes: Iterable[int]) -> list[int]:
    """Divisors of |w| >= 2, built from the prime powers of |w|.

    `primes` must include every prime factor of w (a superset is fine):
    each divisor is a product of p^i with 0 <= i <= v_p(w), and every
    such product appears exactly once.
    """
    w = abs(w)
    divisors = [1]
    for p in primes:
        powers = [1]
        while w % p == 0:
            w //= p
            powers.append(powers[-1] * p)
        divisors = [d * pp for d in divisors for pp in powers]
    return divisors[1:]


def _class_factors(ring: RingDescriptor, v: int) -> list[int]:
    """Class members f with |f| >= 2 dividing v != 0, sorted by (|f|, f).

    Each target of the multiset search is v divided by the factors taken
    so far, so it and its divisors divide v: its class factors are the
    members of this list that divide it, and nothing below the top is
    factored or sorted again.  Units (|f| = 1) never qualify, as the
    composite definition needs.  The sort by |f| is stable and puts -d
    before d, so it orders by (|f|, f).
    """
    return sorted((f for d in _abs_divisors(v, _prime_factors(v)) for f in (-d, d)
                   if ring.contains(f)), key=abs)


def _multisets(factors: list[int], members: set[int], target: int, slots: int,
               start: int = 0):
    """Tuples of `slots` entries of factors[start:], in list order, with product `target`.

    `factors` is `_class_factors` of a value that `target` divides, and
    `members` is the set of its entries.  A tuple's first entry f has
    |f|^slots <= |target|, so the walk stops at the first f past that
    bound, at once when |target| < 2^slots since |f| >= 2; the rest starts
    at f's own index.  The last entry needs no scan, as a list can hold
    thousands: the list is sorted by the distinct keys (|f|, f), so target
    lies in factors[start:] exactly when it is a member whose key is at
    least that of factors[start].
    """
    if slots == 1:
        first = factors[start]
        if target in members and (abs(target), target) >= (abs(first), first):
            yield (target,)
        return
    for i in range(start, len(factors)):
        f = factors[i]
        if abs(f) ** slots > abs(target):
            break
        if target % f == 0:
            for rest in _multisets(factors, members, target // f, slots - 1, i):
                yield (f,) + rest


def _decomposition_values(ring: RingDescriptor, v: int,
                          depth: int) -> Iterator[tuple[int, ...]]:
    """Value tuples of the decompositions of v, of lengths l*(n-1)+1 for l = 1..depth.

    The one search behind `decompositions` and `is_composite`, in their
    order: by length, then as `_multisets` yields the tuples.  For v = 0 it
    yields one witness, as 0 times anything stays 0.  Otherwise v is
    factored once into its class factors, unless no length fits: no
    product of 2^slots > |v| factors of size >= 2 equals v, so l stops at
    the first such length, whatever the depth, and for |v| < 2^n nothing
    is searched at all.
    """
    if v == 0:
        # One canonical non-unit witness is enough.
        other = next(ring.a + ring.b * k for k in (1, -1, 2, -2, 3, -3)
                     if abs(ring.a + ring.b * k) >= 2)
        yield (0, *[other] * (ring.n - 1))
        return
    # 2^slots <= |v| holds exactly for slots < bit_length(|v|).
    top = min(depth, (abs(v).bit_length() - 2) // (ring.n - 1))
    if top < 1:
        return
    factors = _class_factors(ring, v)
    members = set(factors)
    for l in range(1, top + 1):
        yield from _multisets(factors, members, v, l * (ring.n - 1) + 1)


def decompositions(x: PolyInt, depth: int = _DEFAULT_DEPTH) -> list[tuple[PolyInt, ...]]:
    """All factor multisets with admissible length l*(n-1)+1 for l = 1..depth.

    Factors are class members with |value| >= 2 (units never appear), so
    the trivial unit-padded expansion is excluded by construction.  The
    search is `_decomposition_values`.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ring = x.ring
    return [tuple(map(ring.from_value, values))
            for values in _decomposition_values(ring, x.value, depth)]


def is_composite(x: PolyInt) -> bool:
    """True when x splits into one admissible product of class factors.

    Any longer decomposition collapses to a single-multiplication one by
    grouping, so only l = 1 needs checking: the search of
    `decompositions` at depth 1 yields something.
    """
    return next(_decomposition_values(x.ring, x.value, 1), None) is not None


def is_irreducible(x: PolyInt) -> bool:
    """No admissible product of class members equals x (units count as irreducible)."""
    return not is_composite(x)


def is_polyadic_prime(x: PolyInt) -> bool:
    """Primality in the sense of the unit-padded expansion being the only one.

    Defined only in a ring with a unit (NotUnitalError elsewhere).  In the
    binary limit the representatives 0 and +-1 are excluded to agree with
    the ordinary prime numbers.
    """
    ring = x.ring
    if not ring.is_limiting:
        raise NotUnitalError(f"{ring!r} has no unit; strict primality is undefined")
    if ring.is_binary_limit and abs(x.value) <= 1:
        return False
    return is_irreducible(x)


def composition_set(x: PolyInt, depth: int = _DEFAULT_DEPTH) -> CompositionSet:
    decs = decompositions(x, depth)
    return CompositionSet(x, frozenset(f for dec in decs for f in dec), tuple(decs))


def are_coprime(xs: Iterable[PolyInt], depth: int = _DEFAULT_DEPTH) -> bool:
    """True when the composition sets of all the xs share no factor."""
    sets = [composition_set(x, depth).factors for x in xs]
    return not sets or not frozenset.intersection(*sets)


def primes_gap(ring: RingDescriptor) -> tuple[int, int]:
    """Open interval in which every class member is polyadically prime."""
    if not ring.is_limiting:
        raise NotLimitingError(f"{ring!r} has no unit, hence no primes gap")
    b = ring.b
    if ring.a % b == 1 % b and ring.n == 2:
        return 1 - b**2, (b + 1) ** 2
    if ring.a == b - 1 and ring.n == 3:
        return -((b - 1) ** 2), b**2 - 1
    raise NotLimitingError(f"{ring!r} is not one of the limiting shapes")


def prime_scan(ring: RingDescriptor, k_max: int) -> PrimeScan:
    """All polyadic primes with |k| <= k_max, plus the binary-composite leftovers.

    delta keeps the primes whose representative is neither +-1 nor a
    binary prime up to sign.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if not ring.is_limiting:
        raise NotLimitingError(f"{ring!r} has no unit, hence no polyadic primes")
    primes = []
    for k in range(-k_max, k_max + 1):
        x = ring.element(k)
        if is_polyadic_prime(x):
            primes.append(x)
    delta = tuple(
        x for x in primes if abs(x.value) != 1 and not _is_binary_prime(x.value)
    )
    return PrimeScan(ring, k_max, tuple(primes), len(primes), delta)


def _iroot(r: int, k: int) -> Optional[int]:
    """Exact integer k-th root of r, or None; k >= 1, negative r only for odd k.

    Newton's step on integers.  It starts at x = 2^ceil(bits(r)/k), above
    r^(1/k) as r < 2^bits(r), and repeats
    x <- ((k-1)*x + r // x^(k-1)) // k while x decreases.  By AM-GM,
    ((k-1)*x + r/x^(k-1))/k >= r^(1/k), and the inner floor does not
    change the outer one, so the step never drops below s = floor(r^(1/k)).
    While x > s, x^k > r, so r/x^(k-1) < x and the step is below x: it
    strictly decreases.  At x = s it does not, so the loop stops at s.
    The start is at most 2*r^(1/k), as r >= 2^(bits(r)-1).  Above r^(1/k)
    the step's derivative lies in [0, (k-1)/k), so each step shrinks
    x - r^(1/k) by that factor at least, and near the root the step
    converges quadratically: O(k + log bits(r)) steps in all.
    """
    if k == 1:
        return r
    if r < 0:
        if k % 2 == 0:
            return None
        s = _iroot(-r, k)
        return -s if s is not None else None
    if r in (0, 1):
        return r
    x = 1 << -(-r.bit_length() // k)
    while (y := ((k - 1) * x + r // x ** (k - 1)) // k) < x:
        x = y
    return x if x**k == r else None


def polyadic_divide(x1: PolyInt, x2: PolyInt) -> Optional[PolyInt]:
    """The unique q with x1 = mu[x2, q^(n-1)], None when no q exists.

    Uniqueness is part of the definition, so two candidates raise
    NonUniqueQuotientError instead of picking one.  `_iroot` is exact and
    (-r)^e = r^e for even e, so the quotients are its root r, and -r too
    when e is even, that lie in the class.
    """
    ring = x1.ring
    if ring != x2.ring:
        raise ValueError("dividend and divisor belong to different rings")
    e = ring.n - 1
    if x2.value == 0:
        if x1.value != 0:
            return None
        raise NonUniqueQuotientError(["every class member divides zero"])
    if x1.value % x2.value != 0:
        return None
    root = _iroot(x1.value // x2.value, e)
    if root is None:
        return None
    # root >= 0 for even e, so -root comes first.
    hits = [c for c in ((-root, root) if e % 2 == 0 and root else (root,))
            if ring.contains(c)]
    if not hits:
        return None
    if len(hits) > 1:
        raise NonUniqueQuotientError(hits)
    return ring.from_value(hits[0])


def divide_with_remainder(
    x1: PolyInt, x2: PolyInt, search_radius: Optional[int] = None
) -> Iterator[tuple[PolyInt, PolyInt]]:
    """Every (q, r) with x1 = x2*q^(n-1) + (m-1)*r and both q, r in the class.

    The remainder equation is linear in r, so only q = a + b*k_q is
    searched, over |k_q| <= search_radius (default |k of x1| + 64).
    Results may be legitimately non-unique.  The arguments are checked
    here, at the call; the pairs come from a generator, in increasing k_q.
    It keeps no pair once yielded, only the good offsets of one block of
    m - 1 indices, so the memory of the search does not grow with the
    radius.  Consume the result once, or wrap it in `list` to reuse it.

    Only the residues of k_q modulo w = m - 1 are tested.  With
    t = x1 - x2*q^(n-1), r = t/w is an integer in [[a]]_b exactly when
    t = a*w (mod b*w).  Since b*w divides b*(k_q - k_q mod w), q is
    congruent to a + b*(k_q mod w) modulo b*w, so t mod b*w, and with it
    the verdict, depends on k_q only through k_q mod w.  The same test
    makes r's index, (r - a)/b = (t - a*w)/(b*w), one exact division.

    Every hit is found: write k = -R + i*w + j with 0 <= j < w, R the
    radius.  Then -R + j <= k <= R, so -R + j lies in the first block
    [-R, min(-R + w, R + 1)) and shares k's residue modulo w; the good
    offsets j found there are exactly those of all hits.  The order is
    increasing: block i covers [-R + i*w, -R + (i+1)*w), the blocks are
    visited in increasing i and the offsets in increasing j.
    """
    ring = x1.ring
    if ring != x2.ring:
        raise ValueError("dividend and divisor belong to different rings")
    if search_radius is None:
        search_radius = abs(x1.k) + 64
    if search_radius < 0:
        raise ValueError("search_radius must be >= 0")
    return _remainder_pairs(ring, x1.value, x2.value, search_radius)


def _remainder_pairs(ring: RingDescriptor, v1: int, v2: int,
                     radius: int) -> Iterator[tuple[PolyInt, PolyInt]]:
    # The search of divide_with_remainder, which proves it, over |k| <= radius.
    a, b, e, w = ring.a, ring.b, ring.n - 1, ring.m - 1
    mod = b * w
    good = [j for j in range(min(w, 2 * radius + 1))
            if (v1 - v2 * pow(a + b * (j - radius), e, mod) - a * w) % mod == 0]
    for start in range(-radius, radius + 1, w):
        for j in good:
            k = start + j
            if k > radius:
                return
            yield PolyInt(ring, k), PolyInt(ring, (v1 - v2 * (a + b * k) ** e - a * w) // mod)


def euler_scan(ring: RingDescriptor, k_max: int) -> tuple[list[PolyInt], int]:
    """Totient-style scan: irreducible class members strictly between
    x_{-k_max} and x_{k_max} whose representatives are coprime to both
    interval ends (ordinary gcd on absolute values).

    In the binary limit the irreducibility filter is dropped so the scan
    agrees with the classical totient count: twice phi of k_max for
    k_max >= 2.  At k_max = 1 the only candidate is 0, which is kept
    because gcd(0, 1) = 1, so the count is 1.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    hi = abs(ring.element(k_max).value)
    lo = abs(ring.element(-k_max).value)
    members = []
    for k in range(-k_max + 1, k_max):
        x = ring.element(k)
        if gcd(abs(x.value), hi) != 1 or gcd(abs(x.value), lo) != 1:
            continue
        if ring.is_binary_limit or is_irreducible(x):
            members.append(x)
    return members, len(members)
