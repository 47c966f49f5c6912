"""Number theory inside one infinite polyadic ring.

Irreducibility, composition sets, polyadic primes and their gaps, prime
counting, exact division (with and without remainder), coprimality, and
the polyadic totient scan.  Everything works on exact integers; factor
searches are plain trial division, which is all the desk-scale ranges
here need.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable, Iterator, Optional

from .errors import NonUniqueQuotientError, NotLimitingError, NotUnitalError
from .ring import PolyInt, RingDescriptor

_DEFAULT_DEPTH = 3


@dataclass(frozen=True)
class CompositionSet:
    """Factors appearing in any admissible product equal to `element`."""

    element: PolyInt
    factors: frozenset[PolyInt]
    decompositions: tuple[tuple[PolyInt, ...], ...]


@dataclass(frozen=True)
class PrimeScan:
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


def _abs_divisors(w: int) -> Iterator[int]:
    # Divisors of |w| >= 2, unordered.
    w = abs(w)
    for d in range(2, isqrt(w) + 1):
        if w % d == 0:
            yield d
            if d != w // d:
                yield w // d
    if w >= 2:
        yield w


def _class_factors(ring: RingDescriptor, w: int) -> list[int]:
    """Signed divisors f of w with |f| >= 2 and f in the class.

    Unit representatives (|f| = 1) never qualify, which is exactly the
    exclusion the composite-number definition needs.
    """
    out = []
    for d in _abs_divisors(w):
        for f in (d, -d):
            if ring.contains(f):
                out.append(f)
    return out


def _key(f: int) -> tuple[int, int]:
    return abs(f), f


def _multisets(ring: RingDescriptor, target: int, slots: int, floor: tuple[int, int]):
    """Non-decreasing factor tuples of given length with exact product `target`."""
    if slots == 1:
        if abs(target) >= 2 and ring.contains(target) and _key(target) >= floor:
            yield (target,)
        return
    if abs(target) < 2**slots:
        return
    for f in sorted(_class_factors(ring, target), key=_key):
        if _key(f) < floor:
            continue
        if abs(f) ** slots > abs(target):
            break
        if target % f == 0:
            for rest in _multisets(ring, target // f, slots - 1, _key(f)):
                yield (f,) + rest


def decompositions(x: PolyInt, depth: int = _DEFAULT_DEPTH) -> list[tuple[PolyInt, ...]]:
    """All factor multisets with admissible length l*(n-1)+1 for l = 1..depth.

    Factors are class members with |value| >= 2 (units never appear), so
    the trivial unit-padded expansion is excluded by construction.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ring = x.ring
    v = x.value
    found = []
    if v == 0:
        # 0 times anything stays 0; one canonical non-unit witness is enough.
        other = next(ring.a + ring.b * k for k in (1, -1, 2, -2, 3, -3)
                     if abs(ring.a + ring.b * k) >= 2)
        found.append(tuple([x] + [ring.from_value(other)] * (ring.n - 1)))
        return found
    for l in range(1, depth + 1):
        slots = l * (ring.n - 1) + 1
        if 2**slots > abs(v):
            break
        for values in _multisets(ring, v, slots, (0, 0)):
            found.append(tuple(ring.from_value(f) for f in values))
    return found


def is_composite(x: PolyInt) -> bool:
    """True when x splits into one admissible product of class factors.

    Any longer decomposition collapses to a single-multiplication one by
    grouping, so only l = 1 needs checking.
    """
    ring = x.ring
    if x.value == 0:
        return True
    slots = ring.n
    if 2**slots > abs(x.value):
        return False
    for _ in _multisets(ring, x.value, slots, (0, 0)):
        return True
    return False


def is_irreducible(x: PolyInt) -> bool:
    """No admissible product of class members equals x (units count as irreducible)."""
    return not is_composite(x)


def is_polyadic_prime(x: PolyInt, strict: bool = True) -> bool:
    """Primality in the sense of the unit-padded expansion being the only one.

    Strict mode demands a ring with a unit and raises NotUnitalError
    elsewhere; pass strict=False for the bare irreducibility predicate.
    In the binary limit the representatives 0 and +-1 are excluded to
    agree with the ordinary prime numbers.
    """
    if not strict:
        return is_irreducible(x)
    ring = x.ring
    if not ring.is_limiting:
        raise NotUnitalError(f"{ring!r} has no unit; strict primality is undefined")
    if ring.is_binary_limit and abs(x.value) <= 1:
        return False
    return is_irreducible(x)


def composition_set(x: PolyInt, depth: int = _DEFAULT_DEPTH) -> CompositionSet:
    decs = decompositions(x, depth)
    factors = frozenset(f for dec in decs for f in dec)
    return CompositionSet(x, factors, tuple(decs))


def are_coprime(xs: Iterable[PolyInt], depth: int = _DEFAULT_DEPTH) -> bool:
    """True when the composition sets of all the xs share no factor."""
    sets = [composition_set(x, depth).factors for x in xs]
    if not sets:
        return True
    common = set(sets[0])
    for s in sets[1:]:
        common &= s
    return not common


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


def _is_binary_prime(w: int) -> bool:
    w = abs(w)
    if w < 2:
        return False
    for d in range(2, isqrt(w) + 1):
        if w % d == 0:
            return False
    return True


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
    # Exact integer k-th root of r, or None; k >= 1, negative r only for odd k.
    if k == 1:
        return r
    if r < 0:
        if k % 2 == 0:
            return None
        s = _iroot(-r, k)
        return -s if s is not None else None
    if r in (0, 1):
        return r
    lo, hi = 1, 1
    while hi**k < r:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < r:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == r else None


def polyadic_divide(x1: PolyInt, x2: PolyInt) -> Optional[PolyInt]:
    """The unique q with x1 = mu[x2, q^(n-1)], None when no q exists.

    Uniqueness is part of the definition, so two candidates raise
    NonUniqueQuotientError instead of picking one.
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
    ratio = x1.value // x2.value
    root = _iroot(ratio, e)
    candidates = set()
    if root is not None:
        candidates.add(root)
        if e % 2 == 0:
            candidates.add(-root)
    hits = sorted(c for c in candidates if ring.contains(c) and c**e == ratio)
    if not hits:
        return None
    if len(hits) > 1:
        raise NonUniqueQuotientError(hits)
    return ring.from_value(hits[0])


def divide_with_remainder(
    x1: PolyInt, x2: PolyInt, search_radius: Optional[int] = None
) -> list[tuple[PolyInt, PolyInt]]:
    """All (q, r) with x1 = x2*q^(n-1) + (m-1)*r and both q, r in the class.

    The remainder equation is linear in r, so only q is searched, over
    |k_q| <= search_radius (default |k of x1| + 64).  Results may be
    legitimately non-unique; the list is ordered by k_q.
    """
    ring = x1.ring
    if ring != x2.ring:
        raise ValueError("dividend and divisor belong to different rings")
    if search_radius is None:
        search_radius = abs(x1.k) + 64
    e = ring.n - 1
    weight = ring.m - 1
    pairs = []
    for k_q in range(-search_radius, search_radius + 1):
        q = ring.element(k_q)
        t = x1.value - x2.value * q.value**e
        if t % weight != 0:
            continue
        r = t // weight
        if ring.contains(r):
            pairs.append((q, ring.from_value(r)))
    return pairs


def euler_scan(
    ring: RingDescriptor, k_max: int, depth: int = _DEFAULT_DEPTH
) -> tuple[list[PolyInt], int]:
    """Totient-style scan: irreducible class members strictly between
    x_{-k_max} and x_{k_max} whose representatives are coprime to both
    interval ends (ordinary gcd on absolute values).

    depth bounds the composition search per element; any decomposition
    collapses to a single multiplication by grouping, so depths past 1
    cannot change the verdict.  In the binary limit the irreducibility
    filter is dropped so the scan agrees with the classical totient
    count (twice phi of k_max).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    hi = abs(ring.element(k_max).value)
    lo = abs(ring.element(-k_max).value)
    members = []
    for k in range(-k_max + 1, k_max):
        x = ring.element(k)
        if gcd(abs(x.value), hi) != 1 or gcd(abs(x.value), lo) != 1:
            continue
        if ring.is_binary_limit or not decompositions(x, depth):
            members.append(x)
    return members, len(members)
