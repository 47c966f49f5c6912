"""Brute-force reference implementations.

These deliberately share no code with the main paths: arities come from
a plain double scan, index multiplication from the literal
symmetric-polynomial expansion, the zero, the units and the field
check from exhaustive tuple enumeration, querelements by trying every
index, powers by repeated multiplication, the characteristic by
repeated addition, divisors and primality from trial division up to the
square root or, for every w up to a limit at once, a sieve that appends
each d to the lists of its multiples, decompositions from every sorted
tuple of divisors, and exact roots and quotients by counting up.
Tests use them as the arbiter wherever the main path uses a closed form
or a pruned search.

The subset field search behind `proper_subfields` lives here too: only
tests call it, and it enumerates sets of products where the main path
uses closed forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, product
from math import isqrt
from typing import Optional, Sequence

from .errors import ForbiddenPairError, NonUniqueQuotientError
from .finite import FiniteRing, is_field


@dataclass
class OracleReport:
    subject: str
    instances: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def oracle_arity(a: int, b: int) -> tuple[int, int]:
    """Minimal arities by direct congruence scan; raises ForbiddenPairError."""
    m = next(m for m in range(2, b + 2) if (m * a) % b == a % b)
    for n in range(2, b + 2):
        if pow(a, n, b) == a % b:
            return m, n
    raise ForbiddenPairError(a, b)


def oracle_divisors(w: int) -> list[int]:
    """Positive divisors of |w| >= 1 in increasing order, by trial division."""
    w = abs(w)
    low = [d for d in range(1, isqrt(w) + 1) if w % d == 0]
    return low + [w // d for d in reversed(low) if d * d != w]


def oracle_divisor_table(limit: int) -> list[list[int]]:
    """Positive divisors of each w in 0..limit in increasing order ([] for 0).

    A sieve: each d from 1 to limit is appended to the lists of its
    multiples, so w is prime exactly when its list is [1, w].
    """
    table = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for w in range(d, limit + 1, d):
            table[w].append(d)
    return table


def oracle_decompositions(x, depth: int) -> list[tuple]:
    """Admissible factorisations of a class member x != 0, by brute force.

    The candidate factors are the signed divisors of x, found by trial
    division, that lie in the class and have |f| >= 2, sorted by (|f|, f).
    For l = 1..depth, every sorted tuple of l*(n-1)+1 candidates is tried
    and kept when its product is x.  A product of s candidates is at least
    2^s in size, so the lengths with 2^s > |x| are not tried.
    """
    ring, v = x.ring, x.value
    candidates = sorted((f for d in oracle_divisors(v) for f in (d, -d)
                         if abs(f) >= 2 and (f - ring.a) % ring.b == 0),
                        key=lambda f: (abs(f), f))
    found = []
    for l in range(1, depth + 1):
        slots = l * (ring.n - 1) + 1
        if 2**slots <= abs(v):
            found += [tuple(map(ring.from_value, c))
                      for c in combinations_with_replacement(candidates, slots)
                      if _prod(c) == v]
    return found


def oracle_roots(k: int, bound: int) -> dict[int, int]:
    """{r: t} for every exact k-th power r = t^k with |r| <= bound, by counting up.

    t runs up from 0 while t^k <= bound.  For even k, t is the root kept
    (the non-negative one) and no negative r has a root; for odd k, -t is
    the root of -t^k as well.
    """
    roots, t = {}, 0
    while t**k <= bound:
        roots[t**k] = t
        if k % 2:
            roots[-(t**k)] = -t
        t += 1
    return roots


def oracle_divide(x1, x2):
    """Every class member q with x1 = x2*q^(n-1), for x2 != 0, by trying each.

    Only |q|^(n-1) <= |x1/x2| can hold, and the largest such |q| is found
    by counting up from 0.  Returns None when no q is found, the one q as
    a class member, and raises NonUniqueQuotientError, listing them in
    ascending order, when there are several.
    """
    ring, e = x1.ring, x1.ring.n - 1
    v1, v2 = x1.value, x2.value
    t = 0
    while abs(v2) * (t + 1) ** e <= abs(v1):
        t += 1
    hits = [q for q in range(-t, t + 1)
            if (q - ring.a) % ring.b == 0 and v2 * q**e == v1]
    if len(hits) > 1:
        raise NonUniqueQuotientError(hits)
    return ring.from_value(hits[0]) if hits else None


def oracle_is_prime(w: int) -> bool:
    """|w| is prime: at least 2 and no divisor from 2 up to its square root."""
    w = abs(w)
    return w >= 2 and all(w % d for d in range(2, isqrt(w) + 1))


def oracle_kmult(fr: FiniteRing, ks) -> int:
    """Index product evaluated term by term from the expanded form.

    Sum over j of a^(n-j) * b^(j-1) * (elementary symmetric polynomial of
    degree j in the indices), plus the multiplicative shape invariant,
    all modulo q.
    """
    a, b, n = fr.ring.a, fr.ring.b, fr.ring.n
    assert len(ks) == n
    total = 0
    for j in range(1, n + 1):
        sym = sum(_prod(c) for c in combinations(ks, j))
        total += a ** (n - j) * b ** (j - 1) * sym
    return (total + fr.ring.j_shape) % fr.q


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _mul(fr: FiniteRing, ks) -> int:
    # The oracle's own index multiplication, kept separate from k_mul.
    prod = 1
    for k in ks:
        prod = prod * (fr.ring.a + fr.ring.b * k) % fr.modulus
    return (prod - fr.ring.a) // fr.ring.b


def _add(fr: FiniteRing, ks) -> int:
    total = sum(fr.ring.a + fr.ring.b * k for k in ks) % fr.modulus
    return (total - fr.ring.a) // fr.ring.b


def oracle_power_walk(fr: FiniteRing, k: int) -> list[int]:
    """k and its successive n-ary powers, to the first index seen twice.

    Each power is the previous one multiplied by n-1 more copies of k with
    the oracle's own `_mul`, so the l-th entry is mu[k^(l(n-1)+1)].
    """
    walk = [k]
    while True:
        walk.append(_mul(fr, [walk[-1]] + [k] * (fr.ring.n - 1)))
        if walk[-1] in walk[:-1]:
            return walk


def oracle_zero(fr: FiniteRing) -> Optional[int]:
    """The first index z with nu[z^m] = z that every (n-1)-tuple multiplies back onto z."""
    for z in fr.elements():
        if _add(fr, (z,) * fr.ring.m) == z and all(
            _mul(fr, (z,) + t) == z
            for t in product(fr.elements(), repeat=fr.ring.n - 1)
        ):
            return z
    return None


def oracle_querelements(fr: FiniteRing, k: int) -> tuple[int, ...]:
    """Every y with mu[k^(n-1), y] = k, by trying each index with `_mul`."""
    return tuple(y for y in fr.elements()
                 if _mul(fr, (k,) * (fr.ring.n - 1) + (y,)) == k)


def oracle_units(fr: FiniteRing) -> tuple[int, ...]:
    """Indices e whose (n-1)-fold repetition multiplies every x back onto x."""
    n = fr.ring.n
    return tuple(
        e for e in fr.elements()
        if all(_mul(fr, (e,) * (n - 1) + (x,)) == x for x in fr.elements())
    )


def oracle_characteristic(fr: FiniteRing, zero: Optional[int],
                          units: Sequence[int]) -> Optional[int]:
    """Least l >= 1 at which the l-th additive power of each unit is the zero.

    `zero` and `units` are `oracle_zero(fr)` and `oracle_units(fr)`,
    passed in so that a caller holding them does not enumerate again.
    Each unit e is added to itself with `_add`, m-1 more copies of e at a
    time, for at most q steps: the sums move by a fixed index step, so
    they repeat with a period dividing q.  None without a zero or a unit,
    or when no unit reaches the zero.  Every unit must give the same l;
    AssertionError otherwise.
    """
    if zero is None:
        return None
    steps = set()
    for e in units:
        x, least = e, None
        for l in range(1, fr.q + 1):
            x = _add(fr, [x] + [e] * (fr.ring.m - 1))
            if x == zero:
                least = l
                break
        steps.add(least)
    if len(steps) > 1:
        raise AssertionError(f"units of {fr!r} reach the zero in different steps: {steps}")
    return steps.pop() if steps else None


def oracle_is_field(fr: FiniteRing) -> bool:
    """Field verdict from exhaustive tuple enumeration, nothing clever.

    `_add` and `_mul` only sum or multiply their arguments, so the order
    of a tuple cannot change a verdict: each multiset is visited once.
    """
    q, m, n = fr.q, fr.ring.m, fr.ring.n
    # Additive m-ary group: every translation solves uniquely.
    for t in combinations_with_replacement(range(q), m - 1):
        for x in range(q):
            hits = [y for y in range(q) if _add(fr, t + (y,)) == x]
            if len(hits) != 1:
                return False
    zero = oracle_zero(fr)
    core = [x for x in range(q) if x != zero]
    if not core:
        return False
    for t in combinations_with_replacement(core, n - 1):
        for x in core:
            hits = [y for y in core if _mul(fr, t + (y,)) == x]
            if len(hits) != 1:
                return False
    return True


def oracle_group_axioms(fr: FiniteRing, spot_checks: int = 25) -> OracleReport:
    """Exhaustive commutativity/solvability check plus associativity spot checks.

    Records a mismatch whenever an axiom fails where it must hold or the
    exhaustive field verdict disagrees with the main path.
    """
    report = OracleReport(subject=f"group axioms on {fr!r}")
    n = fr.ring.n
    rng = random.Random(20259)
    for ks in product(fr.elements(), repeat=n):
        report.instances += 1
        if _mul(fr, ks) != _mul(fr, tuple(sorted(ks))):
            report.mismatches.append(("commutativity", ks))
    for _ in range(spot_checks):
        word = tuple(rng.randrange(fr.q) for _ in range(2 * n - 1))
        report.instances += 1
        results = {
            _mul(fr, word[:i] + (_mul(fr, word[i : i + n]),) + word[i + n :])
            for i in range(n)
        }
        if len(results) != 1:
            report.mismatches.append(("associativity", word))
    verdict = oracle_is_field(fr)
    report.instances += 1
    if verdict != is_field(fr):
        report.mismatches.append(("field verdict", verdict, is_field(fr)))
    return report


def _products_mod(fr: FiniteRing, indices: Sequence[int], count: int) -> set[int]:
    """All residues mod b*q reachable as products of `count` representatives."""
    reps = [fr.rep(t) for t in indices]
    out = {1 % fr.modulus} if count == 0 else set(reps)
    for _ in range(count - 1):
        out = {(p * r) % fr.modulus for p in out for r in reps}
    return out


def _is_field_on(fr: FiniteRing, subset: Sequence[int]) -> bool:
    """Field test on a subset closed under both operations.

    Checks the additive translations are bijections, finds the absorbing
    element inside the subset, and demands every multiplicative
    translation by an (n-1)-tuple to permute the remaining elements.
    """
    subset = sorted(subset)
    if not subset:
        return False
    sub = set(subset)
    q, mod = fr.q, fr.modulus
    # Additive translations t -> t + s + I must stay inside and be bijections.
    sums = {t % q for t in subset}
    for _ in range(fr.ring.m - 2):
        sums = {(s + t) % q for s in sums for t in subset}
    for s in sums:
        image = {(t + s + fr.ring.i_shape) % q for t in subset}
        if image != sub:
            return False
    # Absorbing element inside the subset, if any.
    products = _products_mod(fr, subset, fr.ring.n - 1)
    zero = None
    for z in subset:
        rz = fr.rep(z)
        if (fr.ring.m * z + fr.ring.i_shape) % q != z:
            continue
        if all((rz * p) % mod == rz for p in products):
            zero = z
            break
    core = [t for t in subset if t != zero]
    if not core:
        return False
    core_set = set(core)
    core_products = _products_mod(fr, core, fr.ring.n - 1)
    for p in core_products:
        image = set()
        for t in core:
            v = (p * fr.rep(t)) % mod
            idx = (v - fr.ring.a) // fr.ring.b
            if idx not in core_set or idx in image:
                return False
            image.add(idx)
    return True


def proper_subfields(fr: FiniteRing) -> list[tuple[int, ...]]:
    """Nonempty proper subsets closed under both ops that form a field.

    Exhaustive over all subsets, so only sensible at small q; the
    expected result everywhere is an empty list.
    """
    q = fr.q
    found = []
    all_indices = list(fr.elements())
    for size in range(1, q):
        for subset in combinations(all_indices, size):
            sub = set(subset)
            sums = set(subset)
            for _ in range(fr.ring.m - 1):
                sums = {(s + t) % q for s in sums for t in subset}
            if not {(s + fr.ring.i_shape) % q for s in sums} <= sub:
                continue
            prods = _products_mod(fr, subset, fr.ring.n)
            if not {(p - fr.ring.a) // fr.ring.b for p in prods} <= sub:
                continue
            if _is_field_on(fr, subset):
                found.append(subset)
    return found
