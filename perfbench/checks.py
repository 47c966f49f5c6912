"""Output checks of the benchmark.  A check that fails marks its operation failed.

The arithmetic results are checked against their defining equations with
plain integer arithmetic.  Decomposition lists are also compared with the
digests pinned in expected.json, and remainder pairs with a search of this
module's own, so that a result with parts missing fails too.  Scan lines
are re-checked against the brute-force verdicts of `polyadic.oracle`, which
the benchmark never times.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from math import gcd
from pathlib import Path

from polyadic.finite import FiniteRing
from polyadic.oracle import oracle_arity, oracle_is_field
from polyadic.ring import RingDescriptor

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json")
                      .read_text(encoding="utf-8"))

# Oracle cost grows as q**(arity + 1); lines above this are not sampled.
ORACLE_BUDGET = 10**5


def oracle_sample(stdout: bytes, seed: int, count: int) -> list[str]:
    """Problems found when re-checking `count` seeded lines with q <= 6."""
    try:
        rows = [json.loads(line) for line in stdout.splitlines()]
        cheap = [r for r in rows
                 if r["q"] <= 6 and r["q"] ** (max(r["m"], r["n"]) + 1) <= ORACLE_BUDGET]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"scan output is not JSON lines of ring reports: {exc!r}"]
    if len(cheap) < count:
        return [f"only {len(cheap)} lines are cheap enough to re-check"]
    problems = []
    for r in random.Random(seed).sample(cheap, count):
        a, b, q = r["a"], r["b"], r["q"]
        try:
            if oracle_arity(a, b) != (r["m"], r["n"]):
                problems.append(f"({a},{b},{q}): arities disagree with the oracle")
                continue
            fr = FiniteRing(RingDescriptor(a, b, r["m"], r["n"], r["I"], r["J"]), q)
            if oracle_is_field(fr) != r["is_field"]:
                problems.append(f"({a},{b},{q}): is_field disagrees with the oracle")
        except (AssertionError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"({a},{b},{q}): malformed line: {exc!r}")
    return problems


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for |n| < 3.3e24 (first 13 prime bases)."""
    n = abs(n)
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in bases:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _members(a: int, b: int, ks) -> list[int]:
    return [a + b * k for k in ks]


def _check_primes(args, got) -> bool:
    # Every member of [[1]]_b or [[b-1]]_b with |k| <= k_max lies inside the
    # primes gap, so every one of them must count as prime.
    a, b, k_max = args
    members = _members(a, b, range(-k_max, k_max + 1))
    bound = (b - 1) ** 2
    if not all(-bound < x < bound for x in members):
        return False
    delta = [x for x in members if abs(x) != 1 and not is_prime(x)]
    return got == {"primes": members, "pi": len(members), "delta": delta}


def _check_euler(args, got) -> bool:
    # Inside the primes gap every member is irreducible, so the scan keeps
    # exactly the members coprime to both interval ends.
    a, b, k_max = args
    hi, lo = abs(a + b * k_max), abs(a - b * k_max)
    members = [x for x in _members(a, b, range(-k_max + 1, k_max))
               if gcd(abs(x), hi) == 1 and gcd(abs(x), lo) == 1]
    return got == {"members": members, "phi": len(members)}


def _check_decompositions(args, got) -> bool:
    # The equations show each multiset is right; the pinned digest of the
    # whole sorted list shows that none is missing.
    a, b, x = args
    _, n = oracle_arity(a, b)
    seen = set()
    for factors in got:
        product = 1
        for f in factors:
            if f % b != a or abs(f) < 2:
                return False
            product *= f
        admissible = len(factors) >= n and (len(factors) - 1) % (n - 1) == 0
        if product != x or not admissible or tuple(factors) in seen:
            return False
        seen.add(tuple(factors))
    canonical = json.dumps(sorted(sorted(f) for f in got), separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest() == \
        EXPECTED["decompositions_sha256"][str(x)]


def _check_divide(args, got) -> bool:
    a, b, x1, x2 = args
    _, n = oracle_arity(a, b)
    return got is not None and got % b == a and x2 * got ** (n - 1) == x1


@lru_cache(maxsize=None)
def _remainder_pairs(a: int, b: int, x1: int, x2: int, radius: int) -> list[list[int]]:
    """Every (q, r) in the class with x1 = x2*q**(n-1) + (m-1)*r and |k_q| <= radius."""
    m, n = oracle_arity(a, b)
    pairs = []
    for k in range(-radius, radius + 1):
        q = a + b * k
        r, rest = divmod(x1 - x2 * q ** (n - 1), m - 1)
        if rest == 0 and r % b == a:
            pairs.append([q, r])
    return pairs


def _check_remainder(args, got) -> bool:
    return got == _remainder_pairs(*args)


ARITH_CHECKS = {
    "primes": _check_primes,
    "euler": _check_euler,
    "decompositions": _check_decompositions,
    "divide": _check_divide,
    "remainder": _check_remainder,
}


def arith_failures(inputs: dict, results: dict) -> int:
    """Number of arithmetic calls whose result breaks its defining equation."""
    failed = 0
    for kind, check in ARITH_CHECKS.items():
        got = results.get(kind, [])
        for i, args in enumerate(inputs[kind]):
            try:
                ok = check(args, got[i])
            except (IndexError, KeyError, TypeError, ValueError):
                ok = False  # missing or malformed result, including {"error": ...}
            failed += not ok
    return failed
