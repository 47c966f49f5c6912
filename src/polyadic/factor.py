"""Factorisation of ordinary integers, and the multiplicative order.

`_prime_factors` divides out the first 13 primes, tests what is left
with `_is_binary_prime` (Miller-Rabin on those 13 bases, exact below
3.317e24, plus a strong Lucas test above that bound) and splits
composites with Pollard-Brent rho in `_rho`; there is no loop up to the
square root.  `multiplicative_order` reads the order of a unit off the
factorisation of its modulus.  This is a leaf: it imports nothing from
the package, so `ring` and `arithmetic` both build on it.
"""

from __future__ import annotations

from math import gcd, isqrt

# The first 13 primes.  A strong probable prime to all of them as bases is
# prime below _MR_EXACT, the least strong pseudoprime to these bases
# (Sorenson & Webster 2017); every factor search strips them first.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981


def _is_binary_prime(w: int) -> bool:
    """Ordinary primality of |w|: Miller-Rabin, then a strong Lucas test.

    Divisibility by a base settles |w| outright, and so does |w| < 43^2
    once no base divides it.  Otherwise |w| is a strong probable prime to
    each base in _BASES: writing |w| - 1 = d*2^s with d odd, base^d = 1 or
    base^(d*2^r) = -1 (mod |w|) for some r < s.  Every prime passes
    (Fermat, and x^2 = 1 has only the roots +-1 modulo a prime).  Sorenson
    and Webster (Math. Comp. 86, 2017) proved that no composite below
    _MR_EXACT = 3.317e24 passes all 13 bases, so the verdict is exact
    there.  Above that bound the strong Lucas test is added, which makes
    the whole test at least as strong as Baillie-PSW: no composite is
    known to pass BPSW, but that is unproved, so above 3.317e24 the
    verdict is exact only as far as BPSW is.
    """
    w = abs(w)
    if w < 2:
        return False
    for p in _BASES:
        if w % p == 0:
            return w == p
    if w < 43 * 43:
        return True
    d, s = w - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for base in _BASES:
        x = pow(base, d, w)
        if x == 1 or x == w - 1:
            continue
        for _ in range(s - 1):
            x = x * x % w
            if x == w - 1:
                break
        else:
            return False
    return w < _MR_EXACT or _strong_lucas(w)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0.

    Each factor 2 taken out of a contributes (2/n) = -1 exactly when
    n = 3 or 5 (mod 8); swapping a and n flips the sign exactly when both
    are 3 (mod 4) (reciprocity); and (a/n) depends only on a mod n.  The
    loop ends at a = 0 with n = gcd of the inputs, and (a/n) = 0 unless
    that gcd is 1.
    """
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(w: int) -> bool:
    """Strong Lucas probable-prime test of an odd w > 43^2 with no base factor.

    Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with
    (D/w) = -1, P = 1 and Q = (1 - D)/4 (a perfect square has no such D
    and is composite).  With w + 1 = d*2^s, d odd, a prime w has
    U_d = 0 or V_(d*2^r) = 0 (mod w) for some r < s.  U and V are built
    from the bits of d with U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k,
    U_(k+1) = (U_k + V_k)/2 and V_(k+1) = (D U_k + V_k)/2, halving modulo
    the odd w.  Why primes pass: in GF(w^2) the roots u, v of
    x^2 - x + Q are conjugate, so u^w = v and (u/v)^(w+1) = 1, and the
    repeated square roots of 1 met on the way down from w + 1 to d can
    only be +-1 in a field.  A composite that passes is a strong Lucas
    pseudoprime (5459, 5777, ...); none is known that also passes
    Miller-Rabin to base 2.
    """
    if isqrt(w) ** 2 == w:
        return False
    D = 5
    while (j := _jacobi(D, w)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:
        return False
    Q = (1 - D) // 4
    d, s = w + 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    U, V, Qk = 1, 1, Q
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % w, (V * V - 2 * Qk) % w, Qk * Qk % w
        if bit == "1":
            U, V = U + V, D * U + V
            if U & 1:
                U += w
            if V & 1:
                V += w
            U, V, Qk = U // 2 % w, V // 2 % w, Qk * Q % w
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % w, Qk * Qk % w
        if V == 0:
            return True
    return False


def _rho(w: int) -> int:
    """A proper divisor of the composite w > 43^2, by Pollard-Brent rho.

    Brent (BIT 20, 1980): iterate y -> y^2 + c (mod w); each round saves
    x, skips r steps, then multiplies x - y over the next r steps into
    batches whose gcd with w is taken every 128 steps, and doubles r.  A
    round compares terms r+1 to 2r apart, so modulo a prime p | w, whose
    sequence is eventually periodic with period at most p, some batch has
    gcd > 1 once r reaches the period and x lies on the cycle.  A batch
    with gcd w is replayed one step at a time; if a single step still
    gives w, every prime's cycle closed at once and the next c is tried.
    Any g with 1 < g < w is a proper divisor, so the result is exact;
    only the running time is heuristic: about sqrt(p) steps for the
    smallest prime p | w, so about w^(1/4) at worst.
    """
    for c in range(1, w):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % w
            k = 0
            while k < r and g == 1:
                ys, prod = y, 1
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % w
                    prod = prod * (x - y) % w
                g = gcd(prod, w)
                k += 128
            r *= 2
        if g == w:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % w
                g = gcd(x - ys, w)
        if g != w:
            return g
    raise ValueError(f"{w} is not composite")


def _prime_factors(w: int) -> dict[int, int]:
    """The factorisation {p: e} of |w| >= 1.

    The bases are divided out first; what is left splits at `_rho` until
    each part passes `_is_binary_prime`.  There is no loop up to the
    square root: the cost is a few modular powers per prime factor plus
    the rho steps of each split.
    """
    w = abs(w)
    if w == 0:
        raise ValueError("0 has no factorisation")
    out: dict[int, int] = {}
    for p in _BASES:
        while w % p == 0:
            out[p] = out.get(p, 0) + 1
            w //= p
    parts = [w] if w > 1 else []
    while parts:
        v = parts.pop()
        if _is_binary_prime(v):
            out[v] = out.get(v, 0) + 1
        else:
            d = _rho(v)
            parts += [d, v // d]
    return out


def multiplicative_order(a: int, b: int) -> int:
    """The least k >= 1 with a^k = 1 (mod b), for b >= 1 and gcd(a, b) = 1.

    Modulo each prime power p^e || b, a^phi(p^e) = 1 (Euler), so by the
    Chinese remainder theorem the order divides t = lcm of the phi(p^e).
    The k with a^k = 1 are the multiples of the order, so it is t with
    each prime r of t divided out while a^(order/r) = 1 still holds:
    that stops exactly when the power of r left is the order's.
    """
    if gcd(a, b) != 1:
        raise ValueError(f"{a} is not a unit modulo {b}")
    t = 1
    for p, e in _prime_factors(b).items():
        phi = (p - 1) * p ** (e - 1)
        t = t * phi // gcd(t, phi)
    order = t
    for r in _prime_factors(t):
        while order % r == 0 and pow(a, order // r, b) == 1:
            order //= r
    return order
