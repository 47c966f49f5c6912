"""Finite polyadic rings of secondary congruence classes.

Fixing an order q turns the infinite class ring into a q-element ring on
class indices k = 0..q-1: representatives live modulo b*q, addition adds
indices plus the additive shape invariant, and multiplication is the
exact representative product reduced back to an index.  This module
classifies those rings: zero, units, field property, polyadic
characteristic, idempotence orders, and the JSON text of a report.

Each question about one ring or one element is a proved closed form,
with the proof in its docstring, and none loops over the q indices:

- the zero solves a linear congruence modulo q, so at most
  gcd(m-1, q) candidates are tested (`find_zero`);
- the field test is a few gcds and one primality test of q, and needs
  no zero: at q = 1 the one index is the zero, by the lemma in
  `find_zero` (`is_field`);
- an element's idempotence order is a multiplicative order modulo a
  divisor of b*q, which costs the factorisation of b*q and of its
  exponent (`element_order`);
- the multiplicative querelements solve one linear congruence
  (`mult_querelements`);
- the characteristic needs gcd(b, q) = 1, under which the zero exists
  (the lemma in `find_zero`), and one linear congruence modulo q, and
  searches for no zero and no unit (`characteristic`).

The units (`find_units`) and the order of every element cost O(q).
One `power_cycles` pass gives the cycles of powers and every order
together, one walk per cycle: every index on a cycle reads its order off
its position, and an index that has no order is recognised by a gcd test
without a walk.  The units are then the indices of order 1 prime to q,
one gcd each (`structure_report` proves it).  `structure_report` makes
that pass once, O(q) even for the six lines of text `finite`, and keeps
the cycles on the report, where `groups` reads them.  The two O(q)
loops, `power_cycles` and `find_units`, raise ValueError above
`WALK_Q_MAX` before they allocate; the closed forms answer at any q.
`to_json` is the one JSON writer of reports and group decompositions.
A ring with gcd(b, q) = 1 is its residue ring `residue_ring(q, n)` with
the indices renamed (the lemma there), so `relabelled_to_json` writes its
report from the residue ring's without a walk.  Nothing is cached here:
`cli`'s scan keeps one classified residue ring per (q, n) in its memo.

`FiniteRing` and `StructureReport` are `typing.NamedTuple`s, not
dataclasses, so that no process pays for importing `dataclasses` (see
`ring`): they iterate, compare equal to a plain tuple of their fields
and offer `_asdict()`.  A record hashes as the tuple of its fields.
"""

from __future__ import annotations

import json
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .errors import ArityMismatchError, NoFiniteOrderError
from .factor import _is_binary_prime, multiplicative_order
from .ring import RingDescriptor, make_descriptor

# The largest order whose q indices are walked or tested one by one
# (`power_cycles`, `find_units`).  Text `finite` took 110 MB at q = 10^6.
WALK_Q_MAX = 10**7


def _check_walk(q: int) -> None:
    if q > WALK_Q_MAX:
        raise ValueError(f"q = {q} is above {WALK_Q_MAX}, the largest order walked index by index")


class _FiniteFields(NamedTuple):
    ring: RingDescriptor
    q: int


class FiniteRing(_FiniteFields):
    """Secondary-class ring of order q over a ring descriptor; q < 1 raises ValueError."""

    __slots__ = ()

    def __new__(cls, ring: RingDescriptor, q: int):
        if q < 1:
            raise ValueError(f"order must be positive, got {q}")
        return tuple.__new__(cls, (ring, q))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def modulus(self) -> int:
        return self.ring.b * self.q

    def rep(self, k: int) -> int:
        """Canonical representative of index k, in [0, b*q)."""
        return self.ring.a + self.ring.b * (k % self.q)

    def index_of(self, value: int) -> int:
        v = value % self.modulus
        if v % self.ring.b != self.ring.a:
            raise ValueError(f"{value} is not in the class of {self.ring!r}")
        return (v - self.ring.a) // self.ring.b

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self):
        d = self.ring
        return f"Z_({d.m},{d.n})^[{d.a},{d.b}]({self.q})"


def finite_ring(a: int, b: int, q: int) -> FiniteRing:
    return FiniteRing(make_descriptor(a, b), q)


def k_add(fr: FiniteRing, ks: Sequence[int]) -> int:
    """m-ary index addition: (sum + I) mod q."""
    if len(ks) != fr.ring.m:
        raise ArityMismatchError(fr.ring.m, len(ks))
    return (sum(ks) + fr.ring.i_shape) % fr.q


def k_mul(fr: FiniteRing, ks: Sequence[int]) -> int:
    """n-ary index multiplication via the exact representative product."""
    if len(ks) != fr.ring.n:
        raise ArityMismatchError(fr.ring.n, len(ks))
    prod = 1
    for k in ks:
        prod = (prod * fr.rep(k)) % fr.modulus
    return (prod - fr.ring.a) // fr.ring.b


def additive_quer_index(fr: FiniteRing, k: int) -> int:
    """Index of the additive querelement, (2-m)*k - I mod q."""
    return ((2 - fr.ring.m) * k - fr.ring.i_shape) % fr.q


def _congruence(c: int, t: int, mod: int) -> range:
    """The x in [0, mod) with c*x = t (mod mod), in increasing order.

    With g = gcd(c, mod) there are none unless g | t; otherwise they are
    one class modulo mod/g, x0 + j*mod/g for j = 0..g-1, where
    x0 = (t/g) * (c/g)^-1 mod mod/g, since c/g is invertible modulo mod/g.
    """
    g = gcd(c, mod)
    if t % g:
        return range(0)
    period = mod // g
    return range(t // g * pow(c // g, -1, period) % period, mod, period)


def _coprime_part(w: int, d: int) -> int:
    """The largest divisor of w >= 1 prime to d: divide out gcd(w, d) while it exceeds 1."""
    while (g := gcd(w, d)) > 1:
        w //= g
    return w


def find_zero(fr: FiniteRing) -> Optional[int]:
    """The multiplicatively absorbing, additively 1-idempotent index, if any.

    Index z is the zero exactly when (m-1)*z + I = 0 (mod q) and, with
    h = b*q / gcd(rep z, b*q), h divides b and a^(n-1) = 1 (mod h).  The
    first condition is a linear congruence: with g = gcd(m-1, q) it has no
    solution unless g | I, and otherwise its solutions are z0 + j*q/g for
    j = 0..g-1.  So at most g <= m-1 candidates go through the second
    test, in index order, and the cost does not grow with q.

    Proof sketch.  The first condition is m*z + I = z rewritten.  z absorbs
    when rep(z)*p = rep(z) (mod b*q), that is p = 1 (mod h), for every
    product p of n-1 representatives.  Every representative is a modulo b,
    so when h | b every such p is a^(n-1) modulo h, which settles one
    direction.  Conversely the product of n-1 copies of rep(0) = a gives
    a^(n-1) = 1 (mod h), so a is invertible modulo h; for q >= 2, swapping
    one factor for rep(1) = a + b changes p by b*a^(n-2), so h | b.  For
    q = 1, h divides b*q = b anyway.  An absorbing element is unique, so
    the first candidate passing the test is the zero.  With the minimal
    arities of `make_descriptor` the first condition alone implies the
    second, but a descriptor with a larger m or n needs both.

    Lemma.  When gcd(b, q) = 1, the one index z with q | rep(z) is the
    zero.  When also gcd(m-1, q) = 1, it is the one solution z0 of
    (m-1)*z + I = 0 (mod q).  So `characteristic` and `is_field` need no
    search, and at q = 1 the one index is the zero.  Proof.
    (m-1)*a = b*I gives (m-1)*rep(z) = b*((m-1)*z + I), so q | rep(z)
    makes q | (m-1)*z + I, as b is prime to q: z solves the congruence.
    As rep(z) = a (mod b) and b is prime to q,
    gcd(rep z, b*q) = gcd(a, b)*q, so h = b / gcd(a, b), which divides
    b.  And b | a*(a^(n-1) - 1), as a^n = a (mod b) for every valid
    descriptor, so h | a^(n-1) - 1, since a / gcd(a, b) is prime to h.
    When gcd(m-1, q) = 1 the congruence has one solution z0, and z
    solves it, so z0 = z.
    """
    a, b, n1, mod = fr.ring.a, fr.ring.b, fr.ring.n - 1, fr.modulus
    for z in _congruence(fr.ring.m - 1, -fr.ring.i_shape, fr.q):
        h = mod // gcd(a + b * z, mod)
        if b % h == 0 and pow(a, n1, h) == 1 % h:
            return z
    return None


def find_units(fr: FiniteRing) -> tuple[int, ...]:
    """All indices e with mu[e^(n-1), x] = x for every x.

    Index e is a unit exactly when u = rep(e)^(n-1) - 1 satisfies q | u
    and b*q | u*a.

    Proof sketch.  The defining condition reads u*(a + b*k) = 0 (mod b*q)
    for every index k.  At k = 0 it is b*q | u*a.  For q >= 2 the
    difference of k = 1 and k = 0 gives b*q | u*b, that is q | u, which
    holds trivially for q = 1.  Conversely, q | u makes u*b*k vanish
    modulo b*q for every k, leaving the k = 0 condition.

    It tests every index, so above `WALK_Q_MAX` it raises ValueError.
    `structure_report` reads the same units off its walk instead: they
    are the indices of order 1 whose representative is prime to q.
    """
    _check_walk(fr.q)
    a, b, n1, q = fr.ring.a, fr.ring.b, fr.ring.n - 1, fr.q
    mod = b * q
    out = []
    for e in range(q):
        u = pow(a + b * e, n1, mod) - 1
        if u % q == 0 and u * a % mod == 0:
            out.append(e)
    return tuple(out)


def mult_querelements(fr: FiniteRing, k: int) -> tuple[int, ...]:
    """All y with mu[k^(n-1), y] = k; fields need exactly one per element.

    With p = rep(k)^(n-1) they are the solutions of the linear congruence
    p*y + (p*a - a)/b = k (mod q): none unless g = gcd(p, q) divides the
    right-hand side, else y0 + j*q/g for j = 0..g-1, in increasing order.
    One congruence, however large q is; the output has g entries or none.

    Proof sketch.  mu[k^(n-1), y] is the index of p*(a + b*y) =
    a + b*(p*y + (p*a - a)/b) modulo b*q, where p*a = a^n = a (mod b)
    makes the quotient exact, and a shift of p by b*q moves it by a
    multiple of q.
    """
    a, b = fr.ring.a, fr.ring.b
    p = pow(fr.rep(k), fr.ring.n - 1, fr.modulus)
    return tuple(_congruence(p, k - (p * a - a) // b, fr.q))


def is_field(fr: FiniteRing) -> bool:
    """Whether the additive and the non-zero multiplicative structure are groups.

    The ring is a field exactly when it has a non-zero element and every
    non-zero representative is coprime to q.  In closed form: never for
    q = 1, whose one index is the zero (the lemma in `find_zero`); for
    q >= 2 when either every prime of q divides b and gcd(a, q) = 1, or
    q is a prime that does not divide b.  That costs a few gcds and one
    primality test of q (`factor._is_binary_prime`), and no zero search.

    Proof sketch.  Additive translations k -> k + s + I permute the
    indices, so only multiplication can fail.  Multiplying by a product p
    of n-1 representatives maps index k to p*k + (p*a - a)/b (mod q), since
    p*(a + b*k) = a + b*(p*k + (p*a - a)/b) and p*a = a^n = a (mod b).  This
    affine map is a bijection of the indices iff gcd(p, q) = 1; otherwise
    every image has gcd(p, q) > 1 preimages.  If all non-zero
    representatives are coprime to q, so is every product p of them, and
    its bijection fixes the zero (which absorbs), so it permutes the
    non-zero indices: a field.  If some non-zero representative r shares a
    factor with q, take p = r^(n-1).  Without a zero, its map is not
    injective on the non-zero indices.  With a zero z, the preimage of z
    holds z and at least one non-zero index, which p sends out of the
    non-zero indices.  Either way it is not a field.

    The closed form asks, for each prime p | q, which indices k have
    p | a + b*k.  If p | b, that is every index when p | a and none
    otherwise; for q >= 2 there is a non-zero index, so p must not divide
    a.  If p does not divide b, it is the q/p indices k = -a*b^-1 (mod p),
    all of which must be the zero: so q = p, and the zero must be that
    index k0.  It always is, by the lemma in `find_zero`: gcd(b, p) = 1
    and p | rep(k0).  A q with primes of both kinds has q != p for its
    prime p outside b.  At q = 1 the one element has a representative
    coprime to 1, and it is the zero (the same lemma), so the ring is no
    field.
    """
    a, b, q = fr.ring.a, fr.ring.b, fr.q
    if _coprime_part(q, b) == 1:  # every prime of q divides b; none at q = 1
        return q > 1 and gcd(a, q) == 1
    return _is_binary_prime(q)  # a prime q here does not divide b


def power_cycles(fr: FiniteRing) -> tuple[tuple[tuple[int, ...], ...], list[Optional[int]]]:
    """Cycles of multiplicative powers, and every index's order, from one pass.

    Returns (cycles, orders).  Indices are taken in increasing order; one
    that lies on no earlier cycle and has an order starts a new cycle w,
    where w[i] is the i-th power of w[0] and len(w) is the order o of
    w[0].  Each cycle costs one walk of o steps, and every index with an
    order lies on some cycle.  On w, w[i] has order o / gcd(o, 1 + i(n-1)),
    written to orders[w[i]] as the walk ends; an index on no cycle keeps
    None.  So orders is also the marker of the indices already on a
    cycle.  Above `WALK_Q_MAX` it raises ValueError before it allocates.

    Proof sketch.  Let r = rep(k), M = b*q, g = gcd(r, M) and h = M/g.
    The l-th power of k has representative r^(1+l(n-1)) mod M.  It is k
    iff r*(r^(l(n-1)) - 1) = 0 (mod M), that is r^(l(n-1)) = 1 (mod h),
    since r/g is coprime to h.  Some l >= 1 solves this iff r is
    invertible modulo h, iff gcd(r, h) = 1: so k has an order exactly
    then, and otherwise needs no walk.  Each w[i] has representative
    r*r^(i(n-1)) mod M; a prime dividing h does not divide r, and a prime
    not dividing h divides r at least as often as M, so gcd(rep w[i], M)
    = g.  Every index on the cycle thus has the same h and an order too,
    and an index without one is on no cycle.

    The orders.  Each power of w[0] is the previous one times
    rep(w[0])^(n-1), and the o-th is w[0], so the j-th is w[j mod o].  With
    e_i = 1 + i(n-1), the l-th power of w[i] has exponent
    e_i*(1 + l(n-1)) = 1 + (i + l*e_i)(n-1) of rep(w[0]), so it is
    w[(i + l*e_i) mod o]: powering w[i] steps e_i places round the
    cycle.  It first returns to place i when o | l*e_i, at
    l = o / gcd(o, e_i).  An index on several cycles gets the same order
    from each, and w[0] has order o, as e_0 = 1, which every order on w
    divides.
    """
    _check_walk(fr.q)
    a, b, n1, mod = fr.ring.a, fr.ring.b, fr.ring.n - 1, fr.modulus
    orders: list[Optional[int]] = [None] * fr.q
    cycles = []
    for k in range(fr.q):
        if orders[k]:  # an order >= 1 was written: k is on a cycle
            continue
        r = a + b * k
        if gcd(r, mod // gcd(r, mod)) != 1:
            continue
        step = pow(r, n1, mod)
        cycle = [k]
        v = r * step % mod
        while v != r:
            cycle.append((v - a) // b)
            v = v * step % mod
        o, e = len(cycle), 1  # e = 1 + i(n-1) at place i
        for x in cycle:
            orders[x] = o // gcd(o, e)
            e += n1
        cycles.append(tuple(cycle))
    return tuple(cycles), orders


def element_order(fr: FiniteRing, k: int) -> int:
    """Least lam >= 1 with the lam-th multiplicative power equal to k itself.

    With r = rep(k) and h the part of b*q coprime to r, it is the order of
    r^(n-1) modulo h (`factor.multiplicative_order`), so it costs the
    factorisation of h and of its exponent, not a walk.  k has no order
    exactly when gcd(r, b*q / gcd(r, b*q)) > 1; then NoFiniteOrderError
    carries that same order of r^(n-1) modulo h as the length of the
    cycle the powers of k end in.

    Proof sketch.  The l-th power of k has representative r*s^l mod b*q
    with s = r^(n-1).  When gcd(r, b*q / gcd(r, b*q)) = 1, each prime of
    r divides b*q no more often than it divides r, so b*q / gcd(r, b*q) = h,
    and the power is k iff s^l = 1 (mod h) (`power_cycles`).  In any
    case, modulo p^e || b*q with p | r, r*s^l is 0 once l*(n-1) + 1 >= e;
    modulo the other p^e, r is a unit and r*s^l repeats with the period
    of s modulo p^e.  By the Chinese remainder theorem the powers end in
    a cycle whose length is the lcm of those periods, the order of s
    modulo h.
    """
    r, mod = fr.rep(k), fr.modulus
    h = _coprime_part(mod, r)
    order = multiplicative_order(pow(r, fr.ring.n - 1, h), h)
    if gcd(r, mod // gcd(r, mod)) != 1:
        raise NoFiniteOrderError(k, order)
    return order


def characteristic(fr: FiniteRing) -> Optional[int]:
    """Least l >= 1 with the l-th additive power of a unit at the zero.

    Defined only when both the zero and a unit exist, which is exactly
    when gcd(b, q) = 1.  Then l is the least l >= 1 with
    l*(m-1) = -1 (mod q), the same for every unit; there is none when
    gcd(m-1, q) > 1.  So it costs two gcds and one linear congruence
    modulo q, looks for no zero and no unit, and answers at any q.

    Proof sketch.  The zero z passes `find_zero`'s test, so
    h = b*q / gcd(rep z, b*q) divides b, that is q | rep(z).  A unit e
    has q | rep(e)^(n-1) - 1 (`find_units`), so rep(e) is prime to q,
    and so is b*(e - z) = rep(e) - rep(z): both exist only when
    gcd(b, q) = 1.  Conversely, when gcd(b, q) = 1, the zero exists
    (the lemma in `find_zero`), and the index e with rep(e) = 1 (mod q)
    is a unit: u = rep(e)^(n-1) - 1 has q | u, and u = a^(n-1) - 1
    (mod b) with a^n = a (mod b) gives b | u*a, so b*q | u*a.

    The l-th additive power of a unit e sums N = l*(m-1) + 1 copies of
    rep(e), so it is the zero iff N*rep(e) = rep(z) (mod b*q).  With
    (m-1)*a = b*I, N*rep(e) - rep(z) = b*(l*((m-1)*e + I) + e - z), and
    (m-1)*z + I = 0 (mod q) turns (m-1)*e + I into (m-1)*(e - z) modulo
    q, so the condition is q | (e - z)*N.  As e - z is prime to q, that
    is q | N, or l*(m-1) = -1 (mod q), whatever the unit.  Its solutions
    in [0, q) are one class modulo q when gcd(m-1, q) = 1 and none
    otherwise (`_congruence`); the least l >= 1 is the solution, or q
    when it is 0, which happens only at q = 1.
    """
    if gcd(fr.ring.b, fr.q) != 1:
        return None
    solutions = _congruence(fr.ring.m - 1, -1, fr.q)
    return (solutions[0] or solutions.step) if solutions else None


class StructureReport(NamedTuple):
    """Classification of one finite ring.

    `cycles` keeps the cycles of `power_cycles`, which `groups` reads; it
    is compared like every other field but is not written by `to_json`.
    """

    ring: FiniteRing
    zero: Optional[int]
    units: tuple[int, ...]
    is_field: bool
    chi_p: Optional[int]
    lambda_p: Optional[int]
    element_orders: tuple[Optional[int], ...]
    q_star: int
    n_admissible: bool
    zeroless: bool
    nonunital: bool
    cycles: tuple[tuple[int, ...], ...]

    @property
    def kappa_e(self) -> int:
        return len(self.units)


def structure_report(fr: FiniteRing) -> StructureReport:
    """Full classification of one finite ring, one power walk per cycle.

    The cycles and every index's order come from one `power_cycles` pass.
    lambda_p, the largest order of a non-zero index, is defined when
    q* >= 1 and every index has an order, and is then the length of the
    longest cycle, since every order on a cycle divides its first one,
    its length.  The zero, its own first power, has order 1 and lies on
    no cycle but its own one-element one, since a power that reaches the
    zero stays there and never returns.  The zero is `find_zero`'s, the
    one zero search of the report: `is_field` and chi_p
    (`characteristic`) need none, by the lemma in `find_zero`.

    The units are read off the walk by one gcd each: they are the
    indices of order 1 whose representative is prime to q.  Proof
    sketch.  Let r = rep(k) and u = r^(n-1) - 1.  An index of order 1
    has r*r^(n-1) = r (mod b*q), that is b*q | u*r, so b*q / gcd(r, b*q)
    divides u.  If gcd(r, q) = 1, each prime power of q divides
    b*q / gcd(r, b*q), so q | u.  Then b*q | u*b*k, and with
    b*q | u*r = u*a + u*b*k this gives b*q | u*a: both parts of
    `find_units`' test.  Conversely, a unit has order 1, since
    mu[e^(n-1), e] = e, and its q | u makes r prime to q.
    """
    a, b, q = fr.ring.a, fr.ring.b, fr.q
    zero = find_zero(fr)
    cycles, orders = power_cycles(fr)
    units = tuple(k for k, o in enumerate(orders) if o == 1 and gcd(a + b * k, q) == 1)
    q_star = q - 1 if zero is not None else q
    lambda_p = max(map(len, cycles)) if q_star >= 1 and None not in orders else None
    return StructureReport(
        ring=fr,
        zero=zero,
        units=units,
        is_field=is_field(fr),
        chi_p=characteristic(fr),
        lambda_p=lambda_p,
        element_orders=tuple(orders),
        q_star=q_star,
        # A word has length l*(n-1)+1 >= 1 (`ring.mu_long`), so q* = 0 is never admissible.
        n_admissible=q_star >= 1 and (q_star - 1) % (fr.ring.n - 1) == 0,
        zeroless=zero is None,
        nonunital=not units,
        cycles=cycles,
    )


def to_json(report: Optional[StructureReport] = None, group=None) -> str:
    """Compact JSON text of a report, of a `groups.GroupDecomposition`, or of both.

    The report's keys come in the one fixed order of `_report_json`, "a"
    first and "element_orders" last, then the decomposition's under
    "group".  The text is `json.dumps(..., separators=(",", ":"))` of
    `report_to_dict` and `groups.decomposition_to_dict`, which parse it;
    it holds integers, fixed keys and None, True and False, respelled last.
    """
    text = None
    if report is not None:
        r = report
        orders = ",".join([f'"{k}":{o}' for k, o in enumerate(r.element_orders)])
        text = _report_json(r.ring, r, r.zero, r.units, r.chi_p, orders)
    return _json(text, group)


def report_to_dict(report: StructureReport) -> dict:
    """Flat JSON-ready dict with the stable key order golden files rely on."""
    return json.loads(to_json(report))


def _report_json(fr: FiniteRing, r: StructureReport, zero: Optional[int],
                 units: Sequence[int], chi_p: Optional[int], orders: str) -> str:
    """The report's keys in their one order, "a" first and "element_orders" last.

    fr gives the ring's numbers; zero, units, chi_p and the text of the
    orders are given; r gives the other fields, which relabelling keeps.
    """
    d = fr.ring
    return (f'"a":{d.a},"b":{d.b},"m":{d.m},"n":{d.n},"I":{d.i_shape},"J":{d.j_shape},'
            f'"q":{fr.q},"q_star":{r.q_star},"n_admissible":{r.n_admissible},'
            f'"zero":{zero},"units":{_ints(units)},"kappa_e":{len(units)},'
            f'"is_field":{r.is_field},"chi_p":{chi_p},"lambda_p":{r.lambda_p},'
            f'"zeroless":{r.zeroless},"nonunital":{r.nonunital},'
            f'"element_orders":{{{orders}}}')


def _ints(xs) -> str:
    return "[" + ",".join(map(str, xs)) + "]"


def _json(report: Optional[str], group) -> str:
    """The JSON object of a report's text, of a decomposition, or of both."""
    parts = [] if report is None else [report]
    if group is not None:
        g = group
        refl = ",".join([f'"{k}":{l}' for k, l in g.reflections])
        body = (f'"subgroups":[{",".join(map(_ints, g.subgroups))}],'
                f'"units":{_ints(g.unit_subgroup)},"split":{g.unit_subgroup_split},'
                f'"covers":{g.covers},"primitive":{_ints(g.primitive_elements)},'
                f'"reflections":{{{refl}}}')
        parts.append(body if report is None else f'"group":{{{body}}}')
    text = "{" + ",".join(parts) + "}"
    return text.replace("None", "null").replace("True", "true").replace("False", "false")


def residue_ring(q: int, n: int) -> FiniteRing:
    """The residues modulo q under their sum and n-ary product: [[0]]_1 with m = 2.

    Lemma.  Let fr have gcd(b, q) = 1 and arity n.  Then k -> x = rep(k)
    mod q maps fr's indices one to one onto those of residue_ring(q, n),
    with inverse k = (x - a)*b^-1 mod q, carries fr's n-ary product onto
    the product of residues and fr's zero to x = 0.  So the element
    orders, the units, the field test, lambda_p, q*, n-admissibility, the
    subgroups, the reflections and the primitive elements of fr are those
    of the residue ring with each index x renamed to (x - a)*b^-1 mod q;
    only chi_p, which reads m, is `characteristic(fr)`.

    Proof.  As b is invertible modulo q, k -> a + b*k mod q is a bijection
    of the indices, with the stated inverse.  The product of n indices is
    the index of the product p of their representatives modulo b*q
    (`k_mul`), and that index's representative is p modulo b*q, so modulo
    q it is the product of the n residues x; in the residue ring each x
    is its own representative (a = 0, b = 1).  The m-ary sum goes to the
    sum of the m residues, since b*I = (m-1)*a makes
    a + b*(k_1 + ... + k_m + I) the sum of the m representatives.  The
    zero of fr is its index with q | rep(z) (the lemma in `find_zero`),
    that is x = 0, which is the residue ring's zero by the same lemma at
    b = 1.  The orders, units, subgroups, reflections and primitive
    elements are defined by powers and products alone, and lambda_p, q*
    and n-admissibility by the orders, the zero and n; `is_field` asks
    whether q >= 2 and every non-zero representative is prime to q, and
    rep(k) is prime to q exactly when x is.  chi_p counts m-ary sums of
    a unit, and the residue ring sums two at a time.
    """
    return FiniteRing(RingDescriptor(0, 1, 2, n, 0, 0), q)


def orders_template(q: int) -> str:
    """The "element_orders" text of a ring of order q with a %s for each order."""
    return ",".join([f'"{k}":%s' for k in range(q)])


def relabelled_to_json(fr: FiniteRing, residue_report: StructureReport, template: str,
                       group=None) -> str:
    """`to_json(structure_report(fr), group)` read off the residue ring's report.

    fr must have gcd(b, q) = 1, residue_report is
    `structure_report(residue_ring(q, n))`, template is `orders_template(q)`
    and group, if given, fr's decomposition.  By the lemma in
    `residue_ring`, index k has the order of x = (a + b*k) mod q, fr's
    units and zero are the residue ring's renamed by (x - a)*b^-1 mod q
    and every other field but chi_p is the residue ring's.  It costs one
    gather of the q orders, one format of the template, and a sort of the
    units; it walks nothing.
    """
    a, b, q = fr.ring.a, fr.ring.b, fr.q
    c = pow(b, -1, q)
    units = sorted([(x - a) * c % q for x in residue_report.units])
    orders = residue_report.element_orders
    text = template % tuple([orders[(a + b * k) % q] for k in range(q)])
    return _json(_report_json(fr, residue_report, -a * c % q, units, characteristic(fr), text),
                 group)
