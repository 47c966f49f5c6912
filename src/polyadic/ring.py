"""Congruence-class rings with m-ary addition and n-ary multiplication.

A residue class [[a]]_b = {a + b*k} closes under adding exactly m
representatives and multiplying exactly n representatives, where m and n
are the minimal arities satisfying m*a = a (mod b) and a^n = a (mod b).
This module derives those arities, builds ring descriptors with their
shape invariants, and evaluates the polyadic operations on exact
(arbitrary-precision) representatives.

`RingDescriptor` and `PolyInt` are `typing.NamedTuple`s, as is every
record on the CLI and arithmetic paths (`finite`, `groups`, `tables`,
`arithmetic`): immutable, equal and hashed by the tuple of their fields,
with a `Name(field=...)` repr unless a class writes its own.  They were
frozen dataclasses; importing `dataclasses` loads `inspect`, `ast`, `dis`
and `tokenize` (8-12 ms) and each such class took about 1.1 ms to build,
against about 0.14 ms for a NamedTuple class, in every process (Python
3.11 on a shared 2-core host).
Being tuples, records also iterate, compare equal to a plain tuple of
their fields, and offer `_asdict()` in place of `__dict__`.  A record that
checks its fields is a `__slots__ = ()` subclass of a private NamedTuple
whose `__new__` runs the check.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional, Sequence

from .errors import (
    ArityMismatchError,
    ClassMembershipError,
    ForbiddenPairError,
    InadmissibleLengthError,
)


def derive_arities(a: int, b: int) -> tuple[int, int]:
    """Return the minimal (m, n), both >= 2, closing [[a]]_b under the ring ops.

    Raises ForbiddenPairError when no exponent n >= 2 satisfies
    a^n = a (mod b); the addition arity m always exists.
    """
    _check_residue(a, b)
    # (m-1)*a = 0 (mod b) exactly when b/gcd(a,b) divides m-1.
    m = b // gcd(a, b) + 1 if a else 2
    # Powers of a modulo b repeat within b steps, so scanning to b+1 is enough.
    p = a % b
    for n in range(2, b + 2):
        p = (p * a) % b
        if p == a % b:
            return m, n
    raise ForbiddenPairError(a, b)


def psi_closed_forms(a: int, b: int) -> Optional[tuple[int, int]]:
    """Closed-form arity pair for (a, b), or None where the form gives nothing.

    Writing d = gcd(a, b) and b0 = b/d, the addition arity is b0 + 1 and the
    multiplication arity is one more than the order of a modulo b0; the order
    exists only when gcd(a, b0) = 1.  The limiting cases a = 1 and a = b - 1
    reduce to (b+1, 2) and (b+1, 3).
    """
    _check_residue(a, b)
    if a == 1:
        return b + 1, 2
    if a == b - 1 and b >= 3:
        return b + 1, 3
    d = gcd(a, b) if a else b
    b0 = b // d
    if gcd(a, b0) != 1:
        return None
    m = b0 + 1
    p = 1
    for j in range(1, b0 + 1):
        p = (p * a) % b0
        if p == 1 % b0:
            return m, j + 1
    return None


class _RingFields(NamedTuple):
    a: int
    b: int
    m: int
    n: int
    i_shape: int
    j_shape: int


class RingDescriptor(_RingFields):
    """One infinite polyadic ring: the class [[a]]_b plus derived data.

    m and n are the addition/multiplication arities, and the shape
    invariants are i_shape = (m-1)*a/b and j_shape = (a^n - a)/b, both
    exact integers.  Construction (`_make` and `_replace` included)
    checks both identities and raises ValueError when one fails.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, m: int, n: int, i_shape: int, j_shape: int):
        self = tuple.__new__(cls, (a, b, m, n, i_shape, j_shape))
        if (m - 1) * a != i_shape * b:
            raise ValueError(f"(m-1)*a != I*b for {self!r} with I={i_shape}")
        if a**n - a != j_shape * b:
            raise ValueError(f"a^n - a != J*b for {self!r} with J={j_shape}")
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __repr__(self):
        return f"Z_({self.m},{self.n})^[{self.a},{self.b}]"

    def element(self, k: int) -> "PolyInt":
        return PolyInt(self, k)

    def from_value(self, value: int) -> "PolyInt":
        """Wrap an integer as a class member; reject non-members outright."""
        if value % self.b != self.a:
            raise ClassMembershipError(value, self.a, self.b)
        return PolyInt(self, (value - self.a) // self.b)

    def contains(self, value: int) -> bool:
        return value % self.b == self.a

    @property
    def is_binary_limit(self) -> bool:
        return (self.a, self.b) == (0, 1)

    def units(self) -> list["PolyInt"]:
        """Multiplicative units of the infinite ring (at most one exists).

        e^(n-1) must equal 1 in the integers, so only 1 and -1 qualify,
        and only when they sit in the class.
        """
        out = []
        for e in (1, -1):
            if self.contains(e) and e ** (self.n - 1) == 1:
                out.append(self.from_value(e))
        return out

    @property
    def is_limiting(self) -> bool:
        """True when the ring has a unit (classes [[1]]_b and [[b-1]]_b)."""
        return bool(self.units())


def make_descriptor(a: int, b: int) -> RingDescriptor:
    m, n = derive_arities(a, b)
    return RingDescriptor(a, b, m, n, (m - 1) * a // b, (a**n - a) // b)


def allowed_residues(b: int) -> list[int]:
    """Residues 1..b-1 that head a polyadic ring (forbidden ones skipped)."""
    out = []
    for a in range(1, b):
        try:
            derive_arities(a, b)
        except ForbiddenPairError:
            continue
        out.append(a)
    return out


def forbidden_residues(b: int) -> list[int]:
    """Residues 1..b-1 that head no polyadic ring."""
    allowed = set(allowed_residues(b))
    return [a for a in range(1, b) if a not in allowed]


class PolyInt(NamedTuple):
    """A representative a + b*k of its ring's congruence class."""

    ring: RingDescriptor
    k: int

    @property
    def value(self) -> int:
        return self.ring.a + self.ring.b * self.k

    def __repr__(self):
        return f"{self.value}{self.ring!r}"

    def __int__(self):
        return self.value


def _check_residue(a: int, b: int) -> None:
    if b < 1:
        raise ValueError(f"modulus must be positive, got {b}")
    if not 0 <= a <= b - 1:
        raise ValueError(f"residue must satisfy 0 <= a <= b-1, got a={a}, b={b}")


def _check_arity(xs: Sequence[PolyInt], arity: int) -> RingDescriptor:
    if len(xs) != arity:
        raise ArityMismatchError(arity, len(xs))
    ring = xs[0].ring
    for x in xs:
        if x.ring != ring:
            raise ValueError("operands belong to different rings")
    return ring


def nu(xs: Sequence[PolyInt]) -> PolyInt:
    """m-ary addition: the plain integer sum of exactly m representatives."""
    ring = _check_arity(xs, xs[0].ring.m)
    return ring.from_value(sum(x.value for x in xs))


def mu(xs: Sequence[PolyInt]) -> PolyInt:
    """n-ary multiplication: the plain integer product of exactly n representatives."""
    ring = _check_arity(xs, xs[0].ring.n)
    prod = 1
    for x in xs:
        prod *= x.value
    return ring.from_value(prod)


def _fold(xs: Sequence[PolyInt], arity: int, op) -> PolyInt:
    n = len(xs)
    if n < 1 or n % (arity - 1) != 1 % (arity - 1):
        raise InadmissibleLengthError(n, arity)
    items = list(xs)
    while len(items) > 1:
        items = [op(items[:arity])] + items[arity:]
    return items[0]


def nu_long(xs: Sequence[PolyInt]) -> PolyInt:
    """Iterated m-ary addition of an m-admissible word (length l*(m-1)+1)."""
    return _fold(xs, xs[0].ring.m, nu)


def mu_long(xs: Sequence[PolyInt]) -> PolyInt:
    """Iterated n-ary multiplication of an n-admissible word (length l*(n-1)+1)."""
    return _fold(xs, xs[0].ring.n, mu)


def additive_power(x: PolyInt, steps: int) -> PolyInt:
    """x summed with itself through `steps` m-ary additions (0 returns x)."""
    if steps < 0:
        raise ValueError("power index must be >= 0")
    count = steps * (x.ring.m - 1) + 1
    return x.ring.from_value(x.value * count)


def multiplicative_power(x: PolyInt, steps: int) -> PolyInt:
    """x multiplied with itself through `steps` n-ary multiplications."""
    if steps < 0:
        raise ValueError("power index must be >= 0")
    count = steps * (x.ring.n - 1) + 1
    return x.ring.from_value(x.value**count)


def additive_querelement(x: PolyInt) -> PolyInt:
    """The element q with nu[x^(m-1), q] = x, namely (2 - m)*x."""
    return x.ring.from_value((2 - x.ring.m) * x.value)
