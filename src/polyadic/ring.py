"""Congruence-class rings with m-ary addition and n-ary multiplication.

A residue class [[a]]_b = {a + b*k} closes under adding exactly m
representatives and multiplying exactly n representatives, where m and n
are the minimal arities satisfying m*a = a (mod b) and a^n = a (mod b).
This module derives those arities in closed form (one gcd test decides
whether the pair is allowed, and n - 1 is the multiplicative order that
`factor.multiplicative_order` reads off a factorisation), builds ring
descriptors with their shape invariants, and evaluates the polyadic
operations on exact (arbitrary-precision) representatives.

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

from math import gcd, prod
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    ArityMismatchError,
    ClassMembershipError,
    ForbiddenPairError,
    InadmissibleLengthError,
    NoOperandsError,
)
from .factor import multiplicative_order


def derive_arities(a: int, b: int) -> tuple[int, int]:
    """Return the minimal (m, n), both >= 2, closing [[a]]_b under the ring ops.

    With d = gcd(a, b) and b0 = b/d, the pair is allowed exactly when
    gcd(a, b0) = 1, and then m = b0 + 1 and n - 1 is the multiplicative
    order of a modulo b0; otherwise ForbiddenPairError is raised.

    Proof sketch.  (m-1)*a = 0 (mod b) exactly when b0 divides m - 1, so
    the least m >= 2 is b0 + 1.  If gcd(a, b0) = 1, then d and b0 are
    coprime (d divides a), so a^n = a (mod b) splits into mod d, where
    both sides are 0, and a^(n-1) = 1 (mod b0), whose least n - 1 >= 1 is
    the order.  If a prime p divides both a and b0, then v_p(d) < v_p(b)
    forces v_p(a) = v_p(d) < v_p(b); as a^(n-1) - 1 = -1 (mod p),
    v_p(a^n - a) = v_p(a) < v_p(b) for every n >= 2, so no n exists.
    a = 0 gives b0 = 1, hence (2, 2).
    """
    _check_residue(a, b)
    b0 = b // gcd(a, b)
    if gcd(a, b0) != 1:
        raise ForbiddenPairError(a, b)
    return b0 + 1, multiplicative_order(a, b0) + 1


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


def is_allowed(a: int, b: int) -> bool:
    """Whether the residue a heads a polyadic ring modulo b (`derive_arities`)."""
    return gcd(a, b // gcd(a, b)) == 1


def allowed_residues(b: int) -> list[int]:
    """Residues 1..b-1 that head a polyadic ring (forbidden ones skipped)."""
    return [a for a in range(1, b) if is_allowed(a, b)]


def grid_pairs(b_max: int) -> Iterator[tuple[int, int]]:
    """Allowed (a, b) pairs in (b, a) order, the row order of every table.

    The pairs are yielded as they are needed, so a scan of any bound
    starts at once and holds one modulus's residues at a time.
    """
    return ((a, b) for b in range(2, b_max + 1) for a in allowed_residues(b))


def forbidden_residues(b: int) -> list[int]:
    """Residues 1..b-1 that head no polyadic ring."""
    return [a for a in range(1, b) if not is_allowed(a, b)]


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


def _check_arity(xs: Sequence[PolyInt], arity: str, word: bool = False) -> RingDescriptor:
    """The operands' one ring, once their count fits its arity `arity`, "m" or "n".

    The count must equal the arity, or with `word` be admissible,
    l*(arity-1)+1 for some l >= 0.  No operands at all raise
    NoOperandsError, as there is no ring to read the arity from.  The
    length is checked before the rings.
    """
    if not xs:
        raise NoOperandsError()
    ring = xs[0].ring
    count = getattr(ring, arity)
    if word:
        if len(xs) % (count - 1) != 1 % (count - 1):
            raise InadmissibleLengthError(len(xs), count)
    elif len(xs) != count:
        raise ArityMismatchError(count, len(xs))
    if any(x.ring != ring for x in xs):
        raise ValueError("operands belong to different rings")
    return ring


def nu(xs: Sequence[PolyInt]) -> PolyInt:
    """m-ary addition: the plain integer sum of exactly m representatives."""
    ring = _check_arity(xs, "m")
    return ring.from_value(sum(x.value for x in xs))


def mu(xs: Sequence[PolyInt]) -> PolyInt:
    """n-ary multiplication: the plain integer product of exactly n representatives."""
    ring = _check_arity(xs, "n")
    return ring.from_value(prod(x.value for x in xs))


def nu_long(xs: Sequence[PolyInt]) -> PolyInt:
    """Iterated m-ary addition of an m-admissible word (length L = l*(m-1)+1).

    Every bracketing of the word into m-ary additions has the same value,
    the plain integer sum of its L representatives: each `nu` is the plain
    sum of its operands, and a sum of sums is the sum of all their terms.
    That sum is in the class, since L*a = a + l*(m-1)*a = a (mod b).  So
    the word is one sum, linear in L.
    """
    ring = _check_arity(xs, "m", word=True)
    return ring.from_value(sum(x.value for x in xs))


def mu_long(xs: Sequence[PolyInt]) -> PolyInt:
    """Iterated n-ary multiplication of an n-admissible word (length L = l*(n-1)+1).

    As for `nu_long`, every bracketing has the plain integer product of
    the L representatives as value, and it is in the class: a^n = a
    (mod b) gives a^(l*(n-1)+1) = a by induction on l.  So the word is
    one product.
    """
    ring = _check_arity(xs, "n", word=True)
    return ring.from_value(prod(x.value for x in xs))


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
