"""Exception types raised by the polyadic arithmetic modules."""


class PolyadicError(Exception):
    """Base class for all errors raised by this package."""


class ForbiddenPairError(PolyadicError):
    """The residue pair (a, b) admits no closed n-ary multiplication."""

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        super().__init__(f"residue class [[{a}]]_{b} admits no closed n-ary multiplication")


class ArityMismatchError(PolyadicError):
    """An operation received a tuple whose length differs from its arity."""

    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"expected {expected} operands, got {got}")


class InadmissibleLengthError(PolyadicError):
    """A word length is not congruent to 1 modulo (arity - 1)."""

    def __init__(self, length: int, arity: int):
        self.length = length
        self.arity = arity
        super().__init__(f"length {length} is not admissible for arity {arity}")


class NoOperandsError(PolyadicError):
    """An operation received no operands, so it has no ring to read its arity from."""

    def __init__(self):
        super().__init__("expected operands, got none")


class ClassMembershipError(PolyadicError):
    """An integer does not belong to the congruence class it was claimed for."""

    def __init__(self, value: int, a: int, b: int):
        self.value = value
        self.a = a
        self.b = b
        super().__init__(f"{value} is not congruent to {a} modulo {b}")


class NotUnitalError(PolyadicError):
    """Strict primality was requested in a ring that has no unit."""


class NotLimitingError(PolyadicError):
    """A primes-gap or prime-scan operation needs a limiting ring."""


class NonUniqueQuotientError(PolyadicError):
    """More than one candidate satisfies the division equation."""

    def __init__(self, candidates):
        self.candidates = list(candidates)
        super().__init__(f"division result is not unique: {self.candidates}")


class NoFiniteOrderError(PolyadicError):
    """Iterated multiplicative powers never return to the element."""

    def __init__(self, index: int, cycle_length: int):
        self.index = index
        self.cycle_length = cycle_length
        super().__init__(
            f"element {index} never returns to itself (cycle of length {cycle_length})"
        )


class NotAFieldError(PolyadicError):
    """A group-analysis operation needs a finite ring that is a field."""


class NoUnitsError(PolyadicError):
    """A reflection search needs at least one unit."""


class UnknownFieldIdError(PolyadicError):
    """The requested (a, b, q) triple is not one of the catalogued fields."""
