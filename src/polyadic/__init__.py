"""Exact arithmetic for polyadic integer rings and finite polyadic fields."""

from .errors import (
    ArityMismatchError,
    ClassMembershipError,
    ForbiddenPairError,
    InadmissibleLengthError,
    NoFiniteOrderError,
    NonUniqueQuotientError,
    NotAFieldError,
    NotLimitingError,
    NotUnitalError,
    PolyadicError,
    UnknownFieldIdError,
)
from .ring import (
    PolyInt,
    RingDescriptor,
    additive_power,
    additive_querelement,
    allowed_residues,
    derive_arities,
    forbidden_residues,
    make_descriptor,
    mu,
    mu_long,
    multiplicative_power,
    nu,
    nu_long,
    psi_closed_forms,
)
from .arithmetic import (
    CompositionSet,
    PrimeScan,
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
from .finite import (
    FiniteRing,
    StructureReport,
    characteristic,
    element_order,
    find_units,
    find_zero,
    finite_ring,
    is_field,
    k_add,
    k_mul,
    mult_querelements,
    report_to_dict,
    structure_report,
)
from .groups import (
    GroupDecomposition,
    cyclic_subgroup,
    decompose,
    decomposition_to_dict,
    primitive_elements,
    reflections,
)

__version__ = "0.1.0"
