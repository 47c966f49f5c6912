"""Exact arithmetic for polyadic integer rings and finite polyadic fields.

The names in `__all__` are re-exported from the submodules named in
`_EXPORTS`.  Each one is resolved on first access (a PEP 562 module
`__getattr__`), so `import polyadic` loads no submodule and a process
compiles only the modules it uses.  Any other name raises
`AttributeError`, which also lets `from polyadic import reference` fall
back to loading that submodule.
"""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "ArityMismatchError",
        "ClassMembershipError",
        "ForbiddenPairError",
        "InadmissibleLengthError",
        "NoFiniteOrderError",
        "NonUniqueQuotientError",
        "NotAFieldError",
        "NotLimitingError",
        "NotUnitalError",
        "PolyadicError",
        "UnknownFieldIdError",
    ),
    "ring": (
        "PolyInt",
        "RingDescriptor",
        "additive_power",
        "additive_querelement",
        "allowed_residues",
        "derive_arities",
        "forbidden_residues",
        "make_descriptor",
        "mu",
        "mu_long",
        "multiplicative_power",
        "nu",
        "nu_long",
        "psi_closed_forms",
    ),
    "arithmetic": (
        "CompositionSet",
        "PrimeScan",
        "are_coprime",
        "composition_set",
        "decompositions",
        "divide_with_remainder",
        "euler_scan",
        "irreducibility_gap",
        "is_irreducible",
        "is_polyadic_prime",
        "polyadic_divide",
        "prime_scan",
        "primes_gap",
    ),
    "finite": (
        "FiniteRing",
        "StructureReport",
        "characteristic",
        "element_order",
        "find_units",
        "find_zero",
        "finite_ring",
        "is_field",
        "k_add",
        "k_mul",
        "mult_querelements",
        "report_to_dict",
        "structure_report",
    ),
    "groups": (
        "GroupDecomposition",
        "cyclic_subgroup",
        "decompose",
        "decomposition_to_dict",
        "primitive_elements",
        "reflections",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
