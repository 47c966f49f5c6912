"""Every record is an immutable value: fields cannot be set, and equal fields mean equal records.

The records are `typing.NamedTuple`s.  Their hash is that of the tuple of
their fields, which is what the frozen dataclasses they replaced hashed,
so sets of records iterate in the same order as before.
"""

import pytest

from polyadic.arithmetic import composition_set, prime_scan
from polyadic.finite import FiniteRing, finite_ring, structure_report
from polyadic.groups import decompose
from polyadic.ring import RingDescriptor, make_descriptor
from polyadic.tables import generate_t0, generate_t1, generate_t2


RECORD_TYPES = ("CompositionSet", "FiniteRing", "GroupDecomposition", "PolyInt", "PrimeScan",
                "RingDescriptor", "StructureReport", "T0Cell", "T1Cell", "T1Orders", "T2Cell")


@pytest.fixture(scope="module")
def records(grid_reports) -> dict:
    d = make_descriptor(3, 4)
    fr = finite_ring(2, 3, 5)  # a field with unit and zero
    report = structure_report(fr)
    t1_cells, t1_orders = generate_t1(grid_reports)
    built = {
        "RingDescriptor": d,
        "PolyInt": d.element(2),
        "FiniteRing": fr,
        "StructureReport": report,
        "GroupDecomposition": decompose(report),
        "T0Cell": generate_t0(grid_reports)[0],
        "T1Cell": t1_cells[0],
        "T1Orders": t1_orders[0],
        "T2Cell": generate_t2(grid_reports)[0],
        "CompositionSet": composition_set(d.from_value(-21)),
        "PrimeScan": prime_scan(d, 10),
    }
    assert sorted(built) == list(RECORD_TYPES)
    return built


@pytest.fixture(params=RECORD_TYPES)
def record(request, records):
    rec = records[request.param]
    assert type(rec).__name__ == request.param
    return rec


def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_no_new_attribute_can_be_added(record):
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_fields_give_equal_records_with_equal_hashes(record):
    twin = type(record)(*record)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert record._replace() == record


def test_hash_is_that_of_the_field_tuple(record):
    assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


def test_rebuilt_reports_are_equal():
    fr = finite_ring(5, 6, 6)
    first, second = structure_report(fr), structure_report(fr)
    assert first == second and hash(first) == hash(second)
    assert decompose(first) == decompose(second)


def test_finite_ring_rejects_a_non_positive_order():
    d = make_descriptor(3, 4)
    for q in (0, -1):
        with pytest.raises(ValueError):
            FiniteRing(d, q)
    with pytest.raises(ValueError):
        FiniteRing(d, 5)._replace(q=0)


def test_descriptor_checks_every_construction():
    d = make_descriptor(3, 4)
    with pytest.raises(ValueError):
        RingDescriptor(3, 4, 2, 2, 0, 0)
    with pytest.raises(ValueError):
        d._replace(j_shape=d.j_shape + 1)
    with pytest.raises(ValueError):
        RingDescriptor._make((3, 4, 5, 3, 3, 7))
