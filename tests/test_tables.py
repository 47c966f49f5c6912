import os
import sys

import pytest

import polyadic.finite
from polyadic import reference
from polyadic.errors import UnknownFieldIdError
from polyadic.tables import (
    APPENDIX_FIELDS,
    deviations_report,
    generate_appendix,
    generate_t0,
    generate_t1,
    generate_t2,
    grid_pairs,
    table_deviations,
    write_tables,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "tables")


@pytest.fixture(scope="module")
def t2_cells():
    return {(c.a, c.b, c.q): c for c in generate_t2()}


@pytest.fixture(scope="module")
def t0_cells():
    return {(c.a, c.b, c.q): c for c in generate_t0()}


@pytest.fixture(scope="module")
def t1_data():
    cells, orders = generate_t1()
    return {(c.a, c.b, c.q): c for c in cells}, {(o.a, o.b): o for o in orders}


class TestT2:
    def test_spot_cells(self, t2_cells):
        row = [t2_cells[(7, 8, q)] for q in range(2, 11)]
        assert [c.lambda_p for c in row] == [1, 1, 2, 2, None, 3, 4, None, None]
        assert all(c.kappa_e == 2 for c in row if c.is_field)
        assert t2_cells[(3, 10, 8)].lambda_p == 1
        assert t2_cells[(3, 10, 8)].kappa_e == 8
        assert not t2_cells[(1, 2, 10)].is_field

    def test_framing_and_underline(self, t2_cells):
        cell = t2_cells[(5, 8, 2)]
        assert cell.zeroless_nonunital and cell.lambda_p == 2
        cell = t2_cells[(2, 3, 3)]
        assert cell.underline and not cell.zeroless_nonunital
        assert not t2_cells[(1, 2, 2)].underline  # binary multiplication

    def test_grid_matches_reference_outside_adjudicated_cells(self, t2_cells):
        deviating = {loc for table, loc in reference.KNOWN_DEVIATIONS if table == "T2"}
        for (a, b), (arities, cells) in reference.REFERENCE_T2.items():
            for q, printed in cells.items():
                cell = t2_cells[(a, b, q)]
                assert (cell.m, cell.n) == arities
                if (a, b, q) not in deviating:
                    assert cell.flags == printed, (a, b, q)


class TestT0:
    def test_spot_cells(self, t0_cells):
        assert t0_cells[(1, 2, 5)].chi_p == 2 and t0_cells[(1, 2, 5)].is_field
        assert t0_cells[(1, 3, 8)].chi_p == 5 and not t0_cells[(1, 3, 8)].is_field
        assert t0_cells[(5, 6, 7)].chi_p == 1 and t0_cells[(5, 6, 7)].is_field

    def test_listed_reference_values(self, t0_cells):
        deviating = {loc for table, loc in reference.KNOWN_DEVIATIONS if table == "T0"}
        for (a, b), entries in reference.REFERENCE_T0.items():
            for q, chi, is_field_flag in entries:
                if (a, b, q) in deviating:
                    continue
                cell = t0_cells[(a, b, q)]
                assert (cell.chi_p, cell.is_field) == (chi, is_field_flag), (a, b, q)

    def test_every_cell_has_unit_and_zero(self, t0_cells):
        from polyadic.finite import finite_ring, structure_report

        for (a, b, q) in t0_cells:
            report = structure_report(finite_ring(a, b, q))
            assert report.zero is not None and report.units


class TestT1:
    def test_spot_cells(self, t1_data):
        cells, orders = t1_data
        c = cells[(1, 4, 3)]
        assert c.elements == ((1, "e"), (5, ""), (9, "z"))
        assert c.is_field and c.unit_and_zero
        c = cells[(2, 5, 2)]
        assert c.elements == ((2, "z"), (7, "e"))
        assert c.is_field and c.unit_and_zero
        c = cells[(3, 6, 3)]
        assert c.elements == ((3, ""), (9, "z"), (15, ""))
        assert not c.is_field

    def test_order_lines(self, t1_data):
        _, orders = t1_data
        assert orders[(1, 2)].orders == ((5, True), (7, True), (8, False))
        assert orders[(5, 6)].orders == (
            (5, True), (6, False), (7, True), (8, False), (9, False))

    def test_reference_match_outside_adjudicated_cells(self, t1_data):
        cells, orders = t1_data
        deviating = {loc for table, loc in reference.KNOWN_DEVIATIONS if table == "T1"}
        for (a, b), entry in reference.REFERENCE_T1.items():
            for q, (frame, els) in entry["cells"].items():
                if (a, b, q) in deviating:
                    continue
                c = cells[(a, b, q)]
                comp_frame = 0 if not c.is_field else (2 if c.unit_and_zero else 1)
                assert (comp_frame, c.elements) == (frame, els), (a, b, q)
            if (a, b, "orders") not in deviating:
                assert orders[(a, b)].orders == entry["orders"], (a, b)


class TestAppendix:
    @pytest.mark.parametrize("field_id", APPENDIX_FIELDS)
    def test_every_printed_equation_reproduces(self, field_id):
        listing = generate_appendix(*field_id)
        table = {frozenset_count(ops): res for ops, res in listing["products"]}
        printed = reference.REFERENCE_APPENDIX[field_id]
        assert printed
        for ops, res in printed:
            assert table[frozenset_count(ops)] == res, (field_id, ops)

    def test_annotations(self):
        listing = generate_appendix(2, 3, 5)
        assert listing["chi_p"] == 3
        assert listing["zero"] == 5 and listing["units"] == [11, 14]
        assert listing["querelements"][2] == 8 and listing["querelements"][8] == 2
        listing = generate_appendix(5, 6, 6)
        assert listing["querelements"][5] == 29
        assert listing["querelements"][11] == 23
        listing = generate_appendix(3, 8, 2)
        assert listing["querelements"] == {3: 11, 11: 3}

    def test_unknown_field(self):
        with pytest.raises(UnknownFieldIdError):
            generate_appendix(1, 2, 3)


def frozenset_count(ops):
    return tuple(sorted(ops))


class TestDeviationScanner:
    def test_every_difference_is_adjudicated(self):
        devs = table_deviations()
        assert {(table, loc) for table, loc, *_ in devs} == set(reference.KNOWN_DEVIATIONS)
        for *_, note in devs:
            assert not note.startswith("UNEXPECTED")

    def test_report_covers_the_worked_examples(self):
        text = deviations_report()
        assert "-45, 87" in text or "{-45, 87}" in text
        assert "238" in text
        assert "32768" in text


def assert_golden(paths):
    assert len(paths) == 15
    for path in paths:
        name = os.path.basename(path)
        with open(path, "rb") as f:
            fresh = f.read()
        with open(os.path.join(GOLDEN, name), "rb") as f:
            golden = f.read()
        assert fresh == golden, name


class TestGoldenFiles:
    def test_regeneration_is_byte_identical(self, tmp_path):
        assert_golden(write_tables(str(tmp_path)))

    def test_each_grid_ring_is_classified_once(self, tmp_path, monkeypatch):
        calls = []
        classify = polyadic.finite.structure_report

        def counting_classify(fr):
            calls.append((fr.ring.a, fr.ring.b, fr.q))
            return classify(fr)

        # Every module that binds it, so a by-name import is counted too.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("polyadic")
                    and getattr(module, "structure_report", None) is classify):
                monkeypatch.setattr(module, "structure_report", counting_classify)
        assert_golden(write_tables(str(tmp_path)))
        grid = [(a, b, q) for a, b in grid_pairs(10) for q in range(2, 11)]
        assert len(grid) == 351
        # The T2 grid once, in (b, a, q) order, then each appendix field once more.
        assert calls == grid + list(APPENDIX_FIELDS)

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYADIC_THREADS", "4")
        first = write_tables(str(tmp_path / "one"))
        monkeypatch.setenv("POLYADIC_THREADS", "1")
        second = write_tables(str(tmp_path / "two"))
        for p1, p2 in zip(first, second):
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read(), p1
