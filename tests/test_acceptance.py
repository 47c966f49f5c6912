"""Acceptance suite: one test per release criterion, all exact.

Each criterion prints a PASS/FAIL line in the terminal summary.  Where a
published value is inconsistent with exact recomputation, the criterion
requires the recomputed value (re-verified here by direct modular
arithmetic, independent of the library paths) and requires the
discrepancy to be visible in the generated deviations report.
"""

import subprocess
import sys
from contextlib import contextmanager

from conftest import ACCEPTANCE_RESULTS, RUN_ENV
from polyadic import reference
from polyadic.arithmetic import divide_with_remainder, euler_scan, polyadic_divide, prime_scan
from polyadic.finite import (
    additive_quer_index,
    finite_ring,
    is_field,
    k_mul,
    mult_querelements,
    structure_report,
)
from polyadic.groups import decompose
from polyadic.oracle import proper_subfields
from polyadic.ring import allowed_residues, make_descriptor, mu_long, nu_long
from polyadic.tables import (
    deviations_report,
    generate_appendix,
    generate_t0,
    generate_t1,
    generate_t2,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((num, name, "FAIL"))
        raise
    ACCEPTANCE_RESULTS.append((num, name, "PASS"))


def sorted_values(xs):
    return sorted(x.value for x in xs)


# ------------------------------------------------------------------ 1

def verify_t2_cell_directly(a, b, q):
    """Cell facts from plain modular arithmetic, no library calls."""
    m, n = reference.REFERENCE_T2[(a, b)][0]
    mod = b * q
    els = [a + b * k for k in range(q)]
    units = [e for e in els
             if all(pow(e, n - 1, mod) * x % mod == x for x in els)]
    zero = [z for z in els
            if all(z * p % mod == z
                   for p in {pow(x, n - 1, mod) for x in els}
                   for p in [p]) and (m * z) % mod == z]
    # is the non-zero part a group under every translation
    core = [x for x in els if x not in zero]
    field = True
    products = {1}
    for _ in range(n - 1):
        products = {p * x % mod for p in products for x in core}
    for p in products:
        image = sorted(p * x % mod for x in core)
        if image != sorted(core):
            field = False
            break
    lams = {}
    for x in core:
        for lam in range(1, 2 * q + 2):
            if pow(x, lam * (n - 1) + 1, mod) == x:
                lams[x] = lam
                break
    return {
        "field": field and bool(core),
        "kappa": len(units),
        "lambda": max(lams.values()) if len(lams) == len(core) else None,
        "zero": bool(zero),
    }


def test_criterion_1_t2_reproduction(grid_reports):
    with criterion(1, "idempotence-order table reproduction"):
        computed = {(c.a, c.b, c.q): c for c in generate_t2(grid_reports)}
        adjudicated = {loc for t, loc in reference.KNOWN_DEVIATIONS if t == "T2"}
        checked = 0
        for (a, b), (arities, cells) in reference.REFERENCE_T2.items():
            for q, printed in cells.items():
                cell = computed[(a, b, q)]
                assert (cell.m, cell.n) == arities
                if (a, b, q) not in adjudicated:
                    assert cell.flags == printed, (a, b, q)
                    checked += 1
                    continue
                direct = verify_t2_cell_directly(a, b, q)
                assert cell.is_field == direct["field"]
                if cell.is_field:
                    assert cell.kappa_e == direct["kappa"]
                    assert cell.lambda_p == direct["lambda"]
                    assert (not direct["zero"]) == (
                        cell.zeroless_nonunital or direct["kappa"] > 0)
        assert checked >= 340
        report = deviations_report(grid_reports)
        for loc in adjudicated:
            assert f"T2 {loc}" in report
        # every empty cell is a non-field and vice versa, full grid
        for cell in computed.values():
            assert cell.is_field == (cell.flags is not None)


# ------------------------------------------------------------------ 2

def test_criterion_2_t0_reproduction(grid_reports):
    with criterion(2, "characteristic table reproduction"):
        computed = {(c.a, c.b, c.q): c for c in generate_t0(grid_reports)}
        adjudicated = {loc for t, loc in reference.KNOWN_DEVIATIONS if t == "T0"}
        checked = 0
        for (a, b), entries in reference.REFERENCE_T0.items():
            for q, chi, slant_field in entries:
                if (a, b, q) in adjudicated:
                    mod = b * q
                    els = [a + b * k for k in range(q)]
                    n = reference.REFERENCE_T2[(a, b)][0][1]
                    units = [e for e in els if all(
                        pow(e, n - 1, mod) * x % mod == x for x in els)]
                    assert not units  # no unit, so no characteristic
                    assert (a, b, q) not in computed
                    continue
                cell = computed[(a, b, q)]
                assert (cell.chi_p, cell.is_field) == (chi, slant_field), (a, b, q)
                checked += 1
        assert checked >= 60
        report = deviations_report(grid_reports)
        assert "T0 (3, 5, 9)" in report  # the omitted ring is surfaced


# ------------------------------------------------------------------ 3

def test_criterion_3_t1_reproduction(grid_reports):
    with criterion(3, "ring-content table reproduction"):
        cells, orders = generate_t1(grid_reports)
        cell_map = {(c.a, c.b, c.q): c for c in cells}
        order_map = {(o.a, o.b): o for o in orders}
        adjudicated = {loc for t, loc in reference.KNOWN_DEVIATIONS if t == "T1"}
        for (a, b), entry in reference.REFERENCE_T1.items():
            for q, (frame, els) in entry["cells"].items():
                c = cell_map[(a, b, q)]
                got_frame = 0 if not c.is_field else (2 if c.unit_and_zero else 1)
                if (a, b, q) in adjudicated:
                    # 7 really is a unit: 7^4 = 1 modulo 15
                    assert pow(7, 4, 15) == 1
                    assert c.elements == ((2, "e"), (7, "e"), (12, "z"))
                    continue
                assert (got_frame, c.elements) == (frame, els), (a, b, q)
            if (a, b, "orders") in adjudicated:
                # order 6 over 3 mod 4 is not a field: translation by 3*3
                # collides 3 and 11 modulo 24
                assert (9 * 3) % 24 == (9 * 11) % 24
                assert order_map[(a, b)].orders == (
                    (5, True), (7, True), (8, False))
                continue
            assert order_map[(a, b)].orders == entry["orders"], (a, b)


# ------------------------------------------------------------------ 4

def test_criterion_4_appendix_fidelity():
    with criterion(4, "exotic-field listings"):
        total = 0
        for field_id, printed in reference.REFERENCE_APPENDIX.items():
            listing = generate_appendix(*field_id)
            table = {tuple(sorted(ops)): res for ops, res in listing["products"]}
            for ops, res in printed:
                assert table[tuple(sorted(ops))] == res, (field_id, ops)
                total += 1
        assert total == 108  # printed equations, duplicates included

        assert generate_appendix(2, 3, 5)["chi_p"] == 3
        assert generate_appendix(5, 6, 6)["querelements"] == {
            5: 29, 29: 5, 11: 23, 23: 11, 17: 17, 35: 35}
        assert generate_appendix(3, 8, 2)["querelements"] == {3: 11, 11: 3}
        assert generate_appendix(7, 8, 2)["querelements"] == {7: 7, 15: 15}
        quers = generate_appendix(2, 3, 5)["querelements"]
        assert quers[2] == 8 and quers[8] == 2

        # additive querelements of the two-unit order-5 field
        fr = finite_ring(2, 3, 5)
        add_quer = {fr.rep(k): fr.rep(additive_quer_index(fr, k))
                    for k in fr.elements()}
        assert add_quer[2] == 11 and add_quer[8] == 14
        assert add_quer[11] == 8 and add_quer[14] == 2

        # subgroup decompositions of the three catalogued fields
        fr = finite_ring(5, 6, 6)
        dec = decompose(structure_report(fr))
        gs = [sorted(fr.rep(t) for t in g) for g in dec.subgroups]
        assert gs == [[5, 17, 29], [11, 23, 35]] and dec.pairwise_disjoint

        fr = finite_ring(5, 8, 7)
        dec = decompose(structure_report(fr))
        gs = [sorted(fr.rep(t) for t in g) for g in dec.subgroups]
        assert gs == [[5, 13, 45], [29, 37, 53]]
        assert sorted(fr.rep(t) for t in dec.unit_subgroup) == [13, 29]
        assert not dec.unit_subgroup_split

        fr = finite_ring(7, 8, 8)
        dec = decompose(structure_report(fr))
        gs = [sorted(fr.rep(t) for t in g) for g in dec.subgroups]
        assert gs == [[7, 23, 39, 55], [15, 47]]
        assert sorted(fr.rep(t) for t in dec.unit_subgroup) == [31, 63]
        assert dec.unit_subgroup_split


# ------------------------------------------------------------------ 5

def test_criterion_5_prime_scans(grid_reports):
    with criterion(5, "prime scans"):
        scan = prime_scan(make_descriptor(43, 44), 2)
        assert sorted_values(scan.primes) == [-45, -1, 43, 87, 131]
        assert scan.pi == 5
        assert sorted_values(scan.delta) == [-45, 87]

        scan = prime_scan(make_descriptor(50, 51), 5)
        assert scan.pi == 11
        assert sorted_values(scan.primes) == [
            -205, -154, -103, -52, -1, 50, 101, 152, 203, 254, 305]
        assert sorted_values(scan.delta) == [
            -205, -154, -52, 50, 152, 203, 254, 305]

        report = deviations_report(grid_reports)
        assert "{-45, 87}" in report or "-45, 87" in report


# ------------------------------------------------------------------ 6

def test_criterion_6_euler_values():
    with criterion(6, "totient scans"):
        expected = {
            (1, 29, 10): 13,
            (31, 32, 5): 6,
            (7, 10, 10): 13,
            (27, 49, 7): 6,
            (17, 38, 20): 21,
            (16, 28, 30): 0,
            (46, 50, 15): 0,
        }
        for (a, b, k), phi in expected.items():
            assert euler_scan(make_descriptor(a, b), k)[1] == phi, (a, b, k)


# ------------------------------------------------------------------ 7

def test_criterion_7_division(grid_reports):
    with criterion(7, "division and remainders"):
        ring = make_descriptor(4, 9)
        assert polyadic_divide(ring.from_value(256), ring.from_value(4)).value == 4
        ring = make_descriptor(3, 4)
        assert polyadic_divide(ring.from_value(175), ring.from_value(7)).value == -5

        ring = make_descriptor(8, 10)
        pairs = divide_with_remainder(ring.from_value(38), ring.from_value(-22))
        assert (-2, 78) in [(q.value, r.value) for q, r in pairs]

        # the published second pair is inconsistent and must be flagged
        pairs = divide_with_remainder(ring.from_value(38), ring.from_value(-92))
        got = [(q.value, r.value) for q, r in pairs]
        assert all(q != -2 for q, _ in got)
        assert (-22, 4310318) in got
        assert -92 * (-22) ** 4 + 5 * 4310318 == 38
        report = deviations_report(grid_reports)
        assert "238" in report and "302" in report


# ------------------------------------------------------------------ 8

def test_criterion_8_worked_ring_example():
    with criterion(8, "worked ring example"):
        d = make_descriptor(3, 4)
        xs = [d.from_value(v) for v in (7, 11, 15, 19, 23, -5, -9, -13, -1)]
        assert nu_long(xs).value == 47
        ys = [d.from_value(v) for v in (7, 3, 11, 19, 15, 31, 27)]
        assert mu_long(ys).value == 55103895


# ------------------------------------------------------------------ 9

def test_criterion_9_property_suites(
        full_grid, oracle_grid_mismatches, kmult_grid_mismatches):
    with criterion(9, "property suites"):
        # addition arity always exceeds multiplication arity
        for b in range(2, 31):
            for a in allowed_residues(b):
                d = make_descriptor(a, b)
                assert d.m > d.n

        # exact-product multiplication == symmetric-polynomial oracle
        assert kmult_grid_mismatches == []

        # binary limit reduces to plain modular arithmetic
        fr = finite_ring(0, 1, 9)
        for x in range(9):
            for y in range(9):
                assert k_mul(fr, [x, y]) == (x * y) % 9

        # neutral sequences in n-admissible single-unit fields
        neutral_checked = 0
        for fr in full_grid:
            rep = structure_report(fr)
            d = fr.ring
            if not (rep.is_field and d.n >= 3 and rep.kappa_e == 1):
                continue
            if rep.q_star < d.n or (rep.q_star - 1) % (d.n - 1) != 0:
                continue
            neutral_checked += 1
            power = rep.q_star * (d.n - 1)
            for y in fr.elements():
                if y == rep.zero:
                    continue
                py = pow(fr.rep(y), power, fr.modulus)
                assert py * fr.rep(y) % fr.modulus == fr.rep(y)
                for x in fr.elements():
                    assert py * fr.rep(x) % fr.modulus == fr.rep(x)
        assert neutral_checked >= 10

        # unique querelements characterize fields, and the exhaustive
        # oracle agrees with the main-path verdict
        assert oracle_grid_mismatches == []
        for fr in full_grid:
            rep = structure_report(fr)
            unique = all(
                len(mult_querelements(fr, k)) == 1
                for k in fr.elements() if k != rep.zero)
            closed = rep.zero is None or all(
                k_mul(fr, [k] * fr.ring.n) != rep.zero
                for k in fr.elements() if k != rep.zero)
            assert rep.is_field == (unique and closed), fr

        # a field with a zero has prime order
        for fr in full_grid:
            rep = structure_report(fr)
            if rep.is_field and rep.zero is not None:
                assert all(fr.q % d for d in range(2, fr.q))

        # no proper subfields at small orders
        for fr in full_grid:
            if fr.q <= 7 and is_field(fr):
                assert proper_subfields(fr) == []

        # subgroup decomposition flags: consistent with the unit-count
        # claim, or reported (the four catalogued zeroless exceptions)
        reported = set()
        for fr in full_grid:
            if not is_field(fr):
                continue
            rep = structure_report(fr)
            dec = decompose(rep)
            if rep.kappa_e < 2 or not dec.pairwise_disjoint:
                continue
            union = set()
            for g in dec.subgroups:
                union |= set(g)
            nonzero = {k for k in fr.elements() if k != rep.zero}
            if rep.zero is not None:
                if union == nonzero:
                    assert len(dec.subgroups) == rep.kappa_e, fr
            elif set(dec.unit_subgroup) != nonzero:
                if dec.unit_subgroup_split and union | set(dec.unit_subgroup) == nonzero:
                    if len(dec.subgroups) != rep.kappa_e:
                        reported.add((fr.ring.a, fr.ring.b, fr.q))
        assert reported == {(3, 4, 4), (7, 8, 4), (5, 6, 8), (9, 10, 8)}


# ------------------------------------------------------------------ 10

def test_criterion_10_determinism(tmp_path):
    with criterion(10, "determinism across hash seeds"):
        outputs = []
        scans = []
        for seed in (0, 1):
            env = {**RUN_ENV, "PYTHONHASHSEED": str(seed)}
            outdir = tmp_path / f"run{seed}"
            subprocess.run(
                [sys.executable, "-m", "polyadic.cli", "table",
                 "--out", str(outdir)],
                capture_output=True, env=env, check=True)
            outputs.append({
                p.name: p.read_bytes() for p in (outdir / "tables").iterdir()})
            scans.append(subprocess.run(
                [sys.executable, "-m", "polyadic.cli", "scan",
                 "--bmax", "6", "--qmax", "8"],
                capture_output=True, env=env, check=True).stdout)
        assert outputs[0] == outputs[1]
        assert scans[0] == scans[1]
        assert len(outputs[0]) == 15
