"""Published reference tables, transcribed as printed.

These values mirror the typography of the source tables: T2 cells are
(lambda_p, kappa_e, framed, underlined, bold) with None for empty cells,
kappa_e 0 on framed (zeroless-nonunital) cells and 1 where no unit count
is printed; T1 cells carry tagged element lists and a frame level (0 none,
1 single, 2 double); T0 entries are (q, chi_p, is_field).  The deviation
scanner compares freshly computed tables against these and reports every
difference; see KNOWN_DEVIATIONS for the adjudicated ones.

T2 is transcribed one row per (a, b) in the marker notation of T2.md:
`*` bold, `{Ke}` K units, a trailing `_` underlined, `[zl-nu]` framed and
`-` an empty cell.  `_parse_t2` turns each row into the tuples above.
Written as 351 tuple literals, T2 alone cost about as much to compile as
the rest of this module, which `table --out` compiles on every run.
"""


def _parse_t2(rows: str) -> dict:
    """Rows of "a b m n | cell(q=2) ... cell(q=10)" in the notation of T2.md."""
    table = {}
    for row in rows.strip().splitlines():
        head, cells = row.split("|")
        a, b, m, n = map(int, head.split())
        table[a, b] = ((m, n), {q: _parse_t2_cell(text)
                                for q, text in enumerate(cells.split(), start=2)})
    return table


def _parse_t2_cell(text: str):
    if text == "-":
        return None
    framed = text.startswith("[zl-nu]")
    text = text.removeprefix("[zl-nu]")
    bold = text.startswith("*")
    underlined = text.endswith("_")
    order, _, count = text.strip("*_").partition("{")
    kappa_e = int(count.removesuffix("e}")) if count else (0 if framed else 1)
    return (int(order), kappa_e, framed, underlined, bold)


# (a, b) -> ((m, n), {q: cell})
REFERENCE_T2 = _parse_t2("""
1  2  3 2 | 2        *2       2        *4     -     *6     4        -        -
1  3  4 2 | *1       3        -        *4     -     *6     -        9        -
1  4  5 2 | 2        *2       4        *4     -     *6     8        -        -
1  5  6 2 | *1       *2       -        5      -     *6     -        -        -
1  6  7 2 | 2        3        2        *4     6     *6     4        9        -
1  7  8 2 | *1       *2       -        *4     -     7      -        -        -
1  8  9 2 | 2        *2       4        *4     -     *6     8        -        -
1  9 10 2 | *1       3        -        *4     -     *6     -        9        -
1 10 11 2 | 2        *2       2        5      -     *6     8        -        10
2  3  4 3 | *1       3_       -        *2{2e} -     *3{2e} -        9_       -
2  5  6 5 | *1       *1{2e}   -        5_     -     *3{2e} -        -        -
2  6  4 3 | -        3_       -        *2{2e} -     *3{2e} -        9_       -
2  7  8 4 | *1       *2       -        *4_    -     7_     -        -        -
2  9 10 7 | *1       [zl-nu]3 -        *2{2e} -     *1{6e} -        [zl-nu]9 -
2 10  6 5 | -        *1{2e}   -        5_     -     *3{2e} -        -        -
3  4  5 3 | 1{2e}    *1{2e}   2{2e}    *2{2e} -     *3{2e} 4{2e}    -        -
3  5  6 5 | *1       *1{2e}   -        5_     -     *3{2e} -        -        -
3  6  3 2 | 2        -        2        *4     -     *6     4        -        -
3  7  8 7 | *1       *1{2e}   -        *2{2e} -     7_     -        -        -
3  8  9 3 | [zl-nu]2 *1{2e}   [zl-nu]4 *2{2e} -     *3{2e} [zl-nu]8 -        -
3 10 11 5 | 1{2e}    *1{2e}   1{4e}    5_     -     *3{2e} 1{8e}    -        5{2e}
4  5  6 3 | *1       *1{2e}   -        5_     -     *3{2e} -        -        -
4  6  4 2 | -        3        -        *4     -     *6     -        9        -
4  7  8 4 | *1       *2       -        *4_    -     7_     -        -        -
4  9 10 4 | *1       [zl-nu]3 -        *4_    -     *2{3e} -        [zl-nu]9 -
4 10  6 3 | -        *1{2e}   -        5_     -     *3{2e} -        -        -
5  6  7 3 | 1{2e}    3_       1{4e}    *2{2e} 3{2e} *3{2e} 2        9_       -
5  7  8 7 | *1       *1{2e}   -        *2{2e} -     7_     -        -        -
5  8  9 3 | [zl-nu]2 *1{2e}   [zl-nu]4 *2{2e} -     *3{2e} [zl-nu]8 -        -
5  9 10 7 | *1       [zl-nu]3 -        *2{2e} -     *1{6e} -        [zl-nu]9 -
5 10  3 2 | 2        *2       2        -      -     *6     -        -        -
6  7  8 3 | *1       *1{2e}   -        *2{2e} -     7_     -        -        -
6 10  6 2 | -        *2       -        5      -     *6     -        -        -
7  8  9 3 | 1{2e}    *1{2e}   2{2e}    *2{2e} -     *3{2e} 4{2e}    -        -
7  9 10 4 | *1       [zl-nu]3 -        *4_    -     *2{3e} -        [zl-nu]9 -
7 10 11 5 | 1{2e}    *1{2e}   1{4e}    5_     -     *3{2e} 1{8e}    -        5{2e}
8  9 10 3 | *1       3        -        *2{2e} -     *3{2e} -        9        -
8 10  6 5 | -        *1{2e}   -        5_     -     *3{2e} -        -        -
9 10 11 3 | 1{2e}    *1{2e}   1{4e}    5_     -     *3{2e} 2{4e}    -        5{2e}
""")


# (a, b) -> [(q, chi_p, is_field), ...]
REFERENCE_T0 = {(1, 2): [(3, 1, True), (5, 2, True), (7, 3, True), (9, 4, False)],
 (1, 3): [(2, 1, True), (4, 1, False), (5, 3, True), (7, 2, True), (8, 5, False), (10, 3, False)],
 (1, 4): [(3, 2, True), (5, 1, True), (7, 5, True), (9, 2, False)],
 (1, 5): [(2, 1, True),
          (3, 1, True),
          (4, 3, False),
          (6, 1, False),
          (7, 4, True),
          (8, 3, False),
          (9, 7, False)],
 (1, 6): [(5, 4, True), (7, 1, True)],
 (2, 3): [(2, 1, True), (4, 1, False), (5, 3, True), (7, 2, True), (8, 5, False), (10, 3, False)],
 (2, 5): [(2, 1, True),
          (3, 1, True),
          (4, 3, False),
          (6, 1, False),
          (7, 4, True),
          (8, 3, False),
          (9, 7, False)],
 (2, 6): [(5, 3, True), (7, 2, True), (10, 3, False)],
 (3, 4): [(3, 2, True), (5, 1, True), (7, 5, True), (9, 2, False)],
 (3, 5): [(2, 1, True), (3, 1, True), (4, 3, False), (6, 1, False), (7, 4, True), (8, 3, False)],
 (3, 6): [(5, 2, True), (7, 3, True)],
 (4, 5): [(2, 1, True),
          (3, 1, True),
          (4, 3, False),
          (6, 1, False),
          (7, 4, True),
          (8, 3, False),
          (9, 7, False)],
 (4, 6): [(5, 3, True), (7, 2, True), (10, 3, False)],
 (5, 6): [(5, 4, True), (7, 1, True)]}

# (a, b) -> {"cells": {q: (frame, ((value, tag), ...))}, "orders": ((q, bold), ...)}
REFERENCE_T1 = {(1, 2): {'cells': {2: (1, ((1, 'e'), (3, ''))),
                    3: (2, ((1, 'e'), (3, 'z'), (5, ''))),
                    4: (1, ((1, 'e'), (3, ''), (5, ''), (7, '')))},
          'orders': ((5, True), (7, True), (8, False))},
 (1, 3): {'cells': {2: (2, ((1, 'e'), (4, 'z'))),
                    3: (1, ((1, 'e'), (4, ''), (7, ''))),
                    4: (0, ((1, 'e'), (4, 'z'), (7, ''), (10, '')))},
          'orders': ((5, True), (7, True), (9, False))},
 (1, 4): {'cells': {2: (1, ((1, 'e'), (5, ''))),
                    3: (2, ((1, 'e'), (5, ''), (9, 'z'))),
                    4: (1, ((1, 'e'), (5, ''), (9, ''), (13, '')))},
          'orders': ((5, True), (7, True), (8, False))},
 (1, 5): {'cells': {2: (2, ((1, 'e'), (6, 'z'))),
                    3: (2, ((1, 'e'), (6, 'z'), (11, ''))),
                    4: (0, ((1, 'e'), (6, ''), (11, ''), (16, 'z')))},
          'orders': ((5, False), (7, True))},
 (1, 6): {'cells': {2: (1, ((1, 'e'), (7, ''))),
                    3: (1, ((1, 'e'), (7, ''), (13, ''))),
                    4: (1, ((1, 'e'), (7, ''), (13, ''), (19, '')))},
          'orders': ((5, True), (6, False), (7, True), (8, False), (9, False))},
 (2, 3): {'cells': {2: (2, ((2, 'z'), (5, 'e'))),
                    3: (1, ((2, ''), (5, ''), (8, 'e'))),
                    4: (0, ((2, ''), (5, 'e'), (8, 'z'), (11, 'e')))},
          'orders': ((5, True), (7, True), (9, False))},
 (2, 5): {'cells': {2: (2, ((2, 'z'), (7, 'e'))),
                    3: (2, ((2, 'e'), (7, ''), (12, 'z'))),
                    4: (0, ((2, ''), (7, 'e'), (12, 'z'), (17, 'e')))},
          'orders': ((5, False), (7, True))},
 (2, 6): {'cells': {2: (0, ((2, ''), (8, 'z'))),
                    3: (1, ((2, ''), (8, 'e'), (14, ''))),
                    4: (0, ((2, ''), (8, 'z'), (14, ''), (20, '')))},
          'orders': ((5, True), (7, True), (9, False))},
 (3, 4): {'cells': {2: (1, ((3, 'e'), (7, 'e'))),
                    3: (2, ((3, 'z'), (7, 'e'), (11, 'e'))),
                    4: (1, ((3, ''), (7, 'e'), (11, ''), (15, 'e')))},
          'orders': ((5, True), (6, False), (7, True), (8, False))},
 (3, 5): {'cells': {2: (2, ((3, 'e'), (8, 'z'))),
                    3: (2, ((3, 'z'), (8, 'e'), (13, 'e'))),
                    4: (0, ((3, 'e'), (8, 'z'), (13, 'e'), (18, '')))},
          'orders': ((5, False), (7, True))},
 (3, 6): {'cells': {2: (1, ((3, ''), (9, 'e'))),
                    3: (0, ((3, ''), (9, 'z'), (15, ''))),
                    4: (1, ((3, ''), (9, 'e'), (15, ''), (21, '')))},
          'orders': ((5, True), (7, True), (8, False))},
 (4, 5): {'cells': {2: (2, ((4, 'z'), (9, 'e'))),
                    3: (2, ((4, 'e'), (9, 'z'), (14, 'e'))),
                    4: (0, ((4, 'z'), (9, 'e'), (14, ''), (19, 'e')))},
          'orders': ((5, False), (7, True))},
 (4, 6): {'cells': {2: (0, ((4, 'z'), (10, ''))),
                    3: (1, ((4, ''), (10, 'e'), (16, ''))),
                    4: (0, ((4, ''), (10, ''), (16, 'z'), (22, '')))},
          'orders': ((5, True), (7, True), (9, False))},
 (5, 6): {'cells': {2: (1, ((5, 'e'), (11, 'e'))),
                    3: (1, ((5, ''), (11, ''), (17, 'e'))),
                    4: (1, ((5, 'e'), (11, 'e'), (17, 'e'), (23, 'e')))},
          'orders': ((5, True), (6, False), (7, True), (8, False), (9, False))}}

# (a, b, q) -> ((operands, product), ...) exactly as printed, duplicates kept
REFERENCE_APPENDIX = {(2, 3, 5): (((2, 2, 2), 8),
             ((2, 2, 8), 2),
             ((2, 2, 11), 14),
             ((2, 2, 14), 11),
             ((2, 8, 8), 8),
             ((2, 8, 11), 11),
             ((2, 8, 14), 14),
             ((2, 11, 11), 2),
             ((2, 11, 14), 8),
             ((2, 14, 14), 2),
             ((8, 8, 8), 2),
             ((8, 8, 11), 14),
             ((8, 8, 14), 11),
             ((8, 11, 11), 8),
             ((8, 11, 14), 2),
             ((8, 14, 14), 8),
             ((11, 11, 11), 11),
             ((11, 11, 14), 14),
             ((11, 14, 14), 11),
             ((14, 14, 14), 14)),
 (3, 8, 2): (((3, 3, 3), 11), ((3, 3, 11), 3), ((3, 11, 11), 11), ((11, 11, 11), 3)),
 (5, 6, 4): (((5, 5, 5), 5),
             ((5, 5, 11), 11),
             ((5, 5, 17), 17),
             ((5, 5, 23), 23),
             ((5, 11, 11), 5),
             ((5, 11, 17), 23),
             ((5, 11, 23), 17),
             ((5, 17, 17), 5),
             ((5, 17, 23), 11),
             ((5, 23, 23), 5),
             ((11, 11, 11), 11),
             ((11, 11, 17), 17),
             ((11, 11, 23), 23),
             ((11, 17, 17), 11),
             ((11, 17, 23), 5),
             ((11, 23, 23), 11),
             ((17, 17, 17), 17),
             ((17, 17, 23), 23),
             ((17, 23, 23), 17),
             ((23, 23, 23), 23)),
 (5, 6, 6): (((5, 5, 5), 17),
             ((5, 5, 11), 23),
             ((5, 5, 17), 29),
             ((5, 5, 23), 35),
             ((5, 5, 29), 5),
             ((5, 5, 35), 11),
             ((5, 11, 11), 29),
             ((5, 11, 17), 35),
             ((5, 11, 23), 5),
             ((5, 11, 29), 11),
             ((5, 11, 35), 17),
             ((5, 17, 17), 5),
             ((5, 17, 23), 11),
             ((5, 17, 29), 17),
             ((5, 17, 35), 23),
             ((5, 23, 23), 17),
             ((5, 23, 29), 23),
             ((5, 23, 35), 29),
             ((5, 29, 29), 29),
             ((5, 29, 35), 35),
             ((5, 35, 35), 5),
             ((11, 11, 11), 35),
             ((11, 11, 17), 5),
             ((11, 11, 23), 11),
             ((11, 11, 29), 17),
             ((11, 11, 35), 23),
             ((11, 11, 17), 5),
             ((11, 17, 17), 11),
             ((11, 17, 23), 17),
             ((11, 17, 29), 23),
             ((11, 17, 35), 29),
             ((11, 17, 23), 17),
             ((11, 17, 29), 23),
             ((11, 17, 35), 29),
             ((11, 23, 23), 23),
             ((11, 23, 29), 29),
             ((11, 23, 23), 23),
             ((11, 23, 35), 35),
             ((11, 29, 29), 35),
             ((11, 29, 35), 5),
             ((11, 35, 35), 11),
             ((17, 17, 17), 17),
             ((17, 17, 23), 23),
             ((17, 17, 29), 29),
             ((17, 17, 35), 35),
             ((17, 23, 23), 29),
             ((17, 23, 29), 35),
             ((17, 29, 29), 5),
             ((17, 29, 35), 11),
             ((17, 35, 35), 17),
             ((23, 23, 23), 35),
             ((23, 23, 29), 5),
             ((23, 23, 35), 11),
             ((23, 29, 29), 11),
             ((23, 29, 35), 17),
             ((23, 35, 35), 23),
             ((29, 29, 29), 17),
             ((29, 29, 35), 23),
             ((29, 35, 35), 29),
             ((35, 35, 35), 35)),
 (7, 8, 2): (((7, 7, 7), 7), ((7, 7, 15), 15), ((7, 15, 15), 7), ((15, 15, 15), 15))}


# Adjudicated differences between the published tables and exact recomputation.
# Key: (table, location); value: short justification of the computed value.
KNOWN_DEVIATIONS = {
    ("T2", (5, 6, 8)): (
        "printed cell omits the unit-count subscript: 17, 23, 41 and 47 all "
        "square to 1 modulo 48, so kappa_e = 4, not 1"
    ),
    ("T2", (8, 9, 3)): (
        "q* = 3 = 1*(3-1)+1 is 3-admissible, so the cell should be underlined "
        "like the structurally identical residue-2-mod-3 cells"
    ),
    ("T2", (8, 9, 9)): (
        "q* = 9 = 4*(3-1)+1 is 3-admissible, so the cell should be underlined"
    ),
    ("T2", (1, 10, 8)): (
        "printed idempotence order 8 is unreachable: the class maps onto units "
        "of Z/16 x trivial mod 5, whose exponent is 4, so lambda_p = 4"
    ),
    ("T2", (5, 10, 8)): (
        "printed as empty, but reduction modulo 16 maps the class bijectively "
        "onto the odd residues, so every translation permutes the class: a "
        "zeroless field with unit 65 and lambda_p = 4"
    ),
    ("T0", (2, 6, 10)): (
        "printed chi_p = 3, but the ring has no unit (all class members are "
        "even, and e^2 = 1 mod 30 has no even solution), so chi_p is "
        "undefined; 3 is the least additive power of the representative 2 "
        "reaching the zero 20"
    ),
    ("T0", (4, 6, 10)): (
        "printed chi_p = 3, but the ring has no unit; 3 is the least additive "
        "power of the representative 4 reaching the zero 40"
    ),
    ("T0", (3, 5, 9)): (
        "entry missing from the printed cell: the ring has zero 18, unit 8 "
        "and chi_p = 7, exactly like the parallel residues 2 and 4 modulo 5"
    ),
    ("T1", (2, 5, 3)): (
        "printed tags mark only 2 as a unit, but 7^4 = 2401 = 1 mod 15, so 7 "
        "is a unit too; the idempotence-order table prints two units here"
    ),
    ("T1", (3, 4, "orders")): (
        "printed allowed-order line lists q = 6, but the order-6 ring is not "
        "a field (translation by (3,3) is not injective modulo 24); the "
        "idempotence-order table prints an empty cell at q = 6"
    ),
}

# Worked-example corrections established by exact arithmetic; these do not
# correspond to table cells but are part of the published record.
ARITHMETIC_NOTES = (
    (
        "prime scan, class 43 mod 44, k_max = 2",
        "the set of polyadic primes that are binary-composite is printed as "
        "{-45}; the scan also finds 87 = 3*29, which admits no ternary class "
        "factorization and is excluded from the binary primes, so the "
        "computed set is {-45, 87}",
    ),
    (
        "division with remainder, class 8 mod 10",
        "the printed identity 38 = ((-92) . (-2)) + 238 fails exactly: "
        "-92*16 + 5*238 = -282; solving 38 = -92*16 + 5*r gives r = 302, "
        "which is not in the class, so no remainder pair with quotient -2 "
        "exists; valid quotients are congruent to 28 mod 50, e.g. "
        "38 = -92*(-22)^4 + 5*4310318",
    ),
    (
        "forbidden residues, modulus 16",
        "the printed list of residues admitting no closed multiplication "
        "omits a = 10: the powers of 10 modulo 16 run 10, 4, 8, 0, 0, ... "
        "and never return to 10, so (10, 16) is forbidden like every other "
        "even residue there",
    ),
    (
        "primes gap for the residue-1 classes",
        "the printed gap 1-b^2 < x < (b+1)^2 admits the composite "
        "(b-1)^2 = (1-b)*(1-b) whenever b >= 3 (both factors lie in the "
        "class and are not units, e.g. 36 = (-6)*(-6) in the class 1 mod "
        "7); the exact positive bound is (b-1)^2",
    ),
    (
        "unit count versus cyclic subgroup count",
        "the claim that a decomposable multiplicative group has as many "
        "cyclic subgroups as units holds across the scan for fields with a "
        "zero, but four zeroless fields violate it: orders 4 over 3 mod 4 "
        "and 7 mod 8, and orders 8 over 5 mod 6 and 9 mod 10, each with "
        "twice as many units as maximal cyclic subgroups",
    ),
    (
        "composition sets, class 8 mod 10",
        "the printed composition set of 32768 is {8}, from the single "
        "expansion 8^5; full enumeration of admissible products also finds "
        "e.g. mu_5[-2, -2, 8, 8, 128] = 32768, so the computed set gains "
        "-2, -32, 128, 2048, -512, and the printed coprimality of "
        "{-32, 32768} fails under the intersection definition (both sets "
        "contain -2)",
    ),
)
