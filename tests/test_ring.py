import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import RUN_ENV
from polyadic.errors import (
    ArityMismatchError,
    ClassMembershipError,
    ForbiddenPairError,
    InadmissibleLengthError,
    NoOperandsError,
    PolyadicError,
)
from polyadic.ring import (
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
)

# Forbidden residues up to modulus 20.  The published list omits a=10 at
# b=16, but 10^n mod 16 runs 10, 4, 8, 0, 0, ... and never returns, so it
# is forbidden like the other even residues there (see deviations report).
FORBIDDEN = {
    4: [2], 8: [2, 4, 6], 9: [3, 6], 12: [2, 6, 10],
    16: [2, 4, 6, 8, 10, 12, 14], 18: [3, 6, 12, 15], 20: [2, 6, 10, 14, 18],
}


def residue_pairs(b_max):
    return [(a, b) for b in range(2, b_max + 1) for a in allowed_residues(b)]


class TestArities:
    def test_published_examples(self):
        assert derive_arities(3, 4) == (5, 3)
        assert derive_arities(0, 1) == (2, 2)
        assert derive_arities(1, 7) == (8, 2)

    def test_forbidden_pair(self):
        with pytest.raises(ForbiddenPairError):
            derive_arities(2, 4)

    def test_forbidden_list_up_to_20(self):
        for b in range(2, 21):
            assert forbidden_residues(b) == FORBIDDEN.get(b, [])

    def test_descriptor_invariants(self):
        d = make_descriptor(3, 4)
        assert (d.m, d.n, d.i_shape, d.j_shape) == (5, 3, 3, 6)
        d = make_descriptor(6, 10)
        assert (d.m, d.n, d.i_shape, d.j_shape) == (6, 2, 3, 3)
        d = make_descriptor(1, 5)
        assert (d.m, d.n, d.i_shape, d.j_shape) == (6, 2, 1, 0)

    def test_descriptor_rejects_wrong_shape_under_optimisation(self):
        # `python -O` strips asserts; (3, 4) really has arities (5, 3)
        script = ("from polyadic.ring import RingDescriptor\n"
                  "try:\n"
                  "    RingDescriptor(3, 4, 2, 2, 0, 0)\n"
                  "except ValueError:\n"
                  "    print('rejected')\n")
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, env=RUN_ENV, check=True)
        assert out.stdout == "rejected\n"

    def test_addition_arity_exceeds_multiplication_arity(self):
        for a, b in residue_pairs(30):
            d = make_descriptor(a, b)
            assert d.m > d.n, (a, b)

    def test_shape_invariants_are_exact(self):
        for a, b in residue_pairs(30):
            d = make_descriptor(a, b)
            assert d.i_shape * b == (d.m - 1) * a
            assert d.j_shape * b == a**d.n - a


class TestClosedForms:
    def test_limiting_families(self):
        for b in range(2, 21):
            assert derive_arities(1, b) == (b + 1, 2)
        for b in range(3, 21):
            assert derive_arities(b - 1, b) == (b + 1, 3)

    def test_divisor_case(self):
        assert derive_arities(2, 6) == (4, 3)
        assert derive_arities(3, 12) == (5, 3)


class TestOperations:
    def test_worked_sum_and_product(self):
        d = make_descriptor(3, 4)
        summands = [d.from_value(v) for v in (7, 11, 15, 19, 23, -5, -9, -13, -1)]
        assert nu_long(summands).value == 47
        factors = [d.from_value(v) for v in (7, 3, 11, 19, 15, 31, 27)]
        assert mu_long(factors).value == 55103895

    def test_single_additions(self):
        d = make_descriptor(0, 1)
        assert nu([d.from_value(0), d.from_value(0)]).value == 0
        d = make_descriptor(1, 2)
        assert nu([d.from_value(1)] * 3).value == 3
        d = make_descriptor(8, 10)
        assert mu([d.from_value(-2)] * 5).value == -32

    def test_unit_product(self):
        for b in (2, 3, 7):
            d = make_descriptor(1, b)
            assert mu([d.from_value(1)] * d.n).value == 1

    def test_arity_mismatch(self):
        d = make_descriptor(3, 4)
        with pytest.raises(ArityMismatchError):
            nu([d.element(0)] * 4)
        with pytest.raises(ArityMismatchError):
            mu([d.element(0)] * 2)

    def test_membership_is_checked(self):
        d = make_descriptor(3, 4)
        with pytest.raises(ClassMembershipError):
            d.from_value(5)
        assert d.from_value(-13).k == -4

    def test_admissible_lengths(self):
        d = make_descriptor(3, 4)
        assert nu_long([d.element(k) for k in range(9)]).ring == d
        assert mu_long([d.element(k) for k in range(7)]).ring == d
        with pytest.raises(InadmissibleLengthError):
            mu_long([d.element(k) for k in range(4)])
        with pytest.raises(InadmissibleLengthError):
            nu_long([d.element(k) for k in range(6)])

    @pytest.mark.parametrize("op", [nu_long, mu_long])
    @pytest.mark.parametrize("length, error", [
        (6, InadmissibleLengthError),  # the length is checked before the rings
        (5, ValueError),
    ])
    def test_word_with_a_wrong_ring_in_last_place(self, op, length, error):
        # [[3]]_4 has (m, n) = (5, 3): length 5 is admissible for both, 6 for neither
        d = make_descriptor(3, 4)
        xs = [d.element(k) for k in range(length - 1)] + [make_descriptor(1, 2).element(0)]
        with pytest.raises(error):
            op(xs)

    @pytest.mark.parametrize("op", [nu, mu, nu_long, mu_long])
    def test_no_operands(self, op):
        # No operand means no ring to read the arity from; xs[0] raised IndexError.
        with pytest.raises(NoOperandsError) as err:
            op([])
        assert isinstance(err.value, PolyadicError)


class TestPowersAndQuerelements:
    def test_binary_power_reduction(self):
        d = make_descriptor(0, 1)
        x = d.from_value(7)
        for steps in range(5):
            assert multiplicative_power(x, steps).value == 7 ** (steps + 1)
            assert additive_power(x, steps).value == 7 * (steps + 1)

    def test_ternary_powers(self):
        assert multiplicative_power(make_descriptor(5, 8).from_value(5), 1).value == 125
        assert multiplicative_power(make_descriptor(2, 3).from_value(2), 2).value == 32

    def test_zeroth_power_is_identity(self):
        x = make_descriptor(3, 4).from_value(19)
        assert multiplicative_power(x, 0) == x
        assert additive_power(x, 0) == x

    def test_additive_querelement(self):
        d = make_descriptor(5, 8)
        x = d.from_value(5)
        quer = additive_querelement(x)
        assert quer.value == -35
        # defining identity, checked in plain integers: sum of m-1 copies plus quer
        assert (d.m - 1) * 5 + quer.value == 5

        d = make_descriptor(1, 2)
        assert additive_querelement(d.from_value(3)).value == -3
        assert 3 + 3 + (-3) == 3

        d = make_descriptor(0, 1)
        assert additive_querelement(d.from_value(9)).value == 0


small_pairs = st.sampled_from(residue_pairs(12))


class TestProperties:
    @given(small_pairs, st.lists(st.integers(-50, 50), min_size=0, max_size=3),
           st.integers(0, 3))
    def test_closure(self, pair, ks, steps):
        a, b = pair
        d = make_descriptor(a, b)
        xs = [d.element(k) for k in ks for _ in range(d.m - 1)] + [d.element(1)]
        total = nu_long(xs)
        assert total.value % b == a
        ys = [d.element(k) for k in ks for _ in range(d.n - 1)] + [d.element(1)]
        prod = mu_long(ys)
        assert prod.value % b == a

    @given(small_pairs, st.integers(1, 3), st.data())
    def test_fold_order_independence(self, pair, steps, data):
        a, b = pair
        d = make_descriptor(a, b)
        length = steps * (d.m - 1) + 1
        ks = data.draw(st.lists(st.integers(-9, 9), min_size=length, max_size=length))
        xs = [d.element(k) for k in ks]
        left = nu_long(xs)
        rest = list(xs)
        while len(rest) > 1:
            rest = rest[: -d.m] + [nu(rest[-d.m:])]
        assert left == rest[0]

    def test_fermat_bound_on_prime_moduli(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            for a in range(1, p):
                _, n = derive_arities(a, p)
                assert n <= p

    @given(st.integers(-40, 40), st.integers(-40, 40))
    def test_binary_limit_is_plain_arithmetic(self, x, y):
        d = make_descriptor(0, 1)
        assert nu([d.from_value(x), d.from_value(y)]).value == x + y
        assert mu([d.from_value(x), d.from_value(y)]).value == x * y

    @given(st.integers(2, 12), st.integers(-8, 8), st.integers(-8, 8))
    def test_limiting_binary_index_law(self, b, k1, k2):
        # in the residue-1 class, multiplying x_{k1} and x_{k2} lands on
        # index b*k1*k2 + k1 + k2
        d = make_descriptor(1, b)
        assert mu([d.element(k1), d.element(k2)]).k == b * k1 * k2 + k1 + k2

    @given(st.integers(3, 12), st.integers(-5, 5), st.integers(-5, 5),
           st.integers(-5, 5))
    def test_limiting_ternary_index_law(self, b, k1, k2, k3):
        d = make_descriptor(b - 1, b)
        got = mu([d.element(k1), d.element(k2), d.element(k3)]).k
        pairs = k1 * k2 + k2 * k3 + k1 * k3
        expect = b**2 * k1 * k2 * k3 + (b - 1) * (
            b * pairs + (b - 1) * (k1 + k2 + k3) + (b - 2))
        assert got == expect
