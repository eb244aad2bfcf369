"""Unit tests for F_q and F_{q^2}: the element classes and the raw
``(a, b)`` kernels the pairing and multiexp loops call directly."""

import random

import pytest

from repro.errors import GroupError, ParameterError
from repro.math.fields import Fq, Fq2, fq2_inverse, fq2_mul, fq2_pow, fq2_square

Q = 103  # 103 = 3 mod 4


class TestFq:
    def test_reduction_on_construction(self):
        assert Fq(Q + 5, Q).value == 5
        assert Fq(-1, Q).value == Q - 1

    def test_add_sub(self):
        a, b = Fq(50, Q), Fq(60, Q)
        assert (a + b).value == 7
        assert (a - b).value == (50 - 60) % Q

    def test_mul_inverse(self):
        rng = random.Random(1)
        for _ in range(20):
            a = Fq(rng.randrange(1, Q), Q)
            assert (a * a.inverse()).value == 1

    def test_div(self):
        a, b = Fq(10, Q), Fq(7, Q)
        assert ((a / b) * b) == a

    def test_pow_negative_exponent(self):
        a = Fq(5, Q)
        assert (a ** -2) == (a ** 2).inverse()

    def test_sqrt(self):
        a = Fq(12, Q)
        square = a * a
        root = square.sqrt()
        assert root * root == square

    def test_mixing_fields_raises(self):
        with pytest.raises(GroupError):
            Fq(1, 103) + Fq(1, 107)

    def test_int_conversion(self):
        assert int(Fq(42, Q)) == 42


class TestFq2:
    def test_requires_q_3_mod_4(self):
        with pytest.raises(ParameterError):
            Fq2(1, 1, 13)  # 13 = 1 mod 4

    def test_i_squared_is_minus_one(self):
        i = Fq2(0, 1, Q)
        assert i * i == Fq2(-1, 0, Q)

    def test_mul_against_definition(self):
        rng = random.Random(2)
        for _ in range(30):
            a, b, c, d = (rng.randrange(Q) for _ in range(4))
            left = Fq2(a, b, Q) * Fq2(c, d, Q)
            assert left == Fq2((a * c - b * d) % Q, (a * d + b * c) % Q, Q)

    def test_square_matches_mul(self):
        rng = random.Random(3)
        for _ in range(30):
            x = Fq2(rng.randrange(Q), rng.randrange(Q), Q)
            assert x.square() == x * x

    def test_inverse(self):
        rng = random.Random(4)
        for _ in range(30):
            x = Fq2(rng.randrange(Q), rng.randrange(Q), Q)
            if x.is_zero():
                continue
            assert x * x.inverse() == Fq2.one(Q)

    def test_zero_not_invertible(self):
        with pytest.raises(GroupError):
            Fq2.zero(Q).inverse()

    def test_norm_multiplicative(self):
        rng = random.Random(5)
        for _ in range(20):
            x = Fq2(rng.randrange(Q), rng.randrange(Q), Q)
            y = Fq2(rng.randrange(Q), rng.randrange(Q), Q)
            assert (x * y).norm() == x.norm() * y.norm() % Q

    def test_conjugate_is_frobenius(self):
        # For q = 3 mod 4, x^q = conjugate(x).
        rng = random.Random(6)
        for _ in range(10):
            x = Fq2(rng.randrange(Q), rng.randrange(Q), Q)
            assert x ** Q == x.conjugate()

    def test_multiplicative_group_order(self):
        # x^(q^2 - 1) = 1 for all nonzero x.
        rng = random.Random(7)
        for _ in range(10):
            x = Fq2(rng.randrange(Q), rng.randrange(Q), Q)
            if x.is_zero():
                continue
            assert (x ** (Q * Q - 1)).is_one()

    def test_pow_negative(self):
        x = Fq2(3, 5, Q)
        assert x ** -3 == (x ** 3).inverse()

    def test_from_base_embedding(self):
        a = Fq2.from_base(9, Q)
        b = Fq2.from_base(11, Q)
        assert (a * b).to_tuple() == (99, 0)

    def test_division(self):
        x, y = Fq2(3, 4, Q), Fq2(5, 6, Q)
        assert (x / y) * y == x


def _textbook_pow(u: Fq2, exponent: int) -> tuple[int, int]:
    """Square-and-multiply on the schoolbook product ``(ac - bd, ad + bc)``."""
    q = u.q

    def mul(x, y):
        return ((x[0] * y[0] - x[1] * y[1]) % q, (x[0] * y[1] + x[1] * y[0]) % q)

    result, base = (1, 0), (u.a, u.b)
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        base = mul(base, base)
        exponent >>= 1
    return result


class TestFieldLaws:
    """Seeded algebra laws at the 32-bit preset's field size."""

    def test_fq_laws(self, small_group):
        rng = random.Random(0xBACC)
        q = small_group.q
        for _ in range(25):
            a = Fq(rng.randrange(1, q), q)
            b = Fq(rng.randrange(1, q), q)
            c = Fq(rng.randrange(1, q), q)
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == Fq(1, q)
            k = rng.randrange(1, q)
            assert (a ** k).value == pow(a.value, k, q)
            assert a ** -2 == (a.inverse()) ** 2

    def test_fq2_laws(self, small_group):
        rng = random.Random(0xBACD)
        q = small_group.q
        for _ in range(25):
            u = Fq2(rng.randrange(q), rng.randrange(1, q), q)
            v = Fq2(rng.randrange(q), rng.randrange(1, q), q)
            w = Fq2(rng.randrange(q), rng.randrange(1, q), q)
            assert (u * v) * w == u * (v * w)
            assert u.square() == u * u
            assert u * u.inverse() == Fq2.one(q)
            assert u ** 5 == u * u * u * u * u
            assert (u * v).conjugate() == u.conjugate() * v.conjugate()

    def test_fq2_pow_matches_reference(self, small_group):
        rng = random.Random(0xBACE)
        q = small_group.q
        for _ in range(5):
            u = Fq2(rng.randrange(q), rng.randrange(1, q), q)
            exponent = rng.randrange(1, q * q)
            assert (u ** exponent).to_tuple() == _textbook_pow(u, exponent)
            assert fq2_pow(u.to_tuple(), exponent, q) == _textbook_pow(u, exponent)


class TestRawFq2:
    def test_raw_kernels_match_elements(self):
        rng = random.Random(8)
        for _ in range(30):
            u = Fq2(rng.randrange(Q), rng.randrange(Q), Q)
            v = Fq2(rng.randrange(Q), rng.randrange(Q), Q)
            assert fq2_mul(u.to_tuple(), v.to_tuple(), Q) == (u * v).to_tuple()
            assert fq2_square(u.to_tuple(), Q) == u.square().to_tuple()
            if not u.is_zero():
                assert fq2_inverse(u.to_tuple(), Q) == u.inverse().to_tuple()

    def test_raw_results_are_plain_ints(self):
        for result in (
            fq2_mul((3, 4), (5, 6), Q),
            fq2_square((3, 4), Q),
            fq2_inverse((3, 4), Q),
            fq2_pow((3, 4), 1234, Q),
        ):
            assert all(type(c) is int and 0 <= c < Q for c in result)

    def test_zero_inverse_raises(self):
        with pytest.raises(ParameterError, match="not invertible"):
            fq2_inverse((0, 0), Q)
        with pytest.raises(ParameterError, match="not invertible"):
            fq2_inverse((Q, 2 * Q), Q)

    def test_element_inverse_keeps_group_error(self):
        with pytest.raises(GroupError, match="not invertible"):
            Fq2.zero(1000003).inverse()

    def test_unitary_inverse_is_conjugation(self, small_group):
        """Norm-1 elements (the whole pairing subgroup) invert by
        conjugation."""
        unit = small_group.random_gt(random.Random(9)).value
        assert unit.norm() == 1
        assert fq2_inverse(unit.to_tuple(), unit.q) == (unit.a, (-unit.b) % unit.q)
        assert unit.inverse() == unit.conjugate()


class TestTrustedConstructors:
    def test_from_reduced_skips_reduction(self):
        # Deliberately out-of-range input: the trusted constructor must
        # store it verbatim (callers guarantee canonicity; the public
        # constructor is the one that reduces).
        element = Fq._from_reduced(7, 5)
        assert element.value == 7
        assert Fq(7, 5).value == 2

    def test_fq2_from_reduced_skips_validation(self):
        # q = 5 is 1 mod 4: the public constructor rejects it, the
        # trusted one (used only with pre-validated group parameters)
        # does not re-check.
        with pytest.raises(ParameterError):
            Fq2(1, 2, 5)
        element = Fq2._from_reduced(1, 2, 5)
        assert (element.a, element.b) == (1, 2)

    def test_public_and_trusted_agree_on_canonical_input(self):
        q = 1000003
        assert Fq._from_reduced(123, q) == Fq(123, q)
        assert Fq2._from_reduced(12, 34, q) == Fq2(12, 34, q)
