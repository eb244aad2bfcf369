"""Unit tests for modular arithmetic primitives."""

import random

import pytest

from repro.errors import ParameterError
from repro.math.modular import (
    batch_inv,
    crt_pair,
    inv_mod,
    is_quadratic_residue,
    legendre_symbol,
    sqrt_3mod4,
    sqrt_mod,
)

PRIMES = [3, 7, 11, 101, 65537, 2**61 - 1]


class TestInvMod:
    @pytest.mark.parametrize("p", PRIMES)
    def test_inverse_roundtrip(self, p):
        rng = random.Random(1)
        for _ in range(20):
            a = rng.randrange(1, p)
            assert a * inv_mod(a, p) % p == 1

    def test_zero_not_invertible(self):
        with pytest.raises(ParameterError):
            inv_mod(0, 7)

    def test_multiple_of_modulus_not_invertible(self):
        with pytest.raises(ParameterError):
            inv_mod(14, 7)

    def test_negative_input_reduced(self):
        assert (-3) * inv_mod(-3, 11) % 11 == 1


class TestLegendre:
    def test_known_values_mod_7(self):
        # Squares mod 7: 1, 2, 4.
        assert legendre_symbol(1, 7) == 1
        assert legendre_symbol(2, 7) == 1
        assert legendre_symbol(4, 7) == 1
        assert legendre_symbol(3, 7) == -1
        assert legendre_symbol(5, 7) == -1
        assert legendre_symbol(6, 7) == -1

    def test_zero(self):
        assert legendre_symbol(0, 11) == 0
        assert legendre_symbol(22, 11) == 0

    @pytest.mark.parametrize("p", PRIMES[1:])
    def test_multiplicativity(self, p):
        rng = random.Random(2)
        for _ in range(10):
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)

    def test_squares_are_residues(self):
        p = 101
        for a in range(1, p):
            assert is_quadratic_residue(a * a % p, p)

    def test_half_are_residues(self):
        p = 101
        residues = sum(1 for a in range(1, p) if is_quadratic_residue(a, p))
        assert residues == (p - 1) // 2


class TestSqrtMod:
    @pytest.mark.parametrize("p", [7, 11, 101, 2**61 - 1])
    def test_sqrt_of_squares_p3mod4(self, p):
        if p % 4 != 3:
            pytest.skip("3 mod 4 path")
        rng = random.Random(3)
        for _ in range(20):
            a = rng.randrange(1, p)
            root = sqrt_mod(a * a % p, p)
            assert root * root % p == a * a % p

    @pytest.mark.parametrize("p", [13, 17, 97, 65537])
    def test_sqrt_tonelli_shanks_p1mod4(self, p):
        assert p % 4 == 1
        rng = random.Random(4)
        for _ in range(20):
            a = rng.randrange(1, p)
            square = a * a % p
            root = sqrt_mod(square, p)
            assert root * root % p == square

    def test_sqrt_of_zero(self):
        assert sqrt_mod(0, 7) == 0

    def test_non_residue_raises(self):
        with pytest.raises(ParameterError):
            sqrt_mod(3, 7)

    def test_exhaustive_small_prime(self):
        p = 43  # 43 = 3 mod 4
        squares = {a * a % p for a in range(1, p)}
        for square in squares:
            root = sqrt_mod(square, p)
            assert root * root % p == square


class TestSqrt3Mod4:
    @pytest.mark.parametrize("p", [3, 7, 11, 43, 2**61 - 1])
    def test_agrees_with_sqrt_mod_and_legendre(self, p):
        rng = random.Random(5)
        values = range(p) if p < 100 else [rng.randrange(p) for _ in range(200)]
        for a in values:
            root = sqrt_3mod4(a, p)
            if a % p == 0 or is_quadratic_residue(a, p):
                assert root == sqrt_mod(a, p)
            else:
                assert root is None

    def test_reduces_its_argument(self):
        assert sqrt_3mod4(2 + 7, 7) == sqrt_mod(2, 7)


class TestCRT:
    def test_basic(self):
        x = crt_pair(2, 3, 3, 5)
        assert x % 3 == 2
        assert x % 5 == 3
        assert 0 <= x < 15

    def test_random(self):
        rng = random.Random(5)
        m1, m2 = 101, 103
        for _ in range(20):
            r1, r2 = rng.randrange(m1), rng.randrange(m2)
            x = crt_pair(r1, m1, r2, m2)
            assert x % m1 == r1
            assert x % m2 == r2

    def test_non_coprime_raises(self):
        with pytest.raises(ParameterError):
            crt_pair(1, 6, 2, 9)


class TestBatchInv:
    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_inv_mod(self, p):
        rng = random.Random(p)
        values = [rng.randrange(1, p) for _ in range(min(50, p - 1))]
        assert batch_inv(values, p) == [inv_mod(v, p) for v in values]

    def test_single_element(self):
        assert batch_inv([3], 7) == [inv_mod(3, 7)]

    def test_empty(self):
        assert batch_inv([], 101) == []

    def test_unreduced_inputs(self):
        p = 101
        values = [p + 3, 2 * p + 7, -1]
        assert batch_inv(values, p) == [inv_mod(v % p, p) for v in values]

    def test_zero_raises_with_index(self):
        with pytest.raises(ParameterError, match="index 2"):
            batch_inv([3, 5, 0, 7], 101)

    def test_multiple_of_p_raises(self):
        with pytest.raises(ParameterError):
            batch_inv([3, 202], 101)

    def test_exhaustive_small_prime(self):
        p = 43
        values = list(range(1, p))
        inverses = batch_inv(values, p)
        for value, inverse in zip(values, inverses):
            assert value * inverse % p == 1


class TestBatchInvSkipZero:
    """The mixed-vector contract: ``skip_zero`` backfills ``0`` for zero
    entries instead of raising, preserving every finite inverse -- the
    shape :func:`~repro.groups.curve.batch_to_affine` relies on when
    infinity points (``Z = 0``) ride along in one batch.  Boundary
    positions are the regression cases: the skip-and-backfill rewrite
    must handle a zero as the *first* and *last* entry, where the prefix
    -product bookkeeping is easiest to get wrong.
    """

    p = 101

    def _check(self, values):
        result = batch_inv(values, self.p, skip_zero=True)
        assert len(result) == len(values)
        for value, inverse in zip(values, result):
            if value % self.p == 0:
                assert inverse == 0
            else:
                assert value * inverse % self.p == 1

    def test_zero_at_first_index(self):
        self._check([0, 3, 5, 7])

    def test_zero_at_last_index(self):
        self._check([3, 5, 7, 0])

    def test_zero_at_both_boundaries(self):
        self._check([0, 3, 5, 7, 0])

    def test_consecutive_and_interior_zeros(self):
        self._check([4, 0, 0, 9, 0, 11])

    def test_all_zero(self):
        assert batch_inv([0, 0, 0], self.p, skip_zero=True) == [0, 0, 0]

    def test_multiple_of_p_counts_as_zero(self):
        self._check([self.p, 3, 2 * self.p])

    def test_empty(self):
        assert batch_inv([], self.p, skip_zero=True) == []

    def test_default_contract_still_raises(self):
        """``skip_zero`` is opt-in: without it a zero entry still raises
        with the offending index, leaving no partial output."""
        with pytest.raises(ParameterError, match="index 0"):
            batch_inv([0, 3], self.p)
        with pytest.raises(ParameterError, match="index 1"):
            batch_inv([3, 0], self.p)


class TestBatchToAffine:
    """:func:`~repro.groups.curve.batch_to_affine`, the batched-inversion
    consumer behind the Straus tables and the pairing schedule."""

    def test_matches_points_and_passes_infinity(self, small_group):
        from repro.groups.curve import INFINITY, batch_to_affine

        rng = random.Random(0xBACC)
        q = small_group.q
        points, jacobians = [], []
        for _ in range(6):
            point = small_group.random_g(rng).point
            z = rng.randrange(2, q)
            points.append(point)
            jacobians.append((point.x * z * z % q, point.y * z * z * z % q, z))
        # An infinity entry (Z = 0) rides along in the same batch.
        affine = batch_to_affine(jacobians[:3] + [(1, 1, 0)] + jacobians[3:], q)
        assert affine == points[:3] + [INFINITY] + points[3:]
        for point in affine:
            assert type(point.x) is int and type(point.y) is int
