"""Unit tests for group-element decoding (the persistence substrate)."""

import pytest

from repro.errors import GroupError
from repro.groups.encoding import decode_g1, decode_gt, g1_roundtrip, gt_roundtrip
from repro.utils.bits import BitString
from repro.utils.serialization import int_width


class TestG1Decoding:
    def test_roundtrip_random_points(self, small_group, rng):
        for _ in range(10):
            element = small_group.random_g(rng)
            assert g1_roundtrip(small_group, element) == element

    def test_roundtrip_identity(self, small_group):
        identity = small_group.g_identity()
        assert g1_roundtrip(small_group, identity) == identity

    def test_roundtrip_both_parities(self, small_group, rng):
        element = small_group.random_g(rng)
        assert g1_roundtrip(small_group, element.inverse()) == element.inverse()

    def test_wrong_length_rejected(self, small_group):
        with pytest.raises(GroupError):
            decode_g1(small_group, BitString(0, 5))

    def test_garbage_x_rejected(self, small_group):
        """An x off the curve must be refused."""
        width = int_width(small_group.params.q)
        rejected = 0
        for x in range(40):
            bits = BitString(1, 1) + BitString(x, width) + BitString(0, 1)
            try:
                decode_g1(small_group, bits)
            except GroupError:
                rejected += 1
        # About half of all x are non-residues, plus subgroup checks.
        assert rejected > 10

    def test_every_non_residue_x_raises_group_error(self, small_group):
        from repro.math.modular import is_quadratic_residue

        q = small_group.params.q
        width = int_width(q)
        checked = 0
        for x in range(1, 200):
            if is_quadratic_residue((x * x * x + x) % q, q):
                continue
            checked += 1
            for parity in (0, 1):
                bits = BitString(1, 1) + BitString(x, width) + BitString(parity, 1)
                with pytest.raises(GroupError, match="not the abscissa"):
                    decode_g1(small_group, bits)
        assert checked > 50

    def test_out_of_field_x_rejected(self, small_group):
        width = int_width(small_group.params.q)
        bits = BitString(1, 1) + BitString((1 << width) - 1, width) + BitString(0, 1)
        with pytest.raises(GroupError):
            decode_g1(small_group, bits)

    def test_malformed_identity_rejected(self, small_group):
        width = int_width(small_group.params.q)
        bits = BitString(0, 1) + BitString(7, width) + BitString(1, 1)
        with pytest.raises(GroupError):
            decode_g1(small_group, bits)

    def test_wrong_subgroup_rejected(self, small_group, rng):
        """A curve point outside the order-p subgroup must be refused."""
        from repro.groups.curve import Point
        from repro.math.modular import is_quadratic_residue, sqrt_mod

        params = small_group.params
        q = params.q
        width = int_width(q)
        # Find a point NOT in the subgroup: random curve point without
        # cofactor clearing, checked to have full-ish order.
        import random as _random

        search = _random.Random(1)
        from repro.groups import curve as curve_mod

        while True:
            x = search.randrange(q)
            rhs = (x * x * x + x) % q
            if rhs and is_quadratic_residue(rhs, q):
                y = sqrt_mod(rhs, q)
                point = Point(x, y, False)
                if not curve_mod.scalar_mul(point, params.p, q).is_infinity():
                    break
        bits = BitString(1, 1) + BitString(x, width) + BitString(y % 2, 1)
        with pytest.raises(GroupError):
            decode_g1(small_group, bits)


class TestGTDecoding:
    def test_roundtrip(self, small_group, rng):
        for _ in range(10):
            element = small_group.random_gt(rng)
            assert gt_roundtrip(small_group, element) == element

    def test_roundtrip_pairing_output(self, small_group, rng):
        element = small_group.pair(small_group.random_g(rng), small_group.g)
        assert gt_roundtrip(small_group, element) == element

    def test_roundtrip_identity(self, small_group):
        identity = small_group.gt_identity()
        assert gt_roundtrip(small_group, identity) == identity

    def test_wrong_length_rejected(self, small_group):
        with pytest.raises(GroupError):
            decode_gt(small_group, BitString(0, 3))

    def test_zero_rejected(self, small_group):
        width = int_width(small_group.params.q)
        with pytest.raises(GroupError):
            decode_gt(small_group, BitString(0, 2 * width))

    def test_wrong_subgroup_rejected(self, small_group):
        """A random field element is (whp) not in the mu_p subgroup."""
        width = int_width(small_group.params.q)
        bits = BitString(2, width) + BitString(3, width)
        with pytest.raises(GroupError):
            decode_gt(small_group, bits)

    def test_out_of_field_rejected(self, small_group):
        width = int_width(small_group.params.q)
        bits = BitString((1 << width) - 1, width) + BitString(0, width)
        with pytest.raises(GroupError):
            decode_gt(small_group, bits)
