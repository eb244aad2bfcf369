"""Unit tests for the BilinearGroup element API and operation counters."""

import random

import pytest

from repro.errors import GroupError
from repro.groups import preset_group


class TestG1Element:
    def test_group_law(self, small_group, rng):
        a, b = small_group.random_g(rng), small_group.random_g(rng)
        assert a * b == b * a
        assert (a * b) / b == a

    def test_identity(self, small_group, rng):
        e = small_group.g_identity()
        a = small_group.random_g(rng)
        assert a * e == a
        assert e.is_identity()

    def test_pow_zero_is_identity(self, small_group, rng):
        a = small_group.random_g(rng)
        assert (a ** 0).is_identity()

    def test_pow_negative_is_inverse_pow(self, small_group, rng):
        a = small_group.random_g(rng)
        assert a ** -1 == a.inverse()
        assert a ** -3 == (a ** 3).inverse()

    def test_pow_reduced_mod_p(self, small_group, rng):
        a = small_group.random_g(rng)
        k = rng.randrange(small_group.p)
        assert a ** (k + small_group.p) == a ** k

    def test_order_p(self, small_group, rng):
        a = small_group.random_g(rng)
        assert (a ** small_group.p).is_identity()

    def test_hashable_consistent_with_eq(self, small_group, rng):
        a = small_group.random_g(rng)
        b = a ** 1
        assert a == b
        assert hash(a) == hash(b)

    def test_cross_group_rejected(self, small_group, toy_group, rng):
        a = small_group.random_g(rng)
        b = toy_group.random_g(rng)
        with pytest.raises(GroupError):
            a * b


class TestGTElement:
    def test_group_law(self, small_group, rng):
        a, b = small_group.random_gt(rng), small_group.random_gt(rng)
        assert a * b == b * a
        assert (a * b) / b == a

    def test_inverse(self, small_group, rng):
        a = small_group.random_gt(rng)
        assert (a * a.inverse()).is_identity()

    def test_pow(self, small_group, rng):
        a = small_group.random_gt(rng)
        assert a ** 2 == a * a
        assert a ** -1 == a.inverse()

    def test_order_p(self, small_group, rng):
        a = small_group.random_gt(rng)
        assert (a ** small_group.p).is_identity()

    def test_gt_generator_cached(self, small_group):
        assert small_group.gt_generator() is small_group.gt_generator()

    def test_gt_generator_is_pairing(self, small_group):
        assert small_group.gt_generator() == small_group.pair(small_group.g, small_group.g)


class TestCounters:
    def test_pairing_counted(self, small_group, rng):
        before = small_group.counter.snapshot()
        small_group.pair(small_group.g, small_group.g)
        delta = small_group.counter.diff(before)
        assert delta.pairings == 1

    def test_exponentiation_counted(self, small_group, rng):
        before = small_group.counter.snapshot()
        _ = small_group.g ** 5
        _ = small_group.gt_generator() ** 3
        delta = small_group.counter.diff(before)
        assert delta.g_exp == 1
        assert delta.gt_exp == 1

    def test_multiplication_counted(self, small_group, rng):
        a, b = small_group.random_g(rng), small_group.random_g(rng)
        before = small_group.counter.snapshot()
        _ = a * b
        delta = small_group.counter.diff(before)
        assert delta.g_mul == 1

    def test_reset(self):
        group = preset_group(16)
        group.pair(group.g, group.g)
        group.counter.reset()
        assert group.counter.pairings == 0

    def test_exponentiations_property(self, small_group, rng):
        before = small_group.counter.snapshot()
        _ = small_group.g ** 2
        _ = small_group.g ** 3
        delta = small_group.counter.diff(before)
        assert delta.exponentiations == 2

    def test_snapshot_and_diff_shapes(self):
        from repro.groups.bilinear import OperationCounter

        counter = OperationCounter()
        counter.pairings += 2
        snapshot = counter.snapshot()
        assert snapshot.as_dict() == counter.as_dict()
        assert list(counter.as_dict()) == [
            "g_mul", "g_exp", "g_multiexp", "gt_mul", "gt_exp", "gt_multiexp",
            "pairings", "pairings_precomp", "g_samples", "gt_samples",
        ]
        counter.pairings += 1
        assert counter.diff(snapshot).nonzero() == {"pairings": 1}
        counter.reset()
        assert not counter.nonzero()

    def test_total_cost_default_weights_and_overrides(self):
        from repro.groups.bilinear import DEFAULT_COST_WEIGHTS, OperationCounter

        counter = OperationCounter()
        counter.pairings += 10
        counter.g_exp += 10
        assert counter.total_cost() == (
            10 * DEFAULT_COST_WEIGHTS["pairings"] + 10 * DEFAULT_COST_WEIGHTS["g_exp"]
        )
        # A partial override replaces only the weights it names.
        assert counter.total_cost(weights={"pairings": 100}) == (
            1000 + 10 * DEFAULT_COST_WEIGHTS["g_exp"]
        )


class TestDeterminism:
    def test_preset_group_generator_stable(self):
        a = preset_group(16)
        from repro.groups.bilinear import BilinearGroup

        b = BilinearGroup(a.params)
        assert a.g == b.g

    def test_scalar_bits(self, small_group):
        assert small_group.scalar_bits() == small_group.params.p.bit_length()

    def test_random_scalar_in_range(self, small_group, rng):
        for _ in range(10):
            assert 0 <= small_group.random_scalar(rng) < small_group.p
