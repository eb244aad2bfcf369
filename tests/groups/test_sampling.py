"""Unit tests for unknown-dlog sampling (section 5.2 remark)."""

import random
from collections import Counter

from repro.groups import curve
from repro.groups.sampling import random_gt_value, random_subgroup_point


class TestSubgroupPointSampling:
    def test_on_curve_and_in_subgroup(self, small_group, rng):
        params = small_group.params
        for _ in range(10):
            point = random_subgroup_point(params, rng)
            assert curve.is_on_curve(point, params.q)
            assert not point.is_infinity()
            assert curve.scalar_mul(point, params.p, params.q).is_infinity()

    def test_roughly_uniform_on_toy_group(self, toy_group):
        """Chi-squared-ish sanity: a small group's subgroup points should
        all be reachable and no point should dominate."""
        params = toy_group.params
        rng = random.Random(42)
        counts = Counter(
            random_subgroup_point(params, rng) for _ in range(3000)
        )
        # Support should be large (order-p subgroup has p - 1 non-identity
        # points; p ~ 2^16, so 3000 draws should be almost all distinct).
        assert len(counts) > 2800
        assert max(counts.values()) <= 4

    def test_sign_of_y_varies(self, small_group):
        params = small_group.params
        rng = random.Random(5)
        ys = {random_subgroup_point(params, rng).y % 2 for _ in range(30)}
        assert ys == {0, 1}


def _reference_subgroup_point(params, rng):
    """The sampler as first written: Legendre symbol, then ``sqrt_mod``."""
    from repro.groups.curve import Point
    from repro.math.modular import is_quadratic_residue, sqrt_mod

    q = params.q
    while True:
        x = rng.randrange(q)
        rhs = (x * x * x + x) % q
        if rhs == 0 or not is_quadratic_residue(rhs, q):
            continue
        y = sqrt_mod(rhs, q)
        if rng.getrandbits(1):
            y = (-y) % q
        candidate = curve.scalar_mul(Point(x, y, False), params.h, q)
        if not candidate.is_infinity():
            return candidate


class TestOnePowSampler:
    def test_same_points_and_rng_stream_as_the_reference(self, toy_group, small_group):
        for group in (toy_group, small_group):
            fast, slow = random.Random(77), random.Random(77)
            for _ in range(60):
                assert random_subgroup_point(group.params, fast) == (
                    _reference_subgroup_point(group.params, slow)
                )
            assert fast.getstate() == slow.getstate()


class TestGTSampling:
    def test_order_p(self, small_group, rng):
        params = small_group.params
        for _ in range(10):
            value = random_gt_value(params, rng)
            assert not value.is_one()
            assert (value ** params.p).is_one()

    def test_distinct_draws(self, small_group, rng):
        params = small_group.params
        values = [random_gt_value(params, rng) for _ in range(20)]
        assert len({v.to_tuple() for v in values}) == 20

    def test_matches_pairing_subgroup(self, small_group, rng):
        """Sampled GT values must live in the same subgroup the pairing
        lands in: their product with pairing outputs stays order-p."""
        params = small_group.params
        value = random_gt_value(params, rng)
        z = small_group.pair(small_group.g, small_group.g)
        combined = z.value * value
        assert (combined ** params.p).is_one()
