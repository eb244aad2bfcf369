"""The shared window-selection cost models (:mod:`repro.groups.windows`).

The Straus and Pippenger models used to live inline in ``fastops``; the
first two test classes pin the shared module to those historical
formulas exactly (any drift would silently change which kernel variant
every multiexp call site runs).  The rest covers the fixed-base model
and its consumer :class:`~repro.groups.precompute.FixedBaseExp`.
"""

import random

import pytest

from repro.errors import ParameterError
from repro.groups import preset_group
from repro.groups.precompute import FixedBaseExp, PrecomputedEncryptor
from repro.groups.windows import (
    MAX_BUCKET_WINDOW,
    MAX_FIXED_BASE_WINDOW,
    MAX_STRAUS_WINDOW,
    bucket_window,
    fixed_base_window,
    straus_window,
)

SWEEP = [
    (terms, bits)
    for terms in (1, 2, 3, 7, 16, 26, 64, 130, 512, 2048)
    for bits in (1, 8, 17, 32, 64, 128, 256, 521)
]


def historical_straus(terms: int, bits: int) -> int:
    """The pre-refactor ``fastops._window_size`` formula, verbatim."""
    best_w, best_cost = 1, None
    for w in range(1, 8):
        cost = terms * ((1 << w) - 2) + bits + terms * (bits / w) * (1 - 2.0 ** -w)
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def historical_bucket(terms: int, bits: int) -> int:
    """The pre-refactor ``fastops._bucket_window_size`` formula, verbatim."""
    best_w, best_cost = 1, None
    for w in range(1, 12):
        cost = bits + (bits / w) * (terms + (1 << (w + 1)))
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


class TestStrausWindow:
    @pytest.mark.parametrize("terms,bits", SWEEP)
    def test_matches_historical_formula(self, terms, bits):
        assert straus_window(terms, bits) == historical_straus(terms, bits)

    def test_pinned_values(self):
        # Spot values so a change to *both* the model and the historical
        # reimplementation above still trips something.
        assert straus_window(8, 32) == 2
        assert straus_window(26, 64) == 3
        assert straus_window(130, 256) == 4

    def test_bounds(self):
        for terms, bits in SWEEP:
            assert 1 <= straus_window(terms, bits) <= MAX_STRAUS_WINDOW


class TestBucketWindow:
    @pytest.mark.parametrize("terms,bits", SWEEP)
    def test_matches_historical_formula(self, terms, bits):
        assert bucket_window(terms, bits) == historical_bucket(terms, bits)

    def test_pinned_values(self):
        assert bucket_window(26, 64) == 3
        assert bucket_window(130, 128) == 5
        assert bucket_window(512, 256) == 6

    def test_bounds(self):
        for terms, bits in SWEEP:
            assert 1 <= bucket_window(terms, bits) <= MAX_BUCKET_WINDOW

    def test_wide_windows_need_many_terms(self):
        # The bucket fold's 2^{w+1} term keeps windows narrow until the
        # term count dominates it.
        assert bucket_window(4, 256) < bucket_window(4096, 256)


class TestFixedBaseWindow:
    def test_pinned_values(self):
        assert fixed_base_window(32, expected_uses=1) == 1
        assert fixed_base_window(32, expected_uses=16) == 4
        assert fixed_base_window(256, expected_uses=256) == 6
        assert fixed_base_window(256, expected_uses=4096) == 10

    def test_bounds_and_monotonicity(self):
        previous = 0
        for uses in (1, 4, 16, 64, 256, 1024, 4096):
            window = fixed_base_window(128, expected_uses=uses)
            assert 1 <= window <= MAX_FIXED_BASE_WINDOW
            # More uses amortise a bigger table: never a narrower window.
            assert window >= previous
            previous = window

    def test_single_use_builds_no_table(self):
        # One exponentiation cannot amortise any table: w=1 minimises.
        for bits in (16, 64, 256, 1024):
            assert fixed_base_window(bits, expected_uses=1) == 1


class TestFixedBaseExpAutoWindow:
    @pytest.fixture()
    def rng(self):
        return random.Random(0x51DE)

    def test_auto_window_matches_cost_model(self, small_group):
        table = FixedBaseExp(small_group.g, small_group.p, window=None)
        assert table.window == fixed_base_window((small_group.p - 1).bit_length())

    def test_auto_window_pow_matches_operator(self, small_group, rng):
        table = FixedBaseExp(small_group.g, small_group.p, window=None)
        for _ in range(8):
            exponent = rng.randrange(small_group.p)
            assert table.pow(exponent) == small_group.g ** exponent

    def test_explicit_window_still_validated(self, small_group):
        with pytest.raises(ParameterError, match=r"\[1, 16\]"):
            FixedBaseExp(small_group.g, small_group.p, window=0)
        with pytest.raises(ParameterError, match=r"\[1, 16\]"):
            FixedBaseExp(small_group.g, small_group.p, window=17)

    def test_precomputed_encryptor_accepts_auto_window(self, small_group, rng):
        from repro.core.dlr import DLR
        from repro.core.params import DLRParams

        scheme = DLR(DLRParams(group=small_group, lam=32))
        generation = scheme.generate(rng)
        encryptor = PrecomputedEncryptor(generation.public_key, window=None)
        assert encryptor._g_table.window == fixed_base_window(
            (small_group.p - 1).bit_length()
        )
        message = small_group.random_gt(rng)
        ciphertext = encryptor.encrypt(message, rng)
        assert scheme.reference_decrypt(
            generation.share1, generation.share2, ciphertext
        ) == message
