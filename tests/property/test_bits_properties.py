"""Property-based tests: BitString invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bits import BitString, concat_all

bitstrings = st.builds(
    lambda bits: BitString.from_bits(bits),
    st.lists(st.integers(min_value=0, max_value=1), max_size=64),
)

COMMON = dict(max_examples=60, deadline=None)


class TestBitStringProperties:
    @given(b=bitstrings)
    @settings(**COMMON)
    def test_roundtrip_through_bits(self, b):
        assert BitString.from_bits(list(b)) == b

    @given(a=bitstrings, b=bitstrings)
    @settings(**COMMON)
    def test_concat_length(self, a, b):
        assert len(a + b) == len(a) + len(b)

    @given(a=bitstrings, b=bitstrings)
    @settings(**COMMON)
    def test_concat_content(self, a, b):
        assert list(a + b) == list(a) + list(b)

    @given(a=bitstrings, b=bitstrings, c=bitstrings)
    @settings(**COMMON)
    def test_concat_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(b=bitstrings)
    @settings(**COMMON)
    def test_xor_self_is_zero(self, b):
        assert b.xor(b).hamming_weight() == 0

    @given(a=bitstrings)
    @settings(**COMMON)
    def test_xor_identity(self, a):
        zero = BitString(0, len(a))
        assert a.xor(zero) == a

    @given(b=bitstrings)
    @settings(**COMMON)
    def test_hamming_weight_counts_ones(self, b):
        assert b.hamming_weight() == sum(b)

    @given(b=bitstrings, cut=st.integers(min_value=0, max_value=64))
    @settings(**COMMON)
    def test_slicing_partition(self, b, cut):
        cut = min(cut, len(b))
        left, right = b[:cut], b[cut:]
        assert left + right == b

    @given(b=bitstrings)
    @settings(**COMMON)
    def test_bytes_roundtrip_preserves_value(self, b):
        restored = BitString.from_bytes(b.to_bytes())
        # to_bytes pads to a byte boundary; the value survives.
        assert int(restored) == int(b)

    @given(pieces=st.lists(bitstrings, max_size=8))
    @settings(**COMMON)
    def test_concat_all_matches_fold(self, pieces):
        folded = BitString.empty()
        for piece in pieces:
            folded = folded + piece
        assert concat_all(pieces) == folded


bounds = st.one_of(st.none(), st.integers(min_value=-80, max_value=80))


class TestSliceAndConcatAgainstBitwiseReference:
    """The shift-and-mask slice and the one-accumulator ``concat_all``
    must agree with the plain list-of-bits definitions."""

    @given(b=bitstrings, start=bounds, stop=bounds)
    @settings(max_examples=200, deadline=None)
    def test_slice_matches_list_slice(self, b, start, stop):
        sliced = b[start:stop]
        assert list(sliced) == list(b)[start:stop]
        assert sliced == BitString.from_bits(list(b)[start:stop])

    @given(b=bitstrings)
    @settings(**COMMON)
    def test_full_width_and_empty_slices(self, b):
        assert b[:] == b
        assert b[0 : len(b)] == b
        assert b[-len(b) or 0 :] == b
        assert b[len(b) :] == BitString.empty()
        assert b[5:2] == BitString.empty()
        assert b[-1:-1] == BitString.empty()

    @given(pieces=st.lists(bitstrings, max_size=12))
    @settings(**COMMON)
    def test_concat_all_matches_bitwise_reference(self, pieces):
        reference = [bit for piece in pieces for bit in piece]
        joined = concat_all(pieces)
        assert list(joined) == reference
        assert len(joined) == len(reference)
        assert concat_all(iter(pieces)) == joined
