"""Unit tests for canonical encoding."""

import pytest

from repro.errors import ParameterError
from repro.utils.bits import BitString
from repro.utils.serialization import encode_any, encode_mod, encode_sequence, int_width


class TestIntWidth:
    def test_powers_of_two(self):
        assert int_width(2) == 1
        assert int_width(3) == 2
        assert int_width(256) == 8
        assert int_width(257) == 9

    def test_minimum_one(self):
        assert int_width(1) == 1


class TestEncodeMod:
    def test_fixed_width(self):
        p = 101
        for v in (0, 1, 50, 100):
            assert len(encode_mod(v, p)) == 7

    def test_reduction(self):
        assert encode_mod(105, 101) == encode_mod(4, 101)

    def test_distinct_values_distinct_encodings(self):
        p = 101
        encodings = {encode_mod(v, p) for v in range(p)}
        assert len(encodings) == p


class TestEncodeAny:
    def test_bitstring_passthrough(self):
        b = BitString(0b101, 3)
        assert encode_any(b) is b

    def test_bool(self):
        assert encode_any(True) == BitString(1, 1)
        assert encode_any(False) == BitString(0, 1)

    def test_int(self):
        encoded = encode_any(5)
        assert int(encoded) == 5

    def test_negative_int_raises(self):
        with pytest.raises(ParameterError):
            encode_any(-1)

    def test_nested_sequences(self):
        encoded = encode_any([BitString(1, 1), (BitString(0, 1), BitString(1, 1))])
        assert list(encoded) == [1, 0, 1]

    def test_bytes(self):
        assert encode_any(b"\xff") == BitString(0xFF, 8)

    def test_object_with_to_bits(self):
        class Custom:
            def to_bits(self):
                return BitString(0b11, 2)

        assert encode_any(Custom()) == BitString(0b11, 2)

    def test_unknown_type_raises(self):
        with pytest.raises(ParameterError):
            encode_any(3.14)

    def test_encode_sequence(self):
        out = encode_sequence([BitString(1, 1), BitString(1, 1)])
        assert out == BitString(0b11, 2)


class TestGroupElementEncodings:
    def test_g1_roundtrip_distinct(self, small_group, rng):
        elements = [small_group.random_g(rng) for _ in range(10)]
        encodings = {e.to_bits() for e in elements}
        assert len(encodings) == len(set(elements))

    def test_g1_fixed_width(self, small_group, rng):
        sizes = {len(small_group.random_g(rng).to_bits()) for _ in range(5)}
        assert sizes == {small_group.g_element_bits()}

    def test_gt_fixed_width(self, small_group, rng):
        sizes = {len(small_group.random_gt(rng).to_bits()) for _ in range(5)}
        assert sizes == {small_group.gt_element_bits()}

    def test_identity_encoding_distinct(self, small_group, rng):
        identity = small_group.g_identity()
        other = small_group.random_g(rng)
        assert identity.to_bits() != other.to_bits()


class TestWireCodec:
    """Round-trip property: every payload type the protocols put on the
    wire decodes back bit-exactly, into fresh objects."""

    def _codec(self, small_group):
        from repro.utils.serialization import WireCodec

        return WireCodec(small_group, check_subgroup=True)

    def roundtrip(self, codec, payload):
        wire = codec.encode(payload)
        assert isinstance(wire, bytes)
        decoded = codec.decode(wire)
        # Bit-exact: re-encoding the decoded value reproduces the wire
        # bytes, so nothing was lost or canonicalized differently.
        assert codec.encode(decoded) == wire
        return decoded

    def test_plain_values(self, small_group):
        codec = self._codec(small_group)
        for payload in (None, True, False, 0, 1, 2**70, "", "alice", b"", b"\x00\xff"):
            assert self.roundtrip(codec, payload) == payload

    def test_bitstrings_bit_exact(self, small_group):
        codec = self._codec(small_group)
        for value, width in ((0, 0), (1, 1), (0b101, 3), (0, 9), (0b10110111, 8)):
            payload = BitString(value, width)
            decoded = self.roundtrip(codec, payload)
            assert decoded == payload
            assert len(decoded) == width

    def test_group_elements_fresh_and_equal(self, small_group, rng):
        codec = self._codec(small_group)
        for sample in (small_group.random_g, small_group.random_gt):
            element = sample(rng)
            decoded = self.roundtrip(codec, element)
            assert decoded == element
            assert decoded is not element
            assert decoded.to_bits() == element.to_bits()

    def test_identity_elements(self, small_group):
        codec = self._codec(small_group)
        assert self.roundtrip(codec, small_group.g_identity()) == small_group.g_identity()
        assert self.roundtrip(codec, small_group.gt_identity()) == small_group.gt_identity()

    def test_scalars(self, small_group):
        from repro.protocol.device import _ScalarInMemory

        codec = self._codec(small_group)
        scalar = _ScalarInMemory(12345, small_group.p)
        decoded = self.roundtrip(codec, scalar)
        assert decoded == scalar
        assert decoded.to_bits() == scalar.to_bits()

    def test_hpske_ciphertexts_both_spaces(self, small_group, rng):
        import random as _random

        from repro.core.hpske import HPSKE

        codec = self._codec(small_group)
        for space, sample in (("G", small_group.random_g), ("GT", small_group.random_gt)):
            hpske = HPSKE(small_group, kappa=3, space=space)
            key = hpske.keygen(_random.Random(8))
            ct = hpske.encrypt(key, sample(rng), _random.Random(9))
            decoded = self.roundtrip(codec, ct)
            assert decoded.kappa == ct.kappa
            assert decoded.coins == ct.coins
            assert decoded.body == ct.body
            assert hpske.decrypt(key, decoded) == hpske.decrypt(key, ct)

    def test_nested_protocol_shaped_payload(self, small_group, rng):
        """The shape the schemes actually send: tuples of tuples of
        HPSKE ciphertexts, plus a trailing single ciphertext."""
        import random as _random

        from repro.core.hpske import HPSKE

        codec = self._codec(small_group)
        hpske = HPSKE(small_group, kappa=2, space="G")
        key = hpske.keygen(_random.Random(1))
        cts = [hpske.encrypt(key, small_group.random_g(rng), _random.Random(i)) for i in range(5)]
        payload = (((cts[0], cts[1]), (cts[2], cts[3])), cts[4])
        decoded = self.roundtrip(codec, payload)
        assert isinstance(decoded, tuple) and isinstance(decoded[0], tuple)
        assert decoded[0][1][0].body == cts[2].body

    def test_random_payload_property(self, small_group):
        """Property test: randomized nested payloads drawn from the full
        wire grammar round-trip bit-exactly."""
        import random as _random

        codec = self._codec(small_group)

        def build(rnd, depth):
            kinds = ["none", "bool", "int", "str", "bytes", "bits", "g", "gt", "scalar"]
            if depth > 0:
                kinds += ["tuple", "list"] * 2
            kind = rnd.choice(kinds)
            if kind == "none":
                return None
            if kind == "bool":
                return rnd.random() < 0.5
            if kind == "int":
                return rnd.randrange(0, 2**40)
            if kind == "str":
                return "".join(rnd.choice("abcXYZ.09 é") for _ in range(rnd.randrange(6)))
            if kind == "bytes":
                return bytes(rnd.randrange(256) for _ in range(rnd.randrange(6)))
            if kind == "bits":
                width = rnd.randrange(0, 24)
                return BitString(rnd.randrange(1 << width) if width else 0, width)
            if kind == "g":
                return small_group.random_g(rnd)
            if kind == "gt":
                return small_group.random_gt(rnd)
            if kind == "scalar":
                from repro.protocol.device import _ScalarInMemory

                return _ScalarInMemory(rnd.randrange(small_group.p), small_group.p)
            items = [build(rnd, depth - 1) for _ in range(rnd.randrange(4))]
            return tuple(items) if kind == "tuple" else items

        for seed in range(40):
            rnd = _random.Random(seed)
            payload = build(rnd, depth=3)
            wire = codec.encode(payload)
            assert codec.encode(codec.decode(wire)) == wire

    def test_unencodable_type_raises(self, small_group):
        from repro.errors import WireFormatError

        with pytest.raises(WireFormatError):
            self._codec(small_group).encode(3.14)

    def test_trailing_bytes_rejected(self, small_group):
        from repro.errors import WireFormatError

        codec = self._codec(small_group)
        with pytest.raises(WireFormatError):
            codec.decode(codec.encode(True) + b"\x00")

    def test_truncated_payload_rejected(self, small_group, rng):
        from repro.errors import WireFormatError

        codec = self._codec(small_group)
        wire = codec.encode(small_group.random_g(rng))
        with pytest.raises(WireFormatError):
            codec.decode(wire[:-1])

    def test_unknown_tag_rejected(self, small_group):
        from repro.errors import WireFormatError

        with pytest.raises(WireFormatError):
            self._codec(small_group).decode(b"\x7f")

    def test_group_elements_need_bound_group(self, small_group, rng):
        from repro.errors import WireFormatError
        from repro.utils.serialization import WireCodec

        wire = self._codec(small_group).encode(small_group.random_g(rng))
        with pytest.raises(WireFormatError):
            WireCodec(group=None).decode(wire)
