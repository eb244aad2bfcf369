"""Canonical bit encoding of the values the schemes hold in memory.

The leakage model applies functions to *the contents of secret memory*,
so that content needs a well-defined bit representation.  ``encode``
dispatches on type and produces a :class:`~repro.utils.bits.BitString`:

* ``Z_p`` scalars -> fixed width ``ceil(log2 p)`` bits;
* curve points   -> x coordinate + sign bit of y (point compression),
  with a separate flag bit for the identity;
* ``F_{q^2}`` / GT elements -> both coordinates, fixed width;
* tuples / lists -> concatenation of the encodings of the members.

Fixed widths mean the size of a device's secret memory is a *function of
the scheme parameters only*, not of the particular values -- matching how
the paper counts ``m_1 = |sk_comm|`` etc.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import ParameterError, WireFormatError
from repro.utils.bits import BitString, concat_all


def int_width(modulus: int) -> int:
    """Bit width used for values in ``[0, modulus)``."""
    return max((modulus - 1).bit_length(), 1)


def encode_mod(value: int, modulus: int) -> BitString:
    """Encode a ``Z_modulus`` value at fixed width."""
    return BitString(value % modulus, int_width(modulus))


def encode_any(value: object) -> BitString:
    """Encode a value by structural dispatch.

    Supports ints (via their own bit length +1 -- only for ad-hoc use),
    objects exposing ``to_bits() -> BitString``, and nested sequences.
    Scheme code prefers the explicit fixed-width encoders.
    """
    if isinstance(value, BitString):
        return value
    to_bits = getattr(value, "to_bits", None)
    if callable(to_bits):
        return to_bits()
    if isinstance(value, bool):
        return BitString(int(value), 1)
    if isinstance(value, int):
        if value < 0:
            raise ParameterError("cannot canonically encode negative ints")
        return BitString(value, value.bit_length() + 1)
    if isinstance(value, (tuple, list)):
        return concat_all(encode_any(item) for item in value)
    if isinstance(value, bytes):
        return BitString.from_bytes(value)
    raise ParameterError(f"no canonical encoding for {type(value).__name__}")


def encode_sequence(values: Iterable[object]) -> BitString:
    """Encode an iterable of encodable values."""
    return concat_all(encode_any(v) for v in values)


# ---------------------------------------------------------------------------
# Wire codec: self-describing byte serialization of protocol payloads
# ---------------------------------------------------------------------------
#
# ``encode_any`` above is the *leakage-accounting* encoding: fixed-width,
# positional, and not self-describing -- it cannot be decoded without
# knowing the value's type in advance.  Transports need the opposite: a
# byte string that a remote party can parse back into the payload with no
# shared object references.  ``WireCodec`` provides that as a tagged
# format (one tag byte per value, varint lengths).  Group elements reuse
# their canonical compressed bit encodings, so the wire image of an
# element is exactly its transcript encoding plus the tag overhead.

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_STR = 0x04
_TAG_BYTES = 0x05
_TAG_BITS = 0x06
_TAG_TUPLE = 0x07
_TAG_LIST = 0x08
_TAG_G1 = 0x09
_TAG_GT = 0x0A
_TAG_HPSKE = 0x0B
_TAG_SCALAR = 0x0C

_TAG_NAMES = {
    _TAG_NONE: "None",
    _TAG_FALSE: "False",
    _TAG_TRUE: "True",
    _TAG_INT: "int",
    _TAG_STR: "str",
    _TAG_BYTES: "bytes",
    _TAG_BITS: "BitString",
    _TAG_TUPLE: "tuple",
    _TAG_LIST: "list",
    _TAG_G1: "G1Element",
    _TAG_GT: "GTElement",
    _TAG_HPSKE: "HPSKECiphertext",
    _TAG_SCALAR: "scalar",
}


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise WireFormatError("varints are non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise WireFormatError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 512:
            raise WireFormatError("varint too long")


def _write_bits(out: bytearray, bits: BitString) -> None:
    _write_varint(out, len(bits))
    if len(bits):  # to_bytes pads the empty string to one byte
        out.extend(bits.to_bytes())


def _read_bits(data: bytes, offset: int) -> tuple[BitString, int]:
    nbits, offset = _read_varint(data, offset)
    nbytes = (nbits + 7) // 8
    if offset + nbytes > len(data):
        raise WireFormatError("truncated bit string")
    value = int.from_bytes(data[offset : offset + nbytes], "big")
    if nbits and value >= (1 << nbits):
        raise WireFormatError("bit string has stray padding bits")
    return BitString(value, nbits), offset + nbytes


def wire_copy(payload: object) -> object:
    """``WireCodec.decode(encode(payload))`` without the bytes: fresh
    containers and wrappers over the payload's immutable leaves (ints,
    strings, frozen ``Point``/``Fq2`` values).  Raises
    :class:`WireFormatError` for anything ``encode`` rejects."""
    from repro.core.hpske import HPSKECiphertext
    from repro.groups.bilinear import G1Element, GTElement
    from repro.protocol.device import _ScalarInMemory

    def copy(value: object) -> object:
        if isinstance(value, GTElement):
            return GTElement(value.group, value.value)
        if isinstance(value, G1Element):
            return G1Element(value.group, value.point)
        if isinstance(value, (tuple, list)):
            items = [copy(item) for item in value]
            return tuple(items) if isinstance(value, tuple) else items
        if isinstance(value, HPSKECiphertext):
            return HPSKECiphertext(tuple(copy(c) for c in value.coins), copy(value.body))
        if isinstance(value, BitString):
            return BitString(value.value, len(value))
        if isinstance(value, _ScalarInMemory):
            return _ScalarInMemory(value.value, value.p)
        if isinstance(value, int) and value < 0:
            raise WireFormatError("varints are non-negative")
        if value is None or isinstance(value, (int, str, bytes)):
            return value
        raise WireFormatError(f"no wire encoding for {type(value).__name__}")

    return copy(payload)


class WireCodec:
    """Byte-level serialization of every payload type the protocols send.

    ``encode`` maps a payload to a self-describing byte string;
    ``decode`` parses it back into fresh objects (no references shared
    with the sender).  Decoding group elements needs a ``group``;
    ``check_subgroup`` controls whether decoded elements are verified to
    lie in the order-``p`` subgroup (always done for bytes that crossed
    a real wire, skippable for trusted in-process loopback).
    """

    def __init__(self, group=None, check_subgroup: bool = True) -> None:
        self.group = group
        self.check_subgroup = check_subgroup

    # -- encoding -----------------------------------------------------------

    def encode(self, payload: object) -> bytes:
        out = bytearray()
        self._encode_into(out, payload)
        return bytes(out)

    def _encode_into(self, out: bytearray, value: object) -> None:
        from repro.core.hpske import HPSKECiphertext
        from repro.groups.bilinear import G1Element, GTElement
        from repro.protocol.device import _ScalarInMemory

        if value is None:
            out.append(_TAG_NONE)
        elif isinstance(value, bool):
            out.append(_TAG_TRUE if value else _TAG_FALSE)
        elif isinstance(value, int):
            out.append(_TAG_INT)
            _write_varint(out, value)
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(_TAG_STR)
            _write_varint(out, len(raw))
            out.extend(raw)
        elif isinstance(value, bytes):
            out.append(_TAG_BYTES)
            _write_varint(out, len(value))
            out.extend(value)
        elif isinstance(value, BitString):
            out.append(_TAG_BITS)
            _write_bits(out, value)
        elif isinstance(value, G1Element):
            out.append(_TAG_G1)
            _write_bits(out, value.to_bits())
        elif isinstance(value, GTElement):
            out.append(_TAG_GT)
            _write_bits(out, value.to_bits())
        elif isinstance(value, HPSKECiphertext):
            out.append(_TAG_HPSKE)
            _write_varint(out, value.kappa)
            for element in value.elements():
                self._encode_into(out, element)
        elif isinstance(value, _ScalarInMemory):
            out.append(_TAG_SCALAR)
            _write_varint(out, value.value)
            _write_varint(out, value.p)
        elif isinstance(value, (tuple, list)):
            out.append(_TAG_TUPLE if isinstance(value, tuple) else _TAG_LIST)
            _write_varint(out, len(value))
            for item in value:
                self._encode_into(out, item)
        else:
            raise WireFormatError(
                f"no wire encoding for {type(value).__name__}"
            )

    # -- decoding -----------------------------------------------------------

    def decode(self, data: bytes) -> object:
        value, offset = self._decode_from(data, 0)
        if offset != len(data):
            raise WireFormatError(
                f"{len(data) - offset} trailing bytes after payload"
            )
        return value

    def _require_group(self, tag: int):
        if self.group is None:
            raise WireFormatError(
                f"decoding a {_TAG_NAMES[tag]} needs a group-bound codec"
            )
        return self.group

    def _decode_from(self, data: bytes, offset: int) -> tuple[object, int]:
        from repro.core.hpske import HPSKECiphertext
        from repro.groups.encoding import decode_g1, decode_gt
        from repro.protocol.device import _ScalarInMemory

        if offset >= len(data):
            raise WireFormatError("truncated payload: missing tag")
        tag = data[offset]
        offset += 1
        if tag == _TAG_NONE:
            return None, offset
        if tag == _TAG_FALSE:
            return False, offset
        if tag == _TAG_TRUE:
            return True, offset
        if tag == _TAG_INT:
            return _read_varint(data, offset)
        if tag == _TAG_STR:
            length, offset = _read_varint(data, offset)
            if offset + length > len(data):
                raise WireFormatError("truncated string")
            return data[offset : offset + length].decode("utf-8"), offset + length
        if tag == _TAG_BYTES:
            length, offset = _read_varint(data, offset)
            if offset + length > len(data):
                raise WireFormatError("truncated bytes")
            return data[offset : offset + length], offset + length
        if tag == _TAG_BITS:
            return _read_bits(data, offset)
        if tag == _TAG_G1:
            bits, offset = _read_bits(data, offset)
            group = self._require_group(tag)
            return decode_g1(group, bits, check_subgroup=self.check_subgroup), offset
        if tag == _TAG_GT:
            bits, offset = _read_bits(data, offset)
            group = self._require_group(tag)
            return decode_gt(group, bits, check_subgroup=self.check_subgroup), offset
        if tag == _TAG_HPSKE:
            kappa, offset = _read_varint(data, offset)
            elements = []
            for _ in range(kappa + 1):
                element, offset = self._decode_from(data, offset)
                elements.append(element)
            return HPSKECiphertext(tuple(elements[:-1]), elements[-1]), offset
        if tag == _TAG_SCALAR:
            value, offset = _read_varint(data, offset)
            p, offset = _read_varint(data, offset)
            if p < 2:
                raise WireFormatError("scalar modulus must be >= 2")
            return _ScalarInMemory(value, p), offset
        if tag in (_TAG_TUPLE, _TAG_LIST):
            length, offset = _read_varint(data, offset)
            items = []
            for _ in range(length):
                item, offset = self._decode_from(data, offset)
                items.append(item)
            return (tuple(items) if tag == _TAG_TUPLE else items), offset
        raise WireFormatError(f"unknown wire tag 0x{tag:02x}")
