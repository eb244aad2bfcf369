"""In-process delivery by structural copy.

``InMemoryTransport.send`` hands the receiver ``wire_copy`` of the
payload instead of a byte round trip.  These tests pin that the copy is
*exactly* what ``decode(encode(x))`` would have produced, for every type
of the wire format, and that it shares no container or wrapper object
with the sender -- only immutable leaves.
"""

import random

import pytest

from repro.core.hpske import HPSKE, HPSKECiphertext
from repro.errors import WireFormatError
from repro.groups.bilinear import G1Element, GTElement
from repro.groups.curve import Point
from repro.math.fields import Fq2
from repro.protocol.device import _ScalarInMemory
from repro.protocol.transport import InMemoryTransport
from repro.utils.bits import BitString
from repro.utils.serialization import WireCodec, wire_copy

#: Wire-format types whose instances must never be shared.
WRAPPERS = (tuple, list, BitString, G1Element, GTElement, HPSKECiphertext, _ScalarInMemory)


def _structure(value):
    """A fully explicit image of a payload: types and leaf values."""
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [_structure(item) for item in value])
    if isinstance(value, BitString):
        return ("BitString", value.value, len(value))
    if isinstance(value, G1Element):
        point = value.point
        return ("G1", type(point.x), point.x, point.y, point.infinity, id(value.group))
    if isinstance(value, GTElement):
        return ("GT", value.value.a, value.value.b, value.value.q, id(value.group))
    if isinstance(value, HPSKECiphertext):
        return ("HPSKE", [_structure(e) for e in value.elements()])
    if isinstance(value, _ScalarInMemory):
        return ("scalar", value.value, value.p)
    return (type(value).__name__, value)


def _assert_no_shared_wrappers(sent, delivered):
    if isinstance(sent, WRAPPERS) and sent != ():  # () is an interned singleton
        assert delivered is not sent, f"shared {type(sent).__name__}"
    if isinstance(sent, (tuple, list)):
        for a, b in zip(sent, delivered):
            _assert_no_shared_wrappers(a, b)
    elif isinstance(sent, HPSKECiphertext):
        assert delivered.coins is not sent.coins
        for a, b in zip(sent.elements(), delivered.elements()):
            _assert_no_shared_wrappers(a, b)
    elif isinstance(sent, G1Element):
        assert isinstance(delivered.point, Point)
    elif isinstance(sent, GTElement):
        assert isinstance(delivered.value, Fq2)


def _payloads(group, rng):
    g_scheme = HPSKE(group, 3, space="G")
    gt_scheme = HPSKE(group, 2, space="GT")
    g_ct = g_scheme.encrypt(g_scheme.keygen(rng), group.random_g(rng), rng)
    gt_ct = gt_scheme.encrypt(gt_scheme.keygen(rng), group.random_gt(rng), rng)
    g, gt = group.random_g(rng), group.random_gt(rng)
    return {
        "none": None,
        "true": True,
        "false": False,
        "int": 12345678901234567890,
        "zero": 0,
        "str": "dec.d",
        "bytes": b"\x00\x01wire",
        "bits": BitString(0b1011, 4),
        "empty-bits": BitString.empty(),
        "g1": g,
        "g1-identity": group.g_identity(),
        "gt": gt,
        "gt-identity": group.gt_identity(),
        "hpske-g": g_ct,
        "hpske-gt": gt_ct,
        "scalar": _ScalarInMemory(rng.randrange(group.p), group.p),
        "tuple": (g, gt, 7),
        "empty-tuple": (),
        "list": [gt_ct, [g, BitString(1, 1)], ()],
        "nested": ([g_ct, (gt, _ScalarInMemory(3, group.p))], [[]], "x"),
    }


@pytest.fixture(scope="module")
def payloads(small_group):
    return _payloads(small_group, random.Random(20120716))


PAYLOAD_NAMES = [
    "none", "true", "false", "int", "zero", "str", "bytes", "bits",
    "empty-bits", "g1", "g1-identity", "gt", "gt-identity", "hpske-g",
    "hpske-gt", "scalar", "tuple", "empty-tuple", "list", "nested",
]


def test_every_payload_kind_is_parametrized(small_group):
    assert sorted(_payloads(small_group, random.Random(0))) == sorted(PAYLOAD_NAMES)


@pytest.mark.parametrize("name", PAYLOAD_NAMES)
class TestCopyMatchesRoundTrip:
    def test_copy_equals_decode_of_encode(self, small_group, payloads, name):
        payload = payloads[name]
        codec = WireCodec(small_group, check_subgroup=False)
        expected = codec.decode(codec.encode(payload))
        copied = wire_copy(payload)
        assert _structure(copied) == _structure(expected)
        assert copied == expected

    def test_delivery_shares_no_wrapper_with_sender(self, small_group, payloads, name):
        payload = payloads[name]
        transport = InMemoryTransport()
        transport.attach_group(small_group)
        delivered = transport.send("P1", "P2", name, payload)
        assert delivered == payload
        _assert_no_shared_wrappers(payload, delivered)
        (message,) = transport.transcript()
        assert message.payload is payload  # the transcript keeps the sender's object


class TestOutsideTheWireFormat:
    @pytest.mark.parametrize("payload", [object(), [1, -2], (b"ok", {"a": 1}), 1.5])
    def test_passes_through_by_reference(self, payload):
        transport = InMemoryTransport()
        assert transport.send("P1", "P2", "adhoc", payload) is payload

    def test_copy_rejects_what_encode_rejects(self, small_group):
        codec = WireCodec(small_group)
        for payload in (object(), [1, -2], {"a": 1}):
            with pytest.raises(WireFormatError):
                wire_copy(payload)
            with pytest.raises(WireFormatError):
                codec.encode(payload)
