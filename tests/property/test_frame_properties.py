"""Property-based tests: framing never fails with an untyped error
(hypothesis).

Whatever bytes a peer sends before closing its end, :func:`recv_frame`
either returns a ``(dict, bytes)`` frame or raises a
:class:`~repro.errors.ReproError` the service maps to a response code.
"""

import json
import socket

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.protocol.transport import recv_frame

COMMON = dict(max_examples=150, deadline=None)

#: Arbitrary JSON values, so well-formed headers of the wrong shape
#: (lists, strings, numbers) come up as often as objects.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _framed(header: bytes, payload: bytes, cut: int) -> bytes:
    """A frame with the given raw header bytes, truncated to ``cut``."""
    return (
        len(header).to_bytes(4, "big")
        + header
        + len(payload).to_bytes(8, "big")
        + payload
    )[:cut]


#: Arbitrary bytes, plus frames (valid or not inside) cut anywhere.
prefixes = st.one_of(
    st.binary(max_size=256),
    st.builds(
        _framed,
        st.binary(max_size=64)
        | json_values.map(lambda value: json.dumps(value).encode("utf-8")),
        st.binary(max_size=64),
        st.integers(min_value=0, max_value=512),
    ),
)


def _recv_prefix(raw: bytes):
    reader, writer = socket.socketpair()
    try:
        writer.sendall(raw)
        writer.shutdown(socket.SHUT_WR)  # EOF after the prefix
        reader.settimeout(5.0)
        return recv_frame(reader, "test", timeout=5.0)
    finally:
        reader.close()
        writer.close()


class TestRecvFrameProperties:
    @given(raw=prefixes)
    @settings(**COMMON)
    @example(raw=(0xFFFFFFFF).to_bytes(4, "big"))
    @example(raw=b"\x00\x00\x00\x02{}" + (1 << 63).to_bytes(8, "big"))
    @example(raw=(100_000).to_bytes(4, "big") + b"[" * 100_000)
    def test_frame_or_typed_error(self, raw):
        try:
            header, payload = _recv_prefix(raw)
        except ReproError:
            return
        assert isinstance(header, dict)
        assert isinstance(payload, bytes)
