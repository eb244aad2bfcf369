"""Pluggable transports carrying the public protocol channel.

Everything sent between the two devices is public: the adversary's view
includes the full transcript ``comm^t`` (section 3.2), and leakage
functions may depend on it.  Every transport therefore records each
message verbatim and exposes the same transcript/stat surface, defined
exactly once on :class:`Transport`.

Three implementations:

* :class:`InMemoryTransport` -- the classic single-process channel (the
  old ``Channel``).  The receiver gets a fresh copy: new containers and
  wrappers over immutable leaves (:func:`~repro.utils.serialization.wire_copy`),
  so no mutable object is ever aliased between the two devices' memories.
* :class:`SocketTransport` -- P1 and P2 in separate threads over a local
  ``socketpair``; frames are length-prefixed wire-codec bytes, decoded
  with the full subgroup check.
* :class:`~repro.protocol.faults.FaultyTransport` -- wraps any transport
  and injects faults at send boundaries.

The transcript records the *sender-side* payload object (what was put on
the wire), so transcript bits are independent of which transport carried
them -- the golden-transcript tests pin this down.  Bit counts sum the
per-message :attr:`Message.bits`, each encoded once.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass
from functools import cached_property

from repro.errors import PeerDisconnected, TransportTimeout, WireFormatError
from repro.utils.bits import BitString, concat_all
from repro.utils.serialization import WireCodec, encode_any, wire_copy


# ---------------------------------------------------------------------------
# Length-prefixed framing (shared by SocketTransport and repro.service)
# ---------------------------------------------------------------------------
#
# One frame is ``[4-byte header length][JSON header][8-byte payload
# length][payload bytes]``, both integers big-endian.  The header is a
# flat JSON object (routing metadata); the payload is opaque bytes --
# wire-codec protocol elements for the device channel, request/response
# bodies for the key service.
#
# Service request headers may additionally carry *trace context*:
# optional ``trace_id`` and ``parent_span`` fields stamped by a tracing
# ``ServiceClient`` (see ``repro.telemetry.tracer.SpanContext``).  They
# are advisory routing metadata like ``request_id``: servers that do not
# know them ignore them, malformed values degrade to "no context", and
# they never touch the device-channel protocol frames -- golden
# transcripts are unaffected.


def encode_frame(header: dict, payload: bytes) -> bytes:
    """Serialize one frame; the inverse of :func:`recv_frame`."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return (
        len(header_bytes).to_bytes(4, "big")
        + header_bytes
        + len(payload).to_bytes(8, "big")
        + payload
    )


def read_exact(endpoint: socket.socket, n: int, who: str, timeout=None) -> bytes:
    """Read exactly ``n`` bytes, classifying every socket failure.

    A silent peer surfaces as :class:`~repro.errors.TransportTimeout`
    (transient: the peer is slow, not known dead), a closed or broken
    endpoint as :class:`~repro.errors.PeerDisconnected` -- never a raw
    ``socket.timeout``/``OSError`` that a supervisor cannot classify.
    """
    chunks = bytearray()
    while len(chunks) < n:
        try:
            chunk = endpoint.recv(n - len(chunks))
        except socket.timeout as exc:
            suffix = "" if timeout is None else f" within {timeout}s"
            raise TransportTimeout(
                f"{who} read no frame{suffix}", timeout=timeout
            ) from exc
        except OSError as exc:
            raise PeerDisconnected(f"{who} read failed mid-frame") from exc
        if not chunk:
            raise PeerDisconnected(f"{who} saw EOF from its peer")
        chunks.extend(chunk)
    return bytes(chunks)


def recv_frame(endpoint: socket.socket, who: str, timeout=None) -> tuple[dict, bytes]:
    """Read one complete frame: ``(header, payload bytes)``."""
    header_len = int.from_bytes(read_exact(endpoint, 4, who, timeout), "big")
    try:
        header = json.loads(read_exact(endpoint, header_len, who, timeout))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"{who} received an undecodable frame header") from exc
    if not isinstance(header, dict):
        raise WireFormatError(
            f"{who} received a non-object frame header ({type(header).__name__})"
        )
    payload_len = int.from_bytes(read_exact(endpoint, 8, who, timeout), "big")
    payload = read_exact(endpoint, payload_len, who, timeout)
    return header, payload


@dataclass(frozen=True)
class Message:
    """One message on the public channel."""

    sender: str
    recipient: str
    label: str
    payload: object
    period: int

    def to_bits(self) -> BitString:
        return encode_any(self.payload)

    @cached_property
    def bits(self) -> int:
        """Length of :meth:`to_bits`, encoded once (on first use)."""
        return len(self.to_bits())


class Transport:
    """Base transport: transcript recording plus the queryable stat surface.

    Subclasses implement :meth:`send` (and, for ``threaded`` transports,
    the endpoint management in :meth:`open`/:meth:`recv`/:meth:`close`).
    The read API below -- ``transcript``, ``bits_on_wire``, ... -- is the
    single implementation every transport (and every wrapper) shares.
    """

    #: Whether the two parties run in separate threads with blocking
    #: ``recv`` (socket-style) rather than an in-process rendezvous.
    threaded = False
    #: Optional per-request hook called with the message label before
    #: each send is recorded.  The key service installs a deadline check
    #: here for the duration of one request, so an expired deadline
    #: aborts *between* protocol steps (the staged-commit machinery
    #: rolls the period back) instead of burning a full period.
    step_hook = None

    def __init__(self) -> None:
        self._messages: list[Message] = []
        self._period = 0
        self._group = None

    # -- codec binding -----------------------------------------------------

    def attach_group(self, group) -> None:
        """Bind the codec to a bilinear group so group elements decode
        (:meth:`ProtocolEngine.run` does this before every protocol)."""
        if group is not None:
            self._group = group

    # -- transcript recording ---------------------------------------------

    @property
    def messages(self) -> list[Message]:
        return self._messages

    @property
    def current_period(self) -> int:
        return self._period

    def advance_period(self) -> None:
        self._period += 1

    def record(self, sender: str, recipient: str, label: str, payload: object) -> Message:
        """Append a frame to the public transcript (sender-side payload)."""
        if self.step_hook is not None:
            self.step_hook(label)
        message = Message(sender, recipient, label, payload, self.current_period)
        self.messages.append(message)
        return message

    def prune(self, before_period: int) -> int:
        """Drop transcript messages from periods before ``before_period``.

        Long-running services commit a period and never look at its
        transcript again; without pruning the in-memory transcript grows
        without bound.  Callers that need whole-lifecycle transcripts
        (golden tests, leakage analyses) simply never prune.  Returns
        the number of messages dropped.
        """
        kept = [m for m in self._messages if m.period >= before_period]
        dropped = len(self._messages) - len(kept)
        self._messages[:] = kept
        return dropped

    # -- sending / receiving ----------------------------------------------

    def send(self, sender: str, recipient: str, label: str, payload: object) -> object:
        raise NotImplementedError

    def open(self, party_a: str, party_b: str) -> None:
        """Set up per-party endpoints (threaded transports only)."""

    def recv(self, party: str) -> tuple[str, str, object]:
        """Blocking receive for ``party``: ``(sender, label, payload)``."""
        raise NotImplementedError(f"{type(self).__name__} has no blocking recv")

    def shutdown_party(self, party: str) -> None:
        """Close one party's endpoint (signals EOF to the peer)."""

    def close(self) -> None:
        """Tear down any endpoints; the transcript stays readable."""

    # -- the queryable stat surface (implemented once) ---------------------

    def transcript(self, period: int | None = None) -> list[Message]:
        """All messages, or those of one time period."""
        if period is None:
            return list(self.messages)
        return [m for m in self.messages if m.period == period]

    def transcript_bits(self, period: int | None = None) -> BitString:
        return concat_all(m.to_bits() for m in self.transcript(period))

    def bits_on_wire(self, period: int | None = None) -> int:
        """Total communication in bits (for the cost benchmarks)."""
        return sum(m.bits for m in self.transcript(period))

    def bits_by_label(self, period: int | None = None) -> dict[str, int]:
        """Communication breakdown per message label -- which protocol
        step costs what (used by the cost analyses)."""
        breakdown: dict[str, int] = {}
        for message in self.transcript(period):
            breakdown[message.label] = breakdown.get(message.label, 0) + message.bits
        return breakdown

    def sent_bits(self, sender: str) -> int:
        """Bit length of the latest message recorded from ``sender``
        (each party sends from one thread)."""
        for message in reversed(self.messages):
            if message.sender == sender:
                return message.bits
        return 0


class InMemoryTransport(Transport):
    """Reliable, authenticated, in-process transport with a full transcript.

    ``send`` returns :func:`~repro.utils.serialization.wire_copy` of the
    payload -- what a codec round trip would decode, built from fresh
    containers and wrappers over the sender's immutable leaves -- so the
    receiver never holds a mutable reference into the sender's memory.
    Payload types outside the wire format (only possible for ad-hoc test
    traffic, never for protocol messages) pass through by reference, as
    the old ``Channel`` did.
    """

    def send(self, sender: str, recipient: str, label: str, payload: object) -> object:
        self.record(sender, recipient, label, payload)
        try:
            return wire_copy(payload)
        except WireFormatError:
            return payload


class SocketTransport(Transport):
    """P1 and P2 in separate threads over a local socket pair.

    :meth:`open` creates one ``socketpair`` endpoint per party; frames
    are ``[4-byte header length][JSON header][8-byte payload length]
    [wire-codec payload]``.  A party whose protocol step fails closes
    its endpoint, which surfaces at the peer's blocking read as
    :class:`~repro.errors.PeerDisconnected`.  Decoded elements get the
    full subgroup check -- these bytes crossed a real wire.
    """

    threaded = True

    def __init__(self, timeout: float = 30.0) -> None:
        super().__init__()
        self.timeout = timeout
        self._endpoints: dict[str, socket.socket] = {}
        self._lock = threading.Lock()

    def open(self, party_a: str, party_b: str) -> None:
        self.close()
        end_a, end_b = socket.socketpair()
        end_a.settimeout(self.timeout)
        end_b.settimeout(self.timeout)
        self._endpoints = {party_a: end_a, party_b: end_b}

    def shutdown_party(self, party: str) -> None:
        endpoint = self._endpoints.get(party)
        if endpoint is not None:
            try:
                endpoint.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            endpoint.close()

    def close(self) -> None:
        for party in list(self._endpoints):
            self.shutdown_party(party)
        self._endpoints = {}

    def _endpoint(self, party: str) -> socket.socket:
        endpoint = self._endpoints.get(party)
        if endpoint is None:
            raise PeerDisconnected(
                f"no open socket endpoint for {party!r}; call open() first"
            )
        return endpoint

    def send(self, sender: str, recipient: str, label: str, payload: object) -> object:
        wire = WireCodec(self._group).encode(payload)  # no pass-through fallback
        frame = encode_frame(
            {"sender": sender, "recipient": recipient, "label": label}, wire
        )
        with self._lock:
            self.record(sender, recipient, label, payload)
            endpoint = self._endpoint(sender)
        try:
            endpoint.sendall(frame)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"send of {label!r} timed out after {self.timeout}s "
                "(peer not draining)",
                timeout=self.timeout,
            ) from exc
        except OSError as exc:
            raise PeerDisconnected(
                f"send of {label!r} failed: peer endpoint is gone"
            ) from exc
        return payload

    def recv(self, party: str) -> tuple[str, str, object]:
        with self._lock:
            endpoint = self._endpoint(party)
        header, wire = recv_frame(endpoint, party, timeout=self.timeout)
        payload = WireCodec(self._group).decode(wire)
        return header["sender"], header["label"], payload
