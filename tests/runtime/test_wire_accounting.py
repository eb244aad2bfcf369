"""Bit accounting reads stored message lengths; it must equal a fresh
re-encode of the transcript.

Every transcript message is encoded once and its length stored; the
engine's step stats, the retry loop's per-attempt bits, the transport's
``bits_on_wire`` / ``bits_by_label`` and the committed period summary
all read those lengths.  These tests re-encode the transcript from
scratch and compare, for each scheme, with one period retried after a
dropped message and one after a truncated (partially public) frame.
"""

import hashlib
import random

import pytest

from repro.core.dlr import DLR
from repro.core.keys import PublicKey
from repro.core.optimal import OptimalDLR
from repro.ibe.dlr_ibe import DLRIBE
from repro.protocol.device import Device
from repro.protocol.faults import DROP, TRUNCATE, FaultRule, FaultyTransport
from repro.protocol.transport import InMemoryTransport, SocketTransport
from repro.runtime import RetryPolicy, SessionSupervisor
from repro.telemetry.metrics import metering
from repro.utils.bits import concat_all
from repro.utils.serialization import encode_any

POLICY = RetryPolicy(base_backoff=0.0, jitter=0.0)


def _supervisor(kind, params, transport):
    if kind == "dlribe":
        scheme = DLRIBE(params)
        setup = scheme.setup(random.Random(1))
        return SessionSupervisor.start(
            scheme,
            transport,
            public_key=PublicKey(params, setup.public_params.z),
            share1=setup.share1,
            share2=setup.share2,
            periods=2,
            seed=5,
            public_params=setup.public_params,
            identity="bob",
            policy=POLICY,
        )
    scheme = DLR(params) if kind == "dlr" else OptimalDLR(params)
    generation = scheme.generate(random.Random(1))
    return SessionSupervisor.start(
        scheme,
        transport,
        public_key=generation.public_key,
        share1=generation.share1,
        share2=generation.share2,
        periods=2,
        seed=5,
        policy=POLICY,
    )


def _fresh(messages):
    """The transcript re-encoded from the payloads: bits and per-label sums."""
    encoded = [(m.label, encode_any(m.payload)) for m in messages]
    by_label: dict[str, int] = {}
    for label, bits in encoded:
        by_label[label] = by_label.get(label, 0) + len(bits)
    return concat_all(bits for _, bits in encoded), by_label


@pytest.mark.parametrize("kind", ["dlr", "optimal", "dlribe"])
def test_stored_lengths_equal_a_fresh_reencode(kind, small_params):
    transport = FaultyTransport(inner=InMemoryTransport(), seed=0)
    transport.add_rule(FaultRule(mode=TRUNCATE, occurrence=3, period=0, keep_bits=9))
    transport.add_rule(FaultRule(mode=DROP, occurrence=2, period=1))
    supervisor = _supervisor(kind, small_params, transport)
    with metering() as registry:
        result = supervisor.run()

    assert result.periods_completed == 2
    assert [a.period for a in result.log.retried()] == [0, 1]
    for summary in result.log.periods:
        period = summary.period
        messages = transport.transcript(period)
        bits, by_label = _fresh(messages)
        assert transport.bits_on_wire(period) == len(bits) == summary.bits_on_wire
        assert transport.bits_by_label(period) == by_label
        assert summary.metrics["bits_by_label"] == by_label
        assert summary.transcript_sha256 == hashlib.sha256(bits.to_bytes()).hexdigest()
        attempts = result.log.attempts_for(period)
        assert len(attempts) == 2
        assert sum(a.bits_on_wire for a in attempts) == len(bits)
    assert any(m.label.endswith(".truncated") for m in transport.transcript(0))

    # Engine send steps count every delivered message once, plus the full
    # frame of each send that died at the boundary (its retry re-sends a
    # frame of the same fixed-width size).
    delivered = [m for m in transport.transcript() if not m.label.endswith(".truncated")]
    attempted = 0
    for rule, label in transport.injected:
        (size,) = {
            len(encode_any(m.payload))
            for m in transport.transcript(rule.period)
            if m.label == label
        }
        attempted += size
    assert registry.counter_value("engine.bits_on_wire") == attempted + sum(
        len(encode_any(m.payload)) for m in delivered
    )
    assert transport.bits_on_wire() == len(_fresh(transport.transcript())[0])


def test_threaded_send_steps_read_their_own_lengths(small_params):
    """Over sockets both parties send from their own threads; each send
    step must still pick up the length of the message it sent."""
    scheme = DLR(small_params)
    rng = random.Random(3)
    generation = scheme.generate(rng)
    p1, p2 = Device("P1", scheme.group, rng), Device("P2", scheme.group, rng)
    scheme.install(p1, p2, generation.share1, generation.share2)
    ciphertexts = [
        scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
        for _ in range(3)
    ]
    transport = SocketTransport(timeout=10.0)
    with metering() as registry:
        scheme.run_period_multi(p1, p2, transport, ciphertexts)
    _, by_label = _fresh(transport.transcript())
    assert transport.bits_by_label() == by_label
    for label, bits in by_label.items():
        assert registry.counter_value("engine.bits_on_wire", label=label) == bits
