"""Audit the wire against the secret memory: no value a device holds in
its *secret* region during a period appears verbatim in that period's
public transcript.

The transcript is the adversary's view (section 3.2).  The schemes only
ever send secret material encrypted, paired or combined, so a secret
leaf -- a share coordinate, an ``sk_comm`` exponent, a fresh ``a_i``,
the pending shares, an Optimal-DLR scratch value -- turning up as a wire
leaf would be a leak no leakage bound accounts for.  Each scheme runs
two periods; every value stored into either device's secret region
during a period (plus what the region held when the period began) is
compared, by type and value, against every leaf of that period's
transcript payloads.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.dlr import DLR
from repro.core.hpske import HPSKECiphertext
from repro.core.keys import PublicKey
from repro.core.optimal import OptimalDLR
from repro.ibe.dlr_ibe import DLRIBE
from repro.protocol.channel import Channel
from repro.protocol.device import Device, _ScalarInMemory

PERIODS = 2

#: The secret slots each flow must be seen to hold, so the audit cannot
#: pass vacuously by recording nothing.
DLR_SLOTS = {
    "P1.sk1",
    "P1.period.sk_comm",
    "P1.period.a_next",
    "P1.sk1.pending",
    "P2.sk2",
    "P2.sk2.pending",
}
OPTIMAL_SLOTS = {"P1.sk_comm", "P1.sk_comm_next", "P1.scratch", "P2.sk2", "P2.sk2.pending"}


def _leaves(value):
    """The atomic values inside a payload or a memory slot.  Scalars held
    in memory count as their ``int``; a dataclass's ``p`` field is the
    public group order, not secret material."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, HPSKECiphertext):
        yield from _leaves((value.coins, value.body))
    elif isinstance(value, _ScalarInMemory):
        yield value.value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            if field.name != "p":
                yield from _leaves(getattr(value, field.name))
    else:
        yield value


def _same(a, b) -> bool:
    return type(a) is type(b) and a == b


class _SecretRecorder:
    """Every value the devices' secret regions hold during one period."""

    def __init__(self, *devices: Device) -> None:
        self.devices = devices
        self.values: list[tuple[str, object]] = []
        for device in devices:
            self._wrap(device)

    def _wrap(self, device: Device) -> None:
        store = device.secret.store

        def recording_store(name, value, derived=False):
            self.values.append((f"{device.name}.{name}", value))
            store(name, value, derived=derived)

        device.secret.store = recording_store

    def begin_period(self) -> None:
        """Start a period with what the regions hold now (the shares)."""
        self.values = [
            (f"{device.name}.{name}", device.secret.read(name))
            for device in self.devices
            for name in device.secret.names()
        ]


def _assert_no_secret_on_wire(recorder: _SecretRecorder, messages) -> None:
    wire = [
        (message.label, leaf)
        for message in messages
        for leaf in _leaves(message.payload)
    ]
    assert wire, "the period sent nothing"
    leaks = [
        (slot, label)
        for slot, value in recorder.values
        for leaf in _leaves(value)
        for label, wire_leaf in wire
        if _same(leaf, wire_leaf)
    ]
    assert not leaks, f"secret values on the wire (slot, message label): {leaks}"


def _devices(scheme, share1, share2, seed):
    rng = random.Random(seed)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, share1, share2)
    return p1, p2


def _run_periods(scheme, p1, p2, public_key, rng, slots):
    recorder = _SecretRecorder(p1, p2)
    channel = Channel()
    for _ in range(PERIODS):
        recorder.begin_period()
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(public_key, message, rng)
        record = scheme.run_period(p1, p2, channel, ciphertext)
        assert record.plaintext == message
        assert slots <= {slot for slot, _ in recorder.values}
        _assert_no_secret_on_wire(recorder, record.messages)


@pytest.mark.parametrize(
    "scheme_cls, slots",
    [(DLR, DLR_SLOTS), (OptimalDLR, OPTIMAL_SLOTS)],
    ids=["dlr", "optimal"],
)
def test_no_secret_region_value_on_the_wire(small_params, scheme_cls, slots):
    scheme = scheme_cls(small_params)
    rng = random.Random(41)
    generation = scheme.generate(rng)
    p1, p2 = _devices(scheme, generation.share1, generation.share2, 42)
    _run_periods(scheme, p1, p2, generation.public_key, rng, slots)


def test_no_secret_region_value_on_the_wire_ibe_master(small_params):
    scheme = DLRIBE(small_params, n_id=4)
    rng = random.Random(43)
    setup = scheme.setup(rng)
    p1, p2 = _devices(scheme, setup.share1, setup.share2, 44)
    public_key = PublicKey(scheme.params, setup.public_params.z)
    _run_periods(scheme, p1, p2, public_key, rng, DLR_SLOTS)
