"""The unified two-party protocol engine.

Every 2-party protocol in the library (DLR / OptimalDLR / DLRIBE
decryption, refresh, extraction) is expressed as a pair of *step
generators* -- one per device -- that yield typed
:class:`ProtocolMessage` operations:

* ``Send(label, payload)`` -- put a message on the transport;
* ``Recv(label)`` -- block until the peer's next message arrives (the
  generator receives a :class:`ReceivedMessage`; ``label=None`` accepts
  any label);
* ``Commit()`` -- promote this party's staged share slots (declared in
  the :class:`ProtocolSpec`) at the commit boundary.

The :class:`ProtocolEngine` drives the interleaving over a
:class:`~repro.protocol.transport.Transport` -- in-process rendezvous
for ordinary transports, one thread per party for ``threaded`` ones
(sockets) -- and owns the *single* implementation of the machinery the
schemes used to copy-paste:

* staged commit / rollback of share rotation (the old
  ``_commit_refresh`` / ``_rollback_refresh``), driven by the spec's
  :class:`StagedShare` declarations;
* erasure of protocol secrets on every exit path
  (``Device.protocol_secrets``);
* closing phase snapshots left open by an aborted protocol (the old
  ``_abort_phases``) and raising
  :class:`~repro.errors.RefreshAborted` when staged material was rolled
  back;
* per-step instrumentation -- OperationCounter deltas, bits on wire and
  wall time -- collected into a queryable :class:`TranscriptStats`.

The engine's scheduling is deterministic for the transcript: each
device draws randomness only from its own forked RNG, and messages of a
2-party alternating protocol have a unique causal order, so the wire
transcript is bit-identical however the steps interleave (verified by
the golden-transcript tests).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Union

from repro.errors import PeerDisconnected, ProtocolError, RefreshAborted
from repro.groups.bilinear import OperationCounter
from repro.protocol.device import Device
from repro.protocol.memory import PhaseSnapshot
from repro.protocol.transport import Transport
from repro.telemetry.metrics import active_registry
from repro.telemetry.tracer import NULL_SPAN, active_tracer
from repro.utils.serialization import encode_any


# ---------------------------------------------------------------------------
# The step-generator vocabulary
# ---------------------------------------------------------------------------


class ProtocolMessage:
    """Base class of the operations a step generator may yield."""

    __slots__ = ()


@dataclass(frozen=True)
class Send(ProtocolMessage):
    """Put ``payload`` on the transport under ``label``."""

    label: str
    payload: object


@dataclass(frozen=True)
class Recv(ProtocolMessage):
    """Wait for the peer's next message; ``label=None`` accepts any."""

    label: str | None = None


@dataclass(frozen=True)
class Commit(ProtocolMessage):
    """Promote this party's staged share slots (the commit boundary)."""


@dataclass(frozen=True)
class ReceivedMessage:
    """What a generator gets back from a ``Recv``."""

    sender: str
    label: str
    payload: object


#: A per-device protocol step: a generator yielding protocol operations,
#: receiving ``ReceivedMessage`` (for ``Recv``) or ``None``, returning
#: the party's protocol output.
P1Step = Generator[ProtocolMessage, Union[ReceivedMessage, None], object]
P2Step = Generator[ProtocolMessage, Union[ReceivedMessage, None], object]


# ---------------------------------------------------------------------------
# Protocol specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StagedShare:
    """One staged slot rotation: at ``Commit()`` the engine erases
    ``slot`` and renames ``pending`` onto it; on abort it erases
    ``pending``.  ``signals_abort`` controls whether pending material in
    this slot makes an abort surface as ``RefreshAborted`` (derived
    staging, e.g. OptimalDLR's next ``sk_comm``, does not)."""

    party: int
    slot: str
    pending: str
    signals_abort: bool = True


@dataclass
class ProtocolSpec:
    """Everything the engine needs to drive one 2-party protocol."""

    name: str
    device1: Device
    device2: Device
    party1: Callable[[], P1Step]
    party2: Callable[[], P2Step]
    #: Secret slots erased on every exit path, per device.
    secrets1: tuple[str, ...] = ()
    secrets2: tuple[str, ...] = ()
    #: Staged share rotations, committed at ``Commit()`` boundaries.
    staged: tuple[StagedShare, ...] = ()
    #: ``(party, slot)`` pairs erased when the protocol aborts (e.g. a
    #: half-installed identity key).
    abort_erase: tuple[tuple[int, str], ...] = ()
    #: If set and staged material was rolled back, the abort surfaces as
    #: ``RefreshAborted(abort_message)`` with the original error as cause.
    abort_message: str | None = None
    abort_period: int | None = None
    #: Where aborted-phase snapshots land (and are attached to the
    #: ``RefreshAborted``); ``None`` leaves open phases untouched.
    snapshots: dict[tuple[int, str], PhaseSnapshot] | None = None


def abort_phases(device1: Device, device2: Device) -> dict[tuple[int, str], PhaseSnapshot]:
    """Close any phase snapshots left open by an aborted protocol and
    return them keyed like ``PeriodRecord`` snapshots."""
    closed: dict[tuple[int, str], PhaseSnapshot] = {}
    for index, device in ((1, device1), (2, device2)):
        snapshot = device.secret.close_phase_if_open()
        if snapshot is not None:
            phase = "refresh" if snapshot.label.endswith(".refresh") else "normal"
            closed[(index, phase)] = snapshot
    return closed


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepStat:
    """One executed protocol step."""

    party: int
    kind: str  # "send" | "recv" | "commit" | "return"
    label: str | None
    bits_on_wire: int
    wall_seconds: float
    #: Group-operation delta attributed to the step; ``None`` in threaded
    #: runs, where the global counter interleaves both parties.
    ops: OperationCounter | None


@dataclass
class TranscriptStats:
    """Queryable per-step instrumentation of one engine run.

    Every query below is a *view* over the recorded steps -- there is no
    second tally to drift out of sync.  When a telemetry registry is
    active (:func:`repro.telemetry.metrics.active_registry`), the engine
    additionally mirrors each step into the registry's ``engine.*``
    instruments as it is recorded, so the registry's per-label bit
    counters aggregate exactly the same numbers across protocol runs
    (:meth:`publish` pushes a whole finished transcript the same way).
    """

    protocol: str
    steps: list[StepStat] = field(default_factory=list)

    def record(self, step: StepStat) -> None:
        self.steps.append(step)

    def sends(self) -> list[StepStat]:
        return [s for s in self.steps if s.kind == "send"]

    def bits_on_wire(self) -> int:
        return sum(s.bits_on_wire for s in self.steps)

    def bits_by_label(self) -> dict[str, int]:
        breakdown: dict[str, int] = {}
        for step in self.sends():
            assert step.label is not None
            breakdown[step.label] = breakdown.get(step.label, 0) + step.bits_on_wire
        return breakdown

    def wall_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.steps)

    def ops_for_party(self, party: int) -> OperationCounter:
        total = OperationCounter()
        for step in self.steps:
            if step.party != party or step.ops is None:
                continue
            for name, count in step.ops.as_dict().items():
                setattr(total, name, getattr(total, name) + count)
        return total

    def ops_total(self) -> OperationCounter:
        total = OperationCounter()
        for party in (1, 2):
            for name, count in self.ops_for_party(party).as_dict().items():
                setattr(total, name, getattr(total, name) + count)
        return total

    def publish(self, registry) -> None:
        """Mirror this transcript's steps into a metrics registry (the
        adapter the benchmarks use on already-finished runs)."""
        for step in self.steps:
            _publish_step(registry, self.protocol, step)


def _publish_step(registry, protocol: str, step: StepStat) -> None:
    """One step's worth of ``engine.*`` instruments."""
    registry.counter("engine.steps", protocol=protocol, kind=step.kind).inc()
    if step.kind == "send" and step.label is not None:
        registry.counter("engine.bits_on_wire", label=step.label).inc(step.bits_on_wire)
    registry.histogram("engine.step_wall_seconds", kind=step.kind).observe(
        step.wall_seconds
    )
    if step.ops is not None:
        for name, count in step.ops.nonzero().items():
            registry.counter("engine.ops", op=name, party=step.party).inc(count)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ProtocolEngine:
    """Drives a :class:`ProtocolSpec` over a transport."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.stats = TranscriptStats("idle")
        self._stats_lock = threading.Lock()
        self._span = NULL_SPAN

    # -- public entry point -------------------------------------------------

    def run(self, spec: ProtocolSpec) -> object:
        """Execute the protocol; returns party 1's protocol output.

        On failure: protocol secrets are erased, staged rotations rolled
        back, aborted phases closed, and either the original exception or
        a :class:`~repro.errors.RefreshAborted` (if a rotation was
        actually rolled back) propagates.

        When a tracer is active the whole run becomes a
        ``protocol.<name>`` span and every executed step a child
        ``step.<kind>`` span (explicitly parented, so the per-party
        threads of a socket run nest correctly).
        """
        self.transport.attach_group(spec.device1.group)
        self.stats = TranscriptStats(spec.name)
        self._span = active_tracer().span(f"protocol.{spec.name}")
        with self._span as span:
            if self.transport.threaded:
                result = self._run_threaded(spec)
            else:
                result = self._run_inline(spec)
            span.annotate(
                bits_on_wire=self.stats.bits_on_wire(), steps=len(self.stats.steps)
            )
        return result

    # -- commit / rollback (the single implementation) ----------------------

    @staticmethod
    def _device_of(spec: ProtocolSpec, party: int) -> Device:
        return spec.device1 if party == 1 else spec.device2

    def _commit_party(self, spec: ProtocolSpec, party: int) -> None:
        """Promote a party's staged shares: erase the old slot, relabel
        the pending one (rename does not re-record, so snapshots hold
        old + new exactly once -- the paper's ``2 m`` accounting)."""
        device = self._device_of(spec, party)
        for entry in spec.staged:
            if entry.party != party:
                continue
            device.secret.erase(entry.slot)
            device.secret.rename(entry.pending, entry.slot)

    def _rollback(self, spec: ProtocolSpec) -> bool:
        """Discard staged shares and half-installed abort-erase slots;
        the old shares stay installed.  Returns whether an
        abort-signalling rotation was actually rolled back."""
        rolled_back = False
        for entry in spec.staged:
            device = self._device_of(spec, entry.party)
            if device.secret.has(entry.pending) and entry.signals_abort:
                rolled_back = True
            device.secret.erase_if_present(entry.pending)
        for party, slot in spec.abort_erase:
            self._device_of(spec, party).secret.erase_if_present(slot)
        return rolled_back

    def _abort(self, spec: ProtocolSpec, exc: Exception) -> None:
        """The one abort path: rollback, close phases, re-raise."""
        rolled_back = self._rollback(spec)
        if spec.snapshots is not None:
            spec.snapshots.update(abort_phases(spec.device1, spec.device2))
        if rolled_back and spec.abort_message is not None:
            kwargs: dict = {}
            if spec.abort_period is not None:
                kwargs["period"] = spec.abort_period
            if spec.snapshots is not None:
                kwargs["snapshots"] = spec.snapshots
            raise RefreshAborted(spec.abort_message, **kwargs) from exc
        raise exc

    # -- instrumentation helpers --------------------------------------------

    def _record_step(
        self,
        party: int,
        op: ProtocolMessage | None,
        wall: float,
        ops: OperationCounter | None,
        bits: int = 0,
    ) -> None:
        if isinstance(op, Send):
            kind, label = "send", op.label
        elif isinstance(op, Recv):
            kind, label = "recv", op.label
        elif isinstance(op, Commit):
            kind, label = "commit", None
        else:
            kind, label = "return", None
        step = StepStat(party, kind, label, bits, wall, ops)
        registry = active_registry()
        with self._stats_lock:
            self.stats.record(step)
            if registry is not None:
                # Under the stats lock: counter increments are not atomic
                # and threaded runs record from both party threads.
                _publish_step(registry, self.stats.protocol, step)
        tracer = active_tracer()
        if tracer.enabled:
            attrs = {"party": party, "protocol": self.stats.protocol}
            if label is not None:
                attrs["label"] = label
            if kind == "send":
                attrs["bits"] = bits
            if ops is not None:
                nonzero = ops.nonzero()
                if nonzero:
                    attrs["ops"] = nonzero
            tracer.record(f"step.{kind}", wall, parent=self._span, **attrs)

    def _send(
        self, party: int, op: Send, me: str, peer: str, wall: float, ops
    ) -> object:
        """Put ``op`` on the transport, then record its step with the bit
        length the transport stored.  A send that dies at the boundary
        still records the full frame it attempted (encoded on that path)."""
        try:
            delivered = self.transport.send(me, peer, op.label, op.payload)
        except Exception:
            self._record_step(party, op, wall, ops, len(encode_any(op.payload)))
            raise
        self._record_step(party, op, wall, ops, self.transport.sent_bits(me))
        return delivered

    # -- in-process scheduling ----------------------------------------------

    def _run_inline(self, spec: ProtocolSpec) -> object:
        names = {1: spec.device1.name, 2: spec.device2.name}
        counter = spec.device1.group.counter
        gens: dict[int, P1Step] = {}
        inbox: dict[int, deque[ReceivedMessage]] = {1: deque(), 2: deque()}
        blocked: dict[int, Recv | None] = {1: None, 2: None}
        finished: dict[int, bool] = {1: False, 2: False}
        results: dict[int, object] = {}

        def pump(party: int, value: object) -> None:
            """Advance one party until it blocks on an empty inbox or ends."""
            peer = 2 if party == 1 else 1
            gen = gens[party]
            while True:
                before = counter.snapshot()
                start = time.perf_counter()
                try:
                    op = gen.send(value)
                except StopIteration as stop:
                    self._record_step(
                        party, None, time.perf_counter() - start, counter.diff(before)
                    )
                    results[party] = stop.value
                    finished[party] = True
                    return
                wall, ops = time.perf_counter() - start, counter.diff(before)
                value = None
                if isinstance(op, Send):
                    delivered = self._send(
                        party, op, names[party], names[peer], wall, ops
                    )
                    inbox[peer].append(
                        ReceivedMessage(names[party], op.label, delivered)
                    )
                    continue
                self._record_step(party, op, wall, ops)
                if isinstance(op, Commit):
                    self._commit_party(spec, party)
                elif isinstance(op, Recv):
                    if inbox[party]:
                        value = self._take(spec, party, inbox[party], op)
                    else:
                        blocked[party] = op
                        return
                else:
                    raise ProtocolError(
                        f"{spec.name}: party {party} yielded {op!r}, "
                        "not a protocol operation"
                    )

        try:
            with spec.device1.protocol_secrets(*spec.secrets1):
                with spec.device2.protocol_secrets(*spec.secrets2):
                    gens[1] = spec.party1()
                    gens[2] = spec.party2()
                    pump(1, None)
                    if not finished[2]:
                        pump(2, None)
                    while not (finished[1] and finished[2]):
                        progressed = False
                        for party in (1, 2):
                            if finished[party] or not inbox[party]:
                                continue
                            op = blocked[party]
                            assert op is not None
                            blocked[party] = None
                            pump(party, self._take(spec, party, inbox[party], op))
                            progressed = True
                        if not progressed:
                            raise ProtocolError(
                                f"{spec.name}: deadlock -- both parties are "
                                "waiting and no message is in flight"
                            )
        except Exception as exc:
            self._abort(spec, exc)
        return results[1]

    @staticmethod
    def _take(
        spec: ProtocolSpec, party: int, queue: deque[ReceivedMessage], op: Recv
    ) -> ReceivedMessage:
        message = queue.popleft()
        if op.label is not None and message.label != op.label:
            raise ProtocolError(
                f"{spec.name}: party {party} expected {op.label!r}, "
                f"got {message.label!r}"
            )
        return message

    # -- threaded scheduling (socket transports) ----------------------------

    def _run_threaded(self, spec: ProtocolSpec) -> object:
        names = {1: spec.device1.name, 2: spec.device2.name}
        self.transport.open(names[1], names[2])
        results: dict[int, object] = {}
        errors: dict[int, Exception] = {}

        def runner(party: int, factory: Callable[[], P1Step], secrets: tuple[str, ...]) -> None:
            me, peer = names[party], names[2 if party == 1 else 1]
            device = self._device_of(spec, party)
            try:
                with device.protocol_secrets(*secrets):
                    gen = factory()
                    value: object = None
                    while True:
                        start = time.perf_counter()
                        try:
                            op = gen.send(value)
                        except StopIteration as stop:
                            self._record_step(
                                party, None, time.perf_counter() - start, None
                            )
                            results[party] = stop.value
                            return
                        wall = time.perf_counter() - start
                        value = None
                        if isinstance(op, Send):
                            self._send(party, op, me, peer, wall, None)
                            continue
                        self._record_step(party, op, wall, None)
                        if isinstance(op, Commit):
                            self._commit_party(spec, party)
                        elif isinstance(op, Recv):
                            sender, label, payload = self.transport.recv(me)
                            if op.label is not None and label != op.label:
                                raise ProtocolError(
                                    f"{spec.name}: party {party} expected "
                                    f"{op.label!r}, got {label!r}"
                                )
                            value = ReceivedMessage(sender, label, payload)
                        else:
                            raise ProtocolError(
                                f"{spec.name}: party {party} yielded {op!r}, "
                                "not a protocol operation"
                            )
            except Exception as exc:
                errors[party] = exc
                # Signal the peer: its blocking read sees EOF and fails
                # with PeerDisconnected instead of hanging.
                self.transport.shutdown_party(me)

        threads = [
            threading.Thread(
                target=runner,
                args=(1, spec.party1, spec.secrets1),
                name=f"{spec.name}.{names[1]}",
            ),
            threading.Thread(
                target=runner,
                args=(2, spec.party2, spec.secrets2),
                name=f"{spec.name}.{names[2]}",
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.transport.close()

        if errors:
            self._abort(spec, self._primary_error(errors))
        return results[1]

    @staticmethod
    def _primary_error(errors: dict[int, Exception]) -> Exception:
        """The error that caused the failure: a peer-disconnect is only a
        symptom of the other party dying first."""
        for party in (1, 2):
            exc = errors.get(party)
            if exc is not None and not isinstance(exc, PeerDisconnected):
                return exc
        return next(iter(errors.values()))
