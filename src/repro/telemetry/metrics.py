"""The process-local metrics registry: counters, gauges, histograms.

One registry is one coherent, machine-readable view of where cycles,
bytes, and budget bits go.  Instruments are identified by ``(name,
labels)``; the same identity always returns the same instrument, so
scattered instrumentation points aggregate instead of shadowing each
other.  Everything is stdlib-only and deterministic:

* counters and gauges hold exact ints/floats, no sampling;
* histograms use **fixed bucket boundaries** chosen at creation --
  never derived from observed values or wall-clock state -- so two
  seeded runs bucket identically;
* :meth:`MetricsRegistry.snapshot` orders every key, producing
  byte-identical JSON for identical observation sequences;
* instruments are **thread-safe**: the registry lock guards
  get-or-create, and each instrument carries its own lock for mutation
  and reads, so concurrent sessions never lose increments or tear a
  histogram mid-update (``tests/telemetry/test_metrics_hammer.py``).

The registry absorbs the library's historically ad-hoc counters: the
protocol engine publishes per-step counts/bits (mirroring
``TranscriptStats``), the leakage oracle *stores* its retry ledger here
(``LeakageOracle.retry_ledger`` is a view over this registry), and the
benchmarks emit ``snapshot()`` next to their timing numbers.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Iterator

#: Default histogram boundaries for durations in seconds: sub-ms to
#: minutes, fixed for the life of the library so snapshots compare
#: across runs and versions.
DEFAULT_SECONDS_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0
)

LabelKey = tuple[str, tuple[tuple[str, object], ...]]


def _key(name: str, labels: dict) -> LabelKey:
    return (name, tuple(sorted(labels.items())))


def _labels_cover(instrument_labels, wanted) -> bool:
    """True when the instrument's (sorted) label pairs ⊇ ``wanted``."""
    if not wanted:
        return True
    have = dict(instrument_labels)
    return all(have.get(k) == v for k, v in wanted)


def label_text(key: LabelKey) -> str:
    """Canonical flat spelling, e.g. ``engine.bits_on_wire{label=dec.d}``."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically non-decreasing integer.

    Mutation is lock-protected: instruments are shared across threads
    (concurrent sessions all land in one registry) and an unlocked
    ``self.value += amount`` is a read-modify-write whose atomicity is
    an accident of the interpreter's preemption points (it loses
    increments on CPython 3.10 and on free-threaded builds).  The lock
    makes the contract explicit instead of interpreter-dependent.
    """

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for levels")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time level (can go up and down)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def add(self, delta) -> None:
        """Atomic read-modify-write.  ``gauge.set(gauge.value + 1)`` from
        concurrent threads loses updates (the read and the write are
        separate operations); level-tracking callers (e.g. the service's
        sessions-active gauge) must use this instead."""
        with self._lock:
            self.value += delta


class Histogram:
    """Cumulative-bucket histogram with fixed boundaries.

    ``counts[i]`` counts observations ``<= boundaries[i]``; the final
    extra bucket counts the overflow (``> boundaries[-1]``).
    """

    __slots__ = ("_lock", "boundaries", "counts", "total", "count", "_exemplars")

    def __init__(self, boundaries=DEFAULT_SECONDS_BUCKETS) -> None:
        ordered = tuple(boundaries)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError("histogram boundaries must be non-empty and strictly increasing")
        self._lock = threading.Lock()
        self.boundaries = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.count = 0
        # Per-bucket exemplars ({index: {"labels": ..., "value": ...}}),
        # allocated lazily: histograms observed without exemplars (tracing
        # off) carry no exemplar state and snapshot in the classic shape.
        self._exemplars: dict | None = None

    def observe(self, value: float, exemplar: dict | None = None) -> None:
        # The bucket search needs no lock (boundaries are immutable);
        # the field update must be one transaction or a concurrent
        # observer/snapshot sees counts, total, and count disagree.  The
        # exemplar write rides the same transaction so a bucket's count
        # and its exemplar never tear apart.
        index = len(self.boundaries)
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1
            if exemplar:
                if self._exemplars is None:
                    self._exemplars = {}
                self._exemplars[index] = {"labels": dict(exemplar), "value": value}

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile from the cumulative
        buckets: the smallest boundary whose cumulative count covers a
        ``q`` fraction of observations (``inf`` when the quantile falls
        in the overflow bucket, ``nan`` with no observations)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self.count == 0:
                return float("nan")
            rank = q * self.count
            seen = 0
            for i, bound in enumerate(self.boundaries):
                seen += self.counts[i]
                if seen >= rank:
                    return bound
            return float("inf")

    def to_dict(self) -> dict:
        # One locked read so boundaries/counts/sum/count (and any
        # exemplars) are a consistent cut.  The ``exemplars`` key appears
        # only when at least one exemplar was recorded, keeping snapshots
        # byte-identical for runs that never traced.
        with self._lock:
            out = {
                "boundaries": list(self.boundaries),
                "counts": list(self.counts),
                "sum": self.total,
                "count": self.count,
            }
            if self._exemplars:
                out["exemplars"] = {
                    str(index): {
                        "labels": dict(ex["labels"]),
                        "value": ex["value"],
                    }
                    for index, ex in sorted(self._exemplars.items())
                }
            return out


class MetricsRegistry:
    """Process-local instrument store, keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[LabelKey, Counter] = {}
        self._gauges: dict[LabelKey, Gauge] = {}
        self._histograms: dict[LabelKey, Histogram] = {}

    # -- instrument access (get-or-create) ----------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, buckets=DEFAULT_SECONDS_BUCKETS, **labels) -> Histogram:
        key = _key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    # -- queries ------------------------------------------------------------

    def counter_value(self, name: str, **labels) -> int:
        """The summed value of every counter named ``name`` whose labels
        are a superset of ``labels``; 0 if none was ever incremented.

        Subset-sum semantics make queries dimension-agnostic: when an
        instrumentation point grows a new label (the service counters
        gained a ``tenant`` dimension), existing queries over the old
        label set keep reading the correct aggregate.  An exact-identity
        read is the special case where the filter names every label.
        """
        wanted = sorted(labels.items())
        with self._lock:
            matches = [
                instrument.value
                for (candidate, instrument_labels), instrument in self._counters.items()
                if candidate == name and _labels_cover(instrument_labels, wanted)
            ]
        return sum(matches)

    def merged_histogram(self, name: str, **labels) -> Histogram | None:
        """One combined :class:`Histogram` over every histogram named
        ``name`` whose labels are a superset of ``labels``.

        The same dimension-agnostic filter as :meth:`counter_value`:
        per-tenant latency histograms merge back into the per-op view a
        caller asked for.  Returns ``None`` when nothing matches (a
        get-or-create lookup would *mint* an empty instrument and poison
        the registry with a phantom label set).  All matching histograms
        must share bucket boundaries.
        """
        wanted = sorted(labels.items())
        with self._lock:
            matches = [
                instrument
                for (candidate, instrument_labels), instrument in sorted(
                    self._histograms.items()
                )
                if candidate == name and _labels_cover(instrument_labels, wanted)
            ]
        if not matches:
            return None
        merged = Histogram(matches[0].boundaries)
        for instrument in matches:
            state = instrument.to_dict()
            if tuple(state["boundaries"]) != merged.boundaries:
                raise ValueError(
                    f"cannot merge {name!r} histograms with differing boundaries"
                )
            for i, count in enumerate(state["counts"]):
                merged.counts[i] += count
            merged.total += state["sum"]
            merged.count += state["count"]
            for index, ex in state.get("exemplars", {}).items():
                if merged._exemplars is None:
                    merged._exemplars = {}
                merged._exemplars[int(index)] = ex
        return merged

    def counters_named(self, name: str) -> list[tuple[dict, Counter]]:
        """All ``(labels, counter)`` pairs under one name, label-sorted."""
        found = []
        with self._lock:
            for (candidate, labels), instrument in sorted(self._counters.items()):
                if candidate == name:
                    found.append((dict(labels), instrument))
        return found

    # -- snapshot -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable, deterministically ordered dump."""
        with self._lock:
            return {
                "counters": {
                    label_text(key): c.value for key, c in sorted(self._counters.items())
                },
                "gauges": {
                    label_text(key): g.value for key, g in sorted(self._gauges.items())
                },
                "histograms": {
                    label_text(key): h.to_dict()
                    for key, h in sorted(self._histograms.items())
                },
            }

    def snapshot_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def export_state(self) -> dict:
        """A typed dump for format renderers (``repro.telemetry.prometheus``).

        Unlike :meth:`snapshot`, which flattens identities into display
        strings, this keeps ``(name, labels, data)`` triples structured so
        a renderer can group series by name and re-spell labels in its own
        syntax.  Deterministically ordered; each histogram's data is an
        atomic :meth:`Histogram.to_dict` cut.
        """
        with self._lock:
            return {
                "counters": [
                    (name, dict(labels), c.value)
                    for (name, labels), c in sorted(self._counters.items())
                ],
                "gauges": [
                    (name, dict(labels), g.value)
                    for (name, labels), g in sorted(self._gauges.items())
                ],
                "histograms": [
                    (name, dict(labels), h.to_dict())
                    for (name, labels), h in sorted(self._histograms.items())
                ],
            }


# ---------------------------------------------------------------------------
# The active registry (process-global, None by default)
# ---------------------------------------------------------------------------

_ACTIVE: MetricsRegistry | None = None


def active_registry() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when metrics are off."""
    return _ACTIVE


def install_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install the process-wide registry; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextmanager
def metering(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Scoped metrics collection: install, yield, restore."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = install_registry(registry)
    try:
        yield registry
    finally:
        install_registry(previous)
