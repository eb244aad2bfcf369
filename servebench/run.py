"""Served-decrypt benchmark: one workload against ``repro-dlr serve``.

Run from the root of a checkout (``src/`` must be present)::

    python3 servebench/run.py --workload hot_decrypt --seed 1 --seconds 34 --trace 0

The server runs in its own process (``python3 -m repro.cli serve``, the
``repro-dlr serve`` entry point).  The load comes from this process over
at most two connections built the way a user builds them
(``ServiceClient(address)``, no ``retry_seed``).  Every input -- key
names, key seeds, plaintexts, ciphertexts and the arrival schedule -- is
generated from ``--seed`` before the timed phase, so client-side
encryption is never timed.  Every returned plaintext is compared with
the plaintext the generator encrypted.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice for half of ``--seconds`` each: once against the plain
server and once against ``servebench/launcher.py``, which wraps each
layer's public functions with self-time timers; it prints the per-layer
metrics.  ``servebench/NOTES.md`` has the metric table.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "launcher.py"
TMP_ROOT = ROOT / ".servebench_tmp"

TENANT = "bench"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: How long the open loop may run past its last due time.
DRAIN_SECONDS = 20.0

#: A run still going after this many seconds stops its server and fails,
#: leaving time for the teardown within the 180 s a run may take.
WATCHDOG_SECONDS = 150


class WatchdogExpired(BaseException):
    """Raised in the main thread by the watchdog alarm.  A BaseException,
    so the load loops' per-request error handling cannot swallow it."""


#: Fixed pure-Python loop timed beside every run (host-noise diagnostic).
CALIBRATION_ITERATIONS = 4_000_000


@dataclass(frozen=True)
class Workload:
    """One traffic mix (the reason for each is in BENCHMARK.json)."""

    name: str
    loop: str  # "closed" or "open"
    n: int  # group size in bits
    lam: int
    keys: int
    batch: int  # ciphertexts per request
    slo_ms: float  # latency limit for slo_met_frac
    capacity: int | None = None  # serve --capacity (None: the server default)
    rate: float = 0.0  # offered requests per second (open loop)
    zipf_s: float = 0.0
    optimal_every: int = 0  # every k-th key by popularity rank is "optimal"
    pool: int = 32  # distinct ciphertexts a closed loop cycles through
    # Warm-up requests before the timed phase (per-process table builds,
    # lazy device set-up), sent on connection 0 with the ids it
    # generates.  The traced launcher leaves this many first decrypts out
    # of its figures.  On the open loop they also put connection 0's
    # request-id counter this far ahead of connection 1's (see
    # ``replay_pairs``).
    warmup: int = 2


WORKLOADS = {
    workload.name: workload
    for workload in (
        # The ROADMAP's unit at the default scale: no lock contention, no
        # rehydration, no queue, so core/protocol/codec/groups dominate.
        Workload("hot_decrypt", "closed", n=64, lam=128, keys=1, batch=1, slo_ms=400.0),
        # One refresh serves 16 ciphertexts: batch kernels, large frames
        # and ciphertext_batch envelopes dominate.
        Workload("batch_decrypt", "closed", n=32, lam=32, keys=1, batch=16, slo_ms=800.0, pool=64),
        # Front end, per-key locks, LRU eviction, rehydration, the replay
        # cache and queueing: Zipf keys over more keys than --capacity.
        Workload(
            "zipf_open", "open", n=32, lam=32, keys=48, batch=1, slo_ms=500.0,
            capacity=16, rate=2.5, zipf_s=1.1, optimal_every=3, warmup=8,
        ),
    )
}

#: Connections of the open loop, one sender thread each (the main thread
#: is one of them).  Closed loops use one connection.
OPEN_CONNECTIONS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "decrypts_per_s": "1/s",
    "success_frac": "ratio",
    "slo_met_frac": "ratio",
    "server_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "service.frontend_ms": "ms",
    "service.lock_wait_ms": "ms",
    "service.registry_get_ms": "ms",
    "service.rehydrations": "count",
    "service.evictions": "count",
    "runtime.supervisor_ms": "ms",
    "runtime.retries": "count",
    "runtime.checkpoint_save_ms": "ms",
    "runtime.checkpoint_load_ms": "ms",
    "protocol.engine_ms": "ms",
    "protocol.transcript_ms": "ms",
    "protocol.bits_per_ct": "count",
    "utils.codec_encode_ms": "ms",
    "utils.codec_decode_ms": "ms",
    "utils.persist_ms": "ms",
    "core.hpske_ms": "ms",
    "groups.multiexp_ms": "ms",
    "groups.pairing_ms": "ms",
    "groups.sample_ms": "ms",
    "groups.pairings_per_ct": "count",
    "groups.multiexp_terms_per_ct": "count",
    "loadgen.lag_p95_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.served_ms": "ms",
    "host.calibration_ms": "ms",
}

#: Layers timed inside ManagedSession.serve_decrypt[_batch] (launcher
#: metric -> reported name).  With service.frontend_ms they add up to
#: the client-observed served-request time.
INSIDE_SERVE = {
    "service.lock_wait": "service.lock_wait_ms",
    "runtime.supervisor": "runtime.supervisor_ms",
    "runtime.checkpoint_save": "runtime.checkpoint_save_ms",
    "protocol.engine": "protocol.engine_ms",
    "protocol.transcript": "protocol.transcript_ms",
    "utils.codec_encode": "utils.codec_encode_ms",
    "utils.codec_decode": "utils.codec_decode_ms",
    "core.hpske": "core.hpske_ms",
    "groups.multiexp": "groups.multiexp_ms",
    "groups.pairing": "groups.pairing_ms",
    "groups.sample": "groups.sample_ms",
}

#: Layers timed in the request but outside serve_decrypt: their time is
#: part of service.frontend_ms and is reported beside it.
OUTSIDE_SERVE = {
    "service.registry_get": "service.registry_get_ms",
    "runtime.checkpoint_load": "runtime.checkpoint_load_ms",
    "utils.persist": "utils.persist_ms",
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class KeySpec:
    name: str
    scheme: str
    seed: int


@dataclass
class Request:
    """One request: a key and the pool entries it sends."""

    key: int
    items: list[int]
    due: float = 0.0  # seconds after the phase start (open loop)


def key_specs(workload: Workload, seed: int) -> list[KeySpec]:
    """Keys by popularity rank; only the key seeds depend on ``seed``."""
    rng = random.Random(f"servebench/{workload.name}/{seed}/keys")
    every = workload.optimal_every
    return [
        KeySpec(
            f"k{rank:02d}",
            "optimal" if every and rank % every == every - 1 else "dlr",
            rng.getrandbits(31),
        )
        for rank in range(workload.keys)
    ]


def zipf_counts(keys: int, s: float, total: int) -> list[int]:
    """Exact per-key request counts for ``total`` Zipf(s) draws
    (largest-remainder rounding), so every seed offers the same mix."""
    weights = [1.0 / (rank + 1) ** s for rank in range(keys)]
    shares = [w * total / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(keys), key=lambda r: counts[r] - shares[r])
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return counts


def open_requests(workload: Workload, seed: int, seconds: float) -> list[Request]:
    """Poisson arrivals at ``workload.rate`` for ``seconds``, Zipf keys.

    The arrival cycle is stratified and fixed for a given length: the
    inter-arrival gaps are the exponential distribution's quantiles at
    ``(i + 0.5) / N`` and the key sequence holds the exact Zipf counts,
    both in one fixed shuffled order.  ``seed`` picks where in that cycle
    the run starts.  Every seed thus offers the same bursts and key
    adjacencies in another order, so the spread between seeds shows the
    program and the host, not luck of the draw.  Each request sends its
    own ciphertext (pool entry ``items[0]``).
    """
    total = max(1, round(workload.rate * seconds))
    cycle = random.Random(f"servebench/{workload.name}/cycle/{total}")
    counts = zipf_counts(workload.keys, workload.zipf_s, total)
    keys = [rank for rank, count in enumerate(counts) for _ in range(count)]
    cycle.shuffle(keys)
    gaps = [-math.log(1.0 - (i + 0.5) / total) / workload.rate for i in range(total)]
    cycle.shuffle(gaps)
    start = random.Random(f"servebench/{workload.name}/{seed}/schedule").randrange(total)
    keys, gaps = keys[start:] + keys[:start], gaps[start:] + gaps[:start]
    used = [0] * workload.keys
    requests, due = [], 0.0
    for key, gap in zip(keys, gaps):
        requests.append(Request(key, [used[key]], due))
        used[key] += 1
        due += gap
    return requests


def closed_requests(workload: Workload) -> list[Request]:
    """The request cycle of a closed loop: the pool in batch-sized slices."""
    return [
        Request(0, list(range(start, start + workload.batch)))
        for start in range(0, workload.pool, workload.batch)
    ]


@dataclass
class KeyPool:
    """Plaintexts and their ciphertexts, pre-generated for one key."""

    messages: list = field(default_factory=list)
    ciphertexts: list = field(default_factory=list)


def make_pools(workload: Workload, seed: int, public_keys: list, requests: list[Request]) -> list[KeyPool]:
    from repro.core.dlr import DLR

    sizes = [0] * len(public_keys)
    for request in requests:
        sizes[request.key] = max(sizes[request.key], max(request.items) + 1)
    pools = []
    for rank, (public_key, size) in enumerate(zip(public_keys, sizes)):
        rng = random.Random(f"servebench/{workload.name}/{seed}/messages/{rank}")
        scheme = DLR(public_key.params)
        pool = KeyPool()
        for _ in range(size):
            message = public_key.group.random_gt(rng)
            pool.messages.append(message)
            pool.ciphertexts.append(scheme.encrypt(public_key, message, rng))
        pools.append(pool)
    return pools


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class Server:
    """One ``serve`` process: spawned, keys opened, stopped by SIGTERM."""

    def __init__(self, workload: Workload, workdir: pathlib.Path, *, traced: bool) -> None:
        self.workload = workload
        self.workdir = workdir
        self.layers_path = workdir / "layers.json"
        self.traced = traced
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.output = ""

    def start(self, specs: list[KeySpec]) -> tuple[float, list]:
        """Spawn the server and open every key; returns the elapsed
        seconds and the public keys in ``specs`` order."""
        from repro.service import ServiceClient

        self.workdir.mkdir(parents=True, exist_ok=True)
        serve = ["serve", "--port", "0", "--checkpoint-dir", str(self.workdir / "state")]
        if self.workload.capacity is not None:
            serve += ["--capacity", str(self.workload.capacity)]
        if self.traced:
            command = [sys.executable, str(LAUNCHER), str(self.layers_path), str(self.workload.warmup), *serve]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        started = time.perf_counter()
        with open(self.workdir / "server.stderr", "wb") as stderr:
            self.process = subprocess.Popen(
                command, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=stderr, text=True
            )
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split()[2].rsplit(":", 1)
        self.address = (host, int(port))
        public_keys = {}
        with ServiceClient(self.address) as client:
            # Least popular first: with more keys than --capacity, the
            # hottest keys are the resident ones when the load starts.
            for spec in reversed(specs):
                public_keys[spec.name] = client.open_key(
                    TENANT, spec.name, scheme=spec.scheme, n=self.workload.n,
                    lam=self.workload.lam, seed=spec.seed,
                )
        elapsed = time.perf_counter() - started
        return elapsed, [public_keys[spec.name] for spec in specs]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """Drain via SIGTERM and wait; returns the exit code."""
        process, self.process = self.process, None
        if process is None:
            return 0
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=20)
            self.output = out or ""
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        return process.returncode


def server_counters(address) -> dict:
    from repro.service import ServiceClient

    with ServiceClient(address) as client:
        return client.stats()["metrics"]["counters"]


# ---------------------------------------------------------------------------
# load generation
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One attempted request as the client saw it."""

    connection: int
    request_id: str
    request: Request
    due: float
    sent: float
    done: float
    status: str  # ok | wrong | error | refused
    returned: list | None = None
    detail: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def round_trip_s(self) -> float:
        return self.done - self.sent


def expected(pools, request: Request) -> list:
    return [pools[request.key].messages[i] for i in request.items]


def send(client, connection: int, workload: Workload, specs, pools, request: Request, due: float | None) -> Outcome:
    """One request through ``client``, its answer checked."""
    from repro.errors import AdmissionRejected, ReproError

    name = specs[request.key].name
    ciphertexts = [pools[request.key].ciphertexts[i] for i in request.items]
    # The id decrypt() would generate for itself, taken here so the
    # outcome records it.
    request_id = client.next_request_id()
    returned, detail = None, ""
    sent = time.perf_counter()
    try:
        if workload.batch == 1:
            returned = [client.decrypt(TENANT, name, ciphertexts[0], request_id=request_id)]
        else:
            returned = client.decrypt_batch(TENANT, name, ciphertexts, request_id=request_id)
    except AdmissionRejected as exc:
        status, detail = "refused", str(exc)
    except ReproError as exc:
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    if returned is not None:
        status = "ok" if returned == expected(pools, request) else "wrong"
    return Outcome(connection, request_id, request, sent if due is None else due, sent, done, status, returned, detail)


def connect(address, workload: Workload, specs) -> list:
    """The load's connections, each holding every key's public key.

    ``ServiceClient.decrypt`` fetches a key's public key with a
    ``describe`` round trip on first use; fetching them here keeps that
    round trip (and the rehydration it can cause) out of the timed
    phase.  Least popular first, so the hottest keys end up resident.
    """
    from repro.service import ServiceClient

    count = OPEN_CONNECTIONS if workload.loop == "open" else 1
    clients = [ServiceClient(address) for _ in range(count)]
    for spec in reversed(specs):
        for client in clients:
            client.public_key(TENANT, spec.name)
    return clients


def warm_up(client, workload: Workload, specs, pools, requests: list[Request]) -> list[Outcome]:
    """Requests on the hottest key through connection 0 before the
    timed phase."""
    hottest = [request for request in requests if request.key == 0]
    outcomes = []
    for i in range(workload.warmup):
        outcome = send(client, 0, workload, specs, pools, hottest[i % len(hottest)], None)
        if outcome.status != "ok":
            raise RuntimeError(f"warm-up request failed: {outcome.status} {outcome.detail}")
        outcomes.append(outcome)
    return outcomes


def run_closed(client, workload: Workload, specs, pools, requests, seconds: float):
    outcomes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        request = requests[len(outcomes) % len(requests)]
        outcomes.append(send(client, 0, workload, specs, pools, request, None))
    return outcomes, start, outcomes[-1].done


def run_open(clients, workload: Workload, specs, pools, requests):
    """Open loop: request i goes to connection ``i % len(clients)``,
    whose sender sleeps until the request is due, sends it and waits for
    the answer.  A request due while its connection is busy waits, and
    that wait counts in its latency.  The fixed assignment makes the id
    each request carries a function of the seed."""
    outcomes: list[Outcome | None] = [None] * len(requests)
    errors: list[BaseException] = []
    start = time.perf_counter() + 0.05
    give_up = start + requests[-1].due + DRAIN_SECONDS

    def sender(connection: int) -> None:
        client = clients[connection]
        try:
            for index in range(connection, len(requests), len(clients)):
                request = requests[index]
                due = start + request.due
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                if time.perf_counter() > give_up:
                    now = time.perf_counter()
                    outcomes[index] = Outcome(
                        connection, client.next_request_id(), request, due, now, now, "error",
                        detail="not sent: past the drain budget",
                    )
                else:
                    outcomes[index] = send(client, connection, workload, specs, pools, request, due)
        except Exception as exc:  # re-raised by the main thread
            errors.append(exc)

    # A daemon, so a run stopped by the watchdog does not wait for it.
    helpers = [
        threading.Thread(target=sender, args=(connection,), name="servebench-sender", daemon=True)
        for connection in range(1, len(clients))
    ]
    for helper in helpers:
        helper.start()
    sender(0)
    for helper in helpers:
        helper.join(timeout=requests[-1].due + DRAIN_SECONDS + 30)
        if helper.is_alive():
            raise RuntimeError("open-loop sender did not finish")
    if errors:
        raise errors[0]
    return outcomes, start, max(outcome.done for outcome in outcomes)


def replay_pairs(outcomes: list[Outcome], warmups: list[Outcome], pools) -> tuple[int, int]:
    """The replay-cache defect described in NOTES.md, seen from the client.

    Returns ``(collisions, racy)``.  A collision is a wrong plaintext
    that is exactly the answer to another request on the same key with
    the same request id (a warm-up request included).  A racy pair is a
    same-key, same-id pair whose later request was sent before the
    earlier one was answered: whether the later one is replayed then
    depends on timing.  The warm-up puts connection 0's counter
    ``warmup`` ahead, so same-id measured requests lie ``2 * warmup + 1``
    arrivals apart and no pair should be racy.
    """
    by_id = collections.defaultdict(list)
    for outcome in warmups + outcomes:
        by_id[(outcome.request.key, outcome.request_id)].append(outcome)
    collisions = racy = 0
    for group in by_id.values():
        group.sort(key=lambda outcome: outcome.sent)
        racy += sum(1 for earlier, later in zip(group, group[1:]) if later.sent < earlier.done)
        for outcome in group:
            if outcome.status == "wrong" and any(
                outcome.returned == expected(pools, other.request) for other in group if other is not outcome
            ):
                collisions += 1
    return collisions, racy


# ---------------------------------------------------------------------------
# one measured phase
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    outcomes: list[Outcome]
    start: float
    end: float
    setup_s: float
    rss_mb: float
    collisions: int
    racy: int
    counters_before: dict
    counters_after: dict
    layers: dict | None

    def counter_delta(self, name: str) -> int:
        return self.counters_after.get(name, 0) - self.counters_before.get(name, 0)


def run_phase(workload: Workload, seed: int, seconds: float, workdir: pathlib.Path, *, traced: bool) -> Phase:
    specs = key_specs(workload, seed)
    if workload.loop == "open":
        requests = open_requests(workload, seed, seconds)
    else:
        requests = closed_requests(workload)
    server = Server(workload, workdir, traced=traced)
    try:
        setup_s, public_keys = server.start(specs)
        pools = make_pools(workload, seed, public_keys, requests)
        clients = connect(server.address, workload, specs)
        try:
            warmups = warm_up(clients[0], workload, specs, pools, requests)
            counters_before = server_counters(server.address)
            if workload.loop == "open":
                outcomes, start, end = run_open(clients, workload, specs, pools, requests)
            else:
                outcomes, start, end = run_closed(clients[0], workload, specs, pools, requests, seconds)
        finally:
            for client in clients:
                client.close()
        counters_after = server_counters(server.address)
        rss_mb = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited with code {code}:\n{server.output[-2000:]}")
    layers = json.loads(server.layers_path.read_text(encoding="utf-8")) if traced else None
    return Phase(
        outcomes, start, end, setup_s, rss_mb, *replay_pairs(outcomes, warmups, pools),
        counters_before, counters_after, layers,
    )


def setup_only(workload: Workload, seed: int, workdir: pathlib.Path) -> float:
    server = Server(workload, workdir, traced=False)
    try:
        setup_s, _ = server.start(key_specs(workload, seed))
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited with code {code}:\n{server.output[-2000:]}")
    return setup_s


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], share: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def ciphertexts_answered(phase: Phase) -> int:
    """Ciphertexts the server answered (right or wrong)."""
    return sum(len(o.request.items) for o in phase.outcomes if o.status in ("ok", "wrong"))


def end_to_end(workload: Workload, phase: Phase, notes: list[str]) -> dict[str, float]:
    outcomes = phase.outcomes
    good = [o for o in outcomes if o.status == "ok"]
    latencies = [o.latency_ms for o in good]
    if not latencies:
        raise RuntimeError("no request was answered correctly")
    p50, _ = percentile(latencies, 0.50)
    p95, beyond = percentile(latencies, 0.95)
    notes.append(f"latency samples {len(latencies)}, {beyond} beyond p95")
    correct_cts = sum(len(o.request.items) for o in good)
    return {
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "decrypts_per_s": correct_cts / (phase.end - phase.start),
        "success_frac": len(good) / len(outcomes),
        "slo_met_frac": sum(1 for ms in latencies if ms <= workload.slo_ms) / len(outcomes),
        "server_rss_mb": phase.rss_mb,
    }


def served_s_per_ct(phase: Phase) -> float:
    answered = [o for o in phase.outcomes if o.status in ("ok", "wrong")]
    return sum(o.round_trip_s for o in answered) / ciphertexts_answered(phase)


def per_layer(workload: Workload, untraced: Phase, traced: Phase, notes: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced phase; returns them plus the
    list of failed consistency checks."""
    layers = traced.layers
    self_s, total_s, counts = layers["self_s"], layers["total_s"], layers["counts"]
    cts = ciphertexts_answered(traced)
    served_cts = counts["ciphertexts_served"]
    round_trip_s = sum(o.round_trip_s for o in traced.outcomes if o.status in ("ok", "wrong"))
    serve_total = total_s.get("service.lock_wait", 0.0)
    metrics = {"service.frontend_ms": (round_trip_s - serve_total) * 1000.0 / cts}
    for launcher_name, metric in {**INSIDE_SERVE, **OUTSIDE_SERVE}.items():
        metrics[metric] = self_s.get(launcher_name, 0.0) * 1000.0 / cts
    metrics["service.rehydrations"] = counts["rehydrations"]
    metrics["service.evictions"] = traced.counter_delta("service.evictions")
    metrics["runtime.retries"] = counts["period_calls"] - counts["supervisor_requests"]
    metrics["protocol.bits_per_ct"] = counts["bits_on_wire"] / max(1, served_cts)
    metrics["groups.pairings_per_ct"] = counts["pairings"] / max(1, served_cts)
    metrics["groups.multiexp_terms_per_ct"] = counts["multiexp_terms"] / max(1, served_cts)
    lags = [(o.sent - o.due) * 1000.0 for o in traced.outcomes]
    metrics["loadgen.lag_p95_ms"] = percentile(lags, 0.95)[0] if workload.loop == "open" else 0.0
    traced_ms = served_s_per_ct(traced) * 1000.0
    untraced_ms = served_s_per_ct(untraced) * 1000.0
    metrics["trace.served_ms"] = traced_ms
    metrics["trace.overhead_frac"] = traced_ms / untraced_ms - 1.0

    failures = []
    inside_sum_ms = sum(metrics[name] for name in INSIDE_SERVE.values())
    notes.append(
        f"served {traced_ms:.3f} ms/ct = frontend {metrics['service.frontend_ms']:.3f} "
        f"+ inside-serve layers {inside_sum_ms:.3f}"
    )
    if abs(layers["inside_serve_self_s"] - serve_total) > 1e-6 * max(1.0, serve_total):
        failures.append("inside-serve self times do not add up to the serve total")
    if abs(metrics["service.frontend_ms"] + inside_sum_ms - traced_ms) > 1e-3 * traced_ms:
        failures.append("layer self times do not add up to the served-request time")
    if not 0.0 <= serve_total <= total_s.get("service.handle", 0.0) <= round_trip_s:
        failures.append("serve time is not nested in the handled and round-trip time")
    replays = traced.counter_delta("service.replayed_decrypts")
    if served_cts + replays * workload.batch != cts:
        failures.append(f"server served {served_cts} + replayed {replays}, client saw {cts}")
    if counts["rehydrations"] != traced.counter_delta("service.rehydrations"):
        failures.append(
            f"traced rehydrations {counts['rehydrations']} disagree with the service "
            f"counter {traced.counter_delta('service.rehydrations')}"
        )
    return metrics, failures


def calibration_ms() -> float:
    """A fixed pure-Python loop: a host-speed diagnostic, not a metric
    of the program."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += (i * i) % 7
    elapsed = time.perf_counter() - started
    if total != 7_999_999:
        raise RuntimeError("calibration loop miscomputed")
    return elapsed * 1000.0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"servebench: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"servebench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    def expire(signum, frame):
        raise WatchdogExpired(f"run exceeded {WATCHDOG_SECONDS} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_SECONDS)
    workload = WORKLOADS[args.workload]
    calibration = calibration_ms()
    workdir = TMP_ROOT / f"{os.getpid()}"
    notes: list[str] = []
    try:
        if args.trace:
            half = args.seconds / 2.0
            untraced = run_phase(workload, args.seed, half, workdir / "untraced", traced=False)
            phase = run_phase(workload, args.seed, half, workdir / "traced", traced=True)
            metrics, check_failures = per_layer(workload, untraced, phase, notes)
            metrics["host.calibration_ms"] = calibration
            units = PER_LAYER_UNITS
            phases = [untraced, phase]
        else:
            phase = run_phase(workload, args.seed, args.seconds, workdir / "run", traced=False)
            setups = [phase.setup_s] + [
                setup_only(workload, args.seed, workdir / f"setup{i}") for i in range(1, SETUP_REPEATS)
            ]
            metrics = end_to_end(workload, phase, notes)
            metrics["setup_s"] = statistics.median(setups)
            notes.append("setups " + ", ".join(f"{s:.3f}" for s in setups) + " s")
            units = END_TO_END_UNITS
            check_failures = []
            phases = [phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    attempted = sum(len(p.outcomes) for p in phases)
    counts = collections.Counter(o.status for p in phases for o in p.outcomes)
    collisions = sum(p.collisions for p in phases)
    racy = sum(p.racy for p in phases)
    failed = attempted - counts["ok"]
    # A wrong plaintext is a failed request either way; it makes the run
    # incorrect unless it is the documented replay-cache collision.
    unexplained_wrong = counts["wrong"] - collisions
    correct = unexplained_wrong == 0 and not check_failures

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"host.calibration_ms {calibration:.1f} (diagnostic: fixed pure-Python loop)")
    for note in notes:
        print(note)
    checked = sum(len(o.request.items) for p in phases for o in p.outcomes if o.returned is not None)
    print(f"plaintexts checked {checked}")
    print(
        f"attempted {attempted}, failed {failed} (errors {counts['error']}, refusals {counts['refused']}, "
        f"wrong plaintexts {counts['wrong']} of which replay-id collisions {collisions})"
    )
    print(f"same-key same-id pairs sent before the earlier was answered (racy): {racy}")
    for failure in check_failures:
        print(f"CHECK FAILED: {failure}")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
