"""The key-service daemon: framed requests over TCP, a worker pool,
admission control, resilience, and per-request telemetry.

:class:`KeyService` is the long-running deployment shape the paper's
two-device scheme pays off in: one process serving *many* keys and
*many* clients per period, threshold-KMS style.  The wire protocol is
the same length-prefixed framing the device channel already uses
(:func:`repro.protocol.transport.encode_frame` /
:func:`~repro.protocol.transport.recv_frame`): a JSON header carrying
``op``/``tenant``/``key`` plus opaque payload bytes (persist envelopes
for ciphertexts and public keys, raw GT bits for plaintexts).

Request routing: an accept loop hands each connection to a bounded
``ThreadPoolExecutor``; a connection serves requests sequentially, so
concurrency is *across* connections, capped by ``workers``.  Admission
control runs before any protocol bits move: a frozen session, an
exhausted leakage budget, or a registry at capacity with every resident
session busy all reject with a machine-readable reason instead of
queueing unboundedly (see :meth:`ManagedSession.admission_error
<repro.service.session.ManagedSession.admission_error>`).

Resilience (``docs/service.md`` has the full failure-handling matrix):

* **Deadlines** -- a client may stamp ``deadline`` (seconds remaining)
  on any request; the server checks it at admission, after waiting for
  the session lock, and between protocol steps, answering
  ``deadline-exceeded`` (retryable: nothing committed) instead of
  burning a worker on a request nobody is waiting for.
* **Load shedding** -- the accept queue is bounded: ``backlog``
  connections beyond the worker count enter *brownout* (light ops --
  ``ping``/``stats``/``describe``/``health`` -- still answered, heavy
  protocol ops shed with ``overloaded`` + a ``retry-after`` hint);
  connections beyond the brownout bound are shed outright.  Health
  stays observable under saturation.
* **Graceful drain** -- :meth:`begin_drain`/:meth:`stop` stop
  accepting, let in-flight requests finish under a drain deadline,
  answer ``draining`` to protocol work that arrives mid-drain, and
  flush every resident session's checkpoint (failures land in
  :attr:`drain_failures` so ``repro-dlr serve`` can exit nonzero).
* **Replay cache** -- a ``decrypt`` stamped with a ``request_id`` is
  idempotent: a client retrying after a lost response receives the
  cached response instead of burning a second period on the same
  ciphertext.  Entries are bound to a SHA-256 of the request payload: a
  reused id with a different payload is answered ``replay-conflict``.

Every response carries ``ok``; failures add ``code`` + ``error``:

========================  ====================================================
``bad-request``           malformed op/fields/payload, invalid names
``unknown-key``           no such tenant/key (never created, or deleted)
``rejected``              admission control refused (reason in ``error``)
``deadline-exceeded``     the request's deadline expired; retry with budget
``overloaded``            shed under load; retry after ``retry-after`` s
``draining``              shutting down; retry elsewhere / later
``checkpoint-corrupt``    the key's durable state is damaged (fatal per key)
``protocol-error``        the two-party protocol failed fatally mid-request
``replay-conflict``       ``request_id`` reused for a different payload
``internal``              anything else; the worker survives
========================  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import (
    AdmissionRejected,
    CheckpointError,
    DeadlineExceeded,
    ParameterError,
    ProtocolError,
    PeerDisconnected,
    ReplayConflict,
    ServiceDraining,
    ServiceError,
    ServiceOverloaded,
    TransportTimeout,
    WireFormatError,
)
from repro.math.backend import active_backend
from repro.protocol.transport import encode_frame, recv_frame
from repro.service.registry import SessionRegistry
from repro.service.resilience import (
    HEAVY_OPS,
    ResponseCache,
    deadline_from_header,
    validated_request_id,
)
from repro.service.session import ManagedSession, StaleSessionError
from repro.telemetry.metrics import MetricsRegistry, mark_backend
from repro.telemetry.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.telemetry.tracer import SpanContext, active_tracer
from repro.utils import persist

#: Histogram boundaries for request latency: service requests run two-
#: party protocol periods, so the interesting range is ms to seconds.
REQUEST_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0
)

#: Histogram boundaries for decrypt-batch sizes: powers of two matching
#: the bench sweep, so operators can read amortization off the same axis.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: Service health states reported by the ``health`` op.
READY = "ready"
DRAINING = "draining"
OVERLOADED = "overloaded"

#: Cardinality bound for the ``tenant`` metric label: a label set is a
#: time series, so a hostile or buggy client must not be able to mint
#: unbounded series by inventing tenant names.  Beyond this many
#: distinct tenants, further ones aggregate under ``__other__``.
MAX_TENANT_LABELS = 32

#: The tenant label for requests that carry no tenant field (light ops
#: like ``ping``/``health``/``stats``/``metrics``).
NO_TENANT_LABEL = "-"

#: The tenant label for tenant names the registry would reject anyway
#: (non-conforming strings never become series of their own).
INVALID_TENANT_LABEL = "__invalid__"

#: The overflow bucket once :data:`MAX_TENANT_LABELS` is reached.
OVERFLOW_TENANT_LABEL = "__other__"


class KeyService:
    """A multi-session key service over a local TCP listener."""

    def __init__(
        self,
        registry: SessionRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        client_timeout: float = 30.0,
        max_requests: int | None = None,
        backlog: int = 8,
        brownout_workers: int = 2,
        replay_capacity: int = 512,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ParameterError("the service needs at least one worker")
        if backlog < 1:
            raise ParameterError("the accept backlog must be >= 1")
        if brownout_workers < 1:
            raise ParameterError("brownout needs at least one worker")
        self.registry = registry
        self.host = host
        self.port = port
        self.workers = workers
        self.client_timeout = client_timeout
        self.max_requests = max_requests
        self.backlog = backlog
        self.brownout_workers = brownout_workers
        #: Shared with the registry by default so one snapshot carries
        #: both the request-level and residency-level instruments.
        self.metrics = metrics if metrics is not None else registry.metrics
        self.address: tuple[str, int] | None = None
        #: Keys whose end-of-life checkpoint flush failed during the
        #: last drain (mirrors ``registry.drain_failures``).
        self.drain_failures: list[str] = []
        self._listener: socket.socket | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._brownout_pool: ThreadPoolExecutor | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._stop_lock = threading.Lock()
        self._stop_begun = False
        self._requests_handled = 0
        self._count_lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._busy: set[socket.socket] = set()
        self._brownout_active = 0
        self._connections_lock = threading.Lock()
        self._replay = ResponseCache(replay_capacity)
        self._tenant_labels: set[str] = set()
        self._tenant_labels_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "KeyService":
        if self._listener is not None or self._stop_begun:
            raise ProtocolError("service already started")
        self._listener = socket.create_server((self.host, self.port))
        # Tag this process's metrics with the live arithmetic backend so
        # operators can confirm what a deployment actually computes on.
        mark_backend(self.metrics)
        # Poll the listener so stop() is honored promptly.
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._brownout_pool = ThreadPoolExecutor(
            max_workers=self.brownout_workers,
            thread_name_prefix="repro-service-brownout",
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-service-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def begin_drain(self) -> None:
        """Signal shutdown without blocking: stop admitting protocol
        work and wake :meth:`wait`.  Safe to call from a signal handler
        (it only sets events); the actual drain runs in :meth:`stop`.

        Existing connections keep answering -- light ops served, heavy
        ops refused with the retryable ``draining`` code -- until
        :meth:`stop` cuts their sockets, so a request in flight when
        the drain begins always gets a typed response, never a reset.
        """
        self._draining.set()
        self._stopping.set()

    def stop(self, *, drain_deadline: float | None = None) -> None:
        """Graceful shutdown: stop accepting, drain in-flight requests,
        checkpoint and evict every resident session.

        Idempotent and thread-safe: concurrent callers (e.g. a signal
        handler racing the ``max_requests`` trip) are serialized by a
        once-lock -- the first runs the shutdown, the rest block until
        it finishes and return.  ``drain_deadline`` bounds how long
        in-flight requests may keep their connections to finish and
        deliver responses; ``None`` cuts all connections immediately
        (in-flight protocol work still completes and commits -- only
        its responses are lost).
        """
        with self._stop_lock:
            if self._stop_begun:
                already_stopping = True
            elif self._listener is None:
                return  # never started
            else:
                self._stop_begun = True
                already_stopping = False
        if already_stopping:
            self._stopped.wait()
            return
        self.begin_drain()
        self._accept_thread.join()
        self._listener.close()
        # Cut connections parked between requests (including silent
        # clients) right away: their workers are not serving anything.
        self._cut_connections(only_idle=True)
        if drain_deadline is not None and drain_deadline > 0:
            drain_until = time.monotonic() + drain_deadline
            while time.monotonic() < drain_until:
                with self._connections_lock:
                    if not self._busy:
                        break
                time.sleep(0.02)
        # Whatever is still connected now loses its socket; protocol
        # work past its commit point still completes below.
        self._cut_connections(only_idle=False)
        self._pool.shutdown(wait=True)
        self._brownout_pool.shutdown(wait=True)
        self.registry.evict_all()
        self.drain_failures = list(self.registry.drain_failures)
        self._listener = None
        self._stopped.set()

    def _cut_connections(self, *, only_idle: bool) -> None:
        with self._connections_lock:
            targets = [
                connection
                for connection in self._connections
                if not (only_idle and connection in self._busy)
            ]
        for connection in targets:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the service begins stopping (``max_requests``
        reached, :meth:`begin_drain`, or :meth:`stop` elsewhere)."""
        return self._stopping.wait(timeout)

    def __enter__(self) -> "KeyService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def requests_handled(self) -> int:
        with self._count_lock:
            return self._requests_handled

    # -- health --------------------------------------------------------------

    def health_status(self) -> str:
        if self._draining.is_set():
            return DRAINING
        if self._active_connections() >= self.workers + self.backlog:
            return OVERLOADED
        return READY

    def _active_connections(self) -> int:
        with self._connections_lock:
            return len(self._connections)

    def _busy_workers(self) -> int:
        with self._connections_lock:
            return len(self._busy)

    def _queue_depth(self) -> int:
        """Connections admitted beyond the worker count: the accept-queue
        pressure the brownout lane is absorbing."""
        return max(0, self._active_connections() - self.workers)

    def refresh_gauges(self) -> None:
        """Re-publish point-in-time gauges into the metrics registry.

        Called on every observation surface (``health``/``stats``/
        ``metrics`` ops and the Prometheus endpoint) rather than on a
        timer: gauges are cheap to recompute and this keeps every scrape
        internally consistent with the moment it was served.
        """
        self.metrics.gauge("service.busy_workers").set(self._busy_workers())
        self.metrics.gauge("service.queue_depth").set(self._queue_depth())
        self.metrics.gauge("service.connections_active").set(self._active_connections())
        self.registry.publish_budget_gauges()

    def _retry_after(self) -> float:
        """Backoff hint for shed requests: grows with the overflow depth
        so a herd of shed clients spreads out instead of stampeding."""
        overflow = self._active_connections() - self.workers + 1
        return min(2.0, max(0.05, 0.05 * overflow))

    def _tenant_label(self, tenant) -> str:
        """Fold a request's tenant field into the bounded label space.

        Absent → ``-``; malformed (would fail registry validation) →
        ``__invalid__``; otherwise the tenant itself until
        :data:`MAX_TENANT_LABELS` distinct tenants have been seen, then
        ``__other__``.  The seen-set is remembered, so a tenant that made
        the cut keeps its own series for the life of the process.
        """
        from repro.service.registry import _NAME_RE

        if tenant is None:
            return NO_TENANT_LABEL
        if not isinstance(tenant, str) or not _NAME_RE.match(tenant):
            return INVALID_TENANT_LABEL
        with self._tenant_labels_lock:
            if tenant in self._tenant_labels:
                return tenant
            if len(self._tenant_labels) < MAX_TENANT_LABELS:
                self._tenant_labels.add(tenant)
                return tenant
        return OVERFLOW_TENANT_LABEL

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            accepted_at = time.perf_counter()
            connection.settimeout(self.client_timeout)
            with self._connections_lock:
                active = len(self._connections)
                brownout_full = self._brownout_active >= self.backlog
                if active < self.workers + self.backlog:
                    lane = "normal"
                elif not brownout_full:
                    lane = "brownout"
                    self._brownout_active += 1
                else:
                    lane = "hard"
                if lane != "hard":
                    self._connections.add(connection)
            if lane == "normal":
                self._pool.submit(self._serve_connection, connection, False, accepted_at)
            elif lane == "brownout":
                self.metrics.counter("service.brownout_connections").inc()
                self._brownout_pool.submit(
                    self._serve_connection, connection, True, accepted_at
                )
            else:
                # Even the brownout lane is full: shed outright, but
                # politely -- a pre-written overloaded response answers
                # the client's first request without holding a thread.
                self.metrics.counter("service.sheds", mode="hard").inc()
                self._shed_connection(connection)

    def _shed_connection(self, connection: socket.socket) -> None:
        header = {
            "ok": False,
            "code": "overloaded",
            "error": "service is at capacity; retry later",
            "retry-after": self._retry_after(),
        }
        try:
            connection.setblocking(False)
            connection.sendall(encode_frame(header, b""))
        except OSError:
            pass
        finally:
            connection.close()

    def _serve_connection(
        self,
        connection: socket.socket,
        brownout: bool = False,
        accepted_at: float | None = None,
    ) -> None:
        try:
            while True:
                try:
                    header, payload = recv_frame(
                        connection, "service", timeout=self.client_timeout
                    )
                except PeerDisconnected:
                    break  # client hung up between requests: normal
                except TransportTimeout:
                    # A silent client must not wedge a worker forever:
                    # drop the connection and hand the thread back.
                    self.metrics.counter("service.client_timeouts").inc()
                    break
                except WireFormatError as exc:
                    self._respond(
                        connection, {"ok": False, "code": "bad-request", "error": str(exc)}
                    )
                    break
                with self._connections_lock:
                    self._busy.add(connection)
                try:
                    tracer = active_tracer()
                    if tracer.enabled:
                        # The server-side root of this request's trace,
                        # parented cross-process on the client's attempt
                        # span when the header carries trace context.
                        # Covers dispatch *and* reply delivery, so the
                        # reply-encode child in _respond nests under it.
                        span = tracer.span(
                            "service.request",
                            parent=SpanContext.from_header(header),
                            op=header.get("op"),
                            tenant=self._tenant_label(header.get("tenant")),
                        )
                        with span:
                            if accepted_at is not None:
                                # Accept-queue wait: accept-to-dispatch on
                                # this same process clock.  Only the first
                                # request of a connection waited for it.
                                tracer.record(
                                    "service.queue_wait",
                                    max(0.0, span.start - accepted_at),
                                    parent=span,
                                    brownout=brownout,
                                )
                            response_header, response_payload = self._handle(
                                header, payload, shed_heavy=brownout
                            )
                            span.annotate(ok=response_header.get("ok"))
                            if not response_header.get("ok"):
                                span.annotate(code=response_header.get("code"))
                            delivered = self._respond(
                                connection, response_header, response_payload
                            )
                    else:
                        response_header, response_payload = self._handle(
                            header, payload, shed_heavy=brownout
                        )
                        delivered = self._respond(
                            connection, response_header, response_payload
                        )
                    accepted_at = None
                finally:
                    with self._connections_lock:
                        self._busy.discard(connection)
                if not delivered:
                    break
                if self._bump_handled():
                    break
                # No drain check here on purpose: a worker never closes
                # its connection just because draining began -- closing
                # between a client's send and our recv turns a typed
                # ``draining`` refusal into a connection reset.  During
                # a drain the loop keeps answering (light ops served,
                # heavy ops refused with ``draining``) until stop()'s
                # connection cut wakes the recv with PeerDisconnected.
        finally:
            with self._connections_lock:
                self._connections.discard(connection)
                self._busy.discard(connection)
                if brownout:
                    self._brownout_active -= 1
            connection.close()

    def _respond(self, connection, header: dict, payload: bytes = b"") -> bool:
        tracer = active_tracer()
        try:
            if tracer.enabled and tracer.current() is not None:
                # Child of the service.request span open on this thread:
                # how long serializing + delivering the reply took.
                with tracer.span("service.reply_encode", bytes=len(payload)):
                    connection.sendall(encode_frame(header, payload))
            else:
                connection.sendall(encode_frame(header, payload))
            return True
        except OSError:
            return False

    def _bump_handled(self) -> bool:
        with self._count_lock:
            self._requests_handled += 1
            done = (
                self.max_requests is not None
                and self._requests_handled >= self.max_requests
            )
        if done:
            # Trip the stop event only: the actual drain must happen on
            # a non-worker thread (stop() joins the pool).
            self.begin_drain()
        return done

    # -- request dispatch ----------------------------------------------------

    def _handle(
        self, header: dict, payload: bytes, *, shed_heavy: bool = False
    ) -> tuple[dict, bytes]:
        op = header.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        start = time.perf_counter()
        outcome = "ok"
        try:
            if handler is None:
                raise ServiceError("bad-request", f"unknown op {op!r}")
            if op in HEAVY_OPS:
                if self._draining.is_set():
                    raise ServiceDraining(
                        "service is draining; no new protocol work admitted"
                    )
                if shed_heavy:
                    raise ServiceOverloaded(
                        "service is saturated; protocol work shed (brownout)",
                        retry_after=self._retry_after(),
                    )
                # Deadline gate at admission: a request that arrives
                # already dead never reaches a session.
                deadline = deadline_from_header(header)
                if deadline is not None:
                    deadline.check("at admission")
            fields, body = handler(header, payload)
            return {"ok": True, **fields}, body
        except DeadlineExceeded as exc:
            outcome = "deadline"
            self.metrics.counter("service.deadline_exceeded").inc()
            return {"ok": False, "code": exc.code, "error": str(exc)}, b""
        except ServiceOverloaded as exc:
            outcome = "shed"
            self.metrics.counter("service.sheds", mode="brownout").inc()
            return {
                "ok": False,
                "code": exc.code,
                "error": str(exc),
                "retry-after": exc.retry_after,
            }, b""
        except ServiceDraining as exc:
            outcome = "shed"
            self.metrics.counter("service.sheds", mode="drain").inc()
            return {
                "ok": False,
                "code": exc.code,
                "error": str(exc),
                "retry-after": 0.1,
            }, b""
        except AdmissionRejected as exc:
            outcome = "rejected"
            self.metrics.counter("service.rejections").inc()
            return {"ok": False, "code": exc.code, "error": exc.reason}, b""
        except ServiceError as exc:
            outcome = "error"
            return {"ok": False, "code": exc.code, "error": str(exc)}, b""
        except CheckpointError as exc:
            outcome = "error"
            return {"ok": False, "code": "checkpoint-corrupt", "error": str(exc)}, b""
        except KeyError as exc:
            outcome = "error"
            return {"ok": False, "code": "unknown-key", "error": str(exc)}, b""
        except (ParameterError, WireFormatError, ValueError) as exc:
            outcome = "error"
            return {"ok": False, "code": "bad-request", "error": str(exc)}, b""
        except ProtocolError as exc:
            outcome = "error"
            return {"ok": False, "code": "protocol-error", "error": str(exc)}, b""
        except Exception as exc:  # the worker must survive anything
            outcome = "error"
            return {
                "ok": False,
                "code": "internal",
                "error": f"{type(exc).__name__}: {exc}",
            }, b""
        finally:
            label = op if isinstance(op, str) else "invalid"
            tenant = self._tenant_label(header.get("tenant"))
            exemplar = None
            tracer = active_tracer()
            if tracer.enabled:
                # Link this observation to the request's trace: the span
                # open on this thread is the service.request root opened
                # in _serve_connection.  Scrapers surface the exemplar on
                # the latency bucket the request landed in, so a tail
                # bucket points straight at a trace that lives there.
                current = tracer.current()
                if current is not None:
                    exemplar = {"span": current.ref}
                    if current.trace_id is not None:
                        exemplar["trace_id"] = current.trace_id
            self.metrics.histogram(
                "service.request_seconds",
                buckets=REQUEST_SECONDS_BUCKETS,
                op=label,
                tenant=tenant,
            ).observe(time.perf_counter() - start, exemplar=exemplar)
            self.metrics.counter(
                "service.requests", op=label, outcome=outcome, tenant=tenant
            ).inc()

    def _session(self, header: dict) -> ManagedSession:
        return self.registry.get(header.get("tenant"), header.get("key"))

    # -- operations ----------------------------------------------------------

    def _op_ping(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        return {}, b""

    def _op_health(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        self.refresh_gauges()
        return {
            "status": self.health_status(),
            "draining": self._draining.is_set(),
            "active_connections": self._active_connections(),
            "workers": self.workers,
            "busy_workers": self._busy_workers(),
            "queue_depth": self._queue_depth(),
            "backend": active_backend().name,
            "backlog": self.backlog,
            "sessions_resident": self.registry.resident_count(),
            "requests_handled": self.requests_handled,
        }, b""

    def _op_open(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        session = self.registry.create(
            header.get("tenant"),
            header.get("key"),
            scheme=header.get("scheme", "dlr"),
            n=int(header.get("n", 32)),
            lam=int(header.get("lam", 32)),
            seed=header.get("seed"),
        )
        envelope = persist.dumps("public_key", session.public_key)
        return {"scheme": session.scheme_kind, "period": 0}, envelope.encode("utf-8")

    def _op_describe(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        session = self._session(header)
        envelope = persist.dumps("public_key", session.public_key)
        return {
            "scheme": session.scheme_kind,
            "next_period": session.next_period,
            "frozen": session.frozen,
        }, envelope.encode("utf-8")

    def _serve_on(self, header: dict, serve) -> tuple[ManagedSession, object]:
        # Between registry lookup and session lock the LRU sweep may
        # evict the object we hold; re-resolve once (the second lookup
        # rehydrates from the checkpoint the eviction just guaranteed).
        for attempt in (1, 2):
            session = self._session(header)
            try:
                return session, serve(session)
            except StaleSessionError:
                if attempt == 2:
                    raise ServiceError(
                        "internal", f"session {session.key} evicted twice mid-request"
                    ) from None

    def _replay_lookup(self, header: dict, payload: bytes):
        """``(cache key, payload digest, cached response)`` of a decrypt
        (key ``None`` without ``request_id``).  A hit is a retry after a
        lost response: replay it rather than burn a second period.  A
        reused id with another payload raises ``ReplayConflict``."""
        request_id = header.get("request_id")
        if request_id is None:
            return None, None, None
        request_id = validated_request_id(request_id)
        cache_key = (header.get("tenant"), header.get("key"), request_id)
        digest = hashlib.sha256(payload).digest()
        try:
            cached = self._replay.get(cache_key, digest)
        except ReplayConflict:
            self.metrics.counter("service.replay_conflicts").inc()
            raise
        if cached is not None:
            self.metrics.counter("service.replayed_decrypts").inc()
        return cache_key, digest, cached

    def _op_decrypt(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        deadline = deadline_from_header(header)
        cache_key, digest, cached = self._replay_lookup(header, payload)
        if cached is not None:
            fields, body = cached
            return {**fields, "replayed": True}, body

        def serve(session):
            # Decode against the *serving* session's group, inside the
            # re-resolve loop: decoding before it could hand a
            # rehydrated session a ciphertext decoded into the evicted
            # twin's group.
            ciphertext = persist.loads(payload.decode("utf-8"), session.group)
            return session.serve_decrypt(ciphertext, deadline=deadline)

        session, record = self._serve_on(header, serve)
        bits = record.plaintext.to_bits()
        fields = {"period": record.period, "plaintext_bits": len(bits)}
        body = bits.to_bytes()
        if cache_key is not None:
            self._replay.put(cache_key, fields, body, digest)
        return fields, body

    def _op_decrypt_batch(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        """Decrypt a whole ciphertext vector as ONE supervised period:
        every ciphertext under the current share generation, one refresh,
        one checkpoint, one leakage-period charge -- the amortized path.
        Idempotent under ``request_id`` exactly like ``decrypt``; the
        deadline is enforced between protocol steps, so each per-
        ciphertext chunk of the period re-checks it and an expiry rolls
        the whole (uncommitted) period back, typed and retryable."""
        deadline = deadline_from_header(header)
        cache_key, digest, cached = self._replay_lookup(header, payload)
        if cached is not None:
            fields, body = cached
            return {**fields, "replayed": True}, body

        def serve(session):
            ciphertexts = persist.loads(payload.decode("utf-8"), session.group)
            if not isinstance(ciphertexts, list) or not ciphertexts:
                raise ServiceError(
                    "bad-request", "decrypt_batch needs a non-empty ciphertext_batch"
                )
            return session.serve_decrypt_batch(ciphertexts, deadline=deadline)

        session, record = self._serve_on(header, serve)
        self.metrics.histogram(
            "service.batch_size",
            buckets=BATCH_SIZE_BUCKETS,
            tenant=self._tenant_label(header.get("tenant")),
        ).observe(len(record.plaintexts))
        bits_list = [plaintext.to_bits() for plaintext in record.plaintexts]
        fields = {
            "period": record.period,
            "count": len(bits_list),
            "plaintext_bits": [len(bits) for bits in bits_list],
        }
        body = b"".join(bits.to_bytes() for bits in bits_list)
        if cache_key is not None:
            self._replay.put(cache_key, fields, body, digest)
        return fields, body

    def _op_refresh(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        deadline = deadline_from_header(header)
        session, record = self._serve_on(
            header, lambda s: s.serve_refresh(deadline=deadline)
        )
        return {"period": record.period}, b""

    def _op_evict(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        evicted = self.registry.evict(header.get("tenant"), header.get("key"))
        return {"evicted": evicted}, b""

    def _op_metrics(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        """Prometheus text exposition over the wire protocol -- the same
        bytes ``--prom-port`` serves over HTTP, for clients that already
        hold a service connection (light op: served during brownout)."""
        self.refresh_gauges()
        body = render_prometheus(self.metrics).encode("utf-8")
        return {"content_type": PROMETHEUS_CONTENT_TYPE}, body

    def _op_stats(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        self.refresh_gauges()
        body = json.dumps(
            {
                "backend": active_backend().name,
                "health": self.health_status(),
                "registry": self.registry.snapshot(),
                "metrics": self.metrics.snapshot(),
                "requests_handled": self.requests_handled,
            },
            sort_keys=True,
        ).encode("utf-8")
        return {"sessions_active": self.registry.resident_count()}, body
