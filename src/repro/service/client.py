"""Loopback client for the key service, with retries and deadlines.

:class:`ServiceClient` speaks the service's framed request protocol
over one TCP connection: requests are sequential per connection, so a
load generator opens one client per concurrent stream.  Failure
responses raise :class:`~repro.errors.ServiceError` carrying the
machine-readable ``code`` from the response header
(:class:`~repro.errors.AdmissionRejected` for ``rejected``), so callers
can branch on *why* without parsing message text.

Resilience (the client half of ``docs/service.md``'s failure matrix):

* Raw socket failures never leak: a stalled server surfaces as
  :class:`~repro.errors.TransportTimeout`, a dropped connection as
  :class:`~repro.errors.PeerDisconnected` -- the same classified types
  the device transport uses, so callers and retry policies branch on
  one taxonomy.
* :meth:`call` retries under a seeded
  :class:`~repro.runtime.policy.RetryPolicy` (exponential backoff,
  deterministic jitter): *failure responses* with a retryable code
  (``deadline-exceeded``/``overloaded``/``draining`` -- the service
  guarantees nothing committed) are retried for any op, honoring the
  server's ``retry-after`` hint; *connection losses* (the client cannot
  know whether the request executed) are replayed only for idempotent
  ops -- ``ping``/``describe``/``stats``/``health``, plus ``decrypt``
  when stamped with a ``request_id`` (the server's replay cache absorbs
  duplicates).  :meth:`decrypt`/:meth:`encrypt_and_decrypt` stamp one
  automatically.  Anything else raises
  :class:`~repro.errors.RetryExhausted` carrying the full attempt
  history.
* A per-request ``deadline`` (seconds) is stamped on the wire and
  re-stamped with the *remaining* budget on every retry, so the server
  stops burning workers the moment the client stops waiting.

The client never sees secret shares: it encrypts locally against the
public key returned by :meth:`open_key`/:meth:`describe` and sends the
ciphertext envelope; the service returns the recovered GT plaintext.
"""

from __future__ import annotations

import os
import random
import socket
import time

from repro.errors import (
    AdmissionRejected,
    PeerDisconnected,
    RetryExhausted,
    ServiceError,
    TransportTimeout,
)
from repro.groups.encoding import decode_gt
from repro.protocol.transport import encode_frame, recv_frame
from repro.runtime.policy import RetryPolicy
from repro.service.resilience import Deadline, RETRYABLE_CODES, is_idempotent
from repro.telemetry.tracer import active_tracer
from repro.utils import persist
from repro.utils.bits import BitString


class ServiceClient:
    """One connection to a :class:`~repro.service.server.KeyService`.

    ``retry`` (default: the runtime's standard policy) drives the
    backoff schedule; ``retry=None`` disables retries entirely (every
    failure surfaces on the first attempt).  ``retry_seed`` makes the
    jitter stream and generated request ids deterministic; without it
    the ids carry a random per-client tag.  ``deadline``
    is a default per-request budget in seconds, stamped on every call
    (``call(..., deadline=...)`` overrides per request).
    """

    def __init__(
        self,
        address: tuple[str, int],
        *,
        timeout: float = 30.0,
        retry: RetryPolicy | None = RetryPolicy(),
        retry_seed: object = None,
        deadline: float | None = None,
        sleep=time.sleep,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.retry = retry
        self.deadline = deadline
        self._sleep = sleep
        self._retry_rng = random.Random(f"{retry_seed}/service-client/retry")
        # Without a seed the tag is random: two clients sharing a tag would
        # share request ids, and the server's replay cache keys on them.
        if retry_seed is None:
            self._request_tag = os.urandom(6).hex()
        else:
            id_rng = random.Random(f"{retry_seed}/service-client/id")
            self._request_tag = f"{id_rng.getrandbits(48):012x}"
        self._request_counter = 0
        self._socket: socket.socket | None = None
        self._connect()
        #: ``tenant/key -> public_key`` from open/describe responses, so
        #: encrypt helpers don't re-fetch the key on every request.
        self._public_keys: dict[str, object] = {}

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connect(self) -> None:
        try:
            self._socket = socket.create_connection(self.address, timeout=self.timeout)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"client could not connect within {self.timeout}s",
                timeout=self.timeout,
            ) from exc
        except OSError as exc:
            raise PeerDisconnected("client could not connect to the service") from exc

    def _drop_connection(self) -> None:
        self.close()

    def next_request_id(self) -> str:
        """A fresh request id (deterministic under ``retry_seed``)."""
        self._request_counter += 1
        return f"{self._request_tag}-{self._request_counter}"

    # -- raw request layer ---------------------------------------------------

    def request(self, op: str, payload: bytes = b"", **fields) -> tuple[dict, bytes]:
        """One framed round trip; returns the raw (header, payload).

        No retries at this layer, but socket failures are classified:
        a stall raises :class:`~repro.errors.TransportTimeout`, a
        closed or reset connection :class:`~repro.errors.PeerDisconnected`
        -- never a raw ``socket.timeout``/``OSError``.
        """
        if self._socket is None:
            self._connect()
        try:
            self._socket.sendall(encode_frame({"op": op, **fields}, payload))
        except socket.timeout as exc:
            raise TransportTimeout(
                f"client send of {op!r} stalled", timeout=self.timeout
            ) from exc
        except OSError as exc:
            raise PeerDisconnected(f"client lost the connection sending {op!r}") from exc
        return recv_frame(self._socket, "client", timeout=self.timeout)

    def call(
        self, op: str, payload: bytes = b"", *, deadline: float | None = None, **fields
    ) -> tuple[dict, bytes]:
        """Like :meth:`request`, but raises typed errors on failure and
        retries under the client's policy (see the module docstring for
        exactly what is and is not replayed)."""
        budget = deadline if deadline is not None else self.deadline
        overall = Deadline.after(budget) if budget is not None else None
        policy = self.retry
        attempts: list[dict] = []
        idempotent = is_idempotent(op, fields)
        attempt = 0
        tracer = active_tracer()
        while True:
            attempt += 1
            header_fields = dict(fields)
            if overall is not None:
                header_fields["deadline"] = max(0.0, overall.remaining())
            span = None
            if tracer.enabled:
                # One span per attempt: retries become siblings under one
                # trace id, so a trace shows every try -- and its context
                # rides the request header, parenting the server-side
                # service.request span cross-process.
                span = tracer.span("service.call", op=op, attempt=attempt)
                span.__enter__()
                header_fields.update(span.context().header_fields())
            try:
                try:
                    header, body = self.request(op, payload, **header_fields)
                except (TransportTimeout, PeerDisconnected):
                    raise
                except BaseException as exc:
                    # Unclassified failures must still close the attempt
                    # span, or the thread-local stack wedges open.
                    if span is not None:
                        span.__exit__(type(exc), exc, None)
                        span = None
                    raise
            except (TransportTimeout, PeerDisconnected) as exc:
                if span is not None:
                    span.annotate(fault=type(exc).__name__)
                    span.__exit__(None, None, None)
                    span = None
                self._drop_connection()
                record = {"attempt": attempt, "fault": type(exc).__name__}
                attempts.append(record)
                code = (
                    "connection-timeout"
                    if isinstance(exc, TransportTimeout)
                    else "connection-lost"
                )
                if not idempotent:
                    raise RetryExhausted(
                        code,
                        f"connection failed mid-{op!r}; the request may have "
                        "executed, so a non-idempotent op is never replayed",
                        op=op,
                        attempts=attempts,
                    ) from exc
                if not self._may_retry(policy, attempt, overall):
                    raise RetryExhausted(
                        code,
                        f"{op!r} still failing after {attempt} attempts",
                        op=op,
                        attempts=attempts,
                    ) from exc
                record["backoff"] = self._backoff(policy, attempt, 0.0)
                continue
            if span is not None:
                span.annotate(ok=bool(header.get("ok")))
                if not header.get("ok"):
                    span.annotate(code=header.get("code", "internal"))
                span.__exit__(None, None, None)
            if header.get("ok"):
                return header, body
            code = header.get("code", "internal")
            message = header.get("error", "request failed")
            record = {"attempt": attempt, "code": code}
            attempts.append(record)
            # Retryable codes guarantee nothing committed server-side,
            # so replaying is safe for every op -- idempotent or not.
            if code in RETRYABLE_CODES and self._may_retry(policy, attempt, overall):
                hint = header.get("retry-after") or 0.0
                record["backoff"] = self._backoff(policy, attempt, float(hint))
                continue
            if code == "rejected":
                raise AdmissionRejected(
                    f"{fields.get('tenant')}/{fields.get('key')}", message
                )
            if len(attempts) > 1:
                raise RetryExhausted(code, message, op=op, attempts=attempts)
            raise ServiceError(code, message)

    def _may_retry(self, policy, attempt: int, overall: Deadline | None) -> bool:
        if policy is None or attempt >= policy.max_attempts:
            return False
        return overall is None or not overall.expired

    def _backoff(self, policy: RetryPolicy, attempt: int, hint: float) -> float:
        """Sleep before the next attempt: the policy's jittered backoff,
        never shorter than the server's ``retry-after`` hint."""
        pause = max(policy.backoff(attempt, self._retry_rng), hint)
        if pause > 0:
            self._sleep(pause)
        return pause

    # -- operations ----------------------------------------------------------

    def ping(self) -> bool:
        header, _ = self.call("ping")
        return bool(header["ok"])

    def health(self) -> dict:
        """The service's readiness: ``status`` is ``ready``/``draining``/
        ``overloaded`` plus load counters."""
        header, _ = self.call("health")
        return {key: value for key, value in header.items() if key != "ok"}

    def open_key(
        self,
        tenant: str,
        key: str,
        *,
        scheme: str = "dlr",
        n: int = 32,
        lam: int = 32,
        seed: int | None = None,
    ):
        """Create a key on the service; returns its public key."""
        fields = {"tenant": tenant, "key": key, "scheme": scheme, "n": n, "lam": lam}
        if seed is not None:
            fields["seed"] = seed
        _, body = self.call("open", **fields)
        return self._remember(tenant, key, body)

    def describe(self, tenant: str, key: str) -> tuple[dict, object]:
        """Status header plus the public key of an existing key."""
        header, body = self.call("describe", tenant=tenant, key=key)
        return header, self._remember(tenant, key, body)

    def public_key(self, tenant: str, key: str):
        cached = self._public_keys.get(f"{tenant}/{key}")
        if cached is None:
            _, cached = self.describe(tenant, key)
        return cached

    def decrypt(self, tenant: str, key: str, ciphertext, *, request_id: str | None = None):
        """Send a ciphertext for ``tenant/key``; returns the GT plaintext.

        Stamped with a ``request_id`` (generated if not given), so a
        retry after a lost response replays the server's cached answer
        instead of burning a second period.
        """
        public_key = self.public_key(tenant, key)
        envelope = persist.dumps("ciphertext", ciphertext).encode("utf-8")
        header, body = self.call(
            "decrypt",
            envelope,
            tenant=tenant,
            key=key,
            request_id=request_id if request_id is not None else self.next_request_id(),
        )
        bits = BitString(int.from_bytes(body, "big"), header["plaintext_bits"])
        return decode_gt(public_key.group, bits)

    def decrypt_batch(
        self, tenant: str, key: str, ciphertexts, *, request_id: str | None = None
    ) -> list:
        """Send a whole ciphertext vector for ``tenant/key``; returns the
        GT plaintexts in order.

        The server decrypts the batch as ONE supervised period (one
        refresh, one checkpoint), so per-ciphertext cost amortizes.
        Stamped with a ``request_id`` like :meth:`decrypt`, so a retry
        after a lost response replays the cached answer instead of
        burning another period on the same batch.
        """
        public_key = self.public_key(tenant, key)
        envelope = persist.dumps("ciphertext_batch", list(ciphertexts)).encode("utf-8")
        header, body = self.call(
            "decrypt_batch",
            envelope,
            tenant=tenant,
            key=key,
            request_id=request_id if request_id is not None else self.next_request_id(),
        )
        plaintexts = []
        position = 0
        for bit_length in header["plaintext_bits"]:
            byte_length = (bit_length + 7) // 8
            chunk = body[position : position + byte_length]
            position += byte_length
            bits = BitString(int.from_bytes(chunk, "big"), bit_length)
            plaintexts.append(decode_gt(public_key.group, bits))
        return plaintexts

    def encrypt_and_decrypt(self, tenant: str, key: str, message, rng):
        """Encrypt ``message`` locally under the key's pk (DLR-style
        ``Enc_pk``; both ``dlr`` and ``optimal`` use it), round-trip it
        through the service, and return ``(recovered, period)``."""
        public_key = self.public_key(tenant, key)
        from repro.core.dlr import DLR  # deferred: keep client import-light

        ciphertext = DLR(public_key.params).encrypt(public_key, message, rng)
        envelope = persist.dumps("ciphertext", ciphertext).encode("utf-8")
        header, body = self.call(
            "decrypt",
            envelope,
            tenant=tenant,
            key=key,
            request_id=self.next_request_id(),
        )
        bits = BitString(int.from_bytes(body, "big"), header["plaintext_bits"])
        return decode_gt(public_key.group, bits), header["period"]

    def refresh(self, tenant: str, key: str) -> int:
        """Ask the service to roll the key's shares; returns the period."""
        header, _ = self.call("refresh", tenant=tenant, key=key)
        return header["period"]

    def evict(self, tenant: str, key: str) -> bool:
        header, _ = self.call("evict", tenant=tenant, key=key)
        return bool(header["evicted"])

    def stats(self) -> dict:
        import json

        _, body = self.call("stats")
        return json.loads(body.decode("utf-8"))

    def metrics_text(self) -> str:
        """The service's metrics in Prometheus text exposition format
        (the same bytes its ``--prom-port`` HTTP endpoint serves)."""
        _, body = self.call("metrics")
        return body.decode("utf-8")

    # -- internals -----------------------------------------------------------

    def _remember(self, tenant: str, key: str, body: bytes):
        public_key = persist.loads(body.decode("utf-8"))
        self._public_keys[f"{tenant}/{key}"] = public_key
        return public_key
