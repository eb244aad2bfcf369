"""Exception hierarchy for the repro library."""


class ReproError(Exception):
    """Base class for all library errors."""


class ParameterError(ReproError):
    """Invalid or inconsistent scheme parameters."""


class GroupError(ReproError):
    """Invalid group element or group operation."""


class ProtocolError(ReproError):
    """A 2-party protocol was driven incorrectly or received bad messages."""


class WireFormatError(ReproError):
    """A payload could not be encoded to (or decoded from) the wire format."""


class PeerDisconnected(ProtocolError):
    """The remote party closed its transport endpoint mid-protocol.

    Raised by threaded transports (:class:`~repro.protocol.transport.SocketTransport`)
    when a read or write hits a closed socket -- typically because the
    peer's protocol step failed and its runner shut the connection down.
    """


class TransportTimeout(ProtocolError):
    """A blocking transport operation exceeded its configured timeout.

    Raised by :class:`~repro.protocol.transport.SocketTransport` when a
    read or write does not complete within the socket timeout -- the
    peer is silent but the connection is not known to be dead.  This is
    the canonical *transient* fault: the session supervisor
    (:mod:`repro.runtime`) retries it, unlike a raw ``socket.timeout``
    which older code would have surfaced as an unclassifiable crash.
    """

    def __init__(self, message: str, *, timeout: float | None = None) -> None:
        super().__init__(message)
        self.timeout = timeout


class FaultInjected(ProtocolError):
    """An injected channel fault interrupted a protocol mid-flight.

    Raised by :class:`~repro.protocol.faults.FaultyChannel` at a
    configured message boundary; carries which message was hit and how.
    """

    def __init__(self, message: str, *, label: str | None = None, mode: str | None = None) -> None:
        super().__init__(message)
        self.label = label
        self.mode = mode


class RefreshAborted(ProtocolError):
    """A staged share rotation was rolled back after a mid-protocol failure.

    Both devices still hold their *old*, mutually consistent shares; the
    interrupted period can simply be re-run.  ``snapshots`` holds any
    phase snapshots that were open when the abort happened (the leakage
    game still charges the adversary for aborted phases).
    """

    def __init__(
        self,
        message: str,
        *,
        period: int | None = None,
        snapshots: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.period = period
        self.snapshots = snapshots if snapshots is not None else {}


class LeakageBudgetExceeded(ReproError):
    """A leakage request exceeded the per-period budget (the challenger aborts)."""

    def __init__(self, device: str, requested: int, available: int) -> None:
        self.device = device
        self.requested = requested
        self.available = available
        super().__init__(
            f"leakage budget exceeded on {device}: "
            f"requested {requested} bits, only {available} available"
        )


class CheckpointError(ReproError):
    """A durable session checkpoint could not be read back.

    Raised by :func:`repro.runtime.checkpoint.load_checkpoint` when the
    file is truncated, not JSON, or structurally incomplete -- instead
    of the raw ``json.JSONDecodeError`` / ``KeyError`` older code let
    escape.  Classified *fatal* by the runtime taxonomy: re-reading the
    same bytes reproduces the failure, so a service rehydrating an
    evicted session must surface it as a clean per-key fault rather
    than crash its worker.  ``path`` names the offending file.
    """

    def __init__(self, message: str, *, path=None) -> None:
        super().__init__(message)
        self.path = path


class DecryptionError(ReproError):
    """Decryption failed (malformed ciphertext, failed signature check, ...)."""


class SingularMatrixError(ReproError):
    """A matrix over Z_p was singular where an invertible one was required."""


class ServiceError(ReproError):
    """A key-service request failed; ``code`` is the machine-readable
    reason from the response header (``unknown-key``, ``bad-request``,
    ``rejected``, ``checkpoint-corrupt``, ``internal``, ...)."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(f"[{code}] {message}")


class DeadlineExceeded(ServiceError):
    """A request's deadline expired before the service finished it.

    Code ``deadline-exceeded``.  Stamped deadlines propagate from the
    client's request header and are checked at admission, after any wait
    for the session lock, and between protocol steps (via the
    transport's step hook), so a dead request never burns a worker on a
    full two-party period whose answer nobody is waiting for.  The
    staged-commit machinery guarantees a mid-protocol expiry rolls the
    period back, so the request is *retryable* under a fresh deadline.
    """

    def __init__(self, message: str, *, where: str | None = None) -> None:
        super().__init__("deadline-exceeded", message)
        self.where = where


class ServiceOverloaded(ServiceError):
    """The service shed this request to protect itself under load.

    Code ``overloaded``.  Nothing ran: retry after ``retry_after``
    seconds (the hint echoed in the response's ``retry-after`` field).
    """

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__("overloaded", message)
        self.retry_after = retry_after


class ServiceDraining(ServiceError):
    """The service is draining for shutdown and refused new protocol work.

    Code ``draining``.  In-flight requests finish; new ones should be
    retried against another instance (or later).  Nothing ran.
    """

    def __init__(self, message: str) -> None:
        super().__init__("draining", message)


class ReplayConflict(ServiceError):
    """A ``request_id`` was reused for a different request payload.

    Code ``replay-conflict``, not retryable: replay-cache entries are
    bound to a digest of their request, so a colliding id gets this
    instead of another request's plaintext.  Use a fresh id.
    """

    def __init__(self, message: str) -> None:
        super().__init__("replay-conflict", message)


class RetryExhausted(ServiceError):
    """The retrying client gave up (or refused to replay an unsafe op).

    ``attempts`` is the full retry history: one dict per attempt with
    the fault or response code observed and the backoff chosen, so a
    caller (or a test) can reconstruct exactly what the client saw.
    ``code`` is the last failure's code -- a wire code for a failure
    response, ``connection-lost`` / ``connection-timeout`` for a
    transport fault the client would not (or could no longer) retry.
    """

    def __init__(
        self, code: str, message: str, *, op: str | None = None, attempts=None
    ) -> None:
        super().__init__(code, message)
        self.op = op
        self.attempts = list(attempts or [])


class AdmissionRejected(ServiceError):
    """The key service refused to run a request, with a reason.

    Admission control is tied to the session's leakage budget: a frozen
    session (a retry would have exceeded the budget) or an exhausted
    per-period budget rejects *before* any protocol bits hit the wire,
    and a registry at capacity with every resident session busy rejects
    rather than queue unboundedly.  ``reason`` is the human-readable
    explanation echoed to the client.
    """

    def __init__(self, key: str, reason: str) -> None:
        self.key = key
        self.reason = reason
        super(ServiceError, self).__init__(f"request for {key} rejected: {reason}")
        self.code = "rejected"
