"""Traced server launcher: ``repro-dlr serve`` with per-layer self-time timers.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 servebench/launcher.py LAYERS.json WARMUP serve --port 0 ...

The launcher wraps the public entry points of each layer (see
:func:`install`) with a timer, then calls ``repro.cli.main(["serve", ...])``
so the server runs exactly the code path ``repro-dlr serve`` runs.  When
the server exits (SIGTERM drain) the accumulated per-layer figures are
written to ``LAYERS.json``.  Nothing under ``src/`` is modified; the
wrappers are installed on the imported classes and modules only.

A wrapper's *self time* is its duration minus the durations of wrapped
calls nested inside it on the same thread.  Only calls made while a
measured request is being handled are accounted: the root scope is
``KeyService._handle`` for a ``decrypt`` / ``decrypt_batch`` request
after the first ``WARMUP`` of them, so key generation during ``open``
and the warm-up requests stay out of the figures.
"""

from __future__ import annotations

import json
import sys
import threading
import time

#: The frame that marks "inside ManagedSession.serve_decrypt[_batch]".
SERVE = "service.lock_wait"

#: The per-request root frame (``KeyService._handle``).
ROOT = "service.handle"


class _Frame:
    __slots__ = ("metric", "child_s", "inside", "loaded")

    def __init__(self, metric: str, inside: bool) -> None:
        self.metric = metric
        self.child_s = 0.0
        self.inside = inside
        self.loaded = False


class SelfTimer:
    """Thread-aware self-time accounting for wrapped calls."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        #: Sum of self time of every frame nested in a serve call
        #: (the serve frame included): must equal the serve total.
        self.inside_serve_self_s = 0.0
        self.counts = {
            "ciphertexts_served": 0,
            "rehydrations": 0,
            "period_calls": 0,
            "supervisor_requests": 0,
            "bits_on_wire": 0,
            "pairings": 0,
            "multiexp_terms": 0,
        }

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        return bool(getattr(self._local, "stack", None))

    def parent(self) -> _Frame | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _record(self, frame: _Frame, elapsed: float) -> None:
        own = elapsed - frame.child_s
        with self._lock:
            self.self_s[frame.metric] = self.self_s.get(frame.metric, 0.0) + own
            self.total_s[frame.metric] = self.total_s.get(frame.metric, 0.0) + elapsed
            if frame.inside:
                self.inside_serve_self_s += own

    def timed(self, metric: str, fn, *, root_if=None):
        """Wrap ``fn`` so its self time accrues to ``metric``.

        ``root_if(args)`` makes the wrapper open the accounting scope
        when the predicate holds; otherwise the wrapper only times calls
        made inside an open scope.
        """
        timer = self

        def wrapper(*args, **kwargs):
            stack = timer._stack()
            if not stack and (root_if is None or not root_if(args)):
                return fn(*args, **kwargs)
            inside = metric == SERVE or (bool(stack) and stack[-1].inside)
            frame = _Frame(metric, inside)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                timer._record(frame, elapsed)

        return wrapper

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "inside_serve_self_s": self.inside_serve_self_s,
                "counts": dict(self.counts),
            }


class MeasuredRequests:
    """Root predicate: a ``decrypt`` / ``decrypt_batch`` request after
    the first ``warmup`` of them (the client sends those before any
    measured request)."""

    def __init__(self, warmup: int) -> None:
        self._warmup = warmup
        self._lock = threading.Lock()

    def __call__(self, args) -> bool:
        header = args[1] if len(args) > 1 else {}
        if not isinstance(header, dict) or header.get("op") not in ("decrypt", "decrypt_batch"):
            return False
        with self._lock:
            if self._warmup > 0:
                self._warmup -= 1
                return False
        return True


def _patch_method(owner, name: str, make) -> None:
    """Replace ``owner.name`` (plain or class method) by ``make(fn)``."""
    raw = owner.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(make(raw.__func__)))
    else:
        setattr(owner, name, make(raw))


def install(timer: SelfTimer, warmup: int) -> None:
    """Install every layer wrapper on the imported ``repro`` modules."""
    from repro.core.dlr import DLR
    from repro.core.hpske import HPSKE
    from repro.core.optimal import OptimalDLR
    from repro.groups.bilinear import BilinearGroup, G1Element, G1Precomp, GTElement
    from repro.protocol.engine import ProtocolEngine
    from repro.protocol.transport import Transport
    import repro.runtime.checkpoint as checkpoint_module
    import repro.runtime.session as runtime_session
    from repro.runtime.session import SessionSupervisor
    import repro.service.registry as registry_module
    from repro.service.registry import SessionRegistry
    from repro.service.server import KeyService
    from repro.service.session import ManagedSession
    from repro.utils import persist
    from repro.utils.serialization import WireCodec

    def timed(metric):
        return lambda fn: timer.timed(metric, fn)

    _patch_method(
        KeyService, "_handle", lambda fn: timer.timed(ROOT, fn, root_if=MeasuredRequests(warmup))
    )

    # -- service ---------------------------------------------------------
    def serve_counted(fn, batch):
        def counted(self, ciphertexts, *args, **kwargs):
            result = fn(self, ciphertexts, *args, **kwargs)
            if timer.active():
                timer.count("ciphertexts_served", len(ciphertexts) if batch else 1)
            return result

        return timer.timed(SERVE, counted)

    _patch_method(ManagedSession, "serve_decrypt", lambda fn: serve_counted(fn, False))
    _patch_method(ManagedSession, "serve_decrypt_batch", lambda fn: serve_counted(fn, True))
    _patch_method(SessionRegistry, "get", timed("service.registry_get"))

    # -- runtime ---------------------------------------------------------
    def supervised(fn):
        def counted(self, *args, **kwargs):
            if not timer.active():
                return fn(self, *args, **kwargs)
            timer.count("supervisor_requests")
            counter = self.scheme.group.counter
            before = counter.snapshot()
            result = fn(self, *args, **kwargs)
            moved = counter.diff(before)
            timer.count("pairings", moved.pairings + moved.pairings_precomp)
            timer.count("multiexp_terms", moved.g_multiexp + moved.gt_multiexp)
            return result

        return timer.timed("runtime.supervisor", counted)

    _patch_method(SessionSupervisor, "run_request", supervised)
    _patch_method(SessionSupervisor, "run_request_batch", supervised)

    def period_counted(fn):
        # One call per protocol attempt (OptimalDLR overrides both
        # methods without delegating to DLR's).
        def counted(*args, **kwargs):
            if timer.active():
                timer.count("period_calls")
            return fn(*args, **kwargs)

        return counted

    for scheme in (DLR, OptimalDLR):
        for name in ("run_period", "run_period_multi"):
            _patch_method(scheme, name, period_counted)

    save = timer.timed("runtime.checkpoint_save", checkpoint_module.save_checkpoint)
    raw_load = timer.timed("runtime.checkpoint_load", checkpoint_module.load_checkpoint)

    def load(*args, **kwargs):
        frame = timer.parent()
        if frame is not None and frame.metric == "service.registry_get" and not frame.loaded:
            frame.loaded = True
            timer.count("rehydrations")
        return raw_load(*args, **kwargs)

    for module in (checkpoint_module, runtime_session, registry_module):
        module.save_checkpoint = save
        module.load_checkpoint = load

    # -- protocol --------------------------------------------------------
    _patch_method(ProtocolEngine, "run", timed("protocol.engine"))
    _patch_method(Transport, "transcript_bits", timed("protocol.transcript"))

    def bits_counted(fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if timer.active():
                timer.count("bits_on_wire", sum(result.values()))
            return result

        return timer.timed("protocol.transcript", counted)

    _patch_method(Transport, "bits_by_label", bits_counted)

    # -- utils -----------------------------------------------------------
    _patch_method(WireCodec, "encode", timed("utils.codec_encode"))
    _patch_method(WireCodec, "decode", timed("utils.codec_decode"))
    persist.dumps = timer.timed("utils.persist", persist.dumps)
    persist.loads = timer.timed("utils.persist", persist.loads)

    # -- core ------------------------------------------------------------
    _patch_method(HPSKE, "encrypt", timed("core.hpske"))
    _patch_method(HPSKE, "decrypt", timed("core.hpske"))

    # -- groups ----------------------------------------------------------
    for element in (G1Element, GTElement):
        _patch_method(element, "multiexp", timed("groups.multiexp"))
        _patch_method(element, "multiexp_batch", timed("groups.multiexp"))
    _patch_method(BilinearGroup, "pair", timed("groups.pairing"))
    _patch_method(BilinearGroup, "pairing_precomp", timed("groups.pairing"))
    _patch_method(G1Precomp, "pair", timed("groups.pairing"))
    _patch_method(G1Precomp, "pair_many", timed("groups.pairing"))
    _patch_method(BilinearGroup, "random_g", timed("groups.sample"))
    _patch_method(BilinearGroup, "random_gt", timed("groups.sample"))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or not argv[1].isdigit() or argv[2] != "serve":
        print("usage: launcher.py LAYERS.json WARMUP serve [serve options]", file=sys.stderr)
        return 2
    out_path, warmup, serve_argv = argv[0], int(argv[1]), argv[2:]
    from repro.cli import main as cli_main

    timer = SelfTimer()
    install(timer, warmup)
    code = cli_main(serve_argv)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(timer.to_dict(), handle, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
