"""KeyService wire behavior: error codes, rejection, silent clients."""

from __future__ import annotations

import logging
import os
import random
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import AdmissionRejected, ServiceError
from repro.protocol.transport import MAX_PAYLOAD_BYTES, encode_frame, recv_frame
from repro.service import KeyService, ServiceClient, SessionKey, SessionRegistry


class TestRequestErrors:
    def test_ping(self, client):
        assert client.ping()

    def test_unknown_op_is_bad_request(self, client):
        header, _ = client.request("frobnicate")
        assert header["ok"] is False
        assert header["code"] == "bad-request"

    def test_unknown_key_code(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.describe("acme", "missing")
        assert excinfo.value.code == "unknown-key"

    def test_invalid_tenant_name_is_bad_request(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call("describe", tenant="../escape", key="k")
        assert excinfo.value.code == "bad-request"

    def test_duplicate_open_is_bad_request(self, client):
        client.open_key("acme", "dup", seed=1)
        with pytest.raises(ServiceError) as excinfo:
            client.open_key("acme", "dup", seed=1)
        assert excinfo.value.code == "bad-request"

    def test_garbage_ciphertext_is_bad_request(self, client):
        client.open_key("acme", "k", seed=1)
        with pytest.raises(ServiceError) as excinfo:
            client.call("decrypt", b"not json at all", tenant="acme", key="k")
        assert excinfo.value.code == "bad-request"

    def test_worker_survives_errors(self, client):
        """The same connection keeps serving after failed requests."""
        for _ in range(3):
            header, _ = client.request("nope")
            assert header["code"] == "bad-request"
        assert client.ping()

    def test_corrupt_checkpoint_code(self, service, client, registry):
        client.open_key("acme", "hurt", seed=1)
        assert client.evict("acme", "hurt")
        path = registry.checkpoint_path(SessionKey("acme", "hurt"))
        path.write_text("{ truncated")
        with pytest.raises(ServiceError) as excinfo:
            client.describe("acme", "hurt")
        assert excinfo.value.code == "checkpoint-corrupt"


class TestRejection:
    def test_frozen_session_rejected_over_wire(self, service, client, registry):
        client.open_key("acme", "cold", seed=1)
        registry.get("acme", "cold").supervisor.frozen = True
        pk = client.public_key("acme", "cold")
        rng = random.Random(5)
        message = pk.group.random_gt(rng)
        with pytest.raises(AdmissionRejected) as excinfo:
            client.encrypt_and_decrypt("acme", "cold", message, rng)
        assert excinfo.value.code == "rejected"
        assert "frozen" in excinfo.value.reason
        assert service.metrics.counter_value("service.rejections") == 1


class TestSilentClient:
    def test_silent_client_times_out_and_frees_the_worker(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        with KeyService(registry, workers=1, client_timeout=0.5) as service:
            # A mute connection parks the single worker...
            mute = socket.create_connection(service.address, timeout=5.0)
            try:
                # ...until the client timeout drops it: the *same lone
                # worker* must come back and serve a real client.
                with ServiceClient(service.address, timeout=5.0) as real:
                    assert real.ping()
                # The server closed the mute connection on its side.
                mute.settimeout(5.0)
                assert mute.recv(1) == b""
            finally:
                mute.close()
            assert service.metrics.counter_value("service.client_timeouts") == 1

    def test_half_frame_then_silence_is_dropped(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        with KeyService(registry, workers=2, client_timeout=0.5) as service:
            torn = socket.create_connection(service.address, timeout=5.0)
            try:
                frame = encode_frame({"op": "ping"}, b"")
                torn.sendall(frame[: len(frame) // 2])  # half a request, then silence
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if service.metrics.counter_value("service.client_timeouts"):
                        break
                    time.sleep(0.05)
                assert service.metrics.counter_value("service.client_timeouts") == 1
            finally:
                torn.close()


class TestOversizedFrame:
    def test_oversized_declaration_is_bad_request(self, service, client):
        """A frame declaring a payload over the cap is answered
        ``bad-request`` before any payload byte is read."""
        header = b'{"op": "ping"}'
        with socket.create_connection(service.address, timeout=5.0) as raw:
            raw.sendall(
                len(header).to_bytes(4, "big")
                + header
                + (MAX_PAYLOAD_BYTES + 1).to_bytes(8, "big")
            )
            response, _ = recv_frame(raw, "test", timeout=5.0)
        assert response["ok"] is False
        assert response["code"] == "bad-request"
        assert client.ping()


class TestWorkerCrash:
    def test_escaped_exception_is_counted_and_logged(
        self, service, monkeypatch, caplog
    ):
        import repro.service.server as server_module

        real_recv_frame = server_module.recv_frame
        calls = []

        def crash_once(*args, **kwargs):
            if not calls:
                calls.append(1)
                raise RuntimeError("injected worker crash")
            return real_recv_frame(*args, **kwargs)

        monkeypatch.setattr(server_module, "recv_frame", crash_once)
        caplog.set_level(logging.ERROR, logger="repro.service.server")
        with socket.create_connection(service.address, timeout=5.0) as doomed:
            # The crash closes the connection, as any worker exit does.
            assert doomed.recv(1) == b""
        assert (
            service.metrics.counter_value(
                "service.worker_crashes", exc="RuntimeError"
            )
            == 1
        )
        assert any(
            record.exc_info and record.exc_info[0] is RuntimeError
            for record in caplog.records
        )
        with ServiceClient(service.address, timeout=5.0) as fresh:
            assert fresh.ping()


class TestStats:
    def test_stats_roundtrip(self, client):
        client.open_key("acme", "k", seed=1)
        stats = client.stats()
        assert stats["registry"]["resident_count"] == 1
        assert (
            "service.requests{op=open,outcome=ok,tenant=acme}"
            in stats["metrics"]["counters"]
        )
        # The stats request itself is only counted after its response
        # ships, so it sees every *prior* request (here: the open).
        assert stats["requests_handled"] == 1

    def test_stats_report_active_backend(self, client):
        from repro.math.backend import active_backend

        stats = client.stats()
        assert stats["backend"] == active_backend().name
        # The info-metric spelling is in the shared registry too.
        gauge = f"backend.active{{backend={active_backend().name}}}"
        assert stats["metrics"]["gauges"][gauge] == 1


class TestProcessFootprint:
    def test_server_does_not_load_process_machinery(self):
        """Every period runs in-process, so neither the CLI nor the
        server may pull in ``multiprocessing`` (RSS and startup time)."""
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import sys, repro.cli, repro.service.server; "
            "print('multiprocessing' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stdout.strip() == "False"
