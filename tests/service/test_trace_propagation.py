"""End-to-end trace propagation: client spans parent server spans.

Three layers, increasingly live:

* a cross-thread soak -- many client threads against one in-process
  service under a single tracer; every ``service.request`` span must
  have exactly one (remote) parent and the merged JSONL must pass full
  referential validation;
* a true cross-process run -- ``repro-dlr serve --trace --prom-port``
  in a subprocess, a traced client in this process, the two JSONL files
  merged and the Prometheus endpoint scraped live;
* in-process gauge reconciliation -- the scraped per-tenant leakage
  budget gauges must equal the oracle ledgers exactly.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.service import KeyService, PrometheusEndpoint, ServiceClient
from repro.telemetry import (
    Tracer,
    merge_trace_files,
    tracing,
)

from tests.telemetry.test_prometheus import parse_exposition

STREAMS = 6
DECRYPTS_PER_STREAM = 2


def _descendant_names(spans, root_id, *, id_key, parent_key):
    """Names of every span below ``root_id`` in a parent-link forest."""
    children: dict[object, list] = {}
    for span in spans:
        children.setdefault(span[parent_key], []).append(span)
    names, stack = [], [root_id]
    while stack:
        for child in children.get(stack.pop(), ()):
            names.append(child["name"])
            stack.append(child[id_key])
    return names


class TestCrossThreadSoak:
    def test_every_request_span_has_one_parent_and_merged_trace_validates(
        self, registry, tmp_path
    ):
        with tracing(Tracer()) as tracer:
            with KeyService(registry, workers=4, client_timeout=30.0) as service:

                def stream(index: int) -> None:
                    with ServiceClient(service.address, timeout=30.0) as client:
                        rng = random.Random(1000 + index)
                        pk = client.open_key("soak", f"k{index}", seed=20 + index)
                        for _ in range(DECRYPTS_PER_STREAM):
                            message = pk.group.random_gt(rng)
                            recovered, _ = client.encrypt_and_decrypt(
                                "soak", f"k{index}", message, rng
                            )
                            assert recovered == message

                with ThreadPoolExecutor(max_workers=STREAMS) as pool:
                    # list() re-raises any worker exception.
                    list(pool.map(stream, range(STREAMS)))

        requests = tracer.spans_named("service.request")
        calls = tracer.spans_named("service.call")
        expected = STREAMS * (1 + DECRYPTS_PER_STREAM)  # open + decrypts
        assert len(requests) == expected
        assert len(calls) == expected

        # Exactly one parent each: the remote (client) ref, never an
        # ambient worker-thread span leaked across requests.
        for span in requests:
            assert span.remote_ref is not None
            assert span.parent_id is None
            assert span.trace_id is not None

        # No orphans: client attempt refs and server remote refs match 1:1.
        assert sorted(map(str, (s.remote_ref for s in requests))) == sorted(
            map(str, (s.ref for s in calls))
        )

        # One tracer lazily minted one trace id; every identified span
        # shares it.
        trace_ids = {s.trace_id for s in tracer.finished if s.trace_id is not None}
        assert trace_ids == {tracer.trace_id}

        # Each decrypt request decomposes into lock-wait, admission, a
        # protocol run with steps, and the durable checkpoint flush.
        records = [
            {"id": s.span_id, "parent": s.parent_id, "name": s.name}
            for s in tracer.finished
        ]
        decrypts = [s for s in requests if s.attrs.get("op") == "decrypt"]
        assert decrypts
        for span in decrypts:
            below = _descendant_names(
                records, span.span_id, id_key="id", parent_key="parent"
            )
            assert "service.lock_wait" in below
            assert "service.admission" in below
            assert "checkpoint.flush" in below
            assert any(name.startswith("step.") for name in below)

        # The exported JSONL merges into a fully-resolved valid trace:
        # every remote parent is present, so no exemption flags survive.
        raw = tmp_path / "soak.jsonl"
        merged_path = tmp_path / "merged.jsonl"
        tracer.export_jsonl(raw)
        spans = merge_trace_files([raw], output=merged_path)
        assert len(spans) == len(tracer.finished)
        merged_records = [
            json.loads(line)
            for line in merged_path.read_text().splitlines()
            if line.strip()
        ]
        assert not any(r.get("remote_parent") for r in merged_records)


class TestLiveServeCrossProcess:
    def test_client_span_parents_server_request_and_prom_scrape(self, tmp_path):
        announce = tmp_path / "addr.txt"
        prom_announce = tmp_path / "prom.txt"
        state = tmp_path / "state"
        server_trace = tmp_path / "server.jsonl"
        client_trace = tmp_path / "client.jsonl"

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
                "serve",
                "--checkpoint-dir", str(state),
                "--announce", str(announce),
                "--workers", "2",
                "--max-requests", "4",
                "--timeout", "15",
                "--trace", str(server_trace),
                "--prom-port", "0",
                "--prom-announce", str(prom_announce),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        client_tracer = Tracer(actor="client")
        try:
            deadline = time.monotonic() + 30.0
            while not (announce.exists() and prom_announce.exists()):
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline, "serve never announced"
                time.sleep(0.05)
            host, port = announce.read_text().split()
            prom_host, prom_port = prom_announce.read_text().split()

            with tracing(client_tracer):
                with ServiceClient((host, int(port)), timeout=10.0) as client:
                    assert client.ping()
                    pk = client.open_key("acme", "k", seed=3)
                    rng = random.Random(1)
                    message = pk.group.random_gt(rng)
                    recovered, period = client.encrypt_and_decrypt(
                        "acme", "k", message, rng
                    )
                    assert recovered == message
                    assert period == 0

                    # Scrape the live endpoint while the server is up
                    # (three of four requests served; drain not begun).
                    with urllib.request.urlopen(
                        f"http://{prom_host}:{prom_port}/metrics", timeout=10.0
                    ) as response:
                        assert response.status == 200
                        assert response.headers["Content-Type"].startswith(
                            "text/plain"
                        )
                        exposition = response.read().decode("utf-8")

                    assert client.ping()  # 4th request: triggers the drain
            stdout, stderr = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert "serving on" in stdout
        client_tracer.export_jsonl(client_trace)

        # -- merged cross-process trace ---------------------------------
        merged_path = tmp_path / "merged.jsonl"
        spans = merge_trace_files([server_trace, client_trace], output=merged_path)
        by_id = {s["id"]: s for s in spans}

        client_decrypt = [
            s
            for s in spans
            if s["name"] == "service.call" and s["attrs"].get("op") == "decrypt"
        ]
        assert len(client_decrypt) == 1
        server_decrypt = [
            s
            for s in spans
            if s["name"] == "service.request" and s["attrs"].get("op") == "decrypt"
        ]
        assert len(server_decrypt) == 1
        # The server-side span is parented by the client attempt span,
        # across the process boundary, under one shared trace id.
        assert server_decrypt[0]["parent"] == client_decrypt[0]["id"]
        assert str(client_decrypt[0]["id"]).startswith("client:")
        assert str(server_decrypt[0]["id"]).startswith("server:")
        assert server_decrypt[0]["trace"] == client_decrypt[0]["trace"]
        assert server_decrypt[0]["attrs"].get("tenant") == "acme"
        # With both sides present the merge drops the remote_parent
        # exemption, so validation already proved the edge resolves.
        assert "remote_parent" not in server_decrypt[0]

        below = _descendant_names(
            spans, server_decrypt[0]["id"], id_key="id", parent_key="parent"
        )
        assert "service.lock_wait" in below
        assert "service.admission" in below
        assert "checkpoint.flush" in below
        assert "service.reply_encode" in below
        assert any(name.startswith("step.") for name in below)
        assert by_id[server_decrypt[0]["parent"]]["name"] == "service.call"

        # Every server request span in the merged trace resolved to a
        # client attempt: the wire fields propagated on every op.
        for span in spans:
            if span["name"] == "service.request":
                assert by_id[span["parent"]]["name"] == "service.call"

        # -- live scrape contents ---------------------------------------
        parsed = parse_exposition(exposition)
        assert parsed["types"]["service_requests_total"] == "counter"
        assert parsed["types"]["service_request_seconds"] == "histogram"
        key = (
            "service_requests_total",
            (("op", "decrypt"), ("outcome", "ok"), ("tenant", "acme")),
        )
        assert parsed["series"][key] == 1
        # Health/load gauges are stamped by the scrape handler itself.
        assert ("service_connections_active", ()) in parsed["series"]
        # Budget gauges carry the tenant dimension.
        remaining = (
            "service_budget_remaining_bits",
            (("device", "P1"), ("tenant", "acme")),
        )
        assert parsed["series"][remaining] > 0
        # Exemplars on the latency histogram link back to the very trace
        # the client was running: tail buckets are clickable into JSONL.
        exemplar_trace_ids = {
            exemplar["labels"].get("trace_id")
            for (name, _labels), exemplar in parsed["exemplars"].items()
            if name == "service_request_seconds_bucket"
        }
        assert client_tracer.trace_id in exemplar_trace_ids

        # -- the analyze CLI consumes the merged pair -------------------
        assert main(["trace", "analyze", str(server_trace), str(client_trace)]) == 0


class TestBudgetGaugeReconciliation:
    def test_scraped_budget_gauges_equal_oracle_ledgers(self, registry, service):
        with ServiceClient(service.address, timeout=10.0) as client:
            rng = random.Random(5)
            for tenant, decrypts in (("acme", 2), ("globex", 1)):
                pk = client.open_key(tenant, "k", seed=11)
                for _ in range(decrypts):
                    message = pk.group.random_gt(rng)
                    recovered, _ = client.encrypt_and_decrypt(
                        tenant, "k", message, rng
                    )
                    assert recovered == message

            with PrometheusEndpoint(service) as endpoint:
                host, port = endpoint.address
                with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics", timeout=10.0
                ) as response:
                    exposition = response.read().decode("utf-8")
        parsed = parse_exposition(exposition)

        # Recompute the expected totals straight from each resident
        # session's oracle -- the scrape must agree bit-for-bit.
        expected: dict[tuple[str, str], list[int]] = {}
        with registry._lock:
            resident = dict(registry._resident)
        for key, session in resident.items():
            oracle = session.supervisor.oracle
            assert oracle is not None
            for device in (1, 2):
                entry = expected.setdefault((key.tenant, f"P{device}"), [0, 0])
                entry[0] += oracle.remaining(device)
                entry[1] += oracle.retry_charged(device=device)
        assert expected  # both tenants resident

        for (tenant, device), (remaining, retry_bits) in expected.items():
            labels = (("device", device), ("tenant", tenant))
            assert parsed["series"][
                ("service_budget_remaining_bits", labels)
            ] == pytest.approx(remaining)
            assert parsed["series"][
                ("service_budget_retry_bits", labels)
            ] == pytest.approx(retry_bits)

        # Per-tenant request counters reconcile with the drive loop.
        series = parsed["series"]
        for tenant, decrypts in (("acme", 2), ("globex", 1)):
            key = (
                "service_requests_total",
                (("op", "decrypt"), ("outcome", "ok"), ("tenant", tenant)),
            )
            assert series[key] == decrypts

    def test_health_op_reports_load(self, client):
        health = client.health()
        assert health["status"] == "ready"
        assert health["busy_workers"] >= 1  # the worker serving this request
        assert health["queue_depth"] >= 0

    def test_health_http_endpoint(self, service):
        with PrometheusEndpoint(service) as endpoint:
            host, port = endpoint.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/health", timeout=10.0
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
        assert payload["status"] == "ready"

    def test_disabled_tracer_adds_no_spans_or_exemplars(self, registry):
        # The default NULL_TRACER path: no spans anywhere, and request
        # histograms carry no exemplars.
        with KeyService(registry, workers=2, client_timeout=10.0) as service:
            with ServiceClient(service.address, timeout=10.0) as client:
                pk = client.open_key("quiet", "k", seed=9)
                rng = random.Random(2)
                message = pk.group.random_gt(rng)
                recovered, _ = client.encrypt_and_decrypt("quiet", "k", message, rng)
                assert recovered == message
            hist = service.metrics.merged_histogram(
                "service.request_seconds", op="decrypt"
            )
            assert hist is not None
            assert "exemplars" not in hist.to_dict()
