"""Wire behavior of the amortized ``decrypt_batch`` service op."""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ServiceError
from repro.utils import persist


def _encrypt_many(client, tenant, key, count, seed=5):
    rng = random.Random(seed)
    public_key = client.public_key(tenant, key)
    from repro.core.dlr import DLR

    scheme = DLR(public_key.params)
    messages = [public_key.group.random_gt(rng) for _ in range(count)]
    ciphertexts = scheme.encrypt_batch(public_key, messages, rng)
    return messages, ciphertexts


class TestDecryptBatchOp:
    def test_round_trip(self, client):
        client.open_key("acme", "k", seed=1)
        messages, ciphertexts = _encrypt_many(client, "acme", "k", 5)
        assert client.decrypt_batch("acme", "k", ciphertexts) == messages

    def test_batch_is_one_period(self, client, registry):
        client.open_key("acme", "k", seed=1)
        messages, ciphertexts = _encrypt_many(client, "acme", "k", 4)
        client.decrypt_batch("acme", "k", ciphertexts)
        assert registry.get("acme", "k").next_period == 1

    def test_replay_cache_absorbs_duplicate_request_id(self, client, registry):
        client.open_key("acme", "k", seed=1)
        messages, ciphertexts = _encrypt_many(client, "acme", "k", 3)
        first = client.decrypt_batch(
            "acme", "k", ciphertexts, request_id="req-1"
        )
        replayed = client.decrypt_batch(
            "acme", "k", ciphertexts, request_id="req-1"
        )
        assert replayed == first == messages
        # The duplicate did not burn a second period.
        assert registry.get("acme", "k").next_period == 1

    def test_empty_batch_is_bad_request(self, client):
        client.open_key("acme", "k", seed=1)
        envelope = persist.dumps("ciphertext_batch", []).encode("utf-8")
        with pytest.raises(ServiceError) as excinfo:
            client.call(
                "decrypt_batch",
                envelope,
                tenant="acme",
                key="k",
                request_id="r",
            )
        assert excinfo.value.code == "bad-request"

    def test_garbage_payload_is_bad_request(self, client):
        client.open_key("acme", "k", seed=1)
        with pytest.raises(ServiceError) as excinfo:
            client.call(
                "decrypt_batch",
                b"not json",
                tenant="acme",
                key="k",
                request_id="r",
            )
        assert excinfo.value.code == "bad-request"

    @pytest.mark.parametrize(
        "op, kind",
        [
            ("decrypt", "share2"),
            ("decrypt", "public_key"),
            ("decrypt_batch", "int_list"),
            ("decrypt", "corrupt_point"),
            ("decrypt_batch", "oversized"),
            ("decrypt", "empty_public_key"),
            ("decrypt", "share1_int"),
        ],
    )
    def test_wrong_kind_payload_is_bad_request_and_spends_nothing(
        self, client, registry, op, kind
    ):
        """A decodable envelope of the wrong kind (or malformed data) is
        rejected before the session runs: no period, no attempt record."""
        client.open_key("acme", "k", seed=1)
        public_key = client.public_key("acme", "k")
        if kind == "share2":
            from repro.core.dlr import DLR

            share2 = DLR(public_key.params).generate(random.Random(2)).share2
            text = persist.dumps("share2", share2)
        elif kind == "public_key":
            text = persist.dumps("public_key", public_key)
        elif kind == "int_list":
            text = json.dumps({"kind": "ciphertext_batch", "data": [1, 2]})
        elif kind == "empty_public_key":
            text = json.dumps({"kind": "public_key", "data": {}})
        elif kind == "share1_int":
            text = json.dumps({"kind": "share1", "data": {"a": 5}})
        elif kind == "oversized":
            _, (ciphertext,) = _encrypt_many(client, "acme", "k", 1)
            text = persist.dumps("ciphertext_batch", [ciphertext] * 129)
        else:
            _, (ciphertext,) = _encrypt_many(client, "acme", "k", 1)
            envelope = json.loads(persist.dumps("ciphertext", ciphertext))
            length, _, payload = envelope["data"]["a"].partition(":")
            flipped = int(payload, 16) ^ 0b1100
            envelope["data"]["a"] = f"{length}:{flipped:0{len(payload)}x}"
            text = json.dumps(envelope)
        session = registry.get("acme", "k")
        attempts_before = list(session.supervisor.log.attempts)

        with pytest.raises(ServiceError) as excinfo:
            client.call(op, text.encode("utf-8"), tenant="acme", key="k")
        assert excinfo.value.code == "bad-request"
        assert session.next_period == 0
        assert session.supervisor.log.attempts == attempts_before

    def test_batch_size_histogram_exposed(self, client, service):
        client.open_key("acme", "k", seed=1)
        _, ciphertexts = _encrypt_many(client, "acme", "k", 5)
        client.decrypt_batch("acme", "k", ciphertexts)
        text = client.metrics_text()
        assert "service_batch_size" in text

    def test_unknown_key_code(self, client):
        envelope = persist.dumps("ciphertext_batch", []).encode("utf-8")
        with pytest.raises(ServiceError) as excinfo:
            client.call(
                "decrypt_batch",
                envelope,
                tenant="acme",
                key="missing",
                request_id="r",
            )
        assert excinfo.value.code == "unknown-key"


class TestRuntimeBatch:
    def test_run_request_batch_round_trip(self, registry):
        from repro.core.dlr import DLR

        session = registry.create("acme", "k", seed=3)
        rng = random.Random(9)
        public_key = session.public_key
        scheme = DLR(public_key.params)
        messages = [public_key.group.random_gt(rng) for _ in range(3)]
        ciphertexts = scheme.encrypt_batch(public_key, messages, rng)
        record = session.serve_decrypt_batch(ciphertexts)
        assert list(record.plaintexts) == messages
