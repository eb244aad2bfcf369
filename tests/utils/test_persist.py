"""Tests for JSON persistence of key material and ciphertexts."""

import json
import random

import pytest

from repro.core.dlr import DLR
from repro.errors import ParameterError
from repro.protocol.channel import Channel
from repro.protocol.device import Device
from repro.utils import persist


@pytest.fixture(scope="module")
def material(small_params):
    scheme = DLR(small_params)
    generation = scheme.generate(random.Random(1))
    message = small_params.group.random_gt(random.Random(2))
    ciphertext = scheme.encrypt(generation.public_key, message, random.Random(3))
    return scheme, generation, message, ciphertext


class TestRoundtrips:
    def test_public_key_self_contained(self, material):
        scheme, generation, message, _ = material
        text = persist.dumps("public_key", generation.public_key)
        restored = persist.loads(text)  # no group needed
        assert restored.z == generation.public_key.z
        assert restored.params.lam == scheme.params.lam
        assert restored.params.group.p == scheme.group.p

    def test_restored_public_key_encrypts_decryptably(self, material):
        """A public key restored on another 'machine' (fresh group object)
        produces ciphertexts the original shares decrypt."""
        scheme, generation, message, _ = material
        restored_pk = persist.loads(persist.dumps("public_key", generation.public_key))
        fresh_scheme = DLR(restored_pk.params)
        ciphertext = fresh_scheme.encrypt(
            restored_pk, _transplant_gt(restored_pk.params.group, message), random.Random(4)
        )
        # Move the ciphertext back into the original group's world.
        moved = persist.loads(
            persist.dumps("ciphertext", ciphertext), scheme.group
        )
        plaintext = scheme.reference_decrypt(generation.share1, generation.share2, moved)
        assert plaintext == message

    def test_share1_roundtrip(self, material):
        scheme, generation, _, _ = material
        text = persist.dumps("share1", generation.share1)
        restored = persist.loads(text, scheme.group)
        assert restored == generation.share1

    def test_share2_roundtrip(self, material):
        scheme, generation, _, _ = material
        text = persist.dumps("share2", generation.share2)
        restored = persist.loads(text, scheme.group)
        assert restored == generation.share2

    def test_ciphertext_roundtrip(self, material):
        scheme, generation, message, ciphertext = material
        restored = persist.loads(
            persist.dumps("ciphertext", ciphertext), scheme.group
        )
        assert restored == ciphertext
        assert scheme.reference_decrypt(generation.share1, generation.share2, restored) == message

    def test_restored_shares_run_protocols(self, material):
        scheme, generation, message, ciphertext = material
        share1 = persist.loads(persist.dumps("share1", generation.share1), scheme.group)
        share2 = persist.loads(persist.dumps("share2", generation.share2), scheme.group)
        rng = random.Random(5)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        scheme.install(p1, p2, share1, share2)
        channel = Channel()
        assert scheme.decrypt_protocol(p1, p2, channel, ciphertext) == message
        scheme.refresh_protocol(p1, p2, channel)
        assert scheme.decrypt_protocol(p1, p2, channel, ciphertext) == message


class TestValidation:
    def test_unknown_kind_rejected(self, material):
        with pytest.raises(ParameterError):
            persist.dumps("master_key", object())

    def test_loads_unknown_kind_rejected(self, material):
        scheme, *_ = material
        with pytest.raises(ParameterError):
            persist.loads(json.dumps({"kind": "junk", "data": {}}), scheme.group)

    def test_share_needs_group(self, material):
        _, generation, _, _ = material
        text = persist.dumps("share2", generation.share2)
        with pytest.raises(ParameterError):
            persist.loads(text)

    def test_version_check(self, material):
        _, generation, _, _ = material
        envelope = json.loads(persist.dumps("public_key", generation.public_key))
        envelope["data"]["params"]["version"] = 99
        with pytest.raises(ParameterError):
            persist.loads(json.dumps(envelope))

    @pytest.mark.parametrize(
        "envelope",
        [
            [1, 2],
            {"kind": "ciphertext", "data": [1, 2]},
            {"kind": "ciphertext", "data": {"a": "8:ff"}},
            {"kind": "ciphertext", "data": {"a": 5, "b": 6}},
            {"kind": "ciphertext", "data": {"a": "x:zz", "b": "x:zz"}},
            {"kind": "ciphertext_batch", "data": [1, 2]},
            {"kind": "ciphertext_batch", "data": {"items": [1]}},
        ],
    )
    def test_malformed_ciphertext_data_rejected(self, material, envelope):
        scheme, *_ = material
        with pytest.raises(ParameterError):
            persist.loads(json.dumps(envelope), scheme.group)

    def test_corrupt_element_rejected(self, material):
        from repro.errors import GroupError

        scheme, generation, _, ciphertext = material
        envelope = json.loads(persist.dumps("ciphertext", ciphertext))
        # Flip the x coordinate to garbage.
        length, _, payload = envelope["data"]["a"].partition(":")
        corrupted = hex(int.from_bytes(bytes.fromhex(payload), "big") ^ 0b1100)[2:]
        envelope["data"]["a"] = f"{length}:{corrupted.zfill(len(payload))}"
        with pytest.raises(GroupError):
            persist.loads(json.dumps(envelope), scheme.group)


def _transplant_gt(group, element):
    """Re-create a GT element inside a different group object with the
    same parameters (simulating a second process)."""
    from repro.groups.encoding import decode_gt

    return decode_gt(group, element.to_bits())
