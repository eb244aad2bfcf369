"""Golden-transcript regression tests.

Every hash below was produced by the pre-engine implementation of the
protocol flows.  The engine rewrite must be byte-for-byte
transcript-compatible: same messages, same payloads, same phase
snapshots, for fixed seeds.  A mismatch here means the adversary's view
changed -- which invalidates every leakage number in the paper tables.
"""

import hashlib
import random

import pytest

from repro.core.dlr import DLR
from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.groups import preset_group
from repro.ibe.dlr_ibe import DLRIBE
from repro.protocol.channel import Channel
from repro.protocol.device import Device


def _digest(bits):
    return hashlib.sha256(bits.to_bytes()).hexdigest()


def _setup(scheme_cls, seed):
    group = preset_group(32)
    params = DLRParams(group=group, lam=32)
    scheme = scheme_cls(params)
    rng = random.Random(seed)
    generation = scheme.generate(rng)
    p1 = Device("P1", group, rng)
    p2 = Device("P2", group, rng)
    scheme.install(p1, p2, generation.share1, generation.share2)
    channel = Channel()
    message = group.random_gt(rng)
    ciphertext = scheme.encrypt(generation.public_key, message, rng)
    return scheme, rng, generation, p1, p2, channel, message, ciphertext


class TestDLRGolden:
    def test_run_period_transcript_and_snapshots(self):
        scheme, rng, generation, p1, p2, channel, message, ciphertext = _setup(
            DLR, 1234
        )
        record = scheme.run_period(p1, p2, channel, ciphertext)
        assert record.plaintext == message

        bits = channel.transcript_bits(0)
        assert len(bits) == 17535
        assert _digest(bits) == (
            "9e5b8488f23b63d2597555c23ac7ad90c0306a1a886ac502fef10d8ede51f522"
        )

        expected_snapshots = {
            (1, "normal"): (
                986,
                "c3ce399442ff986a7ab8c4defb24936d59a3d56af1c4c0fd146faf407bfafde1",
            ),
            (2, "normal"): (
                672,
                "46a6e096ad1d5cb505867684edb570d7e2ad172ddb0d3ecb7f7858c48d6267d8",
            ),
            (1, "refresh"): (
                1844,
                "86e74ec5919d9948c9a484c838d57b96231eb150566162dbf15cfbb617d2d249",
            ),
            (2, "refresh"): (
                1344,
                "86f2992f983ea64e96e9433cc0bfc8fd21466b29046015e7aaab62421e7516e2",
            ),
        }
        assert list(record.snapshots) == list(expected_snapshots)
        for key, (length, digest) in expected_snapshots.items():
            snapshot_bits = record.snapshots[key].to_bits()
            assert len(snapshot_bits) == length, key
            assert _digest(snapshot_bits) == digest, key

        # A second period continues the same RNG stream deterministically.
        ciphertext2 = scheme.encrypt(
            generation.public_key, scheme.group.random_gt(rng), rng
        )
        scheme.run_period(p1, p2, channel, ciphertext2)
        total = channel.transcript_bits()
        assert len(total) == 35070
        assert _digest(total) == (
            "c0c8085779fd5e3ad087213f7c45c68cc7bcb12d95c1f0542dd279fcc4f145ae"
        )

    def test_decrypt_then_refresh_protocols(self):
        scheme, rng, generation, p1, p2, channel, message, ciphertext = _setup(
            DLR, 99
        )
        assert scheme.decrypt_protocol(p1, p2, channel, ciphertext) == message
        scheme.refresh_protocol(p1, p2, channel)
        bits = channel.transcript_bits()
        assert len(bits) == 17461
        assert _digest(bits) == (
            "a9b5b93051560806a47ff6d4fd59f0f4dd58303e2b75000cdc2970a0e6cde62b"
        )

    def test_run_period_multi(self):
        group = preset_group(32)
        params = DLRParams(group=group, lam=32)
        scheme = DLR(params)
        rng = random.Random(7)
        generation = scheme.generate(rng)
        p1 = Device("P1", group, rng)
        p2 = Device("P2", group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        channel = Channel()
        messages = [group.random_gt(rng) for _ in range(3)]
        ciphertexts = [
            scheme.encrypt(generation.public_key, m, rng) for m in messages
        ]
        record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
        assert list(record.plaintexts) == messages
        bits = channel.transcript_bits()
        assert len(bits) == 35443
        assert _digest(bits) == (
            "fbc478ee956cda4ffefc4b9df58dd0ed9c0d6ec5660039af4d25e3974ce6d4a1"
        )


class TestOptimalGolden:
    def test_run_period_transcript_and_snapshots(self):
        scheme, rng, generation, p1, p2, channel, message, ciphertext = _setup(
            OptimalDLR, 55
        )
        record = scheme.run_period(p1, p2, channel, ciphertext)
        assert record.plaintext == message

        bits = channel.transcript_bits(0)
        assert len(bits) == 17535
        assert _digest(bits) == (
            "1766d61b387994c20d8fec410d45539931ebcf9f482b80355f89bfd2a7212d48"
        )

        expected_snapshots = {
            (1, "normal"): (
                128,
                "70b75a9eaf709b948ff577ec9de175bf27f871ea3ab7501d3738134cbeb02bf4",
            ),
            (2, "normal"): (
                672,
                "fbba2bd967a40f2bbd7d5c1f40419c958b549a2617a016d65cdd547d1e1747cd",
            ),
            (1, "refresh"): (
                256,
                "970c8d8c909de49b3c06313b7a0dc705bf0f639010403c65f37f32f982b2bf6d",
            ),
            (2, "refresh"): (
                1344,
                "c3497d0d4fef92d36e07f404bd26055f41f15641d118a8f26c22a578258452b8",
            ),
        }
        assert list(record.snapshots) == list(expected_snapshots)
        for key, (length, digest) in expected_snapshots.items():
            snapshot_bits = record.snapshots[key].to_bits()
            assert len(snapshot_bits) == length, key
            assert _digest(snapshot_bits) == digest, key


class TestFastKernelTransparency:
    """The fast kernels (multiexp, pairing precomputation, projective
    Miller loop) must be invisible in the adversary's view: the pinned
    digests above are already exercised with the kernels active, and
    these tests additionally pin fast == reference and memory == socket
    byte-for-byte."""

    def _run(self, seed=1234, transport=None):
        scheme, rng, generation, p1, p2, channel, message, ciphertext = _setup(
            DLR, seed
        )
        wire = transport if transport is not None else channel
        record = scheme.run_period(p1, p2, wire, ciphertext)
        assert record.plaintext == message
        snapshot_digests = {
            key: _digest(snapshot.to_bits())
            for key, snapshot in record.snapshots.items()
        }
        return _digest(wire.transcript_bits(0)), snapshot_digests

    def test_reference_mode_transcript_identical(self):
        from repro.groups import fastops

        fast_transcript, fast_snapshots = self._run()
        with fastops.reference_mode():
            reference_transcript, reference_snapshots = self._run()
        assert fast_transcript == reference_transcript
        assert fast_snapshots == reference_snapshots

    def test_fast_transcript_matches_pinned_digest(self):
        transcript, _ = self._run()
        assert transcript == (
            "9e5b8488f23b63d2597555c23ac7ad90c0306a1a886ac502fef10d8ede51f522"
        )

    def test_socket_wire_matches_pinned_digest(self):
        """Same seed over a real socket pair: the kernels do not perturb
        the framed byte stream either."""
        from repro.protocol.transport import SocketTransport

        transcript, snapshots = self._run(transport=SocketTransport(timeout=10.0))
        assert transcript == (
            "9e5b8488f23b63d2597555c23ac7ad90c0306a1a886ac502fef10d8ede51f522"
        )
        _, memory_snapshots = self._run()
        assert snapshots == memory_snapshots


class TestBatchTransparency:
    """The amortized batch APIs must be invisible in the adversary's
    view too: ``encrypt_batch`` consumes the RNG stream exactly like an
    ``encrypt`` loop, and ``run_period_multi`` with the shared pairing
    schedule pins the same transcript as before the batch kernels."""

    PINNED_MULTI = (
        "fbc478ee956cda4ffefc4b9df58dd0ed9c0d6ec5660039af4d25e3974ce6d4a1"
    )

    def _multi_setup(self, scheme_cls=DLR, seed=7, count=3):
        group = preset_group(32)
        params = DLRParams(group=group, lam=32)
        scheme = scheme_cls(params)
        rng = random.Random(seed)
        generation = scheme.generate(rng)
        p1 = Device("P1", group, rng)
        p2 = Device("P2", group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        channel = Channel()
        messages = [group.random_gt(rng) for _ in range(count)]
        ciphertexts = scheme.encrypt_batch(generation.public_key, messages, rng)
        return scheme, p1, p2, channel, messages, ciphertexts

    def test_encrypt_batch_matches_sequential_encrypts(self):
        scheme, rng, generation, *_ = _setup(DLR, 31)
        group = scheme.group
        messages = [group.random_gt(rng) for _ in range(4)]
        state = rng.getstate()
        batched = scheme.encrypt_batch(generation.public_key, messages, rng)
        rng.setstate(state)
        sequential = [
            scheme.encrypt(generation.public_key, m, rng) for m in messages
        ]
        assert batched == sequential

    def test_batch_period_matches_pinned_digest(self):
        scheme, p1, p2, channel, messages, ciphertexts = self._multi_setup()
        record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
        assert list(record.plaintexts) == messages
        assert _digest(channel.transcript_bits()) == self.PINNED_MULTI

    def test_optimal_batch_round_trips(self):
        scheme, p1, p2, channel, messages, ciphertexts = self._multi_setup(
            OptimalDLR, seed=55
        )
        record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
        assert list(record.plaintexts) == messages


class TestIBEGolden:
    def test_full_identity_lifecycle(self):
        group = preset_group(32)
        params = DLRParams(group=group, lam=32)
        scheme = DLRIBE(params, n_id=8)
        rng = random.Random(2024)
        setup = scheme.setup(rng)
        pp = setup.public_params
        p1 = Device("P1", group, rng)
        p2 = Device("P2", group, rng)
        scheme.install(p1, p2, setup.share1, setup.share2)
        channel = Channel()
        scheme.extract_protocol(pp, p1, p2, channel, "alice")
        message = group.random_gt(rng)
        ciphertext = scheme.encrypt_to(pp, "alice", message, rng)
        assert (
            scheme.decrypt_protocol_id(p1, p2, channel, "alice", ciphertext)
            == message
        )
        scheme.refresh_identity_protocol(pp, p1, p2, channel, "alice")
        assert (
            scheme.decrypt_protocol_id(p1, p2, channel, "alice", ciphertext)
            == message
        )
        bits = channel.transcript_bits()
        assert len(bits) == 34921
        assert _digest(bits) == (
            "e2e7720edc01a04439ba801ccdb9ad1dd971538343b5e03e4fe5b62a6d1f1992"
        )
