"""Attestation (quotes, verification) and RA-TLS channels."""

import hashlib

import pytest

from repro.crypto.aead import available_aeads
from repro.tee import (
    AttestationError,
    ChannelError,
    Enclave,
    Manifest,
    Quote,
    SimulatedCpu,
    TeeType,
    Verifier,
    establish_channel,
)
from repro.tee.attestation import fresh_nonce, make_quote
from repro.tee.channel import DhKeyPair, SecureChannel

CODE = b"some enclave code"


@pytest.fixture()
def cpu():
    return SimulatedCpu("plat")


@pytest.fixture()
def enclave(cpu):
    manifest = Manifest(
        entrypoint="/code",
        trusted_files={"/code": hashlib.sha256(CODE).hexdigest()},
    )
    return Enclave.launch(cpu, TeeType.SGX2, manifest, {"/code": CODE})


@pytest.fixture()
def verifier(cpu, enclave):
    v = Verifier()
    v.register_platform(cpu)
    v.trust_measurement(enclave.measurement)
    return v


class TestAttestation:
    def test_quote_verifies(self, enclave, verifier):
        quote = make_quote(enclave, b"challenge")
        report = verifier.verify(quote, expected_report_data=b"challenge")
        assert report.enclave_id == enclave.enclave_id

    def test_unknown_platform_rejected(self, enclave):
        quote = make_quote(enclave, b"x")
        with pytest.raises(AttestationError, match="unknown platform"):
            Verifier().verify(quote)

    def test_forged_signature_rejected(self, enclave, verifier):
        quote = make_quote(enclave, b"x")
        forged = Quote(report=quote.report, signature=bytes(32))
        with pytest.raises(AttestationError, match="signature"):
            verifier.verify(forged)

    def test_untrusted_measurement_rejected(self, cpu, verifier):
        other = Enclave.launch(
            cpu,
            TeeType.SGX2,
            Manifest(entrypoint="/other", trusted_files={"/other": hashlib.sha256(b"evil").hexdigest()}),
            {"/other": b"evil"},
        )
        quote = make_quote(other, b"x")
        with pytest.raises(AttestationError, match="not trusted"):
            verifier.verify(quote)

    def test_report_data_binding(self, enclave, verifier):
        quote = make_quote(enclave, b"nonce-a")
        with pytest.raises(AttestationError, match="report data"):
            verifier.verify(quote, expected_report_data=b"nonce-b")

    def test_long_report_data_hashed(self, enclave, verifier):
        long = bytes(200)
        quote = make_quote(enclave, long)
        verifier.verify(quote, expected_report_data=long)

    def test_quote_wire_roundtrip(self, enclave, verifier):
        quote = make_quote(enclave, b"x")
        verifier.verify(Quote.from_bytes(quote.to_bytes()), expected_report_data=b"x")

    def test_terminated_enclave_cannot_quote(self, enclave):
        enclave.terminate()
        with pytest.raises(Exception):
            make_quote(enclave, b"x")

    def test_nonces_unique(self):
        assert fresh_nonce() != fresh_nonce()


class TestDh:
    def test_shared_secret_agrees(self):
        a, b = DhKeyPair.generate(), DhKeyPair.generate()
        assert a.shared_secret(b.public) == b.shared_secret(a.public)

    def test_small_subgroup_rejected(self):
        a = DhKeyPair.generate()
        with pytest.raises(ChannelError, match="out of range"):
            a.shared_secret(1)


class TestSecureChannel:
    def test_establish_and_exchange(self, enclave, verifier):
        mon, var = establish_channel(
            initiator_quote_fn=None,
            responder_quote_fn=lambda rd: make_quote(enclave, rd),
            verifier=verifier,
        )
        assert var.open(mon.protect(b"hello")) == b"hello"
        assert mon.open(var.protect(b"reply")) == b"reply"
        assert mon.peer_report.enclave_id == enclave.enclave_id

    def test_mutual_attestation(self, cpu, enclave, verifier):
        mon, var = establish_channel(
            initiator_quote_fn=lambda rd: make_quote(enclave, rd),
            responder_quote_fn=lambda rd: make_quote(enclave, rd),
            verifier=verifier,
        )
        assert var.peer_report is not None

    def test_untrusted_responder_fails_handshake(self, cpu, verifier):
        rogue = Enclave.launch(
            cpu,
            TeeType.SGX2,
            Manifest(entrypoint="/r", trusted_files={"/r": hashlib.sha256(b"r").hexdigest()}),
            {"/r": b"r"},
        )
        with pytest.raises(ChannelError, match="attestation failed"):
            establish_channel(
                initiator_quote_fn=None,
                responder_quote_fn=lambda rd: make_quote(rogue, rd),
                verifier=verifier,
            )

    def test_replay_detected(self, enclave, verifier):
        mon, var = establish_channel(
            initiator_quote_fn=None,
            responder_quote_fn=lambda rd: make_quote(enclave, rd),
            verifier=verifier,
        )
        record = mon.protect(b"once")
        var.open(record)
        with pytest.raises(ChannelError):
            var.open(record)

    def test_reorder_detected(self, enclave, verifier):
        mon, var = establish_channel(
            initiator_quote_fn=None,
            responder_quote_fn=lambda rd: make_quote(enclave, rd),
            verifier=verifier,
        )
        first = mon.protect(b"one")
        second = mon.protect(b"two")
        with pytest.raises(ChannelError):
            var.open(second)
        # ... but the in-order record still works afterwards.
        assert var.open(first) == b"one"

    def test_tamper_detected(self, enclave, verifier):
        mon, var = establish_channel(
            initiator_quote_fn=None,
            responder_quote_fn=lambda rd: make_quote(enclave, rd),
            verifier=verifier,
        )
        record = bytearray(mon.protect(b"payload"))
        record[0] ^= 0xFF
        with pytest.raises(ChannelError):
            var.open(bytes(record))

    def test_cross_direction_record_rejected(self, enclave, verifier):
        mon, var = establish_channel(
            initiator_quote_fn=None,
            responder_quote_fn=lambda rd: make_quote(enclave, rd),
            verifier=verifier,
        )
        record = mon.protect(b"to-variant")
        with pytest.raises(ChannelError):
            mon.open(record)  # reflected back at the sender

    @pytest.mark.parametrize("aead_name", available_aeads())
    def test_truncated_record_rejected(self, aead_name):
        kwargs = dict(aead_name=aead_name, peer_report=None, channel_id="t")
        key_a, key_b = bytes(32), bytes([1]) * 32
        sender = SecureChannel(send_key=key_a, recv_key=key_b, **kwargs)
        receiver = SecureChannel(send_key=key_b, recv_key=key_a, **kwargs)
        record = sender.protect(b"payload")
        for length in (0, 1, 15, len(record) - 1):
            with pytest.raises(ChannelError):
                receiver.open(record[:length])
        assert receiver.open(record) == b"payload"

    def test_aad_binding(self, enclave, verifier):
        mon, var = establish_channel(
            initiator_quote_fn=None,
            responder_quote_fn=lambda rd: make_quote(enclave, rd),
            verifier=verifier,
        )
        record = mon.protect(b"x", aad=b"label-1")
        with pytest.raises(ChannelError):
            var.open(record, aad=b"label-2")

    def test_channels_have_independent_keys(self, enclave, verifier):
        mon1, var1 = establish_channel(
            initiator_quote_fn=None,
            responder_quote_fn=lambda rd: make_quote(enclave, rd),
            verifier=verifier,
        )
        mon2, var2 = establish_channel(
            initiator_quote_fn=None,
            responder_quote_fn=lambda rd: make_quote(enclave, rd),
            verifier=verifier,
        )
        record = mon1.protect(b"x")
        with pytest.raises(ChannelError):
            var2.open(record)
