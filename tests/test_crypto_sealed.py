"""Sealed blobs: roundtrip, tamper detection, key binding, registry."""

import json

import pytest

from repro.crypto.aead import available_aeads, get_aead
from repro.crypto.keys import KeyManager
from repro.crypto.sealed import SealedBlob, SealError, seal_bytes, unseal_bytes


@pytest.fixture()
def record():
    return KeyManager().create_key("variant-7")


class TestSealRoundtrip:
    def test_basic(self, record):
        blob = seal_bytes(record, "model.bin", b"weights" * 100)
        assert unseal_bytes(record.key, "variant-7", blob) == b"weights" * 100

    def test_wire_roundtrip(self, record):
        blob = seal_bytes(record, "m", b"data", freshness=5)
        parsed = SealedBlob.from_bytes(blob.to_bytes())
        assert parsed.freshness == 5
        assert unseal_bytes(record.key, "variant-7", parsed) == b"data"

    def test_each_seal_uses_fresh_key(self, record):
        a = seal_bytes(record, "m", b"same")
        b = seal_bytes(record, "m", b"same")
        assert a.ciphertext != b.ciphertext
        assert a.derivation_counter != b.derivation_counter

    def test_both_aeads_work(self, record):
        for name in available_aeads():
            blob = seal_bytes(record, f"f-{name}", b"x", aead_name=name)
            assert unseal_bytes(record.key, "variant-7", blob) == b"x"

    def test_burns_usage_counter(self, record):
        before = record.derivations
        seal_bytes(record, "m", b"x")
        assert record.derivations == before + 1


class TestSealSecurity:
    def test_ciphertext_tamper(self, record):
        blob = seal_bytes(record, "m", b"secret")
        bad = SealedBlob(
            aead=blob.aead,
            key_id=blob.key_id,
            derivation_counter=blob.derivation_counter,
            derivation_salt=blob.derivation_salt,
            nonce=blob.nonce,
            freshness=blob.freshness,
            path=blob.path,
            ciphertext=bytes([blob.ciphertext[0] ^ 1]) + blob.ciphertext[1:],
        )
        with pytest.raises(SealError):
            unseal_bytes(record.key, "variant-7", bad)

    def test_header_tamper_freshness(self, record):
        blob = seal_bytes(record, "m", b"secret", freshness=3)
        forged = SealedBlob(
            aead=blob.aead,
            key_id=blob.key_id,
            derivation_counter=blob.derivation_counter,
            derivation_salt=blob.derivation_salt,
            nonce=blob.nonce,
            freshness=99,  # attacker inflates freshness
            path=blob.path,
            ciphertext=blob.ciphertext,
        )
        with pytest.raises(SealError):
            unseal_bytes(record.key, "variant-7", forged)

    def test_path_swap_detected(self, record):
        blob = seal_bytes(record, "model-a.bin", b"secret")
        moved = SealedBlob(
            aead=blob.aead,
            key_id=blob.key_id,
            derivation_counter=blob.derivation_counter,
            derivation_salt=blob.derivation_salt,
            nonce=blob.nonce,
            freshness=blob.freshness,
            path="model-b.bin",
            ciphertext=blob.ciphertext,
        )
        with pytest.raises(SealError):
            unseal_bytes(record.key, "variant-7", moved)

    def test_wrong_kdk(self, record):
        blob = seal_bytes(record, "m", b"secret")
        with pytest.raises(SealError):
            unseal_bytes(bytes(32), "variant-7", blob)

    def test_wrong_key_id(self, record):
        blob = seal_bytes(record, "m", b"secret")
        with pytest.raises(SealError, match="sealed under key"):
            unseal_bytes(record.key, "other-variant", blob)

    def test_garbage_blob_rejected(self):
        with pytest.raises(SealError):
            SealedBlob.from_bytes(b"nonsense")

    def test_bad_magic_rejected(self):
        header = b'{"magic": "wrong"}'
        data = len(header).to_bytes(4, "big") + header
        with pytest.raises(SealError, match="magic"):
            SealedBlob.from_bytes(data)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: {**h, "aead": "rot13"},
            lambda h: {**h, "nonce": "00"},
            lambda h: {k: v for k, v in h.items() if k != "salt"},
            lambda h: {**h, "salt": "not-hex"},
            lambda h: [h],
            lambda h: {**h, "path": 7},
        ],
        ids=[
            "unknown-aead",
            "one-byte-nonce",
            "missing-salt",
            "non-hex-salt",
            "list-header",
            "non-string-path",
        ],
    )
    def test_malformed_header_is_a_seal_error(self, record, edit):
        blob = seal_bytes(record, "m", b"secret")
        header = json.dumps(edit(json.loads(blob.header_bytes()))).encode()
        data = len(header).to_bytes(4, "big") + header + blob.ciphertext
        with pytest.raises(SealError):
            unseal_bytes(record.key, "variant-7", SealedBlob.from_bytes(data))


class TestAeadRegistry:
    def test_available(self):
        assert available_aeads() == ["aes-gcm", "chacha20-poly1305", "shake256-blake2b"]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown AEAD"):
            get_aead("rot13", bytes(32))

    def test_instantiation(self):
        for name in available_aeads():
            aead = get_aead(name, bytes(32))
            assert aead.name == name
