"""SHAKE256-BLAKE2b encrypt-then-MAC: known answers and a tamper matrix.

The known-answer tests recompute the keystream and the tag straight from
the construction documented in :mod:`repro.crypto.etm` with ``hashlib``
and ``hmac``, so they pin the construction, not just the round trip.
"""

import hashlib
import hmac

import numpy as np
import pytest

from repro.crypto.aead import AeadError, get_aead
from repro.crypto.etm import EtmAuthError, ShakeBlake2b

KEY = bytes(range(32))
NONCE = bytes.fromhex("000000090000004a00000000")
PLAINTEXT = b"checkpoint tensor bytes, hundreds of kilobytes in real records"
AAD = bytes.fromhex("0000000000000007") + b"stage-1"


def _hkdf_sha256(ikm: bytes, info: bytes) -> bytes:
    """RFC 5869 with an empty salt and a single 32-byte output block."""
    prk = hmac.new(bytes(32), ikm, hashlib.sha256).digest()
    return hmac.new(prk, info + b"\x01", hashlib.sha256).digest()


def _reference_seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    enc_key = _hkdf_sha256(key, b"mvtee-etm|enc")
    mac_key = _hkdf_sha256(key, b"mvtee-etm|mac")
    keystream = hashlib.shake_256(enc_key + nonce).digest(len(plaintext))
    ciphertext = bytes(p ^ k for p, k in zip(plaintext, keystream))
    mac_input = (
        nonce
        + len(aad).to_bytes(8, "little")
        + aad
        + len(ciphertext).to_bytes(8, "little")
        + ciphertext
    )
    tag = hashlib.blake2b(mac_input, key=mac_key, digest_size=16).digest()
    return ciphertext + tag


class TestKnownAnswers:
    @pytest.mark.parametrize(
        "plaintext, aad",
        [(PLAINTEXT, AAD), (b"", AAD), (PLAINTEXT, b""), (b"", b""), (bytes(1000), b"x")],
        ids=["both", "empty-plaintext", "empty-aad", "both-empty", "1000-zero-bytes"],
    )
    def test_matches_documented_construction(self, plaintext, aad):
        out = ShakeBlake2b(KEY).encrypt(NONCE, plaintext, aad)
        assert out == _reference_seal(KEY, NONCE, plaintext, aad)
        assert len(out) == len(plaintext) + 16

    def test_pinned_vector(self):
        """Fixed bytes: blobs sealed today must unseal after any refactor."""
        out = ShakeBlake2b(KEY).encrypt(NONCE, PLAINTEXT, AAD)
        assert out[:16].hex() == "f3a2d94d596708d9ea49e923c435316e"
        assert out[-16:].hex() == "ce51fd775f9cfbeecb69c60afbfdab25"

    def test_registered_under_its_name(self):
        aead = get_aead("shake256-blake2b", KEY)
        assert isinstance(aead, ShakeBlake2b)
        assert (aead.key_size, aead.nonce_size, aead.tag_size) == (32, 12, 16)


class TestRoundTrip:
    @pytest.mark.parametrize("plaintext", [b"", PLAINTEXT])
    @pytest.mark.parametrize("aad", [b"", AAD])
    def test_round_trip(self, plaintext, aad):
        aead = ShakeBlake2b(KEY)
        assert aead.decrypt(NONCE, aead.encrypt(NONCE, plaintext, aad), aad) == plaintext

    def test_large_tensor_payload(self):
        payload = np.random.default_rng(1).integers(0, 256, 1_000_000, dtype=np.uint8).tobytes()
        aead = ShakeBlake2b(KEY)
        assert aead.decrypt(NONCE, aead.encrypt(NONCE, payload)) == payload

    def test_nonces_give_distinct_keystreams(self):
        aead = ShakeBlake2b(KEY)
        assert aead.encrypt(bytes(12), bytes(64)) != aead.encrypt(bytes(11) + b"\x01", bytes(64))


def _flip(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


class TestTamperMatrix:
    SEALED = ShakeBlake2b(KEY).encrypt(NONCE, PLAINTEXT, AAD)

    @pytest.mark.parametrize(
        "key, nonce, data, aad",
        [
            (KEY, NONCE, _flip(SEALED, 5), AAD),
            (KEY, NONCE, _flip(SEALED, len(SEALED) - 3), AAD),
            (KEY, NONCE, SEALED, AAD + b"!"),
            (KEY, _flip(NONCE, 11), SEALED, AAD),
            (bytes(32), NONCE, SEALED, AAD),
        ],
        ids=["ciphertext-bit", "tag-bit", "aad", "nonce", "wrong-key"],
    )
    def test_rejected(self, key, nonce, data, aad):
        with pytest.raises(EtmAuthError, match="verification failed"):
            ShakeBlake2b(key).decrypt(nonce, data, aad)

    @pytest.mark.parametrize("length", range(16))
    def test_truncated_below_tag_rejected(self, length):
        with pytest.raises(AeadError, match="shorter"):
            ShakeBlake2b(KEY).decrypt(NONCE, self.SEALED[:length], AAD)

    def test_auth_error_is_an_aead_error(self):
        assert issubclass(EtmAuthError, AeadError)


class TestParameterChecks:
    @pytest.mark.parametrize("size", [0, 16, 31, 33])
    def test_bad_key_length(self, size):
        with pytest.raises(ValueError, match="key"):
            ShakeBlake2b(bytes(size))

    @pytest.mark.parametrize("size", [0, 1, 8, 16])
    def test_bad_nonce_length(self, size):
        aead = ShakeBlake2b(KEY)
        with pytest.raises(ValueError, match="nonce"):
            aead.encrypt(bytes(size), b"x")
        with pytest.raises(ValueError, match="nonce"):
            aead.decrypt(bytes(size), bytes(17))
