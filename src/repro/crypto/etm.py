"""SHAKE256 + BLAKE2b encrypt-then-MAC AEAD, built on stdlib ``hashlib``.

Bulk tensor records are hundreds of kilobytes each, so the per-byte cost
of the record cipher is what the monitor pays on every checkpoint.  The
from-scratch ChaCha20-Poly1305 and AES-GCM suites spend that time in
Python-level arithmetic; this construction spends it in the C hash
implementations ``hashlib`` ships with, which is the paper's remark that
encryption overhead "can be optimized through more efficient
cryptographic algorithms and implementations".

Construction, for a 32-byte key ``K``, a 12-byte nonce ``N``, plaintext
``P`` and associated data ``A``:

- ``enc_key = HKDF-SHA256(K, info="mvtee-etm|enc")`` and
  ``mac_key = HKDF-SHA256(K, info="mvtee-etm|mac")``: independent
  subkeys, so the keystream and the tag never share key material;
- ``C = P XOR SHAKE256(enc_key || N)[:len(P)]`` (SHAKE256 is an
  extendable-output function, so one call yields the whole keystream);
- ``T = BLAKE2b-128(key=mac_key, N || le64(len A) || A || le64(len C) || C)``,
  with the lengths making the (A, C) split unambiguous;
- output ``C || T``.  Decryption checks ``T`` in constant time before any
  keystream is generated.

Nonce uniqueness per key is the caller's job, as for every AEAD here:
channels use the record sequence number, sealed blobs a random nonce
under a one-time file key.
"""

from __future__ import annotations

import hashlib
import hmac

import numpy as np

from repro.crypto.kdf import hkdf_sha256

__all__ = ["EtmAuthError", "ShakeBlake2b"]

_ENC_INFO = b"mvtee-etm|enc"
_MAC_INFO = b"mvtee-etm|mac"


class EtmAuthError(Exception):
    """Raised when a BLAKE2b tag fails to verify."""


class ShakeBlake2b:
    """Encrypt-then-MAC AEAD: SHAKE256 keystream, keyed BLAKE2b tag.

    >>> aead = ShakeBlake2b(bytes(32))
    >>> ct = aead.encrypt(bytes(12), b"hello", b"aad")
    >>> aead.decrypt(bytes(12), ct, b"aad")
    b'hello'
    """

    name = "shake256-blake2b"
    key_size = 32
    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes):
        if len(key) != self.key_size:
            raise ValueError("SHAKE256-BLAKE2b key must be 32 bytes")
        self._enc_key = hkdf_sha256(key, info=_ENC_INFO)
        self._mac_key = hkdf_sha256(key, info=_MAC_INFO)

    def _check_nonce(self, nonce: bytes) -> None:
        if len(nonce) != self.nonce_size:
            raise ValueError("SHAKE256-BLAKE2b nonce must be 12 bytes")

    def _xor_keystream(self, nonce: bytes, data) -> bytes:
        keystream = hashlib.shake_256(self._enc_key + nonce).digest(len(data))
        return np.bitwise_xor(
            np.frombuffer(data, dtype=np.uint8), np.frombuffer(keystream, dtype=np.uint8)
        ).tobytes()

    def _tag(self, nonce: bytes, ciphertext, aad: bytes) -> bytes:
        mac = hashlib.blake2b(key=self._mac_key, digest_size=self.tag_size)
        mac.update(nonce)
        mac.update(len(aad).to_bytes(8, "little"))
        mac.update(aad)
        mac.update(len(ciphertext).to_bytes(8, "little"))
        mac.update(ciphertext)
        return mac.digest()

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        self._check_nonce(nonce)
        ciphertext = self._xor_keystream(nonce, plaintext)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`EtmAuthError` on mismatch."""
        self._check_nonce(nonce)
        if len(data) < self.tag_size:
            raise EtmAuthError("ciphertext shorter than the authentication tag")
        view = memoryview(data)
        ciphertext, tag = view[: -self.tag_size], view[-self.tag_size :]
        if not hmac.compare_digest(self._tag(nonce, ciphertext, aad), tag):
            raise EtmAuthError("BLAKE2b tag verification failed")
        return self._xor_keystream(nonce, ciphertext)
