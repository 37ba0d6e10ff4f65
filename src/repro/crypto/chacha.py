"""ChaCha20-Poly1305 AEAD (RFC 8439), with a numpy-vectorized keystream.

The ChaCha20 block function is evaluated for all blocks of a record at
once as numpy ``uint32`` array arithmetic; Poly1305 is a Python big-int
loop.  That reaches only a few MB/s, so bulk records default to the
hashlib suite in :mod:`repro.crypto.etm`.  This suite stays registered as
a test-vector-checked reference, and because sealed blobs name their
AEAD in the header: blobs already sealed with it must still unseal.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["ChaCha20Poly1305", "ChaChaAuthError", "chacha20_xor", "poly1305_mac"]

_CONSTANTS = np.array(
    [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574], dtype=np.uint32
)

_P1305 = (1 << 130) - 5


class ChaChaAuthError(Exception):
    """Raised when a Poly1305 tag fails to verify."""


def _rotl(x: np.ndarray, n: int) -> np.ndarray:
    return (x << np.uint32(n)) | (x >> np.uint32(32 - n))


def _quarter_round(state: np.ndarray, a: int, b: int, c: int, d: int) -> None:
    state[a] += state[b]
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] += state[d]
    state[b] = _rotl(state[b] ^ state[c], 12)
    state[a] += state[b]
    state[d] = _rotl(state[d] ^ state[a], 8)
    state[c] += state[d]
    state[b] = _rotl(state[b] ^ state[c], 7)


def _chacha_blocks(key: bytes, nonce: bytes, counter: int, n_blocks: int) -> np.ndarray:
    """Return the keystream for ``n_blocks`` consecutive blocks as uint8."""
    key_words = np.frombuffer(key, dtype="<u4")
    nonce_words = np.frombuffer(nonce, dtype="<u4")
    state = np.empty((16, n_blocks), dtype=np.uint32)
    state[0:4] = _CONSTANTS[:, None]
    state[4:12] = key_words[:, None]
    state[12] = (counter + np.arange(n_blocks, dtype=np.uint64)).astype(np.uint32)
    state[13:16] = nonce_words[:, None]
    working = state.copy()
    old_err = np.seterr(over="ignore")
    try:
        for _ in range(10):  # 20 rounds = 10 double rounds
            _quarter_round(working, 0, 4, 8, 12)
            _quarter_round(working, 1, 5, 9, 13)
            _quarter_round(working, 2, 6, 10, 14)
            _quarter_round(working, 3, 7, 11, 15)
            _quarter_round(working, 0, 5, 10, 15)
            _quarter_round(working, 1, 6, 11, 12)
            _quarter_round(working, 2, 7, 8, 13)
            _quarter_round(working, 3, 4, 9, 14)
        working += state
    finally:
        np.seterr(**old_err)
    # Serialize: each block is the 16 words little-endian, blocks consecutive.
    return np.ascontiguousarray(working.T).astype("<u4").view(np.uint8).reshape(-1)


def chacha20_xor(key: bytes, nonce: bytes, counter: int, data: bytes) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream (encrypt == decrypt)."""
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    if not data:
        return b""
    n_blocks = (len(data) + 63) // 64
    keystream = _chacha_blocks(key, nonce, counter, n_blocks)[: len(data)]
    buf = np.frombuffer(data, dtype=np.uint8)
    return (buf ^ keystream).tobytes()


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the Poly1305 MAC of ``message`` under a 32-byte one-time key."""
    if len(key) != 32:
        raise ValueError("Poly1305 key must be 32 bytes")
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    acc = 0
    for off in range(0, len(message), 16):
        chunk = message[off : off + 16]
        n = int.from_bytes(chunk, "little") + (1 << (8 * len(chunk)))
        acc = ((acc + n) * r) % _P1305
    return ((acc + s) & ((1 << 128) - 1)).to_bytes(16, "little")


def _pad16(data: bytes) -> bytes:
    remainder = len(data) % 16
    return data + (b"\x00" * (16 - remainder) if remainder else b"")


class ChaCha20Poly1305:
    """RFC 8439 AEAD construction.

    >>> aead = ChaCha20Poly1305(bytes(32))
    >>> ct = aead.encrypt(bytes(12), b"hello", b"aad")
    >>> aead.decrypt(bytes(12), ct, b"aad")
    b'hello'
    """

    name = "chacha20-poly1305"
    key_size = 32
    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("ChaCha20-Poly1305 key must be 32 bytes")
        self._key = key

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        otk = _chacha_blocks(self._key, nonce, 0, 1).tobytes()[:32]
        mac_data = (
            _pad16(aad)
            + _pad16(ciphertext)
            + struct.pack("<QQ", len(aad), len(ciphertext))
        )
        return poly1305_mac(otk, mac_data)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        ciphertext = chacha20_xor(self._key, nonce, 1, plaintext)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`ChaChaAuthError` on mismatch."""
        if len(data) < self.tag_size:
            raise ChaChaAuthError("ciphertext shorter than the authentication tag")
        ciphertext, tag = data[: -self.tag_size], data[-self.tag_size :]
        expected = self._tag(nonce, ciphertext, aad)
        diff = 0
        for x, y in zip(expected, tag):
            diff |= x ^ y
        if diff:
            raise ChaChaAuthError("Poly1305 tag verification failed")
        return chacha20_xor(self._key, nonce, 1, ciphertext)
