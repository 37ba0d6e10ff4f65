"""Uniform AEAD interface and registry.

All MVTEE channels and sealed files are parameterized by an AEAD name so
the record cipher is a deployment choice, mirroring the paper's remark
that "encryption overhead ... can be optimized through more efficient
cryptographic algorithms and implementations".
"""

from __future__ import annotations

from typing import Protocol

from repro.crypto.chacha import ChaCha20Poly1305, ChaChaAuthError
from repro.crypto.etm import EtmAuthError, ShakeBlake2b
from repro.crypto.gcm import AesGcm, GcmAuthError

__all__ = ["Aead", "AeadError", "get_aead", "available_aeads", "DEFAULT_BULK_AEAD"]

AeadError = (GcmAuthError, ChaChaAuthError, EtmAuthError)
"""Exception types raised on authentication failure by any registered AEAD."""

#: Every channel and new sealed blob uses this suite unless told otherwise.
#: ChaCha20-Poly1305 and AES-GCM stay registered as test-vector-checked
#: reference suites, and so that blobs sealed under them still unseal.
DEFAULT_BULK_AEAD = ShakeBlake2b.name


class Aead(Protocol):
    """Structural interface every registered AEAD satisfies."""

    name: str
    key_size: int
    nonce_size: int
    tag_size: int

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes: ...

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes: ...


_REGISTRY = {
    AesGcm.name: AesGcm,
    ChaCha20Poly1305.name: ChaCha20Poly1305,
    ShakeBlake2b.name: ShakeBlake2b,
}


def available_aeads() -> list[str]:
    """Names of all registered AEAD constructions."""
    return sorted(_REGISTRY)


def get_aead(name: str, key: bytes) -> Aead:
    """Instantiate a registered AEAD by name with the given key."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown AEAD {name!r}; available: {available_aeads()}") from None
    return cls(key)
