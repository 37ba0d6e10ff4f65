"""Cryptographic substrate for MVTEE.

The paper encrypts all inter-TEE traffic with AES-GCM-256 over RA-TLS
sockets and encrypts variant files with ``gramine-sgx-pf-crypt``.  No
crypto library is available offline, so this package provides real,
test-vector-verified implementations built from scratch:

- :mod:`repro.crypto.aes` -- the AES block cipher (128/192/256 bit keys).
- :mod:`repro.crypto.gcm` -- AES-GCM authenticated encryption.
- :mod:`repro.crypto.chacha` -- ChaCha20-Poly1305 (RFC 8439) with a
  numpy-vectorized keystream.
- :mod:`repro.crypto.etm` -- the bulk-record default: a SHAKE256 +
  keyed-BLAKE2b encrypt-then-MAC AEAD on stdlib ``hashlib``, fast enough
  for megabyte tensor records.
- :mod:`repro.crypto.aead` -- a uniform AEAD interface and registry.
- :mod:`repro.crypto.kdf` -- HKDF-SHA256 key derivation.
- :mod:`repro.crypto.keys` -- key manager: variant-specific keys act as
  key-derivation keys; file encryption uses one-time derived keys; usage
  counters model the NIST key-usage thresholds discussed in the paper.
- :mod:`repro.crypto.sealed` -- the encrypted file-blob format used for
  variant manifests and model partitions (pf-crypt analog).
"""

from repro.crypto.aead import Aead, AeadError, get_aead, available_aeads
from repro.crypto.aes import AesBlockCipher
from repro.crypto.gcm import AesGcm
from repro.crypto.chacha import ChaCha20Poly1305
from repro.crypto.etm import ShakeBlake2b
from repro.crypto.kdf import hkdf_expand, hkdf_extract, hkdf_sha256, hmac_sha256
from repro.crypto.keys import KeyManager, KeyUsageExceeded
from repro.crypto.sealed import SealedBlob, SealError, seal_bytes, unseal_bytes

__all__ = [
    "Aead",
    "AeadError",
    "AesBlockCipher",
    "AesGcm",
    "ChaCha20Poly1305",
    "KeyManager",
    "KeyUsageExceeded",
    "SealedBlob",
    "SealError",
    "ShakeBlake2b",
    "available_aeads",
    "get_aead",
    "hkdf_expand",
    "hkdf_extract",
    "hkdf_sha256",
    "hmac_sha256",
    "seal_bytes",
    "unseal_bytes",
]
