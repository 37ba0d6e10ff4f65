"""Sealed (encrypted + integrity-protected) file blobs.

This is the analog of ``gramine-sgx-pf-crypt``: variant manifests, model
partitions and weights are stored encrypted under a variant-specific
key-derivation key.  Each blob is encrypted with a *one-time* file key
derived from the KDK (see :mod:`repro.crypto.keys`), and the header --
including the ``freshness`` counter used by the protected filesystem for
rollback detection -- is bound into the AEAD as associated data, so any
header tampering breaks decryption.
"""

from __future__ import annotations

import json
import secrets
from dataclasses import dataclass

from repro.crypto.aead import DEFAULT_BULK_AEAD, AeadError, available_aeads, get_aead
from repro.crypto.kdf import hkdf_sha256
from repro.crypto.keys import KeyRecord

__all__ = ["SealedBlob", "SealError", "seal_bytes", "unseal_bytes"]

_MAGIC = "mvtee-sealed-v1"
_NONCE_SIZE = 12


class SealError(Exception):
    """Raised when a sealed blob fails to parse or authenticate."""


@dataclass(frozen=True)
class SealedBlob:
    """A sealed payload plus the public metadata needed to unseal it."""

    aead: str
    key_id: str
    derivation_counter: int
    derivation_salt: bytes
    nonce: bytes
    freshness: int
    path: str
    ciphertext: bytes

    def header_bytes(self) -> bytes:
        """Canonical header serialization, bound as AEAD associated data."""
        header = {
            "magic": _MAGIC,
            "aead": self.aead,
            "key_id": self.key_id,
            "counter": self.derivation_counter,
            "salt": self.derivation_salt.hex(),
            "nonce": self.nonce.hex(),
            "freshness": self.freshness,
            "path": self.path,
        }
        return json.dumps(header, sort_keys=True).encode()

    def to_bytes(self) -> bytes:
        """Full wire/disk form: length-prefixed header then ciphertext."""
        header = self.header_bytes()
        return len(header).to_bytes(4, "big") + header + self.ciphertext

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedBlob":
        """Parse the wire/disk form back into a blob (no authentication yet)."""
        if len(data) < 4:
            raise SealError("sealed blob truncated")
        header_len = int.from_bytes(data[:4], "big")
        if len(data) < 4 + header_len:
            raise SealError("sealed blob header truncated")
        try:
            header = json.loads(data[4 : 4 + header_len])
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SealError(f"sealed blob header is not valid JSON: {exc}") from exc
        if not isinstance(header, dict) or header.get("magic") != _MAGIC:
            raise SealError("sealed blob has wrong magic")
        try:
            blob = cls(
                aead=header["aead"],
                key_id=header["key_id"],
                derivation_counter=int(header["counter"]),
                derivation_salt=bytes.fromhex(header["salt"]),
                nonce=bytes.fromhex(header["nonce"]),
                freshness=int(header["freshness"]),
                path=header["path"],
                ciphertext=data[4 + header_len :],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SealError(f"sealed blob header is malformed: {exc!r}") from exc
        if not (isinstance(blob.key_id, str) and isinstance(blob.path, str)):
            raise SealError("sealed blob key_id and path must be strings")
        if blob.aead not in available_aeads():
            raise SealError(f"sealed blob names unknown AEAD {blob.aead!r}")
        if len(blob.nonce) != _NONCE_SIZE:
            raise SealError(f"sealed blob nonce must be {_NONCE_SIZE} bytes")
        return blob


def _derive_file_key(kdk: bytes, key_id: str, counter: int, salt: bytes, path: str) -> bytes:
    """Deterministic one-time file key: mirrors :meth:`KeyRecord.derive`."""
    info = b"|".join([b"mvtee-kdk", key_id.encode(), b"file-seal", str(counter).encode()])
    one_time = hkdf_sha256(kdk, info=info + b"|" + salt + path.encode())
    return hkdf_sha256(one_time, salt=salt, info=b"mvtee-file-key|" + path.encode(), length=32)


def seal_bytes(
    key_record: KeyRecord,
    path: str,
    plaintext: bytes,
    *,
    freshness: int = 0,
    aead_name: str = DEFAULT_BULK_AEAD,
) -> SealedBlob:
    """Seal ``plaintext`` for logical file ``path`` under a one-time file key.

    ``key_record`` is the variant's key-derivation key; each call burns one
    derivation counter and a fresh random salt, so no file key is reused.
    The counter and salt are public and recorded in the header.
    """
    salt = secrets.token_bytes(16)
    key_record.derive("file-seal", context=salt + path.encode())  # burn + account
    counter = key_record.derivations
    file_key = _derive_file_key(key_record.key, key_record.key_id, counter, salt, path)
    nonce = secrets.token_bytes(_NONCE_SIZE)
    blob = SealedBlob(
        aead=aead_name,
        key_id=key_record.key_id,
        derivation_counter=counter,
        derivation_salt=salt,
        nonce=nonce,
        freshness=freshness,
        path=path,
        ciphertext=b"",
    )
    aead = get_aead(aead_name, file_key)
    ciphertext = aead.encrypt(nonce, plaintext, blob.header_bytes())
    return SealedBlob(
        aead=blob.aead,
        key_id=blob.key_id,
        derivation_counter=counter,
        derivation_salt=salt,
        nonce=nonce,
        freshness=freshness,
        path=path,
        ciphertext=ciphertext,
    )


def unseal_bytes(kdk: bytes, key_id: str, blob: SealedBlob) -> bytes:
    """Unseal a blob given the raw KDK bytes and its key id.

    Unsealing happens inside a variant TEE that received the KDK from the
    monitor; the one-time file key is re-derived from the public header
    fields (counter, salt, path).
    """
    if blob.key_id != key_id:
        raise SealError(f"blob sealed under key {blob.key_id!r}, not {key_id!r}")
    file_key = _derive_file_key(
        kdk, key_id, blob.derivation_counter, blob.derivation_salt, blob.path
    )
    aead = get_aead(blob.aead, file_key)
    try:
        return aead.decrypt(blob.nonce, blob.ciphertext, blob.header_bytes())
    except AeadError as exc:
        raise SealError("sealed blob failed authentication") from exc
