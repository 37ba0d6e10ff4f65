"""In-memory network fabric connecting monitor, variants and model owner.

Endpoints exchange opaque byte messages through per-destination FIFO
queues.  An optional *adversary* hook sees every message in transit and
may tamper, drop or duplicate it -- the tests use this to demonstrate
that the secure channels detect manipulation by the untrusted network
(threat model (i)/(ii): everything outside the TEEs is untrusted).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Fabric", "NetworkError"]


class NetworkError(Exception):
    """Raised on sends to unknown endpoints or receives from empty queues."""


AdversaryHook = Callable[[str, str, bytes], "bytes | None"]


@dataclass
class Fabric:
    """A star network of named endpoints with injectable interference."""

    adversary: AdversaryHook | None = None
    _queues: dict[tuple[str, str], deque[bytes]] = field(default_factory=dict)
    _endpoints: set[str] = field(default_factory=set)
    bytes_sent: dict[tuple[str, str], int] = field(default_factory=dict)

    def register(self, name: str) -> None:
        """Create an endpoint (idempotent)."""
        self._endpoints.add(name)

    def unregister(self, name: str) -> None:
        """Remove an endpoint and drop the messages queued to or from it."""
        self._endpoints.discard(name)
        for key in [key for key in self._queues if name in key]:
            del self._queues[key]

    def send(self, src: str, dst: str, data: bytes) -> None:
        """Deliver ``data`` from ``src`` to ``dst`` (via the adversary, if any)."""
        if dst not in self._endpoints:
            raise NetworkError(f"unknown endpoint {dst!r}")
        if self.adversary is not None:
            mutated = self.adversary(src, dst, data)
            if mutated is None:
                return  # dropped
            data = mutated
        key = (src, dst)
        self._queues.setdefault(key, deque()).append(data)
        self.bytes_sent[key] = self.bytes_sent.get(key, 0) + len(data)

    def recv(self, src: str, dst: str) -> bytes:
        """Pop the next message from ``src`` addressed to ``dst``."""
        queue = self._queues.get((src, dst))
        if not queue:
            raise NetworkError(f"no message from {src!r} to {dst!r}")
        return queue.popleft()

    def pending(self, src: str, dst: str) -> int:
        """Messages queued from ``src`` to ``dst``."""
        return len(self._queues.get((src, dst), ()))

    def total_bytes(self) -> int:
        """Total payload bytes that crossed the fabric."""
        return sum(self.bytes_sent.values())
