"""Monitor <-> variant record transports.

The CP/US architecture "naturally supports execution in a distributed
setting" (§4.3): the monitor and variant TEEs may be co-located (records
handed over in memory) or distributed (records cross an untrusted
network).  Both transports move the *same protected records* -- the
security of the exchange comes from the RA-TLS channel layer, so a
tampering network adversary causes a detected :class:`ChannelError`,
never silent corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.mvx.variant_host import VariantHost, VariantUnavailable
from repro.observability.metrics import MetricsRegistry, get_global_registry
from repro.tee.network import Fabric, NetworkError

__all__ = ["DirectTransport", "FabricTransport", "Transport", "record_exchange"]

MONITOR_ENDPOINT = "mvtee-monitor"


def record_exchange(
    registry: MetricsRegistry | None,
    transport: str,
    request: bytes,
    response: bytes | None,
    *,
    outcome: str = "ok",
) -> None:
    """Count one monitor<->variant record exchange and its volume."""
    registry = registry if registry is not None else get_global_registry()
    registry.counter(
        "mvtee_transport_exchanges_total", "Protected record round trips"
    ).inc(transport=transport, outcome=outcome)
    volume = registry.counter(
        "mvtee_transport_bytes_total", "Protected record bytes moved"
    )
    volume.inc(len(request), transport=transport, direction="request")
    if response is not None:
        volume.inc(len(response), transport=transport, direction="response")


class Transport(Protocol):
    """Moves one protected request record and returns the response record."""

    def exchange(self, variant_id: str, record: bytes) -> bytes: ...

    def register(self, host: VariantHost) -> None: ...

    def unregister(self, variant_id: str) -> None: ...


@dataclass
class DirectTransport:
    """Co-located deployment: records handed to the variant in-process."""

    hosts: dict[str, VariantHost] = field(default_factory=dict)
    metrics: MetricsRegistry | None = None

    def register(self, host: VariantHost) -> None:
        """Attach a placed variant host."""
        self.hosts[host.variant_id] = host

    def unregister(self, variant_id: str) -> None:
        """Detach a retired variant host."""
        self.hosts.pop(variant_id, None)

    def exchange(self, variant_id: str, record: bytes) -> bytes:
        host = self.hosts.get(variant_id)
        if host is None:
            raise VariantUnavailable(f"no transport route to variant {variant_id!r}")
        try:
            response = host.handle_record(record)
        except VariantUnavailable:
            record_exchange(self.metrics, "direct", record, None, outcome="error")
            raise
        record_exchange(self.metrics, "direct", record, response)
        return response


@dataclass
class FabricTransport:
    """Distributed deployment: records cross the (untrusted) fabric.

    Each exchange is one request/response round trip through per-variant
    endpoints; the fabric's adversary hook can tamper with, drop or
    duplicate records in either direction.
    """

    fabric: Fabric = field(default_factory=Fabric)
    hosts: dict[str, VariantHost] = field(default_factory=dict)
    metrics: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        self.fabric.register(MONITOR_ENDPOINT)

    def register(self, host: VariantHost) -> None:
        """Attach a placed variant host behind its own endpoint."""
        self.hosts[host.variant_id] = host
        self.fabric.register(self._endpoint(host.variant_id))

    def unregister(self, variant_id: str) -> None:
        """Detach a retired variant host and close its endpoint."""
        self.hosts.pop(variant_id, None)
        self.fabric.unregister(self._endpoint(variant_id))

    @staticmethod
    def _endpoint(variant_id: str) -> str:
        return f"mvtee-variant-{variant_id}"

    def exchange(self, variant_id: str, record: bytes) -> bytes:
        host = self.hosts.get(variant_id)
        if host is None:
            raise VariantUnavailable(f"no transport route to variant {variant_id!r}")
        endpoint = self._endpoint(variant_id)
        try:
            self.fabric.send(MONITOR_ENDPOINT, endpoint, record)
            try:
                delivered = self.fabric.recv(MONITOR_ENDPOINT, endpoint)
            except NetworkError as exc:
                # The adversary dropped the request: to the monitor this
                # is a missing response.
                raise VariantUnavailable(
                    f"variant {variant_id}: request lost in transit ({exc})"
                ) from exc
            response = host.handle_record(delivered)
            self.fabric.send(endpoint, MONITOR_ENDPOINT, response)
            try:
                delivered_response = self.fabric.recv(endpoint, MONITOR_ENDPOINT)
            except NetworkError as exc:
                raise VariantUnavailable(
                    f"variant {variant_id}: response lost in transit ({exc})"
                ) from exc
        except VariantUnavailable:
            record_exchange(self.metrics, "fabric", record, None, outcome="error")
            raise
        record_exchange(self.metrics, "fabric", record, delivered_response)
        return delivered_response
