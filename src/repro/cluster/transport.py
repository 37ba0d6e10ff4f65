"""Record transport through per-variant worker processes.

:class:`ProcessTransport` is the third record path next to
:class:`~repro.mvx.transport.DirectTransport` (in-process) and
:class:`~repro.mvx.transport.FabricTransport` (untrusted network): the
monitor's protected records cross a pipe into the variant's own OS
process.  Records are opaque AEAD ciphertext either way -- the process
boundary adds *fault isolation*, not a new trust assumption.

Routing is two-phase.  During bootstrap the monitor registers plain
hosts and records are handed over in-process (the RA-TLS handshake
needs both channel ends in one address space).  Once the cluster
supervisor forks a worker for a host, the route is *promoted*: every
later exchange goes through the worker's pipe.  A dead worker demotes
back to no-route, marks the parent-side host crashed (terminating its
enclave so EPC accounting stays truthful), has the supervisor handle
the death at once, and raises the same typed
:class:`~repro.mvx.variant_host.VariantUnavailable` the monitor already
handles for crashed TEEs.  Unregistering a variant the monitor retired
drops its route and host and has the supervisor stop its live worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.worker import WorkerCrashed, WorkerProcess
from repro.mvx.transport import record_exchange
from repro.mvx.variant_host import VariantHost, VariantUnavailable
from repro.observability.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.cluster.supervisor import ClusterSupervisor

__all__ = ["ProcessTransport"]


@dataclass
class ProcessTransport:
    """Monitor<->variant records over per-variant worker processes."""

    hosts: dict[str, VariantHost] = field(default_factory=dict)
    workers: dict[str, WorkerProcess] = field(default_factory=dict)
    metrics: MetricsRegistry | None = None
    #: The :class:`~repro.cluster.supervisor.ClusterSupervisor` owning
    #: the workers (it sets itself here).
    supervisor: "ClusterSupervisor | None" = None

    def register(self, host: VariantHost) -> None:
        """Attach a placed host (direct route until a worker is forked)."""
        self.hosts[host.variant_id] = host

    def unregister(self, variant_id: str) -> None:
        """Drop a retired variant's route and host; stop its live worker."""
        self.hosts.pop(variant_id, None)
        if self.supervisor is not None:
            self.supervisor.park(variant_id)
        self.demote(variant_id)

    def promote(self, worker: WorkerProcess) -> None:
        """Route a variant's records through its forked worker."""
        self.workers[worker.variant_id] = worker

    def demote(self, variant_id: str) -> WorkerProcess | None:
        """Drop a variant's worker route (dead or draining worker)."""
        return self.workers.pop(variant_id, None)

    def exchange(self, variant_id: str, record: bytes) -> bytes:
        worker = self.workers.get(variant_id)
        if worker is None:
            return self._exchange_direct(variant_id, record)
        try:
            response = worker.exchange(record)
        except WorkerCrashed as exc:
            self._mark_dead(worker, str(exc))
            record_exchange(self.metrics, "process", record, None, outcome="error")
            if self.supervisor is not None:
                try:
                    # Report the death and schedule the restart now,
                    # not at the next heartbeat tick.
                    self.supervisor.poll()
                except Exception:
                    pass  # the heartbeat retries; the crash still surfaces
            raise
        except VariantUnavailable:
            record_exchange(self.metrics, "process", record, None, outcome="error")
            raise
        record_exchange(self.metrics, "process", record, response)
        return response

    def _exchange_direct(self, variant_id: str, record: bytes) -> bytes:
        host = self.hosts.get(variant_id)
        if host is None:
            raise VariantUnavailable(f"no transport route to variant {variant_id!r}")
        try:
            response = host.handle_record(record)
        except VariantUnavailable:
            record_exchange(self.metrics, "process", record, None, outcome="error")
            raise
        record_exchange(self.metrics, "process", record, response)
        return response

    def _mark_dead(self, worker: WorkerProcess, reason: str) -> None:
        """A dead worker is a crashed TEE: reflect it on the parent host."""
        self.demote(worker.variant_id)
        # The monitor's failing request will record the crash incident;
        # flag it so the supervisor does not file a duplicate.
        worker.crash_reported = True
        worker.host.mark_crashed(reason)
