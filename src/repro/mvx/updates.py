"""Runtime variant updates (Figure 6, "Updates" flow).

Full updates reshuffle the partition set and rebuild every binding;
partial updates replace or scale the variants of selected partitions,
appending to the binding ledger for auditability.  TEEs are never
reused: old enclaves are terminated and fresh ones placed (§4.3 argues
software-level cleanup is unsound and loading costs are unavoidable
anyway).

:func:`place_and_bind` is the one provisioning path: updates,
scale-ups, supervised worker restarts and chaos heals all place a fresh
TEE and run the Figure-6 bind through it.
"""

from __future__ import annotations

from repro.mvx.bootstrap import Orchestrator
from repro.mvx.monitor import Monitor, MonitorError
from repro.mvx.variant_host import VariantHost
from repro.variants.pool import VariantArtifact

__all__ = ["partial_update", "place_and_bind", "scale_partition"]


def place_and_bind(
    monitor: Monitor,
    orchestrator: Orchestrator,
    partition_index: int,
    artifact: VariantArtifact,
    *,
    event: str,
    enclave_id: str | None = None,
) -> VariantHost:
    """Start a fresh TEE for one artifact and attest, key and bind it.

    Raises :class:`MonitorError` when the bootstrap fails (attestation,
    installation evidence, or a second live binding of the variant).
    """
    host = VariantHost.place(artifact, orchestrator._pick_cpu(), enclave_id=enclave_id)
    monitor.bind_variant(partition_index, artifact, host, event=event)
    return host


def _check_artifacts(
    monitor: Monitor, partition_index: int, artifacts: list[VariantArtifact]
) -> None:
    if monitor.config is None:
        raise MonitorError("cannot update an unprovisioned deployment")
    for artifact in artifacts:
        if artifact.spec.partition_index != partition_index:
            raise MonitorError(
                f"artifact {artifact.variant_id} targets partition "
                f"{artifact.spec.partition_index}, not {partition_index}"
            )


def partial_update(
    monitor: Monitor,
    orchestrator: Orchestrator,
    partition_index: int,
    new_artifacts: list[VariantArtifact],
) -> list[VariantHost]:
    """Replace the variants of one partition with fresh pool artifacts.

    New variants go through the full attestation/key/bind flow with
    ledger event "update"; the old variant TEEs are then retired
    (terminated + ledger "retire" entries).
    """
    _check_artifacts(monitor, partition_index, new_artifacts)
    old = [c.variant_id for c in monitor.connections.get(partition_index, ())]
    new_hosts = [
        place_and_bind(monitor, orchestrator, partition_index, artifact, event="update")
        for artifact in new_artifacts
    ]
    for variant_id in old:
        monitor.retire_variant(variant_id)
    monitor.ledger.verify_chain()
    return new_hosts


def scale_partition(
    monitor: Monitor,
    orchestrator: Orchestrator,
    partition_index: int,
    extra_artifacts: list[VariantArtifact],
) -> list[VariantHost]:
    """Horizontal scaling: add variants to a partition without retiring."""
    _check_artifacts(monitor, partition_index, extra_artifacts)
    new_hosts = [
        place_and_bind(monitor, orchestrator, partition_index, artifact, event="update")
        for artifact in extra_artifacts
    ]
    monitor.ledger.verify_chain()
    return new_hosts
