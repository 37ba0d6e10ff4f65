"""The MVTEE monitor: security manager of the deployment (§4.3).

The monitor runs in its own TEE (cross-process user-space design) and
owns: the provisioned MVX configuration, variant attestation and key
distribution, the binding ledger, input distribution, checkpoint
synchronization with voting, output replication, and the protective
response to divergences and crashes.
"""

from __future__ import annotations

import secrets
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.crypto.keys import KeyManager
from repro.mvx.binding import BindingLedger
from repro.mvx.config import MvxConfig
from repro.mvx.consistency import ConsistencyPolicy
from repro.mvx.events import CrashEvent, DivergenceEvent, ResponseAction
from repro.mvx.variant_host import VariantHost, VariantUnavailable
from repro.mvx.voting import VariantOutput, VoteResult, vote
from repro.mvx.wire import decode_message, encode_message
from repro.observability.forensics import (
    IncidentReport,
    IncidentStore,
    build_incident_report,
)
from repro.observability.metrics import MetricsRegistry, get_global_registry
from repro.observability.recorder import (
    KIND_CHECKPOINT,
    KIND_CRASH,
    KIND_DIVERGENCE,
    KIND_RESPONSE,
    KIND_VARIANT_REPLACED,
    FlightRecorder,
)
from repro.observability.tracing import NullTracer, Span, Tracer
from repro.partition.partition import PartitionSet
from repro.mvx.transport import Transport
from repro.tee.attestation import AttestationError, Verifier
from repro.tee.channel import ChannelError, SecureChannel, establish_channel
from repro.tee.enclave import Enclave
from repro.variants.pool import VariantPool

if TYPE_CHECKING:
    from repro.serving.executor import ParallelStageExecutor

__all__ = ["Monitor", "MonitorError", "VariantConnection"]


class MonitorError(Exception):
    """Raised on protocol violations or unrecoverable detection outcomes."""


def _new_executor() -> ParallelStageExecutor:
    # Imported here: repro.serving imports the scheduler, which imports
    # this module.
    from repro.serving.executor import shared_executor

    return shared_executor()


@dataclass
class VariantConnection:
    """A bound, attested variant: channel + transport route + metadata."""

    variant_id: str
    partition_index: int
    channel: SecureChannel
    host: VariantHost
    measurement: str
    transport: "Transport | None" = None
    #: Serializes round trips: the RA-TLS channel is strictly
    #: sequence-numbered, so protect -> exchange -> open must never
    #: interleave across threads (the serving engine overlaps batches,
    #: and two batches may target the same variant concurrently).
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def request(self, msg_type: str, meta: dict, tensors: dict | None = None) -> tuple[str, dict, dict]:
        """Round-trip one protected request to the variant."""
        with self._lock:
            record = self.channel.protect(encode_message(msg_type, meta, tensors))
            if self.transport is not None:
                response = self.transport.exchange(self.variant_id, record)
            else:
                response = self.host.handle_record(record)
            return decode_message(self.channel.open(response))


@dataclass
class Monitor:
    """The monitor TEE."""

    enclave: Enclave
    verifier: Verifier
    pool: VariantPool
    config: MvxConfig | None = None
    response_action: ResponseAction = ResponseAction.HALT
    #: Record transport; None means direct in-process handover.  A
    #: :class:`repro.mvx.transport.FabricTransport` models distributed
    #: deployment across an untrusted network.
    transport: "Transport | None" = None
    #: Observability sinks: the tracer receives ``variant`` and
    #: ``checkpoint`` spans (nested under the scheduler's ``stage``
    #: spans); detection/recovery counters go to ``metrics`` (None =
    #: the process-wide registry).  The scheduler installs a run's
    #: tracer/registry for the duration of that run.
    tracer: Tracer = field(default_factory=NullTracer)
    metrics: MetricsRegistry | None = None
    #: Tamper-evident audit log (None = not recording).  Installed
    #: deployment-wide by :meth:`MvteeSystem.deploy` or per run via
    #: :class:`~repro.mvx.scheduler.InferenceOptions`.
    recorder: FlightRecorder | None = None
    #: Forensic reports of the most recent detections (always on: the
    #: store is bounded and reports carry digests, not tensors).
    incident_store: IncidentStore = field(default_factory=IncidentStore)
    ledger: BindingLedger = field(default_factory=BindingLedger)
    connections: dict[int, list[VariantConnection]] = field(default_factory=dict)
    events: list[object] = field(default_factory=list)
    _policy: ConsistencyPolicy = field(default_factory=ConsistencyPolicy)
    _provision_nonces: set[bytes] = field(default_factory=set)
    #: Deferred async cross-validation checks: (batch, partition,
    #: accepted outputs, laggard connections, stage feeds).
    _deferred: list[tuple[int, int, dict, list[VariantConnection], dict]] = field(
        default_factory=list
    )
    #: Guards shared mutable detection state (events, deferred checks,
    #: connection lists) against concurrent replica dispatch threads.
    _state_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: The concurrent dispatcher every round trip goes through
    #: (:meth:`_dispatch`): by default the process-wide one.
    _executor: ParallelStageExecutor = field(default_factory=_new_executor, repr=False)
    #: Refcounted install/restore of run-scoped sinks (config, tracer,
    #: metrics, recorder): the first concurrent run installs, the last
    #: restores.  Managed by :func:`repro.mvx.scheduler.run`.
    _run_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _run_refs: int = field(default=0, repr=False)
    _run_saved: tuple | None = field(default=None, repr=False)

    @property
    def partition_set(self) -> PartitionSet:
        """The partition set underlying the pool."""
        return self.pool.partition_set

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The registry detection/recovery counters are recorded into."""
        return self.metrics if self.metrics is not None else get_global_registry()

    def incidents(self, kind: str | None = None) -> list[IncidentReport]:
        """Forensic reports of recent detections, oldest first."""
        return self.incident_store.incidents(kind)

    def _audit(self, kind: str, **data) -> None:
        """Append one event to the flight recorder, if one is installed."""
        if self.recorder is not None:
            self.recorder.record(kind, **data)

    def _capture_incident(self, report: IncidentReport) -> IncidentReport:
        """Store one incident and surface it in metrics + audit log."""
        self.incident_store.add(report)
        self.metrics_registry.counter(
            "mvtee_incidents_total", "Forensic incident reports captured"
        ).inc(kind=report.kind, partition=report.partition_index)
        self._audit(
            KIND_DIVERGENCE if report.kind == "divergence" else KIND_CRASH,
            incident_id=report.incident_id,
            batch=report.batch_id,
            partition=report.partition_index,
            suspected=list(report.suspected_culprits),
            agreeing=list(report.agreeing_variants),
            max_abs_error=report.max_abs_error,
            response=report.response_action,
            trace_id=report.trace_id,
            error=report.error,
        )
        return report

    # ------------------------------------------------------------------
    # Provisioning (Figure 6 step 3)
    # ------------------------------------------------------------------

    def provision_config(self, config: MvxConfig, nonce: bytes) -> bytes:
        """Accept an MVX configuration from the attested model owner.

        The nonce defends replay: re-provisioning with a seen nonce is
        rejected.  Returns the nonce echo the owner verifies in step 8.
        """
        if nonce in self._provision_nonces:
            raise MonitorError("replayed provisioning nonce rejected")
        if len(config.claims) != len(self.partition_set):
            raise MonitorError(
                f"config covers {len(config.claims)} partitions, "
                f"deployment has {len(self.partition_set)}"
            )
        self._provision_nonces.add(nonce)
        self.config = config
        self._install_policies(config)
        return nonce

    def _install_policies(self, config: MvxConfig) -> None:
        """Build the default + per-partition consistency policies.

        §4.3: thresholds are adjusted "based on variant noise levels to
        balance the precision and recall of attack identification" --
        a partition running heavily diversified (noisier) variants can
        carry looser thresholds than the rest.  The config's
        ``consistency`` dict takes the default kwargs plus an optional
        ``per_partition`` map of index -> kwarg overrides.
        """
        base = {k: v for k, v in config.consistency.items() if k != "per_partition"}
        self._policy = ConsistencyPolicy.from_kwargs(base)
        self._partition_policies = {}
        for index, overrides in config.consistency.get("per_partition", {}).items():
            merged = dict(base)
            merged.update(overrides)
            self._partition_policies[int(index)] = ConsistencyPolicy.from_kwargs(merged)

    def policy_for(self, index: int) -> ConsistencyPolicy:
        """The consistency policy governing one partition's checkpoint."""
        return getattr(self, "_partition_policies", {}).get(index, self._policy)

    # ------------------------------------------------------------------
    # Variant initialization (Figure 6 steps 4-7)
    # ------------------------------------------------------------------

    def initialize_variants(
        self, hosts: dict[str, VariantHost], *, event: str = "init"
    ) -> None:
        """Attest, key and bind every selected variant.

        ``hosts`` maps variant_id -> placed host (the orchestrator started
        them from the public init-variant images).  For each claim the
        monitor selects variants from the pool, establishes an RA-TLS
        channel, distributes the variant-specific key, and verifies the
        second-stage installation evidence before binding.
        """
        if self.config is None:
            raise MonitorError("no MVX configuration provisioned")
        for claim in self.config.claims:
            selected = self.pool.select(
                claim.partition_index, claim.num_variants, seed=claim.selection_seed
            )
            for artifact in selected:
                host = hosts.get(artifact.variant_id)
                if host is None:
                    raise MonitorError(
                        f"orchestrator did not place variant {artifact.variant_id!r}"
                    )
                self._bootstrap_variant(claim.partition_index, artifact, host, event)

    def _bootstrap_variant(self, partition_index, artifact, host, event) -> None:
        # Fork-attack prevention (§6.5): a variant identity may be bound
        # to at most one live TEE; a second instance of the same variant
        # is rejected before any key leaves the monitor.
        active = self.ledger.active_bindings()
        if artifact.variant_id in active:
            raise MonitorError(
                f"variant {artifact.variant_id!r} is already bound to enclave "
                f"{active[artifact.variant_id].enclave_id!r} (fork attack?)"
            )
        # The init-variant's measurement must be trusted before any key
        # leaves the monitor.
        self.verifier.trust_measurement(host.enclave.measurement)
        channel_id = f"mon-{artifact.variant_id}-{secrets.token_hex(3)}"
        try:
            monitor_end, variant_end = establish_channel(
                initiator_quote_fn=lambda rd: self.quote(rd),
                responder_quote_fn=host.quote,
                verifier=self.verifier,
                channel_id=channel_id,
            )
        except ChannelError as exc:
            raise MonitorError(f"RA-TLS with {artifact.variant_id} failed: {exc}") from exc
        host.attach_channel(variant_end)
        if self.transport is not None:
            self.transport.register(host)
        connection = VariantConnection(
            variant_id=artifact.variant_id,
            partition_index=partition_index,
            channel=monitor_end,
            host=host,
            measurement=host.enclave.measurement,
            transport=self.transport,
        )
        msg_type, meta, _ = connection.request(
            "install-key",
            {"key_id": artifact.key_record.key_id, "kdk": artifact.key_record.key.hex()},
        )
        if msg_type != "init-done":
            raise MonitorError(
                f"variant {artifact.variant_id} failed init: {meta.get('reason')}"
            )
        # Verify the installation evidence: a fresh quote whose report
        # data binds the post-exec extension register.
        from repro.tee.attestation import Quote

        evidence = Quote.from_bytes(bytes.fromhex(meta["evidence"]))
        try:
            report = self.verifier.verify(
                evidence,
                expected_report_data=meta["extension_register"].encode(),
                require_trusted_measurement=False,
            )
        except AttestationError as exc:
            raise MonitorError(
                f"variant {artifact.variant_id} installation evidence invalid: {exc}"
            ) from exc
        if report.enclave_id != host.enclave.enclave_id:
            raise MonitorError("installation evidence from wrong enclave")
        self.ledger.append(
            variant_id=artifact.variant_id,
            partition_index=partition_index,
            enclave_id=host.enclave.enclave_id,
            measurement=host.enclave.measurement,
            channel_id=channel_id,
            event=event,
        )
        self.connections.setdefault(partition_index, []).append(connection)
        if event != "init":
            # Replacements/scale-ups change the variant set mid-flight:
            # audit-worthy in a way initial provisioning is not.
            self._audit(
                KIND_VARIANT_REPLACED,
                variant=artifact.variant_id,
                partition=partition_index,
                enclave=host.enclave.enclave_id,
                event=event,
            )

    def bind_variant(
        self, partition_index: int, artifact, host: VariantHost, *, event: str = "restart"
    ) -> VariantConnection:
        """Attest, key and bind one variant placed after provisioning.

        Updates, scale-ups, worker restarts and heals all reach it
        through :func:`repro.mvx.updates.place_and_bind`: the full
        Figure-6 bootstrap (fresh enclave, fresh RA-TLS channel, fresh
        installation evidence).  A variant coming back must have its old
        binding retired first -- fork-attack prevention rejects a second
        live binding of one variant id.  Returns the new connection.
        """
        self._bootstrap_variant(partition_index, artifact, host, event)
        return self.connections[partition_index][-1]

    def report_worker_crash(
        self, variant_id: str, *, error: str, batch_id: int = -1
    ) -> None:
        """Record an out-of-band variant process death as a crash.

        The supervisor calls this when a worker dies *between* requests
        (heartbeat detection): no in-flight round trip will surface the
        failure, but the deployment still lost a TEE.  Marks the host
        crashed, emits the crash event/metric and captures the forensic
        incident (the error string carries the worker pid/exit code).
        ``batch_id=-1`` marks a detection outside any batch.
        """
        for index, connections in self.connections.items():
            for connection in connections:
                if connection.variant_id != variant_id:
                    continue
                connection.host.mark_crashed(str(error))
                self._record_crash(batch_id, index, connection, error)
                return
        # Variant already dropped from the connection table: keep the
        # forensic trail anyway.
        self._capture_incident(
            build_incident_report(
                incident_id=self.incident_store.new_id(),
                kind="crash",
                batch_id=batch_id,
                partition_index=-1,
                suspected_culprits=(variant_id,),
                agreeing_variants=(),
                response_action=self.response_action.value,
                trace_id=self.tracer.trace_id(),
                span_id=self.tracer.current_span_id(),
                error=str(error),
            )
        )

    def quote(self, report_data: bytes):
        """The monitor's own attestation (used by RA-TLS and the owner)."""
        from repro.tee.attestation import make_quote

        return make_quote(self.enclave, report_data)

    # ------------------------------------------------------------------
    # Checkpoint execution
    # ------------------------------------------------------------------

    def stage_connections(self, index: int) -> list[VariantConnection]:
        """Live connections of one partition."""
        return [c for c in self.connections.get(index, []) if not c.host.crashed]

    def execute_stage(
        self,
        batch_id: int,
        index: int,
        feeds: dict[str, np.ndarray],
        deadline: float | None = None,
    ) -> dict[str, np.ndarray]:
        """Run one pipeline stage for one batch through its variants.

        Fast path: single variant, output falls through.  Slow path:
        replicate the input to all variants, synchronize at the
        checkpoint, evaluate consistency, vote, respond to dissent.
        Async mode: proceed on majority quorum, cross-validate laggards
        at the next checkpoint.  ``deadline`` (absolute
        :func:`time.monotonic`, None = unbounded) bounds every round
        trip the stage makes; past it the stage raises
        :class:`~repro.serving.errors.DeadlineExceeded`.
        """
        if self.config is None:
            raise MonitorError("no MVX configuration provisioned")
        self._resolve_deferred(deadline)
        connections = self.stage_connections(index)
        if not connections:
            raise MonitorError(f"no live variants remain for partition {index}")
        if not self.config.uses_slow_path(index) or len(connections) == 1:
            return self._fast_path(batch_id, index, connections, feeds, deadline)
        if self.config.execution_mode == "async" and len(connections) >= 3:
            return self._slow_path_async(batch_id, index, connections, feeds, deadline)
        outputs = self._dispatch(connections, batch_id, feeds, deadline)
        return self._evaluate_checkpoint(
            batch_id, index, connections, outputs, feeds, deadline
        )

    def _fast_path(self, batch_id, index, connections, feeds, deadline):
        connection = connections[0]
        (result,) = self._dispatch([connection], batch_id, feeds, deadline)
        if result.outputs is None:
            self._record_crash(batch_id, index, connection, result.error)
            raise MonitorError(
                f"fast-path variant {connection.variant_id} failed: {result.error}"
            )
        return result.outputs

    def _dispatch(self, connections, batch_id, feeds, deadline) -> list[VariantOutput]:
        """Send one request to every connection: the only round-trip path.

        Concurrent, results in connection order, one retry on a
        transient fault, ``DeadlineExceeded`` at ``deadline``.
        """
        return self._executor.dispatch(
            self, connections, batch_id, feeds, deadline=deadline
        )

    @contextmanager
    def _checkpoint(self, batch_id, index, mode, **attributes):
        """One checkpoint evaluation: span, counter and audit entry.

        The body adds its outcome fields to the yielded dict; they land
        on the ``checkpoint`` span and in the ``KIND_CHECKPOINT`` entry.
        A body that raises is neither counted nor audited.
        """
        outcome: dict = {}
        with self.tracer.span(
            "checkpoint", partition=index, batch=batch_id, mode=mode, **attributes
        ) as span:
            yield outcome
            for key, value in outcome.items():
                span.set_attribute(key, value)
        self.metrics_registry.counter(
            "mvtee_checkpoints_total", "Checkpoint consistency evaluations"
        ).inc(partition=index, mode=mode)
        self._audit(
            KIND_CHECKPOINT,
            batch=batch_id,
            partition=index,
            mode=mode,
            **attributes,
            **outcome,
        )

    def _vote(self, batch_id, index, outputs, *, mode, strategy) -> VoteResult:
        with self._checkpoint(batch_id, index, mode) as outcome:
            result = vote(outputs, policy=self.policy_for(index), strategy=strategy)
            outcome.update(
                passed=result.passed,
                dissenting=list(result.dissenting),
                crashed=list(result.crashed),
            )
        return result

    def _slow_path_async(self, batch_id, index, connections, feeds, deadline):
        # Query in ascending simulated latency: the quorum of fastest
        # variants decides; laggards are validated at the next checkpoint.
        ordered = sorted(connections, key=lambda c: c.host.simulated_latency)
        quorum = len(connections) // 2 + 1
        quorum_conns = ordered[:quorum]
        laggards = ordered[quorum:]
        early = self._dispatch(quorum_conns, batch_id, feeds, deadline)
        result = self._vote(
            batch_id, index, early, mode="async-quorum", strategy="majority"
        )
        if not result.passed:
            # No early consensus: fall back to full synchronization.
            late = self._dispatch(laggards, batch_id, feeds, deadline)
            return self._evaluate_checkpoint(
                batch_id, index, quorum_conns + laggards, early + late, feeds, deadline
            )
        self._handle_vote_outcome(
            batch_id, index, quorum_conns, result, async_stage=True, outputs=early
        )
        if laggards:
            with self._state_lock:
                self._deferred.append(
                    (batch_id, index, result.accepted, laggards, feeds)
                )
        return result.accepted

    def _resolve_deferred(self, deadline) -> None:
        """Cross-validate laggard results before the pipeline advances.

        "When results from delayed variants are received, and if any
        dissent is noted, we react to the execution at the earliest next
        checkpoint."  Checks whose round trips did not complete (a
        missed deadline) stay queued for the next checkpoint.
        """
        if not self._deferred:
            return
        with self._state_lock:
            pending = self._deferred
            self._deferred = []
        for position, (d_batch, d_index, accepted, laggards, feeds) in enumerate(pending):
            with self._checkpoint(d_batch, d_index, "deferred", laggards=len(laggards)):
                try:
                    results = self._dispatch(laggards, d_batch, feeds, deadline)
                except Exception:
                    with self._state_lock:
                        self._deferred[:0] = pending[position:]
                    raise
                for connection, result in zip(laggards, results):
                    if result.outputs is None:
                        self._record_crash(d_batch, d_index, connection, result.error)
                        self._respond(connection, d_batch, d_index)
                        continue
                    if not self.policy_for(d_index).consistent(accepted, result.outputs):
                        event = DivergenceEvent(
                            batch_id=d_batch,
                            partition_index=d_index,
                            dissenting_variants=(connection.variant_id,),
                            agreeing_variants=(),
                            detected_async=True,
                        )
                        with self._state_lock:
                            self.events.append(event)
                        self._record_divergence_metric(d_index)
                        self._capture_incident(
                            build_incident_report(
                                incident_id=self.incident_store.new_id(),
                                kind="divergence",
                                batch_id=d_batch,
                                partition_index=d_index,
                                suspected_culprits=(connection.variant_id,),
                                agreeing_variants=(),
                                outputs_by_variant={
                                    connection.variant_id: result.outputs
                                },
                                reference_outputs=accepted,
                                response_action=self.response_action.value,
                                detected_async=True,
                                trace_id=self.tracer.trace_id(),
                                span_id=self.tracer.current_span_id(),
                            )
                        )
                        self._respond(connection, d_batch, d_index)

    def request_inference(
        self,
        connection: VariantConnection,
        batch_id: int,
        feeds: dict,
        *,
        parent: Span | None = None,
    ) -> VariantOutput:
        """One monitor->variant round trip (spans + metrics included).

        The unit :meth:`_dispatch` fans out; it runs on dispatch pool
        threads, so its ``variant`` span attaches to ``parent`` (the
        dispatching thread's open span).  The span, counter and
        detection-state paths it touches are lock- or GIL-protected.
        """
        with self.tracer.span(
            "variant",
            parent=parent,
            variant=connection.variant_id,
            partition=connection.partition_index,
            batch=batch_id,
        ) as span:
            try:
                msg_type, meta, tensors = connection.request(
                    "infer", {"batch_id": batch_id}, feeds
                )
            except (VariantUnavailable, ChannelError) as exc:
                msg_type, meta = "error", {"reason": str(exc)}
            if msg_type == "result":
                result = VariantOutput(variant_id=connection.variant_id, outputs=tensors)
            else:
                result = VariantOutput(
                    variant_id=connection.variant_id,
                    outputs=None,
                    error=str(meta.get("reason", msg_type)),
                )
                span.record_error(result.error)
            span.set_attribute("bytes_protected", connection.channel.bytes_protected)
        self.metrics_registry.counter(
            "mvtee_variant_requests_total", "Monitor->variant inference round trips"
        ).inc(
            partition=connection.partition_index,
            outcome="ok" if result.outputs is not None else "error",
        )
        return result

    def _evaluate_checkpoint(
        self, batch_id, index, connections, outputs, feeds, deadline
    ) -> dict:
        result = self._vote(
            batch_id, index, outputs, mode="sync", strategy=self.config.voting
        )
        self._handle_vote_outcome(
            batch_id, index, connections, result, async_stage=False, outputs=outputs
        )
        if result.accepted is not None:
            return result.accepted
        if self.response_action is ResponseAction.RESTART_BATCH and result.agreeing:
            # Re-execute the stage on the surviving variants and re-vote:
            # the paper's "restart from a saved state" response.  The
            # dissenters were dropped by _handle_vote_outcome above.
            survivors = self.stage_connections(index)
            if survivors:
                retries = self._dispatch(survivors, batch_id, feeds, deadline)
                retry = vote(retries, policy=self.policy_for(index), strategy=self.config.voting)
                if retry.accepted is not None:
                    return retry.accepted
        elif self.response_action is not ResponseAction.HALT and result.agreeing:
            # Dissenters/crashes were dropped (or scheduled for replacement);
            # the surviving agreement cluster's output stands.
            by_id = {o.variant_id: o for o in outputs}
            return by_id[result.agreeing[0]].outputs
        raise MonitorError(
            f"checkpoint vote failed at batch {batch_id}, partition {index}: "
            f"dissent={list(result.dissenting)}, crashed={list(result.crashed)}"
        )

    def _handle_vote_outcome(
        self,
        batch_id,
        index,
        connections,
        result: VoteResult,
        *,
        async_stage: bool,
        outputs: list[VariantOutput] | None = None,
    ) -> None:
        by_id = {c.variant_id: c for c in connections}
        for variant_id in result.crashed:
            connection = by_id[variant_id]
            self._record_crash(batch_id, index, connection, connection.host.crash_reason)
        if result.dissenting:
            event = DivergenceEvent(
                batch_id=batch_id,
                partition_index=index,
                dissenting_variants=result.dissenting,
                agreeing_variants=result.agreeing,
                reports=result.reports,
                detected_async=async_stage,
            )
            with self._state_lock:
                self.events.append(event)
            self._record_divergence_metric(index)
            self._capture_divergence_incident(
                batch_id, index, result, outputs, async_stage=async_stage
            )
            for variant_id in result.dissenting:
                self._respond(by_id[variant_id], batch_id, index)
        for variant_id in result.crashed:
            self._respond(by_id[variant_id], batch_id, index)

    def _capture_divergence_incident(
        self,
        batch_id,
        index,
        result: VoteResult,
        outputs: list[VariantOutput] | None,
        *,
        async_stage: bool,
    ) -> None:
        """Build the forensic report for one dissenting checkpoint vote."""
        outputs_by_variant = {
            o.variant_id: o.outputs for o in (outputs or []) if o.outputs is not None
        }
        reference = None
        if result.agreeing:
            reference = outputs_by_variant.get(result.agreeing[0])
        self._capture_incident(
            build_incident_report(
                incident_id=self.incident_store.new_id(),
                kind="divergence",
                batch_id=batch_id,
                partition_index=index,
                suspected_culprits=result.dissenting,
                agreeing_variants=result.agreeing,
                outputs_by_variant=outputs_by_variant,
                reference_outputs=reference,
                consistency_reports=result.reports,
                response_action=self.response_action.value,
                detected_async=async_stage,
                trace_id=self.tracer.trace_id(),
                span_id=self.tracer.current_span_id(),
            )
        )

    def _record_divergence_metric(self, index: int) -> None:
        self.metrics_registry.counter(
            "mvtee_divergences_total", "Divergence detections"
        ).inc(partition=index)

    def _record_crash(self, batch_id, index, connection, error) -> None:
        with self._state_lock:
            self.events.append(
                CrashEvent(
                    batch_id=batch_id,
                    partition_index=index,
                    variant_id=connection.variant_id,
                    error=str(error),
                )
            )
        self.metrics_registry.counter(
            "mvtee_crashes_total", "Variant crash detections"
        ).inc(partition=index)
        survivors = [
            c.variant_id
            for c in self.stage_connections(index)
            if c.variant_id != connection.variant_id
        ]
        self._capture_incident(
            build_incident_report(
                incident_id=self.incident_store.new_id(),
                kind="crash",
                batch_id=batch_id,
                partition_index=index,
                suspected_culprits=(connection.variant_id,),
                agreeing_variants=tuple(survivors),
                response_action=self.response_action.value,
                trace_id=self.tracer.trace_id(),
                span_id=self.tracer.current_span_id(),
                error=str(error),
            )
        )

    def _respond(self, connection: VariantConnection, batch_id: int, index: int) -> None:
        """Apply the configured protective measure to a bad variant."""
        self._audit(
            KIND_RESPONSE,
            action=self.response_action.value,
            variant=connection.variant_id,
            batch=batch_id,
            partition=index,
        )
        if self.response_action is ResponseAction.HALT:
            return  # the raised MonitorError at the vote halts execution
        # DROP_VARIANT / RESTART_BATCH / REPLACE_VARIANT all unbind it.
        self.metrics_registry.counter(
            "mvtee_recovery_actions_total", "Protective responses applied"
        ).inc(action=self.response_action.value)
        self._unbind(connection)

    def _unbind(self, connection: VariantConnection) -> None:
        """Terminate one variant's TEE, log its retirement, drop its route.

        Every retirement comes through here (protective responses,
        updates, scale-down, restarts), so the transport drops the
        variant's route and host here too -- in process mode that also
        stops the variant's live worker.
        """
        connection.host.terminate()
        if self.transport is not None:
            self.transport.unregister(connection.variant_id)
        index = connection.partition_index
        self.ledger.append(
            variant_id=connection.variant_id,
            partition_index=index,
            enclave_id=connection.host.enclave.enclave_id,
            measurement=connection.measurement,
            channel_id=connection.channel.channel_id,
            event="retire",
        )
        with self._state_lock:
            self.connections[index] = [
                c for c in self.connections.get(index, []) if c is not connection
            ]

    def retire_variant(self, variant_id: str) -> None:
        """Terminate and unbind one variant (scale-down / operator action)."""
        for connections in list(self.connections.values()):
            for connection in connections:
                if connection.variant_id == variant_id:
                    self._unbind(connection)
                    self._audit(
                        KIND_VARIANT_REPLACED,
                        variant=variant_id,
                        partition=connection.partition_index,
                        enclave=connection.host.enclave.enclave_id,
                        event="retire",
                    )
                    return
        raise MonitorError(f"no bound variant {variant_id!r} to retire")

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def divergence_events(self) -> list[DivergenceEvent]:
        """All recorded divergence detections."""
        with self._state_lock:
            events = list(self.events)
        return [e for e in events if isinstance(e, DivergenceEvent)]

    def crash_events(self) -> list[CrashEvent]:
        """All recorded variant crashes."""
        with self._state_lock:
            events = list(self.events)
        return [e for e in events if isinstance(e, CrashEvent)]
