"""Chaos injectors: every attack and infrastructure fault as a revertible unit.

An injector is an idempotent *inject / restore* pair against a live
:class:`InjectionTarget` (a deployed system plus its serving engine).
``restore`` is guaranteed-safe: it tolerates variants that were dropped
or workers that were restarted mid-window (a freshly re-bootstrapped
incarnation is clean by construction, so there is nothing to undo), and
calling it twice is a no-op.  Used as a context manager, restore runs
even when the window raises.

One control seam for both execution modes: :meth:`InjectionTarget.control`
returns the variant's :class:`~repro.mvx.variant_host.VariantControl` --
its live worker process, else its bound in-process host -- and every
runtime fault travels as a wire-safe spec
(:func:`repro.runtime.faults.apply_fault_spec`) through
``inject_fault``.  A worker runs the spec through the same
:class:`~repro.mvx.variant_host.VariantHost` method inside the child
(its runtime is a forked copy the parent cannot reach).  Only the
process-level faults -- SIGKILL, SIGSTOP and shared-memory starvation --
address the worker itself.

Detection modes (consumed by :mod:`repro.chaos.verdict`):

- ``incident`` -- the monitor must raise a divergence/crash incident
  naming the attacked variant (CVE payloads, FrameFlip, weight flips,
  worker kill);
- ``telemetry`` -- no voting surface; the fault must show in the SLO
  telemetry instead (heartbeat age for a wedged worker, latency for a
  slowloris'd variant, service continuity for an shm outage);
- ``direct`` -- the defense mechanism itself returns the verdict
  (rollback freshness check, fork-attack binding rejection).
"""

from __future__ import annotations

import itertools
import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.cves import MALICIOUS_MARKER, CveCase, craft_malicious_input
from repro.attacks.storage import ForkAttack, RollbackAttack
from repro.crypto.keys import KeyManager
from repro.crypto.sealed import seal_bytes
from repro.mvx.variant_host import VariantControl, VariantUnavailable
from repro.tee.filesystem import MonotonicCounterService, ProtectedFs

__all__ = [
    "ChaosInjector",
    "CveInjector",
    "ForkInjector",
    "FrameFlipInjector",
    "InjectionError",
    "InjectionTarget",
    "RollbackInjector",
    "ShmStarvationInjector",
    "SlowVariantInjector",
    "WeightFlipInjector",
    "WorkerKillInjector",
    "WorkerWedgeInjector",
]

#: Partitions need at least this many replicas for voting to mask a
#: single corrupted variant (majority of the survivors must be clean).
MASKABLE_REPLICAS = 3


class InjectionError(Exception):
    """An injection could not be applied (target gone, spec rejected)."""


@dataclass
class InjectionTarget:
    """The live deployment a campaign attacks: system + serving engine."""

    system: object  # MvteeSystem
    engine: object  # ServingEngine
    #: Template feeds for crafting probes (set by the campaign).
    benign_feeds: dict | None = None

    @property
    def monitor(self):
        return self.system.monitor

    @property
    def cluster(self):
        return getattr(self.system, "cluster", None)

    # -- roster ---------------------------------------------------------

    def live(self) -> list[tuple[int, str]]:
        """(partition, variant_id) of every bound connection, sorted."""
        return sorted(
            (index, connection.variant_id)
            for index, connections in self.monitor.connections.items()
            for connection in connections
        )

    def replicated(self, min_variants: int = MASKABLE_REPLICAS) -> list[tuple[int, str]]:
        """Live variants in partitions replicated enough to mask a loss."""
        return [
            (index, vid)
            for index, vid in self.live()
            if len(self.monitor.connections.get(index, [])) >= min_variants
        ]

    def connection(self, variant_id: str):
        for connections in self.monitor.connections.values():
            for connection in connections:
                if connection.variant_id == variant_id:
                    return connection
        return None

    def runtime(self, variant_id: str):
        """The bound host's runtime (the parent-side copy in process mode)."""
        connection = self.connection(variant_id)
        return connection.host.runtime if connection is not None else None

    def worker(self, variant_id: str):
        """The live worker process of one variant (None in-process/down)."""
        cluster = self.cluster
        if cluster is None:
            return None
        worker = cluster.worker(variant_id)
        if worker is not None and worker.is_alive():
            return worker
        return None

    # -- fault routing --------------------------------------------------

    def control(self, variant_id: str) -> VariantControl | None:
        """The variant's control seam: its live worker, else its bound host."""
        worker = self.worker(variant_id)
        if worker is not None:
            return worker
        connection = self.connection(variant_id)
        return connection.host if connection is not None else None

    def apply_spec(self, variant_id: str, spec: dict) -> bool:
        """Apply one fault spec wherever the variant's runtime lives.

        Returns True when applied; False when the variant is gone or
        rejected the spec (restore paths treat that as "nothing left to
        undo").
        """
        control = self.control(variant_id)
        if control is None:
            return False
        try:
            control.inject_fault(spec)
        except VariantUnavailable:
            return False
        return True

    def heartbeat_age(self, variant_id: str) -> float | None:
        """The supervisor's heartbeat-age gauge for one variant."""
        cluster = self.cluster
        if cluster is None:
            return None
        gauge = cluster._registry.gauge(
            "mvtee_worker_heartbeat_age_seconds",
            "Seconds since each worker's last successful round trip",
        )
        return float(gauge.value(variant=variant_id))


@dataclass
class ChaosInjector:
    """Base injector: resolve (plan-time), inject, restore, judge hooks."""

    name = "chaos"
    fault_class = "generic"
    detection = "incident"
    #: Set by :meth:`resolve`; the variants culprit attribution must name.
    targets: list[str] = field(default_factory=list)

    def supported(self, target: InjectionTarget) -> bool:
        """Whether this injector can run against this deployment."""
        return True

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        """Fix all randomness at plan time; returns JSON-able plan params.

        Called exactly once per campaign plan; the returned params (and
        :attr:`targets`) must be a pure function of the deployment state
        and ``rng`` draws, so the same seed replays the same plan.
        """
        return {}

    def inject(self, target: InjectionTarget) -> None:
        raise NotImplementedError

    def restore(self, target: InjectionTarget) -> None:
        raise NotImplementedError

    def probes(self, target: InjectionTarget) -> list[dict]:
        """Crafted feeds to fire during the window (e.g. CVE payloads)."""
        return []

    def __enter__(self):
        if getattr(self, "_ctx_target", None) is None:
            raise RuntimeError("use injector.on(target) as the context manager")
        self.inject(self._ctx_target)
        return self

    def __exit__(self, *exc) -> None:
        target, self._ctx_target = self._ctx_target, None
        self.restore(target)

    def on(self, target: InjectionTarget) -> "ChaosInjector":
        """Bind a target for ``with`` use: ``with injector.on(target): ...``."""
        self._ctx_target = target
        return self


def _pick(rng: np.random.Generator, candidates: list):
    """One deterministic draw from an ordered candidate list."""
    if not candidates:
        return None
    return candidates[int(rng.integers(len(candidates)))]


@dataclass
class _VictimInjector(ChaosInjector):
    """An injector aimed at one variant drawn at plan time.

    ``inject`` applies the fault through the victim's
    :class:`~repro.mvx.variant_host.VariantControl` and remembers its
    incarnation; ``restore`` reverts only that same incarnation -- a
    variant re-bootstrapped mid-window is clean by construction.
    """

    def __post_init__(self):
        self._victim: tuple[int, str] | None = None
        self._incarnation = None

    def candidates(self, target: InjectionTarget) -> list[tuple[int, str]]:
        """The ordered (partition, variant) pool the victim is drawn from."""
        return target.replicated()

    def supported(self, target: InjectionTarget) -> bool:
        return bool(self.candidates(target))

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self._victim = _pick(rng, self.candidates(target))
        self.targets = [self._victim[1]] if self._victim else []
        return {
            "victim": list(self._victim) if self._victim else None,
            **self._params(target, rng),
        }

    def _params(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        """Further plan params, drawn after the victim."""
        return {}

    def _apply(self, control: VariantControl) -> None:
        raise NotImplementedError

    def _revert(self, control: VariantControl) -> None:
        raise NotImplementedError

    def inject(self, target: InjectionTarget) -> None:
        control = target.control(self._victim[1]) if self._victim else None
        if control is None:
            raise InjectionError(f"{self.name}: no reachable victim ({self._victim})")
        try:
            self._apply(control)
        except VariantUnavailable as exc:
            raise InjectionError(f"{self.name}: {exc}") from exc
        self._incarnation = control.incarnation

    def restore(self, target: InjectionTarget) -> None:
        incarnation, self._incarnation = self._incarnation, None
        if incarnation is None:
            return
        control = target.control(self._victim[1])
        if control is not None and control.incarnation == incarnation:
            try:
                self._revert(control)
            except VariantUnavailable:
                pass  # died mid-window; its successor starts clean


# ----------------------------------------------------------------------
# Attack adapters (repro.attacks under live load)
# ----------------------------------------------------------------------


@dataclass
class CveInjector(ChaosInjector):
    """Arm one Table-1 CVE on a minority of each replicated partition.

    At most ``max_armed_per_partition`` affected variants per partition
    are armed (one exploit hits one victim process at a time -- and a
    majority-armed partition would out-vote the clean variant, which is
    the homogeneous-replication failure mode, not a diversification
    test).  Crafted probes carrying the malicious marker are fired
    through the serving engine during the window.
    """

    case: CveCase = None
    max_armed_per_partition: int = 1
    partitions: tuple[int, ...] | None = None
    num_probes: int = 2

    name = "cve"
    fault_class = "cve"
    detection = "incident"

    def __post_init__(self):
        if self.case is None:
            raise ValueError("CveInjector requires a CveCase")
        self.name = f"cve:{self.case.cve_id}"
        self._plan_armed: list[tuple[int, str]] = []
        self._live_armed: list[tuple[int, str]] = []
        self._probe_seeds: list[int] = []

    def _eligible(self, target: InjectionTarget) -> list[tuple[int, str]]:
        affected = [
            (index, vid)
            for index, vid in target.replicated()
            if (self.partitions is None or index in self.partitions)
            and target.runtime(vid) is not None
            and self.case.affects(target.runtime(vid))
        ]
        return [
            entry
            for _, group in itertools.groupby(affected, key=lambda entry: entry[0])
            for entry in list(group)[: self.max_armed_per_partition]
        ]

    def supported(self, target: InjectionTarget) -> bool:
        return bool(self._eligible(target))

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self._plan_armed = self._eligible(target)
        self.targets = [vid for _, vid in self._plan_armed]
        self._probe_seeds = [int(rng.integers(2**31)) for _ in range(self.num_probes)]
        return {
            "cve": self.case.cve_id,
            "op": self.case.vulnerable_op,
            "impact": self.case.impact.value,
            "crashes": self.case.crashes,
            "armed": [[index, vid] for index, vid in self._plan_armed],
            "probe_seeds": list(self._probe_seeds),
        }

    def inject(self, target: InjectionTarget) -> None:
        self._live_armed = []
        spec = self.case.to_fault_spec()
        for index, vid in self._plan_armed:
            if target.apply_spec(vid, spec):
                self._live_armed.append((index, vid))
        if not self._live_armed:
            raise InjectionError(
                f"{self.name}: no armable variant left (planned {self._plan_armed})"
            )

    def restore(self, target: InjectionTarget) -> None:
        spec = self.case.disarm_spec()
        for _, vid in self._live_armed:
            # A restarted worker is clean already; op-clear is a no-op there.
            target.apply_spec(vid, spec)
        self._live_armed = []

    def probes(self, target: InjectionTarget) -> list[dict]:
        if target.benign_feeds is None:
            return []
        keys = sorted(target.benign_feeds)
        crafted = []
        for seed in self._probe_seeds:
            feeds = {k: np.array(v, copy=True) for k, v in target.benign_feeds.items()}
            first = keys[0]
            feeds[first] = craft_malicious_input(feeds[first].shape, seed=seed)
            crafted.append(feeds)
        return crafted


@dataclass
class FrameFlipInjector(_VictimInjector):
    """Library bit-flip in one victim variant's BLAS backend.

    The FrameFlip attack flips a bit in library code mapped into one
    victim process; here the corrupted backend is armed in exactly one
    variant of a replicated partition, chosen at plan time.  Persistent:
    plain benign traffic diverges at the next checkpoint.
    """

    bit: int = 30
    flat_index: int = 0

    name = "frameflip"
    fault_class = "frameflip"
    detection = "incident"

    def _params(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        runtime = target.runtime(self._victim[1]) if self._victim else None
        return {
            "backend": runtime.config.blas_backend if runtime is not None else None,
            "bit": self.bit,
            "index": self.flat_index,
        }

    def _apply(self, control: VariantControl) -> None:
        control.inject_fault(
            {"kind": "backend-bitflip", "bit": self.bit, "index": self.flat_index}
        )

    def _revert(self, control: VariantControl) -> None:
        control.inject_fault({"kind": "backend-clear"})


def _float_weights(runtime) -> list[str]:
    """Sorted names of a runtime's non-empty float32 initializers."""
    model = runtime.model if runtime is not None else None
    if model is None:
        return []
    return sorted(
        name
        for name, arr in model.initializers.items()
        if arr.dtype == np.float32 and arr.size
    )


@dataclass
class WeightFlipInjector(_VictimInjector):
    """Rowhammer-style bit flips in one variant's loaded weights.

    The flip plan (tensor, flat index) is computed at plan time from the
    parent-side model copy and applied as a fault spec, so it reaches a
    forked worker's own memory.  XOR is involutive: restore re-applies
    the identical spec to the same incarnation.
    """

    num_flips: int = 3
    bit: int = 30

    name = "weight-flip"
    fault_class = "weight-flip"
    detection = "incident"

    def __post_init__(self):
        super().__post_init__()
        self._flips: list[tuple[str, int]] = []

    def candidates(self, target: InjectionTarget) -> list[tuple[int, str]]:
        return [
            (index, vid)
            for index, vid in target.replicated()
            if _float_weights(target.runtime(vid))
        ]

    def _params(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self._flips = []
        if self._victim is None:
            return {}
        runtime = target.runtime(self._victim[1])
        names = _float_weights(runtime)
        for _ in range(self.num_flips):
            tensor = names[int(rng.integers(len(names)))]
            index = int(rng.integers(runtime.model.initializers[tensor].size))
            self._flips.append((tensor, index))
        return {"flips": [[t, i] for t, i in self._flips], "bit": self.bit}

    def _apply(self, control: VariantControl) -> None:
        control.inject_fault(
            {
                "kind": "weight-flips",
                "flips": [[t, i] for t, i in self._flips],
                "bit": self.bit,
            }
        )

    _revert = _apply


@dataclass
class SlowVariantInjector(_VictimInjector):
    """Slowloris one variant: add real wall-clock latency to its stage.

    Every batch crossing the victim's partition waits on it, so the
    trace's window p99 rises by roughly the added latency.  Restore
    reconfigures the original latency attributes.
    """

    added_latency_s: float = 0.08
    #: Window p99 must exceed baseline by this fraction of the added
    #: latency for the fault to count as telemetry-detected.
    visibility: float = 0.5

    name = "slow-variant"
    fault_class = "slow-variant"
    detection = "telemetry"

    def _params(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        return {"added_latency_s": self.added_latency_s}

    def _apply(self, control: VariantControl) -> None:
        self._previous = control.configure(
            simulated_latency=self.added_latency_s, realtime_latency=True
        )

    def _revert(self, control: VariantControl) -> None:
        control.configure(**self._previous)

    def telemetry_verdict(self, observation) -> tuple[bool, bool | None, str]:
        window_p99 = observation.telemetry.get("window_p99_s")
        baseline_p99 = observation.telemetry.get("baseline_p99_s") or 0.0
        timeouts = int(observation.counts.get("timeout", 0))
        visible = (
            window_p99 is not None
            and window_p99 >= baseline_p99 + self.visibility * self.added_latency_s
        )
        detected = visible or timeouts > 0
        detail = (
            f"window p99 {window_p99 if window_p99 is not None else float('nan'):.3f}s "
            f"vs baseline {baseline_p99:.3f}s (+{self.added_latency_s:.3f}s injected)"
        )
        return detected, None, detail


# ----------------------------------------------------------------------
# Infrastructure faults (cluster layer)
# ----------------------------------------------------------------------


@dataclass
class _WorkerSignalInjector(_VictimInjector):
    """Signal one victim's worker process (cluster mode only)."""

    signum = None

    def __post_init__(self):
        super().__post_init__()
        self._pid: int | None = None

    def candidates(self, target: InjectionTarget) -> list[tuple[int, str]]:
        return [
            (index, vid)
            for index, vid in target.replicated()
            if target.worker(vid) is not None
        ]

    def inject(self, target: InjectionTarget) -> None:
        worker = target.worker(self._victim[1]) if self._victim else None
        if worker is None or worker.pid is None:
            raise InjectionError(
                f"{self.name}: no running victim worker ({self._victim})"
            )
        self._pid = worker.pid
        os.kill(self._pid, self.signum)


@dataclass
class WorkerKillInjector(_WorkerSignalInjector):
    """SIGKILL one variant's worker process (cluster mode only).

    Restore waits for the supervisor to refill the slot (budgeted
    restart with full re-attestation); the crash incident must name the
    killed variant and p99 must recover within the restart budget.
    """

    wait_s: float = 6.0

    name = "worker-kill"
    fault_class = "worker-kill"
    detection = "incident"
    signum = signal.SIGKILL

    def restore(self, target: InjectionTarget) -> None:
        """Wait for the supervised restart to land (nothing to revert)."""
        if self._victim is None or target.cluster is None:
            return
        deadline = time.monotonic() + self.wait_s
        vid = self._victim[1]
        while time.monotonic() < deadline:
            worker = target.worker(vid)
            if (
                worker is not None
                and worker.pid != self._pid
                and target.connection(vid) is not None
            ):
                return
            time.sleep(0.05)


@dataclass
class WorkerWedgeInjector(_WorkerSignalInjector):
    """SIGSTOP one worker so heartbeats stall (restore sends SIGCONT).

    The wedged worker stays "alive" to the supervisor (no restart), so
    detection is telemetry: the per-variant heartbeat-age gauge climbs
    and in-flight batches over that variant miss their deadlines.
    """

    #: Heartbeat age that counts as "the gauge named the culprit".
    stall_threshold_s: float = 0.5

    name = "worker-wedge"
    fault_class = "worker-wedge"
    detection = "telemetry"
    signum = signal.SIGSTOP

    def restore(self, target: InjectionTarget) -> None:
        pid, self._pid = self._pid, None
        if pid is not None:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass

    def telemetry_verdict(self, observation) -> tuple[bool, bool | None, str]:
        peak = observation.heartbeat_peak_s or 0.0
        timeouts = int(observation.counts.get("timeout", 0))
        stalled = peak >= self.stall_threshold_s
        detected = stalled or timeouts > 0
        # The heartbeat gauge is labeled per variant: a stalled reading
        # *is* culprit attribution.
        culprit = True if stalled else None
        detail = f"heartbeat peak {peak:.2f}s, {timeouts} timeouts in window"
        return detected, culprit, detail


@dataclass
class ShmStarvationInjector(ChaosInjector):
    """Transient shared-memory outage: force the inline pipe fallback.

    Raising every worker handle's parent-side ``shm_threshold`` makes
    request tensors travel inline instead of through ``/dev/shm`` -- the
    degradation an exhausted shm namespace causes.  The expected verdict
    is *masked*: service continues uncorrupted on the fallback path.
    """

    starved_threshold: int = 1 << 62

    name = "shm-starvation"
    fault_class = "shm-starvation"
    detection = "telemetry"

    def __post_init__(self):
        self._previous: dict[str, int] = {}

    def supported(self, target: InjectionTarget) -> bool:
        return target.cluster is not None

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self.targets = []
        return {"starved_threshold": self.starved_threshold}

    def inject(self, target: InjectionTarget) -> None:
        cluster = target.cluster
        if cluster is None:
            raise InjectionError(f"{self.name}: requires a process cluster")
        self._previous = {}
        for vid, worker in cluster.workers().items():
            self._previous[vid] = worker.shm_threshold
            worker.shm_threshold = self.starved_threshold
        if not self._previous:
            raise InjectionError(f"{self.name}: no live workers to starve")

    def restore(self, target: InjectionTarget) -> None:
        cluster = target.cluster
        if cluster is None:
            return
        workers = cluster.workers()
        for vid, threshold in self._previous.items():
            worker = workers.get(vid)
            if worker is not None:
                worker.shm_threshold = threshold
        self._previous = {}

    def telemetry_verdict(self, observation) -> tuple[bool, bool | None, str]:
        ok = int(observation.counts.get("ok", 0))
        corrupt = int(observation.counts.get("corrupt", 0))
        detected = ok > 0 and corrupt == 0
        detail = f"inline fallback served {ok} requests during shm outage"
        return detected, None, detail


# ----------------------------------------------------------------------
# Storage / identity attacks
# ----------------------------------------------------------------------


@dataclass
class RollbackInjector(ChaosInjector):
    """Sealed-storage rollback against a self-contained protected fs.

    Runs the capture-and-revert attack while serving traffic flows; the
    freshness check (monotonic counters) must reject the stale blob.
    Self-contained state, so restore has nothing to undo.
    """

    name = "storage-rollback"
    fault_class = "storage"
    detection = "direct"

    def __post_init__(self):
        self.direct_detected = False
        self.direct_detail = ""
        self._seed = 0

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self._seed = int(rng.integers(2**31))
        self.targets = []
        return {"seed": self._seed}

    def inject(self, target: InjectionTarget) -> None:
        record = KeyManager().create_key(f"chaos-rollback-{self._seed}")
        fs = ProtectedFs(
            kdk=record.key,
            key_id=f"chaos-rollback-{self._seed}",
            counters=MonotonicCounterService(),
        )
        path = "model.enc"
        fs.write(seal_bytes(record, path, b"weights-v1", freshness=1))
        attack = RollbackAttack(path=path)
        attack.capture(fs)
        fs.write(seal_bytes(record, path, b"weights-v2", freshness=2))
        self.direct_detected = bool(attack.launch(fs))
        self.direct_detail = (
            "stale sealed blob rejected by freshness check"
            if self.direct_detected
            else "stale sealed blob silently accepted"
        )

    def restore(self, target: InjectionTarget) -> None:
        pass  # self-contained fs; nothing leaked into the deployment


@dataclass
class ForkInjector(ChaosInjector):
    """Bind a clone TEE of an already-bound variant (must be rejected)."""

    name = "storage-fork"
    fault_class = "storage"
    detection = "direct"

    def __post_init__(self):
        self.direct_detected = False
        self.direct_detail = ""
        self._victim: tuple[int, str] | None = None
        self._attack: ForkAttack | None = None

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self._victim = _pick(rng, target.live())
        self.targets = []
        return {"victim": list(self._victim) if self._victim else None}

    def inject(self, target: InjectionTarget) -> None:
        if self._victim is None:
            raise InjectionError(f"{self.name}: no bound variant to clone")
        index, vid = self._victim
        artifact = target.system.pool.artifact(index, vid)
        if artifact is None:
            raise InjectionError(f"{self.name}: artifact for {vid} not in pool")
        self._attack = ForkAttack(artifact=artifact)
        self.direct_detected = bool(
            self._attack.launch(
                target.monitor, target.system.orchestrator._pick_cpu()
            )
        )
        self.direct_detail = (
            f"clone binding of {vid} rejected"
            if self.direct_detected
            else f"clone of {vid} got bound"
        )

    def restore(self, target: InjectionTarget) -> None:
        if self._attack is not None and self._attack.clone is not None:
            try:
                self._attack.clone.terminate()
            except Exception:
                pass
            self._attack = None
