"""Chaos campaigns: seeded fault schedules against a live deployment.

:class:`ChaosCampaign` drives the whole loop the ROADMAP's open item
asks for -- *continuous chaos + attack campaigns against the serving
stack, with an asserted SLO floor*:

1. **Plan** -- a seeded RNG fixes every choice (which injector, which
   victim variant, which probe payloads, in which order) up front, so
   the same seed against the same deployment replays the identical
   injection plan.  The plan is JSON; replay identity is testable as
   plain equality.
2. **Baseline** -- clean-system reference outputs for the benign feed
   and for every crafted probe are computed *before* anything is
   injected; they are the ground truth that makes "silent corruption"
   a judgment rather than a guess.
3. **Drive** -- an :class:`~repro.serving.OpenLoopLoadGenerator` offers
   paced traffic for the campaign's whole duration.  One injection is
   in flight at a time: settle, inject, observe a window (incidents,
   traffic outcomes, probes, health evaluations, heartbeat peaks),
   restore, heal, wait for p99 recovery, verify the audit chain.
4. **Judge** -- each window becomes an
   :class:`~repro.chaos.verdict.InjectionVerdict` via the pure
   :func:`~repro.chaos.verdict.judge`; the
   :class:`~repro.chaos.report.CampaignReport` aggregates them and
   asserts the floor.

The campaign *requires* a protective response action: under
``ResponseAction.HALT`` the first detection would stop the deployment,
which is the opposite of what a continuous campaign measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.chaos.injectors import ChaosInjector, InjectionError, InjectionTarget
from repro.chaos.report import CampaignReport, register_chaos_metrics
from repro.chaos.verdict import (
    OUTCOME_ERROR,
    InjectionVerdict,
    ProbeResult,
    WindowObservation,
    judge,
)
from repro.mvx.events import ResponseAction
from repro.observability.health import HealthMonitor, default_rules
from repro.observability.recorder import (
    KIND_CHAOS_INJECTED,
    KIND_CHAOS_RESTORED,
    AuditChainError,
)
from repro.serving.loadgen import OpenLoopLoadGenerator

__all__ = ["ChaosCampaign", "PlannedInjection"]


@dataclass(frozen=True)
class PlannedInjection:
    """One resolved step of a campaign plan (pure data, replayable)."""

    index: int
    name: str
    fault_class: str
    params: dict

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "fault_class": self.fault_class,
            "params": self.params,
        }


def _outputs_close(
    result: dict, reference: dict, *, rtol: float = 1e-2, atol: float = 1e-3
) -> bool:
    """Served outputs match the clean-system reference (all tensors)."""
    if set(result) != set(reference):
        return False
    return all(
        np.allclose(result[name], reference[name], rtol=rtol, atol=atol)
        for name in reference
    )


class ChaosCampaign:
    """One seeded pass of a chaos roster over a live serving deployment."""

    def __init__(
        self,
        system,
        engine,
        roster: list[ChaosInjector],
        *,
        benign_feeds: dict,
        seed: int = 0,
        window_s: float = 1.0,
        settle_s: float = 0.4,
        recovery_timeout_s: float = 8.0,
        rate_rps: float = 40.0,
        deadline_s: float = 2.0,
        p99_budget_factor: float = 4.0,
        p99_floor_s: float = 0.25,
        probes_per_window: int | None = None,
    ):
        if system.monitor.response_action is ResponseAction.HALT:
            raise ValueError(
                "chaos campaigns require a protective response action "
                "(DROP_VARIANT / RESTART_BATCH / REPLACE_VARIANT); under HALT "
                "the first detection would stop the deployment"
            )
        self.system = system
        self.engine = engine
        self.roster = list(roster)
        self.benign_feeds = {k: np.array(v, copy=True) for k, v in benign_feeds.items()}
        self.seed = int(seed)
        self.window_s = window_s
        self.settle_s = settle_s
        self.recovery_timeout_s = recovery_timeout_s
        self.rate_rps = rate_rps
        self.deadline_s = deadline_s
        self.p99_budget_factor = p99_budget_factor
        self.p99_floor_s = p99_floor_s
        self.probes_per_window = probes_per_window
        self.registry = engine.registry
        self.recorder = engine.recorder
        self.target = InjectionTarget(
            system=system, engine=engine, benign_feeds=self.benign_feeds
        )
        self._plan: list[PlannedInjection] | None = None
        self._planned_injectors: list[ChaosInjector] = []
        register_chaos_metrics(self.registry)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self) -> list[PlannedInjection]:
        """Resolve the roster against the deployment, seeded; cached.

        Unsupported injectors (e.g. worker faults against an in-process
        deployment) are skipped; the survivors run in a seeded
        permutation.  Every random choice any injector makes is drawn
        from this one generator, so plan JSON equality *is* replay
        identity.
        """
        if self._plan is not None:
            return self._plan
        rng = np.random.default_rng(self.seed)
        supported = [i for i in self.roster if i.supported(self.target)]
        order = [int(k) for k in rng.permutation(len(supported))]
        plan: list[PlannedInjection] = []
        self._planned_injectors = []
        for step, roster_index in enumerate(order):
            injector = supported[roster_index]
            params = injector.resolve(self.target, rng)
            self._planned_injectors.append(injector)
            plan.append(
                PlannedInjection(
                    index=step,
                    name=injector.name,
                    fault_class=injector.fault_class,
                    params=params,
                )
            )
        self._plan = plan
        return plan

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self) -> CampaignReport:
        """Execute the plan under load and return the aggregated report."""
        plan = self.plan()
        started_wall = time.monotonic()
        baseline_roster = self.target.live()
        benign_reference = self.system.infer(
            {k: np.array(v, copy=True) for k, v in self.benign_feeds.items()}
        )
        # Probe ground truth comes from the *clean* system: a crafted
        # payload is only dangerous once its CVE is armed, so the clean
        # deployment yields the honest expected output.
        probe_references: dict[int, list[dict]] = {}
        for step, injector in zip(plan, self._planned_injectors):
            references = []
            for feeds in injector.probes(self.target):
                references.append(
                    self.system.infer({k: np.array(v, copy=True) for k, v in feeds.items()})
                )
            probe_references[step.index] = references

        # ``start()`` is idempotent while running; only stop at the end
        # if the engine was not already serving when the campaign began.
        engine_started_here = not any(
            worker.is_alive() for worker in self.engine._workers.values()
        )
        self.engine.start()
        health = HealthMonitor(
            self.registry,
            default_rules(),
            window_s=max(4.0, 4 * self.window_s),
            recorder=self.recorder,
        )
        loadgen = OpenLoopLoadGenerator(
            self.engine,
            lambda seq: {k: np.array(v, copy=True) for k, v in self.benign_feeds.items()},
            rate_rps=self.rate_rps,
            deadline_s=self.deadline_s,
            expect=lambda result: _outputs_close(result, benign_reference),
        )
        verdicts: list[InjectionVerdict] = []
        baseline_p99 = None
        try:
            loadgen.start()
            baseline_p99 = self._warm_up(loadgen)
            budget = max(
                self.p99_floor_s, self.p99_budget_factor * (baseline_p99 or 0.0)
            )
            for step, injector in zip(plan, self._planned_injectors):
                verdicts.append(
                    self._run_injection(
                        step,
                        injector,
                        loadgen,
                        health,
                        baseline_roster,
                        baseline_p99=baseline_p99 or 0.0,
                        recovery_budget_s=budget,
                        probe_references=probe_references.get(step.index, []),
                    )
                )
        finally:
            loadgen.stop()
            if engine_started_here:
                self.engine.stop()
        traffic = loadgen.report()
        for verdict in verdicts:
            self.registry.counter(
                "mvtee_chaos_verdicts_total", "Chaos injection verdicts by outcome"
            ).inc(outcome=verdict.outcome)
            if verdict.recovery_s is not None:
                self.registry.histogram(
                    "mvtee_chaos_recovery_seconds",
                    "Seconds from fault restore to p99 back under budget",
                ).observe(verdict.recovery_s)
        return CampaignReport(
            seed=self.seed,
            plan=[p.to_json() for p in plan],
            verdicts=verdicts,
            baseline_p99_s=baseline_p99,
            traffic=traffic,
            wall_s=time.monotonic() - started_wall,
        )

    # ------------------------------------------------------------------
    # One injection
    # ------------------------------------------------------------------

    def _run_injection(
        self,
        step: PlannedInjection,
        injector: ChaosInjector,
        loadgen: OpenLoopLoadGenerator,
        health: HealthMonitor,
        baseline_roster: list,
        *,
        baseline_p99: float,
        recovery_budget_s: float,
        probe_references: list[dict],
    ) -> InjectionVerdict:
        self._settle(loadgen)
        incidents_before = len(self.system.monitor.incidents())
        window_mark = loadgen.mark()
        health_path = [health.evaluate().status.value]
        if self.recorder is not None:
            self.recorder.record(
                KIND_CHAOS_INJECTED,
                injection=step.index,
                name=step.name,
                fault_class=step.fault_class,
                targets=list(injector.targets),
            )
        self.registry.counter(
            "mvtee_chaos_injections_total", "Chaos injections applied by fault class"
        ).inc(fault_class=step.fault_class)

        probe_feeds = injector.probes(self.target)
        if self.probes_per_window is not None:
            probe_feeds = probe_feeds[: self.probes_per_window]
            probe_references = probe_references[: self.probes_per_window]

        try:
            injector.inject(self.target)
        except InjectionError as exc:
            return self._error_verdict(step, injector, str(exc))

        heartbeat_peak = None
        probes: list[ProbeResult] = []
        try:
            heartbeat_peak, health_path = self._observe_window(
                injector, health, health_path, probe_feeds, probe_references, probes
            )
        finally:
            injector.restore(self.target)
            if self.recorder is not None:
                self.recorder.record(
                    KIND_CHAOS_RESTORED, injection=step.index, name=step.name
                )

        self._heal(baseline_roster)
        recovered, recovery_s = self._wait_recovery(loadgen, recovery_budget_s)
        health_path.append(health.evaluate().status.value)

        chain_ok, chain_error = True, ""
        if self.recorder is not None:
            try:
                self.recorder.verify_chain()
            except AuditChainError as exc:
                chain_ok, chain_error = False, str(exc)

        observation = WindowObservation(
            incidents=self.system.monitor.incidents()[incidents_before:],
            counts=loadgen.counts_since(window_mark),
            probes=probes,
            health_path=health_path,
            heartbeat_peak_s=heartbeat_peak,
            chain_ok=chain_ok,
            chain_error=chain_error,
            recovered=recovered,
            recovery_s=recovery_s,
            recovery_budget_s=recovery_budget_s,
            telemetry={
                "window_p99_s": loadgen.p99_since(window_mark),
                "baseline_p99_s": baseline_p99,
            },
        )
        return judge(step.name, step.fault_class, injector, observation)

    def _observe_window(
        self,
        injector: ChaosInjector,
        health: HealthMonitor,
        health_path: list,
        probe_feeds: list,
        probe_references: list,
        probes: list,
    ):
        """Tick through the injection window, firing probes mid-window."""
        heartbeat_peak: float | None = None
        deadline = time.monotonic() + self.window_s
        probe_at = []
        if probe_feeds:
            # Space probes through the window, first one early.
            stride = self.window_s / (len(probe_feeds) + 1)
            probe_at = [
                time.monotonic() + stride * (i + 1) for i in range(len(probe_feeds))
            ]
        fired = 0
        last_health = time.monotonic()
        while time.monotonic() < deadline:
            now = time.monotonic()
            for vid in injector.targets:
                age = self.target.heartbeat_age(vid)
                if age is not None:
                    heartbeat_peak = age if heartbeat_peak is None else max(heartbeat_peak, age)
            if now - last_health >= 0.2:
                health_path.append(health.evaluate().status.value)
                last_health = now
            while fired < len(probe_at) and now >= probe_at[fired]:
                reference = (
                    probe_references[fired] if fired < len(probe_references) else None
                )
                probes.append(self._fire_probe(probe_feeds[fired], reference))
                fired = fired + 1
            time.sleep(0.05)
        # Any probes the window ran out of time for still count.
        while fired < len(probe_feeds):
            reference = probe_references[fired] if fired < len(probe_references) else None
            probes.append(self._fire_probe(probe_feeds[fired], reference))
            fired += 1
        return heartbeat_peak, health_path

    def _fire_probe(self, feeds: dict, reference: dict | None) -> ProbeResult:
        """One crafted request through the engine, judged vs. its reference."""
        try:
            ticket = self.engine.submit(
                {k: np.array(v, copy=True) for k, v in feeds.items()},
                deadline_s=self.deadline_s,
            )
            result = ticket.result(self.deadline_s + 2.0)
        except Exception as exc:  # a ServingError, a ticket wait timeout...
            return ProbeResult(
                kind="malicious", completed=False, corrupted=None, error=str(exc)
            )
        corrupted = None
        if reference is not None:
            corrupted = not _outputs_close(result, reference)
        return ProbeResult(kind="malicious", completed=True, corrupted=corrupted)

    # ------------------------------------------------------------------
    # Settle / heal / recover
    # ------------------------------------------------------------------

    def _settle(self, loadgen: OpenLoopLoadGenerator) -> None:
        time.sleep(self.settle_s)

    def _warm_up(self, loadgen: OpenLoopLoadGenerator) -> float | None:
        """Wait for enough clean samples to establish the baseline p99."""
        deadline = time.monotonic() + max(4.0, self.recovery_timeout_s)
        mark = 0
        while time.monotonic() < deadline:
            ok = loadgen.samples_since(mark, outcome="ok")
            if len(ok) >= 20:
                return loadgen.p99_since(mark)
            time.sleep(0.05)
        return loadgen.p99_since(mark)

    def _heal(self, baseline_roster: list) -> None:
        """Re-provision every variant the protective response dropped.

        DROP_VARIANT retires the binding permanently (by design: the
        paper's response drops the outvoted variant).  A *campaign*
        needs the deployment back at full strength before the next
        injection, so this is the operator's re-provision step
        (:meth:`MvteeSystem.reprovision`).
        """
        missing = [entry for entry in baseline_roster if entry not in self.target.live()]
        for index, vid in missing:
            try:
                self.system.reprovision(index, vid)
            except KeyError:
                pass  # no slot or artifact left to re-provision from
        cluster = self.target.cluster
        if missing:
            deadline = time.monotonic() + self.recovery_timeout_s
            while time.monotonic() < deadline:
                if all(entry in self.target.live() for entry in baseline_roster):
                    return
                if cluster is not None:
                    cluster.poll()
                time.sleep(0.05)

    def _wait_recovery(
        self, loadgen: OpenLoopLoadGenerator, budget_s: float
    ) -> tuple[bool, float | None]:
        """Poll the rolling p99 until it is back under budget.

        Recovery means the *recent* tail (last ~15 ok samples since the
        restore) is under ``budget_s`` -- the fault's own window samples
        must not poison the measurement.
        """
        started = time.monotonic()
        mark = loadgen.mark()
        deadline = started + self.recovery_timeout_s
        while time.monotonic() < deadline:
            ok = loadgen.samples_since(mark, outcome="ok")
            if len(ok) >= 10:
                p99 = loadgen.p99_since(mark, last=15)
                if p99 is not None and p99 <= budget_s:
                    return True, time.monotonic() - started
            time.sleep(0.05)
        return False, None

    def _error_verdict(
        self, step: PlannedInjection, injector: ChaosInjector, reason: str
    ) -> InjectionVerdict:
        return InjectionVerdict(
            name=step.name,
            fault_class=step.fault_class,
            targets=tuple(injector.targets),
            outcome=OUTCOME_ERROR,
            detected=False,
            masked=False,
            culprit_correct=None,
            silent_corruptions=0,
            incident_ids=(),
            incident_kinds=(),
            counts={},
            health_path=(),
            chain_ok=True,
            recovered=False,
            recovery_s=None,
            recovery_budget_s=None,
            detail=reason,
        )
