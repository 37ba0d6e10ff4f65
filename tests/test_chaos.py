"""Chaos harness: verdict semantics, seeded plans, revertible injectors,
and a live mini-campaign with its SLO floor.

The verdict layer is pure (no deployment needed), so its taxonomy --
detected / masked / missed / silent-corruption -- is pinned down with
synthetic observations.  The live tests then prove the mechanics: plan
replay identity, injector restore really reverting state, and a short
in-process campaign holding the floor end to end.
"""

import time

import numpy as np
import pytest

from repro.attacks.cves import TABLE1_CVES
from repro.chaos import (
    OUTCOME_DETECTED,
    OUTCOME_ERROR,
    OUTCOME_MASKED,
    OUTCOME_MISSED,
    OUTCOME_SILENT_CORRUPTION,
    ChaosCampaign,
    CveInjector,
    ForkInjector,
    FrameFlipInjector,
    InjectionError,
    InjectionTarget,
    ProbeResult,
    RollbackInjector,
    SlowVariantInjector,
    WeightFlipInjector,
    WindowObservation,
    WorkerKillInjector,
    judge,
)
from repro.mvx import MonitorError, MvteeSystem, ResponseAction
from repro.serving.engine import ServingPolicy


def deploy(small_resnet, mvx, seed=0, response=ResponseAction.DROP_VARIANT):
    system = MvteeSystem.deploy(
        small_resnet,
        num_partitions=3,
        mvx_partitions=mvx,
        seed=seed,
        verify_partitions=False,
        verify_variants=False,
    )
    system.monitor.response_action = response
    return system


CORRUPTION_CVE = next(c for c in TABLE1_CVES if c.cve_id == "CVE-2022-41883")


class FakeIncident:
    def __init__(self, culprits, kind="divergence", incident_id="inc-1"):
        self.incident_id = incident_id
        self.kind = kind
        self.suspected_culprits = tuple(culprits)


class FakeInjector:
    detection = "incident"

    def __init__(self, targets=("v1",), detection=None):
        self.targets = list(targets)
        if detection is not None:
            self.detection = detection


CLEAN_COUNTS = {"ok": 20, "corrupt": 0, "failed": 0, "timeout": 0, "shed": 0}


class TestJudge:
    def test_masked_when_incident_names_target_and_service_clean(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(incidents=[FakeIncident(["v1"])], counts=dict(CLEAN_COUNTS)),
        )
        assert verdict.outcome == OUTCOME_MASKED
        assert verdict.culprit_correct is True
        assert verdict.passed

    def test_detected_but_not_masked_when_requests_failed(self):
        counts = dict(CLEAN_COUNTS, failed=2)
        verdict = judge(
            "kill", "worker-kill", FakeInjector(["v1"]),
            WindowObservation(incidents=[FakeIncident(["v1"], kind="crash")], counts=counts),
        )
        assert verdict.outcome == OUTCOME_DETECTED
        assert verdict.passed  # detected-with-impact still holds the floor

    def test_missed_when_no_incident(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(incidents=[], counts=dict(CLEAN_COUNTS)),
        )
        assert verdict.outcome == OUTCOME_MISSED
        assert not verdict.passed

    def test_silent_corruption_beats_detection(self):
        # One wrong answer served to a client fails the campaign even
        # though an incident fired: the voting layer exists precisely so
        # detection implies the served output stayed clean.
        counts = dict(CLEAN_COUNTS, corrupt=1)
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(incidents=[FakeIncident(["v1"])], counts=counts),
        )
        assert verdict.outcome == OUTCOME_SILENT_CORRUPTION
        assert not verdict.passed

    def test_corrupted_probe_is_silent_corruption(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(
                incidents=[FakeIncident(["v1"])],
                counts=dict(CLEAN_COUNTS),
                probes=[ProbeResult(kind="malicious", completed=True, corrupted=True)],
            ),
        )
        assert verdict.outcome == OUTCOME_SILENT_CORRUPTION

    def test_wrong_culprit_fails_even_when_detected(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(
                incidents=[FakeIncident(["innocent"])], counts=dict(CLEAN_COUNTS)
            ),
        )
        assert verdict.outcome == OUTCOME_MASKED  # detected, service clean
        assert verdict.culprit_correct is False
        assert not verdict.passed  # ...but attribution named only innocents

    def test_blown_recovery_budget_fails(self):
        verdict = judge(
            "kill", "worker-kill", FakeInjector(["v1"]),
            WindowObservation(
                incidents=[FakeIncident(["v1"], kind="crash")],
                counts=dict(CLEAN_COUNTS),
                recovered=False,
            ),
        )
        assert not verdict.passed

    def test_broken_audit_chain_fails(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(
                incidents=[FakeIncident(["v1"])],
                counts=dict(CLEAN_COUNTS),
                chain_ok=False,
                chain_error="digest mismatch",
            ),
        )
        assert not verdict.passed

    def test_telemetry_mode_uses_injector_verdict(self):
        class TelemetryInjector(FakeInjector):
            detection = "telemetry"

            def telemetry_verdict(self, observation):
                return True, True, "heartbeat stalled"

        verdict = judge(
            "wedge", "worker-wedge", TelemetryInjector(["v1"]),
            WindowObservation(counts=dict(CLEAN_COUNTS)),
        )
        assert verdict.outcome == OUTCOME_MASKED
        assert verdict.detail == "heartbeat stalled"

    def test_direct_mode_reads_attack_result(self):
        class DirectInjector(FakeInjector):
            detection = "direct"
            direct_detected = True
            direct_detail = "rollback rejected"

        verdict = judge(
            "rollback", "storage", DirectInjector([]),
            WindowObservation(counts=dict(CLEAN_COUNTS)),
        )
        assert verdict.outcome == OUTCOME_MASKED
        assert verdict.passed

    def test_verdict_json_round_trip_fields(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(incidents=[FakeIncident(["v1"])], counts=dict(CLEAN_COUNTS)),
        )
        doc = verdict.to_json()
        assert doc["outcome"] == OUTCOME_MASKED
        assert doc["passed"] is True
        assert doc["targets"] == ["v1"]


@pytest.fixture(scope="module")
def chaos_system(small_resnet):
    return deploy(small_resnet, {0: 3, 1: 3, 2: 3}, seed=1)


def roster():
    return [
        CveInjector(case=CORRUPTION_CVE),
        RollbackInjector(),
        ForkInjector(),
        SlowVariantInjector(added_latency_s=0.08),
    ]


class TestPlanning:
    def test_same_seed_same_plan(self, chaos_system, small_input):
        feeds = {"input": small_input}
        engine_a = chaos_system.serving_engine(policy=ServingPolicy(num_workers=2))
        engine_b = chaos_system.serving_engine(policy=ServingPolicy(num_workers=2))
        plan_a = ChaosCampaign(
            chaos_system, engine_a, roster(), benign_feeds=feeds, seed=99
        ).plan()
        plan_b = ChaosCampaign(
            chaos_system, engine_b, roster(), benign_feeds=feeds, seed=99
        ).plan()
        assert [p.to_json() for p in plan_a] == [p.to_json() for p in plan_b]
        assert len(plan_a) == 4

    def test_plan_is_cached(self, chaos_system, small_input):
        campaign = ChaosCampaign(
            chaos_system,
            chaos_system.serving_engine(),
            roster(),
            benign_feeds={"input": small_input},
            seed=5,
        )
        assert campaign.plan() is campaign.plan()

    def test_worker_faults_unsupported_in_process_are_skipped(
        self, chaos_system, small_input
    ):
        campaign = ChaosCampaign(
            chaos_system,
            chaos_system.serving_engine(),
            [WorkerKillInjector(), RollbackInjector()],
            benign_feeds={"input": small_input},
            seed=0,
        )
        names = [p.name for p in campaign.plan()]
        assert names == ["storage-rollback"]

    def test_halt_response_rejected(self, small_resnet, small_input):
        system = deploy(small_resnet, {1: 3}, seed=1, response=ResponseAction.HALT)
        with pytest.raises(ValueError, match="HALT"):
            ChaosCampaign(
                system,
                system.serving_engine(),
                roster(),
                benign_feeds={"input": small_input},
            )


class TestInjectorRestore:
    def test_cve_restore_reverts_to_clean_outputs(self, small_resnet, small_input):
        system = deploy(small_resnet, {0: 3, 1: 3, 2: 3}, seed=0)
        reference = system.infer({"input": np.array(small_input, copy=True)})
        engine = system.serving_engine()
        target = InjectionTarget(
            system=system, engine=engine, benign_feeds={"input": small_input}
        )
        injector = CveInjector(case=CORRUPTION_CVE)
        assert injector.supported(target)
        injector.resolve(target, np.random.default_rng(0))
        probe = injector.probes(target)[0]
        name = next(iter(reference))
        with injector.on(target):
            # Armed: the crafted probe diverges (and is detected).
            system.infer({k: np.array(v, copy=True) for k, v in probe.items()})
            assert system.monitor.incidents()
        # Restored: the same probe now computes cleanly on all variants.
        incidents_before = len(system.monitor.incidents())
        out = system.infer({k: np.array(v, copy=True) for k, v in probe.items()})
        assert len(system.monitor.incidents()) == incidents_before
        benign = system.infer({"input": np.array(small_input, copy=True)})
        assert np.allclose(benign[name], reference[name], rtol=1e-2, atol=1e-3)
        assert np.isfinite(out[name]).all()
        # Restore is idempotent.
        injector.restore(target)

    def test_slow_variant_restore_resets_latency(self, small_resnet, small_input):
        system = deploy(small_resnet, {1: 3}, seed=2)
        target = InjectionTarget(system=system, engine=system.serving_engine())
        injector = SlowVariantInjector(added_latency_s=0.05)
        injector.resolve(target, np.random.default_rng(3))
        victim = injector.targets[0]
        host = target.connection(victim).host
        assert host.simulated_latency == 0.0
        injector.inject(target)
        assert host.simulated_latency == 0.05 and host.realtime_latency
        injector.restore(target)
        assert host.simulated_latency == 0.0 and not host.realtime_latency
        injector.restore(target)  # idempotent
        assert host.simulated_latency == 0.0


@pytest.fixture(scope="module", params=["inprocess", "process"])
def parity_system(request, small_resnet):
    """One deployment per execution mode.  The replicated partition is
    the last, which holds the Gemm the corruption CVE targets; HALT
    keeps a dissenting victim bound, so restore has to revert it in
    place."""
    system = MvteeSystem.deploy(
        small_resnet,
        num_partitions=3,
        mvx_partitions={2: 3},
        seed=0,
        verify_partitions=False,
        verify_variants=False,
        execution=request.param,
    )
    yield system
    system.shutdown()


PARITY_INJECTORS = {
    "cve": lambda: CveInjector(case=CORRUPTION_CVE, num_probes=1),
    "frameflip": lambda: FrameFlipInjector(),
    "weight-flip": lambda: WeightFlipInjector(num_flips=3),
    "slow-variant": lambda: SlowVariantInjector(added_latency_s=0.3),
}


class TestInjectorParity:
    """Each injector has one effect and one revert, whether the victim
    runs in-process or in a forked worker."""

    @pytest.mark.parametrize("kind", sorted(PARITY_INJECTORS))
    def test_inject_then_restore(self, parity_system, small_input, kind):
        system = parity_system
        target = InjectionTarget(
            system=system,
            engine=system.serving_engine(),
            benign_feeds={"input": small_input},
        )
        injector = PARITY_INJECTORS[kind]()
        assert injector.supported(target)
        injector.resolve(target, np.random.default_rng(7))
        (victim,) = injector.targets
        feeds = injector.probes(target)[0] if kind == "cve" else {"input": small_input}

        def infer():
            return system.infer({k: np.array(v, copy=True) for k, v in feeds.items()})

        before = infer()
        incidents = len(system.monitor.incidents())
        injector.inject(target)
        try:
            if kind == "slow-variant":
                host = target.connection(victim).host
                assert host.simulated_latency == 0.3 and host.realtime_latency
                start = time.monotonic()
                infer()
                assert time.monotonic() - start >= 0.3
            else:
                with pytest.raises(MonitorError):
                    infer()  # unanimous vote under HALT
                named = [
                    i
                    for i in system.monitor.incidents()[incidents:]
                    if victim in i.suspected_culprits
                ]
                assert named and named[0].kind == "divergence"
        finally:
            injector.restore(target)
        # Still the same incarnation: restore reverted it in place.
        assert victim in [vid for _, vid in target.live()]
        host = target.connection(victim).host
        assert host.simulated_latency == 0.0 and not host.realtime_latency
        after = infer()
        assert set(after) == set(before)
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])


class TestLiveCampaign:
    def test_inprocess_campaign_holds_the_floor(self, small_resnet, small_input):
        system = deploy(small_resnet, {0: 3, 1: 3, 2: 3}, seed=1)
        engine = system.serving_engine(policy=ServingPolicy(num_workers=2))
        campaign = ChaosCampaign(
            system,
            engine,
            roster(),
            benign_feeds={"input": small_input},
            seed=42,
            window_s=1.0,
            settle_s=0.2,
            recovery_timeout_s=10.0,
            rate_rps=6.0,
            deadline_s=3.0,
        )
        report = campaign.run()
        assert report.passed, [v.to_json() for v in report.failures()]
        assert len(report.verdicts) == 4
        # The CVE must be *masked* with correct attribution, not merely
        # detected: voting kept every served output clean.
        cve = next(v for v in report.verdicts if v.fault_class == "cve")
        assert cve.outcome == OUTCOME_MASKED
        assert cve.culprit_correct is True
        assert cve.incident_kinds  # divergence incidents were raised
        # Zero corrupt samples anywhere in the campaign.
        assert report.traffic is not None
        per_class = report.per_class()
        assert all(row["silent-corruption"] == 0 for row in per_class.values())
        # Chaos metrics flowed.
        injections = engine.registry.counter(
            "mvtee_chaos_injections_total", "Chaos injections applied by fault class"
        )
        assert injections.total() == 4
        # The deployment is back at full strength for whoever runs next.
        assert len(system.live_variants()[1]) == 3

    def test_error_verdict_on_uninjectable_fault(self, small_resnet, small_input):
        system = deploy(small_resnet, {1: 3}, seed=3)
        engine = system.serving_engine(policy=ServingPolicy(num_workers=2))

        class BrokenInjector(RollbackInjector):
            def inject(self, target):
                raise InjectionError("nothing to attack")

        campaign = ChaosCampaign(
            system,
            engine,
            [BrokenInjector()],
            benign_feeds={"input": small_input},
            seed=0,
            window_s=0.3,
            settle_s=0.1,
            recovery_timeout_s=4.0,
            rate_rps=6.0,
        )
        report = campaign.run()
        assert report.verdicts[0].outcome == OUTCOME_ERROR
        assert not report.passed
