"""The concurrent serving engine and the parallel stage executor."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.mvx import (
    ExecutionMode,
    InferenceOptions,
    MonitorError,
    MvteeSystem,
    ResponseAction,
)
from repro.mvx.voting import VariantOutput
from repro.mvx.wire import encode_message
from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import KIND_ENGINE_ERROR, FlightRecorder
from repro.observability.sinks import Sinks
from repro.observability.tracing import NullTracer
from repro.runtime.faults import FaultInjector
from repro.serving import (
    DeadlineExceeded,
    EngineStopped,
    Overloaded,
    ParallelStageExecutor,
    ServingEngine,
    ServingPolicy,
    TicketState,
    open_loop_burst,
    settle_burst,
)

SERVING_METRIC_NAMES = (
    "mvtee_queue_depth",
    "mvtee_queue_wait_seconds",
    "mvtee_batch_size",
    "mvtee_requests_shed_total",
    "mvtee_requests_timeout_total",
)


@pytest.fixture()
def system(small_resnet):
    deployed = MvteeSystem.deploy(
        small_resnet,
        num_partitions=3,
        mvx_partitions={1: 3},
        seed=0,
        verify_partitions=False,
        verify_variants=False,
    )
    deployed.monitor.response_action = ResponseAction.DROP_VARIANT
    return deployed


def feeds_for(seed: int):
    return {
        "input": np.random.default_rng(seed)
        .normal(size=(1, 3, 16, 16))
        .astype(np.float32)
    }


class TestServingEngine:
    def test_serves_and_matches_reference(self, system, small_resnet_reference):
        with system.serving_engine() as engine:
            tickets = [engine.submit(feeds_for(0)) for _ in range(3)]
            results = [t.result(timeout=30.0) for t in tickets]
        name = next(iter(small_resnet_reference))
        for result in results:
            assert np.allclose(result[name], small_resnet_reference[name], atol=1e-2)
        assert all(t.state is TicketState.DONE for t in tickets)

    def test_burst_is_shed_with_overloaded(self, system):
        engine = system.serving_engine(policy=ServingPolicy(capacity=4))
        # Not started: the queue fills deterministically, like a stalled worker.
        tickets, report = open_loop_burst(engine, [feeds_for(i) for i in range(20)])
        assert report.shed == 16
        assert len(tickets) == 4
        assert engine.queue_depth == 4  # bounded, not 20
        shed = engine.registry.counter("mvtee_requests_shed_total").total()
        assert shed == 16
        engine.start()
        settle_burst(tickets, report, timeout=30.0)
        engine.stop()
        assert report.completed == 4
        assert report.shed_rate == pytest.approx(16 / 20)

    def test_queued_past_deadline_times_out_without_executing(self, system):
        engine = system.serving_engine()
        ticket = engine.submit(feeds_for(0), deadline_s=0.001)
        time.sleep(0.01)  # expire while no worker is running
        engine.start()
        with pytest.raises(DeadlineExceeded):
            ticket.result(timeout=30.0)
        engine.stop()
        assert ticket.state is TicketState.TIMED_OUT
        assert engine.registry.counter("mvtee_requests_timeout_total").total() == 1

    def test_detection_fails_the_batch(self, system):
        system.monitor.response_action = ResponseAction.HALT
        victim = system.monitor.stage_connections(1)[0]
        FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)
        with system.serving_engine() as engine:
            ticket = engine.submit(feeds_for(1))
            with pytest.raises(MonitorError):
                ticket.result(timeout=30.0)
        assert ticket.state is TicketState.FAILED
        assert engine.registry.counter("mvtee_requests_failed_total").total() == 1

    def test_submit_after_stop_raises(self, system):
        engine = system.serving_engine().start()
        engine.stop()
        with pytest.raises(EngineStopped):
            engine.submit(feeds_for(0))

    def test_malformed_feeds_rejected_at_submit(self, system):
        with system.serving_engine() as engine:
            with pytest.raises(ValueError):
                engine.submit({"wrong": np.zeros((1,), dtype=np.float32)})
        assert engine.queue_depth == 0  # never occupied a slot

    def test_stop_drains_admitted_requests(self, system):
        engine = system.serving_engine()
        tickets = [engine.submit(feeds_for(i)) for i in range(3)]
        engine.start()
        engine.stop()  # close + drain + join
        assert all(t.state is TicketState.DONE for t in tickets)

    def test_all_serving_metrics_exposed(self, system):
        engine = system.serving_engine(policy=ServingPolicy(capacity=2))
        # Exercise every instrument: a served request, a shed burst, a timeout.
        expired = engine.submit(feeds_for(0), deadline_s=0.0)
        ok = engine.submit(feeds_for(1))
        with pytest.raises(Overloaded):
            engine.submit(feeds_for(2))
        engine.start()
        assert ok.result(timeout=30.0)
        with pytest.raises(DeadlineExceeded):
            expired.result(timeout=30.0)
        engine.stop()
        exposition = engine.render_prometheus()
        for name in SERVING_METRIC_NAMES:
            assert name in exposition, f"{name} missing from exposition"
        assert "mvtee_requests_served_total 1" in exposition
        assert "mvtee_requests_shed_total 1" in exposition
        assert "mvtee_requests_timeout_total 1" in exposition

    def test_concurrent_submitters(self, system):
        with system.serving_engine(
            policy=ServingPolicy(capacity=128, max_batch_size=8)
        ) as engine:
            tickets: list = []
            lock = threading.Lock()

            def client(seed):
                for i in range(5):
                    ticket = engine.submit(feeds_for(seed * 10 + i))
                    with lock:
                        tickets.append(ticket)

            threads = [threading.Thread(target=client, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for ticket in tickets:
                ticket.result(timeout=30.0)
        assert len(tickets) == 20
        assert all(t.state is TicketState.DONE for t in tickets)


class _ProxySystem:
    """Duck-typed system wrapper: a real deployment behind a hook."""

    def __init__(self, system):
        self._system = system
        self.monitor = system.monitor

    def infer_batches(self, batches, options=None):
        return self._system.infer_batches(batches, options)


class _GatedSystem(_ProxySystem):
    """Rendezvous inside infer_batches: proves batches truly overlap."""

    def __init__(self, system, parties):
        super().__init__(system)
        self.barrier = threading.Barrier(parties)
        self.engine = None
        self.inflight_seen: list[float] = []
        self._lock = threading.Lock()

    def infer_batches(self, batches, options=None):
        # Blocks until `parties` batches are simultaneously in flight;
        # with fewer engine workers than parties this times out and the
        # batch fails, so a passing test is proof of overlap.
        self.barrier.wait(timeout=10.0)
        if self.engine is not None:
            with self._lock:
                self.inflight_seen.append(
                    self.engine.registry.gauge("mvtee_inflight_batches").value()
                )
        return super().infer_batches(batches, options)


class _BlockingSystem(_ProxySystem):
    """Holds every batch until released (a wedged pipeline stand-in)."""

    def __init__(self, system):
        super().__init__(system)
        self.entered = threading.Event()
        self.release = threading.Event()

    def infer_batches(self, batches, options=None):
        self.entered.set()
        assert self.release.wait(timeout=30.0)
        return super().infer_batches(batches, options)


def flaky_dispatch(monitor):
    """Make the monitor's dispatch raise an unexpected error once."""
    real = monitor._dispatch
    fired = []

    def dispatch(connections, batch_id, feeds, deadline):
        if not fired:
            fired.append(True)
            raise RuntimeError("injected dispatch fault")
        return real(connections, batch_id, feeds, deadline)

    return dispatch


class TestInflightOverlap:
    def test_num_workers_overlap_batches(self, system):
        gated = _GatedSystem(system, parties=2)
        engine = ServingEngine(
            gated, policy=ServingPolicy(max_batch_size=1, num_workers=2)
        )
        gated.engine = engine
        tickets = [engine.submit(feeds_for(i)) for i in range(2)]
        engine.start()
        for ticket in tickets:
            ticket.result(timeout=30.0)
        engine.stop()
        assert all(t.state is TicketState.DONE for t in tickets)
        # Both workers were inside infer_batches at the rendezvous.
        assert max(gated.inflight_seen) == 2

    def test_ordered_equivalence_across_worker_counts(self, system):
        inputs = [feeds_for(i) for i in range(12)]

        def serve(num_workers):
            policy = ServingPolicy(
                capacity=64, max_batch_size=2, num_workers=num_workers
            )
            with system.serving_engine(policy=policy) as engine:
                tickets = [engine.submit(dict(feeds)) for feeds in inputs]
                return [t.result(timeout=60.0) for t in tickets]

        serial = serve(1)
        overlapped = serve(4)
        assert len(serial) == len(overlapped) == len(inputs)
        for reference, result in zip(serial, overlapped):
            assert set(reference) == set(result)
            for name in reference:
                # Bit-identical per ticket, not merely close: overlap
                # must not change what any caller receives.
                assert np.array_equal(reference[name], result[name])

    def test_inflight_metrics_preregistered(self, system):
        engine = system.serving_engine()
        exposition = engine.render_prometheus()
        assert "mvtee_inflight_batches" in exposition
        assert "mvtee_batch_queue_stall_seconds" in exposition


class TestWorkerFaultContainment:
    def test_unexpected_error_fails_batch_but_worker_survives(
        self, system, monkeypatch
    ):
        recorder = FlightRecorder()
        engine = system.serving_engine(
            policy=ServingPolicy(max_batch_size=8, num_workers=1),
            sinks=Sinks(recorder=recorder),
        )
        monkeypatch.setattr(system.monitor, "_dispatch", flaky_dispatch(system.monitor))
        with engine:
            doomed = engine.submit(feeds_for(0))
            with pytest.raises(RuntimeError, match="injected dispatch fault"):
                doomed.result(timeout=30.0)
            assert doomed.state is TicketState.FAILED
            # The worker thread survived the unexpected error and the
            # very next batch serves normally.
            healthy = engine.submit(feeds_for(1))
            assert healthy.result(timeout=30.0)
        assert healthy.state is TicketState.DONE
        assert engine.registry.counter("mvtee_requests_failed_total").total() == 1
        events = recorder.events(KIND_ENGINE_ERROR)
        assert len(events) == 1
        assert events[0].data["error"] == "RuntimeError"

    def test_deadline_applies_to_single_variant_stage(self, system):
        # Partition 0 is single-variant: before routing the fast path
        # through the dispatch pool its stage ignored the batch deadline.
        for connection in system.monitor.stage_connections(0):
            connection.host.simulated_latency = 0.2
            connection.host.realtime_latency = True
        with system.serving_engine() as engine:
            ticket = engine.submit(feeds_for(0), deadline_s=0.05)
            with pytest.raises(DeadlineExceeded):
                ticket.result(timeout=30.0)
        assert ticket.state is TicketState.TIMED_OUT


class TestStopLifecycle:
    def test_stop_without_start_fails_queued_tickets(self, system):
        engine = system.serving_engine()
        tickets = [engine.submit(feeds_for(i)) for i in range(3)]
        engine.stop()
        for ticket in tickets:
            with pytest.raises(EngineStopped):
                ticket.result(timeout=1.0)
        assert all(t.state is TicketState.FAILED for t in tickets)
        assert engine.registry.counter("mvtee_requests_failed_total").total() == 3

    def test_stop_join_timeout_keeps_worker_handle(self, system):
        blocking = _BlockingSystem(system)
        engine = ServingEngine(
            blocking, policy=ServingPolicy(max_batch_size=8, num_workers=1)
        )
        ticket = engine.submit(feeds_for(0))
        engine.start()
        assert blocking.entered.wait(timeout=10.0)
        engine.stop(timeout=0.05)  # worker is wedged inside the batch
        assert engine._workers, "wedged worker handle must be kept for re-join"
        blocking.release.set()
        assert ticket.result(timeout=30.0)
        engine.stop(timeout=10.0)
        assert not engine._workers
        assert ticket.state is TicketState.DONE


class _StubHost:
    def __init__(self, crashed=False):
        self.crashed = crashed


class _StubConnection:
    def __init__(self, variant_id, partition_index=1, crashed=False):
        self.variant_id = variant_id
        self.partition_index = partition_index
        self.host = _StubHost(crashed)


class _StubMonitor:
    """Duck-typed monitor: scripted per-variant outcomes, thread-safe log."""

    def __init__(self, scripts: dict[str, list], delay_s: float = 0.0):
        # scripts: variant_id -> list of outputs-or-None popped per call.
        self.scripts = scripts
        self.delay_s = delay_s
        self.metrics_registry = MetricsRegistry()
        self.tracer = NullTracer()
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def request_inference(self, connection, batch_id, feeds, *, parent=None):
        with self._lock:
            self.calls.append(connection.variant_id)
            outcome = self.scripts[connection.variant_id].pop(0)
        if self.delay_s:
            time.sleep(self.delay_s)
        if outcome is None:
            return VariantOutput(
                variant_id=connection.variant_id, outputs=None, error="transient glitch"
            )
        return VariantOutput(variant_id=connection.variant_id, outputs=outcome)


class TestParallelStageExecutor:
    def test_results_keep_connection_order(self):
        outputs = {v: {"t": np.full((1,), i, dtype=np.float32)} for i, v in enumerate("abc")}
        monitor = _StubMonitor({v: [outputs[v]] for v in "abc"})
        connections = [_StubConnection(v) for v in "abc"]
        with ParallelStageExecutor() as executor:
            results = executor.dispatch(monitor, connections, 0, {})
        assert [r.variant_id for r in results] == ["a", "b", "c"]

    def test_transient_fault_retried_once(self):
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good], "b": [None, good]})
        connections = [_StubConnection("a"), _StubConnection("b")]
        with ParallelStageExecutor() as executor:
            results = executor.dispatch(monitor, connections, 0, {})
        assert all(r.outputs is not None for r in results)
        assert monitor.calls.count("b") == 2  # failed once, retried once
        retries = monitor.metrics_registry.counter("mvtee_dispatch_retries_total")
        assert retries.total() == 1

    def test_crashed_host_not_retried(self):
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good], "b": [None]})
        connections = [_StubConnection("a"), _StubConnection("b", crashed=True)]
        with ParallelStageExecutor() as executor:
            results = executor.dispatch(monitor, connections, 0, {})
        assert results[1].outputs is None
        assert monitor.calls.count("b") == 1

    def test_deadline_enforced(self):
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good], "b": [good]}, delay_s=0.2)
        connections = [_StubConnection("a"), _StubConnection("b")]
        with ParallelStageExecutor() as executor:
            with pytest.raises(DeadlineExceeded):
                executor.dispatch(
                    monitor,
                    connections,
                    0,
                    {},
                    deadline=time.monotonic() + 0.02,
                )

    def test_single_connection_stays_serial(self):
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good]})
        with ParallelStageExecutor() as executor:
            results = executor.dispatch(monitor, [_StubConnection("a")], 0, {})
        assert results[0].outputs is not None

    def test_single_connection_deadline_enforced(self):
        # Regression: the 1-connection fast path used to bypass the
        # deadline entirely and run the slow variant to completion.
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good]}, delay_s=0.2)
        with ParallelStageExecutor() as executor:
            with pytest.raises(DeadlineExceeded):
                executor.dispatch(
                    monitor,
                    [_StubConnection("a")],
                    0,
                    {},
                    deadline=time.monotonic() + 0.02,
                )

    def test_dispatcher_threads_run_concurrently(self, system):
        # Three replicas sleeping 30ms each: the serial floor is 90ms; a
        # plain infer fans them out, so its wall clock lands under it.
        for connection in system.monitor.stage_connections(1):
            connection.host.simulated_latency = 0.03
            connection.host.realtime_latency = True
        system.infer(feeds_for(0))  # warm the shared pool's threads
        start = time.monotonic()
        system.infer(feeds_for(0))
        assert time.monotonic() - start < 0.09


def slow_from_call(host, call: int, sleep_s: float) -> None:
    """From its ``call``-th inference on, ``host`` sleeps before answering."""
    real = host._handle_infer
    calls = []

    def handle_infer(meta, tensors):
        calls.append(meta)
        if len(calls) >= call:
            time.sleep(sleep_s)
        return real(meta, tensors)

    host._handle_infer = handle_infer


def fail_once_then_slow(host, sleep_s: float) -> None:
    """``host`` answers its first inference with a typed error (a
    transient fault: the host stays alive), then sleeps before each
    later answer."""
    real = host._handle_infer
    calls = []

    def handle_infer(meta, tensors):
        calls.append(meta)
        if len(calls) == 1:
            return encode_message("error", {"reason": "transient glitch"})
        time.sleep(sleep_s)
        return real(meta, tensors)

    host._handle_infer = handle_infer


class TestDispatchDeadlines:
    """Every round trip of a stage honours the batch deadline: a 1 s
    replica stall must surface as DeadlineExceeded well before 1 s."""

    DEADLINE_S = 0.2
    STALL_S = 1.0
    LIMIT_S = 0.6

    def run_until_deadline(self, system, **options):
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            system.infer(
                feeds_for(0),
                InferenceOptions(deadline=start + self.DEADLINE_S, **options),
            )
        return time.monotonic() - start

    def test_deferred_laggard_check_honours_deadline(self, system):
        # The slow replica is the async laggard: the quorum answers, and
        # the deferred check at the next stage meets the stall.
        laggard = system.monitor.stage_connections(1)[2].host
        laggard.simulated_latency = self.STALL_S
        laggard.realtime_latency = True
        elapsed = self.run_until_deadline(system, mode=ExecutionMode.ASYNC)
        assert elapsed < self.LIMIT_S
        assert system.monitor._deferred, "the unchecked laggard stays queued"

    def test_restart_batch_retry_honours_deadline(self, system):
        system.monitor.response_action = ResponseAction.RESTART_BATCH
        victim, *survivors = system.monitor.stage_connections(1)
        FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)
        # The survivors answer the first round in time and stall on the
        # re-execution that follows the dissent.
        for connection in survivors:
            slow_from_call(connection.host, 2, self.STALL_S)
        elapsed = self.run_until_deadline(system)
        assert elapsed < self.LIMIT_S
        assert system.monitor.divergence_events()

    def test_async_quorum_retry_honours_deadline(self, system):
        # A quorum member fails transiently, and its retry stalls.
        member = system.monitor.stage_connections(1)[0].host
        fail_once_then_slow(member, self.STALL_S)
        elapsed = self.run_until_deadline(system, mode=ExecutionMode.ASYNC)
        assert elapsed < self.LIMIT_S
        retries = system.monitor.metrics_registry.counter(
            "mvtee_dispatch_retries_total"
        )
        assert retries.value(partition=1) >= 1


class TestServingPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0},
            {"capacity": -1},
            {"max_batch_size": 0},
            {"max_wait_s": -0.001},
            {"num_workers": -1},
            {"num_workers": 0},
        ],
    )
    def test_rejects_out_of_range_fields(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            ServingPolicy(**kwargs)

    def test_boundary_values_accepted(self):
        policy = ServingPolicy(
            capacity=1, max_batch_size=1, max_wait_s=0.0, num_workers=1,
        )
        assert policy.capacity == 1


class TestResizeAndQuiesce:
    def test_resize_up_spawns_workers_and_updates_gauge(self, system):
        engine = system.serving_engine(
            policy=ServingPolicy(num_workers=1)
        ).start()
        try:
            assert engine.num_workers == 1
            engine.resize(3)
            assert engine.num_workers == 3
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                alive = sum(w.is_alive() for w in engine._workers.values())
                if alive == 3:
                    break
                time.sleep(0.01)
            assert sum(w.is_alive() for w in engine._workers.values()) == 3
            assert engine.registry.gauge("mvtee_engine_workers").value() == 3
            assert engine.submit(feeds_for(0)).result(timeout=30.0)
        finally:
            engine.stop()

    def test_resize_down_retires_extra_workers(self, system):
        engine = system.serving_engine(
            policy=ServingPolicy(num_workers=3)
        ).start()
        try:
            engine.resize(1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                alive = sum(w.is_alive() for w in engine._workers.values())
                if alive == 1:
                    break
                time.sleep(0.01)
            assert sum(w.is_alive() for w in engine._workers.values()) == 1
            # The surviving worker still serves.
            assert engine.submit(feeds_for(1)).result(timeout=30.0)
        finally:
            engine.stop()

    def test_resize_validates_and_refuses_after_stop(self, system):
        engine = system.serving_engine()
        with pytest.raises(ValueError, match="num_workers"):
            engine.resize(0)
        engine.stop()
        with pytest.raises(EngineStopped):
            engine.resize(2)

    def test_quiesce_drains_inflight_and_holds_admission_open(self, system):
        engine = system.serving_engine(
            policy=ServingPolicy(max_batch_size=1, num_workers=2)
        ).start()
        try:
            before = engine.submit(feeds_for(0))
            assert before.result(timeout=30.0)
            with engine.quiesce(timeout=30.0):
                # Nothing is in flight; submissions queue but do not run.
                queued = engine.submit(feeds_for(1))
                time.sleep(0.15)
                assert not queued.done()
                assert engine.queue_depth >= 1
            # Released: the queued request now executes normally.
            assert queued.result(timeout=30.0)
            assert queued.state is TicketState.DONE
        finally:
            engine.stop()

    def test_quiesce_times_out_when_batch_is_wedged(self, system):
        blocking = _BlockingSystem(system)
        engine = ServingEngine(
            blocking, policy=ServingPolicy(max_batch_size=8, num_workers=1)
        )
        ticket = engine.submit(feeds_for(0))
        engine.start()
        try:
            assert blocking.entered.wait(timeout=10.0)
            with pytest.raises(TimeoutError, match="quiesce"):
                with engine.quiesce(timeout=0.1):
                    pass
            blocking.release.set()
            assert ticket.result(timeout=30.0)
            # The failed quiesce left the engine unpaused.
            assert engine.submit(feeds_for(1)).result(timeout=30.0)
        finally:
            engine.stop()

    def test_stop_wakes_a_paused_engine_and_drains(self, system):
        engine = system.serving_engine(
            policy=ServingPolicy(num_workers=2)
        ).start()
        with engine.quiesce(timeout=10.0):
            pending = engine.submit(feeds_for(0))
            # Stop overrides the pause: workers wake, drain the admitted
            # request, and exit -- nothing deadlocks, nothing is lost.
            engine.stop(timeout=10.0)
        assert not engine._workers
        assert pending.state is TicketState.DONE
