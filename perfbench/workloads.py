"""The benchmark's three workloads, driven through the public API.

Every workload deploys ``small-resnet`` (``blocks_per_stage=1``) in
three partitions with ``MvteeSystem.deploy`` (deployment seed 0, a
flight recorder installed), so the system under test is the same on
every run; ``--seed`` only draws the inputs.  Every response is checked
against the bare ``InterpreterRuntime`` output for the same input under
the deployment's consistency tolerance.  No replica latency is
injected: every number comes from real compute.

A run either measures the end-to-end metrics with no tracing wrapper
installed (``trace=False``) or produces the per-layer ledger
(``trace=True``): an untraced stretch for the tracing-overhead baseline,
then a traced stretch.  The open loop's traced stretch runs the rate
ladder that gives ``max_rate_rps``.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import median

from repro.graph.flops import graph_flops
from repro.mvx import MvteeSystem
from repro.observability import FlightRecorder, Sinks
from repro.serving import ServingPolicy
from repro.zoo import build_model

import ledger
import openloop
from measure import (
    LATENCY_LIMIT_S,
    Inputs,
    OutputChecker,
    beyond,
    percentile,
    self_peak_rss_mb,
    shutdown_clean,
    vm_hwm_mb,
    worker_pids,
)

#: Deployments per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Untimed requests between set-up and measurement.
WARMUP_REQUESTS = 2

#: Open-loop rate ladder: 2 rps times 1.5 per rung, up to the last rung.
LADDER_START_RPS = 2.0
LADDER_RATIO = 1.5
LADDER_RUNGS = 12
#: Phase 1 rate: the ladder's second rung, run longer.
PHASE1_RPS = 3.0
#: Length of every rung except phase 1, as a share of the run.
RUNG_SHARE = 1 / 12

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "crypto.seal_ms": "ms",
    "crypto.open_ms": "ms",
    "crypto.records": "count",
    "crypto.bytes": "B",
    "crypto.mb_per_s": "MiB/s",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "wire.calls": "count",
    "wire.bytes": "B",
    "cluster.exchange_ms": "ms",
    "cluster.shm_ms": "ms",
    "cluster.shm_segments": "count",
    "cluster.shm_bytes": "B",
    "voting.ms": "ms",
    "voting.calls": "count",
    "mvx.self_ms": "ms",
    "mvx.round_trips": "count",
    "mvx.overhead_x": "x",
    "runtime.ms": "ms",
    "runtime.calls": "count",
    "runtime.gflop": "GFLOP",
    "runtime.bare_ms": "ms",
    "observability.recorder_ms": "ms",
    "observability.recorder_events": "count",
    "serving.queue_wait_ms.p50": "ms",
    "serving.queue_wait_ms.p90": "ms",
    "serving.batch_size.mean": "count",
    "serving.shed_share": "ratio",
    "serving.timeout_share": "ratio",
    "serving.gen_lag_ms.p90": "ms",
    "max_rate_rps": "1/s",
    "setup.partition_s": "s",
    "setup.pool_s": "s",
    "setup.bootstrap_s": "s",
    "setup.fork_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_share": "ratio",
    "fail_share": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """One named input set and load shape."""

    name: str
    input_size: int
    mvx_partitions: dict
    execution: str
    open_loop: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mvx-small", 16, {0: 3, 1: 3, 2: 3}, "inprocess", False),
        Workload("bulk-process", 48, {1: 3}, "process", False),
        Workload("serve-openloop", 16, {1: 3}, "inprocess", True),
    )
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a trustworthy number."""


@dataclass
class Result:
    """What one run reports."""

    workload: str
    trace: bool
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Requests answered wrongly or failed by the system (not load outcomes).
    errors: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.errors == 0

    def units(self) -> dict[str, str]:
        return PER_LAYER if self.trace else END_TO_END

    def lines(self) -> list[str]:
        """Human-readable report, one metric per line."""
        mode = "per-layer (traced)" if self.trace else "end-to-end"
        out = [f"workload {self.workload}: {mode}"]
        units = self.units()
        for name in units:
            out.append(f"  {name:32s} {self.metrics[name]:14.4f} {units[name]}")
        share = self.failed / self.attempted if self.attempted else math.nan
        out.append(
            f"  requests: {self.attempted} attempted, {self.failed} failed "
            f"(fail_share {share:.4f}), {self.errors} wrong or errored"
        )
        out.extend(f"  {note}" for note in self.notes)
        return out

    def to_json(self) -> dict:
        units = self.units()
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": units[name]}
                for name in units
            },
        }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


@dataclass
class Deployment:
    system: MvteeSystem
    engine: object
    checker: OutputChecker
    setup_s: float


def _model(workload: Workload):
    return build_model(
        "small-resnet", input_size=workload.input_size, blocks_per_stage=1
    )


def deploy(workload: Workload, inputs: Inputs) -> Deployment:
    """Deploy, start serving, and time until the first correct inference."""
    model = _model(workload)
    start = time.perf_counter()
    system = MvteeSystem.deploy(
        model,
        num_partitions=3,
        mvx_partitions=dict(workload.mvx_partitions),
        seed=0,
        execution=workload.execution,
        sinks=Sinks(recorder=FlightRecorder()),
    )
    engine = None
    if workload.open_loop:
        engine = system.serving_engine(policy=ServingPolicy()).start()
        outputs = engine.submit(inputs.feeds[0]).result(timeout=60.0)
    else:
        outputs = system.infer(inputs.feeds[0])
    elapsed = time.perf_counter() - start
    checker = OutputChecker(system, inputs)
    if not checker.correct(0, outputs):
        teardown(Deployment(system, engine, checker, elapsed))
        raise BenchmarkError("first inference after set-up is wrong")
    return Deployment(system, engine, checker, elapsed)


def teardown(dep: Deployment) -> None:
    if dep.engine is not None:
        dep.engine.stop()
    shutdown_clean(dep.system)


def setup_repeated(workload, inputs, recorder=None):
    """Deploy ``SETUP_REPEATS`` times; keep the last deployment.

    Returns the kept deployment, the median set-up seconds and, when a
    span recorder is given, the median per-step set-up seconds.
    """
    times, steps, kept = [], [], None
    for _ in range(SETUP_REPEATS):
        if kept is not None:
            teardown(kept)
        if recorder is not None:
            recorder.clear()
            with recorder:
                kept = deploy(workload, inputs)
            steps.append(ledger.setup_metrics(recorder.spans))
        else:
            kept = deploy(workload, inputs)
        times.append(kept.setup_s)
    step_medians = {k: median([s[k] for s in steps]) for k in steps[0]} if steps else {}
    return kept, median(times), step_medians


def flops_per_request(system) -> float:
    """GFLOP every replica of every partition computes for one request."""
    total = 0
    for index in range(len(system.partition_set)):
        replicas = system.config.claim(index).num_variants
        total += graph_flops(system.partition_set.subgraph(index)) * replicas
    return total / 1e9


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------


@dataclass
class ClosedLoop:
    latencies: list[float]
    ok: int
    on_time: int
    errors: int
    wall_s: float

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def closed_loop(dep: Deployment, inputs: Inputs, seconds: float, first: int,
                recorder=None) -> ClosedLoop:
    """One client: send, wait for the result, check it, repeat."""
    system, checker = dep.system, dep.checker
    latencies, ok, on_time, errors = [], 0, 0, 0
    n = 0
    start = time.perf_counter()
    end = start + seconds
    while n == 0 or time.perf_counter() < end:
        index = inputs.pick(first + n)
        feeds = inputs.feeds[index]
        sent = time.perf_counter()
        try:
            if recorder is None:
                outputs = system.infer(feeds)
            else:
                with recorder.root("request", first + n):
                    outputs = system.infer(feeds)
        except Exception:
            if not errors:
                print(f"perfbench: request {first + n} failed", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            errors += 1
            latencies.append(math.inf)
        else:
            elapsed = time.perf_counter() - sent
            if checker.correct(index, outputs):
                ok += 1
                on_time += elapsed <= LATENCY_LIMIT_S
                latencies.append(elapsed)
            else:
                errors += 1
                latencies.append(math.inf)
        n += 1
    return ClosedLoop(latencies, ok, on_time, errors, time.perf_counter() - start)


def _warm_up(dep: Deployment, inputs: Inputs) -> None:
    for n in range(WARMUP_REQUESTS):
        index = inputs.pick(n)
        if not dep.checker.correct(index, dep.system.infer(inputs.feeds[index])):
            raise BenchmarkError("warm-up inference is wrong")


def _latency_metrics(latencies, result: Result) -> None:
    result.metrics["latency_p50_ms"] = 1000.0 * percentile(latencies, 50)
    result.metrics["latency_p90_ms"] = 1000.0 * percentile(latencies, 90)
    result.notes.append(
        f"latency samples: {len(latencies)}; "
        f"{beyond(latencies, 90)} lie beyond the p90"
    )


def _peak_rss(dep: Deployment) -> float:
    return self_peak_rss_mb() + sum(vm_hwm_mb(pid) for pid in worker_pids(dep.system))


def run_closed(workload: Workload, inputs: Inputs, seconds: float, trace: bool) -> Result:
    result = Result(workload.name, trace)
    if not trace:
        if ledger.installed_wrappers():
            raise BenchmarkError("tracing wrappers installed during the e2e pass")
        dep, setup_s, _ = setup_repeated(workload, inputs)
        try:
            _warm_up(dep, inputs)
            loop = closed_loop(dep, inputs, seconds, WARMUP_REQUESTS)
            if ledger.installed_wrappers():
                raise BenchmarkError("tracing wrappers installed during the e2e pass")
            result.metrics["setup_s"] = setup_s
            _latency_metrics(loop.latencies, result)
            result.metrics["throughput_rps"] = loop.ok / loop.wall_s
            result.metrics["peak_rss_mb"] = _peak_rss(dep)
        finally:
            teardown(dep)
        result.attempted, result.failed = loop.attempted, loop.failed
        result.errors = loop.errors
        return result

    recorder = ledger.SpanRecorder()
    dep, _, steps = setup_repeated(workload, inputs, recorder)
    try:
        _warm_up(dep, inputs)
        bare_ms = inputs.bare_ms()
        base = closed_loop(dep, inputs, seconds / 2, WARMUP_REQUESTS)
        recorder.clear()
        with recorder:
            traced = closed_loop(
                dep, inputs, seconds / 2, WARMUP_REQUESTS + base.attempted, recorder
            )
        gflop = flops_per_request(dep.system)
    finally:
        teardown(dep)
    m = result.metrics
    m.update(ledger.layer_metrics(recorder.spans, traced.attempted))
    m.update(steps)
    base_p50 = percentile(base.latencies, 50)
    m["runtime.gflop"] = gflop
    m["runtime.bare_ms"] = bare_ms
    m["mvx.overhead_x"] = 1000.0 * base_p50 / bare_ms
    m["trace.overhead_pct"] = _overhead_pct(percentile(traced.latencies, 50), base_p50)
    unattributed, total = ledger.root_unattributed(recorder.spans, "request")
    m["trace.unattributed_share"] = unattributed / total if total else 0.0
    for name in PER_LAYER:
        if name.startswith("serving."):
            m[name] = 0.0
    m["max_rate_rps"] = traced.on_time / traced.wall_s
    m["fail_share"] = traced.failed / traced.attempted
    result.attempted = base.attempted + traced.attempted
    result.failed = base.failed + traced.failed
    result.errors = base.errors + traced.errors
    result.notes.append(f"{traced.attempted} traced requests")
    return result


def _overhead_pct(traced_p50: float, base_p50: float) -> float:
    """Traced over untraced p50, in percent; a negative gap is noise, read as 0."""
    return max(0.0, 100.0 * (traced_p50 / base_p50 - 1.0))


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------


def ladder_rates() -> list[float]:
    return [LADDER_START_RPS * LADDER_RATIO**k for k in range(LADDER_RUNGS)]


def run_schedule(dep: Deployment, inputs: Inputs, seconds: float, first: int):
    """The rate ladder; its 3 rps rung runs longest.

    Returns (phase 1 segment, every segment run, highest passing segment).
    """
    rung_s = max(0.5, seconds * RUNG_SHARE)
    phase1_s = max(1.0, seconds - 3 * rung_s)
    segments, phase1, best = [], None, None
    for rate in ladder_rates():
        is_phase1 = math.isclose(rate, PHASE1_RPS)
        segment = openloop.drive(
            dep.engine, inputs, dep.checker, rate,
            phase1_s if is_phase1 else rung_s, first,
        )
        first += len(segment.requests)
        segments.append(segment)
        if is_phase1:
            phase1 = segment
        if not segment.passed:
            break
        best = segment
    if phase1 is None:
        # Rung 2 already failed: still measure phase 1 at its fixed rate.
        phase1 = openloop.drive(
            dep.engine, inputs, dep.checker, PHASE1_RPS, phase1_s, first
        )
        segments.append(phase1)
    return phase1, segments, best


def _tally(segments, phase1) -> tuple[int, int, int]:
    """(attempted, failed, errors) over the served load.

    The failing probe rung exceeds capacity on purpose, so only its
    wrong or failed responses count; its sheds and timeouts do not.
    """
    counted = [s for s in segments if s.passed or s is phase1]
    return (
        sum(len(s.requests) for s in counted),
        sum(s.failures for s in counted),
        sum(s.count("wrong") + s.count("failed") for s in segments),
    )


def run_open(workload: Workload, inputs: Inputs, seconds: float, trace: bool) -> Result:
    result = Result(workload.name, trace)
    if not trace:
        if ledger.installed_wrappers():
            raise BenchmarkError("tracing wrappers installed during the e2e pass")
        dep, setup_s, _ = setup_repeated(workload, inputs)
        try:
            phase1 = openloop.drive(
                dep.engine, inputs, dep.checker, PHASE1_RPS, seconds, 0
            )
            if ledger.installed_wrappers():
                raise BenchmarkError("tracing wrappers installed during the e2e pass")
            result.metrics["setup_s"] = setup_s
            _latency_metrics([r.latency for r in phase1.requests], result)
            result.metrics["throughput_rps"] = phase1.completion_rate()
            result.metrics["peak_rss_mb"] = _peak_rss(dep)
        finally:
            teardown(dep)
        result.attempted, result.failed, result.errors = _tally([phase1], phase1)
        result.notes.append(phase1.describe())
        return result

    recorder = ledger.SpanRecorder()
    dep, _, steps = setup_repeated(workload, inputs, recorder)
    try:
        bare_ms = inputs.bare_ms()
        base = openloop.drive(
            dep.engine, inputs, dep.checker, PHASE1_RPS, seconds / 4, 0
        )
        recorder.clear()
        with recorder:
            phase1, segments, best = run_schedule(
                dep, inputs, seconds * 3 / 4, len(base.requests)
            )
        gflop = flops_per_request(dep.system)
    finally:
        teardown(dep)
    m = result.metrics
    executed = sum(len(batch) for _t, batch in recorder.pickups)
    m.update(ledger.layer_metrics(recorder.spans, executed))
    m.update(steps)
    base_p50 = percentile([r.latency for r in base.requests], 50)
    m["runtime.gflop"] = gflop
    m["runtime.bare_ms"] = bare_ms
    m["mvx.overhead_x"] = 1000.0 * base_p50 / bare_ms
    m["trace.overhead_pct"] = _overhead_pct(
        percentile([r.latency for r in phase1.requests], 50), base_p50
    )
    m.update(_serving_metrics(recorder, segments))
    m["max_rate_rps"] = best.completion_rate() if best else 0.0
    attempted, failed, errors = _tally(segments, phase1)
    m["fail_share"] = failed / attempted
    result.attempted = len(base.requests) + attempted
    result.failed = base.failures + failed
    result.errors = base.count("wrong") + base.count("failed") + errors
    result.notes.extend(s.describe() for s in segments)
    result.notes.append(f"{executed} traced requests executed")
    return result


def _serving_metrics(recorder: ledger.SpanRecorder, segments) -> dict[str, float]:
    waits, sizes, pickup_of = [], [], {}
    for picked, batch in recorder.pickups:
        sizes.append(len(batch))
        for ticket_id, enqueued in batch:
            waits.append(picked - enqueued)
            pickup_of[ticket_id] = picked - enqueued
    sent = [r for s in segments for r in s.requests]
    runs = ledger.run_durations(recorder.spans)
    residual = total = 0.0
    for r in sent:
        if r.outcome != "ok" or r.ticket.ticket_id not in runs:
            continue
        latency = r.done - r.due
        attributed = (r.sent - r.due) + pickup_of[r.ticket.ticket_id] + runs[
            r.ticket.ticket_id
        ]
        residual += max(0.0, latency - attributed)
        total += latency
    return {
        "serving.queue_wait_ms.p50": 1000.0 * percentile(waits, 50),
        "serving.queue_wait_ms.p90": 1000.0 * percentile(waits, 90),
        "serving.batch_size.mean": sum(sizes) / len(sizes),
        "serving.shed_share": sum(r.outcome == "shed" for r in sent) / len(sent),
        "serving.timeout_share": sum(r.outcome == "timed_out" for r in sent) / len(sent),
        "serving.gen_lag_ms.p90": 1000.0 * percentile([r.sent - r.due for r in sent], 90),
        "trace.unattributed_share": residual / total if total else 0.0,
    }


def run(name: str, *, seed: int, seconds: float, trace: bool) -> Result:
    """Run one workload and return its metrics."""
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown workload {name!r}; choose one of {sorted(WORKLOADS)}"
        ) from None
    inputs = Inputs.generate(_model(workload), workload.input_size, seed)
    runner = run_open if workload.open_loop else run_closed
    return runner(workload, inputs, seconds, trace)
