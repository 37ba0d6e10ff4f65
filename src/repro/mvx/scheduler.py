"""Execution scheduling: one unified entry point, sync and async.

The execution model of §4.3: variant TEEs form a DAG mirroring the
partition topology and process private user data "in a pipelined
manner".  Sequential execution completes all stages of a batch before
the next batch begins; pipelined execution keeps every stage busy with a
different batch.  This module drives the *functional* execution through
the monitor (correctness, detection); wall-clock performance of the two
modes is reproduced by :mod:`repro.simulation`.

The single entry point is :func:`run` with an :class:`InferenceOptions`
bundle (scheduling mode, checkpoint discipline, path mode and the
observability :class:`~repro.observability.sinks.Sinks`).  Every run
produces an ``infer -> batch -> stage`` span tree through the
configured tracer (the monitor adds ``variant`` and ``checkpoint``
leaves) and stage latency histograms in the metrics registry.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from dataclasses import dataclass, field

import numpy as np

from repro.mvx.monitor import Monitor
from repro.observability.metrics import MetricsRegistry
from repro.observability.sinks import Sinks
from repro.observability.tracing import Span, Tracer

__all__ = [
    "ExecutionMode",
    "InferenceOptions",
    "PathMode",
    "RunStats",
    "SchedulingMode",
    "run",
    "validate_feeds",
]


class ExecutionMode(enum.Enum):
    """Checkpoint synchronization discipline."""

    SYNC = "sync"
    ASYNC = "async"


class PathMode(enum.Enum):
    """Checkpoint evaluation path (Figure 7)."""

    FAST = "fast"
    SLOW = "slow"
    HYBRID = "hybrid"


class SchedulingMode(enum.Enum):
    """Batch admission discipline."""

    SEQUENTIAL = "sequential"
    PIPELINED = "pipelined"


@dataclass(frozen=True)
class InferenceOptions:
    """Everything one inference run needs beyond the batches themselves.

    ``mode`` / ``path_mode`` override the deployment's provisioned
    checkpoint discipline and Figure-7 path selection for the duration
    of the run; ``None`` keeps the provisioned value.  ``sinks``
    bundles the run's observability output (tracer, metrics registry,
    flight recorder); unset sinks fall back to the monitor's tracer,
    the process-wide registry and the deployment's recorder.

    ``deadline`` bounds the run: an absolute :func:`time.monotonic`
    value (None = unbounded) that every variant round trip honours;
    past it the run raises
    :class:`~repro.serving.errors.DeadlineExceeded`.

    ``sinks.recorder`` installs a tamper-evident flight recorder on the
    monitor for the duration of the run; ``None`` keeps whatever
    recorder the deployment already has (possibly none).

    ``batch_id_base`` offsets the monitor-facing batch ids of the run:
    batch ``i`` of the stream is identified as ``batch_id_base + i`` in
    spans, recorder entries and detection events.  Concurrent runs over
    one deployment (the serving engine overlaps
    ``ServingPolicy.num_workers`` of them) must use disjoint bases so
    their batch ids never collide.
    """

    scheduling: SchedulingMode = SchedulingMode.SEQUENTIAL
    mode: ExecutionMode | None = None
    path_mode: PathMode | None = None
    sinks: Sinks = field(default_factory=Sinks)
    deadline: float | None = None
    batch_id_base: int = 0


@dataclass
class RunStats:
    """Counters of one run.

    Per-stage wall time is the ``mvtee_stage_seconds`` histogram in the
    run's :class:`~repro.observability.metrics.MetricsRegistry`.
    """

    batches: int = 0
    stage_executions: int = 0
    checkpoints_evaluated: int = 0
    divergences: int = 0
    crashes: int = 0


def validate_feeds(monitor: Monitor, feeds: dict[str, np.ndarray]) -> None:
    """Reject malformed user inputs before they reach any variant TEE.

    The monitor "is also hardened against any untrusted inputs" (§6.5):
    missing tensors, wrong shapes and wrong dtypes are rejected at the
    trust boundary instead of propagating into variant kernels.
    """
    expected = {spec.name: spec for spec in monitor.partition_set.model.inputs}
    missing = set(expected) - set(feeds)
    if missing:
        raise ValueError(f"missing input tensors: {sorted(missing)}")
    unexpected = set(feeds) - set(expected)
    if unexpected:
        raise ValueError(f"unexpected input tensors: {sorted(unexpected)}")
    for name, spec in expected.items():
        value = feeds[name]
        if not isinstance(value, np.ndarray):
            raise ValueError(f"input {name!r} is not an ndarray")
        if tuple(value.shape) != spec.shape:
            raise ValueError(
                f"input {name!r} has shape {tuple(value.shape)}, expected {spec.shape}"
            )
        if value.dtype != spec.dtype.numpy:
            raise ValueError(
                f"input {name!r} has dtype {value.dtype}, expected {spec.dtype.value}"
            )


def _stage_once(
    monitor: Monitor,
    env: dict,
    batch_id: int,
    index: int,
    stats: RunStats,
    tracer: Tracer,
    registry: MetricsRegistry,
    batch_span: Span | None,
    deadline: float | None,
) -> None:
    partition_set = monitor.partition_set
    feeds = partition_set.stage_feeds(index, env)
    with tracer.span(
        "stage", parent=batch_span, partition=index, batch=batch_id
    ) as span:
        start = time.perf_counter()
        outputs = monitor.execute_stage(batch_id, index, feeds, deadline)
        elapsed = time.perf_counter() - start
    env.update(outputs)
    stats.stage_executions += 1
    registry.histogram(
        "mvtee_stage_seconds", "Wall-clock seconds per stage execution"
    ).observe(elapsed, partition=index)
    registry.counter(
        "mvtee_stage_executions_total", "Stage executions"
    ).inc(partition=index)
    if monitor.config is not None and monitor.config.uses_slow_path(index):
        stats.checkpoints_evaluated += 1
        span.set_attribute("slow_path", True)


def _finalize(monitor: Monitor, env: dict) -> dict[str, np.ndarray]:
    return {spec.name: env[spec.name] for spec in monitor.partition_set.model.outputs}


def _install_run_options(
    monitor: Monitor,
    options: InferenceOptions,
    tracer: Tracer,
    registry: MetricsRegistry,
) -> None:
    """Install run-scoped options on the monitor (refcounted).

    The first concurrent run installs the config overrides, tracer,
    metrics and recorder; the last restores the provisioned values.
    Overlapping runs are expected to pass identical sink options (the
    serving engine does); a run that joins with *different* sinks keeps
    the first run's installation until the monitor goes idle.
    """
    with monitor._run_lock:
        monitor._run_refs += 1
        if monitor._run_refs == 1:
            monitor._run_saved = (
                monitor.config,
                monitor.tracer,
                monitor.metrics,
                monitor.recorder,
            )
            overrides = {}
            if options.mode is not None:
                overrides["execution_mode"] = options.mode.value
            if options.path_mode is not None:
                overrides["path_mode"] = options.path_mode.value
            if overrides and monitor.config is not None:
                monitor.config = dataclasses.replace(monitor.config, **overrides)
            monitor.tracer, monitor.metrics = tracer, registry
            if options.sinks.recorder is not None:
                monitor.recorder = options.sinks.recorder


def _restore_run_options(monitor: Monitor) -> None:
    with monitor._run_lock:
        monitor._run_refs -= 1
        if monitor._run_refs == 0:
            (
                monitor.config,
                monitor.tracer,
                monitor.metrics,
                monitor.recorder,
            ) = monitor._run_saved
            monitor._run_saved = None


def run(
    monitor: Monitor,
    batches: list[dict[str, np.ndarray]],
    options: InferenceOptions | None = None,
) -> tuple[list[dict[str, np.ndarray]], RunStats]:
    """Process a batch stream through the deployment.

    The unified entry point behind :meth:`MvteeSystem.infer_batches`:
    validates every batch at the trust boundary, applies the options'
    execution/path overrides to the provisioned config for the duration
    of the run, and emits the full span tree and stage metrics.

    Safe to call concurrently from several threads against one monitor
    (the serving engine overlaps batches this way): the deadline travels
    with each stage call, the option sinks are installed via refcounted
    install/restore, and ``options.batch_id_base`` keeps monitor-facing
    batch ids disjoint across overlapping runs.
    """
    options = options or InferenceOptions()
    for feeds in batches:
        validate_feeds(monitor, feeds)
    sinks = options.sinks
    tracer = sinks.tracer if sinks.tracer is not None else monitor.tracer
    registry = sinks.metrics if sinks.metrics is not None else monitor.metrics_registry
    _install_run_options(monitor, options, tracer, registry)
    try:
        stats = RunStats()
        config = monitor.config
        with tracer.span(
            "infer",
            scheduling=options.scheduling.value,
            execution_mode=config.execution_mode if config else None,
            path_mode=config.path_mode if config else None,
            num_batches=len(batches),
        ) as root:
            if options.scheduling is SchedulingMode.PIPELINED:
                results = _run_pipelined(
                    monitor, batches, stats, tracer, registry, root, options
                )
            else:
                results = _run_sequential(
                    monitor, batches, stats, tracer, registry, root, options
                )
        stats.divergences = len(monitor.divergence_events())
        stats.crashes = len(monitor.crash_events())
        return results, stats
    finally:
        _restore_run_options(monitor)


def _run_sequential(
    monitor: Monitor,
    batches: list[dict[str, np.ndarray]],
    stats: RunStats,
    tracer: Tracer,
    registry: MetricsRegistry,
    root: Span,
    options: InferenceOptions,
) -> list[dict[str, np.ndarray]]:
    results = []
    num_stages = len(monitor.partition_set)
    batch_counter = registry.counter("mvtee_batches_total", "Batches completed")
    for local_id, feeds in enumerate(batches):
        batch_id = options.batch_id_base + local_id
        env = dict(feeds)
        with tracer.span("batch", parent=root, batch=batch_id) as batch_span:
            for index in range(num_stages):
                _stage_once(
                    monitor, env, batch_id, index, stats, tracer, registry,
                    batch_span, options.deadline,
                )
        results.append(_finalize(monitor, env))
        stats.batches += 1
        batch_counter.inc(scheduling="sequential")
    return results


def _run_pipelined(
    monitor: Monitor,
    batches: list[dict[str, np.ndarray]],
    stats: RunStats,
    tracer: Tracer,
    registry: MetricsRegistry,
    root: Span,
    options: InferenceOptions,
) -> list[dict[str, np.ndarray]]:
    """Overlapping pipeline: at tick ``t``, stage ``i`` handles batch ``t-i``.

    The functional outcome matches sequential execution, but checkpoint
    evaluation interleaves across batches -- which is exactly the regime
    in which asynchronous cross-validation defers laggard checks across
    stage boundaries.  Batch spans stay open across ticks and collect
    the stage spans executed on the batch's behalf.
    """
    num_stages = len(monitor.partition_set)
    batch_counter = registry.counter("mvtee_batches_total", "Batches completed")
    envs: dict[int, dict] = {}
    spans: dict[int, Span] = {}
    results: dict[int, dict] = {}
    total_ticks = len(batches) + num_stages - 1
    for tick in range(total_ticks):
        # Later stages first within a tick: drain the pipe end before
        # admitting new work, as a hardware pipeline would.
        for index in reversed(range(num_stages)):
            local_id = tick - index
            if not 0 <= local_id < len(batches):
                continue
            batch_id = options.batch_id_base + local_id
            if index == 0:
                envs[local_id] = dict(batches[local_id])
                spans[local_id] = tracer.start_span(
                    "batch", parent=root, batch=batch_id
                )
            env = envs[local_id]
            _stage_once(
                monitor, env, batch_id, index, stats, tracer, registry,
                spans[local_id], options.deadline,
            )
            if index == num_stages - 1:
                results[local_id] = _finalize(monitor, env)
                del envs[local_id]
                tracer.end_span(spans.pop(local_id))
                stats.batches += 1
                batch_counter.inc(scheduling="pipelined")
    return [results[i] for i in range(len(batches))]
