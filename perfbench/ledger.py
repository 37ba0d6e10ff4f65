"""The per-layer ledger of a traced run, measured from outside the program.

Tracing wraps the public functions and classes of each layer in place:
a function is wrapped in the module of its caller, where the caller
looks the name up (``encode_message`` in ``repro.mvx.monitor``,
``repro.mvx.variant_host`` and ``repro.cluster.worker``), a method on
its class.  Each wrapped call becomes a span ``(id, name, start, end,
parent, request, nbytes, items)`` kept in memory; a span's self time is
its duration minus the durations of the spans it directly caused on the
same thread.  Nothing under ``src/`` is changed.

Forked workers inherit the wrappers, but they pass straight through in
any process other than the one that installed them: worker-side time is
visible only inside the parent's ``cluster.exchange`` span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

#: Marker attribute set on every installed wrapper.
MARKER = "__perfbench_span__"


def _len_arg(position: int):
    return lambda args, kwargs, result: (len(args[position]), 1)


def _len_result(args, kwargs, result):
    return len(result), 1


def _shm_export(args, kwargs, result):
    headers, _inline = result
    return _header_bytes(headers), len(headers)


def _shm_import(args, kwargs, result):
    headers = args[0]
    return _header_bytes(headers), len(headers)


def _header_bytes(headers) -> int:
    return sum(
        int(np.prod(h["shape"], dtype=np.int64)) * np.dtype(h["dtype"]).itemsize
        for h in headers
    )


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    span: str
    measure: object = None

    def resolve(self):
        module_name, _, class_name = self.owner.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            if self.attr not in vars(owner):
                raise AttributeError(f"{self.owner} does not define {self.attr}")
        return owner


#: Every layer boundary the ledger times.
TARGETS = (
    Target("repro.tee.channel:SecureChannel", "protect", "crypto.seal", _len_arg(1)),
    Target("repro.tee.channel:SecureChannel", "open", "crypto.open", _len_arg(1)),
    Target("repro.mvx.monitor", "encode_message", "wire.encode", _len_result),
    Target("repro.mvx.monitor", "decode_message", "wire.decode", _len_arg(0)),
    Target("repro.mvx.variant_host", "encode_message", "wire.encode", _len_result),
    Target("repro.mvx.variant_host", "decode_message", "wire.decode", _len_arg(0)),
    Target("repro.cluster.worker", "encode_message", "wire.encode", _len_result),
    Target("repro.cluster.worker", "decode_message", "wire.decode", _len_arg(0)),
    Target(
        "repro.cluster.transport:ProcessTransport",
        "exchange",
        "cluster.exchange",
        _len_arg(2),
    ),
    Target("repro.cluster.shm", "export_tensors", "cluster.shm", _shm_export),
    Target("repro.cluster.shm", "import_tensors", "cluster.shm", _shm_import),
    Target("repro.mvx.monitor", "vote", "voting"),
    Target("repro.mvx.system", "run", "mvx.run"),
    Target("repro.mvx.monitor:Monitor", "execute_stage", "mvx.stage"),
    Target("repro.mvx.monitor:VariantConnection", "request", "mvx.round_trip"),
    Target("repro.mvx.transport:DirectTransport", "exchange", "mvx.transport"),
    Target("repro.runtime.interpreter:InterpreterRuntime", "run", "runtime"),
    Target("repro.runtime.compiled:CompiledRuntime", "run", "runtime"),
    Target(
        "repro.observability.recorder:FlightRecorder", "record", "observability.recorder"
    ),
    Target("repro.mvx.system", "find_balanced_partition", "setup.partition"),
    Target("repro.mvx.system", "verify_partition_set", "setup.partition"),
    Target("repro.mvx.system", "build_pool", "setup.pool"),
    Target("repro.mvx.system", "bootstrap_deployment", "setup.bootstrap"),
    Target("repro.cluster.supervisor:ClusterSupervisor", "start", "setup.fork"),
    # Self time of a dispatch is the wait for replica threads; timing it
    # keeps that wait out of the enclosing mvx.stage self time.
    Target("repro.serving.executor:ParallelStageExecutor", "dispatch", "serving.dispatch"),
    Target("repro.serving.batching:MicroBatcher", "next_batch", "serving.pickup"),
)

#: Spans whose self time is the orchestration of the ``mvx`` layer.
MVX_SPANS = ("mvx.run", "mvx.stage", "mvx.round_trip", "mvx.transport")


def installed_wrappers() -> list[str]:
    """``owner.attr`` of every target currently carrying a ledger wrapper."""
    return [
        f"{t.owner}.{t.attr}"
        for t in TARGETS
        if hasattr(getattr(t.resolve(), t.attr), MARKER)
    ]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: Serving pickups: (monotonic time, ((ticket id, enqueued_at), ...)).
        self.pickups: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._pid = os.getpid()
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def root(self, name: str, request):
        """A root span around one request; spans inside are tagged with it."""
        self._tls.request = request
        sid = next(self._ids)
        self._stack().append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._add(sid, name, start, end, 0, 0, 1)
            self._tls.request = None

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- wrappers -------------------------------------------------------

    def _wrap(self, target: Target, fn):
        if target.span == "serving.pickup":
            return self._wrap_pickup(fn)
        recorder, name, measure = self, target.span, target.measure

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else 0
            sid = next(recorder._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                recorder._add(sid, name, start, end, parent, 0, 0)
                raise
            end = time.perf_counter()
            stack.pop()
            nbytes, items = measure(args, kwargs, result) if measure else (0, 1)
            recorder._add(sid, name, start, end, parent, nbytes, items)
            return result

        setattr(traced, MARKER, name)
        return traced

    def _wrap_pickup(self, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            batch = fn(*args, **kwargs)
            if batch and os.getpid() == recorder._pid:
                now = time.monotonic()
                recorder.pickups.append(
                    (now, tuple((t.ticket_id, t.enqueued_at) for t in batch))
                )
                recorder._tls.request = tuple(t.ticket_id for t in batch)
            return batch

        setattr(traced, MARKER, "serving.pickup")
        return traced

    def _add(self, sid, name, start, end, parent, nbytes, items) -> None:
        request = getattr(self._tls, "request", None)
        self.spans.append((sid, name, start, end, parent, request, nbytes, items))

    def install(self) -> None:
        """Wrap every target in place."""
        if self._saved:
            raise RuntimeError("ledger wrappers already installed")
        for target in TARGETS:
            owner = target.resolve()
            original = getattr(owner, target.attr)
            if isinstance(owner, type):
                original = vars(owner)[target.attr]
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        """Restore every original, in reverse order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        """Drop the recorded spans and pickups."""
        self.spans = []
        self.pickups = []

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


@dataclass
class LayerTotals:
    """Sums over every span of one name."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    nbytes: int = 0
    items: int = 0


def aggregate(spans) -> dict[str, LayerTotals]:
    """Per span name: calls, inclusive and self seconds, bytes, items."""
    covered = defaultdict(float)
    for _sid, _name, start, end, parent, _req, _nb, _it in spans:
        if parent:
            covered[parent] += end - start
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for sid, name, start, end, _parent, _req, nbytes, items in spans:
        entry = totals[name]
        entry.calls += 1
        entry.inclusive_s += end - start
        entry.self_s += (end - start) - covered[sid]
        entry.nbytes += nbytes
        entry.items += items
    return totals


def layer_metrics(spans, requests: int) -> dict[str, float]:
    """Per-request cost of each layer the spans cover."""
    if requests < 1:
        raise ValueError("no requests were traced")
    t = aggregate(spans)

    def get(name):
        return t.get(name, LayerTotals())

    def ms(seconds):
        return 1000.0 * seconds / requests

    seal, opened = get("crypto.seal"), get("crypto.open")
    enc, dec = get("wire.encode"), get("wire.decode")
    shm_, vote_ = get("cluster.shm"), get("voting")
    rt, rec = get("runtime"), get("observability.recorder")
    crypto_s = seal.self_s + opened.self_s
    crypto_bytes = seal.nbytes + opened.nbytes
    return {
        "crypto.seal_ms": ms(seal.self_s),
        "crypto.open_ms": ms(opened.self_s),
        "crypto.records": (seal.calls + opened.calls) / requests,
        "crypto.bytes": crypto_bytes / requests,
        "crypto.mb_per_s": crypto_bytes / 2**20 / crypto_s if crypto_s else 0.0,
        "wire.encode_ms": ms(enc.self_s),
        "wire.decode_ms": ms(dec.self_s),
        "wire.calls": (enc.calls + dec.calls) / requests,
        "wire.bytes": (enc.nbytes + dec.nbytes) / requests,
        "cluster.exchange_ms": ms(get("cluster.exchange").inclusive_s),
        "cluster.shm_ms": ms(shm_.self_s),
        "cluster.shm_segments": shm_.items / requests,
        "cluster.shm_bytes": shm_.nbytes / requests,
        "voting.ms": ms(vote_.self_s),
        "voting.calls": vote_.calls / requests,
        "mvx.self_ms": ms(sum(get(n).self_s for n in MVX_SPANS)),
        "mvx.round_trips": get("mvx.round_trip").calls / requests,
        "runtime.ms": ms(rt.self_s),
        "runtime.calls": rt.calls / requests,
        "observability.recorder_ms": ms(rec.self_s),
        "observability.recorder_events": rec.calls / requests,
    }


#: Setup steps and the span that times each (inclusive wall time).
SETUP_STEPS = {
    "setup.partition_s": "setup.partition",
    "setup.pool_s": "setup.pool",
    "setup.bootstrap_s": "setup.bootstrap",
    "setup.fork_s": "setup.fork",
}


def setup_metrics(spans) -> dict[str, float]:
    """Seconds spent in each setup step of one deployment."""
    t = aggregate(spans)
    return {
        metric: t[span].inclusive_s if span in t else 0.0
        for metric, span in SETUP_STEPS.items()
    }


def root_unattributed(spans, root: str) -> tuple[float, float]:
    """(self seconds, total seconds) of the ``root`` spans."""
    t = aggregate(spans)
    if root not in t:
        return 0.0, 0.0
    return t[root].self_s, t[root].inclusive_s


def run_durations(spans) -> dict[int, float]:
    """Ticket id -> duration of the ``mvx.run`` span that executed it."""
    out = {}
    for _sid, name, start, end, _parent, request, _nb, _it in spans:
        if name == "mvx.run" and isinstance(request, tuple):
            for ticket_id in request:
                out[ticket_id] = end - start
    return out
