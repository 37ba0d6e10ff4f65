"""Measurement helpers shared by the workloads.

Seeded inputs and their bare-runtime reference outputs, order
statistics, peak memory, and the clean-up checks a process-mode run must
pass before its numbers count.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from repro.cluster import shm
from repro.runtime import InterpreterRuntime, RuntimeConfig

#: Distinct inputs per run; requests cycle through them in seeded order.
INPUT_POOL = 16

#: A request counts as on time when it completes within this many
#: seconds of being due (closed loop: of being sent).
LATENCY_LIMIT_S = 1.0

DEV_SHM = Path("/dev/shm")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def beyond(values, q: float) -> int:
    """How many samples lie past the nearest-rank ``q`` percentile."""
    return len(values) - max(1, math.ceil(q / 100.0 * len(values)))


@dataclass
class Inputs:
    """A seeded input pool, its reference outputs and the request order."""

    feeds: list[dict[str, np.ndarray]]
    references: list[dict[str, np.ndarray]]
    order: list[int]
    bare_runtime: InterpreterRuntime

    @classmethod
    def generate(cls, model, input_size: int, seed: int) -> "Inputs":
        """Draw the pool from ``seed`` and run each input on the bare runtime."""
        rng = np.random.default_rng(seed)
        (spec,) = model.inputs
        feeds = [
            {
                spec.name: rng.normal(size=(1, 3, input_size, input_size)).astype(
                    np.float32
                )
            }
            for _ in range(INPUT_POOL)
        ]
        bare = InterpreterRuntime(RuntimeConfig())
        bare.prepare(model)
        references = [bare.run(f) for f in feeds]
        order = [int(i) for i in rng.permutation(np.arange(4096) % INPUT_POOL)]
        return cls(feeds, references, order, bare)

    def pick(self, n: int) -> int:
        """Pool index of the ``n``-th request."""
        return self.order[n % len(self.order)]

    def bare_ms(self, passes: int = 3) -> float:
        """Median wall time of one bare-runtime inference over the pool."""
        times = []
        for _ in range(passes):
            for feeds in self.feeds:
                start = time.perf_counter()
                self.bare_runtime.run(feeds)
                times.append(time.perf_counter() - start)
        return 1000.0 * median(times)


class OutputChecker:
    """Compares responses with the bare runtime under the deployment's tolerance."""

    def __init__(self, system, inputs: Inputs):
        last = len(system.partition_set) - 1
        self.policy = system.monitor.policy_for(last)
        self.names = [spec.name for spec in system.model.outputs]
        self.inputs = inputs

    def correct(self, index: int, outputs: dict[str, np.ndarray]) -> bool:
        """True when ``outputs`` match the reference of pool input ``index``."""
        reference = self.inputs.references[index]
        if set(outputs) != set(self.names):
            return False
        return self.policy.consistent(
            {n: outputs[n] for n in self.names}, {n: reference[n] for n in self.names}
        )


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker_pids(system) -> list[int]:
    """OS pids of a process-mode deployment's workers (empty in-process)."""
    if system.cluster is None:
        return []
    return [w.pid for w in system.cluster.workers().values() if w.pid is not None]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class LeakError(RuntimeError):
    """A process-mode run left a shm segment or a worker behind."""


def _pid_exists(pid: int) -> bool:
    return Path(f"/proc/{pid}").exists()


def _child_pids() -> list[int]:
    """Pids of this process's live or unreaped children."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return sorted(pids)


def stop_children(grace_s: float = 5.0) -> list[int]:
    """Stop and reap every process this run started; return the stragglers.

    The shm lane starts a ``multiprocessing`` resource tracker that would
    outlive the run by design; it is stopped and waited for here.  Any
    other child still present is a leak: it is terminated, killed after
    ``grace_s``, reaped, and its pid returned.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    stragglers = _child_pids()
    for pid in stragglers:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in stragglers:
        while True:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.05)
    return stragglers


def shutdown_clean(system, grace_s: float = 3.0) -> None:
    """Shut ``system`` down and prove nothing it started survives.

    Raises :class:`LeakError` when a shm segment stays tracked or linked
    under ``/dev/shm``, or when a worker pid is still present.
    """
    pids = worker_pids(system)
    system.shutdown()
    prefixes = [f"mvtee-{pid}-" for pid in [os.getpid(), *pids]]
    deadline = time.monotonic() + grace_s
    while True:
        tracked = sorted(shm.tracked_segment_names())
        linked = (
            sorted(
                p.name
                for p in DEV_SHM.iterdir()
                if any(p.name.startswith(prefix) for prefix in prefixes)
            )
            if DEV_SHM.is_dir()
            else []
        )
        alive = [pid for pid in pids if _pid_exists(pid)]
        if not (tracked or linked or alive):
            return
        if time.monotonic() >= deadline:
            raise LeakError(
                f"after shutdown: tracked segments {tracked}, "
                f"/dev/shm segments {linked}, live worker pids {alive}"
            )
        time.sleep(0.05)
