"""Concurrent monitor->variant dispatch: the one fan-out every stage uses.

The monitor sends a stage's input to every variant replica and then
votes at the checkpoint (§4.3).  :class:`ParallelStageExecutor` runs
those round trips concurrently on one persistent
:class:`ThreadPoolExecutor` -- the numpy kernels inside the variant
runtimes and the worker pipes release the GIL, so the replicas
genuinely overlap and the checkpoint waits only for the slowest.

Every round trip of :class:`~repro.mvx.monitor.Monitor` goes through
:meth:`ParallelStageExecutor.dispatch` (via ``Monitor._dispatch``):
the fast path, the sync slow path, the async quorum and its fallback,
deferred laggard checks and RESTART_BATCH retries.  Each gets the same
rules: results in connection order, one retry when a variant fails
transiently (the host is still alive, so a transport glitch or torn
record should not cost the replica its vote), and
:class:`~repro.serving.errors.DeadlineExceeded` once the batch deadline
passes.  The deadline is an absolute :func:`time.monotonic` value that
travels with each call, so any number of batches may be in flight
through one executor at once.

Monitors share :func:`shared_executor`.  Its threads start on demand,
so a process holds as many as its peak number of concurrent round
trips however many deployments it creates.  One pool per monitor was
measured and dropped: the threads of deployments a process had already
replaced lingered until garbage collection, and every worker forked
afterwards inherited their memory (``bulk-process`` peak RSS +10%).
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

from repro.serving.errors import DeadlineExceeded

__all__ = ["POOL_SIZE", "ParallelStageExecutor", "shared_executor"]

#: Most threads one executor runs: every replica of several overlapping
#: batches across a few deployments (a fleet) at once.
POOL_SIZE = 32


class ParallelStageExecutor:
    """Concurrent monitor->variant dispatch with deadlines and one retry."""

    def __init__(self):
        self._pool = ThreadPoolExecutor(
            max_workers=POOL_SIZE, thread_name_prefix="mvtee-variant"
        )

    def dispatch(
        self, monitor, connections, batch_id, feeds, *, deadline: float | None = None
    ) -> list:
        """Round-trip ``feeds`` to every connection concurrently.

        Results come back in connection order, so voting sees the same
        input whatever order the replicas finish in.  With a deadline
        every round trip runs on the pool and is awaited with a
        timeout, a single-replica stage included, so one slow variant
        cannot blow through the batch budget.
        """
        # Round trips on pool threads nest their spans under the
        # caller's open span (the stage or checkpoint).
        parent = monitor.tracer.current()
        if deadline is None:
            # No timeout to enforce: the calling thread takes the first
            # replica itself instead of waiting idle.
            futures = [
                self._pool.submit(
                    self._request, monitor, c, batch_id, feeds, None, parent
                )
                for c in connections[1:]
            ]
            first = self._request(monitor, connections[0], batch_id, feeds, None, parent)
            return [first, *(future.result() for future in futures)]
        futures = [
            self._pool.submit(
                self._request, monitor, c, batch_id, feeds, deadline, parent
            )
            for c in connections
        ]
        results = []
        for connection, future in zip(connections, futures):
            try:
                results.append(
                    future.result(timeout=max(0.0, deadline - time.monotonic()))
                )
            except FutureTimeout:
                raise DeadlineExceeded(
                    f"variant {connection.variant_id} missed the batch deadline "
                    f"at batch {batch_id}, partition {connection.partition_index}"
                ) from None
        return results

    @staticmethod
    def _request(monitor, connection, batch_id, feeds, deadline, parent):
        result = monitor.request_inference(connection, batch_id, feeds, parent=parent)
        if (
            result.outputs is None
            and not connection.host.crashed
            and (deadline is None or time.monotonic() < deadline)
        ):
            # Transient fault: the host is alive, so the failure came
            # from the path to it (transport glitch, torn record).  One
            # retry keeps the replica's vote without masking real
            # crashes -- a dead host short-circuits above.
            monitor.metrics_registry.counter(
                "mvtee_dispatch_retries_total",
                "Variant round trips retried after a transient fault",
            ).inc(partition=connection.partition_index)
            result = monitor.request_inference(connection, batch_id, feeds, parent=parent)
        return result

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Tear the pool down (idempotent)."""
        self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelStageExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


@functools.cache
def shared_executor() -> ParallelStageExecutor:
    """The executor every monitor dispatches through (built on first use)."""
    return ParallelStageExecutor()


# A forked child inherits the executor but none of its threads.
os.register_at_fork(after_in_child=shared_executor.cache_clear)
