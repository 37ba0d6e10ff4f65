"""High-throughput serving with admission control and micro-batching.

The concurrent serving engine end to end, driven by a bursty open-loop
workload: quiet periods where single requests flow through with minimal
batching, and bursts that exercise micro-batch coalescing, true
parallel variant execution (three heavy replicas on the MVX partition),
deadline enforcement and load shedding.  Ends by printing the engine's
Prometheus exposition -- the numbers an operator would scrape.

Run:  python examples/high_throughput_serving.py
"""

import time

import numpy as np

from repro.mvx import MvteeSystem, ResponseAction
from repro.serving import (
    DeadlineExceeded,
    Overloaded,
    ServingPolicy,
)
from repro.zoo import build_model


def main() -> None:
    model = build_model("small-resnet", input_size=16, blocks_per_stage=1)
    system = MvteeSystem.deploy(model, num_partitions=3, mvx_partitions={1: 3}, seed=0)
    system.monitor.response_action = ResponseAction.DROP_VARIANT
    # Model heavy diversified replicas on the MVX partition: 15 ms of
    # GIL-releasing work each, so parallel dispatch genuinely overlaps.
    for connection in system.monitor.stage_connections(1):
        connection.host.simulated_latency = 0.015
        connection.host.realtime_latency = True

    engine = system.serving_engine(
        policy=ServingPolicy(
            capacity=16,
            max_batch_size=8,
            max_wait_s=0.005,
            default_deadline_s=5.0,
        )
    )
    rng = np.random.default_rng(0)

    def fresh_feeds():
        return {"input": rng.normal(size=(1, 3, 16, 16)).astype(np.float32)}

    with engine:
        # --- quiet traffic: lone requests, batch size ~1 -------------------
        quiet = [engine.submit(fresh_feeds()) for _ in range(3)]
        for ticket in quiet:
            ticket.result(timeout=30.0)
        print(f"[quiet] {len(quiet)} lone requests served, "
              f"queue depth now {engine.queue_depth}")

        # --- bursty open loop: waves of arrivals, no waiting ---------------
        served = shed = timed_out = 0
        in_flight = []
        for wave in range(4):
            wave_size = 24 if wave % 2 else 12
            for _ in range(wave_size):
                try:
                    in_flight.append(engine.submit(fresh_feeds()))
                except Overloaded:
                    shed += 1
            time.sleep(0.05)  # inter-burst gap; the engine drains meanwhile
        for ticket in in_flight:
            try:
                ticket.result(timeout=60.0)
                served += 1
            except DeadlineExceeded:
                timed_out += 1
        total = served + shed + timed_out
        print(f"[burst] {total} submitted: {served} served, {shed} shed "
              f"(backpressure), {timed_out} past deadline")

        batch_sizes = engine.registry.histogram("mvtee_batch_size")
        if batch_sizes.count():
            print(f"[batching] {batch_sizes.count()} micro-batches, "
                  f"mean size {batch_sizes.sum() / batch_sizes.count():.1f}")
        waits = engine.registry.histogram("mvtee_queue_wait_seconds")
        if waits.count():
            print(f"[queueing] mean queue wait "
                  f"{1e3 * waits.sum() / waits.count():.1f} ms over {waits.count()} requests")

    # --- what the operator scrapes ----------------------------------------
    print("\n[prometheus] engine exposition:")
    for line in engine.render_prometheus().splitlines():
        if line.startswith("#") or "_bucket" in line:
            continue  # keep the printout short: samples only, no buckets
        print(f"  {line}")


if __name__ == "__main__":
    main()
