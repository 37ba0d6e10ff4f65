"""Ablations of the design choices DESIGN.md calls out.

1. Random-balanced contraction vs a naive equal-count chain split:
   balance quality (the slowest stage bounds pipelined throughput).
2. Unanimous vs majority voting under a single faulty variant:
   detection vs availability trade-off.
3. Bulk AEAD choice: vectorized ChaCha20-Poly1305 vs pure-Python
   AES-GCM record throughput (why bulk records default to the former).
4. Two-stage bootstrap surface: second-stage manifests expose strictly
   fewer syscalls/files than a single-stage equivalent would.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import print_table, record_result

from repro.crypto.aead import get_aead
from repro.mvx import MvteeSystem, ResponseAction
from repro.mvx.monitor import MonitorError
from repro.partition import balance_score, find_balanced_partition, slice_by_indices
from repro.runtime.faults import FaultInjector
from repro.variants.manifests import variant_manifests
from repro.variants.spec import VariantSpec
from repro.zoo import build_model


def test_ablation_partitioning_vs_chain_split(benchmark):
    """Random-balanced contraction should beat naive equal-count slicing."""

    def compute():
        rows = []
        for name in ("googlenet", "resnet-50", "mobilenet-v3"):
            model = build_model(name, input_size=96)
            order_len = len(model.nodes)
            cuts = [int(order_len * (i + 1) / 5) - 1 for i in range(4)]
            naive = slice_by_indices(model, cuts)
            balanced = find_balanced_partition(model, 5, restarts=4, seed=0)
            rows.append(
                {
                    "model": name,
                    "naive_balance": balance_score(naive),
                    "contraction_balance": balance_score(balanced),
                }
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "Ablation: balance score (max stage cost / ideal; lower is better)",
        ["model", "naive chain split", "random-balanced contraction"],
        [[r["model"], f"{r['naive_balance']:.2f}", f"{r['contraction_balance']:.2f}"] for r in rows],
    )
    record_result("ablation_partitioning", rows)
    # Contraction wins in aggregate and dramatically on branchy models
    # (GoogleNet's inception modules defeat position-based slicing); on
    # architectures with near-uniform block costs (ResNet) a naive split
    # can tie -- randomized search still bounds the worst case.
    naive = [r["naive_balance"] for r in rows]
    balanced = [r["contraction_balance"] for r in rows]
    assert sum(balanced) < sum(naive)
    googlenet = next(r for r in rows if r["model"] == "googlenet")
    assert googlenet["contraction_balance"] < googlenet["naive_balance"] - 0.5
    assert all(b < 1.6 for b in balanced)


def test_ablation_voting_strategies(benchmark):
    """Unanimity detects but halts; majority detects and keeps serving."""

    def outcome_for(voting: str) -> dict:
        from repro.mvx.config import MvxConfig

        model = build_model("small-resnet", input_size=16, blocks_per_stage=1)
        system = MvteeSystem.deploy(
            model,
            num_partitions=3,
            config=MvxConfig.selective(3, {1: 3}, voting=voting),
            seed=0,
            verify_partitions=False,
            verify_variants=False,
        )
        system.monitor.response_action = ResponseAction.DROP_VARIANT
        connection = system.monitor.stage_connections(1)[0]
        FaultInjector(connection.host.runtime).arm_backend_bitflip(bit=30)
        feeds = {
            "input": np.random.default_rng(0).normal(size=(1, 3, 16, 16)).astype(np.float32)
        }
        completed = True
        try:
            system.infer(feeds)
        except MonitorError:
            completed = False
        return {
            "voting": voting,
            "detected": bool(system.monitor.divergence_events()),
            "completed": completed,
            "survivors": len(system.monitor.stage_connections(1)),
        }

    rows = benchmark.pedantic(
        lambda: [outcome_for(v) for v in ("unanimous", "majority", "plurality")],
        rounds=1,
        iterations=1,
    )
    print_table(
        "Ablation: voting strategy under one corrupted variant (of 3)",
        ["voting", "detected", "batch completed", "survivors"],
        [[r["voting"], r["detected"], r["completed"], r["survivors"]] for r in rows],
    )
    record_result("ablation_voting", rows)
    by_name = {r["voting"]: r for r in rows}
    for row in rows:
        assert row["detected"], row  # every strategy detects
    # Majority/plurality keep serving after dropping the dissenter.
    assert by_name["majority"]["completed"]
    assert by_name["plurality"]["completed"]
    assert by_name["majority"]["survivors"] == 2


def test_ablation_bulk_aead_throughput(benchmark):
    """The hashlib bulk default beats ChaCha20-Poly1305, which beats AES-GCM by >10x."""

    payload = np.random.default_rng(0).bytes(512 * 1024)

    def measure() -> dict:
        rates = {}
        for name, size in (
            ("shake256-blake2b", len(payload)),
            ("chacha20-poly1305", len(payload)),
            ("aes-gcm", 64 * 1024),
        ):
            aead = get_aead(name, bytes(32))
            data = payload[:size]
            start = time.perf_counter()
            aead.encrypt(bytes(12), data)
            elapsed = time.perf_counter() - start
            rates[name] = size / elapsed / 1e6  # MB/s
        return rates

    rates = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation: bulk record AEAD throughput",
        ["aead", "MB/s"],
        [[k, f"{v:.2f}"] for k, v in rates.items()],
    )
    record_result("ablation_aead", rates)
    assert rates["chacha20-poly1305"] > 10 * rates["aes-gcm"]
    assert rates["shake256-blake2b"] > rates["chacha20-poly1305"]


def test_ablation_update_policy(benchmark):
    """Fresh-TEE updates (the paper's policy) vs hypothetical enclave reuse."""
    from conftest import MODELS

    from repro.graph.flops import parameter_bytes
    from repro.simulation import CostModel
    from repro.simulation.scenarios import cached_model
    from repro.simulation.updates import full_update_cost, partial_update_cost

    cost = CostModel()

    def compute():
        rows = []
        for name in ("mobilenet-v3", "resnet-152"):
            model = cached_model(name)
            artifact_bytes = parameter_bytes(model) // 5  # one partition's share
            partial = partial_update_cost(cost, variants=3, artifact_bytes=artifact_bytes)
            full = full_update_cost(cost, total_variants=9, artifact_bytes=artifact_bytes)
            rows.append(
                {
                    "model": name,
                    "partial_fresh_s": partial.fresh_total,
                    "partial_reuse_s": partial.reuse_total,
                    "full_fresh_s": full.fresh_total,
                    "premium_s": partial.soundness_premium,
                }
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "Ablation: update policy cost (seconds)",
        ["model", "partial fresh", "partial reuse", "full fresh", "soundness premium"],
        [
            [r["model"], f"{r['partial_fresh_s']:.2f}", f"{r['partial_reuse_s']:.2f}",
             f"{r['full_fresh_s']:.2f}", f"{r['premium_s']:.2f}"]
            for r in rows
        ],
    )
    record_result("ablation_update_policy", rows)
    for row in rows:
        # Fresh TEEs cost more (the premium the paper accepts)...
        assert row["partial_fresh_s"] > row["partial_reuse_s"]
        # ...but partial updates stay far cheaper than full reshuffles.
        assert row["partial_fresh_s"] < row["full_fresh_s"]
        # The premium is bounded: a few seconds per replaced variant.
        assert row["premium_s"] <= 3 * 2.0


def test_ablation_two_stage_surface(benchmark):
    """The second-stage manifest strictly shrinks the attack surface."""

    def measure() -> dict:
        spec = VariantSpec(variant_id="surface", partition_index=0)
        init_manifest, second_manifest = variant_manifests(spec)
        return {
            "init_syscalls": len(init_manifest.syscalls),
            "second_syscalls": len(second_manifest.syscalls),
            "second_env_vars": len(second_manifest.env_allowlist),
            "exec_in_second": "exec" in second_manifest.syscalls,
            "network_setup_in_second": "connect" in second_manifest.syscalls,
        }

    surface = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation: two-stage attack-surface reduction",
        ["metric", "value"],
        [[k, v] for k, v in surface.items()],
    )
    record_result("ablation_two_stage", surface)
    assert surface["second_syscalls"] < surface["init_syscalls"]
    assert surface["second_env_vars"] == 0
    assert not surface["exec_in_second"]
    assert not surface["network_setup_in_second"]
