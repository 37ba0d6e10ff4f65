"""MVX configuration and consistency metrics."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.mvx.config import MvxConfig, PartitionClaim
from repro.mvx.consistency import (
    ConsistencyPolicy,
    cosine_similarity,
    max_abs_diff,
    mean_squared_error,
)


class TestPartitionClaim:
    def test_mvx_enabled_threshold(self):
        assert not PartitionClaim(0, 1).mvx_enabled
        assert PartitionClaim(0, 2).mvx_enabled

    def test_zero_variants_rejected(self):
        with pytest.raises(ValueError):
            PartitionClaim(0, 0)

    def test_json_roundtrip(self):
        claim = PartitionClaim(2, 3, selection_seed=7)
        assert PartitionClaim.from_json(claim.to_json()) == claim


class TestMvxConfig:
    def test_uniform(self):
        config = MvxConfig.uniform(5, 3)
        assert config.total_variants() == 15
        assert config.mvx_partition_indices() == [0, 1, 2, 3, 4]

    def test_selective(self):
        config = MvxConfig.selective(5, {2: 3})
        assert config.total_variants() == 7
        assert config.mvx_partition_indices() == [2]

    def test_hybrid_path_rule(self):
        config = MvxConfig.selective(3, {1: 3})
        assert not config.uses_slow_path(0)
        assert config.uses_slow_path(1)

    def test_forced_paths(self):
        slow = MvxConfig.uniform(2, 1, path_mode="slow")
        fast = MvxConfig.uniform(2, 3, path_mode="fast")
        assert slow.uses_slow_path(0)
        assert not fast.uses_slow_path(0)

    def test_json_roundtrip(self):
        config = MvxConfig(
            claims=(
                PartitionClaim(0, 1),
                PartitionClaim(1, 3, selection_seed=5),
                PartitionClaim(2, 2),
            ),
            voting="majority",
            execution_mode="async",
            path_mode="slow",
            consistency={"cosine_threshold": 0.999},
        )
        assert MvxConfig.from_json(config.to_json()) == config

    def test_json_roundtrip_survives_serialization(self):
        import json

        config = MvxConfig.selective(3, {1: 3}, voting="plurality")
        assert MvxConfig.from_json(json.loads(json.dumps(config.to_json()))) == config

    def test_claims_must_cover_partitions(self):
        with pytest.raises(ValueError, match="cover partitions"):
            MvxConfig(claims=(PartitionClaim(0, 1), PartitionClaim(2, 1)))

    def test_invalid_enums_rejected(self):
        with pytest.raises(ValueError):
            MvxConfig.uniform(2, 1, voting="dictatorship")
        with pytest.raises(ValueError):
            MvxConfig.uniform(2, 1, execution_mode="warp")
        with pytest.raises(ValueError):
            MvxConfig.uniform(2, 1, path_mode="medium")

    def test_json_roundtrip(self):
        config = MvxConfig.selective(
            4, {1: 3, 2: 5}, voting="majority", execution_mode="async",
            consistency={"min_cosine": 0.99},
        )
        assert MvxConfig.from_json(config.to_json()) == config


class TestMetrics:
    def test_cosine_identical(self):
        x = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(x, x) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_cosine_zero_vectors(self):
        assert cosine_similarity(np.zeros(3), np.zeros(3)) == 1.0
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_cosine_of_long_vectors_matches_blas(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=70_000)
        b = a + rng.normal(scale=0.1, size=a.size)
        expected = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cosine_similarity(a, b) == pytest.approx(expected, rel=1e-12)
        assert cosine_similarity(a, a) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_votes_leave_no_thread_spinning(self):
        # A threaded BLAS dot product leaves a helper thread spinning
        # after it returns; between checkpoint votes that spinner would
        # take a core from the variant workers.  Run in a fresh process
        # so that no other test's threads are counted.
        script = textwrap.dedent(
            """
            import os, threading, time
            import numpy as np
            from repro.mvx.consistency import cosine_similarity

            def other_threads_cpu_ticks():
                me, total = str(threading.get_native_id()), 0
                for tid in os.listdir("/proc/self/task"):
                    if tid != me:
                        with open(f"/proc/self/task/{tid}/stat") as stat:
                            fields = stat.read().rsplit(")", 1)[1].split()
                        total += int(fields[11]) + int(fields[12])
                return total

            a = np.random.default_rng(0).normal(size=65_536).astype(np.float32)
            before = other_threads_cpu_ticks()
            for _ in range(20):
                cosine_similarity(a, a + 1e-4)
                time.sleep(0.02)
            print(other_threads_cpu_ticks() - before)
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        # 20 votes and 0.4 s of sleep; a spinning helper burns ~40 ticks.
        assert int(done.stdout) <= 5

    def test_mse(self):
        assert mean_squared_error(np.array([1.0, 3.0]), np.array([2.0, 1.0])) == pytest.approx(2.5)

    def test_max_abs(self):
        assert max_abs_diff(np.array([1.0, -5.0]), np.array([1.5, 0.0])) == 5.0


class TestConsistencyPolicy:
    def test_identical_pass(self):
        policy = ConsistencyPolicy()
        x = np.random.default_rng(0).normal(size=(4, 4)).astype(np.float32)
        report = policy.check_tensor("t", x, x)
        assert report.consistent
        assert report.allclose

    def test_small_noise_tolerated(self):
        policy = ConsistencyPolicy()
        rng = np.random.default_rng(0)
        x = rng.normal(size=100).astype(np.float32)
        y = x + rng.normal(scale=1e-5, size=100).astype(np.float32)
        assert policy.check_tensor("t", x, y).consistent

    def test_gross_corruption_flagged(self):
        policy = ConsistencyPolicy()
        x = np.ones(10, dtype=np.float32)
        y = x.copy()
        y[0] = 100.0
        report = policy.check_tensor("t", x, y)
        assert not report.consistent
        assert "max_abs" in report.reason

    def test_shape_mismatch(self):
        policy = ConsistencyPolicy()
        report = policy.check_tensor("t", np.ones(3), np.ones(4))
        assert not report.consistent
        assert "shape" in report.reason

    def test_nan_flagged(self):
        policy = ConsistencyPolicy()
        x = np.ones(4, dtype=np.float32)
        y = x.copy()
        y[2] = np.nan
        report = policy.check_tensor("t", x, y)
        assert not report.consistent
        assert "non-finite" in report.reason

    def test_output_key_mismatch(self):
        policy = ConsistencyPolicy()
        reports = policy.check_outputs({"a": np.ones(2)}, {"b": np.ones(2)})
        assert not reports[0].consistent

    def test_thresholds_tunable(self):
        loose = ConsistencyPolicy(min_cosine=0.0, max_mse=1e9, max_abs=1e9,
                                  use_allclose=False)
        x = np.ones(4)
        y = x * 3
        assert loose.check_tensor("t", x, y).consistent

    def test_from_kwargs(self):
        policy = ConsistencyPolicy.from_kwargs({"min_cosine": 0.5})
        assert policy.min_cosine == 0.5
