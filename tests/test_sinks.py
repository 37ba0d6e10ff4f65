"""The Sinks bundle: the one observability spelling of every serving surface."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.mvx import InferenceOptions, MvteeSystem
from repro.observability import (
    FlightRecorder,
    MetricsRegistry,
    Sinks,
    Tracer,
)
from repro.serving import ServingEngine


@pytest.fixture()
def system(small_resnet):
    return MvteeSystem.deploy(
        small_resnet,
        num_partitions=3,
        mvx_partitions={1: 2},
        seed=0,
        verify_partitions=False,
        verify_variants=False,
    )


def _feeds(seed: int = 0):
    return {
        "input": np.random.default_rng(seed)
        .normal(size=(1, 3, 16, 16))
        .astype(np.float32)
    }


class TestSinksBundle:
    def test_merged_over_fills_only_missing_fields(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        recorder = FlightRecorder()
        partial = Sinks(tracer=tracer)
        base = Sinks(tracer=Tracer(), metrics=metrics, recorder=recorder)
        merged = partial.merged_over(base)
        assert merged.tracer is tracer  # own field wins
        assert merged.metrics is metrics
        assert merged.recorder is recorder

    def test_with_metrics_replaces_only_metrics(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        bundle = Sinks(tracer=tracer).with_metrics(metrics)
        assert bundle.tracer is tracer
        assert bundle.metrics is metrics


class TestSinksSpellings:
    """Every surface takes its observability sinks as one ``sinks=`` bundle."""

    def test_deploy_sinks_spelling_is_warning_free(self, small_resnet):
        registry = MetricsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            system = MvteeSystem.deploy(
                small_resnet,
                num_partitions=3,
                mvx_partitions={1: 2},
                seed=0,
                verify_partitions=False,
                verify_variants=False,
                sinks=Sinks(metrics=registry),
            )
        assert system.monitor.metrics is registry

    def test_inference_options_sinks_spelling(self, system):
        registry, tracer = MetricsRegistry(), Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            options = InferenceOptions(
                sinks=Sinks(tracer=tracer, metrics=registry)
            )
        assert options.sinks.metrics is registry
        assert options.sinks.tracer is tracer
        system.infer_batches([_feeds()], options)
        assert registry.counter("mvtee_checkpoints_total").total() >= 1

    def test_system_serving_engine_sinks_spelling(self, system):
        registry = MetricsRegistry()
        recorder = FlightRecorder()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = system.serving_engine(
                sinks=Sinks(metrics=registry, recorder=recorder)
            )
        assert engine.registry is registry
        assert engine.recorder is recorder
        with engine:
            assert engine.submit(_feeds()).result(timeout=30.0)

    def test_individual_sink_kwargs_are_retired(self, system):
        with pytest.raises(TypeError):
            InferenceOptions(metrics=MetricsRegistry())
        with pytest.raises(TypeError):
            ServingEngine(system, registry=MetricsRegistry())
        with pytest.raises(TypeError):
            system.serving_engine(recorder=FlightRecorder())
