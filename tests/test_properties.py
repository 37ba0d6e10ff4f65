"""Property-based tests (hypothesis) on the core invariants.

Covers the data structures whose correctness everything else rests on:
the AEAD/sealing layer, the graph IR, partitioning, voting and the
consistency policy.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.aead import available_aeads, get_aead
from repro.crypto.chacha import chacha20_xor
from repro.crypto.kdf import hkdf_sha256
from repro.graph import GraphBuilder
from repro.mvx.consistency import ConsistencyPolicy
from repro.mvx.voting import VariantOutput, vote
from repro.partition import ContractionSettings, random_contraction
from repro.zoo import build_model

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestCryptoProperties:
    @given(
        key=st.binary(min_size=32, max_size=32),
        nonce=st.binary(min_size=12, max_size=12),
        plaintext=st.binary(max_size=512),
        aad=st.binary(max_size=64),
        name=st.sampled_from(available_aeads()),
    )
    @settings(max_examples=40, deadline=None)
    def test_aead_roundtrip(self, key, nonce, plaintext, aad, name):
        aead = get_aead(name, key)
        assert aead.decrypt(nonce, aead.encrypt(nonce, plaintext, aad), aad) == plaintext

    @given(
        key=st.binary(min_size=32, max_size=32),
        nonce=st.binary(min_size=12, max_size=12),
        plaintext=st.binary(min_size=1, max_size=256),
        flip=st.integers(min_value=0, max_value=10_000),
        name=st.sampled_from(available_aeads()),
    )
    @settings(max_examples=40, deadline=None)
    def test_aead_any_bitflip_detected(self, key, nonce, plaintext, flip, name):
        aead = get_aead(name, key)
        record = bytearray(aead.encrypt(nonce, plaintext))
        index = flip % (len(record) * 8)
        record[index // 8] ^= 1 << (index % 8)
        with pytest.raises(Exception):
            aead.decrypt(nonce, bytes(record))

    @given(
        key=st.binary(min_size=32, max_size=32),
        nonce=st.binary(min_size=12, max_size=12),
        counter=st.integers(min_value=0, max_value=2**30),
        data=st.binary(max_size=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_chacha_involution(self, key, nonce, counter, data):
        once = chacha20_xor(key, nonce, counter, data)
        assert chacha20_xor(key, nonce, counter, once) == data

    @given(
        ikm=st.binary(min_size=1, max_size=64),
        info_a=st.binary(max_size=32),
        info_b=st.binary(max_size=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_hkdf_domain_separation(self, ikm, info_a, info_b):
        a = hkdf_sha256(ikm, info=info_a)
        b = hkdf_sha256(ikm, info=info_b)
        assert (a == b) == (info_a == info_b)


def _random_chain_model(n_layers: int, seed: int):
    builder = GraphBuilder(f"prop-{n_layers}-{seed}", seed=seed)
    x = builder.input("x", (1, 3, 8, 8))
    rng = np.random.default_rng(seed)
    y = x
    channels = 3
    for i in range(n_layers):
        choice = rng.integers(3)
        if choice == 0:
            channels = int(rng.integers(2, 8))
            y = builder.conv(y, channels, kernel=3, pad=1)
        elif choice == 1:
            y = builder.relu(y)
        else:
            y = builder.batch_norm(y)
    builder.set_output(builder.softmax(builder.fc(builder.global_avg_pool(y), 4)))
    return builder.finish()


class TestGraphProperties:
    @given(n_layers=st.integers(min_value=1, max_value=8), seed=st.integers(0, 1000))
    @SLOW
    def test_random_models_validate_and_roundtrip(self, n_layers, seed):
        model = _random_chain_model(n_layers, seed)
        model.validate()
        from repro.graph.model import ModelGraph

        restored = ModelGraph.from_bytes(model.to_bytes())
        assert restored.structural_hash() == model.structural_hash()

    @given(n_layers=st.integers(min_value=2, max_value=8), seed=st.integers(0, 1000))
    @SLOW
    def test_topo_order_is_valid_permutation(self, n_layers, seed):
        model = _random_chain_model(n_layers, seed)
        order = model.topological_order()
        assert sorted(n.name for n in order) == sorted(n.name for n in model.nodes)


class TestPartitionProperties:
    @given(target=st.integers(min_value=1, max_value=6), seed=st.integers(0, 200))
    @SLOW
    def test_contraction_invariants(self, target, seed):
        model = build_model("small-resnet", input_size=16, blocks_per_stage=1)
        ps = random_contraction(model, ContractionSettings(target, seed=seed))
        assert len(ps) == target
        names = sorted(n for p in ps.partitions for n in p.node_names)
        assert names == sorted(n.name for n in model.nodes)
        ps.validate()  # acyclicity / forward-flow

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_checkpoint_chain_closure(self, seed):
        model = build_model("small-resnet", input_size=16, blocks_per_stage=1)
        ps = random_contraction(model, ContractionSettings(4, seed=seed))
        available = set(s.name for s in model.inputs)
        for index in range(len(ps)):
            sub = ps.subgraph(index)
            assert {s.name for s in sub.inputs} <= available
            available |= {s.name for s in sub.outputs}


class TestVotingProperties:
    @staticmethod
    def _outputs(values):
        return [
            VariantOutput(f"v{i}", {"t": np.full(3, v, dtype=np.float32)})
            for i, v in enumerate(values)
        ]

    @given(value=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
           count=st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_identical_outputs_always_unanimous(self, value, count):
        result = vote(self._outputs([value] * count))
        assert result.unanimous and result.passed

    @given(
        good=st.integers(min_value=1, max_value=5),
        value=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_outlier_never_accepted_under_unanimity(self, good, value):
        outputs = self._outputs([value] * good + [value * 1000])
        result = vote(outputs)
        assert not result.passed
        assert f"v{good}" in result.dissenting or f"v{good}" in result.agreeing and good == 0

    @given(
        agree=st.integers(min_value=2, max_value=5),
        disagree=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_majority_accepts_iff_strict_majority(self, agree, disagree):
        outputs = self._outputs([5.0] * agree + [9999.0 + i for i in range(disagree)])
        result = vote(outputs, strategy="majority")
        assert result.passed == (agree * 2 > agree + disagree)


class TestConsistencyProperties:
    @given(
        data=st.lists(st.floats(min_value=-1e4, max_value=1e4, width=32),
                      min_size=1, max_size=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_reflexive(self, data):
        arr = np.array(data, dtype=np.float32)
        assert ConsistencyPolicy().check_tensor("t", arr, arr).consistent

    @given(
        data=st.lists(st.floats(min_value=-100, max_value=100, width=32),
                      min_size=4, max_size=32),
        scale=st.floats(min_value=1e-7, max_value=1e-6),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiny_relative_noise_tolerated(self, data, scale):
        arr = np.array(data, dtype=np.float32)
        noisy = arr * (1.0 + scale)
        assert ConsistencyPolicy().check_tensor("t", arr, noisy).consistent

    @given(
        data=st.lists(st.floats(min_value=1.0, max_value=100.0, width=32),
                      min_size=4, max_size=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetric(self, data):
        rng = np.random.default_rng(0)
        a = np.array(data, dtype=np.float32)
        b = a + rng.normal(scale=0.5, size=a.shape).astype(np.float32)
        policy = ConsistencyPolicy()
        assert (
            policy.check_tensor("t", a, b).consistent
            == policy.check_tensor("t", b, a).consistent
        )
