"""The variant pool: verified, sealed variant artifacts per partition.

The offline tool materializes every :class:`VariantSpec` into a
:class:`VariantArtifact`: the transformed partition subgraph, its sealed
private files, the public init manifest and the expected measurements --
everything the online bootstrap protocol (Figure 6) needs.
"""

from __future__ import annotations

import json
import secrets
from dataclasses import dataclass, field, replace

from repro.crypto.keys import KeyManager, KeyRecord
from repro.crypto.sealed import seal_bytes
from repro.graph.model import ModelGraph
from repro.partition.partition import PartitionSet
from repro.runtime.base import RuntimeConfig
from repro.tee.manifest import Manifest
from repro.variants.manifests import (
    INIT_VARIANT_CODE,
    bootstrap_script,
    variant_manifests,
    variant_paths,
)
from repro.variants.spec import VariantSpec
from repro.variants.transforms import TransformError, apply_transforms, verify_equivalent

__all__ = ["VariantArtifact", "VariantPool", "build_pool", "diversified_specs"]


@dataclass
class VariantArtifact:
    """Everything produced offline for one variant."""

    spec: VariantSpec
    model: ModelGraph
    key_record: KeyRecord
    init_manifest: Manifest
    second_manifest: Manifest
    host_files: dict[str, bytes]
    paths: dict[str, str]

    @property
    def variant_id(self) -> str:
        """Identifier of the variant this artifact realizes."""
        return self.spec.variant_id


@dataclass
class VariantPool:
    """Pool of artifacts, grouped by partition index."""

    partition_set: PartitionSet
    artifacts: dict[int, list[VariantArtifact]] = field(default_factory=dict)

    def add(self, artifact: VariantArtifact) -> None:
        """Register an artifact under its partition."""
        self.artifacts.setdefault(artifact.spec.partition_index, []).append(artifact)

    def for_partition(self, index: int) -> list[VariantArtifact]:
        """All pooled artifacts of one partition."""
        return list(self.artifacts.get(index, ()))

    def artifact(self, index: int, variant_id: str) -> VariantArtifact | None:
        """The pooled artifact of one variant of a partition, if any."""
        return next(
            (a for a in self.artifacts.get(index, ()) if a.variant_id == variant_id),
            None,
        )

    def select(self, index: int, count: int, *, seed: int | None = None) -> list[VariantArtifact]:
        """Pick ``count`` variants for a partition (deterministic or random).

        Figure 6 step 4: "a selection of partition variants is made
        (either deterministically or randomly) from the pre-established
        pool".
        """
        pool = self.for_partition(index)
        if count > len(pool):
            raise ValueError(
                f"partition {index}: requested {count} variants, pool has {len(pool)}"
            )
        if seed is None:
            return pool[:count]
        import numpy as np

        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in sorted(chosen)]

    def total_variants(self) -> int:
        """Number of artifacts across all partitions."""
        return sum(len(v) for v in self.artifacts.values())


def _materialize(
    spec: VariantSpec,
    partition_set: PartitionSet,
    key_manager: KeyManager,
    *,
    verify: bool,
) -> VariantArtifact:
    subgraph = partition_set.subgraph(spec.partition_index)
    if spec.graph_transforms:
        try:
            model = apply_transforms(
                subgraph, list(spec.graph_transforms), seed=spec.transform_seed
            )
        except TransformError:
            # A transform may be inapplicable to this particular subgraph
            # (e.g. no shuffle-safe chain); fall back to the untransformed
            # partition -- instance-level diversification still applies.
            spec = replace(spec, graph_transforms=())
            model = subgraph.copy()
    else:
        model = subgraph.copy()
    if verify and spec.graph_transforms:
        verify_equivalent(subgraph, model, trials=1)
    key_record = key_manager.create_key(spec.variant_id)
    init_manifest, second_manifest = variant_manifests(spec)
    paths = variant_paths(spec)
    main_program = (
        f"#!mvtee-variant {spec.variant_id}\n{bootstrap_script(spec)}".encode()
    )
    config_blob = json.dumps(spec.to_json(), sort_keys=True).encode()
    host_files = {
        paths["init"]: INIT_VARIANT_CODE,
        paths["stage2_manifest"]: seal_bytes(
            key_record, paths["stage2_manifest"], second_manifest.to_bytes(), freshness=1
        ).to_bytes(),
        paths["model"]: seal_bytes(
            key_record, paths["model"], model.to_bytes(), freshness=1
        ).to_bytes(),
        paths["config"]: seal_bytes(
            key_record, paths["config"], config_blob, freshness=1
        ).to_bytes(),
        paths["main"]: seal_bytes(
            key_record, paths["main"], main_program, freshness=1
        ).to_bytes(),
    }
    return VariantArtifact(
        spec=spec,
        model=model,
        key_record=key_record,
        init_manifest=init_manifest,
        second_manifest=second_manifest,
        host_files=host_files,
        paths=paths,
    )


def build_pool(
    partition_set: PartitionSet,
    specs: list[VariantSpec],
    *,
    key_manager: KeyManager | None = None,
    verify: bool = True,
) -> VariantPool:
    """Materialize a pool from specs (offline phase steps 1-2 of Figure 2)."""
    key_manager = key_manager or KeyManager()
    pool = VariantPool(partition_set=partition_set)
    for spec in specs:
        if not 0 <= spec.partition_index < len(partition_set):
            raise ValueError(
                f"spec {spec.variant_id!r} targets partition {spec.partition_index}, "
                f"but the set has {len(partition_set)}"
            )
        pool.add(_materialize(spec, partition_set, key_manager, verify=verify))
    return pool


#: Rotating menu of instance-level diversification used by the default
#: spec generator; mirrors the heterogeneity of Figure 3.
_INSTANCE_MENU: tuple[dict, ...] = (
    {"engine": "interpreter", "blas_backend": "mkl-sim", "optimization_level": 1},
    {"engine": "compiled", "blas_backend": "openblas-sim", "executor": "graph"},
    {"engine": "interpreter", "blas_backend": "eigen-sim", "optimization_level": 0},
    {"engine": "compiled", "blas_backend": "mkl-sim", "executor": "vm"},
    {"engine": "interpreter", "blas_backend": "openblas-sim", "optimization_level": 1},
)

_GRAPH_MENU: tuple[tuple[str, ...], ...] = (
    (),
    ("dummy-zero-add",),
    ("commute-add",),
    ("channel-shuffle",),
    ("dummy-identity", "commute-add"),
    ("dead-channel-insert",),
    ("selective-optimize", "fuse-conv-relu"),
)

_SYSTEM_MENU: tuple[tuple[str, ...], ...] = (
    ("aslr",),
    ("bounds-check",),
    ("aslr", "stack-protector"),
    ("asan",),
    ("aslr", "error-handling"),
)


def diversified_specs(
    partition_index: int,
    count: int,
    *,
    seed: int = 0,
    prefix: str | None = None,
) -> list[VariantSpec]:
    """Generate ``count`` multi-level-diversified specs for one partition.

    Walks the instance/graph/system menus with a seeded offset so
    different partitions (or different deployments) get different
    combinations, while variant 0 is always the plain reference.
    """
    prefix = prefix or f"p{partition_index}"
    specs = []
    for index in range(count):
        if index == 0:
            runtime = RuntimeConfig(label=f"{prefix}-v0")
            transforms: tuple[str, ...] = ()
            system: tuple[str, ...] = ()
        else:
            offset = seed + partition_index * 7 + index
            menu = dict(_INSTANCE_MENU[offset % len(_INSTANCE_MENU)])
            menu["label"] = f"{prefix}-v{index}"
            runtime = RuntimeConfig(**menu)
            transforms = _GRAPH_MENU[offset % len(_GRAPH_MENU)]
            system = _SYSTEM_MENU[offset % len(_SYSTEM_MENU)]
        specs.append(
            VariantSpec(
                variant_id=f"{prefix}-v{index}-{secrets.token_hex(3)}",
                partition_index=partition_index,
                runtime=runtime,
                graph_transforms=transforms,
                transform_seed=seed + index,
                system_measures=system,
                description=f"auto-diversified variant {index} of partition {partition_index}",
            )
        )
    return specs
