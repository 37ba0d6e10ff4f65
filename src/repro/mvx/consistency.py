"""Criteria-based consistency checks between variant outputs (§5.2).

"We implement configurable checking based on criteria such as cosine
similarity, mean squared error, maximum absolute difference, and
np.testing.assert_allclose (with predefined absolute and relative
tolerances)" -- all four are here, combined by a :class:`ConsistencyPolicy`
whose thresholds can be tuned per deployment to "balance the precision
and recall of attack identification" against benign variant noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConsistencyPolicy",
    "ConsistencyReport",
    "cosine_similarity",
    "max_abs_diff",
    "mean_squared_error",
]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two tensors, flattened; 1.0 = identical direction."""
    flat_a = a.astype(np.float64).reshape(-1)
    flat_b = b.astype(np.float64).reshape(-1)
    norm = float(np.sqrt(_dot(flat_a, flat_a)) * np.sqrt(_dot(flat_b, flat_b)))
    if norm == 0.0:
        return 1.0 if np.allclose(flat_a, flat_b) else 0.0
    return _dot(flat_a, flat_b) / norm


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two flat float64 vectors, on the calling thread.

    ``np.dot``/``np.linalg.norm`` go to BLAS, which threads a long dot
    product and then leaves its helper thread spinning.  The monitor
    votes on every checkpoint, so that spinner would compete for cores
    with the variant workers between votes.  ``einsum`` sums on the
    caller's thread and wakes no pool.
    """
    return float(np.einsum("i,i->", a, b))


def mean_squared_error(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference of two tensors."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(diff * diff))


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest absolute elementwise difference."""
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-tensor metrics and the verdict of one pairwise check."""

    consistent: bool
    tensor_name: str
    cosine: float
    mse: float
    max_abs: float
    allclose: bool
    reason: str = ""


@dataclass(frozen=True)
class ConsistencyPolicy:
    """Thresholded combination of the four §5.2 criteria.

    A pair of outputs is consistent when *all* enabled criteria pass.
    Defaults tolerate the numeric noise of diversified runtimes (different
    accumulation orders) while flagging bit-flip-scale corruption.
    """

    min_cosine: float = 0.999
    #: MSE and max-abs thresholds are *scale-relative*: the deviation is
    #: divided by max(1, max|a|, max|b|) before comparison, so benign
    #: runtime noise on large-magnitude activations does not false-alarm
    #: (the precision/recall balance §4.3 describes).
    max_mse: float = 1e-4
    max_abs: float = 1e-2
    rtol: float = 1e-2
    atol: float = 1e-3
    use_allclose: bool = True

    @classmethod
    def from_kwargs(cls, kwargs: dict) -> "ConsistencyPolicy":
        """Build from an MvxConfig's consistency dict."""
        return cls(**kwargs)

    def check_tensor(self, name: str, a: np.ndarray, b: np.ndarray) -> ConsistencyReport:
        """Compare one tensor pair under all criteria."""
        if a.shape != b.shape:
            return ConsistencyReport(
                consistent=False,
                tensor_name=name,
                cosine=0.0,
                mse=float("inf"),
                max_abs=float("inf"),
                allclose=False,
                reason=f"shape mismatch {a.shape} vs {b.shape}",
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            finite = bool(np.array_equal(np.isfinite(a), np.isfinite(b)))
            return ConsistencyReport(
                consistent=False,
                tensor_name=name,
                cosine=0.0,
                mse=float("inf"),
                max_abs=float("inf"),
                allclose=False,
                reason="non-finite values" + ("" if finite else " (mismatched positions)"),
            )
        cosine = cosine_similarity(a, b)
        mse = mean_squared_error(a, b)
        abs_diff = max_abs_diff(a, b)
        scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        # np.allclose's rtol term reads only its second argument, which
        # would make the verdict depend on comparison order; peer variants
        # have no privileged side, so take the elementwise max magnitude.
        wide_a = a.astype(np.float64)
        wide_b = b.astype(np.float64)
        tolerance = self.atol * scale + self.rtol * np.maximum(
            np.abs(wide_a), np.abs(wide_b)
        )
        close = bool(np.all(np.abs(wide_a - wide_b) <= tolerance))
        failures = []
        if cosine < self.min_cosine:
            failures.append(f"cosine {cosine:.6f} < {self.min_cosine}")
        if mse / scale**2 > self.max_mse:
            failures.append(f"relative mse {mse / scale**2:.3e} > {self.max_mse}")
        if abs_diff / scale > self.max_abs:
            failures.append(f"relative max_abs {abs_diff / scale:.3e} > {self.max_abs}")
        if self.use_allclose and not close:
            failures.append(f"allclose(rtol={self.rtol}, atol={self.atol}*scale) failed")
        return ConsistencyReport(
            consistent=not failures,
            tensor_name=name,
            cosine=cosine,
            mse=mse,
            max_abs=abs_diff,
            allclose=close,
            reason="; ".join(failures),
        )

    def check_outputs(
        self, a: dict[str, np.ndarray], b: dict[str, np.ndarray]
    ) -> list[ConsistencyReport]:
        """Compare two variant output dicts tensor by tensor."""
        if set(a) != set(b):
            return [
                ConsistencyReport(
                    consistent=False,
                    tensor_name="<keys>",
                    cosine=0.0,
                    mse=float("inf"),
                    max_abs=float("inf"),
                    allclose=False,
                    reason=f"output sets differ: {sorted(a)} vs {sorted(b)}",
                )
            ]
        return [self.check_tensor(name, a[name], b[name]) for name in sorted(a)]

    def consistent(self, a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
        """True when every tensor pair passes."""
        return all(r.consistent for r in self.check_outputs(a, b))
