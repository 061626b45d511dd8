"""Loop-form reference implementations that the tests compare the package's
vectorized code against."""

from typing import Sequence

import numpy as np

from ehrpath.alignment import AlignmentMatrix, step_targets
from ehrpath.generator import MixtureDistribution, generator_step_loss


def softmax_stable(logits: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax; logits (n,) -> probability vector (n,)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("softmax of empty logits")
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax of non-finite logits")
    e = np.exp(logits - logits.max())
    return e / e.sum()


def conv_feature_map(X: np.ndarray, filt: np.ndarray, bias: float, k: int) -> np.ndarray:
    """One filter (k, d) slid over X (n, d) -> ReLU feature map (n - k + 1,)."""
    n = X.shape[0]
    if n < k:
        raise ValueError(f"document of {n} rows shorter than kernel {k}")
    raw = np.array([float(np.sum(X[p:p + k] * filt)) + bias for p in range(n - k + 1)])
    return np.maximum(raw, 0.0)


def max_pool(feature_map: np.ndarray) -> tuple[float, int]:
    """Max over positions plus the argmax (first index on ties) for backprop."""
    if feature_map.size == 0:
        raise ValueError("max pool over empty feature map")
    idx = int(np.argmax(feature_map))
    return float(feature_map[idx]), idx


def pla_loss(distributions: Sequence[MixtureDistribution], alignment: AlignmentMatrix) -> float:
    """Sum of -log p over assigned (step, label) pairs plus -log p(STOP) at
    the first unassigned step; probabilities floored at 1e-12."""
    stop_id = distributions[0].probs.shape[0] - 2
    targets = step_targets(alignment, len(distributions), stop_id)
    return sum(generator_step_loss(dist, tgt)
               for dist, tgt in zip(distributions, targets) if tgt is not None)
