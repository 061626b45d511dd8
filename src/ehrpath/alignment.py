"""Align an orderless gold label set to decoder time steps.

Steps whose greedy prediction is already a gold label keep it (first step
wins on duplicates); the remaining labels are assigned to the remaining
steps by a minimum-cost linear assignment over negative log probabilities.
Surplus steps are supervised toward STOP at the first unassigned position
only.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .generator import PROB_FLOOR


def fix_correct_predictions(greedy_path: Sequence[int], gold: Iterable[int]) -> dict[int, int]:
    """Pin steps whose greedy prediction is a gold label: step -> code,
    each label claimed at most once, earliest step winning."""
    gold_set = set(gold)
    pins: dict[int, int] = {}
    for t, code in enumerate(greedy_path):
        if code in gold_set and code not in pins.values():
            pins[t] = code
    return pins


def hungarian_assign(cost: np.ndarray, pinned: Mapping[int, int]) -> dict[int, int]:
    """Complete a partial assignment optimally: step -> column, every column
    (label) claimed by exactly one step, every step by at most one column.

    cost is (steps, labels); pinned maps step -> column index and is kept
    verbatim. The unpinned steps x unclaimed columns sub-problem is solved
    exactly, minimizing total cost among completions that respect the pins.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n_steps, n_labels = cost.shape
    if n_labels > n_steps:
        raise ValueError(f"{n_labels} labels cannot be aligned to {n_steps} steps; "
                         "decode length must cover the gold set")
    if not np.isfinite(cost).all():
        raise ValueError("assignment cost matrix must be finite")
    if len(set(pinned.values())) != len(pinned):
        raise ValueError("pinned assignment claims a column twice")
    for t, j in pinned.items():
        if not (0 <= t < n_steps and 0 <= j < n_labels):
            raise ValueError(f"pin ({t}, {j}) outside cost matrix {cost.shape}")

    assigned = dict(pinned)
    free_rows = [t for t in range(n_steps) if t not in pinned]
    free_cols = [j for j in range(n_labels) if j not in pinned.values()]
    rr, cc = linear_sum_assignment(cost[free_rows][:, free_cols])
    assigned.update((free_rows[r], free_cols[c]) for r, c in zip(rr, cc))
    return assigned


def align_path(probs: np.ndarray, greedy_path: Sequence[int],
               gold: Iterable[int]) -> dict[int, int]:
    """The full alignment for one document, step -> code, from its per-step
    probabilities (steps, n_total): pin correct greedy predictions, then
    assign the remaining labels by -log probability."""
    labels = sorted(set(gold))
    cost = -np.log(np.maximum(probs[:, labels], PROB_FLOOR))
    pins = fix_correct_predictions(greedy_path, labels)
    assigned = hungarian_assign(cost, {t: labels.index(code) for t, code in pins.items()})
    return {t: labels[j] for t, j in assigned.items()}


def step_targets(alignment: Mapping[int, int], n_steps: int,
                 stop_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-step supervision from a step -> code alignment, as targets and
    weights (n_steps,): the assigned code, STOP at the first unassigned
    step, and weight 0 (target STOP) afterwards."""
    targets, weights = np.full(n_steps, stop_id), np.zeros(n_steps)
    targets[list(alignment)] = list(alignment.values())
    weights[list(alignment)] = 1.0
    weights[np.flatnonzero(weights == 0.0)[:1]] = 1.0
    return targets, weights
