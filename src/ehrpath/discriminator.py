"""Path plausibility scorer for adversarial training.

Encodes a code prefix with its own LSTM (separate embedding table from the
decoder), concatenates the final hidden state with the document
representation, and maps through one sigmoid linear layer to a reward in
(0, 1). Trained with binary cross-entropy: ground-truth prefixes positive,
generated prefixes negative. Paths are expanded into all their prefixes of
valid codes to enlarge the sample count. The prefixes of a batch share one
lockstep LSTM pass over the longest paths among them, each prefix reading
its state at its own last step, and one reverse-time sweep back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import expit

from .corpus import CodeIds
from .lstm import LstmCache, init_lstm_params, lstm_step, lstm_step_backward
from .numerics import ParamStore, add_rows

CLAMP = 1e-12


@dataclass(frozen=True)
class DiscriminatorConfig(CodeIds):
    n_codes: int
    d_code: int = 100
    hidden: int = 300
    rep_dim: int = 300
    candidate_activation: str = "relu"


def init_discriminator_params(store: ParamStore, cfg: DiscriminatorConfig,
                              rng: np.random.Generator | None) -> None:
    store.add_uniform("disc.code_embed", (cfg.n_total, cfg.d_code), rng)
    init_lstm_params(store, "disc.lstm", cfg.d_code, cfg.hidden, rng)
    store.add_uniform("disc.reward.W", (cfg.hidden + cfg.rep_dim,), rng)
    store.add_uniform("disc.reward.b", (1,), rng)


@dataclass(frozen=True)
class LabeledPrefix:
    codes: tuple[int, ...]
    positive: bool
    doc_id: int

    def __post_init__(self) -> None:
        if len(self.codes) == 0:
            raise ValueError("empty prefix")


def split_prefixes(path: Sequence[int], positive: bool, doc_id: int) -> list[LabeledPrefix]:
    """Expand a path of t valid codes (no STOP) into its t prefixes."""
    codes = tuple(path)
    return [LabeledPrefix(codes[:k], positive, doc_id) for k in range(1, len(codes) + 1)]


@dataclass
class PathPass:
    """The scorer over a batch of prefixes: steps[t] holds (rows, codes,
    LSTM cache) of the paths longer than t; prefix j ends on path row
    path_of[j] at step last[j], and feats[j] is [its final hidden state,
    its document vector]."""
    steps: list[tuple[np.ndarray, list[int], LstmCache]]
    path_of: np.ndarray
    last: np.ndarray
    feats: np.ndarray
    logits: np.ndarray


def score_prefixes(prefixes: Sequence[LabeledPrefix], xs: Mapping[int, np.ndarray],
                   store: ParamStore, cfg: DiscriminatorConfig) -> PathPass:
    """Every prefix run from zero state, by one lockstep pass over the
    distinct code tuples that extend no other, in order of first
    appearance, then one product with the reward layer."""
    distinct = list(dict.fromkeys(pf.codes for pf in prefixes))
    if any(not 0 <= c < cfg.n_total for p in distinct for c in p):
        raise ValueError(f"prefixes contain ids outside vocabulary of {cfg.n_total}")
    inner = {p[:k] for p in distinct for k in range(1, len(p))}
    paths = [p for p in distinct if p not in inner]
    where = {path[:k + 1]: (row, k) for row, path in enumerate(paths) for k in range(len(path))}
    path_of, last = np.array([where[pf.codes] for pf in prefixes]).reshape(-1, 2).T
    lengths = np.array([len(p) for p in paths])
    states = np.zeros((len(paths), lengths.max() + 1, cfg.hidden))  # step 0: zero state
    c = np.zeros((len(paths), cfg.hidden))
    steps = []
    for t in range(lengths.max()):
        rows = np.flatnonzero(lengths > t)
        codes = [paths[r][t] for r in rows]
        states[rows, t + 1], c[rows], cache = lstm_step(
            store, "disc.lstm", states[rows, t], c[rows],
            store["disc.code_embed"].take(codes, axis=0), cfg.candidate_activation)
        steps.append((rows, codes, cache))
    feats = np.hstack([states[path_of, last + 1], np.stack([xs[pf.doc_id] for pf in prefixes])])
    logits = feats.dot(store["disc.reward.W"]) + store["disc.reward.b"][0]
    return PathPass(steps, path_of, last, feats, logits)


def reward(prefixes: Sequence[LabeledPrefix], xs: Mapping[int, np.ndarray],
           store: ParamStore, cfg: DiscriminatorConfig) -> np.ndarray:
    """Sigmoid of the linear map over [path encoding, document vector], one
    per prefix."""
    return expit(score_prefixes(prefixes, xs, store, cfg).logits)


def discriminator_loss(prefixes: Sequence[LabeledPrefix], xs: Mapping[int, np.ndarray],
                       store: ParamStore, cfg: DiscriminatorConfig,
                       with_grads: bool = False) -> float:
    """Mean binary cross-entropy over the batch, probabilities clamped to
    [1e-12, 1 - 1e-12]. With with_grads, accumulates gradients for the
    scorer parameters only; the document representation is treated as data.
    """
    if len(prefixes) == 0:
        raise ValueError("empty discriminator batch")
    scored = score_prefixes(prefixes, xs, store, cfg)
    p = expit(scored.logits)
    positive = np.array([pf.positive for pf in prefixes])
    clamped = np.clip(p, CLAMP, 1.0 - CLAMP)
    scale = 1.0 / len(prefixes)
    total = float(np.where(positive, -np.log(clamped), -np.log(1.0 - clamped)).sum())
    if not with_grads:
        return total * scale
    # d(-log p)/dlogit = p - 1 for positives, p for negatives; zero when
    # the clamp is active (the loss is locally constant there)
    dlogit = np.where((CLAMP <= p) & (p <= 1.0 - CLAMP), scale * (p - positive), 0.0)
    store.grad("disc.reward.W")[:] += dlogit @ scored.feats
    store.grad("disc.reward.b")[:] += dlogit.sum()
    # one reverse-time sweep over the path rows; each prefix's dh enters at
    # its own last step, so the sweep sums every prefix's gradient
    n_paths, n_steps = len(scored.steps[0][0]), len(scored.steps)  # step 0 has every path
    inject = np.zeros((n_paths, n_steps, cfg.hidden))
    add_rows(inject.reshape(-1, cfg.hidden), scored.path_of * n_steps + scored.last,
             np.outer(dlogit, store["disc.reward.W"][:cfg.hidden]))
    dh, dc = np.zeros((2, n_paths, cfg.hidden))
    embed_ids, embed_rows = [], []
    for t in range(n_steps - 1, -1, -1):
        rows, codes, cache = scored.steps[t]
        dh[rows], dc[rows], dx = lstm_step_backward(store, "disc.lstm",
                                                    dh[rows] + inject[rows, t], dc[rows], cache)
        embed_ids.extend(codes)
        embed_rows.append(dx)
    add_rows(store.grad("disc.code_embed"), np.array(embed_ids), np.vstack(embed_rows))
    return total * scale
