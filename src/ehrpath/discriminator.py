"""Path plausibility scorer for adversarial training.

Encodes a code prefix with its own LSTM (separate embedding table from the
decoder), concatenates the final hidden state with the document
representation, and maps through one sigmoid linear layer to a reward in
(0, 1). Trained with binary cross-entropy: ground-truth prefixes positive,
generated prefixes negative. Every prefix of a path is scored, which
enlarges the sample count. The paths of a batch share one lockstep LSTM
pass over the longest among them, each prefix reading its state at its own
last step, and one reverse-time sweep back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .corpus import CodeIds
from .lstm import LstmCache, lstm_slots, lstm_step, lstm_step_backward
from .numerics import ParamStore, Slots, add_rows, uniform_init

CLAMP = 1e-12


@dataclass(frozen=True)
class DiscriminatorConfig(CodeIds):
    n_codes: int
    d_code: int = 100
    hidden: int = 300
    rep_dim: int = 300


def discriminator_slots(cfg: DiscriminatorConfig, rng: np.random.Generator | None) -> Slots:
    return [("disc.code_embed", uniform_init((cfg.n_total, cfg.d_code), rng)),
            *lstm_slots("disc.lstm", cfg.d_code, cfg.hidden, rng),
            ("disc.reward.W", uniform_init((cfg.hidden + cfg.rep_dim,), rng)),
            ("disc.reward.b", uniform_init((1,), rng))]


@dataclass
class PathPass:
    """The scorer over every prefix of a batch of paths, path by path and
    shortest first: steps[t] holds (rows, codes, LSTM cache) of the maximal
    paths longer than t; prefix j ends on maximal row path_of[j] at step
    last[j], and feats[j] is [its final hidden state, its document row]."""
    steps: list[tuple[np.ndarray, list[int], LstmCache]]
    path_of: np.ndarray
    last: np.ndarray
    feats: np.ndarray
    logits: np.ndarray


def score_paths(paths: Sequence[tuple[int, ...]], x: np.ndarray, store: ParamStore,
                cfg: DiscriminatorConfig) -> PathPass:
    """Every prefix of every path run from zero state, by one lockstep pass
    over the distinct paths that extend no other, in order of first
    appearance (a path that another extends reads the longest one that
    does), then one product with the reward layer. x holds one document row
    per path."""
    distinct = list(dict.fromkeys(p for p in paths if p))
    if any(not 0 <= c < cfg.n_total for p in distinct for c in p):
        raise ValueError(f"paths contain ids outside vocabulary of {cfg.n_total}")
    longest = {p[:k]: p for p in sorted(distinct, key=len) for k in range(1, len(p))}
    maximal = [p for p in distinct if p not in longest]
    row = {p: r for r, p in enumerate(maximal)}
    path_of = np.array([row[longest.get(p, p)] for p in paths for _ in p], dtype=int)
    last = np.array([k for p in paths for k in range(len(p))], dtype=int)
    max_lengths = np.array([len(p) for p in maximal], dtype=int)
    n_steps = max_lengths.max(initial=0)
    states = np.zeros((len(maximal), n_steps + 1, cfg.hidden))  # step 0: zero state
    c = np.zeros((len(maximal), cfg.hidden))
    steps = []
    for t in range(n_steps):
        rows = np.flatnonzero(max_lengths > t)
        codes = [maximal[r][t] for r in rows]
        states[rows, t + 1], c[rows], cache = lstm_step(
            store, "disc.lstm", states[rows, t], c[rows],
            store["disc.code_embed"].take(codes, axis=0))
        steps.append((rows, codes, cache))
    feats = np.hstack([states[path_of, last + 1], np.repeat(x, [len(p) for p in paths], axis=0)])
    logits = feats.dot(store["disc.reward.W"]) + store["disc.reward.b"][0]
    return PathPass(steps, path_of, last, feats, logits)


def reward(paths: Sequence[tuple[int, ...]], x: np.ndarray, store: ParamStore,
           cfg: DiscriminatorConfig) -> list[np.ndarray]:
    """Sigmoid of the linear map over [prefix encoding, document row]: each
    path's rewards, one per step."""
    rewards = expit(score_paths(paths, x, store, cfg).logits)
    return np.split(rewards, np.cumsum([len(p) for p in paths])[:-1])


def discriminator_loss(paths: Sequence[tuple[int, ...]], positive: Sequence[bool],
                       x: np.ndarray, store: ParamStore, cfg: DiscriminatorConfig) -> float:
    """Mean binary cross-entropy over every prefix of every path, each with
    its path's label, probabilities clamped to [1e-12, 1 - 1e-12].
    Accumulates gradients for the scorer parameters only; the document rows
    are treated as data.
    """
    if not any(paths):
        raise ValueError("empty discriminator batch")
    scored = score_paths(paths, x, store, cfg)
    p = expit(scored.logits)
    positive = np.repeat(positive, [len(path) for path in paths])
    clamped = np.clip(p, CLAMP, 1.0 - CLAMP)
    scale = 1.0 / len(p)
    total = float(np.where(positive, -np.log(clamped), -np.log(1.0 - clamped)).sum())
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
