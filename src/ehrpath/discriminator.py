"""Path plausibility scorer for adversarial training.

Encodes a code prefix with its own LSTM (separate embedding table from the
decoder), concatenates the final hidden state with the document
representation, and maps through one sigmoid linear layer to a reward in
(0, 1). Trained with binary cross-entropy: ground-truth prefixes positive,
generated prefixes negative. Paths are expanded into all their prefixes of
valid codes to enlarge the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import expit

from .corpus import CodeIds
from .lstm import LstmCache, init_lstm_params, lstm_step, lstm_step_backward
from .numerics import ParamStore

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


def encode_path(prefix: Sequence[int], store: ParamStore,
                cfg: DiscriminatorConfig) -> tuple[np.ndarray, list[LstmCache]]:
    """Run the path LSTM left-to-right from zero state; returns the final
    hidden state (hidden,) and the per-step caches."""
    if len(prefix) == 0:
        raise ValueError("cannot encode an empty prefix")
    if any(not 0 <= c < cfg.n_total for c in prefix):
        raise ValueError(f"prefix {tuple(prefix)} contains ids outside vocabulary of {cfg.n_total}")
    h = np.zeros(cfg.hidden)
    c = np.zeros(cfg.hidden)
    caches = []
    for code in prefix:
        h, c, cache = lstm_step(store, "disc.lstm", h, c, store["disc.code_embed"][code],
                                cfg.candidate_activation)
        caches.append(cache)
    return h, caches


def reward(prefix: Sequence[int], x: np.ndarray, store: ParamStore,
           cfg: DiscriminatorConfig) -> float:
    """Sigmoid of the linear map over [path encoding, document vector]."""
    h, _ = encode_path(prefix, store, cfg)
    logit = float(store["disc.reward.W"] @ np.concatenate([h, x]) + store["disc.reward.b"][0])
    return float(expit(logit))


def discriminator_loss(prefixes: Sequence[LabeledPrefix], xs: Mapping[int, np.ndarray],
                       store: ParamStore, cfg: DiscriminatorConfig,
                       with_grads: bool = False) -> float:
    """Mean binary cross-entropy over the batch, probabilities clamped to
    [1e-12, 1 - 1e-12]. With with_grads, accumulates gradients for the
    scorer parameters only; the document representation is treated as data.
    """
    if len(prefixes) == 0:
        raise ValueError("empty discriminator batch")
    total = 0.0
    scale = 1.0 / len(prefixes)
    w = store["disc.reward.W"]
    for pf in prefixes:
        x = xs[pf.doc_id]
        h, caches = encode_path(pf.codes, store, cfg)
        feats = np.concatenate([h, x])
        p = float(expit(float(w @ feats + store["disc.reward.b"][0])))
        clamped = min(max(p, CLAMP), 1.0 - CLAMP)
        total += -np.log(clamped) if pf.positive else -np.log(1.0 - clamped)
        if not with_grads:
            continue
        # d(-log p)/dlogit = p - 1 for positives, p for negatives; zero when
        # the clamp is active (the loss is locally constant there)
        if CLAMP <= p <= 1.0 - CLAMP:
            dlogit = scale * (p - 1.0 if pf.positive else p)
        else:
            dlogit = 0.0
        store.grad("disc.reward.W")[:] += dlogit * feats
        store.grad("disc.reward.b")[:] += dlogit
        dh = dlogit * w[:cfg.hidden]
        dc = np.zeros(cfg.hidden)
        for k in range(len(caches) - 1, -1, -1):
            dh, dc, dx_in = lstm_step_backward(store, "disc.lstm", dh, dc, caches[k])
            store.grad("disc.code_embed")[pf.codes[k]] += dx_in
    return total * scale
