"""Multi-channel text-CNN document encoder.

Embeds token ids, runs one ReLU convolution bank per kernel size, max-pools
each feature map to a scalar, and concatenates the pooled values (kernel
sizes ascending, filters ascending) into one fixed-size vector. Inverted
dropout on that vector at train time. Backward routes gradients through the
recorded argmax positions and ReLU masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PAD_TOKEN
from .numerics import ParamStore, add_rows


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_embed: int = 100
    kernel_sizes: tuple[int, ...] = (3, 4, 5)
    n_filters: int = 100
    dropout: float = 0.5

    @property
    def rep_dim(self) -> int:
        return self.n_filters * len(self.kernel_sizes)

    def validate(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must include <pad> plus at least one token")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if len(self.kernel_sizes) == 0 or min(self.kernel_sizes) < 1:
            raise ValueError(f"bad kernel sizes {self.kernel_sizes}")


def init_encoder_params(store: ParamStore, cfg: EncoderConfig,
                        rng: np.random.Generator | None) -> None:
    cfg.validate()
    emb = store.add_uniform("enc.embed", (cfg.vocab_size, cfg.d_embed), rng)
    emb[PAD_TOKEN] = 0.0  # pad row stays zero; its gradient is discarded
    for k in cfg.kernel_sizes:
        store.add_uniform(f"enc.conv{k}.W", (cfg.n_filters, k * cfg.d_embed), rng)
        store.add_uniform(f"enc.conv{k}.b", (cfg.n_filters,), rng)


def embed_tokens(tokens, store: ParamStore, cfg: EncoderConfig) -> np.ndarray:
    """Token ids (n,) -> embedding rows (n, d_embed)."""
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("cannot embed an empty document")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id outside dictionary of size {cfg.vocab_size}")
    return store["enc.embed"][ids]


@dataclass
class EncodeCache:
    padded_ids: np.ndarray
    windows: dict[int, np.ndarray]   # kernel -> (positions, k*d) flattened windows
    pooled_raw: dict[int, np.ndarray]  # kernel -> pooled values before dropout
    argmax: dict[int, np.ndarray]      # kernel -> argmax position per filter
    dropout_mask: np.ndarray | None


def encode_ehr(tokens, store: ParamStore, cfg: EncoderConfig, train_mode: bool = False,
               dropout_rng: np.random.Generator | None = None) -> tuple[np.ndarray, EncodeCache]:
    """Document token ids -> representation (rep_dim,) plus backward cache.

    Documents shorter than the largest kernel are right-padded with the
    zero-embedding pad token. In train mode the representation gets an
    inverted-dropout mask from dropout_rng; eval mode is deterministic.
    """
    ids = list(tokens)
    k_max = max(cfg.kernel_sizes)
    if len(ids) < k_max:
        ids = ids + [PAD_TOKEN] * (k_max - len(ids))
    padded = np.asarray(ids, dtype=np.int64)
    X = embed_tokens(padded, store, cfg)
    n, d = X.shape

    windows: dict[int, np.ndarray] = {}
    pooled: dict[int, np.ndarray] = {}
    argmax: dict[int, np.ndarray] = {}
    parts = []
    for k in cfg.kernel_sizes:
        win = np.lib.stride_tricks.sliding_window_view(X, (k, d))[:, 0].reshape(n - k + 1, k * d)
        fmap = np.maximum(win @ store[f"enc.conv{k}.W"].T + store[f"enc.conv{k}.b"], 0.0)
        idx = np.argmax(fmap, axis=0)
        vals = fmap[idx, np.arange(cfg.n_filters)]
        windows[k] = win
        pooled[k] = vals
        argmax[k] = idx
        parts.append(vals)
    x = np.concatenate(parts)

    mask = None
    if train_mode and cfg.dropout > 0.0:
        if dropout_rng is None:
            raise ValueError("train-mode encoding needs a dropout rng")
        mask = (dropout_rng.random(cfg.rep_dim) >= cfg.dropout) / (1.0 - cfg.dropout)
        x = x * mask
    return x, EncodeCache(padded, windows, pooled, argmax, mask)


def encode_backward(dx: np.ndarray, cache: EncodeCache, store: ParamStore,
                    cfg: EncoderConfig) -> None:
    """Accumulate encoder gradients for an upstream dx (rep_dim,)."""
    if cache.dropout_mask is not None:
        dx = dx * cache.dropout_mask
    n = cache.padded_ids.shape[0]
    d = cfg.d_embed
    dX = np.zeros((n, d))
    offset = 0
    for k in cfg.kernel_sizes:
        ds = dx[offset:offset + cfg.n_filters]
        offset += cfg.n_filters
        # pooled value > 0 iff the winning window's pre-activation was positive
        coef = ds * (cache.pooled_raw[k] > 0.0)
        win = cache.windows[k]
        idx = cache.argmax[k]
        store.grad(f"enc.conv{k}.W")[:] += coef[:, None] * win[idx]
        store.grad(f"enc.conv{k}.b")[:] += coef
        dwin = np.zeros_like(win)
        add_rows(dwin, idx, coef[:, None] * store[f"enc.conv{k}.W"])
        for off in range(k):
            dX[off:off + dwin.shape[0]] += dwin[:, off * d:(off + 1) * d]
    demb = store.grad("enc.embed")
    add_rows(demb, cache.padded_ids, dX)
    demb[PAD_TOKEN] = 0.0  # pad embedding is pinned at zero
