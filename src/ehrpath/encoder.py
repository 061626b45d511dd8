"""Multi-channel text-CNN document encoder over a batch of documents.

Embeds token ids, runs one ReLU convolution bank per kernel size, max-pools
each feature map over the document's own windows, and concatenates the
pooled values (kernel sizes ascending, filters ascending) into one vector
per document, with inverted dropout at train time. Per chunk of packed token
rows and kernel, one GEMM against the filter's stacked offset blocks; the
backward goes through a selection matrix over the distinct winning windows.
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
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id outside dictionary of size {cfg.vocab_size}")
    return store["enc.embed"][ids]


# packed token rows encoded together: a desk batch or a few long notes, few
# enough that a chunk's responses stay in cache
ROW_BUDGET = 1024


@dataclass
class EncodeCache:
    padded_ids: np.ndarray         # (rows,) every document's padded token ids, end to end
    chunks: list[tuple[int, int]]  # documents [first, last) encoded together
    starts: np.ndarray             # (B, rep_dim) packed row of each winning window
    gate: np.ndarray               # (B, rep_dim) dropout mask where the ReLU is open, else 0


def encode_batch(token_lists, store: ParamStore, cfg: EncoderConfig, train_mode: bool = False,
                 dropout_rng: np.random.Generator | None = None
                 ) -> tuple[np.ndarray, EncodeCache]:
    """B documents' token ids -> representations (B, rep_dim) plus backward
    cache. Documents shorter than the largest kernel are right-padded with
    the zero-embedding pad token. Train mode draws one (B, rep_dim) dropout
    mask from dropout_rng; eval mode is deterministic."""
    k_max, nf = max(cfg.kernel_sizes), cfg.n_filters
    docs = [list(tokens) + [PAD_TOKEN] * (k_max - len(tokens)) for tokens in token_lists]
    bounds = np.cumsum([0] + [len(ids) for ids in docs])
    padded = np.array([t for ids in docs for t in ids], dtype=np.int64)
    firsts = [0]  # chunks: runs of documents within ROW_BUDGET rows, or one longer one
    for b in range(1, len(docs)):
        if bounds[b + 1] - bounds[firsts[-1]] > ROW_BUDGET:
            firsts.append(b)
    chunks = [(a, b) for a, b in zip(firsts, firsts[1:] + [len(docs)]) if b > a]
    pooled = np.empty((len(docs), cfg.rep_dim))
    starts = np.empty((len(docs), cfg.rep_dim), dtype=np.int64)
    for first, last in chunks:
        E = embed_tokens(padded[bounds[first]:bounds[last]], store, cfg)
        doc_rows = bounds[first:last + 1] - bounds[first]
        for j, k in enumerate(cfg.kernel_sizes):
            W = store[f"enc.conv{k}.W"].reshape(nf, k, -1).transpose(1, 0, 2)
            responses = E @ W.reshape(k * nf, -1).T  # [r, off * nf + f]: row r, block off
            n_win = len(E) - k + 1
            fmap = np.full((n_win + 1, nf), -1.0)  # the last row stands for no window
            fmap[:-1] = store[f"enc.conv{k}.b"]
            for off in range(k):
                fmap[:-1] += responses[off:off + n_win, off * nf:(off + 1) * nf]
            np.maximum(fmap[:-1], 0.0, out=fmap[:-1])
            counts = np.diff(doc_rows) - k + 1  # each document's own windows, then no-window
            pos = np.arange(counts.max())
            rows = np.where(pos < counts[:, None], doc_rows[:-1, None] + pos, n_win)
            best = doc_rows[:-1, None] + fmap[rows].argmax(axis=1)
            pooled[first:last, j * nf:(j + 1) * nf] = fmap[best, np.arange(nf)]
            starts[first:last, j * nf:(j + 1) * nf] = best + bounds[first]

    # gradient passes where the winning window's ReLU was open (pooled value > 0)
    gate = (pooled > 0.0).astype(float)
    if train_mode and cfg.dropout > 0.0:
        if dropout_rng is None:
            raise ValueError("train-mode encoding needs a dropout rng")
        mask = (dropout_rng.random(pooled.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        return pooled * mask, EncodeCache(padded, chunks, starts, gate * mask)
    return pooled, EncodeCache(padded, chunks, starts, gate)


def encode_batch_backward(dX: np.ndarray, cache: EncodeCache, store: ParamStore,
                          cfg: EncoderConfig) -> None:
    """Accumulate encoder gradients for an upstream dX (B, rep_dim)."""
    coef = dX * cache.gate
    nf, d = cfg.n_filters, cfg.d_embed
    dE = np.zeros((len(cache.padded_ids), d))  # gradient of every packed token row
    for first, last in cache.chunks:
        for j, k in enumerate(cfg.kernel_sizes):
            c = coef[first:last, j * nf:(j + 1) * nf]
            store.grad(f"enc.conv{k}.b")[:] += c.sum(axis=0)
            doc, f = np.nonzero(c)
            wins, inv = np.unique(cache.starts[first + doc, j * nf + f], return_inverse=True)
            select = np.zeros((len(wins), nf))  # one row per distinct winning window
            select[inv, f] = c[doc, f]
            windows = store["enc.embed"][cache.padded_ids[wins[:, None] + np.arange(k)]]
            store.grad(f"enc.conv{k}.W")[:] += select.T @ windows.reshape(len(wins), k * d)
            dwin = select @ store[f"enc.conv{k}.W"]
            for off in range(k):
                dE[wins + off] += dwin[:, off * d:(off + 1) * d]
    demb = store.grad("enc.embed")
    add_rows(demb, cache.padded_ids, dE)
    demb[PAD_TOKEN] = 0.0  # pad embedding is pinned at zero


def encode_ehr(tokens, store: ParamStore, cfg: EncoderConfig, train_mode: bool = False,
               dropout_rng: np.random.Generator | None = None) -> tuple[np.ndarray, EncodeCache]:
    """One document as a batch of one: representation (rep_dim,) plus cache."""
    x, cache = encode_batch([tokens], store, cfg, train_mode, dropout_rng)
    return x[0], cache


def encode_backward(dx: np.ndarray, cache: EncodeCache, store: ParamStore,
                    cfg: EncoderConfig) -> None:
    """Accumulate encoder gradients for one document's upstream dx (rep_dim,)."""
    encode_batch_backward(dx[None], cache, store, cfg)
