"""Multi-channel text-CNN document encoder over a batch of documents.

Embeds token ids, runs one ReLU convolution bank per kernel size, max-pools
each feature map over the document's own windows, and concatenates the
pooled values (kernel sizes ascending, filters ascending) into one vector
per document, with inverted dropout at train time. Per chunk of packed token
rows and kernel, k GEMMs, one per filter offset block, accumulate in place in
the feature map; the backward takes a CSR selection of the winning windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.sparse import csr_array

from .corpus import PAD_TOKEN
from .numerics import ParamStore, Slots, add_rows, uniform_init


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


def encoder_slots(cfg: EncoderConfig, rng: np.random.Generator | None) -> Slots:
    cfg.validate()
    emb = uniform_init((cfg.vocab_size, cfg.d_embed), rng)
    emb[PAD_TOKEN] = 0.0  # pad row stays zero; its gradient is discarded
    return [("enc.embed", emb)] + [
        slot for k in cfg.kernel_sizes
        for slot in ((f"enc.conv{k}.W", uniform_init((cfg.n_filters, k * cfg.d_embed), rng)),
                     (f"enc.conv{k}.b", uniform_init((cfg.n_filters,), rng)))]


def embed_tokens(tokens, store: ParamStore, cfg: EncoderConfig) -> np.ndarray:
    """Token ids (n,) -> embedding rows (n, d_embed)."""
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id outside dictionary of size {cfg.vocab_size}")
    return store["enc.embed"][ids]


# packed token rows encoded together: a desk batch or a few long notes, whose maps stay in cache
ROW_BUDGET = 1024


@dataclass
class EncodeCache:
    padded_ids: np.ndarray         # (rows,) every document's padded token ids, end to end
    chunks: list[tuple[int, int]]  # documents [first, last) encoded together
    starts: np.ndarray             # (B, rep_dim) packed row of each winning window
    gate: np.ndarray               # (B, rep_dim) dropout mask where the ReLU is open, else 0


def encode_batch(token_lists, store: ParamStore, cfg: EncoderConfig,
                 dropout_rng: np.random.Generator | None = None
                 ) -> tuple[np.ndarray, EncodeCache]:
    """B documents' token ids -> representations (B, rep_dim) plus backward
    cache. Documents shorter than the largest kernel are right-padded with
    the zero-embedding pad token. Given a dropout_rng (train mode), draws one
    (B, rep_dim) dropout mask from it; without one, eval mode is
    deterministic."""
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
            n_win = len(E) - k + 1
            fmap = np.empty((nf, n_win))  # [f, r]: filter f on the window from row r
            fmap[:] = store[f"enc.conv{k}.b"][:, None]
            # in place into fmap.T (F-contiguous): += E[off:off + n_win] @ w.T per offset block w
            for off, w in enumerate(store[f"enc.conv{k}.W"].reshape(nf, k, -1).swapaxes(0, 1)):
                dgemm(1.0, E[off:off + n_win].T, w.T, 1.0, fmap.T, trans_a=1, overwrite_c=True)
            np.maximum(fmap, 0.0, out=fmap)
            counts = np.diff(doc_rows) - k + 1  # each document's windows, then its last again
            rows = doc_rows[:-1, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)
            best = doc_rows[:-1, None] + np.take(fmap, rows, axis=1).argmax(axis=2).T
            pooled[first:last, j * nf:(j + 1) * nf] = fmap[np.arange(nf), best]
            starts[first:last, j * nf:(j + 1) * nf] = best + bounds[first]

    # gradient passes where the winning window's ReLU was open (pooled value > 0)
    gate = (pooled > 0.0).astype(float)
    if dropout_rng is not None and cfg.dropout > 0.0:
        mask = (dropout_rng.random(pooled.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        return pooled * mask, EncodeCache(padded, chunks, starts, gate * mask)
    return pooled, EncodeCache(padded, chunks, starts, gate)


def encode_batch_backward(dX: np.ndarray, cache: EncodeCache, store: ParamStore,
                          cfg: EncoderConfig) -> None:
    """Accumulate encoder gradients for an upstream dX (B, rep_dim)."""
    coef = dX * cache.gate
    nf, d, k_max = cfg.n_filters, cfg.d_embed, max(cfg.kernel_sizes)
    ids = np.append(cache.padded_ids, [PAD_TOKEN] * (k_max - 1))  # room for the widest window
    dE = np.zeros((len(ids), d))  # gradient of every packed token row
    W = np.vstack([np.hstack((store[f"enc.conv{k}.W"], np.zeros((nf, (k_max - k) * d))))
                   for k in cfg.kernel_sizes])  # every kernel's filters, zero past its own k
    for first, last in cache.chunks:
        c, s = coef[first:last].ravel(), cache.starts[first:last].ravel()
        hit = np.flatnonzero(c)[np.argsort(s[c != 0], kind="stable")]  # open winners, by window
        win = s[hit]
        rows = np.flatnonzero(win != np.concatenate(([-1], win[:-1])))  # where a window starts
        wins = win[rows]
        select = csr_array((c[hit], hit % cfg.rep_dim, np.append(rows, len(win))),
                           shape=(len(wins), cfg.rep_dim))
        windows = store["enc.embed"][ids[wins[:, None] + np.arange(k_max)]]
        dW = select.T @ windows.reshape(len(wins), k_max * d)
        dwin = select @ W
        for off in range(k_max):
            dE[wins + off] += dwin[:, off * d:(off + 1) * d]
        for j, k in enumerate(cfg.kernel_sizes):
            store.grad(f"enc.conv{k}.W")[:] += dW[j * nf:(j + 1) * nf, :k * d]
            store.grad(f"enc.conv{k}.b")[:] += coef[first:last, j * nf:(j + 1) * nf].sum(axis=0)
    demb = store.grad("enc.embed")
    add_rows(demb, ids, dE)
    demb[PAD_TOKEN] = 0.0  # pad embedding is pinned at zero


def encode_ehr(tokens, store: ParamStore, cfg: EncoderConfig,
               dropout_rng: np.random.Generator | None = None) -> tuple[np.ndarray, EncodeCache]:
    """One document as a batch of one: representation (rep_dim,) plus cache."""
    x, cache = encode_batch([tokens], store, cfg, dropout_rng)
    return x[0], cache


def encode_backward(dx: np.ndarray, cache: EncodeCache, store: ParamStore,
                    cfg: EncoderConfig) -> None:
    """Accumulate encoder gradients for one document's upstream dx (rep_dim,)."""
    encode_batch_backward(dx[None], cache, store, cfg)
