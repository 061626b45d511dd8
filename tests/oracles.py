"""Loop-form reference implementations that the tests compare the package's
vectorized code against."""

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import expit

from ehrpath.alignment import AlignmentMatrix, step_targets
from ehrpath.corpus import PAD_TOKEN
from ehrpath.discriminator import CLAMP, DiscriminatorConfig, LabeledPrefix
from ehrpath.encoder import EncoderConfig, embed_tokens
from ehrpath.generator import MixtureDistribution, generator_step_loss
from ehrpath.lstm import LstmCache, lstm_step, lstm_step_backward
from ehrpath.numerics import AdamConfig, ParamStore, add_rows


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


# The encoder one document at a time, with each kernel's windows copied out
# of the embedding rows: the reference for ehrpath.encoder's packed batch.

@dataclass
class DocumentEncodeCache:
    padded_ids: np.ndarray
    windows: dict[int, np.ndarray]   # kernel -> (positions, k*d) flattened windows
    pooled_raw: dict[int, np.ndarray]  # kernel -> pooled values before dropout
    argmax: dict[int, np.ndarray]      # kernel -> argmax position per filter
    dropout_mask: np.ndarray | None


def document_encode(tokens, store: ParamStore, cfg: EncoderConfig, train_mode: bool = False,
                    dropout_rng: np.random.Generator | None = None
                    ) -> tuple[np.ndarray, DocumentEncodeCache]:
    """Document token ids -> representation (rep_dim,) plus backward cache."""
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
        mask = (dropout_rng.random(cfg.rep_dim) >= cfg.dropout) / (1.0 - cfg.dropout)
        x = x * mask
    return x, DocumentEncodeCache(padded, windows, pooled, argmax, mask)


def document_encode_backward(dx: np.ndarray, cache: DocumentEncodeCache, store: ParamStore,
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
    demb[PAD_TOKEN] = 0.0


def adam_update_with_temporaries(params: np.ndarray, grad: np.ndarray, m: np.ndarray,
                                 v: np.ndarray, step: int, cfg: AdamConfig) -> None:
    """One Adam update of one slot in place, as one expression with its
    temporaries: the reference for numerics.adam_step's scratch buffer."""
    bc1 = 1.0 - cfg.beta1 ** step
    bc2 = 1.0 - cfg.beta2 ** step
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grad * grad
    params -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)


def pla_loss(distributions: Sequence[MixtureDistribution], alignment: AlignmentMatrix) -> float:
    """Sum of -log p over assigned (step, label) pairs plus -log p(STOP) at
    the first unassigned step; probabilities floored at 1e-12."""
    stop_id = distributions[0].probs.shape[0] - 2
    targets = step_targets(alignment, len(distributions), stop_id)
    return sum(generator_step_loss(dist, tgt)
               for dist, tgt in zip(distributions, targets) if tgt is not None)


# The LSTM cell with one weight and one bias slot per gate,
# `{prefix}.W{gate}` (H, H + in) and `{prefix}.b{gate}` (H,): the reference
# for the fused cell in ehrpath.lstm, whose slots stack these in GATES order.

GATES = ("f", "i", "c", "o")


def init_four_gate_lstm_params(store: ParamStore, prefix: str, input_dim: int, hidden: int,
                               rng: np.random.Generator | None) -> None:
    for gate in GATES:
        store.add_uniform(f"{prefix}.W{gate}", (hidden, hidden + input_dim), rng)
        store.add_uniform(f"{prefix}.b{gate}", (hidden,), rng)


def four_gate_lstm_step(store: ParamStore, prefix: str, h_prev: np.ndarray, c_prev: np.ndarray,
                        x_in: np.ndarray, activation: str = "relu",
                        ) -> tuple[np.ndarray, np.ndarray, LstmCache]:
    """(h_prev, c_prev, x_in) -> (h, c, cache), each (rows, .).

    f, i, o are sigmoid gates over [h_prev, x_in]; the candidate uses
    `activation`; c = f*c_prev + i*candidate; h = o*tanh(c).
    """
    z = np.concatenate([h_prev, x_in], axis=1)
    f = expit(z.dot(store[f"{prefix}.Wf"].T) + store[f"{prefix}.bf"])
    i = expit(z.dot(store[f"{prefix}.Wi"].T) + store[f"{prefix}.bi"])
    g_pre = z.dot(store[f"{prefix}.Wc"].T) + store[f"{prefix}.bc"]
    if activation == "relu":
        g = np.maximum(g_pre, 0.0)
    elif activation == "tanh":
        g = np.tanh(g_pre)
    else:
        raise ValueError(f"unknown candidate activation {activation!r}")
    o = expit(z.dot(store[f"{prefix}.Wo"].T) + store[f"{prefix}.bo"])
    c = f * c_prev + i * g
    tau = np.tanh(c)
    h = o * tau
    return h, c, LstmCache(z, f, i, g_pre, g, o, c_prev, c, tau, activation)


def four_gate_lstm_step_backward(store: ParamStore, prefix: str, dh: np.ndarray,
                                 dc_in: np.ndarray, cache: LstmCache,
                                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate gate-weight gradients, every row's added; return
    (dh_prev, dc_prev, dx_in), each (rows, .)."""
    hidden = dh.shape[1]
    do = dh * cache.tau
    dc = dc_in + dh * cache.o * (1.0 - cache.tau ** 2)
    df = dc * cache.c_prev
    di = dc * cache.g
    dg = dc * cache.i
    dc_prev = dc * cache.f

    da_f = df * cache.f * (1.0 - cache.f)
    da_i = di * cache.i * (1.0 - cache.i)
    da_o = do * cache.o * (1.0 - cache.o)
    if cache.activation == "relu":
        da_g = dg * (cache.g_pre > 0.0)
    else:
        da_g = dg * (1.0 - cache.g ** 2)

    dz = np.zeros_like(cache.z)
    for gate, da in (("f", da_f), ("i", da_i), ("c", da_g), ("o", da_o)):
        store.add_outer(f"{prefix}.W{gate}", da, cache.z)
        store.grad(f"{prefix}.b{gate}")[:] += da.sum(axis=0)
        dz += da @ store[f"{prefix}.W{gate}"]
    return dz[:, :hidden], dc_prev, dz[:, hidden:]


# The path scorer one prefix at a time, each from zero state (a path of L
# codes costs L(L+1)/2 LSTM steps). The LSTM steps one-row arrays.

def encode_path(prefix: Sequence[int], store: ParamStore,
                cfg: DiscriminatorConfig) -> tuple[np.ndarray, list[LstmCache]]:
    """Run the path LSTM left-to-right from zero state; returns the final
    hidden state (hidden,) and the per-step caches."""
    if len(prefix) == 0:
        raise ValueError("cannot encode an empty prefix")
    if any(not 0 <= c < cfg.n_total for c in prefix):
        raise ValueError(f"prefix {tuple(prefix)} contains ids outside vocabulary of {cfg.n_total}")
    h = np.zeros((1, cfg.hidden))
    c = np.zeros((1, cfg.hidden))
    caches = []
    for code in prefix:
        h, c, cache = lstm_step(store, "disc.lstm", h, c, store["disc.code_embed"][[code]],
                                cfg.candidate_activation)
        caches.append(cache)
    return h[0], caches


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
        dh = dlogit * w[None, :cfg.hidden]
        dc = np.zeros((1, cfg.hidden))
        for k in range(len(caches) - 1, -1, -1):
            dh, dc, dx_in = lstm_step_backward(store, "disc.lstm", dh, dc, caches[k])
            store.grad("disc.code_embed")[pf.codes[k]] += dx_in[0]
    return total * scale
