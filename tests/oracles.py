"""Loop-form reference implementations that the tests compare the package's
vectorized code against."""

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import expit

from ehrpath.alignment import step_targets
from ehrpath.corpus import PAD_TOKEN, CorpusConfig, EhrDocument
from ehrpath.discriminator import CLAMP, DiscriminatorConfig
from ehrpath.encoder import EncoderConfig, embed_tokens
from ehrpath.generator import (PROB_FLOOR, DecoderTables, MixtureDistribution, StepTrace,
                               _mixture_forward, _mixture_from_scores)
from ehrpath.lstm import LstmCache, lstm_step, lstm_step_backward
from ehrpath.numerics import (ParamStore, Slots, adam_step, add_rows, named_rng,
                              uniform_init)
from ehrpath.trainer import _aligned_forward, _decoder_backward, _epoch, _start


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


def document_encode(tokens, store: ParamStore, cfg: EncoderConfig,
                    dropout_rng: np.random.Generator | None = None
                    ) -> tuple[np.ndarray, DocumentEncodeCache]:
    """Document token ids -> representation (rep_dim,) plus backward cache;
    a dropout_rng means train mode."""
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
    if dropout_rng is not None and cfg.dropout > 0.0:
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


def per_slot_errors(f: Callable[[ParamStore], float], store: ParamStore,
                    analytic: Mapping[str, np.ndarray], rng: np.random.Generator,
                    eps: float = 1e-6, per_slot: int = 16) -> dict[str, float]:
    """Central differences of f against the analytic gradient of each slot
    named in `analytic`, on per_slot coordinates of the slot: half of them
    drawn among its nonzero analytic entries (all of them, if fewer), the
    rest uniformly within it, so that a gradient dropped to zero is still
    sampled where the numeric one is not. Returns, per slot, the relative
    error ||n - a|| / max(||n||, ||a||) over its coordinates, or 0 where
    both norms are 0."""
    errors = {}
    for name, grad in analytic.items():
        flat = np.asarray(grad).reshape(-1)
        nonzero = np.flatnonzero(flat)
        coords = np.concatenate([
            rng.choice(nonzero, size=min(per_slot // 2, nonzero.size), replace=False),
            rng.choice(flat.size, size=min(per_slot - per_slot // 2, flat.size), replace=False)])
        p = store[name].reshape(-1)
        numeric = np.empty(coords.size)
        for j, i in enumerate(coords):
            old = p[i]
            p[i] = old + eps
            f_plus = f(store)
            p[i] = old - eps
            f_minus = f(store)
            p[i] = old
            numeric[j] = (f_plus - f_minus) / (2.0 * eps)
        scale = max(np.linalg.norm(numeric), np.linalg.norm(flat[coords]))
        errors[name] = float(np.linalg.norm(numeric - flat[coords]) / scale) if scale else 0.0
    return errors


def adam_update_with_temporaries(params: np.ndarray, grad: np.ndarray, m: np.ndarray,
                                 v: np.ndarray, step: int, learning_rate: float) -> None:
    """One Adam update of one slot in place, as one expression with its
    temporaries, at the textbook decays 0.9 and 0.999 and epsilon 1e-8: the
    reference for numerics.adam_step's scratch buffer."""
    bc1 = 1.0 - 0.9 ** step
    bc2 = 1.0 - 0.999 ** step
    m *= 0.9
    m += (1.0 - 0.9) * grad
    v *= 0.999
    v += (1.0 - 0.999) * grad * grad
    params -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def generator_step_loss(probs: np.ndarray, target: int) -> float:
    """Negative log probability of the target id under one row of
    probabilities, floored at 1e-12: the loop-form reference for the
    per-step terms of ehrpath.generator.step_losses."""
    if not 0 <= target < probs.shape[0]:
        raise ValueError(f"target {target} outside distribution of {probs.shape[0]}")
    return float(-np.log(max(float(probs[target]), PROB_FLOOR)))


def path_loss_loop(traces: Sequence[StepTrace],
                   step_targets: Sequence[tuple[int, float] | None]) -> float:
    """Sum of weight * (-log p(target)) over one document's steps with a
    target, p floored at PROB_FLOOR, added one step after another: the
    loop-form reference for ehrpath.generator.path_loss."""
    total = 0.0
    for trace, tw in zip(traces, step_targets):
        if tw is not None:
            total += tw[1] * -np.log(max(float(trace.probs[0, tw[0]]), PROB_FLOOR))
    return float(total)


def pla_loss(probs: Sequence[np.ndarray], alignment: Mapping[int, int]) -> float:
    """Sum of -log p over assigned step -> label pairs plus -log p(STOP) at
    the first unassigned step, given one probability row per step;
    probabilities floored at 1e-12."""
    stop_id = len(probs[0]) - 2
    targets, weights = step_targets(alignment, len(probs), stop_id)
    return sum(generator_step_loss(row, int(tgt)) for row, tgt, w in zip(probs, targets, weights)
               if w)


def aligned_losses(fwd) -> list[float]:
    """Each document's aligned loss in a batch forward, in loop form: the
    sum of generator_step_loss over its supervised steps, in step order."""
    return [sum(generator_step_loss(probs[t], int(targets[t])) for t in np.flatnonzero(weights))
            for probs, targets, weights in zip(fwd.probs, fwd.targets, fwd.weights)]


def step_row(record, b: int):
    """Row b of a lockstep step as a one-row step, the inverse of
    ehrpath.generator._concat: every array and list field is sliced to row
    b, nested records likewise; any other field (the tables) stays."""
    parts = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, (np.ndarray, list)):
            value = value[b:b + 1]
        elif is_dataclass(value):
            value = step_row(value, b)
        parts[f.name] = value
    return type(record)(**parts)


def fuse_forward(x: np.ndarray, code_vec: np.ndarray,
                 store: ParamStore) -> tuple[np.ndarray, np.ndarray]:
    """Six-block feature fusion of document and code vectors, one row each
    (or one vector each): tanh([x, c, x*c, x+c, x-c, c-x] @ W.T), plus the
    feature blocks. The reference for the folded fusion of
    ehrpath.generator's DecoderTables."""
    if x.shape != code_vec.shape:
        raise ValueError(f"fusion inputs disagree: x {x.shape} vs code {code_vec.shape}")
    u = np.concatenate([x, code_vec, x * code_vec, x + code_vec, x - code_vec, code_vec - x],
                       axis=-1)
    return np.tanh(u.dot(store["gen.fuse.W"].T)), u


def mixture_forward_row(h, prev_code, table, store, cfg) -> MixtureDistribution:
    """_mixture_forward on one hidden state (rep,) and its previous code, as
    the record StepTrace.dist builds (the step's other fields unset)."""
    tables = DecoderTables(store, cfg, table)
    probs, shares = _mixture_forward(h[None], [prev_code], tables)
    unset = {f.name: None for f in fields(StepTrace)}
    return StepTrace(**{**unset, "prev_codes": [prev_code], "probs": probs, "shares": shares,
                        "tables": tables}).dist


def mixture_scores_row(gen_scores, copy_scores, copy_ids) -> MixtureDistribution:
    """_mixture_from_scores on one row of scores (1, n_total), its copy
    scores and copy_ids, the row's one tuple of candidates in a list, as the
    record StepTrace.dist builds; the copy scores of the other ids are
    -inf."""
    (ids,) = copy_ids
    scores = np.concatenate([gen_scores, np.full(gen_scores.shape, -np.inf)], axis=1)
    scores[0, gen_scores.shape[1] + np.array(ids, dtype=np.int64)] = copy_scores
    probs, shares = _mixture_from_scores(scores)
    return MixtureDistribution(probs[0], shares[0, gen_scores.shape[1]:], tuple(ids))


# The mixture head in candidate-list form: each row's copy candidates are
# listed, their copy keys gathered and their scores scattered into place.
# The reference for the dense head of ehrpath.generator, which masks the
# copy scores of the whole code table instead.

@dataclass
class ScatterCache:
    exp_gen: np.ndarray            # (R, n_total) shifted exps of generate scores
    exp_copy: np.ndarray           # (R, n_total) shifted exps of copy scores, 0 off the candidates
    z: np.ndarray                  # (R,) shifted normalizers


def candidates(copy_ids: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The copy candidate ids of all rows, concatenated, and the row of each."""
    ids = [c for row in copy_ids for c in row]
    owner = [r for r, row in enumerate(copy_ids) for _ in row]
    return np.array(ids, dtype=np.int64), np.array(owner, dtype=np.int64)


def scatter_mixture_from_scores(gen_scores: np.ndarray, copy_scores: np.ndarray, ids: np.ndarray,
                                owner: np.ndarray) -> tuple[np.ndarray, ...]:
    """Combine the two score families of each row under one shared-shift
    normalizer: gen_scores (R, n_total), copy_scores (M,) for the copy
    candidates ids of rows owner (distinct within a row; see candidates).
    Returns the probabilities (R, n_total), and the shifted exps, the copy
    ones placed at their ids, and their per-row sums, which the backward
    reuses."""
    shift = gen_scores.max(axis=1, keepdims=True)
    exp_copy = np.zeros(gen_scores.shape)
    if copy_scores.size:
        np.maximum.at(shift[:, 0], owner, copy_scores)
        exp_copy[owner, ids] = np.exp(copy_scores - shift[owner, 0])
    exp_gen = np.exp(gen_scores - shift)
    z = exp_gen.sum(axis=1, keepdims=True) + exp_copy.sum(axis=1, keepdims=True)
    return exp_gen / z + exp_copy / z, exp_gen, exp_copy, z[:, 0]


def scatter_mixture_forward(h: np.ndarray, prev_codes: Sequence[int], table, store: ParamStore,
                            cfg, tables: DecoderTables) -> tuple[np.ndarray, list, ScatterCache]:
    """Next-code probabilities (R, n_total) of each row of h (R, rep) given
    its previous code, each row's copy candidates, whose copy keys are read
    from the tables (none for a row without candidates), and the cache."""
    copy_ids = ([()] * len(prev_codes) if cfg.no_copy
                else [table.partners(p) for p in prev_codes])
    ids, owner = candidates(copy_ids)
    copy_scores = (tables.copy_key.take(ids, axis=0) * h.take(owner, axis=0)).sum(axis=1)
    probs, exp_gen, exp_copy, z = scatter_mixture_from_scores(h.dot(store["gen.out.W"].T),
                                                              copy_scores, ids, owner)
    return probs, copy_ids, ScatterCache(exp_gen, exp_copy, z)


def scatter_mixture_backward(store: ParamStore, h: np.ndarray, copy_ids: list,
                             mix: ScatterCache, tables: DecoderTables, target: np.ndarray,
                             weight: np.ndarray) -> np.ndarray:
    """Gradient of each row's weight * (-log p(target)) through the
    candidate-list head: accumulates the gen.out.W gradient and, through
    each candidate's copy key, the gen.copy.W, gen.code_proj and
    gen.code_embed ones, and returns dh (R, rep). A row of weight 0, or
    whose target probability is below the floor, contributes nothing."""
    rows = np.arange(len(target))
    numer = mix.exp_gen[rows, target] + mix.exp_copy[rows, target]
    live = ~(numer / mix.z < PROB_FLOOR)
    weight = np.where(live, weight, 0.0)
    numer = np.where(live, numer, 1.0)
    dpsi_g = weight[:, None] * mix.exp_gen / mix.z[:, None]
    dpsi_g[rows, target] -= weight * mix.exp_gen[rows, target] / numer
    store.add_outer("gen.out.W", dpsi_g, h)
    dh = dpsi_g @ store["gen.out.W"]
    ids, owner = candidates(copy_ids)
    if ids.size:
        tanh_rows = tables.copy_key.take(ids, axis=0)
        dpsi_c = weight[:, None] * mix.exp_copy / mix.z[:, None]
        dpsi_c[rows, target] -= weight * mix.exp_copy[rows, target] / numer
        dpsi_c = dpsi_c[owner, ids]
        spread = np.zeros((len(rows), ids.size))
        spread[owner, np.arange(ids.size)] = dpsi_c
        dh += spread @ tanh_rows
        d_pre = dpsi_c[:, None] * h[owner] * (1.0 - tanh_rows ** 2)
        store.add_outer("gen.copy.W", tables.code_vec.take(ids, axis=0), d_pre)
        d_proj = d_pre @ store["gen.copy.W"].T
        store.add_outer("gen.code_proj", d_proj, store["gen.code_embed"].take(ids, axis=0))
        add_rows(store.grad("gen.code_embed"), ids, d_proj @ store["gen.code_proj"])
    return dh


def fold_six_blocks(fuse_w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The folded fusion blocks A, C and M of gen.fuse.W in seven passes
    over its column blocks: the reference for DecoderTables' one-pass fold."""
    w = np.hsplit(fuse_w, 6)
    a, c = w[0] + w[3], w[1] + w[3]
    a += w[4]
    a -= w[5]
    c -= w[4]
    c += w[5]
    return a, c, w[2].copy()


def supervised_batch(model, batch, table, cfg, dropout_rng) -> float:
    """The supervised update on its own: zeroed gradients, the aligned loss
    at weight 1, then scale, clip and Adam; returns the batch-mean loss. The
    reference for adversarial_round under no_arl or a zero advantage."""
    model.gen_store.zero_grads()
    fwd = _aligned_forward(model, batch, table, dropout_rng)
    _decoder_backward(model, fwd, 1.0)
    model.gen_store.scale_grads(1.0 / len(batch))
    model.gen_store.clip_grads(cfg.clip_norm)
    adam_step(model.gen_store, cfg.learning_rate)
    return sum(fwd.losses()) / len(batch)


def pretrain_generator(bundle, cfg) -> tuple:
    """Supervised pretraining only; returns the final model and per-epoch
    losses. `train` with epochs=0 runs the same pretraining epochs."""
    model, train_docs, dropout_rng, shuffle_rng = _start(bundle, cfg)
    sup_cfg = replace(cfg, no_arl=True)
    return model, [_epoch(model, train_docs, bundle.table, sup_cfg, dropout_rng, shuffle_rng,
                          epoch)["gen"] for epoch in range(cfg.pretrain_epochs)]


# The LSTM cell with one weight and one bias slot per gate,
# `{prefix}.W{gate}` (H, H + in) and `{prefix}.b{gate}` (H,): the reference
# for the fused cell in ehrpath.lstm, whose slots stack these in GATES order.

GATES = ("f", "i", "c", "o")


def four_gate_lstm_slots(prefix: str, input_dim: int, hidden: int,
                         rng: np.random.Generator | None) -> Slots:
    slots = []
    for gate in GATES:
        slots.append((f"{prefix}.W{gate}", uniform_init((hidden, hidden + input_dim), rng)))
        slots.append((f"{prefix}.b{gate}", uniform_init((hidden,), rng)))
    return slots


def four_gate_lstm_step(store: ParamStore, prefix: str, h_prev: np.ndarray, c_prev: np.ndarray,
                        x_in: np.ndarray) -> tuple[np.ndarray, np.ndarray, LstmCache]:
    """(h_prev, c_prev, x_in) -> (h, c, cache), each (rows, .).

    f, i, o are sigmoid gates and the candidate a ReLU, all over
    [h_prev, x_in]; c = f*c_prev + i*candidate; h = o*tanh(c).
    """
    z = np.concatenate([h_prev, x_in], axis=1)
    f = expit(z.dot(store[f"{prefix}.Wf"].T) + store[f"{prefix}.bf"])
    i = expit(z.dot(store[f"{prefix}.Wi"].T) + store[f"{prefix}.bi"])
    g_pre = z.dot(store[f"{prefix}.Wc"].T) + store[f"{prefix}.bc"]
    g = np.maximum(g_pre, 0.0)
    o = expit(z.dot(store[f"{prefix}.Wo"].T) + store[f"{prefix}.bo"])
    c = f * c_prev + i * g
    tau = np.tanh(c)
    h = o * tau
    return h, c, LstmCache(z=z, f=f, i=i, g_pre=g_pre, g=g, o=o, c_prev=c_prev, tau=tau)


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
    da_g = dg * (cache.g_pre > 0.0)

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
        h, c, cache = lstm_step(store, "disc.lstm", h, c, store["disc.code_embed"][[code]])
        caches.append(cache)
    return h[0], caches


def reward(prefix: Sequence[int], x: np.ndarray, store: ParamStore,
           cfg: DiscriminatorConfig) -> float:
    """Sigmoid of the linear map over [path encoding, document vector]."""
    h, _ = encode_path(prefix, store, cfg)
    logit = float(store["disc.reward.W"] @ np.concatenate([h, x]) + store["disc.reward.b"][0])
    return float(expit(logit))


def discriminator_loss(paths: Sequence[Sequence[int]], positive: Sequence[bool], x: np.ndarray,
                       store: ParamStore, cfg: DiscriminatorConfig) -> float:
    """Mean binary cross-entropy over every prefix of every path, each with
    its path's label and document row, probabilities clamped to
    [1e-12, 1 - 1e-12]. Accumulates gradients for the scorer parameters
    only; the document rows are treated as data.
    """
    prefixes = [(tuple(path[:k]), label, row) for path, label, row in zip(paths, positive, x)
                for k in range(1, len(path) + 1)]
    if len(prefixes) == 0:
        raise ValueError("empty discriminator batch")
    total = 0.0
    scale = 1.0 / len(prefixes)
    w = store["disc.reward.W"]
    for codes, label, row in prefixes:
        h, caches = encode_path(codes, store, cfg)
        feats = np.concatenate([h, row])
        p = float(expit(float(w @ feats + store["disc.reward.b"][0])))
        clamped = min(max(p, CLAMP), 1.0 - CLAMP)
        total += -np.log(clamped) if label else -np.log(1.0 - clamped)
        # d(-log p)/dlogit = p - 1 for positives, p for negatives; zero when
        # the clamp is active (the loss is locally constant there)
        if CLAMP <= p <= 1.0 - CLAMP:
            dlogit = scale * (p - 1.0 if label else p)
        else:
            dlogit = 0.0
        store.grad("disc.reward.W")[:] += dlogit * feats
        store.grad("disc.reward.b")[:] += dlogit
        dh = dlogit * w[None, :cfg.hidden]
        dc = np.zeros((1, cfg.hidden))
        for k in range(len(caches) - 1, -1, -1):
            dh, dc, dx_in = lstm_step_backward(store, "disc.lstm", dh, dc, caches[k])
            store.grad("disc.code_embed")[codes[k]] += dx_in[0]
    return total * scale


def synthetic_documents(cfg: CorpusConfig) -> list[EhrDocument]:
    """corpus.generate_synthetic_corpus's documents, drawn one Generator.choice
    and one token at a time."""
    rng = named_rng(cfg.seed, "corpus")
    block = (cfg.vocab_size - 1) // (cfg.num_codes + 1)
    bg_start = 1 + cfg.num_codes * block
    targets = {b for _, b, _ in cfg.planted_pairs}
    samplable = np.array([c for c in range(cfg.num_codes) if c not in targets])
    weights = 1.0 / (np.arange(len(samplable)) + 1.0) ** cfg.code_skew
    weights /= weights.sum()
    documents = []
    for _ in range(cfg.num_docs):
        n_tokens = int(rng.integers(cfg.doc_len[0], cfg.doc_len[1] + 1))
        gold = {int(rng.choice(samplable, p=weights))}
        if rng.random() < cfg.extra_code_prob:
            gold.add(int(rng.choice(samplable)))
        for a, b, p in cfg.planted_pairs:
            if a in gold and rng.random() < p:
                gold.add(b)
        ordered = sorted(gold)
        signal = rng.random(n_tokens) < cfg.signal_strength
        which = rng.integers(0, len(ordered), size=n_tokens)
        offsets = rng.integers(0, block, size=n_tokens)
        bg = rng.integers(0, cfg.vocab_size - bg_start, size=n_tokens)
        tokens = tuple(int(1 + ordered[w] * block + o) if s else int(bg_start + g)
                       for s, w, o, g in zip(signal, which, offsets, bg))
        documents.append(EhrDocument(tokens, frozenset(gold)))
    return documents


def complication_pairs(documents: Sequence[EhrDocument], or_threshold: float,
                       min_support: int) -> dict[tuple[int, int], float]:
    """corpus.build_complication_table's pairs, one 2x2 table per code pair."""
    n_codes = max(max(doc.gold_codes) for doc in documents) + 1
    pairs = {}
    for a in range(n_codes):
        for b in range(a + 1, n_codes):
            n11 = sum({a, b} <= doc.gold_codes for doc in documents)
            if n11 < min_support:
                continue
            n10 = sum(a in doc.gold_codes for doc in documents) - n11
            n01 = sum(b in doc.gold_codes for doc in documents) - n11
            cells = [float(n11), float(n10), float(n01), float(len(documents) - n11 - n10 - n01)]
            if min(cells) == 0.0:
                cells = [c + 0.5 for c in cells]
            orr = (cells[0] * cells[3]) / (cells[1] * cells[2])
            if orr >= or_threshold:
                pairs[(a, b)] = orr
    return pairs
