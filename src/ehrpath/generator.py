"""Greedy label-path decoder.

Per step: the previous code's embedding is projected into the document
representation space, fused with the document vector through a six-block
feature concatenation and tanh projection, gated elementwise by the
projected code vector, and fed to an LSTM. The new hidden state scores the
next code under two competing modes sharing one normalizer: a generate
mode over the whole code vocabulary (plus STOP and UNK) and a copy mode
restricted to the previous code's complication partners. Decoding is
greedy with repetition masking and terminates at STOP.

Teacher-forced steps run a batch of documents in lockstep: step t feeds
the documents that still have an input at t through one GEMM per weight
matrix, and the copy candidates of all of them through one more. One
document is a batch of one: `generator_step` (greedy decoding's step),
`run_steps` and `sequence_backward` are the lockstep functions on it.
As in `lstm`, the forward products use `ndarray.dot` for its lower fixed
cost per call on one row.

All gradients are hand-derived; `batch_backward` runs the full backward
pass through the mixture head, LSTM, fusion, and projections, returning
the gradient with respect to each document representation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import CodeIds, ComplicationTable
from .lstm import (CANDIDATE_ACTIVATIONS, LstmCache, init_lstm_params, lstm_step,
                   lstm_step_backward)
from .numerics import ParamStore, add_rows

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class GeneratorConfig(CodeIds):
    n_codes: int                      # real codes; STOP and UNK are appended
    d_code: int = 100
    rep_dim: int = 300
    candidate_activation: str = "relu"
    no_copy: bool = False
    max_len: int = 8

    def validate(self) -> None:
        if self.candidate_activation not in CANDIDATE_ACTIVATIONS:
            raise ValueError(f"candidate_activation must be one of {CANDIDATE_ACTIVATIONS}, "
                             f"got {self.candidate_activation!r}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


def init_generator_params(store: ParamStore, cfg: GeneratorConfig,
                          rng: np.random.Generator | None) -> None:
    cfg.validate()
    store.add_uniform("gen.code_embed", (cfg.n_total, cfg.d_code), rng)
    store.add_uniform("gen.code_proj", (cfg.rep_dim, cfg.d_code), rng)
    store.add_uniform("gen.fuse.W", (cfg.rep_dim, 6 * cfg.rep_dim), rng)
    init_lstm_params(store, "gen.lstm", cfg.rep_dim, cfg.rep_dim, rng)
    store.add_uniform("gen.out.W", (cfg.n_total, cfg.rep_dim), rng)
    store.add_uniform("gen.copy.W", (cfg.rep_dim, cfg.rep_dim), rng)


def _fuse_forward(x: np.ndarray, code_vec: np.ndarray, store: ParamStore) -> tuple[np.ndarray, np.ndarray]:
    """Six-block feature fusion of document and code vectors, one row each
    (or one vector each): tanh([x, c, x*c, x+c, x-c, c-x] @ W.T), plus the
    feature blocks."""
    if x.shape != code_vec.shape:
        raise ValueError(f"fusion inputs disagree: x {x.shape} vs code {code_vec.shape}")
    u = np.concatenate([x, code_vec, x * code_vec, x + code_vec, x - code_vec, code_vec - x],
                       axis=-1)
    return np.tanh(u.dot(store["gen.fuse.W"].T)), u


@dataclass
class MixtureDistribution:
    """Next-code distribution: total probability per id, its generate/copy
    mass decomposition, the copy candidate ids, and the log normalizer."""
    probs: np.ndarray
    gen_mass: np.ndarray
    copy_mass: np.ndarray
    copy_ids: tuple[int, ...]
    log_z: float


@dataclass
class MixtureCache:
    """Backward cache of the mixture head over R rows. The copy candidates
    of all rows are concatenated row by row, M in all."""
    exp_gen: np.ndarray            # (R, n_total) shifted exps of generate scores
    exp_copy: np.ndarray           # (R, n_total) shifted exps of copy scores, 0 off the candidates
    z: np.ndarray                  # (R,) shifted normalizers
    emb_rows: np.ndarray           # (M, d_code) embeddings of copy candidates
    proj_rows: np.ndarray          # (M, rep) projected candidates
    tanh_rows: np.ndarray          # (M, rep) tanh(candidate^T W_c)


def _candidates(copy_ids: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The copy candidate ids of all rows, concatenated, and the row of each."""
    ids = [c for row in copy_ids for c in row]
    owner = [r for r, row in enumerate(copy_ids) for _ in row]
    return np.array(ids, dtype=np.int64), np.array(owner, dtype=np.int64)


def _mixture_from_scores(gen_scores: np.ndarray, copy_scores: np.ndarray,
                         copy_ids: Sequence[tuple[int, ...]],
                         ) -> tuple[list[MixtureDistribution], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Combine the two score families of each row under one shared-shift
    normalizer: gen_scores (R, n_total), copy_scores (M,) for the rows' copy
    candidates copy_ids (distinct within a row), concatenated. Also returns
    the shifted exps, the copy ones placed at their ids, and their per-row
    sums, which the backward reuses."""
    shift = gen_scores.max(axis=1, keepdims=True)
    exp_copy = np.zeros(gen_scores.shape)
    if copy_scores.size:
        ids, owner = _candidates(copy_ids)
        np.maximum.at(shift[:, 0], owner, copy_scores)
        exp_copy[owner, ids] = np.exp(copy_scores - shift[owner, 0])
    exp_gen = np.exp(gen_scores - shift)
    z = exp_gen.sum(axis=1, keepdims=True) + exp_copy.sum(axis=1, keepdims=True)
    gen_mass = exp_gen / z
    copy_mass = exp_copy / z
    probs = gen_mass + copy_mass
    log_z = (shift + np.log(z))[:, 0].tolist()
    dists = [MixtureDistribution(*row) for row in zip(probs, gen_mass, copy_mass, copy_ids, log_z)]
    return dists, (exp_gen, exp_copy, z[:, 0])


def _mixture_forward(h: np.ndarray, prev_codes: Sequence[int], table: ComplicationTable | None,
                     store: ParamStore, cfg: GeneratorConfig,
                     ) -> tuple[list[MixtureDistribution], MixtureCache]:
    """Next-code distribution of each row of h (R, rep) given its previous
    code; the copy candidates of all rows go through one GEMM."""
    if min(prev_codes) < 0 or max(prev_codes) >= cfg.n_total:
        raise ValueError(f"previous codes {prev_codes} outside vocabulary of {cfg.n_total}")
    copy_ids: list[tuple[int, ...]] = [()] * len(prev_codes)
    if table is not None and not cfg.no_copy:
        copy_ids = [table.partners(p) for p in prev_codes]
    if any(copy_ids):
        ids, owner = _candidates(copy_ids)
        emb_rows = store["gen.code_embed"].take(ids, axis=0)
        proj_rows = emb_rows.dot(store["gen.code_proj"].T)
        tanh_rows = np.tanh(proj_rows.dot(store["gen.copy.W"]))
        copy_scores = (tanh_rows * h.take(owner, axis=0)).sum(axis=1)
    else:
        emb_rows = np.empty((0, cfg.d_code))
        proj_rows = tanh_rows = np.empty((0, cfg.rep_dim))
        copy_scores = np.empty(0)
    dists, (exp_gen, exp_copy, z) = _mixture_from_scores(h.dot(store["gen.out.W"].T), copy_scores,
                                                         copy_ids)
    return dists, MixtureCache(exp_gen, exp_copy, z, emb_rows, proj_rows, tanh_rows)


def generator_step_loss(dist: MixtureDistribution, target: int) -> float:
    """Negative log probability of the target id, floored at 1e-12."""
    if not 0 <= target < dist.probs.shape[0]:
        raise ValueError(f"target {target} outside distribution of {dist.probs.shape[0]}")
    return float(-np.log(max(float(dist.probs[target]), PROB_FLOOR)))


@dataclass
class StepTrace:
    """One decoder step of a batch in lockstep, one row per document (a
    document alone is a batch of one). Every array holds one row per
    document, except the mixture cache's candidate rows."""
    rows: np.ndarray              # (R,) batch positions
    prev_codes: list[int]
    emb_prev: np.ndarray
    code_vec: np.ndarray          # projected previous-code embedding
    u: np.ndarray                 # fusion feature blocks
    fused: np.ndarray             # tanh fusion output
    lstm: LstmCache
    h: np.ndarray
    c: np.ndarray
    dists: list[MixtureDistribution]
    mix: MixtureCache

    @property
    def dist(self) -> MixtureDistribution:
        """The distribution of a one-row step."""
        (dist,) = self.dists
        return dist


def _step(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable | None,
          x: np.ndarray, prev_codes: list[int], h_prev: np.ndarray, c_prev: np.ndarray,
          rows: np.ndarray) -> StepTrace:
    """One lockstep step of the documents at batch positions rows: x,
    h_prev, c_prev (R, rep) and one previous code each; every weight matrix
    is one product over the rows."""
    emb_prev = store["gen.code_embed"].take(prev_codes, axis=0)
    code_vec = emb_prev.dot(store["gen.code_proj"].T)
    fused, u = _fuse_forward(x, code_vec, store)
    h, c, lstm_cache = lstm_step(store, "gen.lstm", h_prev, c_prev, fused * code_vec,
                                 cfg.candidate_activation)
    dists, mix_cache = _mixture_forward(h, prev_codes, table, store, cfg)
    return StepTrace(rows, prev_codes, emb_prev, code_vec, u, fused, lstm_cache, h, c, dists,
                     mix_cache)


_ONE_ROW = np.zeros(1, dtype=np.int64)


def generator_step(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable | None,
                   x: np.ndarray, prev_code: int, h_prev: np.ndarray,
                   c_prev: np.ndarray) -> StepTrace:
    """One step of one document, x, h_prev, c_prev (rep,): _step on a batch
    of one."""
    return _step(store, cfg, table, x[None], [prev_code], h_prev[None], c_prev[None], _ONE_ROW)


def run_batch(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable | None,
              x: np.ndarray, inputs: Sequence[Sequence[int]]) -> list[StepTrace]:
    """Teacher-forced forward of a batch in lockstep: x (B, rep) holds the
    document vectors, and document b consumes inputs[b][t] as the previous
    code at step t, so step t covers the documents with more than t inputs.
    Starts from zero state with STOP as the BOS convention."""
    lengths = np.array([len(seq) for seq in inputs])
    h = np.zeros((len(inputs), cfg.rep_dim))
    c = np.zeros_like(h)
    steps = []
    for t in range(lengths.max(initial=0)):
        rows = np.flatnonzero(lengths > t)
        step = _step(store, cfg, table, x[rows], [inputs[b][t] for b in rows],
                     h[rows], c[rows], rows)
        h[rows] = step.h
        c[rows] = step.c
        steps.append(step)
    return steps


def run_steps(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable | None,
              x: np.ndarray, input_codes: Sequence[int]) -> list[StepTrace]:
    """Teacher-forced forward of one document, x (rep,): run_batch on a
    batch of one."""
    return run_batch(store, cfg, table, x[None], [input_codes])


def _concat(records: Sequence):
    """One record holding the rows of several of one dataclass, in order:
    array fields are concatenated, list fields joined, nested records
    likewise; any other field must be equal in all."""
    parts = {}
    for f in fields(records[0]):
        values = [getattr(r, f.name) for r in records]
        first = values[0]
        if is_dataclass(first):
            parts[f.name] = _concat(values)
        elif isinstance(first, np.ndarray):
            parts[f.name] = np.concatenate(values)
        elif isinstance(first, list):
            parts[f.name] = [v for value in values for v in value]
        elif all(value == first for value in values):
            parts[f.name] = first
        else:
            raise ValueError(f"cannot stack field {f.name!r}: its values differ")
    return type(records[0])(**parts)


def stack_steps(doc_steps: Sequence[Sequence[StepTrace]]) -> list[StepTrace]:
    """Lockstep steps from the one-document steps of several documents,
    such as greedy decodes: step t stacks the t-th step of every document
    that has one."""
    lengths = np.array([len(steps) for steps in doc_steps])
    stacked = []
    for t in range(lengths.max(initial=0)):
        rows = np.flatnonzero(lengths > t)
        stacked.append(replace(_concat([doc_steps[b][t] for b in rows]), rows=rows))
    return stacked


@dataclass
class DecodedPath:
    """Greedy decode result: emitted ids (STOP included if reached), the full
    unmasked per-step distributions, and the count of valid codes."""
    codes: tuple[int, ...]
    distributions: list[MixtureDistribution]
    valid_len: int

    @property
    def valid_codes(self) -> tuple[int, ...]:
        return self.codes[:self.valid_len]


def decode_path_traced(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable | None,
                       x: np.ndarray, max_len: int | None = None) -> tuple[DecodedPath, list[StepTrace]]:
    """Greedy decode with repetition masking: already-emitted codes and UNK
    are renormalized to zero before the argmax (ties break to the lowest
    id); stops at STOP or max_len. Stored distributions are unmasked."""
    if max_len is None:
        max_len = cfg.max_len
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    h = np.zeros(cfg.rep_dim)
    c = np.zeros(cfg.rep_dim)
    prev = cfg.stop_id
    codes: list[int] = []
    traces: list[StepTrace] = []
    banned = {cfg.unk_id}
    for _ in range(max_len):
        trace = generator_step(store, cfg, table, x, prev, h, c)
        masked = trace.dist.probs.copy()
        masked[list(banned)] = 0.0
        masked /= masked.sum()
        choice = int(np.argmax(masked))
        codes.append(choice)
        traces.append(trace)
        if choice == cfg.stop_id:
            break
        banned.add(choice)
        h, c, prev = trace.h[0], trace.c[0], choice
    valid = len(codes) - 1 if codes and codes[-1] == cfg.stop_id else len(codes)
    path = DecodedPath(tuple(codes), [t.dist for t in traces], valid)
    return path, traces


def decode_path(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable | None,
                x: np.ndarray, max_len: int | None = None) -> DecodedPath:
    path, _ = decode_path_traced(store, cfg, table, x, max_len)
    return path


def path_loss(traces: Sequence[StepTrace],
              step_targets: Sequence[tuple[int, float] | None]) -> float:
    """Sum of weight * (-log p(target)) over one document's steps with a
    target."""
    total = 0.0
    for trace, tw in zip(traces, step_targets):
        if tw is not None:
            target, weight = tw
            total += weight * generator_step_loss(trace.dist, target)
    return total


def _mixture_backward(store: ParamStore, step: StepTrace,
                      targets: Sequence[tuple[int, float] | None],
                      embed_ids: list, embed_rows: list) -> np.ndarray:
    """Gradient of each row's weight * (-log p(target)) into the score
    families; accumulates parameter gradients, appends code-embedding
    gradient rows to embed_ids/embed_rows, and returns dh (R, rep). A row
    without a target, or whose target probability is below the floor (the
    loss is clamped constant there), contributes nothing."""
    mix = step.mix
    n = len(targets)
    rows = np.arange(n)
    target = np.array([tw[0] if tw is not None else 0 for tw in targets])
    weight = np.array([tw[1] if tw is not None else 0.0 for tw in targets])
    numer = mix.exp_gen[rows, target] + mix.exp_copy[rows, target]
    live = np.array([tw is not None for tw in targets]) & ~(numer / mix.z < PROB_FLOOR)
    weight = np.where(live, weight, 0.0)
    numer = np.where(live, numer, 1.0)
    dpsi_g = weight[:, None] * mix.exp_gen / mix.z[:, None]
    dpsi_g[rows, target] -= weight * mix.exp_gen[rows, target] / numer
    store.add_outer("gen.out.W", dpsi_g, step.h)
    dh = dpsi_g @ store["gen.out.W"]
    if mix.tanh_rows.size:
        ids, owner = _candidates([d.copy_ids for d in step.dists])
        dpsi_c = weight[:, None] * mix.exp_copy / mix.z[:, None]
        dpsi_c[rows, target] -= weight * mix.exp_copy[rows, target] / numer
        dpsi_c = dpsi_c[owner, ids]
        spread = np.zeros((n, ids.size))
        spread[owner, np.arange(ids.size)] = dpsi_c
        dh += spread @ mix.tanh_rows
        d_pre = dpsi_c[:, None] * step.h[owner] * (1.0 - mix.tanh_rows ** 2)
        store.add_outer("gen.copy.W", mix.proj_rows, d_pre)
        d_proj = d_pre @ store["gen.copy.W"].T
        store.add_outer("gen.code_proj", d_proj, mix.emb_rows)
        embed_ids.append(ids)
        embed_rows.append(d_proj @ store["gen.code_proj"])
    return dh


def batch_backward(store: ParamStore, cfg: GeneratorConfig, steps: Sequence[StepTrace],
                   step_targets: Sequence[Sequence[tuple[int, float] | None]]) -> np.ndarray:
    """Full backward, in reverse time over the lockstep steps, for per-step
    weighted negative log likelihood terms: step_targets[b][t] is the
    (target, weight) of document b at step t, or None. Accumulates into
    store gradients and returns the gradient with respect to each document
    representation, (B, rep)."""
    rep = cfg.rep_dim
    dx = np.zeros((len(step_targets), rep))
    dh_next = np.zeros_like(dx)
    dc_next = np.zeros_like(dx)
    embed_ids: list[np.ndarray] = []
    embed_rows: list[np.ndarray] = []
    for t in range(len(steps) - 1, -1, -1):
        step = steps[t]
        rows = step.rows
        dh = dh_next[rows] + _mixture_backward(store, step, [step_targets[b][t] for b in rows],
                                               embed_ids, embed_rows)
        dh_prev, dc_prev, dv = lstm_step_backward(store, "gen.lstm", dh, dc_next[rows], step.lstm)
        d_fused = dv * step.code_vec
        d_code_vec = dv * step.fused
        dq = d_fused * (1.0 - step.fused ** 2)
        store.add_outer("gen.fuse.W", dq, step.u)
        du = dq @ store["gen.fuse.W"]
        b = [du[:, i * rep:(i + 1) * rep] for i in range(6)]
        x_like = step.u[:, :rep]
        c_like = step.u[:, rep:2 * rep]
        dx[rows] += b[0] + b[2] * c_like + b[3] + b[4] - b[5]
        d_code_vec += b[1] + b[2] * x_like + b[3] - b[4] + b[5]
        store.add_outer("gen.code_proj", d_code_vec, step.emb_prev)
        embed_ids.append(step.prev_codes)
        embed_rows.append(d_code_vec @ store["gen.code_proj"])
        dh_next[rows] = dh_prev
        dc_next[rows] = dc_prev
    if embed_ids:
        add_rows(store.grad("gen.code_embed"), np.concatenate(embed_ids), np.vstack(embed_rows))
    return dx


def sequence_backward(store: ParamStore, cfg: GeneratorConfig, traces: Sequence[StepTrace],
                      step_targets: Sequence[tuple[int, float] | None]) -> np.ndarray:
    """Backward through one document's run_steps traces: batch_backward on
    a batch of one; returns the gradient with respect to its representation
    (rep,)."""
    return batch_backward(store, cfg, traces, [step_targets])[0]
