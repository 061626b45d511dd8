"""Greedy label-path decoder.

Per step: the previous code's embedding is projected into the document
representation space, fused with the document vector through a six-block
feature concatenation and tanh projection, gated elementwise by the
projected code vector, and fed to an LSTM. The new hidden state scores the
next code under two competing modes sharing one normalizer: a generate
mode over the whole code vocabulary (plus STOP and UNK) and a copy mode
restricted to the previous code's complication partners. Decoding is
greedy with repetition masking and terminates at STOP.

The fusion is folded into three blocks, and every code-only product is
taken for all code ids at once (`DecoderTables`) by each `run_batch` call
and each standalone decode or step; the batch's steps (greedy ones from its
first step too) carry them into the backward pass, which reads its code
rows from them again; nothing keeps them.

Teacher-forced steps run a batch of documents in lockstep: step t feeds
the documents that still have an input at t through one GEMM per weight
matrix; one document is a batch of one (`generator_step`, `run_steps`,
`sequence_backward`). Greedy decoding steps each document alone after its
first step, which needs only the document vector (STOP in, zero state):
callers batch it with `run_batch` and continue each path from its row.

All gradients are hand-derived; `batch_backward` runs the full backward
pass through the mixture head, LSTM, fusion, and projections for (B, T)
arrays of target ids and weights (0 where a document has none), returning
the gradient with respect to each document representation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import CodeIds, ComplicationTable
from .lstm import LstmCache, lstm_slots, lstm_step, lstm_step_backward
from .numerics import ParamStore, Slots, add_rows, uniform_init

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class GeneratorConfig(CodeIds):
    n_codes: int                      # real codes; STOP and UNK are appended
    d_code: int = 100
    rep_dim: int = 300
    no_copy: bool = False
    max_len: int = 8

    def validate(self) -> None:
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


def generator_slots(cfg: GeneratorConfig, rng: np.random.Generator | None) -> Slots:
    cfg.validate()
    return [("gen.code_embed", uniform_init((cfg.n_total, cfg.d_code), rng)),
            ("gen.code_proj", uniform_init((cfg.rep_dim, cfg.d_code), rng)),
            ("gen.fuse.W", uniform_init((cfg.rep_dim, 6 * cfg.rep_dim), rng)),
            *lstm_slots("gen.lstm", cfg.rep_dim, cfg.rep_dim, rng),
            ("gen.out.W", uniform_init((cfg.n_total, cfg.rep_dim), rng)),
            ("gen.copy.W", uniform_init((cfg.rep_dim, cfg.rep_dim), rng))]


class DecoderTables:
    """Products of the decoder's weights that do not depend on the document:
    [x, c, x*c, x+c, x-c, c-x] W^T = x A^T + c C^T + (x*c) M^T, A = W1+W4+W5-W6,
    C = W2+W4-W5+W6, M = W3 (contiguous: one BLAS call each), and per code id
    its projected vector c, its fusion part c C^T and its copy key."""

    def __init__(self, store: ParamStore) -> None:
        w = np.hsplit(store["gen.fuse.W"], 6)
        self.A, self.C = w[0] + w[3], w[1] + w[3]
        self.A += w[4]
        self.A -= w[5]
        self.C -= w[4]
        self.C += w[5]
        self.M = w[2].copy()
        self.code_vec = store["gen.code_embed"].dot(store["gen.code_proj"].T)
        self.code_part = self.code_vec.dot(self.C.T)
        self.copy_key = np.tanh(self.code_vec.dot(store["gen.copy.W"]))


@dataclass
class MixtureDistribution:
    """Next-code distribution: total probability per id, the part of it
    that the copy mode contributes, and the copy candidate ids."""
    probs: np.ndarray
    copy_mass: np.ndarray
    copy_ids: tuple[int, ...]


@dataclass
class MixtureCache:
    """Backward cache of the mixture head over R rows; the candidates' rows
    are read again from the tables."""
    exp_gen: np.ndarray            # (R, n_total) shifted exps of generate scores
    exp_copy: np.ndarray           # (R, n_total) shifted exps of copy scores, 0 off the candidates
    z: np.ndarray                  # (R,) shifted normalizers


def _candidates(copy_ids: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The copy candidate ids of all rows, concatenated, and the row of each."""
    ids = [c for row in copy_ids for c in row]
    owner = [r for r, row in enumerate(copy_ids) for _ in row]
    return np.array(ids, dtype=np.int64), np.array(owner, dtype=np.int64)


def _mixture_from_scores(gen_scores: np.ndarray, copy_scores: np.ndarray, ids: np.ndarray,
                         owner: np.ndarray) -> tuple[np.ndarray, ...]:
    """Combine the two score families of each row under one shared-shift
    normalizer: gen_scores (R, n_total), copy_scores (M,) for the copy
    candidates ids of rows owner (distinct within a row; see _candidates).
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


def _mixture_forward(h: np.ndarray, prev_codes: Sequence[int], table: ComplicationTable,
                     store: ParamStore, cfg: GeneratorConfig, tables: DecoderTables,
                     ) -> tuple[np.ndarray, list[tuple[int, ...]], MixtureCache]:
    """Next-code probabilities (R, n_total) of each row of h (R, rep) given
    its previous code, and each row's copy candidates, whose copy keys are
    read from the tables (none for a row without candidates)."""
    if min(prev_codes) < 0 or max(prev_codes) >= cfg.n_total:
        raise ValueError(f"previous codes {prev_codes} outside vocabulary of {cfg.n_total}")
    copy_ids = ([()] * len(prev_codes) if cfg.no_copy
                else [table.partners(p) for p in prev_codes])
    ids, owner = _candidates(copy_ids)
    copy_scores = (tables.copy_key.take(ids, axis=0) * h.take(owner, axis=0)).sum(axis=1)
    probs, exp_gen, exp_copy, z = _mixture_from_scores(h.dot(store["gen.out.W"].T), copy_scores,
                                                       ids, owner)
    return probs, copy_ids, MixtureCache(exp_gen, exp_copy, z)


@dataclass
class StepTrace:
    """One decoder step of a batch in lockstep, one row per document (a
    document alone is a batch of one) in every array and list; the backward
    reads the previous codes' and copy candidates' rows from the tables."""
    rows: np.ndarray              # (R,) batch positions
    prev_codes: list[int]
    x: np.ndarray                 # document vectors
    fused: np.ndarray             # tanh fusion output
    lstm: LstmCache
    h: np.ndarray
    c: np.ndarray
    probs: np.ndarray             # (R, n_total) next-code probabilities
    copy_ids: list[tuple[int, ...]]  # each row's copy candidates
    mix: MixtureCache
    tables: DecoderTables

    @property
    def dist(self) -> MixtureDistribution:
        """The distribution of a one-row step."""
        (probs,), (copy_ids,) = self.probs, self.copy_ids
        return MixtureDistribution(probs, self.mix.exp_copy[0] / self.mix.z[0], copy_ids)


def _step(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable,
          x: np.ndarray, prev_codes: list[int], h_prev: np.ndarray, c_prev: np.ndarray,
          rows: np.ndarray, tables: DecoderTables) -> StepTrace:
    """One lockstep step of the documents at batch positions rows: x,
    h_prev, c_prev (R, rep) and one previous code each; every weight matrix
    is one product over the rows, or a read of the tables."""
    code_vec = tables.code_vec.take(prev_codes, axis=0)
    fused = np.tanh(x.dot(tables.A.T) + tables.code_part.take(prev_codes, axis=0)
                    + (x * code_vec).dot(tables.M.T))
    h, c, lstm_cache = lstm_step(store, "gen.lstm", h_prev, c_prev, fused * code_vec)
    probs, copy_ids, mix_cache = _mixture_forward(h, prev_codes, table, store, cfg, tables)
    return StepTrace(rows, prev_codes, x, fused, lstm_cache, h, c, probs, copy_ids, mix_cache,
                     tables)


_ONE_ROW = np.zeros(1, dtype=np.int64)


def generator_step(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable,
                   x: np.ndarray, prev_code: int, h_prev: np.ndarray, c_prev: np.ndarray,
                   tables: DecoderTables | None = None) -> StepTrace:
    """One step of one document, x, h_prev, c_prev (rep,): _step on a batch
    of one, on the given tables or its own."""
    return _step(store, cfg, table, x[None], [prev_code], h_prev[None], c_prev[None], _ONE_ROW,
                 tables or DecoderTables(store))


def run_batch(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable,
              x: np.ndarray, inputs: Sequence[Sequence[int]]) -> list[StepTrace]:
    """Teacher-forced forward of a batch in lockstep: x (B, rep) holds the
    document vectors, and document b consumes inputs[b][t] as the previous
    code at step t, so step t covers the documents with more than t inputs.
    Starts from zero state with STOP as the BOS convention."""
    tables = DecoderTables(store)
    lengths = np.array([len(seq) for seq in inputs])
    h = np.zeros((len(inputs), cfg.rep_dim))
    c = np.zeros_like(h)
    steps = []
    for t in range(lengths.max(initial=0)):
        rows = np.flatnonzero(lengths > t)
        step = _step(store, cfg, table, x[rows], [inputs[b][t] for b in rows],
                     h[rows], c[rows], rows, tables)
        h[rows] = step.h
        c[rows] = step.c
        steps.append(step)
    return steps


def run_steps(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable,
              x: np.ndarray, input_codes: Sequence[int]) -> list[StepTrace]:
    """Teacher-forced forward of one document, x (rep,): run_batch on a
    batch of one."""
    return run_batch(store, cfg, table, x[None], [input_codes])


def _concat(records: Sequence):
    """One record holding the rows of several of one dataclass, in order:
    array fields are concatenated, list fields joined, nested records
    likewise; any other field must be equal in all (the tables: one
    object), and stays."""
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
    """Greedy decode result: emitted ids (STOP included if reached), each real
    code's highest unmasked probability over the steps, and the valid count."""
    codes: tuple[int, ...]
    scores: np.ndarray             # (n_codes,)
    valid_len: int

    @property
    def valid_codes(self) -> tuple[int, ...]:
        return self.codes[:self.valid_len]


def decode_path_traced(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable,
                       x: np.ndarray, first: StepTrace | None = None, row: int = 0,
                       ) -> tuple[DecodedPath, list[StepTrace]]:
    """Greedy decode with repetition masking: already-emitted codes and UNK
    are renormalized to zero before the argmax (ties break to the lowest
    id); stops at STOP or cfg.max_len. The path's scores are unmasked.
    Its first step (STOP in, zero state) is row `row` of `first`, a batch's
    first step, whose tables it decodes on, or else its own as a batch of
    one. Returns the path and its steps: `first`, then one per further code."""
    if first is None:
        (first,) = run_batch(store, cfg, table, x[None], [[cfg.stop_id]])
        row = 0
    traces, probs, h, c = [first], [first.probs[row]], first.h[row], first.c[row]
    codes: list[int] = []
    banned = {cfg.unk_id}
    while True:
        masked = probs[-1].copy()
        masked[list(banned)] = 0.0
        masked /= masked.sum()
        codes.append(int(np.argmax(masked)))
        if codes[-1] == cfg.stop_id or len(codes) == cfg.max_len:
            break
        banned.add(codes[-1])
        traces.append(generator_step(store, cfg, table, x, codes[-1], h, c, first.tables))
        probs.append(traces[-1].probs[0])
        h, c = traces[-1].h[0], traces[-1].c[0]
    valid = len(codes) - 1 if codes[-1] == cfg.stop_id else len(codes)
    return DecodedPath(tuple(codes), np.max(probs, axis=0)[:cfg.n_codes], valid), traces


def decode_path(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable,
                x: np.ndarray, first: StepTrace | None = None, row: int = 0) -> DecodedPath:
    path, _ = decode_path_traced(store, cfg, table, x, first, row)
    return path


def step_losses(steps: Sequence[StepTrace], targets: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """Each document's weighted negative log likelihood, (B,): the sum, in
    step order, of weight * -log p(target) over the lockstep steps, with
    targets and weights (B, T) and p floored at PROB_FLOOR."""
    p = np.ones(targets.shape)
    for t, step in enumerate(steps):
        p[step.rows, t] = step.probs[np.arange(len(step.rows)), targets[step.rows, t]]
    return (weights * -np.log(np.maximum(p, PROB_FLOOR))).cumsum(axis=1)[:, -1]


def _one_document(step_targets: Sequence[tuple[int, float] | None]) -> tuple[np.ndarray, ...]:
    """(target, weight) or None per step as (1, T) targets and weights, 0 for None."""
    pairs = np.array([tw or (0, 0.0) for tw in step_targets])
    return pairs[None, :, 0].astype(np.int64), pairs[None, :, 1]


def path_loss(traces: Sequence[StepTrace],
              step_targets: Sequence[tuple[int, float] | None]) -> float:
    """One document's run_steps loss: step_losses on a batch of one."""
    return float(step_losses(traces, *_one_document(step_targets))[0])


def _mixture_backward(store: ParamStore, step: StepTrace, target: np.ndarray,
                      weight: np.ndarray, embed_ids: list, embed_rows: list) -> np.ndarray:
    """Gradient of each row's weight * (-log p(target)) into the score
    families; accumulates parameter gradients, appends code-embedding
    gradient rows to embed_ids/embed_rows, and returns dh (R, rep). A row
    of weight 0, or whose target probability is below the floor (the loss
    is clamped constant there), contributes nothing."""
    mix, tables = step.mix, step.tables
    rows = np.arange(len(target))
    numer = mix.exp_gen[rows, target] + mix.exp_copy[rows, target]
    live = ~(numer / mix.z < PROB_FLOOR)
    weight = np.where(live, weight, 0.0)
    numer = np.where(live, numer, 1.0)
    dpsi_g = weight[:, None] * mix.exp_gen / mix.z[:, None]
    dpsi_g[rows, target] -= weight * mix.exp_gen[rows, target] / numer
    store.add_outer("gen.out.W", dpsi_g, step.h)
    dh = dpsi_g @ store["gen.out.W"]
    ids, owner = _candidates(step.copy_ids)
    if ids.size:
        tanh_rows = tables.copy_key.take(ids, axis=0)
        dpsi_c = weight[:, None] * mix.exp_copy / mix.z[:, None]
        dpsi_c[rows, target] -= weight * mix.exp_copy[rows, target] / numer
        dpsi_c = dpsi_c[owner, ids]
        spread = np.zeros((len(rows), ids.size))
        spread[owner, np.arange(ids.size)] = dpsi_c
        dh += spread @ tanh_rows
        d_pre = dpsi_c[:, None] * step.h[owner] * (1.0 - tanh_rows ** 2)
        store.add_outer("gen.copy.W", tables.code_vec.take(ids, axis=0), d_pre)
        d_proj = d_pre @ store["gen.copy.W"].T
        store.add_outer("gen.code_proj", d_proj, store["gen.code_embed"].take(ids, axis=0))
        embed_ids.append(ids)
        embed_rows.append(d_proj @ store["gen.code_proj"])
    return dh


def batch_backward(store: ParamStore, cfg: GeneratorConfig, steps: Sequence[StepTrace],
                   targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Full backward, in reverse time over the lockstep steps, for per-step
    weighted negative log likelihood terms: targets[b, t] and weights[b, t]
    are the target id and weight of document b at step t (weight 0 for
    none). Accumulates into store gradients and returns the gradient with
    respect to each document representation, (B, rep)."""
    dx = np.zeros((len(targets), cfg.rep_dim))
    dh_next = np.zeros_like(dx)
    dc_next = np.zeros_like(dx)
    embed_ids: list[np.ndarray] = []
    embed_rows: list[np.ndarray] = []
    for t, step in reversed(list(enumerate(steps))):
        rows = step.rows
        dh = dh_next[rows] + _mixture_backward(store, step, targets[rows, t], weights[rows, t],
                                               embed_ids, embed_rows)
        dh_prev, dc_prev, dv = lstm_step_backward(store, "gen.lstm", dh, dc_next[rows], step.lstm)
        x, c = step.x, step.tables.code_vec.take(step.prev_codes, axis=0)
        d_fused = dv * c
        d_code_vec = dv * step.fused
        dq = d_fused * (1.0 - step.fused ** 2)
        store.add_outer("gen.fuse.W", dq, np.concatenate([x, c, x * c, x + c, x - c, c - x], 1))
        d_m = dq @ step.tables.M
        dx[rows] += dq @ step.tables.A + d_m * c
        d_code_vec += dq @ step.tables.C + d_m * x
        store.add_outer("gen.code_proj", d_code_vec, store["gen.code_embed"][step.prev_codes])
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
    return batch_backward(store, cfg, traces, *_one_document(step_targets))[0]
