"""Greedy label-path decoder.

Per step: the previous code's embedding is projected into the document
representation space, fused with the document vector through a six-block
feature concatenation and tanh projection, gated elementwise by the
projected code vector, and fed to an LSTM. The new hidden state scores the
next code under two competing modes sharing one normalizer: a generate
mode over the whole code vocabulary (plus STOP and UNK) and a copy mode
restricted to the previous code's complication partners, dense over the
code table: every id is scored under both modes, and the copy scores off
the partners are masked to -inf. Decoding is greedy with repetition
masking and ends at STOP, or with STOP when no allowed id has any mass.

The fusion is folded into three blocks, and every code-only product is
taken for all code ids at once (`DecoderTables`) by each `run_batch` call
that starts a batch and each standalone decode or step; the batch's steps
(those continuing its first step too) carry them into the backward pass,
which reads its code rows from them again; nothing keeps them. The
fusion's document term is taken once per document and pass.

Teacher-forced steps run a batch of documents in lockstep: step t feeds
the documents that still have an input at t through one GEMM per weight
matrix; one document is a batch of one (`generator_step`, `run_steps`,
`sequence_backward`). Greedy decoding steps each document alone after its
first step, which needs only the document vector (STOP in, zero state):
callers batch it with `run_batch` and continue each path from its row. A
teacher-forced pass over such paths continues the same first step
(`run_batch`'s `first`).

All gradients are hand-derived; `batch_backward` runs the full backward
pass through the mixture head, LSTM, fusion, and projections for (B, T)
arrays of target ids and weights (0 where a document has none), returning
the gradient with respect to each document representation.
"""

from __future__ import annotations

from dataclasses import dataclass
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


# each of the six blocks of gen.fuse.W in the folded blocks A, C and M, one row each
_FOLD = np.array([[1, 0, 0, 1, 1, -1], [0, 1, 0, 1, -1, 1], [0, 0, 1, 0, 0, 0]], dtype=float)


class DecoderTables:
    """Products of the decoder's weights that do not depend on the document:
    [x, c, x*c, x+c, x-c, c-x] W^T = x A^T + c C^T + (x*c) M^T, A = W1+W4+W5-W6,
    C = W2+W4-W5+W6, M = W3 (contiguous, folded in one pass); per code id its
    projected vector c, its fusion part c C^T and its copy key; `head`, the
    generate weights over the copy keys; `copy_mask`, whether id j is a copy
    candidate after id i (none under no_copy); and `score_mask`, added to a
    row of `head` scores after id i: -inf at its non-candidates' copy scores."""

    def __init__(self, store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable) -> None:
        rep = cfg.rep_dim
        folded = np.empty((3, rep, rep))
        np.matmul(_FOLD, store["gen.fuse.W"].reshape(rep, 6, rep), out=folded.transpose(1, 0, 2))
        self.A, self.C, self.M = folded
        self.code_vec = store["gen.code_embed"].dot(store["gen.code_proj"].T)
        self.code_part = self.code_vec.dot(self.C.T)
        self.copy_key = np.tanh(self.code_vec.dot(store["gen.copy.W"]))
        self.head = np.vstack([store["gen.out.W"], self.copy_key])
        self.copy_mask = np.zeros((cfg.n_total, cfg.n_total), dtype=bool)
        if not cfg.no_copy:
            for a, b in table.pairs:
                self.copy_mask[a, b] = self.copy_mask[b, a] = True
        self.score_mask = np.zeros((cfg.n_total, 2 * cfg.n_total))
        self.score_mask[:, cfg.n_total:][~self.copy_mask] = -np.inf


@dataclass
class MixtureDistribution:
    """Next-code distribution: total probability per id, the part of it
    that the copy mode contributes, and the copy candidate ids."""
    probs: np.ndarray
    copy_mass: np.ndarray
    copy_ids: tuple[int, ...]


def _mixture_from_scores(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both score families of each row, (R, 2 n_total): the generate scores,
    then the copy scores, -inf off the row's copy candidates, under one
    shared-shift normalizer. Returns the probabilities (R, n_total) and the
    shares (R, 2 n_total), each id's probability from each mode."""
    shares = np.exp(scores - scores.max(axis=1, keepdims=True))
    shares /= shares.sum(axis=1, keepdims=True)
    n_total = scores.shape[1] // 2
    return shares[:, :n_total] + shares[:, n_total:], shares


def _mixture_forward(h: np.ndarray, prev_codes: list[int],
                     tables: DecoderTables) -> tuple[np.ndarray, np.ndarray]:
    """_mixture_from_scores of each row of h (R, rep) after its previous code."""
    scores = h.dot(tables.head.T)
    scores += tables.score_mask.take(prev_codes, axis=0)
    return _mixture_from_scores(scores)


@dataclass
class StepTrace:
    """One decoder step of a batch in lockstep, one row per document (a
    document alone is a batch of one) in every array and list; the backward
    reads the previous codes' rows and the copy keys from the tables."""
    rows: np.ndarray              # (R,) batch positions
    prev_codes: list[int]
    x: np.ndarray                 # document vectors
    x_part: np.ndarray            # x A^T, the fusion's document term
    fused: np.ndarray             # tanh fusion output
    lstm: LstmCache
    h: np.ndarray
    c: np.ndarray
    probs: np.ndarray             # (R, n_total) next-code probabilities
    shares: np.ndarray            # (R, 2 n_total) their generate, then copy parts
    tables: DecoderTables

    @property
    def copy_ids(self) -> list[tuple[int, ...]]:
        """Each row's copy candidates, ascending."""
        return [tuple(np.flatnonzero(m).tolist()) for m in self.tables.copy_mask[self.prev_codes]]

    @property
    def dist(self) -> MixtureDistribution:
        """The distribution of a one-row step."""
        (probs,), (copy_ids,) = self.probs, self.copy_ids
        return MixtureDistribution(probs, self.shares[0, len(probs):], copy_ids)


def _step(store: ParamStore, tables: DecoderTables, x: np.ndarray, x_part: np.ndarray,
          prev_codes: list[int], h_prev: np.ndarray, c_prev: np.ndarray,
          rows: np.ndarray) -> StepTrace:
    """One lockstep step of the documents at batch positions rows: x, their
    fusion terms x_part, h_prev, c_prev (R, rep) and one previous code each;
    every weight matrix is one product over the rows, or a read of the
    tables."""
    n_total = len(tables.copy_mask)
    if min(prev_codes) < 0 or max(prev_codes) >= n_total:
        raise ValueError(f"previous codes {prev_codes} outside vocabulary of {n_total}")
    code_vec = tables.code_vec.take(prev_codes, axis=0)
    fused = np.tanh(x_part + tables.code_part.take(prev_codes, axis=0)
                    + (x * code_vec).dot(tables.M.T))
    h, c, lstm_cache = lstm_step(store, "gen.lstm", h_prev, c_prev, fused * code_vec)
    probs, shares = _mixture_forward(h, prev_codes, tables)
    return StepTrace(rows, prev_codes, x, x_part, fused, lstm_cache, h, c, probs, shares, tables)


_ONE_ROW = np.zeros(1, dtype=np.int64)


def generator_step(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable,
                   x: np.ndarray, prev_code: int, h_prev: np.ndarray, c_prev: np.ndarray,
                   tables: DecoderTables | None = None,
                   x_part: np.ndarray | None = None) -> StepTrace:
    """One step of one document, x, h_prev, c_prev (rep,): _step on a batch
    of one, on the given tables and fusion term x A^T or on its own."""
    tables = tables or DecoderTables(store, cfg, table)
    x_part = x.dot(tables.A.T) if x_part is None else x_part
    return _step(store, tables, x[None], x_part[None], [prev_code], h_prev[None], c_prev[None],
                 _ONE_ROW)


def run_batch(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable,
              x: np.ndarray, inputs: Sequence[Sequence[int]],
              first: StepTrace | None = None) -> list[StepTrace]:
    """Teacher-forced forward of a batch in lockstep: x (B, rep) holds the
    document vectors, and document b consumes inputs[b][t] as the previous
    code at step t, so step t covers the documents with more than t inputs.
    Starts from zero state with STOP as the BOS convention; given `first`,
    a batch's first step, each row continues from its row of `first`, on
    its tables and fusion term, and inputs[b] are the codes fed after it."""
    if first is None:
        tables = DecoderTables(store, cfg, table)
        x_part = x.dot(tables.A.T)
        h, c = np.zeros((2, len(inputs), cfg.rep_dim))
    elif len(inputs) != len(first.rows):
        raise ValueError(f"{len(inputs)} input sequences continue a first step of "
                         f"{len(first.rows)} rows")
    else:
        tables, x_part, h, c = first.tables, first.x_part, first.h.copy(), first.c.copy()
    lengths = np.array([len(seq) for seq in inputs])
    steps = []
    for t in range(lengths.max(initial=0)):
        rows = np.flatnonzero(lengths > t)
        step = _step(store, tables, x[rows], x_part[rows], [inputs[b][t] for b in rows],
                     h[rows], c[rows], rows)
        h[rows], c[rows] = step.h, step.c
        steps.append(step)
    return steps


def run_steps(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable,
              x: np.ndarray, input_codes: Sequence[int]) -> list[StepTrace]:
    """Teacher-forced forward of one document, x (rep,): run_batch on one row."""
    return run_batch(store, cfg, table, x[None], [input_codes])


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
    id); stops at STOP or cfg.max_len, and emits STOP where every other id
    has zero probability (all underflowed). The path's scores are unmasked.
    Its first step (STOP in, zero state) is row `row` of `first`, a batch's
    first step, whose tables and fusion term it decodes on, or else its own
    as a batch of one. Returns the path and its steps: `first`, then one per
    further code."""
    if first is None:
        (first,), row = run_batch(store, cfg, table, x[None], [[cfg.stop_id]]), 0
    traces, probs, h, c = [first], [first.probs[row]], first.h[row], first.c[row]
    x_part = first.x_part[row]
    codes: list[int] = []
    allowed = np.ones(cfg.n_total)  # 0 at UNK and at every emitted code
    allowed[cfg.unk_id] = 0.0
    while True:
        masked = probs[-1] * allowed
        total = masked.sum()
        codes.append(int((masked / total).argmax()) if total > 0.0 else cfg.stop_id)
        if codes[-1] == cfg.stop_id or len(codes) == cfg.max_len:
            break
        allowed[codes[-1]] = 0.0
        traces.append(generator_step(store, cfg, table, x, codes[-1], h, c, first.tables,
                                     x_part))
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
                      weight: np.ndarray, d_key: np.ndarray) -> np.ndarray:
    """Gradient of each row's weight * (-log p(target)) into both score
    families, dense over the code table (zero off the copy candidates);
    accumulates the gen.out.W gradient, adds the copy keys' (n_total, rep)
    into d_key, and returns dh (R, rep). A row of weight 0, or whose target
    probability is below the floor (the loss is clamped constant there),
    contributes nothing."""
    n_total = step.probs.shape[1]
    rows = np.arange(len(target))
    p = step.probs[rows, target]
    live = ~(p < PROB_FLOOR)
    weight = np.where(live, weight, 0.0)
    dpsi = weight[:, None] * step.shares
    ratio = weight / np.where(live, p, 1.0)
    dpsi[rows, target] -= ratio * step.shares[rows, target]
    dpsi[rows, n_total + target] -= ratio * step.shares[rows, n_total + target]
    store.add_outer("gen.out.W", dpsi[:, :n_total], step.h)
    d_key += dpsi[:, n_total:].T @ step.h
    return dpsi @ step.tables.head


def _code_backward(store: ParamStore, tables: DecoderTables, d_key: np.ndarray,
                   d_code_vec: np.ndarray) -> None:
    """The copy keys' gradient, d_key, and the projected code vectors', both
    (n_total, rep) over every code id, back to gen.copy.W, gen.code_proj and
    gen.code_embed; adds the keys' part into d_code_vec."""
    d_pre = d_key * (1.0 - tables.copy_key ** 2)
    store.add_outer("gen.copy.W", tables.code_vec, d_pre)
    d_code_vec += d_pre @ store["gen.copy.W"].T
    store.add_outer("gen.code_proj", d_code_vec, store["gen.code_embed"])
    store.grad("gen.code_embed")[:] += d_code_vec @ store["gen.code_proj"]


def batch_backward(store: ParamStore, cfg: GeneratorConfig, steps: Sequence[StepTrace],
                   targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Full backward, in reverse time over the lockstep steps, for per-step
    weighted negative log likelihood terms: targets[b, t] and weights[b, t]
    are the target id and weight of document b at step t (weight 0 for
    none). Accumulates into store gradients and returns the gradient with
    respect to each document representation, (B, rep). The code vectors'
    gradients are summed per code id and taken back to their weights once."""
    dx = np.zeros((len(targets), cfg.rep_dim))
    dh_next = np.zeros_like(dx)
    dc_next = np.zeros_like(dx)
    d_key = np.zeros((cfg.n_total, cfg.rep_dim))
    input_ids, input_rows = [], []  # each step's previous codes and their code-vector gradients
    for t, step in reversed(list(enumerate(steps))):
        rows = step.rows
        dh = dh_next[rows] + _mixture_backward(store, step, targets[rows, t], weights[rows, t],
                                               d_key)
        dh_prev, dc_prev, dv = lstm_step_backward(store, "gen.lstm", dh, dc_next[rows], step.lstm)
        x, c = step.x, step.tables.code_vec.take(step.prev_codes, axis=0)
        d_fused = dv * c
        d_code_vec = dv * step.fused
        dq = d_fused * (1.0 - step.fused ** 2)
        store.add_outer("gen.fuse.W", dq, np.concatenate([x, c, x * c, x + c, x - c, c - x], 1))
        d_m = dq @ step.tables.M
        dx[rows] += dq @ step.tables.A + d_m * c
        d_code_vec += dq @ step.tables.C + d_m * x
        input_ids.append(step.prev_codes)
        input_rows.append(d_code_vec)
        dh_next[rows] = dh_prev
        dc_next[rows] = dc_prev
    if steps:
        d_code_vec = np.zeros_like(d_key)
        add_rows(d_code_vec, np.concatenate(input_ids), np.vstack(input_rows))
        _code_backward(store, steps[0].tables, d_key, d_code_vec)
    return dx


def sequence_backward(store: ParamStore, cfg: GeneratorConfig, traces: Sequence[StepTrace],
                      step_targets: Sequence[tuple[int, float] | None]) -> np.ndarray:
    """Backward through one document's run_steps traces: batch_backward on
    a batch of one; returns the gradient with respect to its representation
    (rep,)."""
    return batch_backward(store, cfg, traces, *_one_document(step_targets))[0]
