"""Greedy label-path decoder.

Per step: the previous code's embedding is projected into the document
representation space, fused with the document vector through a six-block
feature concatenation and tanh projection, gated elementwise by the
projected code vector, and fed to an LSTM. The new hidden state scores the
next code under two competing modes sharing one normalizer: a generate
mode over the whole code vocabulary (plus STOP and UNK) and a copy mode
restricted to the previous code's complication partners. Decoding is
greedy with repetition masking and terminates at STOP.

All gradients are hand-derived; `sequence_backward` runs the full
backward pass through the mixture head, LSTM, fusion, and projections,
returning the gradient with respect to the document representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import CodeIds, ComplicationTable
from .lstm import LstmCache, init_lstm_params, lstm_step, lstm_step_backward
from .numerics import ParamStore

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class GeneratorConfig(CodeIds):
    n_codes: int                      # real codes; STOP and UNK are appended
    d_code: int = 100
    rep_dim: int = 300
    candidate_activation: str = "relu"
    no_copy: bool = False
    max_len: int = 8


def init_generator_params(store: ParamStore, cfg: GeneratorConfig,
                          rng: np.random.Generator | None) -> None:
    store.add_uniform("gen.code_embed", (cfg.n_total, cfg.d_code), rng)
    store.add_uniform("gen.code_proj", (cfg.rep_dim, cfg.d_code), rng)
    store.add_uniform("gen.fuse.W", (cfg.rep_dim, 6 * cfg.rep_dim), rng)
    init_lstm_params(store, "gen.lstm", cfg.rep_dim, cfg.rep_dim, rng)
    store.add_uniform("gen.out.W", (cfg.n_total, cfg.rep_dim), rng)
    store.add_uniform("gen.copy.W", (cfg.rep_dim, cfg.rep_dim), rng)


def _fuse_forward(x: np.ndarray, code_vec: np.ndarray, store: ParamStore) -> tuple[np.ndarray, np.ndarray]:
    """Six-block feature fusion of document and code vectors, both (rep,):
    tanh(W @ [x, c, x*c, x+c, x-c, c-x]) -> (rep,), plus the feature blocks."""
    if x.shape != code_vec.shape:
        raise ValueError(f"fusion inputs disagree: x {x.shape} vs code {code_vec.shape}")
    u = np.concatenate([x, code_vec, x * code_vec, x + code_vec, x - code_vec, code_vec - x])
    return np.tanh(store["gen.fuse.W"] @ u), u


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
    h: np.ndarray
    exp_gen: np.ndarray            # shifted exp of generate scores
    exp_copy: np.ndarray           # shifted exp of copy scores, aligned with copy_ids
    z: float                       # shifted normalizer
    copy_ids: tuple[int, ...]
    emb_rows: np.ndarray | None    # (m, d_code) embeddings of copy candidates
    proj_rows: np.ndarray | None   # (m, rep) projected candidates
    tanh_rows: np.ndarray | None   # (m, rep) tanh(candidate^T W_c)


def _shifted_exps(gen_scores: np.ndarray, copy_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    shift = float(gen_scores.max())
    if copy_scores.size:
        shift = max(shift, float(copy_scores.max()))
    exp_gen = np.exp(gen_scores - shift)
    exp_copy = np.exp(copy_scores - shift)
    return exp_gen, exp_copy, float(exp_gen.sum() + exp_copy.sum()), shift


def _mixture_from_scores(gen_scores: np.ndarray, copy_scores: np.ndarray,
                         copy_ids: tuple[int, ...], n_total: int,
                         ) -> tuple[MixtureDistribution, tuple[np.ndarray, np.ndarray, float]]:
    """Combine the two score families under one shared-shift normalizer;
    also returns the shifted exps and their sum, which the backward reuses."""
    exp_gen, exp_copy, z, shift = _shifted_exps(gen_scores, copy_scores)
    gen_mass = exp_gen / z
    copy_mass = np.zeros(n_total)
    if copy_ids:
        copy_mass[list(copy_ids)] = exp_copy / z
    dist = MixtureDistribution(gen_mass + copy_mass, gen_mass, copy_mass, copy_ids,
                               shift + float(np.log(z)))
    return dist, (exp_gen, exp_copy, z)


def _mixture_forward(h: np.ndarray, prev_code: int, table: ComplicationTable | None,
                     store: ParamStore, cfg: GeneratorConfig) -> tuple[MixtureDistribution, MixtureCache]:
    if not 0 <= prev_code < cfg.n_total:
        raise ValueError(f"previous code {prev_code} outside vocabulary of {cfg.n_total}")
    copy_ids: tuple[int, ...] = ()
    if table is not None and not cfg.no_copy:
        copy_ids = table.partners(prev_code)
    gen_scores = store["gen.out.W"] @ h
    emb_rows = proj_rows = tanh_rows = None
    if copy_ids:
        emb_rows = store["gen.code_embed"][list(copy_ids)]
        proj_rows = emb_rows @ store["gen.code_proj"].T
        tanh_rows = np.tanh(proj_rows @ store["gen.copy.W"])
        copy_scores = tanh_rows @ h
    else:
        copy_scores = np.zeros(0)
    dist, (exp_gen, exp_copy, z) = _mixture_from_scores(gen_scores, copy_scores, copy_ids,
                                                        cfg.n_total)
    cache = MixtureCache(h, exp_gen, exp_copy, z, copy_ids, emb_rows, proj_rows, tanh_rows)
    return dist, cache


def generator_step_loss(dist: MixtureDistribution, target: int) -> float:
    """Negative log probability of the target id, floored at 1e-12."""
    if not 0 <= target < dist.probs.shape[0]:
        raise ValueError(f"target {target} outside distribution of {dist.probs.shape[0]}")
    return float(-np.log(max(float(dist.probs[target]), PROB_FLOOR)))


@dataclass
class StepTrace:
    prev_code: int
    emb_prev: np.ndarray
    code_vec: np.ndarray          # projected previous-code embedding
    u: np.ndarray                 # fusion feature blocks
    fused: np.ndarray             # tanh fusion output
    v: np.ndarray                 # LSTM input: fused * code_vec
    lstm: LstmCache
    h: np.ndarray
    c: np.ndarray
    dist: MixtureDistribution
    mix: MixtureCache


def generator_step(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable | None,
                   x: np.ndarray, prev_code: int, h_prev: np.ndarray,
                   c_prev: np.ndarray) -> StepTrace:
    emb_prev = store["gen.code_embed"][prev_code]
    code_vec = store["gen.code_proj"] @ emb_prev
    fused, u = _fuse_forward(x, code_vec, store)
    v = fused * code_vec
    h, c, lstm_cache = lstm_step(store, "gen.lstm", h_prev, c_prev, v, cfg.candidate_activation)
    dist, mix_cache = _mixture_forward(h, prev_code, table, store, cfg)
    return StepTrace(prev_code, emb_prev, code_vec, u, fused, v, lstm_cache, h, c, dist, mix_cache)


def run_steps(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable | None,
              x: np.ndarray, input_codes: Sequence[int]) -> list[StepTrace]:
    """Teacher-forced forward: step t consumes input_codes[t] as the
    previous code. Starts from zero state with STOP as the BOS convention."""
    h = np.zeros(cfg.rep_dim)
    c = np.zeros(cfg.rep_dim)
    traces = []
    for prev in input_codes:
        trace = generator_step(store, cfg, table, x, prev, h, c)
        traces.append(trace)
        h, c = trace.h, trace.c
    return traces


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
        h, c, prev = trace.h, trace.c, choice
    valid = len(codes) - 1 if codes and codes[-1] == cfg.stop_id else len(codes)
    path = DecodedPath(tuple(codes), [t.dist for t in traces], valid)
    return path, traces


def decode_path(store: ParamStore, cfg: GeneratorConfig, table: ComplicationTable | None,
                x: np.ndarray, max_len: int | None = None) -> DecodedPath:
    path, _ = decode_path_traced(store, cfg, table, x, max_len)
    return path


def path_loss(traces: Sequence[StepTrace],
              step_targets: Sequence[tuple[int, float] | None]) -> float:
    """Sum of weight * (-log p(target)) over steps with a target."""
    total = 0.0
    for trace, tw in zip(traces, step_targets):
        if tw is not None:
            target, weight = tw
            total += weight * generator_step_loss(trace.dist, target)
    return total


def _mixture_backward(store: ParamStore, trace: StepTrace, target: int, weight: float) -> np.ndarray:
    """Gradient of weight * (-log p(target)) into the score families;
    accumulates parameter gradients and returns dh."""
    mix = trace.mix
    pos = mix.copy_ids.index(target) if target in mix.copy_ids else -1
    numer = mix.exp_gen[target] + (mix.exp_copy[pos] if pos >= 0 else 0.0)
    if numer / mix.z < PROB_FLOOR:
        return np.zeros_like(trace.h)  # loss is clamped constant here
    dpsi_g = weight * mix.exp_gen / mix.z
    dpsi_g[target] -= weight * mix.exp_gen[target] / numer
    store.add_outer("gen.out.W", dpsi_g, trace.h)
    dh = store["gen.out.W"].T @ dpsi_g
    if mix.copy_ids:
        dpsi_c = weight * mix.exp_copy / mix.z
        if pos >= 0:
            dpsi_c[pos] -= weight * mix.exp_copy[pos] / numer
        dh += mix.tanh_rows.T @ dpsi_c
        d_tanh = np.outer(dpsi_c, trace.h)
        d_pre = d_tanh * (1.0 - mix.tanh_rows ** 2)
        store.add_outer("gen.copy.W", mix.proj_rows, d_pre)
        d_proj = d_pre @ store["gen.copy.W"].T
        store.add_outer("gen.code_proj", d_proj, mix.emb_rows)
        np.add.at(store.grad("gen.code_embed"), list(mix.copy_ids), d_proj @ store["gen.code_proj"])
    return dh


def sequence_backward(store: ParamStore, cfg: GeneratorConfig, traces: Sequence[StepTrace],
                      step_targets: Sequence[tuple[int, float] | None]) -> np.ndarray:
    """Full backward through the decode steps for per-step weighted negative
    log likelihood terms; accumulates into store gradients and returns the
    gradient with respect to the document representation x."""
    rep = cfg.rep_dim
    dh_next = np.zeros(rep)
    dc_next = np.zeros(rep)
    dx = np.zeros(rep)
    for t in range(len(traces) - 1, -1, -1):
        trace = traces[t]
        dh = dh_next
        tw = step_targets[t]
        if tw is not None:
            dh = dh + _mixture_backward(store, trace, tw[0], tw[1])
        dh_prev, dc_prev, dv = lstm_step_backward(store, "gen.lstm", dh, dc_next, trace.lstm)
        d_fused = dv * trace.code_vec
        d_code_vec = dv * trace.fused
        dq = d_fused * (1.0 - trace.fused ** 2)
        store.add_outer("gen.fuse.W", dq, trace.u)
        du = store["gen.fuse.W"].T @ dq
        b = [du[i * rep:(i + 1) * rep] for i in range(6)]
        x_like = trace.u[:rep]
        c_like = trace.u[rep:2 * rep]
        dx += b[0] + b[2] * c_like + b[3] + b[4] - b[5]
        d_code_vec += b[1] + b[2] * x_like + b[3] - b[4] + b[5]
        store.add_outer("gen.code_proj", d_code_vec, trace.emb_prev)
        store.grad("gen.code_embed")[trace.prev_code] += store["gen.code_proj"].T @ d_code_vec
        dh_next, dc_next = dh_prev, dc_prev
    return dx
