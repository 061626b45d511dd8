"""One LSTM cell with explicit caches and a hand-derived backward pass.

Shared by the path decoder and the path scorer. Each cell has one weight
slot `{prefix}.W` of shape (4H, H + in), acting on the concatenation
[h_prev, x_in], and one bias slot `{prefix}.b` of shape (4H,); their row
blocks belong to the forget, input, candidate and output gates, in that
order. The candidate activation is ReLU. A step takes a batch of rows in
lockstep (2-D arrays, one row each; one sequence is a batch of one), so
all four gates are one GEMM over the batch. The forward product uses
`ndarray.dot`, which gives the same result as `@` with less fixed cost per
call; greedy decoding steps one row at a time, where that cost shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .numerics import ParamStore, Slots, uniform_init


def lstm_slots(prefix: str, input_dim: int, hidden: int, rng: np.random.Generator | None) -> Slots:
    # per gate, its weights and then its bias, in gate order: for every seed
    # the blocks hold the draws of one slot pair per gate
    gates = [(uniform_init((hidden, hidden + input_dim), rng), uniform_init((hidden,), rng))
             for _ in range(4)]
    return [(f"{prefix}.W", np.vstack([w for w, _ in gates])),
            (f"{prefix}.b", np.concatenate([b for _, b in gates]))]


@dataclass
class LstmCache:
    z: np.ndarray        # [h_prev, x_in]
    f: np.ndarray
    i: np.ndarray
    g_pre: np.ndarray    # candidate pre-activation
    g: np.ndarray
    o: np.ndarray
    c_prev: np.ndarray
    tau: np.ndarray      # tanh(c)


def lstm_step(store: ParamStore, prefix: str, h_prev: np.ndarray, c_prev: np.ndarray,
              x_in: np.ndarray) -> tuple[np.ndarray, np.ndarray, LstmCache]:
    """(h_prev, c_prev, x_in) -> (h, c, cache), each (rows, .).

    f, i, o are sigmoid gates and the candidate a ReLU, all over
    [h_prev, x_in]; c = f*c_prev + i*candidate; h = o*tanh(c).
    """
    hidden = h_prev.shape[1]
    z = np.concatenate([h_prev, x_in], axis=1)
    a = z.dot(store[f"{prefix}.W"].T) + store[f"{prefix}.b"]
    gates = expit(a[:, :2 * hidden])  # f and i, contiguous: one call
    f, i = gates[:, :hidden], gates[:, hidden:]
    g_pre, o = a[:, 2 * hidden:3 * hidden], expit(a[:, 3 * hidden:])
    g = np.maximum(g_pre, 0.0)
    c = f * c_prev + i * g
    tau = np.tanh(c)
    h = o * tau
    return h, c, LstmCache(z, f, i, g_pre, g, o, c_prev, tau)


def lstm_step_backward(store: ParamStore, prefix: str, dh: np.ndarray, dc_in: np.ndarray,
                       cache: LstmCache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate the weight and bias gradients, every row's added; return
    (dh_prev, dc_prev, dx_in), each (rows, .)."""
    hidden = dh.shape[1]
    do = dh * cache.tau
    dc = dc_in + dh * cache.o * (1.0 - cache.tau ** 2)
    df = dc * cache.c_prev
    di = dc * cache.g
    dg = dc * cache.i
    dc_prev = dc * cache.f
    da = np.concatenate([df * cache.f * (1.0 - cache.f), di * cache.i * (1.0 - cache.i),
                         dg * (cache.g_pre > 0.0), do * cache.o * (1.0 - cache.o)], axis=1)
    store.add_outer(f"{prefix}.W", da, cache.z)
    store.grad(f"{prefix}.b")[:] += da.sum(axis=0)
    dz = da @ store[f"{prefix}.W"]
    return dz[:, :hidden], dc_prev, dz[:, hidden:]
