"""One LSTM cell with explicit caches and a hand-derived backward pass.

Shared by the path decoder and the path scorer; gate weights act on the
concatenation [h_prev, x_in]. The candidate activation defaults to ReLU
with tanh available behind a flag. A step takes a batch of rows in
lockstep (2-D arrays, one row each; one sequence is a batch of one), so
every gate is one GEMM over the batch. The forward products use
`ndarray.dot`, which gives the same result as `@` with less fixed cost per
call; greedy decoding steps one row at a time, where that cost shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .numerics import ParamStore

GATES = ("f", "i", "c", "o")
CANDIDATE_ACTIVATIONS = ("relu", "tanh")


def init_lstm_params(store: ParamStore, prefix: str, input_dim: int, hidden: int,
                     rng: np.random.Generator | None) -> None:
    for gate in GATES:
        store.add_uniform(f"{prefix}.W{gate}", (hidden, hidden + input_dim), rng)
        store.add_uniform(f"{prefix}.b{gate}", (hidden,), rng)


@dataclass
class LstmCache:
    z: np.ndarray        # [h_prev, x_in]
    f: np.ndarray
    i: np.ndarray
    g_pre: np.ndarray    # candidate pre-activation
    g: np.ndarray
    o: np.ndarray
    c_prev: np.ndarray
    c: np.ndarray
    tau: np.ndarray      # tanh(c)
    activation: str


def lstm_step(store: ParamStore, prefix: str, h_prev: np.ndarray, c_prev: np.ndarray,
              x_in: np.ndarray, activation: str = "relu") -> tuple[np.ndarray, np.ndarray, LstmCache]:
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


def lstm_step_backward(store: ParamStore, prefix: str, dh: np.ndarray, dc_in: np.ndarray,
                       cache: LstmCache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
