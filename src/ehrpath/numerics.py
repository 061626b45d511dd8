"""Dense float64 math shared by every model component.

Parameter storage with Adam-moment buffers and update-time gradients, the
bias-corrected Adam update, and a central-difference gradient oracle
used to validate every hand-derived backward pass in the test suite.
"""

from __future__ import annotations

import zlib
from copy import deepcopy
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy.sparse import csr_array

# Uniform init half-width for every trainable weight; small enough to keep
# sigmoids/tanh well inside their linear region at the default layer sizes.
INIT_SCALE = 0.08

# a store's slots in order: (name, initial value)
Slots = list[tuple[str, np.ndarray]]


def named_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent, reproducible generator for one named randomness stream.

    All randomness in a run flows from a single seed through named
    sub-streams (corpus / init / dropout / shuffle / ...), so ablation runs
    with the same seed share initialization and data order.
    """
    key = zlib.crc32(stream.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def uniform_init(shape: tuple[int, ...], rng: np.random.Generator | None) -> np.ndarray:
    """Weights drawn uniformly from rng; without an rng, zeros, for a caller
    that fills in stored values."""
    if rng is None:
        return np.zeros(shape)
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)


class ParamStore:
    """Named float64 parameter slots with Adam first/second moments and,
    during an update, gradients. One store per trainable model side. The
    slots are fixed at construction and live in one (3, N) buffer:
    parameters, Adam's m and v, one row each, every slot a view of its
    columns in each row, so a whole-store operation is one numpy call on the
    buffer. Gradients live in a separate N-float array that exists only from
    the first gradient write until adam_step consumes it or zero_grads drops
    it; a store without one reads zero gradients. Pickling keeps the buffer,
    the gradient array if any, layout and step, and rebuilds the views.
    Weight gradients that are sums of outer products arrive as rows through
    add_outer; a slot's pending rows are folded in with one GEMM before
    anything reads its gradient, instead of one rank-1 pass per step."""

    def __init__(self, slots: Slots) -> None:
        values: dict[str, np.ndarray] = {}
        for name, value in slots:
            if name in values:
                raise ValueError(f"duplicate parameter slot {name!r}")
            values[name] = np.asarray(value, dtype=np.float64)
        size = sum(v.size for v in values.values())
        self.__setstate__((np.zeros((3, size)), None,
                           [(n, v.shape) for n, v in values.items()], 0))
        for name, value in values.items():
            self._params[name][...] = value

    def __getstate__(self) -> tuple:
        self._flush_all()
        return self._buffer, self._grad_buffer, self._layout, self.step

    def __setstate__(self, state: tuple) -> None:
        self._buffer, grad_buffer, self._layout, self.step = state
        self._pending: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {}
        self._params, self._m, self._v = (self._views(row) for row in self._buffer)
        self._set_grads(grad_buffer)

    def _views(self, row: np.ndarray) -> dict[str, np.ndarray]:
        """Each slot's view of its columns of one N-float row."""
        views = {}
        lo = 0
        for name, shape in self._layout:
            hi = lo + int(np.prod(shape))
            views[name] = row[lo:hi].reshape(shape)
            lo = hi
        return views

    def _set_grads(self, grad_buffer: np.ndarray | None) -> None:
        self._grad_buffer = grad_buffer
        self._grads = {} if grad_buffer is None else self._views(grad_buffer)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def add_outer(self, name: str, left: np.ndarray, right: np.ndarray) -> None:
        """Defer grad[name] += left.T @ right over rows: a 1-D vector is one
        row, a 2-D (m, .) block is m rows, and left and right pair row by row."""
        lefts, rights = self._pending.setdefault(name, ([], []))
        lefts.append(left)
        rights.append(right)

    def _flush_all(self) -> None:
        for name in list(self._pending):
            self.grad(name)

    def grad(self, name: str) -> np.ndarray:
        """The slot's gradient, pending rows folded in; the store's gradient
        array starts here, as zeros, when it holds none."""
        if self._grad_buffer is None:
            self._set_grads(np.zeros(self._buffer.shape[1]))
        rows = self._pending.pop(name, None)
        if rows is not None:
            self._grads[name] += np.vstack(rows[0]).T @ np.vstack(rows[1])
        return self._grads[name]

    def zero_grads(self) -> None:
        self._pending.clear()
        self._set_grads(None)

    def scale_grads(self, factor: float) -> None:
        self._flush_all()
        if self._grad_buffer is not None:
            self._grad_buffer *= factor

    def grad_norm(self) -> float:
        self._flush_all()
        total = 0.0
        for g in self._grads.values():
            total += float(np.sum(g * g))
        return float(np.sqrt(total))

    def clip_grads(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most max_norm."""
        norm = self.grad_norm()
        if norm > max_norm > 0.0:
            self.scale_grads(max_norm / norm)
        return norm

    def copy(self) -> "ParamStore":
        """Deep copy of parameters, moments, step counter and, if the store
        holds any, gradients."""
        return deepcopy(self)  # through __getstate__ and __setstate__

    def parameters(self) -> Iterable[tuple[str, np.ndarray]]:
        return self._params.items()


def add_rows(target: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """target[ids[j]] += rows[j] for every j, rows sharing an id summed first,
    one after another in their order: a stable sort groups them, and one
    sparse product with a 0/1 matrix, one row per distinct id, sums each
    group, where np.add.at would loop over the rows one element at a time."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    groups = csr_array((np.ones(ids.size), order, np.append(starts, ids.size)),
                        shape=(starts.size, rows.shape[0]))
    target[ids[starts]] += groups @ rows


# Adam's moment decays and denominator guard (Kingma and Ba, arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# elements per Adam tile: its parameter, gradient, moments and scratch (640 KB) stay in L2
ADAM_TILE = 16384


def adam_step(store: ParamStore, learning_rate: float) -> ParamStore:
    """One bias-corrected Adam update at learning_rate (finite and > 0)
    over every slot, on zero gradients if the store holds none; drops the
    gradients and increments the step counter. Raises on non-finite
    gradients. The steps of `lr * (m / bc1) / (sqrt(v / bc2) + eps)` run in
    that order in one scratch buffer and the spent gradient, with no other
    temporary, over tiles of ADAM_TILE columns of the store's buffer; a tile
    may span slots, as every step is elementwise."""
    if not 0 < learning_rate < np.inf:
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    store._flush_all()
    grads = store._grad_buffer
    if grads is None:
        grads = np.zeros(store._buffer.shape[1])
    elif not np.isfinite(grads).all():
        bad = next(n for n, g in store._grads.items() if not np.isfinite(g).all())
        raise FloatingPointError(f"non-finite gradient in slot {bad!r}")
    store.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** store.step
    bc2 = 1.0 - ADAM_BETA2 ** store.step
    scratch = np.empty(ADAM_TILE)
    for lo in range(0, grads.size, ADAM_TILE):
        p, m, v = store._buffer[:, lo:lo + ADAM_TILE]
        g = grads[lo:lo + ADAM_TILE]
        buf = scratch[:g.size]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=buf)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=buf), g, out=buf)
        np.multiply(np.divide(m, bc1, out=buf), learning_rate, out=buf)
        np.sqrt(np.divide(v, bc2, out=g), out=g)
        g += ADAM_EPSILON
        p -= np.divide(buf, g, out=buf)
    store.zero_grads()
    return store


def finite_diff_check(f: Callable[[ParamStore], float], store: ParamStore,
                      analytic: Mapping[str, np.ndarray], eps: float = 1e-5,
                      num_samples: int = 100,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative error between central differences of f and the analytic
    gradients, over up to num_samples sampled coordinates.

    Relative error uses denominator max(1, |analytic|, |numeric|). Reports,
    never raises: a broken gradient shows up as a large return value.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    coords: list[tuple[str, int]] = []
    for name, g in analytic.items():
        coords.extend((name, i) for i in range(np.asarray(g).size))
    if len(coords) > num_samples:
        picked = rng.choice(len(coords), size=num_samples, replace=False)
        coords = [coords[i] for i in picked]
    worst = 0.0
    for name, flat_idx in coords:
        p = store[name].reshape(-1)
        old = p[flat_idx]
        p[flat_idx] = old + eps
        f_plus = f(store)
        p[flat_idx] = old - eps
        f_minus = f(store)
        p[flat_idx] = old
        numeric = (f_plus - f_minus) / (2.0 * eps)
        exact = float(np.asarray(analytic[name]).reshape(-1)[flat_idx])
        err = abs(numeric - exact) / max(1.0, abs(exact), abs(numeric))
        worst = max(worst, err)
    return worst
