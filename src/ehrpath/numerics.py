"""Dense float64 math shared by every model component.

Parameter storage with gradient and Adam-moment buffers, the
bias-corrected Adam update, and a central-difference gradient oracle
used to validate every hand-derived backward pass in the test suite.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

# Uniform init half-width for every trainable weight; small enough to keep
# sigmoids/tanh well inside their linear region at the default layer sizes.
INIT_SCALE = 0.08


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
    """Named float64 parameter slots, each paired with a gradient buffer and
    Adam first/second moments. One store per trainable model side.
    Weight gradients that are sums of outer products arrive as rows through
    add_outer; a slot's pending rows are folded in with one GEMM before
    anything reads its gradient, instead of one rank-1 pass per step."""

    def __init__(self) -> None:
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._pending: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {}
        self.step = 0

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"duplicate parameter slot {name!r}")
        p = np.array(value, dtype=np.float64)
        self._params[name] = p
        self._grads[name] = np.zeros_like(p)
        self._m[name] = np.zeros_like(p)
        self._v[name] = np.zeros_like(p)
        return p

    def add_uniform(self, name: str, shape: tuple[int, ...],
                    rng: np.random.Generator | None) -> np.ndarray:
        return self.add(name, uniform_init(shape, rng))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def add_outer(self, name: str, left: np.ndarray, right: np.ndarray) -> None:
        """Defer grad[name] += left.T @ right over rows: a 1-D vector is one
        row, a 2-D (m, .) block is m rows, and left and right pair row by row."""
        lefts, rights = self._pending.setdefault(name, ([], []))
        lefts.append(left)
        rights.append(right)

    def _flush(self, name: str) -> None:
        rows = self._pending.pop(name, None)
        if rows is not None:
            self._grads[name] += np.vstack(rows[0]).T @ np.vstack(rows[1])

    def _flush_all(self) -> None:
        for name in list(self._pending):
            self._flush(name)

    def grad(self, name: str) -> np.ndarray:
        self._flush(name)
        return self._grads[name]

    def zero_grads(self) -> None:
        self._pending.clear()
        for g in self._grads.values():
            g.fill(0.0)

    def scale_grads(self, factor: float) -> None:
        self._flush_all()
        for g in self._grads.values():
            g *= factor

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
        """Deep copy of parameters, gradients, moments, and step counter."""
        self._flush_all()
        out = ParamStore()
        for name, p in self._params.items():
            out._params[name] = p.copy()
            out._grads[name] = self._grads[name].copy()
            out._m[name] = self._m[name].copy()
            out._v[name] = self._v[name].copy()
        out.step = self.step
        return out

    def parameters(self) -> Iterable[tuple[str, np.ndarray]]:
        return self._params.items()


def add_rows(target: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """target[ids[j]] += rows[j] for every j, rows sharing an id summed first
    (in their order) with one stable sort and one np.add.reduceat, where
    np.add.at would loop over the rows one element at a time."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    target[ids[starts]] += np.add.reduceat(rows[order], starts)


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def adam_step(store: ParamStore, cfg: AdamConfig) -> ParamStore:
    """One bias-corrected Adam update over every slot; zeroes gradients and
    increments the step counter. Raises on non-finite gradients. The steps
    of `lr * (m / bc1) / (sqrt(v / bc2) + eps)` run in that order in one
    scratch buffer and the spent gradient, with no other temporary."""
    for name in store.names():
        if not np.all(np.isfinite(store.grad(name))):
            raise FloatingPointError(f"non-finite gradient in slot {name!r}")
    store.step += 1
    bc1 = 1.0 - cfg.beta1 ** store.step
    bc2 = 1.0 - cfg.beta2 ** store.step
    scratch = np.empty(max((g.size for g in store._grads.values()), default=0))
    for name in store.names():
        g = store._grads[name]
        m = store._m[name]
        v = store._v[name]
        buf = scratch[:g.size].reshape(g.shape)
        m *= cfg.beta1
        m += np.multiply(g, 1.0 - cfg.beta1, out=buf)
        v *= cfg.beta2
        v += np.multiply(np.multiply(g, 1.0 - cfg.beta2, out=buf), g, out=buf)
        np.multiply(np.divide(m, bc1, out=buf), cfg.learning_rate, out=buf)
        np.sqrt(np.divide(v, bc2, out=g), out=g)
        g += cfg.epsilon
        store._params[name] -= np.divide(buf, g, out=buf)
        g.fill(0.0)
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
