"""Outside-in spans and counters for the benchmark.

Spans are recorded by swapping the module attributes that the package's
entry points look up at call time (for example `trainer.encode_ehr`) for
timing wrappers, and putting the originals back afterwards. The package
itself is never edited. A span's self time is its duration minus the time
its child spans cover, so the self times of one phase add up to the time
its root spans cover.

Two sets of wrappers exist. The path probe only counts and validates the
decoded paths, costs one extra Python call per document, and stays on in
every run. The spans time every layer boundary and are switched on for
every other pass of a traced run only.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from ehrpath import corpus, discriminator, generator, metrics, numerics, trainer


def _count_copy(rec, args, kwargs, step):
    rec.count("gen_steps")
    if step.dist.copy_ids:
        rec.count("copy_active_steps")


def _count_pins(rec, args, kwargs, alignment):
    _dists, greedy, gold = args
    labels = set(gold)
    # pinning keeps every gold label the greedy path already emits, once each
    rec.count("pinned_labels", len(labels & set(greedy)))
    rec.count("aligned_labels", len(labels))


def _count_prefixes(rec, args, kwargs, loss):
    rec.count("scored_prefixes", len(args[0]))


def _count_reward(rec, args, kwargs, value):
    rec.count("scored_prefixes")


def _count_clip(rec, args, kwargs, norm):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    rec.count("clip_calls")
    if norm > max_norm > 0.0:
        rec.count("clipped")


# (owner, attribute, span name, observer): every call an entry point makes
# through one of these attributes becomes a span of that name
SPANS = (
    (corpus, "generate_synthetic_corpus", "corpus_synth", None),
    (corpus, "build_complication_table", "corpus_table", None),
    (trainer, "build_model", "build_model", None),
    (trainer, "adversarial_round", "adversarial_round", None),
    (trainer, "decode_predictions", "decode_predictions", None),
    (metrics, "metric_table", "metric_table", None),
    (trainer, "encode_ehr", "encode_ehr", None),
    (trainer, "encode_backward", "encode_backward", None),
    (trainer, "run_steps", "run_steps", None),
    (trainer, "decode_path_traced", "decode_path", None),
    (trainer, "decode_path", "decode_path", None),
    (generator, "generator_step", "generator_step", _count_copy),
    (generator, "lstm_step", "gen_step", None),
    (generator, "lstm_step_backward", "gen_step_backward", None),
    (trainer, "sequence_backward", "sequence_backward", None),
    (trainer, "path_loss", "path_loss", None),
    (trainer, "align_path", "align_path", _count_pins),
    (trainer, "discriminator_loss", "discriminator_loss", _count_prefixes),
    (trainer, "reward", "reward", _count_reward),
    (discriminator, "lstm_step", "disc_step", None),
    (discriminator, "lstm_step_backward", "disc_step_backward", None),
    (trainer, "adam_step", "adam_step", None),
    (numerics.ParamStore, "clip_grads", "clip_grads", _count_clip),
)


class Recorder:
    """Per-phase span statistics and counters, kept in memory."""

    def __init__(self, n_codes: int) -> None:
        self.n_codes = n_codes
        self.phase = "setup"
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list[float]] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.phase, name)] += amount

    def get(self, phase: str, name: str) -> float:
        return self.counts.get((phase, name), 0.0)

    def _timed(self, name, fn, observe):
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat = self.spans[(self.phase, name)]
                stat[0] += 1
                stat[1] += elapsed - children[0]
            if observe is not None:
                observe(self, args, kwargs, out)
            return out
        return wrapper

    def _observed(self, fn, observe):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            observe(self, args, kwargs, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def spans_on(self):
        """Time every layer boundary in SPANS while the block runs."""
        with _swapped([(owner, attr, lambda fn, n=name, o=obs: self._timed(n, fn, o))
                       for owner, attr, name, obs in SPANS]):
            yield

    @contextlib.contextmanager
    def path_probe(self):
        """Count and validate every greedy path decoded while the block runs."""
        def observe(rec, args, kwargs, out):
            path = out[0] if isinstance(out, tuple) else out
            rec.count("paths")
            rec.count("path_steps", len(path.codes))
            rec.count("path_codes", path.valid_len)
            if path.valid_len == 0:
                rec.count("empty_paths")
            valid = path.valid_codes
            ok = (len(set(valid)) == len(valid)
                  and all(0 <= c < rec.n_codes for c in valid)
                  and all(c == rec.n_codes for c in path.codes[path.valid_len:]))
            if not ok:
                rec.count("bad_paths")
        with _swapped([(trainer, attr, lambda fn: self._observed(fn, observe))
                       for attr in ("decode_path", "decode_path_traced")]):
            yield


@contextlib.contextmanager
def _swapped(targets):
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
