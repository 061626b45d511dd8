"""Workloads and timed phases of the benchmark.

A run of one workload:

1. sets up the program: corpus synthesis, top-K filtering, split,
   complication table and model initialization;
2. warms up along a fixed trajectory: supervised batches
   (`adversarial_round` under `no_arl=True`) until the greedy paths of a
   probe set are non-empty, checked every BLOCK batches. The model at its
   end is cached in the checkout, keyed by a digest of the package source,
   so only the first run of a workload in a checkout trains it;
3. measures for `seconds`, in passes. Each pass runs, from the model the
   warm-up left, adversarial rounds on batches drawn with the run seed,
   eval decode of the test split in chunks whose order the run seed
   shuffles, the metric table, supervised batches that continue the
   trajectory, and the set-up SETUP_REPLAYS times, each phase one step at
   a time in turn with the others. Passes repeat until the time is spent,
   and at least MIN_PASSES times;
4. checks the decoder-plus-encoder gradient by central differences.

The corpus and the warm-up trajectory are fixed by the workload
(TRAJECTORY_SEED), not by the run seed. A run is far too short to train a
model that reads its documents: it stops at the first state whose greedy
paths are non-empty, where every document still gets the same prediction.
Which codes that prediction holds, and so the Jaccard, the path length and
the decode cost, would jump between corpus seeds. Fixed, the supervised
loss (the mean over the supervised batches of a pass) and the test Jaccard
depend on the code alone, so a change that moves the training trajectory
shows in them.

Every phase is a closed loop: the next batch is issued when the previous
one returns. Every pass replays the same batches from the same state and
must reproduce the first pass bit for bit. A throughput is the documents of
every pass over the time their batches took, and the set-up time is the
median set-up. On a shared machine the speed of the whole run swings by up
to 1.9x, in spells of seconds to minutes that other tenants cause. Taken
over the whole run, with the phases interleaved so that each sees every
spell, a throughput averages them. The fastest replay of each batch would
depend instead on whether a fast spell fell in the run: cut into 30 s runs,
a 20-minute desk timeline and a 10-minute published one on a 2-core host
gave that estimator a spread between runs up to 1.7x wider.

In a traced run, every other pass runs with spans on. Per-layer figures
come from the traced passes, throughputs from the others, and the ratio
of the two is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import glob
import hashlib
import math
import os
import pickle
import resource
from time import perf_counter

import numpy as np

from ehrpath import corpus, encoder, generator, metrics, numerics, trainer
from tracing import Recorder

MIN_PASSES = 4            # two traced and two untraced in a traced run
SETUP_REPLAYS = 3         # set-ups in one pass
BLOCK = 8                 # supervised batches between probe checks
PROBE_DOCS = 32           # validation documents decoded by each probe check
FD_SAMPLES_PER_SLOT = 3   # coordinates per parameter slot in the gradient check
FD_TOLERANCE = 1e-4       # the package's own oracle threshold
TRAJECTORY_SEED = 1       # corpus, initialization and warm-up; the first desk test seed
# warmed-up models, kept between runs in the checkout's build directory
CACHE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         ".bench_build", "warm-up")

DESK_CORPUS = dict(num_docs=2000, vocab_size=200, num_codes=20, top_k=20,
                   planted_pairs=tuple((2 * i, 2 * i + 1, 0.9) for i in range(5)),
                   doc_len=(12, 30), code_skew=0.3, extra_code_prob=0.3,
                   signal_strength=0.85)
LONG_CORPUS = dict(num_docs=1500, vocab_size=20000, num_codes=50, top_k=50,
                   planted_pairs=tuple((2 * i, 2 * i + 1, 0.9) for i in range(12)),
                   doc_len=(200, 400), code_skew=0.3, extra_code_prob=0.3,
                   signal_strength=0.85)
DESK_SIZES = dict(d_embed=24, d_code=24, n_filters=20)


@dataclasses.dataclass(frozen=True)
class Workload:
    corpus: dict
    train: dict
    min_sup_batches: int
    max_sup_batches: int
    rounds: int           # adversarial rounds and supervised batches in one pass


# Why these three: `desk` is dominated by Python per-call overhead (the
# traffic of the acceptance tests), `published` by rank-1 weight-gradient
# updates in the decoder backward, `long-notes` by the encoder and by
# Adam's sweeps over a large embedding table. The published-size workloads
# train at 3e-3 so that greedy paths turn non-empty within a few dozen
# batches; at 1e-3 that takes twice as many.
WORKLOADS = {
    "desk": Workload(DESK_CORPUS, dict(batch_size=16, learning_rate=1e-3, dropout=0.1,
                                       **DESK_SIZES),
                     min_sup_batches=64, max_sup_batches=640, rounds=24),
    "published": Workload(DESK_CORPUS, dict(batch_size=32, learning_rate=3e-3, dropout=0.1),
                          min_sup_batches=16, max_sup_batches=96, rounds=3),
    "long-notes": Workload(LONG_CORPUS, dict(batch_size=32, learning_rate=3e-3, dropout=0.1),
                           min_sup_batches=16, max_sup_batches=96, rounds=3),
}


class Checks:
    """Operations attempted and failed; any failure fails the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def setup(w: Workload):
    """The program's set-up for one run: corpus, table, model."""
    ccfg = corpus.CorpusConfig(seed=TRAJECTORY_SEED, **w.corpus)
    docs, codes, tokens = corpus.generate_synthetic_corpus(ccfg)
    docs = corpus.filter_top_k(docs, ccfg.top_k)
    splits = corpus.split_indices(len(docs), TRAJECTORY_SEED)
    table = corpus.build_complication_table([docs[i] for i in splits["train"]],
                                            or_threshold=2.0, min_support=5)
    bundle = corpus.CorpusBundle(docs, codes, tokens, table, splits)
    cfg = trainer.TrainConfig(seed=TRAJECTORY_SEED, **w.train)
    return bundle, cfg, trainer.build_model(bundle, cfg)


def warm_up_key(name: str) -> str:
    """Digest of everything the warm-up trajectory depends on: the package
    source, this file, the workload and numpy."""
    digest = hashlib.sha256(f"{name} {np.__version__}".encode())
    package = os.path.dirname(os.path.abspath(trainer.__file__))
    for path in sorted(glob.glob(os.path.join(package, "*.py"))) + [os.path.abspath(__file__)]:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:24]


def rebuild_array(data: bytes, dtype: str, shape: tuple) -> np.ndarray:
    return np.frombuffer(data, dtype=np.dtype(dtype)).reshape(shape).copy()


class CachePickler(pickle.Pickler):
    """Pickles arrays as their bytes, rebuilt with numpy's own dtype object.
    Plain pickling rebuilds a float64 dtype as an object that equals numpy's
    own but is not it; every array computed from such an array inherits it,
    and numpy then dispatches more slowly (training at published sizes ran
    1.5x slower). This way every array of the cached model, Adam moments
    included, ends as training leaves it."""

    def reducer_override(self, obj):
        if type(obj) is np.ndarray and not obj.dtype.hasobject:
            return rebuild_array, (obj.tobytes(), obj.dtype.str, obj.shape)
        return NotImplemented


def batches(docs, size: int, rng: np.random.Generator):
    """Endless stream of full batches over shuffled passes of docs."""
    while True:
        order = rng.permutation(len(docs))
        for i in range(0, len(docs) - size + 1, size):
            yield [docs[int(j)] for j in order[i:i + size]]


class Runner:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.checks = Checks()
        self.rec = Recorder(self.w.corpus["top_k"])
        # (phase, spans on) -> batch index -> (docs, elapsed seconds of each replay)
        self.times: dict[tuple[str, bool], dict[int, tuple[list, list[float]]]] = {}
        self.firsts: dict[str, object] = {}
        self.passes = 0

    def timed(self, phase: str, index: int, docs, call):
        """Run batch `index` of a phase; spans on in odd passes of a traced run."""
        spans = self.trace and self.passes % 2 == 1
        self.rec.phase = phase
        with self.rec.spans_on() if spans else contextlib.nullcontext():
            start = perf_counter()
            out = call()
            elapsed = perf_counter() - start
        self.times.setdefault((phase, spans), {}).setdefault(index, (docs, []))[1].append(elapsed)
        return out

    # -- phases ---------------------------------------------------------

    def run(self) -> dict:
        self.bundle, self.cfg, self.model = self.setup_pass()
        self.param_mb = sum(p.nbytes for store in (self.model.gen_store, self.model.disc_store)
                            for _, p in store.parameters()) / 2 ** 20
        with self.rec.path_probe():
            self.warm_up()
            start = self.model.snapshot()
            deadline = perf_counter() + self.seconds
            while self.passes < MIN_PASSES or perf_counter() < deadline:
                n_chunks = -(-len(self.bundle.split_docs("test")) // self.cfg.batch_size)
                interleave((self.adv_pass(start), self.w.rounds),
                           (self.decode_pass(), n_chunks + 1),
                           (self.sup_pass(start), self.w.rounds),
                           (self.setup_replays(), SETUP_REPLAYS))
                self.passes += 1
        for phase in ("adv", "decode", "probe"):
            self.checks.op(self.rec.get(phase, "bad_paths") == 0, f"invalid greedy path in {phase}")
        self.checks.op(self.rec.get("adv", "path_codes") > 0,
                       "every generated path of the adversarial phase was empty")
        self.gradient_check()
        return self.result()

    def setup_replays(self):
        for _ in range(SETUP_REPLAYS):
            self.setup_pass()
            yield

    def setup_pass(self):
        bundle, cfg, model = self.timed("setup", 0, range(self.w.corpus["num_docs"]),
                                        lambda: setup(self.w))
        self.same("setup", ([(d.tokens, d.gold_codes) for d in bundle.documents],
                            bundle.table.pairs))
        return bundle, cfg, model

    def warm_up(self) -> None:
        """Bring the model to the end of the fixed trajectory, from the
        cache when an earlier run with the same code got there."""
        sup_cfg = dataclasses.replace(self.cfg, no_arl=True)
        stream = batches(self.bundle.split_docs("train"), self.cfg.batch_size,
                         np.random.default_rng(TRAJECTORY_SEED))
        path = os.path.join(CACHE_DIR, f"{self.name}-{warm_up_key(self.name)}.pkl")
        if os.path.exists(path):
            with open(path, "rb") as fh:  # written by this benchmark, below
                self.model, dropout_rng, n_batches = pickle.load(fh)
            for _ in range(n_batches):
                next(stream)
        else:
            dropout_rng, n_batches = self.train_to_first_paths(sup_cfg, stream)
            if self.checks.failed == 0:
                os.makedirs(CACHE_DIR, exist_ok=True)
                for stale in glob.glob(os.path.join(CACHE_DIR, f"{self.name}-*.pkl")):
                    os.remove(stale)
                tmp = f"{path}.{os.getpid()}"
                with open(tmp, "wb") as fh:
                    CachePickler(fh).dump((self.model, dropout_rng, n_batches))
                os.replace(tmp, path)
        # supervised passes continue the trajectory from its end
        self.sup_rounds = ([next(stream) for _ in range(self.w.rounds)], sup_cfg, dropout_rng)
        self.rec.phase = "probe"
        records = trainer.decode_predictions(self.model, self.probe_docs(), self.bundle.table)
        self.checks.op(any(r.predicted for r in records),
                       "greedy paths still empty after the warm-up")

    def probe_docs(self):
        return self.bundle.split_docs("validation")[:PROBE_DOCS]

    def train_to_first_paths(self, sup_cfg, stream):
        """The fixed trajectory: supervised batches from `stream` until the
        probe set's greedy paths are non-empty. Returns the dropout stream
        and the number of batches."""
        dropout_rng = numerics.named_rng(TRAJECTORY_SEED, "dropout")
        losses = []
        while len(losses) < self.w.max_sup_batches:
            self.rec.phase = "warm-up"
            out = trainer.adversarial_round(self.model, next(stream), self.bundle.table,
                                            sup_cfg, dropout_rng)
            losses.append(out["gen"])
            self.checks.op(math.isfinite(out["gen"]), f"warm-up batch {len(losses)} loss")
            if len(losses) >= self.w.min_sup_batches and len(losses) % BLOCK == 0:
                self.rec.phase = "probe"
                records = trainer.decode_predictions(self.model, self.probe_docs(),
                                                     self.bundle.table)
                if any(r.predicted for r in records):
                    break
        return dropout_rng, len(losses)

    def sup_pass(self, start: trainer.Model):
        model = start.snapshot()
        rounds, sup_cfg, rng = self.sup_rounds
        dropout_rng = copy.deepcopy(rng)
        losses = []
        for i, batch in enumerate(rounds):
            losses.append(self.timed("sup", i, batch, lambda: trainer.adversarial_round(
                model, batch, self.bundle.table, sup_cfg, dropout_rng))["gen"])
            yield
        self.checks.op(all(math.isfinite(v) for v in losses), "supervised pass loss")
        self.same("sup", losses)
        self.sup_loss_last = float(np.mean(losses))

    def adv_pass(self, start: trainer.Model):
        """Adversarial rounds on batches drawn with the run seed."""
        stream = batches(self.bundle.split_docs("train"), self.cfg.batch_size,
                         np.random.default_rng(self.seed))
        model = start.snapshot()
        dropout_rng = numerics.named_rng(self.seed, "dropout")
        losses = []
        for i in range(self.w.rounds):
            batch = next(stream)
            out = self.timed("adv", i, batch, lambda: trainer.adversarial_round(
                model, batch, self.bundle.table, self.cfg, dropout_rng))
            losses.append((out["gen"], out["pg"], out["disc"]))
            self.checks.op(all(math.isfinite(v) for v in losses[-1]),
                           f"adversarial round {i} loss")
            yield
        self.same("adv", losses)

    def decode_pass(self):
        """Eval decode of the test split, in an order the run seed shuffles."""
        test = self.bundle.split_docs("test")
        test = [test[int(i)] for i in np.random.default_rng(self.seed).permutation(len(test))]
        size = self.cfg.batch_size
        n_codes = self.bundle.codes.num_real
        records = []
        for i in range(0, len(test), size):
            chunk = test[i:i + size]
            records.extend(self.timed("decode", i, chunk, lambda: trainer.decode_predictions(
                self.model, chunk, self.bundle.table)))
            yield
        table = self.timed("score", 0, test, lambda: metrics.metric_table(
            records, self.bundle.table, range(n_codes)))
        yield
        if "decode" not in self.firsts:
            self.test_jaccard = table["jaccard"]
            for rec, doc in zip(records, test):
                self.checks.op(valid_record(rec, doc, n_codes), "invalid prediction record")
        self.same("decode", ([(r.predicted, r.scores) for r in records], table))

    def same(self, phase: str, outcome) -> None:
        """Every pass of a phase must reproduce its first pass exactly."""
        first = self.firsts.setdefault(phase, outcome)
        if first is not outcome:
            self.checks.op(outcome == first, f"{phase} pass differs from the first")

    def gradient_check(self) -> None:
        """Central differences against the decoder-plus-encoder gradient of
        the warmed-up model on one fixed test document, outside any timing."""
        model, table = self.model, self.bundle.table
        store, gen_cfg, enc_cfg = model.gen_store, model.gen_cfg, model.enc_cfg
        doc = self.bundle.split_docs("test")[0]
        gold = sorted(doc.gold_codes)[:gen_cfg.max_len - 1]
        inputs = [gen_cfg.stop_id] + gold
        targets = [(c, 1.0) for c in gold] + [(gen_cfg.stop_id, 1.0)]

        def loss(s):
            x, _ = encoder.encode_ehr(doc.tokens, s, enc_cfg)
            return generator.path_loss(generator.run_steps(s, gen_cfg, table, x, inputs), targets)

        store.zero_grads()
        x, cache = encoder.encode_ehr(doc.tokens, store, enc_cfg)
        traces = generator.run_steps(store, gen_cfg, table, x, inputs)
        dx = generator.sequence_backward(store, gen_cfg, traces, targets)
        encoder.encode_backward(dx, cache, store, enc_cfg)
        worst = 0.0
        for i, name in enumerate(store.names()):
            err = numerics.finite_diff_check(loss, store, {name: store.grad(name).copy()},
                                             num_samples=FD_SAMPLES_PER_SLOT,
                                             rng=np.random.default_rng(i))
            worst = max(worst, err)
        store.zero_grads()
        self.fd_error = worst
        self.checks.op(worst <= FD_TOLERANCE,
                       f"finite-difference error {worst:.3g} above {FD_TOLERANCE}")

    # -- results --------------------------------------------------------

    def rate(self, phase: str, spans: bool = False) -> float:
        """Documents over seconds, summed over every replay of every batch."""
        batch_list = self.times[(phase, spans)].values()
        return (sum(len(docs) * len(ts) for docs, ts in batch_list)
                / sum(sum(ts) for _, ts in batch_list))

    def result(self) -> dict:
        if self.trace:
            values = self.layer_metrics()
        else:
            values = {
                "setup_s": (float(np.median(self.times[("setup", False)][0][1])), "s"),
                "sup_docs_per_s": (self.rate("sup"), "docs/s"),
                "adv_docs_per_s": (self.rate("adv"), "docs/s"),
                "decode_docs_per_s": (self.rate("decode"), "docs/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "sup_loss_last": (self.sup_loss_last, "nats"),
                "test_jaccard": (self.test_jaccard, "ratio"),
                "ops_ok_share": (1.0 - self.checks.failed / self.checks.attempted, "ratio"),
            }
        return {
            "correct": self.checks.failed == 0,
            "attempted": self.checks.attempted,
            "failed": self.checks.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()},
            "problems": self.checks.problems,
            "fd_error": self.fd_error,
        }

    def layer_metrics(self) -> dict:
        rec = self.rec
        out = {}
        for phase, spans in PHASE_SPANS.items():
            traced = self.times[(phase, True)].values()
            docs = sum(len(d) * len(ts) for d, ts in traced)
            for span in spans:
                calls, self_s = rec.spans.get((phase, span), (0, 0.0))
                out[f"{phase}.{span}.calls_per_doc"] = (calls / docs, "calls/doc")
                out[f"{phase}.{span}.self_ms_per_doc"] = (1e3 * self_s / docs, "ms/doc")
        for phase in ("sup", "adv", "decode"):
            plain = self.times[(phase, False)].values()
            docs = [d for batch, _ in plain for d in batch]
            batch_ms = [1e3 * t for _, ts in plain for t in ts]
            traced_s = sum(sum(ts) for _, ts in self.times[(phase, True)].values())
            covered = sum(s for (p, _), (_, s) in rec.spans.items() if p == phase)
            steps = rec.get(phase, "gen_steps")
            out.update({
                f"{phase}.tokens_per_doc": (np.mean([len(d.tokens) for d in docs]), "tokens"),
                f"{phase}.gold_set_mean": (np.mean([len(d.gold_codes) for d in docs]), "codes"),
                f"{phase}.copy_active_share": (rec.get(phase, "copy_active_steps") / steps
                                               if steps else 0.0, "ratio"),
                f"{phase}.batch_ms_p50": (np.percentile(batch_ms, 50), "ms"),
                f"{phase}.batch_ms_p90": (np.percentile(batch_ms, 90), "ms"),
                f"{phase}.batch_samples": (len(batch_ms), "count"),
                f"{phase}.trace_overhead": (self.rate(phase) / self.rate(phase, True) - 1.0,
                                            "ratio"),
                f"{phase}.uncovered_share": (1.0 - covered / traced_s, "ratio"),
            })
        for phase in ("adv", "decode"):
            paths = rec.get(phase, "paths")
            out.update({
                f"{phase}.decode_steps_per_doc": (rec.get(phase, "path_steps") / paths, "steps"),
                f"{phase}.path_len_mean": (rec.get(phase, "path_codes") / paths, "codes"),
                f"{phase}.empty_path_share": (rec.get(phase, "empty_paths") / paths, "ratio"),
            })
        for phase in ("sup", "adv"):
            out[f"{phase}.pinned_share"] = (rec.get(phase, "pinned_labels")
                                            / rec.get(phase, "aligned_labels"), "ratio")
            out[f"{phase}.clip_share"] = (rec.get(phase, "clipped")
                                          / rec.get(phase, "clip_calls"), "ratio")
        out["adv.lstm_steps_per_scored_code"] = (
            rec.spans.get(("adv", "disc_step"), (0, 0.0))[0]
            / rec.get("adv", "scored_prefixes"), "steps")
        out["param_mb"] = (self.param_mb, "MiB")
        return out


_TRAIN_SPANS = ("adversarial_round", "encode_ehr", "encode_backward", "run_steps",
                "generator_step", "gen_step", "align_path", "path_loss",
                "sequence_backward", "gen_step_backward", "clip_grads", "adam_step")
# the spans each phase reports; `score` is the metric table over the decoded test split
PHASE_SPANS = {
    "setup": ("corpus_synth", "corpus_table", "build_model"),
    "sup": _TRAIN_SPANS,
    "adv": _TRAIN_SPANS + ("decode_path", "discriminator_loss", "reward", "disc_step",
                           "disc_step_backward"),
    "decode": ("decode_predictions", "encode_ehr", "decode_path", "generator_step", "gen_step"),
    "score": ("metric_table",),
}


def interleave(*phases) -> None:
    """Run phases, given as (generator that yields after each timed step,
    number of steps), step by step: always the phase that has done the
    smallest share of its steps. Each phase's timed steps are thus spread
    over the whole pass, and so over the whole run, rather than bunched."""
    done = [0] * len(phases)
    while True:
        live = [i for i, (_, n) in enumerate(phases) if done[i] < n]
        if not live:
            break
        i = min(live, key=lambda i: done[i] / phases[i][1])
        next(phases[i][0], None)
        done[i] += 1
    for gen, _ in phases:  # the checks after each phase's last step
        for _ in gen:
            pass


def valid_record(rec, doc, n_codes: int) -> bool:
    """A prediction holds real code ids only and scores every real code."""
    return (all(0 <= c < n_codes for c in rec.predicted)
            and rec.gold == doc.gold_codes
            and sorted(rec.scores) == list(range(n_codes))
            and all(0.0 <= s <= 1.0 for s in rec.scores.values()))
