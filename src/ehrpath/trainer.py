"""Training orchestration.

Supervised pretraining minimizes the aligned path loss: a teacher-forced
pass over the gold codes, steps whose prediction is already a gold label
keep it, the remaining labels are Hungarian-assigned, and the step after
the labels is supervised toward STOP. Adversarial rounds then alternate
per batch: one scorer update on ground-truth-vs-generated prefixes, then
one decoder update on the supervised loss plus a reward-weighted
policy-gradient term with the batch-mean reward as baseline. A pretraining
batch is an adversarial round with the scorer switched off (no_arl), so both
phases run through `adversarial_round` and one epoch loop. Validation
metrics are computed each epoch and the best-Jaccard parameters are
retained.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .alignment import align_path, step_targets
from .checkpoint import field_kinds, format_value, parse_value, save_checkpoint
from .corpus import ComplicationTable, CorpusBundle, EhrDocument
from .discriminator import (DiscriminatorConfig, discriminator_loss, discriminator_slots,
                            reward)
from .encoder import (EncodeCache, EncoderConfig, encode_batch, encode_batch_backward,
                      encoder_slots)
from .errors import ConfigError, DataError, TrainingError
from .generator import (GeneratorConfig, StepTrace, batch_backward, decode_path,
                        generator_slots, run_batch, step_losses)
# unused here, but benchmarks/tracing.py still swaps these six attributes,
# which the trainer no longer calls (the FOUND lines on tracing.py in
# CHANGES.md); drop them together with those swaps
from .encoder import encode_backward, encode_ehr  # noqa: F401
from .generator import decode_path_traced, path_loss, run_steps, sequence_backward  # noqa: F401
from .metrics import PredictionRecord, metric_table
from .numerics import ParamStore, adam_step, named_rng


# `train` flags not named after their TrainConfig field; None keeps a field
# off the command line
TRAIN_FLAG_NAMES = {"learning_rate": "lr", "kernel_sizes": None}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200              # adversarial epochs after pretraining
    pretrain_epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-4
    max_len: int = 8
    seed: int = 0
    no_copy: bool = False
    no_arl: bool = False
    supervised_weight: float = 1.0   # weight of the aligned loss inside adversarial updates
    clip_norm: float = 5.0
    dropout: float = 0.5
    # model sizes; defaults are the published configuration, shrink for desk runs
    d_embed: int = 100
    d_code: int = 100
    n_filters: int = 100
    kernel_sizes: tuple[int, ...] = (3, 4, 5)

    @property
    def ablation(self) -> str:
        tags = [t for t, on in (("no_copy", self.no_copy), ("no_arl", self.no_arl)) if on]
        return ",".join(tags) if tags else "none"

    def validate(self) -> None:
        """Each failed rule names its `train` flag, whether the value came
        from the flag or a --config file; nan fails every rule."""
        for names, rule, ok in (
                (("epochs", "pretrain_epochs", "seed"), ">= 0", lambda v: v >= 0),
                (("batch_size", "max_len", "d_embed", "d_code", "n_filters"), ">= 1",
                 lambda v: v >= 1),
                (("learning_rate", "clip_norm"), "finite and > 0", lambda v: 0 < v < np.inf),
                (("supervised_weight",), "finite and >= 0", lambda v: 0 <= v < np.inf),
                (("dropout",), "in [0, 1)", lambda v: 0 <= v < 1)):
            for name in names:
                if not ok(getattr(self, name)):
                    flag = TRAIN_FLAG_NAMES.get(name, name).replace("_", "-")
                    raise ConfigError(f"--{flag} must be {rule}, got {getattr(self, name)}")


@dataclass
class Model:
    enc_cfg: EncoderConfig
    gen_cfg: GeneratorConfig
    gen_store: ParamStore
    disc_cfg: DiscriminatorConfig | None = None
    disc_store: ParamStore | None = None

    def snapshot(self) -> "Model":
        """An independent copy of both stores; between updates a store holds
        no gradients, so the copy holds parameters and Adam moments only."""
        return Model(self.enc_cfg, self.gen_cfg, self.gen_store.copy(), self.disc_cfg,
                     self.disc_store.copy() if self.disc_store is not None else None)

    def parameters(self) -> Iterable[tuple[str, np.ndarray]]:
        """Every slot of both stores; slot names carry their side's prefix."""
        yield from self.gen_store.parameters()
        if self.disc_store is not None:
            yield from self.disc_store.parameters()


@dataclass
class TrainReport:
    pretrain_losses: list[float] = field(default_factory=list)
    gen_losses: list[float] = field(default_factory=list)
    pg_losses: list[float] = field(default_factory=list)
    disc_losses: list[float] = field(default_factory=list)
    val_metrics: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_jaccard: float = -1.0
    wall_clock_s: float = 0.0
    ablation: str = "none"
    checkpoint_path: str | None = None


def _new_model(enc_cfg: EncoderConfig, gen_cfg: GeneratorConfig, has_discriminator: bool,
               rng: np.random.Generator | None) -> Model:
    """Every parameter slot of a model, drawn from rng (zero without one):
    the one place that states the slot names and shapes and the scorer's
    config. The scorer is initialized after the decoder so ablations share
    decoder init."""
    if gen_cfg.rep_dim != enc_cfg.rep_dim:
        raise ValueError(f"rep_dim {gen_cfg.rep_dim} is not n_filters x len(kernel_sizes) = "
                         f"{enc_cfg.rep_dim}")
    model = Model(enc_cfg, gen_cfg,
                  ParamStore(encoder_slots(enc_cfg, rng) + generator_slots(gen_cfg, rng)))
    if has_discriminator:
        model.disc_cfg = DiscriminatorConfig(n_codes=gen_cfg.n_codes, d_code=gen_cfg.d_code,
                                             hidden=enc_cfg.rep_dim, rep_dim=enc_cfg.rep_dim)
        model.disc_store = ParamStore(discriminator_slots(model.disc_cfg, rng))
    return model


def build_model(bundle: CorpusBundle, cfg: TrainConfig) -> Model:
    """Initialize all parameters from the run seed's init stream. The
    scorer is only created when adversarial training is enabled."""
    enc_cfg = EncoderConfig(vocab_size=bundle.tokens.vocab_size, d_embed=cfg.d_embed,
                            kernel_sizes=cfg.kernel_sizes, n_filters=cfg.n_filters,
                            dropout=cfg.dropout)
    gen_cfg = GeneratorConfig(n_codes=bundle.codes.num_real, d_code=cfg.d_code,
                              rep_dim=enc_cfg.rep_dim, no_copy=cfg.no_copy,
                              max_len=cfg.max_len)
    return _new_model(enc_cfg, gen_cfg, not cfg.no_arl, named_rng(cfg.seed, "init"))


@dataclass
class _BatchForward:
    """A batch's training forward: each document's representation (one row
    of x) and the batch's encoder cache, the aligned teacher-forced lockstep
    steps, each document's per-step probabilities (B, T, n_total), zero
    past its last step, and its per-step targets and weights (B, T): 1 at
    each supervised step, 0 elsewhere."""
    x: np.ndarray
    enc_cache: EncodeCache
    steps: list[StepTrace]
    probs: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def losses(self) -> list[float]:
        """Each document's aligned loss: -log p(target) summed over its steps."""
        return step_losses(self.steps, self.targets, self.weights).tolist()


def _aligned_forward(model: Model, batch: Sequence[EhrDocument], table: ComplicationTable,
                     dropout_rng: np.random.Generator) -> _BatchForward:
    """Train-mode encoding, then a teacher-forced lockstep pass over each
    document's gold codes in ascending order (the same serialization the
    path scorer sees), aligned to the per-step predictions.

    The assignment is square: the first |gold| steps each claim exactly one
    label, so every content step is supervised, and the surplus step right
    after them is supervised toward STOP."""
    store, gen_cfg = model.gen_store, model.gen_cfg
    x, enc_cache = encode_batch([doc.tokens for doc in batch], store, model.enc_cfg, dropout_rng)
    golds = [sorted(doc.gold_codes) for doc in batch]
    inputs = [[gen_cfg.stop_id] + gold[:gen_cfg.max_len - 1] for gold in golds]
    steps = run_batch(store, gen_cfg, table, x, inputs)
    probs = np.zeros((len(batch), len(steps), gen_cfg.n_total))
    for t, step in enumerate(steps):
        probs[step.rows, t] = step.probs
    targets, weights = np.zeros(probs.shape[:2], dtype=np.int64), np.zeros(probs.shape[:2])
    for b, (doc, gold) in enumerate(zip(batch, golds)):
        label_probs = probs[b, :len(gold)]
        alignment = align_path(label_probs, label_probs.argmax(axis=1).tolist(), doc.gold_codes)
        # over all the batch's steps: a first unassigned step (STOP) is the document's last
        targets[b], weights[b] = step_targets(alignment, len(steps), gen_cfg.stop_id)
    return _BatchForward(x, enc_cache, steps, probs, targets, weights)


def _policy_terms(store: ParamStore, gen_cfg: GeneratorConfig, table: ComplicationTable,
                  first: StepTrace, paths: Sequence[tuple[int, ...]],
                  advantages: np.ndarray) -> tuple[list[StepTrace], np.ndarray, np.ndarray]:
    """The policy-gradient terms of greedy paths (their valid codes), at
    least one non-empty, each decoded from its row of `first`: their steps,
    `first` then each path replayed teacher-forced from its row, and their
    targets (B, T), each path's codes, weighted by their advantages."""
    lengths = np.array([len(path) for path in paths])
    held = np.arange(lengths.max()) < lengths[:, None]
    targets, weights = np.zeros(held.shape, dtype=np.int64), np.zeros(held.shape)
    targets[held] = [c for path in paths for c in path]
    weights[held] = advantages
    return ([first] + run_batch(store, gen_cfg, table, first.x, [p[:-1] for p in paths], first),
            targets, weights)


def _decoder_backward(model: Model, fwd: _BatchForward, weight: float, *policy) -> None:
    """Decoder+encoder gradient accumulation for the aligned loss at
    `weight`, plus, in adversarial rounds, the policy-gradient terms
    (`_policy_terms`: steps, targets, weights)."""
    store, gen_cfg = model.gen_store, model.gen_cfg
    dx = batch_backward(store, gen_cfg, fwd.steps, fwd.targets, weight * fwd.weights)
    if policy:
        dx += batch_backward(store, gen_cfg, *policy)
    encode_batch_backward(dx, fwd.enc_cache, store, model.enc_cfg)


def adversarial_round(model: Model, batch: Sequence[EhrDocument], table: ComplicationTable,
                      cfg: TrainConfig, dropout_rng: np.random.Generator) -> dict[str, float]:
    """One update on a batch. Adversarial: a scorer update, then a decoder
    update on the aligned loss at supervised_weight plus the reward-weighted
    policy-gradient term. Under no_arl (or without a scorer) only the
    decoder update on the aligned loss at weight 1, the scorer untouched."""
    fwd = _aligned_forward(model, batch, table, dropout_rng)
    weight, policy, pg_total, disc_loss = 1.0, (), 0.0, 0.0
    if not cfg.no_arl and model.disc_store is not None:
        weight = cfg.supervised_weight
        # greedy decode per document, continuing its row of the aligned
        # pass's first step
        generated = [decode_path(model.gen_store, model.gen_cfg, table, x, fwd.steps[0],
                                 b).valid_codes for b, x in enumerate(fwd.x)]

        # scorer update: each document's gold path positive, then its
        # generated path negative, every prefix of each scored
        scored = [p for doc, gen in zip(batch, generated)
                  for p in (tuple(sorted(doc.gold_codes)), gen)]
        model.disc_store.zero_grads()
        disc_loss = discriminator_loss(scored, [True, False] * len(batch),
                                       np.repeat(fwd.x, 2, axis=0), model.disc_store,
                                       model.disc_cfg)
        model.disc_store.clip_grads(cfg.clip_norm)
        adam_step(model.disc_store, cfg.learning_rate)

        # rewards of the generated prefixes from the updated scorer; the
        # baseline is their batch mean
        rewards = reward(generated, fwd.x, model.disc_store, model.disc_cfg)
        if any(generated):
            advantages = np.concatenate(rewards)
            policy = _policy_terms(model.gen_store, model.gen_cfg, table, fwd.steps[0],
                                   generated, advantages - advantages.mean())
            pg_total = sum(step_losses(*policy).tolist())

    # decoder update: aligned loss plus any reward-weighted surrogate
    model.gen_store.zero_grads()
    _decoder_backward(model, fwd, weight, *policy)
    model.gen_store.scale_grads(1.0 / len(batch))
    model.gen_store.clip_grads(cfg.clip_norm)
    adam_step(model.gen_store, cfg.learning_rate)
    return {"gen": sum(fwd.losses()) / len(batch), "pg": pg_total / len(batch),
            "disc": disc_loss}


# documents that decode_predictions encodes and first-steps at once: a first
# step holds about 32 KB per document at published sizes, 320 MB for 10k
DECODE_SLICE = 256


def decode_predictions(model: Model, docs: Sequence[EhrDocument],
                       table: ComplicationTable) -> list[PredictionRecord]:
    """Eval-mode decode of every document into a prediction record. The
    per-code confidence is the code's highest mixture probability over the
    decode steps. Each slice of documents is encoded and takes its first
    greedy step as one batch; the rest of each path is decoded per document."""
    store, gen_cfg = model.gen_store, model.gen_cfg
    records = []
    for start in range(0, len(docs), DECODE_SLICE):
        part = docs[start:start + DECODE_SLICE]
        xs, _ = encode_batch([doc.tokens for doc in part], store, model.enc_cfg)
        (first,) = run_batch(store, gen_cfg, table, xs, [[gen_cfg.stop_id]] * len(part))
        for b, (doc, x) in enumerate(zip(part, xs)):
            path = decode_path(store, gen_cfg, table, x, first, b)
            records.append(PredictionRecord(start + b, frozenset(path.valid_codes),
                                            doc.gold_codes, dict(enumerate(path.scores.tolist()))))
    return records


def _start(bundle: CorpusBundle, cfg: TrainConfig) -> tuple[
        Model, list[EhrDocument], np.random.Generator, np.random.Generator]:
    """Checks of the config and the train split, then the initial model, the
    train documents, and the run's dropout and shuffle streams."""
    cfg.validate()
    train_docs = bundle.split_docs("train")
    biggest = max(len(d.gold_codes) for d in train_docs)
    if biggest > cfg.max_len:
        raise ConfigError(f"a document carries {biggest} gold codes but max_len is "
                          f"{cfg.max_len}; raise max_len so every label can claim a step")
    return (build_model(bundle, cfg), train_docs, named_rng(cfg.seed, "dropout"),
            named_rng(cfg.seed, "shuffle"))


def _epoch(model: Model, docs: Sequence[EhrDocument], table: ComplicationTable,
           cfg: TrainConfig, dropout_rng: np.random.Generator,
           shuffle_rng: np.random.Generator, epoch: int) -> dict[str, float]:
    """One shuffled pass of adversarial_round (the supervised update under
    no_arl); returns each loss's mean over the batches."""
    shuffled = [docs[int(i)] for i in shuffle_rng.permutation(len(docs))]
    outs = [adversarial_round(model, shuffled[i:i + cfg.batch_size], table, cfg, dropout_rng)
            for i in range(0, len(shuffled), cfg.batch_size)]
    means = {k: float(np.mean([out[k] for out in outs])) for k in ("gen", "pg", "disc")}
    if not np.isfinite(means["gen"]):
        raise TrainingError(f"training diverged at epoch {epoch}")
    return means


def train(bundle: CorpusBundle, cfg: TrainConfig) -> tuple[TrainReport, Model]:
    """Full schedule: pretraining epochs (no_arl), then adversarial epochs,
    with validation metrics after every epoch; returns the report and the
    model snapshot with the best validation Jaccard."""
    start = time.monotonic()
    model, train_docs, dropout_rng, shuffle_rng = _start(bundle, cfg)
    val_docs = bundle.split_docs("validation")
    report = TrainReport(ablation=cfg.ablation)
    best: Model | None = None
    phases = [replace(cfg, no_arl=True)] * cfg.pretrain_epochs + [cfg] * cfg.epochs
    for epoch, phase in enumerate(phases):
        losses = _epoch(model, train_docs, bundle.table, phase, dropout_rng, shuffle_rng, epoch)
        if epoch < cfg.pretrain_epochs:
            report.pretrain_losses.append(losses["gen"])
        else:
            report.gen_losses.append(losses["gen"])
            report.pg_losses.append(losses["pg"])
            report.disc_losses.append(losses["disc"])
        val = metric_table(decode_predictions(model, val_docs, bundle.table), bundle.table,
                           range(bundle.codes.num_real))
        report.val_metrics.append(val)
        if val["jaccard"] > report.best_jaccard:
            report.best_jaccard, report.best_epoch = val["jaccard"], epoch
            best = model.snapshot()

    report.wall_clock_s = time.monotonic() - start
    # zero epochs requested: fall back to the initial model
    return report, best if best is not None else model.snapshot()


# checkpoint keys that differ from the config field they store
_STORED_KEYS = {"n_codes": "num_codes"}


def model_config_kv(model: Model, seed: int) -> dict[str, str]:
    """Flat config block stored in checkpoints and checked at eval time:
    every EncoderConfig and GeneratorConfig field, whether the scorer is
    present, and the run seed."""
    values = {**asdict(model.enc_cfg), **asdict(model.gen_cfg),
              "has_discriminator": model.disc_store is not None, "seed": seed}
    return {_STORED_KEYS.get(name, name): format_value(v) for name, v in values.items()}


def save_model(path: str, model: Model, seed: int,
               extra: Mapping[str, str] | None = None) -> None:
    """Checkpoint of the model under model_config_kv, plus any extra stored
    keys, such as the fingerprints of the corpus files it was trained on."""
    save_checkpoint(path, {**model_config_kv(model, seed), **(extra or {})},
                    dict(model.parameters()))


def _stored_value(kv: dict[str, str], key: str, kind):
    if key not in kv:
        raise DataError(f"checkpoint config lacks key {key!r}")
    try:
        return parse_value(kind, kv[key])
    except ValueError as exc:
        raise DataError(f"checkpoint config key {key!r} has malformed value {kv[key]!r}") from exc


def _stored_config(cls, kv: dict[str, str]):
    return cls(**{name: _stored_value(kv, _STORED_KEYS.get(name, name), kind)
                  for name, kind in field_kinds(cls).items()})


def model_from_checkpoint(kv: dict[str, str], slots: dict[str, np.ndarray]) -> Model:
    """Rebuild a model from a checkpoint's config block and slots. The slots
    must have exactly the names and shapes the stored config implies."""
    configs = (_stored_config(EncoderConfig, kv), _stored_config(GeneratorConfig, kv),
               _stored_value(kv, "has_discriminator", bool))
    try:
        model = _new_model(*configs, rng=None)
    except ValueError as exc:  # values that parse but cannot build a model
        raise DataError(f"checkpoint config cannot build a model: {exc}") from exc
    expected = dict(model.parameters())
    for name in sorted(expected.keys() | slots.keys()):
        if name not in slots:
            raise DataError(f"checkpoint lacks slot {name!r}, which its config implies")
        if name not in expected:
            raise DataError(f"checkpoint slot {name!r} is not in the model its config implies")
        if slots[name].shape != expected[name].shape:
            raise DataError(f"checkpoint slot {name!r} has shape {slots[name].shape}, "
                            f"its config implies {expected[name].shape}")
        expected[name][...] = slots[name]
    return model
