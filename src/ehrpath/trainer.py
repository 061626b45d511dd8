"""Training orchestration.

Supervised pretraining minimizes the aligned path loss: a teacher-forced
pass over the gold codes, steps whose prediction is already a gold label
keep it, the remaining labels are Hungarian-assigned, and the step after
the labels is supervised toward STOP. Adversarial rounds then alternate
per batch: one scorer update on ground-truth-vs-generated prefixes, then
one decoder update on the supervised loss plus a reward-weighted
policy-gradient term with the batch-mean reward as baseline. Validation
metrics are computed each epoch and the best-Jaccard parameters are
retained.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .alignment import align_path, step_targets
from .checkpoint import field_kinds, format_value, parse_value, save_checkpoint
from .corpus import ComplicationTable, CorpusBundle, EhrDocument
from .discriminator import (DiscriminatorConfig, LabeledPrefix, discriminator_loss,
                            init_discriminator_params, reward, split_prefixes)
from .encoder import (EncodeCache, EncoderConfig, encode_batch, encode_batch_backward,
                      init_encoder_params)
from .errors import ConfigError, DataError, TrainingError
from .generator import (GeneratorConfig, MixtureDistribution, StepTrace, batch_backward,
                        decode_path, decode_path_traced, generator_step_loss,
                        init_generator_params, path_loss, run_batch, stack_steps)
# unused here, but benchmarks/tracing.py still swaps these four attributes,
# which the lockstep engine and the packed encoder no longer call (the FOUND
# lines on tracing.py in CHANGES.md); drop them together with those swaps
from .encoder import encode_backward, encode_ehr  # noqa: F401
from .generator import run_steps, sequence_backward  # noqa: F401
from .metrics import PredictionRecord, metric_table
from .numerics import AdamConfig, ParamStore, adam_step, named_rng


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
    candidate_activation: str = "relu"
    dropout: float = 0.5
    # model sizes; defaults are the published configuration, shrink for desk runs
    d_embed: int = 100
    d_code: int = 100
    n_filters: int = 100
    kernel_sizes: tuple[int, ...] = (3, 4, 5)

    @property
    def adam(self) -> AdamConfig:
        return AdamConfig(self.learning_rate)

    @property
    def ablation(self) -> str:
        tags = [t for t, on in (("no_copy", self.no_copy), ("no_arl", self.no_arl)) if on]
        return ",".join(tags) if tags else "none"

    def validate(self) -> None:
        if self.epochs < 0 or self.pretrain_epochs < 0 or self.batch_size < 1 or self.max_len < 1:
            raise ConfigError("epochs/pretrain_epochs must be >= 0, batch_size/max_len >= 1")
        self.adam  # raises on bad optimizer settings


@dataclass
class Model:
    enc_cfg: EncoderConfig
    gen_cfg: GeneratorConfig
    gen_store: ParamStore
    disc_cfg: DiscriminatorConfig | None = None
    disc_store: ParamStore | None = None

    def snapshot(self) -> "Model":
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
    gen_store = ParamStore()
    init_encoder_params(gen_store, enc_cfg, rng)
    init_generator_params(gen_store, gen_cfg, rng)
    model = Model(enc_cfg, gen_cfg, gen_store)
    if has_discriminator:
        model.disc_cfg = DiscriminatorConfig(n_codes=gen_cfg.n_codes, d_code=gen_cfg.d_code,
                                             hidden=enc_cfg.rep_dim, rep_dim=enc_cfg.rep_dim,
                                             candidate_activation=gen_cfg.candidate_activation)
        model.disc_store = ParamStore()
        init_discriminator_params(model.disc_store, model.disc_cfg, rng)
    return model


def build_model(bundle: CorpusBundle, cfg: TrainConfig) -> Model:
    """Initialize all parameters from the run seed's init stream. The
    scorer is only created when adversarial training is enabled."""
    enc_cfg = EncoderConfig(vocab_size=bundle.tokens.vocab_size, d_embed=cfg.d_embed,
                            kernel_sizes=cfg.kernel_sizes, n_filters=cfg.n_filters,
                            dropout=cfg.dropout)
    gen_cfg = GeneratorConfig(n_codes=bundle.codes.num_real, d_code=cfg.d_code,
                              rep_dim=enc_cfg.rep_dim,
                              candidate_activation=cfg.candidate_activation,
                              no_copy=cfg.no_copy, max_len=cfg.max_len)
    return _new_model(enc_cfg, gen_cfg, not cfg.no_arl, named_rng(cfg.seed, "init"))


def _check_alignable(docs: Sequence[EhrDocument], max_len: int) -> None:
    biggest = max(len(d.gold_codes) for d in docs)
    if biggest > max_len:
        raise ConfigError(f"a document carries {biggest} gold codes but max_len is {max_len}; "
                          "raise max_len so every label can claim a step")


@dataclass
class _BatchForward:
    """A batch's training forward: each document's representation (one row
    of x) and the batch's encoder cache, the aligned teacher-forced lockstep
    steps, and each document's per-step distributions and targets."""
    x: np.ndarray
    enc_cache: EncodeCache
    steps: list[StepTrace]
    dists: list[list[MixtureDistribution]]
    targets: list[list[int | None]]

    def losses(self) -> list[float]:
        """Each document's aligned loss: -log p(target) summed over its steps."""
        return [sum(generator_step_loss(d, t) for d, t in zip(dists, targets) if t is not None)
                for dists, targets in zip(self.dists, self.targets)]


def _aligned_forward(model: Model, batch: Sequence[EhrDocument], table: ComplicationTable,
                     dropout_rng: np.random.Generator) -> _BatchForward:
    """Train-mode encoding, then a teacher-forced lockstep pass over each
    document's gold codes in ascending order (the same serialization the
    path scorer sees), aligned to the per-step predictions.

    The assignment is square: the first |gold| steps each claim exactly one
    label, so every content step is supervised, and the surplus step right
    after them is supervised toward STOP."""
    store, gen_cfg = model.gen_store, model.gen_cfg
    x, enc_cache = encode_batch([doc.tokens for doc in batch], store, model.enc_cfg,
                                train_mode=True, dropout_rng=dropout_rng)
    golds = [sorted(doc.gold_codes) for doc in batch]
    inputs = [[gen_cfg.stop_id] + gold[:gen_cfg.max_len - 1] for gold in golds]
    steps = run_batch(store, gen_cfg, table, x, inputs)
    dists: list[list[MixtureDistribution]] = [[] for _ in batch]
    for step in steps:
        for b, dist in zip(step.rows, step.dists):
            dists[b].append(dist)
    targets = []
    for doc, gold, doc_dists in zip(batch, golds, dists):
        label_dists = doc_dists[:len(gold)]
        greedy = [int(np.argmax(d.probs)) for d in label_dists]
        alignment = align_path(label_dists, greedy, doc.gold_codes)
        targets.append(step_targets(alignment, len(doc_dists), gen_cfg.stop_id))
    return _BatchForward(x, enc_cache, steps, dists, targets)


def _decoder_backward(model: Model, fwd: _BatchForward, weight: float,
                      pg_steps: Sequence[StepTrace] = (),
                      pg_targets: Sequence[Sequence[tuple[int, float]]] = ()) -> None:
    """Decoder+encoder gradient accumulation for the aligned loss at
    `weight`, plus, in adversarial rounds, the policy-gradient terms
    pg_targets of the greedy steps pg_steps (lockstep, like the aligned
    pass)."""
    store, gen_cfg = model.gen_store, model.gen_cfg
    dx = batch_backward(store, gen_cfg, fwd.steps,
                        [[(t, weight) if t is not None else None for t in targets]
                         for targets in fwd.targets])
    if pg_steps:
        dx += batch_backward(store, gen_cfg, pg_steps, pg_targets)
    encode_batch_backward(dx, fwd.enc_cache, store, model.enc_cfg)


def _supervised_batch(model: Model, batch: Sequence[EhrDocument], table: ComplicationTable,
                      cfg: TrainConfig, dropout_rng: np.random.Generator) -> float:
    model.gen_store.zero_grads()
    fwd = _aligned_forward(model, batch, table, dropout_rng)
    _decoder_backward(model, fwd, 1.0)
    model.gen_store.scale_grads(1.0 / len(batch))
    model.gen_store.clip_grads(cfg.clip_norm)
    adam_step(model.gen_store, cfg.adam)
    return sum(fwd.losses()) / len(batch)


def adversarial_round(model: Model, batch: Sequence[EhrDocument], table: ComplicationTable,
                      cfg: TrainConfig, dropout_rng: np.random.Generator) -> dict[str, float]:
    """One alternating update on a batch. Under no_arl this degenerates to
    the pure supervised update and the scorer is untouched."""
    if cfg.no_arl or model.disc_store is None:
        return {"gen": _supervised_batch(model, batch, table, cfg, dropout_rng),
                "pg": 0.0, "disc": 0.0}

    # forward pass: representations, aligned lockstep pass, greedy decode per document
    fwd = _aligned_forward(model, batch, table, dropout_rng)
    decodes = [decode_path_traced(model.gen_store, model.gen_cfg, table, x) for x in fwd.x]
    paths = [path for path, _ in decodes]

    # scorer update: ground-truth prefixes positive, generated negative
    prefixes: list[LabeledPrefix] = []
    xs = dict(enumerate(fwd.x))
    for doc_id, (doc, path) in enumerate(zip(batch, paths)):
        prefixes.extend(split_prefixes(sorted(doc.gold_codes), True, doc_id))
        prefixes.extend(split_prefixes(path.valid_codes, False, doc_id))
    disc_loss = 0.0
    if prefixes:
        model.disc_store.zero_grads()
        disc_loss = discriminator_loss(prefixes, xs, model.disc_store, model.disc_cfg,
                                       with_grads=True)
        model.disc_store.clip_grads(cfg.clip_norm)
        adam_step(model.disc_store, cfg.adam)

    # rewards of the generated prefixes from the updated scorer, in path
    # order; baseline is the batch mean
    generated = [pf for pf in prefixes if not pf.positive]
    rewards = reward(generated, xs, model.disc_store, model.disc_cfg) if generated else np.empty(0)
    baseline = float(np.mean(rewards)) if generated else 0.0
    per_doc_rewards = np.split(rewards, np.cumsum([path.valid_len for path in paths])[:-1])

    # decoder update: supervised aligned loss plus reward-weighted surrogate
    model.gen_store.zero_grads()
    pg_traces = [traces[:path.valid_len] for path, traces in decodes]
    pg_targets = [[(path.codes[k], r - baseline) for k, r in enumerate(rs.tolist())]
                  for path, rs in zip(paths, per_doc_rewards)]
    pg_total = sum(path_loss(traces, targets) for traces, targets in zip(pg_traces, pg_targets))
    _decoder_backward(model, fwd, cfg.supervised_weight, stack_steps(pg_traces), pg_targets)
    model.gen_store.scale_grads(1.0 / len(batch))
    model.gen_store.clip_grads(cfg.clip_norm)
    adam_step(model.gen_store, cfg.adam)
    return {"gen": sum(fwd.losses()) / len(batch), "pg": pg_total / len(batch),
            "disc": disc_loss}


def decode_predictions(model: Model, docs: Sequence[EhrDocument],
                       table: ComplicationTable | None) -> list[PredictionRecord]:
    """Eval-mode decode of every document into a prediction record. The
    per-code confidence is the code's highest mixture probability over the
    decode steps."""
    records = []
    xs, _ = encode_batch([doc.tokens for doc in docs], model.gen_store, model.enc_cfg)
    for doc_id, (doc, x) in enumerate(zip(docs, xs)):
        path = decode_path(model.gen_store, model.gen_cfg, table, x)
        best = np.max([d.probs[:model.gen_cfg.n_codes] for d in path.distributions], axis=0)
        scores = dict(enumerate(best.tolist()))
        records.append(PredictionRecord(doc_id, frozenset(path.valid_codes),
                                        doc.gold_codes, scores))
    return records


def _batches(docs: Sequence[EhrDocument], batch_size: int,
             rng: np.random.Generator) -> list[list[EhrDocument]]:
    order = rng.permutation(len(docs))
    shuffled = [docs[int(i)] for i in order]
    return [shuffled[i:i + batch_size] for i in range(0, len(shuffled), batch_size)]


def _supervised_epoch(model: Model, docs: Sequence[EhrDocument], table: ComplicationTable,
                      cfg: TrainConfig, dropout_rng: np.random.Generator,
                      shuffle_rng: np.random.Generator, epoch: int) -> float:
    """One shuffled pass of supervised batches; returns the mean batch loss."""
    losses = [_supervised_batch(model, batch, table, cfg, dropout_rng)
              for batch in _batches(docs, cfg.batch_size, shuffle_rng)]
    mean_loss = float(np.mean(losses))
    if not np.isfinite(mean_loss):
        raise TrainingError(f"pretraining diverged at epoch {epoch}")
    return mean_loss


def pretrain_generator(bundle: CorpusBundle, cfg: TrainConfig) -> tuple[Model, list[float]]:
    """Supervised pretraining only; returns the model and per-epoch losses."""
    cfg.validate()
    model = build_model(bundle, cfg)
    train_docs = bundle.split_docs("train")
    _check_alignable(train_docs, cfg.max_len)
    dropout_rng = named_rng(cfg.seed, "dropout")
    shuffle_rng = named_rng(cfg.seed, "shuffle")
    losses = [_supervised_epoch(model, train_docs, bundle.table, cfg, dropout_rng, shuffle_rng,
                                epoch) for epoch in range(cfg.pretrain_epochs)]
    return model, losses


def train(bundle: CorpusBundle, cfg: TrainConfig) -> tuple[TrainReport, Model]:
    """Full schedule: pretraining epochs, then adversarial epochs, with
    validation metrics after every epoch; returns the report and the model
    snapshot with the best validation Jaccard."""
    cfg.validate()
    start = time.monotonic()
    model = build_model(bundle, cfg)
    train_docs = bundle.split_docs("train")
    val_docs = bundle.split_docs("validation")
    _check_alignable(train_docs, cfg.max_len)
    dropout_rng = named_rng(cfg.seed, "dropout")
    shuffle_rng = named_rng(cfg.seed, "shuffle")
    report = TrainReport(ablation=cfg.ablation)
    best: Model | None = None

    def validate_epoch(epoch: int) -> None:
        nonlocal best
        records = decode_predictions(model, val_docs, bundle.table)
        table = metric_table(records, bundle.table, range(bundle.codes.num_real))
        report.val_metrics.append({k: v for k, v in table.items()})
        if table["jaccard"] > report.best_jaccard:
            report.best_jaccard = table["jaccard"]
            report.best_epoch = epoch
            best = model.snapshot()

    epoch = 0
    for _ in range(cfg.pretrain_epochs):
        report.pretrain_losses.append(_supervised_epoch(model, train_docs, bundle.table, cfg,
                                                        dropout_rng, shuffle_rng, epoch))
        validate_epoch(epoch)
        epoch += 1
    for _ in range(cfg.epochs):
        sums = {"gen": 0.0, "pg": 0.0, "disc": 0.0}
        batches = _batches(train_docs, cfg.batch_size, shuffle_rng)
        for batch in batches:
            out = adversarial_round(model, batch, bundle.table, cfg, dropout_rng)
            for k in sums:
                sums[k] += out[k]
        for k in sums:
            sums[k] /= len(batches)
        if not np.isfinite(sums["gen"]):
            raise TrainingError(f"training diverged at epoch {epoch}")
        report.gen_losses.append(sums["gen"])
        report.pg_losses.append(sums["pg"])
        report.disc_losses.append(sums["disc"])
        validate_epoch(epoch)
        epoch += 1

    if best is None:  # zero epochs requested: fall back to the initial model
        best = model.snapshot()
    report.wall_clock_s = time.monotonic() - start
    return report, best


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
