"""The benchmark times the package by swapping the module attributes its
entry points call (benchmarks/tracing.py). A renamed attribute crashes every
benchmark run, and a decode that bypasses the swapped attribute goes
uncounted; these tests catch both."""

import importlib.util
import os

from ehrpath import trainer
from ehrpath.numerics import named_rng
from ehrpath.trainer import TrainConfig, adversarial_round, build_model, decode_predictions

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "tracing.py")
PROBED = ("decode_path", "decode_path_traced")  # what Recorder.path_probe swaps
CFG = TrainConfig(seed=4, d_embed=10, d_code=8, n_filters=6, kernel_sizes=(2, 3), batch_size=8,
                  max_len=5, dropout=0.2)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_swapped_attribute_exists():
    tracing = load_tracing()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.SPANS
               if not hasattr(owner, attr)]
    missing += [f"trainer.{attr}" for attr in PROBED if not hasattr(trainer, attr)]
    assert missing == []


def test_probe_and_spans_count_every_decoded_path(bundle):
    tracing = load_tracing()
    model = build_model(bundle, CFG)
    rec = tracing.Recorder(bundle.codes.num_real)
    with rec.path_probe(), rec.spans_on():
        rec.phase = "adv"
        adversarial_round(model, bundle.split_docs("train")[:4], bundle.table, CFG,
                          named_rng(1, "dropout"))
        rec.phase = "decode"
        decode_predictions(model, bundle.split_docs("test")[:3], bundle.table)
    assert rec.get("adv", "paths") == 4
    assert rec.get("decode", "paths") == 3
    assert rec.spans[("adv", "decode_path")][0] == 4
    assert rec.spans[("decode", "decode_path")][0] == 3
    assert rec.get("adv", "bad_paths") == rec.get("decode", "bad_paths") == 0


def test_traced_scorer_counts_prefixes_and_lstm_spans(bundle):
    # the benchmark divides by the scored prefixes and times the scorer's
    # LSTM through the swapped discriminator.lstm_step/lstm_step_backward
    tracing = load_tracing()
    model = build_model(bundle, CFG)
    rec = tracing.Recorder(bundle.codes.num_real)
    with rec.spans_on():
        rec.phase = "adv"
        adversarial_round(model, bundle.split_docs("train")[:4], bundle.table, CFG,
                          named_rng(1, "dropout"))
    assert rec.get("adv", "scored_prefixes") > 0
    assert rec.spans[("adv", "disc_step")][0] > 0
    assert rec.spans[("adv", "disc_step_backward")][0] > 0
