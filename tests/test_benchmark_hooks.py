"""The benchmark times the package by swapping the module attributes its
entry points call (benchmarks/tracing.py). A renamed attribute crashes every
benchmark run, and a decode that bypasses the swapped attribute goes
uncounted; these tests catch both, and check the counters that the
benchmark's per-layer figures divide by."""

import ast
import dataclasses
import glob
import importlib
import importlib.util
import io
import os
import pickle
import sys

import numpy as np

from ehrpath import generator, trainer
from ehrpath.numerics import named_rng
from ehrpath.trainer import TrainConfig, adversarial_round, build_model, decode_predictions

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
TRACING = os.path.join(BENCHMARKS, "tracing.py")
HARNESS = os.path.join(BENCHMARKS, "harness.py")
PROBED = ("decode_path", "decode_path_traced")  # what Recorder.path_probe swaps
CFG = TrainConfig(seed=4, d_embed=10, d_code=8, n_filters=6, kernel_sizes=(2, 3), batch_size=8,
                  max_len=5, dropout=0.2)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_harness(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)  # harness.py imports tracing by name
    spec = importlib.util.spec_from_file_location("bench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_swapped_attribute_exists():
    tracing = load_tracing()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.SPANS
               if not hasattr(owner, attr)]
    missing += [f"trainer.{attr}" for attr in PROBED if not hasattr(trainer, attr)]
    assert missing == []


def test_trainer_imports_unread_only_what_the_benchmark_swaps():
    # trainer.py keeps some imports only for benchmarks/tracing.py to swap;
    # once the benchmark drops a swap, its import is dead and must go too
    tracing = load_tracing()
    tree = ast.parse(open(trainer.__file__).read(), trainer.__file__)
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {"decode_path", "run_batch"} <= imported & read
    swapped = {attr for owner, attr, _, _ in tracing.SPANS if owner is trainer} | set(PROBED)
    unread = imported - read
    print(f"\ntrainer imports unread but swapped by the benchmark: {sorted(unread)}")
    assert unread <= swapped, sorted(unread - swapped)


def package_reads(path):
    """(module, attribute) for each attribute of an ehrpath module that a
    source file reads, through names bound by `import ehrpath` or `from
    ehrpath[.x] import y`, and each imported name that does not exist."""
    tree = ast.parse(open(path).read(), path)
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name: importlib.import_module(a.name)
                          for a in node.names if a.name == "ehrpath"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ehrpath":
            owner = importlib.import_module(node.module)
            for a in node.names:
                try:
                    bound[a.asname or a.name] = importlib.import_module(f"{node.module}.{a.name}")
                except ModuleNotFoundError:  # not a submodule: a name in the module
                    if hasattr(owner, a.name):
                        bound[a.asname or a.name] = getattr(owner, a.name)
                    else:
                        missing.append(f"{node.module}.{a.name}")
    reads = [(bound[node.value.id], node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in bound]
    return reads, missing


def test_every_package_attribute_the_benchmark_reads_exists():
    # a deleted or renamed function that only a benchmark calls crashes
    # every benchmark run, and nothing else in the suite would notice
    files = sorted(glob.glob(os.path.join(BENCHMARKS, "*.py")))
    assert len(files) >= 3
    seen, missing = set(), []
    for path in files:
        reads, absent = package_reads(path)
        missing += absent
        for owner, attr in reads:
            seen.add(f"{owner.__name__}.{attr}")
            if not hasattr(owner, attr):
                missing.append(f"{owner.__name__}.{attr}")
    assert {"ehrpath.trainer.adversarial_round", "ehrpath.trainer.decode_predictions"} <= seen
    assert missing == []


def test_copy_counter_counts_one_row_steps_with_partners(bundle):
    tracing = load_tracing()
    model = build_model(bundle, CFG)
    cfg = model.gen_cfg
    x = named_rng(2, "x").normal(size=cfg.rep_dim)
    h = np.zeros(cfg.rep_dim)
    paired = next(c for c in range(cfg.n_codes) if bundle.table.partners(c))
    rec = tracing.Recorder(bundle.codes.num_real)
    with rec.spans_on():
        for phase, prev in (("paired", paired), ("unpaired", cfg.stop_id)):
            rec.phase = phase
            generator.generator_step(model.gen_store, cfg, bundle.table, x, prev, h, h)
    assert rec.get("paired", "gen_steps") == rec.get("unpaired", "gen_steps") == 1
    assert rec.get("paired", "copy_active_steps") == 1
    assert rec.get("unpaired", "copy_active_steps") == 0


def test_copy_counter_reads_each_codes_partners(bundle):
    # tracing._count_copy counts a step as copy-active when its
    # dist.copy_ids is not empty: those must be the previous code's
    # complication partners, for every id the decoder can be fed
    model = build_model(bundle, CFG)
    cfg = model.gen_cfg
    x = named_rng(2, "x").normal(size=cfg.rep_dim)
    h = np.zeros(cfg.rep_dim)
    for p in range(cfg.n_total):
        step = generator.generator_step(model.gen_store, cfg, bundle.table, x, p, h, h)
        assert step.dist.copy_ids == bundle.table.partners(p)
    assert any(bundle.table.partners(p) for p in range(cfg.n_total))


def test_supervised_round_counts_aligned_labels(bundle):
    tracing = load_tracing()
    cfg = dataclasses.replace(CFG, no_arl=True)
    model = build_model(bundle, cfg)
    rec = tracing.Recorder(bundle.codes.num_real)
    with rec.spans_on():
        rec.phase = "sup"
        adversarial_round(model, bundle.split_docs("train")[:4], bundle.table, cfg,
                          named_rng(1, "dropout"))
    assert rec.get("sup", "aligned_labels") > 0
    assert rec.spans[("sup", "align_path")][0] == 4


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


def test_every_counter_a_per_layer_figure_divides_by_is_counted(bundle):
    # Runner.layer_metrics divides by these: a change that takes a phase
    # round a swapped attribute must fail here, not crash a --trace 1 run
    tracing = load_tracing()
    model = build_model(bundle, CFG)
    docs = bundle.split_docs("train")
    rec = tracing.Recorder(bundle.codes.num_real)
    with rec.path_probe(), rec.spans_on():
        rec.phase = "sup"
        adversarial_round(model, docs[:4], bundle.table, dataclasses.replace(CFG, no_arl=True),
                          named_rng(1, "dropout"))
        rec.phase = "adv"
        adversarial_round(model, docs[4:8], bundle.table, CFG, named_rng(2, "dropout"))
        rec.phase = "decode"
        decode_predictions(model, bundle.split_docs("test")[:3], bundle.table)
    denominators = [("adv", "paths"), ("decode", "paths"), ("sup", "aligned_labels"),
                    ("adv", "aligned_labels"), ("sup", "clip_calls"), ("adv", "clip_calls"),
                    ("adv", "scored_prefixes")]
    assert [key for key in denominators if rec.get(*key) == 0] == []


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


def test_model_trains_on_alike_after_the_warm_up_pickle(bundle, monkeypatch):
    # the benchmark caches its warmed-up model with CachePickler and reads it
    # back with plain pickle: every slot of a loaded store must again be a
    # view of its buffers (parameters and moments of the store's buffer,
    # gradients of its gradient array), so that whole-store operations
    # reach the slots
    harness = load_harness(monkeypatch)
    batch = bundle.split_docs("train")[:4]
    model = build_model(bundle, CFG)
    adversarial_round(model, batch, bundle.table, CFG, named_rng(1, "dropout"))
    cached = io.BytesIO()
    harness.CachePickler(cached).dump(model)
    copies = [pickle.loads(pickle.dumps(model)), pickle.loads(cached.getvalue())]
    for copy in copies:
        for store in (copy.gen_store, copy.disc_store):
            for name in store.names():
                for view in (store[name], store._m[name], store._v[name]):
                    assert np.shares_memory(view, store._buffer)
                assert np.shares_memory(store.grad(name), store._grad_buffer)
    for m in [model] + copies:
        adversarial_round(m, batch, bundle.table, CFG, named_rng(2, "dropout"))
    expected = dict(model.parameters())
    for copy in copies:
        params = dict(copy.parameters())
        assert params.keys() == expected.keys()
        for name, p in expected.items():
            np.testing.assert_array_equal(params[name], p)


def test_zero_second_desk_run_passes_every_check(monkeypatch, tmp_path):
    # the benchmark's own checks on four passes, traced and untraced in
    # turn: every pass reproduces the first, the greedy paths that
    # trainer.decode_path counts are valid and not all empty, and the
    # gradient matches central differences
    harness = load_harness(monkeypatch)
    monkeypatch.setattr(harness, "CACHE_DIR", str(tmp_path))
    result = harness.Runner("desk", 1, 0.0, True).run()
    assert result["correct"] and result["failed"] == 0, result["problems"]
