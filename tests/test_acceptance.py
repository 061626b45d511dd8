"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criteria 5-8 train real models on the desk corpus and
dominate the suite's runtime."""

import itertools
import math
import multiprocessing
import os
import time
from collections import Counter

import numpy as np
import pytest

from ehrpath.alignment import hungarian_assign
from ehrpath.corpus import ComplicationTable, CorpusBundle, CorpusConfig, synthetic_bundle
from ehrpath.discriminator import DiscriminatorConfig, discriminator_loss, discriminator_slots
from ehrpath.encoder import EncoderConfig, encode_backward, encode_ehr, encoder_slots
from ehrpath.generator import (GeneratorConfig, generator_slots, path_loss, run_steps,
                               sequence_backward)
from ehrpath.metrics import (PredictionRecord, auc, complication_ratio, jaccard,
                             metric_table, micro_macro_prf)
from ehrpath.numerics import ParamStore, adam_step, finite_diff_check, named_rng
from ehrpath.trainer import TrainConfig, adversarial_round, build_model, decode_predictions, train
from oracles import mixture_forward_row, mixture_scores_row, pretrain_generator


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# -----------------------------------------------------------------------
# the desk corpus: 2000 documents, 20 codes, 5 planted pairs at 0.9
# -----------------------------------------------------------------------

DESK_SEEDS = (1, 2, 3, 4, 5)


def desk_corpus(seed: int) -> CorpusBundle:
    cfg = CorpusConfig(num_docs=2000, vocab_size=200, num_codes=20, top_k=20,
                       planted_pairs=tuple((2 * i, 2 * i + 1, 0.9) for i in range(5)),
                       doc_len=(12, 30), seed=seed, code_skew=0.3,
                       extra_code_prob=0.3, signal_strength=0.85)
    return synthetic_bundle(cfg, or_threshold=2.0, min_support=5)


def desk_train_config(seed: int, **overrides) -> TrainConfig:
    base = dict(epochs=2, pretrain_epochs=24, batch_size=16, learning_rate=1e-3,
                max_len=8, seed=seed, dropout=0.1,
                d_embed=24, d_code=24, n_filters=20)
    base.update(overrides)
    return TrainConfig(**base)


def desk_run(seed: int, no_copy: bool):
    """Train one desk model and evaluate it on the test split."""
    bundle = desk_corpus(seed)
    start = time.monotonic()
    report_obj, model = train(bundle, desk_train_config(seed, no_copy=no_copy))
    runtime = time.monotonic() - start
    records = decode_predictions(model, bundle.split_docs("test"), bundle.table)
    values = metric_table(records, bundle.table, range(bundle.codes.num_real))
    return bundle, report_obj, records, values, runtime


@pytest.fixture(scope="module")
def desk_ablation_runs():
    """The ten training runs behind criteria 5 and 6: five seeds, full model
    and no-copy ablation, sharing corpus and initialization per seed. They
    run on a spawned pool of at most two worker processes; each worker
    inherits the one BLAS thread that tests/conftest.py sets, and each run
    is the same computation as in series. The wait is bounded by criterion
    5's 10 minutes per run, so a lost worker fails the suite, not hangs it."""
    pairs = [(seed, no_copy) for seed in DESK_SEEDS for no_copy in (False, True)]
    workers = min(2, len(os.sched_getaffinity(0)))
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        runs = pool.starmap_async(desk_run, pairs).get(timeout=600.0 * len(pairs))
    return dict(zip(pairs, runs))


def test_criterion_1_gradient_correctness():
    """finite differences <= 1e-4 for the joint decoder loss, the aligned
    loss under a fixed assignment, and the scorer loss; < 30 s total."""
    start = time.monotonic()
    rng = named_rng(101, "init")
    enc_cfg = EncoderConfig(vocab_size=40, d_embed=100, kernel_sizes=(3, 4, 5), n_filters=100)
    gen_cfg = GeneratorConfig(n_codes=6, d_code=100, rep_dim=enc_cfg.rep_dim)
    store = ParamStore(encoder_slots(enc_cfg, rng) + generator_slots(gen_cfg, rng))
    table = ComplicationTable({(0, 1): 8.0, (2, 3): 6.0, (1, 4): 3.0}, 2.0, 1)
    tokens = [3, 17, 9, 22, 11]  # five-token instance

    # (a) joint encoder + decoder + mixture loss on teacher-forced steps
    inputs = [gen_cfg.stop_id, 0, 1]
    targets = [(0, 1.0), (1, 1.0), (gen_cfg.stop_id, 1.0)]

    def joint_loss(s):
        x, _ = encode_ehr(tokens, s, enc_cfg)
        return path_loss(run_steps(s, gen_cfg, table, x, inputs), targets)

    store.zero_grads()
    x, cache = encode_ehr(tokens, store, enc_cfg)
    traces = run_steps(store, gen_cfg, table, x, inputs)
    dx = sequence_backward(store, gen_cfg, traces, targets)
    encode_backward(dx, cache, store, enc_cfg)
    analytic = {n: store.grad(n).copy() for n in store.names()}
    err_joint = finite_diff_check(joint_loss, store, analytic, eps=1e-5, num_samples=120,
                                  rng=np.random.default_rng(0))

    # (b) aligned loss through a fixed assignment (fixed step targets)
    fixed_targets = [(2, 1.0), (3, 1.0), (gen_cfg.stop_id, 1.0)]

    def pla_fixed(s):
        x2, _ = encode_ehr(tokens, s, enc_cfg)
        return path_loss(run_steps(s, gen_cfg, table, x2, [gen_cfg.stop_id, 2, 3]),
                         fixed_targets)

    store.zero_grads()
    x2, cache2 = encode_ehr(tokens, store, enc_cfg)
    traces2 = run_steps(store, gen_cfg, table, x2, [gen_cfg.stop_id, 2, 3])
    dx2 = sequence_backward(store, gen_cfg, traces2, fixed_targets)
    encode_backward(dx2, cache2, store, enc_cfg)
    analytic2 = {n: store.grad(n).copy() for n in store.names()}
    err_pla = finite_diff_check(pla_fixed, store, analytic2, eps=1e-5, num_samples=120,
                                rng=np.random.default_rng(1))

    # (c) scorer loss
    disc_cfg = DiscriminatorConfig(n_codes=6, d_code=100, hidden=300, rep_dim=300)
    disc = ParamStore(discriminator_slots(disc_cfg, rng))
    batch, positive = [(0, 1), (2,), (5, 4), (3,)], [True, True, False, False]
    rows = np.stack([x, x2, x, x2])

    def disc_fn(s):
        s.zero_grads()  # the loss accumulates the scorer's gradients: drop each call's
        return discriminator_loss(batch, positive, rows, s, disc_cfg)

    disc.zero_grads()
    discriminator_loss(batch, positive, rows, disc, disc_cfg)
    analytic3 = {n: disc.grad(n).copy() for n in disc.names()}
    err_disc = finite_diff_check(disc_fn, disc, analytic3, eps=1e-5, num_samples=120,
                                 rng=np.random.default_rng(2))

    elapsed = time.monotonic() - start
    ok = err_joint <= 1e-4 and err_pla <= 1e-4 and err_disc <= 1e-4 and elapsed < 30.0
    report("1-gradient-correctness", ok,
           f"joint={err_joint:.2e} aligned={err_pla:.2e} scorer={err_disc:.2e} "
           f"runtime={elapsed:.1f}s")


def test_criterion_2_mixture_validity():
    """1000 random draws: unit mass within 1e-9 and zero copy mass outside
    the previous code's vocabulary; the counting case is exact."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        n_codes = int(rng.integers(3, 9))
        cfg = GeneratorConfig(n_codes=n_codes, d_code=12, rep_dim=18)
        store = ParamStore(generator_slots(cfg, rng))
        a = int(rng.integers(0, n_codes))
        partners = [c for c in range(n_codes) if c != a][:int(rng.integers(0, 3))]
        table = ComplicationTable({}, 2.0, 1)
        if partners:
            table = ComplicationTable({tuple(sorted((a, p))): 5.0 for p in partners}, 2.0, 1)
        prev = a if rng.random() < 0.5 else int(rng.integers(0, cfg.n_total))
        h = rng.normal(scale=2.0, size=cfg.rep_dim)
        dist = mixture_forward_row(h, prev, table, store, cfg)
        worst = max(worst, abs(float(dist.probs.sum()) - 1.0))
        outside = np.ones(cfg.n_total, dtype=bool)
        if dist.copy_ids:
            outside[list(dist.copy_ids)] = False
        assert np.all(dist.copy_mass[outside] == 0.0)

    counting = mixture_scores_row(np.zeros((1, 5)), np.zeros(2), [(0, 2)])
    exact = (counting.probs[1] == 1.0 / 7.0 and counting.probs[0] == 2.0 / 7.0
             and counting.probs[2] == 2.0 / 7.0)
    ok = worst <= 1e-9 and exact
    report("2-mixture-validity", ok, f"max |sum-1|={worst:.2e} counting-case exact={exact}")


def test_criterion_3_assignment_optimality():
    """hungarian_assign equals the factorial brute-force oracle on 500
    random instances with n <= 7, including exact tie-cost equality."""
    rng = np.random.default_rng(303)
    checked = 0
    for trial in range(500):
        n_steps = int(rng.integers(1, 8))
        n_labels = int(rng.integers(1, n_steps + 1))
        if trial % 3 == 0:  # integer costs provoke exact ties
            cost = rng.integers(0, 5, size=(n_steps, n_labels)).astype(float)
        else:
            cost = rng.uniform(0.0, 10.0, size=(n_steps, n_labels))
        out = hungarian_assign(cost, {})
        got = math.fsum(cost[t, j] for t, j in sorted(out.items()))
        best = None
        for perm in itertools.permutations(range(n_steps), n_labels):
            total = math.fsum(cost[t, j] for j, t in enumerate(perm))
            if best is None or total < best:
                best = total
        assert got == best, f"instance {trial}: {got} != {best}"
        checked += 1
    report("3-assignment-optimality", checked == 500,
           f"{checked}/500 instances equal the enumeration oracle exactly")


def test_criterion_4_metric_oracles():
    """AUC vs pairwise oracle on 200 instances, the micro-F1 identity to
    1e-12, and the 3-prediction/1-pair complication case at exactly 1/3."""
    rng = np.random.default_rng(404)

    def auc_pair_oracle(scores, rel):
        pos = [s for s, r in zip(scores, rel) if r]
        neg = [s for s, r in zip(scores, rel) if not r]
        if not pos or not neg:
            return None
        total = sum(1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg)
        return total / (len(pos) * len(neg))

    auc_checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 15))
        scores = rng.choice([0.0, 0.2, 0.4, 0.6, 0.8], size=n).tolist()
        rel = (rng.random(n) < 0.5).tolist()
        records = [PredictionRecord(i, frozenset(), frozenset({0} if rel[i] else set()),
                                    {0: scores[i]}) for i in range(n)]
        expected = auc_pair_oracle(scores, rel)
        got = auc(records, labels=[0])["macro"]
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)
        auc_checked += 1

    worst_gap = 0.0
    for _ in range(50):
        records = []
        for i in range(30):
            pred = frozenset(int(c) for c in rng.choice(6, size=rng.integers(0, 4),
                                                        replace=False))
            gold = frozenset(int(c) for c in rng.choice(6, size=rng.integers(1, 4),
                                                        replace=False))
            records.append(PredictionRecord(i, pred, gold, {}))
        prf = micro_macro_prf(records, labels=range(6))
        p, r, f1 = prf["micro"]
        harmonic = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        worst_gap = max(worst_gap, abs(f1 - harmonic))

    table = ComplicationTable({(0, 1): 5.0}, 2.0, 1)
    third = complication_ratio([PredictionRecord(0, frozenset({0, 1, 4}),
                                                 frozenset({0}), {})], table)
    ok = auc_checked == 200 and worst_gap <= 1e-12 and third == 1.0 / 3.0
    report("4-metric-oracles", ok,
           f"auc 200/200, micro-F1 identity gap={worst_gap:.1e}, 1-pair-of-3 ratio={third}")


def random_set_base_rate(bundle: CorpusBundle, records, samples: int = 200) -> float:
    """Mean complication ratio of random code sets with the same sizes as
    the model's multi-code predictions."""
    rng = named_rng(777, "base-rate")
    sizes = [len(r.predicted) for r in records if len(r.predicted) >= 2]
    ratios = []
    for size in sizes:
        for _ in range(max(1, samples // max(len(sizes), 1))):
            picked = sorted(int(c) for c in
                            rng.choice(bundle.codes.num_real, size=size, replace=False))
            hits = sum(bundle.table.is_pair(picked[i], picked[j])
                       for i in range(size) for j in range(i + 1, size))
            ratios.append(hits / (size * (size - 1) / 2))
    return float(np.mean(ratios)) if ratios else 0.0


def test_criterion_5_directional_ablation(desk_ablation_runs):
    """Seed-averaged complication ratio: full model strictly above the
    no-copy ablation, and above the random same-size base rate; every run
    well inside the 10-minute budget."""
    full_ratios, nocopy_ratios, base_rates, runtimes = [], [], [], []
    for seed in DESK_SEEDS:
        bundle, _, records, values, runtime = desk_ablation_runs[(seed, False)]
        assert values["complication"] is not None, f"seed {seed}: no multi-code predictions"
        full_ratios.append(values["complication"])
        base_rates.append(random_set_base_rate(bundle, records))
        runtimes.append(runtime)
        _, _, _, nc_values, nc_runtime = desk_ablation_runs[(seed, True)]
        assert nc_values["complication"] is not None, f"seed {seed}: ablation emitted no pairs"
        nocopy_ratios.append(nc_values["complication"])
        runtimes.append(nc_runtime)
    full_mean = float(np.mean(full_ratios))
    nocopy_mean = float(np.mean(nocopy_ratios))
    base_mean = float(np.mean(base_rates))
    ok = (full_mean > nocopy_mean and full_mean > base_mean
          and max(runtimes) < 600.0)
    report("5-directional-ablation", ok,
           f"full={full_mean:.3f} > no_copy={nocopy_mean:.3f}, base={base_mean:.3f}, "
           f"per-seed full={[round(v, 3) for v in full_ratios]} "
           f"no_copy={[round(v, 3) for v in nocopy_ratios]}, "
           f"slowest run {max(runtimes):.0f}s")


def test_criterion_6_learning_sanity(desk_ablation_runs):
    """Pretraining loss decreases over the first five epochs (at most one
    violation) and the trained model beats always-predict-top-2 validation
    Jaccard by at least 0.05."""
    bundle, report_obj, _, _, _ = desk_ablation_runs[(DESK_SEEDS[0], False)]
    first5 = report_obj.pretrain_losses[:5]
    violations = sum(b >= a for a, b in zip(first5, first5[1:]))

    freq = Counter()
    for doc in bundle.split_docs("train"):
        freq.update(doc.gold_codes)
    top2 = frozenset(c for c, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:2])
    baseline_records = [PredictionRecord(i, top2, doc.gold_codes, {})
                        for i, doc in enumerate(bundle.split_docs("validation"))]
    baseline = jaccard(baseline_records)
    margin = report_obj.best_jaccard - baseline
    ok = violations <= 1 and margin >= 0.05
    report("6-learning-sanity", ok,
           f"first-5 losses={[round(v, 3) for v in first5]} ({violations} non-monotone), "
           f"val jaccard {report_obj.best_jaccard:.3f} vs top-2 baseline {baseline:.3f} "
           f"(margin {margin:+.3f})")


def test_criterion_7_adversarial_sanity():
    """Scorer loss on a frozen pretrained decoder falls below ln 2 within
    200 updates, and the no-arl flag leaves scorer parameters bit-identical
    through a training round."""
    bundle = desk_corpus(DESK_SEEDS[0])
    cfg = desk_train_config(DESK_SEEDS[0], pretrain_epochs=4, epochs=0)
    model, _ = pretrain_generator(bundle, cfg)

    # frozen decoder: fixed prefix dataset from its greedy decodes
    docs = bundle.split_docs("train")[:64]
    paths, rows = [], []
    for doc in docs:
        x, _ = encode_ehr(doc.tokens, model.gen_store, model.enc_cfg)
        from ehrpath.generator import decode_path
        path = decode_path(model.gen_store, model.gen_cfg, bundle.table, x)
        paths.extend([tuple(sorted(doc.gold_codes)), tuple(path.valid_codes)])
        rows.extend([x, x])
    positive, rows = [True, False] * len(docs), np.stack(rows)
    disc_cfg = model.disc_cfg
    disc = model.disc_store
    learning_rate = 1e-3  # dedicated scorer run, 200 updates
    losses = []
    for _ in range(200):
        disc.zero_grads()
        losses.append(discriminator_loss(paths, positive, rows, disc, disc_cfg))
        adam_step(disc, learning_rate)
    fell_below = next((i for i, v in enumerate(losses) if v < math.log(2.0)), None)
    converged = losses[-1] < math.log(2.0) and losses[-1] < losses[0]

    # ablation isolation on the same corpus
    iso_cfg = desk_train_config(DESK_SEEDS[0], pretrain_epochs=1, epochs=0, no_arl=True)
    iso_model = build_model(bundle, desk_train_config(DESK_SEEDS[0]))
    before = iso_model.disc_store.copy()
    adversarial_round(iso_model, bundle.split_docs("train")[:16], bundle.table, iso_cfg,
                      named_rng(13, "dropout"))
    identical = all(np.array_equal(before[n], iso_model.disc_store[n])
                    for n in before.names())
    ok = fell_below is not None and converged and identical
    report("7-adversarial-sanity", ok,
           f"loss {losses[0]:.3f} -> {losses[-1]:.3f}, first < ln2 at update "
           f"{fell_below}, no-arl scorer bit-identical={identical}")


def test_criterion_8_determinism(tmp_path):
    """Identical seeds reproduce bit-identical corpora, checkpoints, and
    metric reports across two consecutive runs."""
    import hashlib
    import json
    import os

    from ehrpath.cli import main

    def one_run(tag):
        corpus = tmp_path / f"corpus-{tag}"
        run = tmp_path / f"run-{tag}"
        ev = tmp_path / f"eval-{tag}"
        for d in (corpus, run, ev):
            d.mkdir()
        assert main(["gen-data", "--out", str(corpus), "--docs", "120", "--vocab", "80",
                     "--codes", "8", "--top-k", "8", "--doc-len-min", "8",
                     "--doc-len-max", "14", "--planted-pairs", "2", "--cooccur", "0.9",
                     "--min-support", "3", "--seed", "21"]) == 0
        assert main(["train", "--corpus", str(corpus), "--out", str(run),
                     "--epochs", "1", "--pretrain-epochs", "2", "--batch-size", "8",
                     "--lr", "0.001", "--max-len", "5", "--seed", "21",
                     "--d-embed", "10", "--d-code", "8", "--n-filters", "6"]) == 0
        assert main(["eval", "--corpus", str(corpus), "--checkpoint",
                     str(run / "model.ckpt"), "--out", str(ev)]) == 0
        digests = {}
        for base in (corpus, run, ev):
            for name in sorted(os.listdir(base)):
                key = f"{base.name.rsplit('-', 1)[0]}/{name}"
                if name == "report.json":
                    # parsed, less the wall-clock time and the run's own path
                    with open(base / name) as fh:
                        digests[key] = json.load(fh)
                    del digests[key]["wall_clock_s"], digests[key]["checkpoint_path"]
                    continue
                with open(base / name, "rb") as fh:
                    digests[key] = hashlib.sha256(fh.read()).hexdigest()
        return digests

    first = one_run("a")
    second = one_run("b")
    ok = first == second
    diff = [k for k in first if first[k] != second.get(k)]
    report("8-determinism", ok,
           f"{len(first)} artifacts compared bit-exactly" + (f", differ: {diff}" if diff else ""))
