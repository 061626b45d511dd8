import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import tiny_bundle
from oracles import aligned_losses, pretrain_generator, supervised_batch
from ehrpath.discriminator import discriminator_loss, reward
from ehrpath.encoder import encode_batch, encode_ehr
from ehrpath.errors import ConfigError
from ehrpath import generator, trainer
from ehrpath.generator import DecodedPath, decode_path, decode_path_traced
from ehrpath.numerics import named_rng
from ehrpath.trainer import (TrainConfig, _aligned_forward, _decoder_backward, _policy_terms,
                             adversarial_round, build_model, decode_predictions,
                             model_config_kv, model_from_checkpoint, save_model, train)
from ehrpath.checkpoint import load_checkpoint

TINY = dict(d_embed=10, d_code=8, n_filters=6, kernel_sizes=(2, 3), batch_size=8,
            max_len=5, learning_rate=1e-3, dropout=0.2)


def doc_steps(fwd):
    """Each document's steps in a batch forward, as (probs, copy_ids)
    records: its rows of the lockstep steps that hold it."""
    return [[DocStep(fwd.probs[b, t], step.copy_ids[int(np.searchsorted(step.rows, b))])
             for t, step in enumerate(fwd.steps) if b in step.rows]
            for b in range(len(fwd.targets))]


DocStep = collections.namedtuple("DocStep", "probs copy_ids")


def stores_equal(a, b):
    names_a, names_b = sorted(a.names()), sorted(b.names())
    if names_a != names_b:
        return False
    return all(np.array_equal(a[n], b[n]) for n in names_a)


class TestPretrain:
    def test_loss_strictly_decreases_on_repeated_document(self, bundle):
        # one trivially separable document repeated: the first updates must
        # each lower the loss
        doc = bundle.split_docs("train")[0]
        clone = tiny_bundle()
        clone.documents = [doc] * 16
        clone.splits = {"train": list(range(16)), "test": [0], "validation": [0]}
        cfg = TrainConfig(epochs=0, pretrain_epochs=10, seed=3, **{**TINY, "batch_size": 16})
        model, losses = pretrain_generator(clone, cfg)
        assert len(losses) == 10
        for a, b in zip(losses[:3], losses[1:4]):
            assert b < a

    def test_fixed_seed_reproduces_loss_trace_bitwise(self, bundle):
        cfg = TrainConfig(epochs=0, pretrain_epochs=2, seed=9, **TINY)
        _, l1 = pretrain_generator(bundle, cfg)
        _, l2 = pretrain_generator(bundle, cfg)
        assert l1 == l2

    def test_no_copy_zeroes_copy_mass_everywhere(self, bundle):
        cfg = TrainConfig(epochs=0, pretrain_epochs=1, seed=2, no_copy=True, **TINY)
        model, _ = pretrain_generator(bundle, cfg)
        doc = bundle.split_docs("test")[0]
        x, _ = encode_ehr(doc.tokens, model.gen_store, model.enc_cfg)
        _, traces = decode_path_traced(model.gen_store, model.gen_cfg, bundle.table, x)
        for dist in (trace.dist for trace in traces):
            assert dist.copy_ids == ()
            assert np.all(dist.copy_mass == 0.0)

    def test_max_len_must_cover_gold_sets(self, bundle):
        cfg = TrainConfig(epochs=0, pretrain_epochs=1, seed=2,
                          **{**TINY, "max_len": 1})
        with pytest.raises(ConfigError, match="max_len"):
            pretrain_generator(bundle, cfg)


class TestAdversarialRound:
    def _setup(self, bundle, seed=4, **overrides):
        cfg = TrainConfig(epochs=1, pretrain_epochs=1, seed=seed, **{**TINY, **overrides})
        model, _ = pretrain_generator(bundle, cfg)
        return cfg, model

    def test_no_arl_leaves_discriminator_untouched_and_matches_pure_update(self, bundle):
        cfg, model = self._setup(bundle, no_arl=False)
        batch = bundle.split_docs("train")[:8]

        arl_off = dataclasses.replace(cfg, no_arl=True)
        m1 = model.snapshot()
        disc_before = m1.disc_store.copy()
        adversarial_round(m1, batch, bundle.table, arl_off, named_rng(7, "dropout"))
        assert stores_equal(m1.disc_store, disc_before)

        # the no-arl round equals the plain supervised update
        m2 = model.snapshot()
        supervised_batch(m2, batch, bundle.table, arl_off, named_rng(7, "dropout"))
        assert stores_equal(m1.gen_store, m2.gen_store)

    def test_zero_advantage_update_equals_supervised_update(self, bundle, monkeypatch):
        # with every reward pinned to the baseline the policy term vanishes
        # analytically, so the decoder update must match supervised-only
        cfg, model = self._setup(bundle)
        batch = bundle.split_docs("train")[:6]

        import ehrpath.trainer as trainer_mod
        monkeypatch.setattr(trainer_mod, "reward",
                            lambda paths, *a, **k: [np.full(len(p), 0.5) for p in paths])
        m1 = model.snapshot()
        out = adversarial_round(m1, batch, bundle.table, cfg, named_rng(8, "dropout"))
        assert out["pg"] == pytest.approx(0.0, abs=1e-12)

        m2 = model.snapshot()
        supervised_batch(m2, batch, bundle.table, dataclasses.replace(cfg, no_arl=True),
                         named_rng(8, "dropout"))
        assert stores_equal(m1.gen_store, m2.gen_store)

    def test_empty_greedy_paths_score_the_gold_paths_alone(self, bundle, monkeypatch):
        # every greedy path stops at once: the scorer learns from the gold
        # paths alone, the rewards are empty, and the decoder update is the
        # supervised one
        cfg, model = self._setup(bundle)
        batch = bundle.split_docs("train")[:6]
        monkeypatch.setattr(trainer, "decode_path",
                            lambda store, gen_cfg, table, x, first, row:
                            DecodedPath((gen_cfg.stop_id,), first.probs[row, :gen_cfg.n_codes], 0))
        rewards = []
        monkeypatch.setattr(trainer, "reward", lambda *a: rewards.append(reward(*a)) or rewards[-1])
        x = _aligned_forward(model.snapshot(), batch, bundle.table, named_rng(8, "dropout")).x
        gold_loss = discriminator_loss([tuple(sorted(doc.gold_codes)) for doc in batch],
                                       [True] * len(batch), x, model.disc_store, model.disc_cfg)
        m1 = model.snapshot()
        out = adversarial_round(m1, batch, bundle.table, cfg, named_rng(8, "dropout"))
        assert [r.shape for r in rewards[0]] == [(0,)] * len(batch)
        assert out["pg"] == 0.0
        assert out["disc"] == pytest.approx(gold_loss, rel=0.0, abs=1e-12)

        m2 = model.snapshot()
        supervised_batch(m2, batch, bundle.table, dataclasses.replace(cfg, no_arl=True),
                         named_rng(8, "dropout"))
        assert stores_equal(m1.gen_store, m2.gen_store)

    def test_gen_loss_is_the_loop_form_sum_bit_for_bit(self, bundle):
        # the gather sums each document's steps in step order, then the
        # documents in batch order, as the loop over generator_step_loss does
        cfg, model = self._setup(bundle)
        batch = bundle.split_docs("train")[:8]
        fwd = _aligned_forward(model.snapshot(), batch, bundle.table, named_rng(8, "dropout"))
        out = adversarial_round(model, batch, bundle.table, cfg, named_rng(8, "dropout"))
        assert len(set(fwd.weights.sum(axis=1).tolist())) > 1  # ragged supervision
        assert fwd.losses() == aligned_losses(fwd)
        assert out["gen"] == sum(aligned_losses(fwd)) / len(batch)

    def test_reward_known_value_on_zeroed_scorer(self, bundle):
        cfg, model = self._setup(bundle)
        model.disc_store["disc.reward.W"][:] = 0.0
        model.disc_store["disc.reward.b"][:] = 0.0
        x = np.zeros(model.enc_cfg.rep_dim)
        ((r,),) = reward([(0,)], x[None], model.disc_store, model.disc_cfg)
        assert r == pytest.approx(0.5)

    def test_discriminator_loss_falls_on_frozen_generator(self, bundle):
        cfg, model = self._setup(bundle, seed=6)
        batch = bundle.split_docs("train")[:12]
        frozen = model.gen_store.copy()
        losses = []
        for _ in range(12):
            model.gen_store = frozen.copy()  # keep the decoder fixed between rounds
            out = adversarial_round(model, batch, bundle.table, cfg, named_rng(9, "dropout"))
            losses.append(out["disc"])
        assert losses[-1] < losses[0]


class TestTrain:
    def test_report_histories_match_epochs_run(self, bundle):
        cfg = TrainConfig(epochs=2, pretrain_epochs=3, seed=1, **TINY)
        report, _ = train(bundle, cfg)
        assert len(report.pretrain_losses) == 3
        assert len(report.gen_losses) == 2
        assert len(report.disc_losses) == 2
        assert len(report.val_metrics) == 5
        assert report.ablation == "none"
        assert report.wall_clock_s > 0.0

    def test_fixed_seed_bitwise_identical_traces(self, bundle):
        cfg = TrainConfig(epochs=1, pretrain_epochs=2, seed=11, **TINY)
        r1, m1 = train(bundle, cfg)
        r2, m2 = train(bundle, cfg)
        assert r1.pretrain_losses == r2.pretrain_losses
        assert r1.gen_losses == r2.gen_losses
        assert r1.disc_losses == r2.disc_losses
        assert stores_equal(m1.gen_store, m2.gen_store)

    def test_double_ablation_reduces_to_plain_supervised_coder(self, bundle):
        cfg = TrainConfig(epochs=1, pretrain_epochs=1, seed=12, no_copy=True, no_arl=True,
                          **TINY)
        report, model = train(bundle, cfg)
        assert report.ablation == "no_copy,no_arl"
        assert model.disc_store is None
        assert report.disc_losses == [0.0]

    def test_pretrain_losses_equal_pretrain_generator_bitwise(self, bundle):
        cfg = TrainConfig(epochs=1, pretrain_epochs=3, seed=14, **TINY)
        report, _ = train(bundle, cfg)
        assert report.pretrain_losses == pretrain_generator(bundle, cfg)[1]

    def test_every_batch_of_both_phases_runs_adversarial_round(self, bundle, monkeypatch):
        # the benchmark times adversarial_round as the training update, so
        # train must run every batch of both phases through it
        calls = []

        def counted(model, batch, table, cfg, dropout_rng):
            calls.append((len(batch), cfg.no_arl))
            return adversarial_round(model, batch, table, cfg, dropout_rng)

        monkeypatch.setattr(trainer, "adversarial_round", counted)
        cfg = TrainConfig(epochs=1, pretrain_epochs=1, seed=16, **TINY)
        train(bundle, cfg)
        n_train = len(bundle.split_docs("train"))
        sizes = [min(cfg.batch_size, n_train - i) for i in range(0, n_train, cfg.batch_size)]
        assert calls == [(n, True) for n in sizes] + [(n, False) for n in sizes]

    def test_best_jaccard_checkpoint_retained(self, bundle):
        cfg = TrainConfig(epochs=0, pretrain_epochs=3, seed=13, **TINY)
        report, model = train(bundle, cfg)
        best = max(m["jaccard"] for m in report.val_metrics)
        assert report.best_jaccard == best
        records = decode_predictions(model, bundle.split_docs("validation"), bundle.table)
        from ehrpath.metrics import jaccard
        assert jaccard(records) == pytest.approx(best, abs=1e-12)


class TestIdleGradients:
    """Between updates a model's stores hold no gradients, so every idle
    copy (train's best snapshot, the benchmark's starting points) holds
    parameters and Adam moments only."""

    def test_best_snapshot_holds_no_gradients(self, bundle):
        cfg = TrainConfig(epochs=1, pretrain_epochs=1, seed=17, **TINY)
        _, best = train(bundle, cfg)
        assert best.gen_store._grad_buffer is None
        assert best.disc_store._grad_buffer is None

    def test_snapshot_after_a_round_allocates_three_rows_per_store(self, bundle):
        # desk sizes; a store of N floats is 8N bytes a row, and a snapshot
        # copies parameters, m and v: 3 rows, where a gradient row makes 4
        cfg = TrainConfig(seed=18, d_embed=24, d_code=24, n_filters=20, batch_size=8, max_len=5)
        model = build_model(bundle, cfg)
        adversarial_round(model, bundle.split_docs("train")[:8], bundle.table, cfg,
                          named_rng(1, "dropout"))
        stores = (model.gen_store, model.disc_store)
        row_bytes = sum(8 * store._buffer.shape[1] for store in stores)
        tracemalloc.start()
        try:
            copy = model.snapshot()
            allocated = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 3 * row_bytes <= allocated < 3.25 * row_bytes
        assert copy.gen_store._grad_buffer is None and copy.disc_store._grad_buffer is None


class TestBatchEquivalence:
    """A lockstep batch of six documents against the same six documents as
    batches of one, each batch's gradient read (and so folded in) before the
    next: equal to 1e-10 in loss, in every per-step distribution and in
    every slot's gradient."""
    CFG = TrainConfig(seed=15, d_embed=24, d_code=24, n_filters=20, dropout=0.1)

    @staticmethod
    def _batch(bundle):
        """Training documents with 1, 3, 2, 1, 3 and 2 gold codes: aligned
        paths of 2, 4, 3, 2, 4 and 3 steps, so that the rows a step covers
        are not a prefix of the batch and the steps after them send
        gradient back."""
        by_size = {}
        for doc in bundle.split_docs("train"):
            by_size.setdefault(len(doc.gold_codes), []).append(doc)
        return [by_size[n][i] for i, n in ((0, 1), (0, 3), (0, 2), (1, 1), (1, 3), (1, 2))]

    def _compare(self, bundle, backward):
        # backward(fwd, doc_ids) accumulates the decoder update of one
        # forward, whose documents sit at doc_ids in the batch
        cfg = self.CFG
        model = build_model(bundle, cfg)
        store = model.gen_store
        batch = self._batch(bundle)

        store.zero_grads()
        fwd = _aligned_forward(model, batch, bundle.table, named_rng(3, "dropout"))
        backward(model, fwd, range(6))
        batch_grads = {n: store.grad(n).copy() for n in store.names()}

        rng = named_rng(3, "dropout")
        singles = []
        single_grads = {n: np.zeros_like(g) for n, g in batch_grads.items()}
        for b, doc in enumerate(batch):
            store.zero_grads()
            singles.append(_aligned_forward(model, [doc], bundle.table, rng))
            backward(model, singles[-1], [b])
            for n in store.names():
                single_grads[n] += store.grad(n)

        # mixed path lengths, and steps with and without copy candidates
        assert [len(d) for d in doc_steps(fwd)] == [2, 4, 3, 2, 4, 3]
        copy_rows = [bool(d.copy_ids) for dists in doc_steps(fwd) for d in dists]
        assert any(copy_rows) and not all(copy_rows)
        assert np.linalg.norm(batch_grads["gen.copy.W"]) > 0.0
        assert sum(fwd.losses()) == pytest.approx(sum(sum(s.losses()) for s in singles),
                                                  rel=0, abs=1e-10)
        for b, single in enumerate(singles):
            n = single.targets.shape[1]
            np.testing.assert_array_equal(single.targets[0], fwd.targets[b, :n])
            np.testing.assert_array_equal(single.weights[0], fwd.weights[b, :n])
            assert not fwd.weights[b, n:].any()
            (single_dists,) = doc_steps(single)
            assert len(single_dists) == len(doc_steps(fwd)[b])
            for mine, theirs in zip(doc_steps(fwd)[b], single_dists):
                assert mine.copy_ids == theirs.copy_ids
                np.testing.assert_allclose(mine.probs, theirs.probs, rtol=0, atol=1e-10)
        for n in store.names():
            np.testing.assert_allclose(batch_grads[n], single_grads[n], rtol=0, atol=1e-10,
                                       err_msg=n)
        return fwd

    def _clamp_one_target(self, bundle, monkeypatch):
        """Raise the probability floor just above the smallest target
        probability of the batch, so that exactly one step's loss is
        clamped and that step sends no gradient."""
        cfg = self.CFG
        model = build_model(bundle, cfg)
        fwd = _aligned_forward(model, self._batch(bundle), bundle.table, named_rng(3, "dropout"))
        probs = sorted(d.probs[t] for dists, targets, weights
                       in zip(doc_steps(fwd), fwd.targets, fwd.weights)
                       for d, t, w in zip(dists, targets, weights) if w)
        monkeypatch.setattr(generator, "PROB_FLOOR", (probs[0] + probs[1]) / 2)

    def test_deferred_batch_equals_sum_of_single_documents(self, bundle, monkeypatch):
        self._clamp_one_target(bundle, monkeypatch)
        fwd = self._compare(bundle, lambda model, fwd, doc_ids: _decoder_backward(model, fwd, 1.0))
        clamped = [d.probs[t] < generator.PROB_FLOOR for dists, targets, weights
                   in zip(doc_steps(fwd), fwd.targets, fwd.weights)
                   for d, t, w in zip(dists, targets, weights) if w]
        assert sum(clamped) == 1

    def test_adversarial_decoder_update_equals_single_documents(self, bundle, monkeypatch):
        # the aligned pass at the supervised weight plus the policy-gradient
        # pass over greedy paths of mixed lengths, with fixed advantages,
        # built as adversarial_round builds it; document 1's path is empty,
        # as a greedy path that stops at once, so the batch's first policy
        # step holds its row at weight 0
        self._clamp_one_target(bundle, monkeypatch)
        lengths = set()

        def backward(model, fwd, doc_ids):
            paths, advantages = [], []
            for i, (x, b) in enumerate(zip(fwd.x, doc_ids)):
                gen_cfg = dataclasses.replace(model.gen_cfg, max_len=2 + b % 3)
                path = decode_path(model.gen_store, gen_cfg, bundle.table, x, fwd.steps[0], i)
                paths.append(path.valid_codes if b != 1 else ())
                advantages += [0.3 - 0.2 * b + 0.1 * k for k in range(len(paths[-1]))]
                lengths.add(len(paths[-1]))
            policy = (_policy_terms(model.gen_store, model.gen_cfg, bundle.table, fwd.steps[0],
                                    paths, np.array(advantages)) if advantages else ())
            _decoder_backward(model, fwd, 0.7, *policy)

        self._compare(bundle, backward)
        assert 0 in lengths and len(lengths - {0}) > 1


class TestDecodePredictions:
    def test_a_path_with_no_allowed_mass_left_ends_with_stop(self, bundle):
        # every id but code 0 underflows to probability 0: once code 0 is
        # emitted and banned, no allowed id keeps any mass, and the path
        # ends there instead of emitting the banned code again
        cfg = TrainConfig(seed=4, d_embed=10, d_code=8, n_filters=6, kernel_sizes=(2, 3),
                          max_len=5)
        model = build_model(bundle, cfg)
        store, gen_cfg = model.gen_store, model.gen_cfg
        store["gen.lstm.b"][:] = 50.0
        store["gen.out.W"][:] = 0.0
        store["gen.out.W"][0] = 5000.0
        store["gen.copy.W"][:] = 0.0
        doc = bundle.split_docs("test")[0]
        x, _ = encode_batch([doc.tokens], store, model.enc_cfg)
        with np.errstate(divide="raise", invalid="raise"):
            path = generator.decode_path(store, gen_cfg, bundle.table, x[0])
            (record,) = decode_predictions(model, [doc], bundle.table)
        assert path.codes == (0, gen_cfg.stop_id)
        assert path.valid_len == 1
        assert record.predicted == frozenset({0})

    def test_slices_give_the_records_of_single_documents(self, bundle):
        # 300 documents span a slice boundary of the batched first step
        assert trainer.DECODE_SLICE < 300 < 2 * trainer.DECODE_SLICE
        model = build_model(bundle, TrainConfig(seed=17, **TINY))
        rng = named_rng(17, "unit")
        for name, p in model.gen_store.parameters():  # paths that depend on the document
            p[...] = rng.normal(size=p.shape) * 0.5
        docs = (bundle.documents * 5)[:300]
        records = decode_predictions(model, docs, bundle.table)
        singles = [decode_predictions(model, [doc], bundle.table)[0] for doc in docs]
        assert [r.doc_id for r in records] == list(range(300))
        assert len({r.predicted for r in records}) > 3
        for mine, theirs in zip(records, singles):
            assert (mine.predicted, mine.gold) == (theirs.predicted, theirs.gold)
            assert mine.scores.keys() == theirs.scores.keys()
            np.testing.assert_allclose(list(mine.scores.values()), list(theirs.scores.values()),
                                       rtol=0, atol=1e-12)


class TestCheckpointRoundtrip:
    def test_config_block_is_pinned(self, bundle):
        # checkpoint keys and value formats; a change here changes the file format
        model = build_model(bundle, TrainConfig(seed=3, **TINY))
        assert model_config_kv(model, 3) == {
            "vocab_size": "60", "num_codes": "6", "d_embed": "10", "d_code": "8",
            "rep_dim": "12", "kernel_sizes": "2,3", "n_filters": "6", "dropout": "0.2",
            "no_copy": "0", "max_len": "5",
            "has_discriminator": "1", "seed": "3",
        }

    def test_model_roundtrip_bitwise(self, bundle, tmp_path):
        cfg = TrainConfig(epochs=1, pretrain_epochs=1, seed=14, **TINY)
        report, model = train(bundle, cfg)
        path = str(tmp_path / "model.ckpt")
        save_model(path, model, cfg.seed)
        kv, slots = load_checkpoint(path)
        assert kv == model_config_kv(model, cfg.seed)
        restored = model_from_checkpoint(kv, slots)
        assert stores_equal(restored.gen_store, model.gen_store)
        assert stores_equal(restored.disc_store, model.disc_store)
        assert restored.gen_cfg == model.gen_cfg
        assert restored.enc_cfg == model.enc_cfg

    def test_no_arl_checkpoint_has_no_scorer_slots(self, bundle, tmp_path):
        cfg = TrainConfig(epochs=1, pretrain_epochs=1, seed=15, no_arl=True, **TINY)
        _, model = train(bundle, cfg)
        path = str(tmp_path / "model.ckpt")
        save_model(path, model, cfg.seed)
        _, slots = load_checkpoint(path)
        assert not any(name.startswith("disc.") for name in slots)

    def test_predictions_identical_after_roundtrip(self, bundle, tmp_path):
        cfg = TrainConfig(epochs=0, pretrain_epochs=1, seed=16, **TINY)
        _, model = train(bundle, cfg)
        path = str(tmp_path / "model.ckpt")
        save_model(path, model, cfg.seed)
        kv, slots = load_checkpoint(path)
        restored = model_from_checkpoint(kv, slots)
        docs = bundle.split_docs("test")
        assert decode_predictions(model, docs, bundle.table) == \
            decode_predictions(restored, docs, bundle.table)
