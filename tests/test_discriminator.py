import math

import numpy as np
import pytest
from scipy.special import expit, logit

import oracles
from ehrpath.discriminator import (CLAMP, DiscriminatorConfig, discriminator_loss,
                                   discriminator_slots, reward, score_paths)
from ehrpath.lstm import lstm_step
from ehrpath.numerics import ParamStore, adam_step, finite_diff_check, named_rng

CFG = DiscriminatorConfig(n_codes=6, d_code=5, hidden=8, rep_dim=7)


def make_store(seed=0, cfg=CFG):
    return ParamStore(discriminator_slots(cfg, named_rng(seed, "init")))


def encode_path(prefix, store, cfg):
    """Final hidden state of one prefix: its last step in score_paths on a
    batch of one path."""
    scored = score_paths([tuple(prefix)], np.zeros((1, cfg.rep_dim)), store, cfg)
    return scored.feats[-1, :cfg.hidden], None


def reward_one(prefix, x, store, cfg):
    """Reward of one prefix: the last step's reward of a batch of one path."""
    (rewards,) = reward([tuple(prefix)], x[None], store, cfg)
    return rewards[-1]


def one_row_step(store, h, c, x):
    """lstm_step on one row, given and returned as vectors."""
    h, c, _ = lstm_step(store, "disc.lstm", h[None], c[None], x[None])
    return h[0], c[0]


class TestEncodePath:
    def test_zero_weights_closed_form_iterated(self):
        store = make_store()
        for name in store.names():
            if name.startswith("disc.lstm") or name == "disc.code_embed":
                store[name][:] = 0.0
        # with all-zero weights every step halves and squashes the cell
        h, _ = encode_path([0, 1, 2], store, CFG)
        c = np.zeros(CFG.hidden)
        for _ in range(3):
            c = 0.5 * c  # f=0.5, candidate=relu(0)=0
        np.testing.assert_allclose(h, 0.5 * np.tanh(c), atol=1e-12)

    def test_single_code_is_one_lstm_step(self):
        store = make_store(seed=1)
        h, _ = encode_path([4], store, CFG)
        expected, _ = one_row_step(store, np.zeros(CFG.hidden), np.zeros(CFG.hidden),
                                   store["disc.code_embed"][4])
        np.testing.assert_allclose(h, expected, atol=1e-14)

    def test_three_codes_match_chained_steps(self):
        store = make_store(seed=2)
        h, _ = encode_path([0, 3, 5], store, CFG)
        hh = np.zeros(CFG.hidden)
        cc = np.zeros(CFG.hidden)
        for code in (0, 3, 5):
            hh, cc = one_row_step(store, hh, cc, store["disc.code_embed"][code])
        np.testing.assert_allclose(h, hh, atol=1e-14)

    def test_empty_path_scores_no_prefix(self):
        scored = score_paths([()], np.zeros((1, CFG.rep_dim)), make_store(), CFG)
        assert scored.steps == [] and scored.feats.shape == (0, CFG.hidden + CFG.rep_dim)


class TestReward:
    def test_zero_layer_gives_half(self):
        store = make_store(seed=3)
        store["disc.reward.W"][:] = 0.0
        store["disc.reward.b"][:] = 0.0
        assert reward_one([2], np.zeros(CFG.rep_dim), store, CFG) == pytest.approx(0.5)

    def test_monotone_in_bias_toward_one(self):
        store = make_store(seed=4)
        x = named_rng(5, "x").normal(size=CFG.rep_dim)
        values = []
        for bias in (0.0, 5.0, 20.0):
            store["disc.reward.b"][:] = bias
            values.append(reward_one([1, 2], x, store, CFG))
        assert values[0] < values[1] < values[2]
        assert values[2] > 1.0 - 1e-6

    def test_matches_scalar_formula(self):
        store = make_store(seed=6)
        x = named_rng(7, "x").normal(size=CFG.rep_dim)
        h, _ = encode_path([0, 5], store, CFG)
        logit_val = float(store["disc.reward.W"] @ np.concatenate([h, x])
                          + store["disc.reward.b"][0])
        assert reward_one([0, 5], x, store, CFG) == pytest.approx(float(expit(logit_val)),
                                                                  rel=1e-12)

    def test_always_inside_open_unit_interval(self):
        store = make_store(seed=8)
        rng = named_rng(9, "x")
        for _ in range(20):
            r = reward_one([int(rng.integers(0, 6))], rng.normal(size=CFG.rep_dim), store, CFG)
            assert 0.0 < r < 1.0


class TestLockstepMatchesOracle:
    """One lockstep pass against the per-prefix oracle in tests/oracles.py."""
    # maximal paths in order: (3,), (0, 2, 5, 1), (4, 1), (0, 3), (2, 3, 1), (5, 0)
    PATHS = [(3,), (0, 2, 5, 1), (4, 1),    # positive for document 0
             (4, 1),                        # the same path, negative for document 1
             (0, 2, 5),                     # a prefix of (0, 2, 5, 1)
             (),                            # an empty generated path
             (0, 3),                        # shares (0,) with (0, 2, 5, 1)
             (2, 3, 1),
             (5, 0)]                        # clamped: document 2 saturates it
    POSITIVE = [True] * 3 + [False] * 6
    DOCS = [0] * 3 + [1] * 5 + [2]

    def _inputs(self):
        store = make_store(seed=17)
        for name in store.names():
            store[name][:] *= 8.0  # out of the init's near-linear range
        rng = named_rng(18, "x")
        w_x = store["disc.reward.W"][CFG.hidden:]
        doc_rows = np.stack([rng.normal(size=CFG.rep_dim), rng.normal(size=CFG.rep_dim),
                             100.0 * w_x / (w_x @ w_x)])
        return store, doc_rows[self.DOCS]

    def test_step_t_runs_the_paths_longer_than_t(self):
        store, x = self._inputs()
        scored = score_paths(self.PATHS, x, store, CFG)
        assert [rows.tolist() for rows, _, _ in scored.steps] == [[0, 1, 2, 3, 4, 5],
                                                                 [1, 2, 3, 4, 5], [1, 4], [1]]

    def test_loss_rewards_and_gradients_match_oracle(self):
        store, x = self._inputs()
        rewards = reward(self.PATHS, x, store, CFG)
        assert [len(r) for r in rewards] == [len(p) for p in self.PATHS]
        expected = [oracles.reward(path[:k + 1], row, store, CFG)
                    for path, row in zip(self.PATHS, x) for k in range(len(path))]
        flat = np.concatenate(rewards)
        np.testing.assert_allclose(flat, expected, rtol=0.0, atol=1e-12)
        clamped = (flat < CLAMP) | (flat > 1.0 - CLAMP)
        assert np.flatnonzero(clamped).tolist() == [len(flat) - 2, len(flat) - 1]

        store.zero_grads()
        loss = discriminator_loss(self.PATHS, self.POSITIVE, x, store, CFG)
        grads = {name: store.grad(name).copy() for name in store.names()}
        store.zero_grads()
        assert loss == pytest.approx(
            oracles.discriminator_loss(self.PATHS, self.POSITIVE, x, store, CFG),
            rel=0.0, abs=1e-12)
        for name in store.names():
            assert np.abs(grads[name]).max() > 1e-4, name
            np.testing.assert_allclose(grads[name], store.grad(name), rtol=0.0, atol=1e-12,
                                       err_msg=name)

    def test_all_generated_paths_empty(self):
        # each document's gold path, then an empty generated path: no
        # rewards, and the loss of the gold paths alone
        store, _ = self._inputs()
        rng = named_rng(19, "x")
        x = rng.normal(size=(2, CFG.rep_dim))
        gold = [(0, 2, 5), (1, 4)]
        rewards = reward([(), ()], x, store, CFG)
        assert [r.shape for r in rewards] == [(0,), (0,)]

        batch = [gold[0], (), gold[1], ()]
        store.zero_grads()
        loss = discriminator_loss(batch, [True, False] * 2, np.repeat(x, 2, axis=0), store, CFG)
        grads = {name: store.grad(name).copy() for name in store.names()}
        store.zero_grads()
        assert loss == pytest.approx(
            oracles.discriminator_loss(gold, [True, True], x, store, CFG),
            rel=0.0, abs=1e-12)
        for name in store.names():
            np.testing.assert_allclose(grads[name], store.grad(name), rtol=0.0, atol=1e-12,
                                       err_msg=name)


class TestEveryPrefix:
    def test_five_codes_five_rewards(self):
        store = make_store(seed=9)
        x = named_rng(10, "x").normal(size=CFG.rep_dim)
        (rewards,) = reward([(0, 1, 2, 3, 4)], x[None], store, CFG)
        assert len(rewards) == 5
        assert rewards[2] == reward_one([0, 1, 2], x, store, CFG)


class TestLoss:
    def test_half_probability_gives_ln2(self):
        store = make_store(seed=10)
        store["disc.reward.W"][:] = 0.0
        store["disc.reward.b"][:] = 0.0
        loss = discriminator_loss([(0,), (1, 2)], [True, False], np.zeros((2, CFG.rep_dim)),
                                  store, CFG)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_predictions_near_zero_loss(self):
        store = make_store(seed=11)
        store["disc.reward.W"][:] = 0.0
        store["disc.reward.b"][:] = 30.0
        assert discriminator_loss([(0,)], [True], np.zeros((1, CFG.rep_dim)), store, CFG) < 1e-9

    def test_known_probabilities_hand_value(self):
        store = make_store(seed=12)
        # the forget gate's weights: keep h deterministic but nonzero-free
        store["disc.lstm.W"][:CFG.hidden] = 0.0
        store["disc.reward.W"][:] = 0.0
        store["disc.reward.W"][CFG.hidden] = 1.0  # read x[0] only
        store["disc.reward.b"][:] = 0.0
        x = np.stack([np.r_[logit(0.9), np.zeros(CFG.rep_dim - 1)],
                      np.r_[logit(0.2), np.zeros(CFG.rep_dim - 1)]])
        loss = discriminator_loss([(0,), (1,)], [True, False], x, store, CFG)
        assert loss == pytest.approx((-math.log(0.9) - math.log(0.8)) / 2.0, abs=1e-12)

    def test_empty_batch_rejected(self):
        for paths in ([], [(), ()]):
            with pytest.raises(ValueError):
                discriminator_loss(paths, [False] * len(paths),
                                   np.zeros((len(paths), CFG.rep_dim)), make_store(), CFG)

    def test_gradient_check(self):
        store = make_store(seed=13)
        rng = named_rng(14, "x")
        x = rng.normal(size=(2, CFG.rep_dim))
        batch, positive = [(0, 2), (4, 1, 3)], [True, False]

        def f(s):
            s.zero_grads()  # the loss accumulates the scorer's gradients: drop each call's
            return discriminator_loss(batch, positive, x, s, CFG)

        store.zero_grads()
        discriminator_loss(batch, positive, x, store, CFG)
        analytic = {n: store.grad(n).copy() for n in store.names()}
        err = finite_diff_check(f, store, analytic, eps=1e-5, num_samples=250,
                                rng=np.random.default_rng(4))
        assert err < 1e-4

    def test_separable_toy_set_reaches_low_loss(self):
        # positives are planted pairs, negatives are random non-pairs; with a
        # dedicated optimizer the scorer should reach < 0.3 within 200 updates
        cfg = DiscriminatorConfig(n_codes=10, d_code=6, hidden=10, rep_dim=6)
        store = ParamStore(discriminator_slots(cfg, named_rng(15, "init")))
        rng = named_rng(16, "data")
        batch, positive = [], []
        for a in range(0, 10, 2):
            batch.append((a, a + 1))
            positive.append(True)
        while len(batch) < 10:
            a, b = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            if a != b and abs(a - b) != 1:
                batch.append((a, b))
                positive.append(False)
        x = np.zeros((len(batch), cfg.rep_dim))
        losses = []
        for _ in range(200):
            store.zero_grads()
            losses.append(discriminator_loss(batch, positive, x, store, cfg))
            adam_step(store, 1e-2)
        assert losses[-1] < 0.3


class TestPerSlotOracle:
    """oracles.assert_per_slot_power on every scorer slot at desk sizes,
    through discriminator_loss on a batch laid out as adversarial_round lays
    it (each document's gold path, then its generated one) with paths of
    mixed lengths, two of which extend another and one repeats another, so
    that score_paths shares their rows: the true gradient passes at 1e-4,
    and the check fails when any one slot's analytic gradient is scaled by
    1.01, by 0 or by 2."""

    BOUND = 1e-4
    DESK = DiscriminatorConfig(n_codes=20, d_code=24, hidden=60, rep_dim=60)
    PATHS = [(1, 4, 7), (1, 4), (3,), (3, 8, 2, 11), (5, 9), (), (0, 6, 12), (0, 6, 12)]

    def test_true_gradient_passes_and_each_scaled_slot_fails(self):
        cfg = self.DESK
        store = ParamStore(discriminator_slots(cfg, named_rng(22, "init")))
        x = np.repeat(named_rng(23, "x").normal(size=(len(self.PATHS) // 2, cfg.rep_dim)), 2,
                      axis=0)
        positive = [True, False] * (len(self.PATHS) // 2)

        def f(s):
            s.zero_grads()  # the loss accumulates the scorer's gradients: drop each call's
            return discriminator_loss(self.PATHS, positive, x, s, cfg)

        scored = score_paths(self.PATHS, x, store, cfg)
        assert len(scored.steps[0][0]) < sum(map(bool, self.PATHS))  # shared rows
        f(store)
        analytic = {n: store.grad(n).copy() for n in store.names()}
        oracles.assert_per_slot_power(f, store, analytic, "scorer", self.BOUND, eps=1e-5)
