import math
from dataclasses import replace

import numpy as np
import pytest

from ehrpath.corpus import ComplicationTable
from ehrpath.generator import (GeneratorConfig, _fuse_forward, _mixture_forward,
                               _mixture_from_scores, decode_path, decode_path_traced,
                               generator_step_loss, init_generator_params, path_loss, run_steps,
                               sequence_backward, stack_steps)
from ehrpath.lstm import init_lstm_params, lstm_step
from ehrpath.numerics import ParamStore, finite_diff_check, named_rng
from oracles import softmax_stable

CFG = GeneratorConfig(n_codes=6, d_code=5, rep_dim=8)
TABLE = ComplicationTable({(0, 1): 5.0, (2, 3): 4.0, (1, 4): 3.0}, 2.0, 1)


def make_store(seed=0, cfg=CFG):
    store = ParamStore()
    init_generator_params(store, cfg, named_rng(seed, "init"))
    return store


class TestFuse:
    def test_equal_inputs_zero_difference_blocks(self):
        store = make_store()
        rng = named_rng(1, "x")
        x = rng.normal(size=CFG.rep_dim)
        _, u = _fuse_forward(x, x.copy(), store)
        r = CFG.rep_dim
        np.testing.assert_array_equal(u[4 * r:5 * r], np.zeros(r))  # x - c
        np.testing.assert_array_equal(u[5 * r:6 * r], np.zeros(r))  # c - x

    def test_zero_inputs_zero_output(self):
        store = make_store()
        out = _fuse_forward(np.zeros(CFG.rep_dim), np.zeros(CFG.rep_dim), store)[0]
        np.testing.assert_array_equal(out, np.zeros(CFG.rep_dim))

    def test_selector_weight_recovers_sum_block(self):
        store = make_store()
        r = CFG.rep_dim
        w = np.zeros((r, 6 * r))
        w[:, 3 * r:4 * r] = np.eye(r)  # pick the (x + c) block
        store["gen.fuse.W"][:] = w
        rng = named_rng(2, "x")
        x = rng.normal(size=r)
        c = rng.normal(size=r)
        np.testing.assert_allclose(_fuse_forward(x, c, store)[0], np.tanh(x + c), atol=1e-12)

    def test_output_strictly_inside_unit_interval(self):
        store = make_store()
        rng = named_rng(3, "x")
        out = _fuse_forward(rng.normal(size=CFG.rep_dim), rng.normal(size=CFG.rep_dim), store)[0]
        assert np.all(np.abs(out) < 1.0)

    def test_shape_mismatch_rejected(self):
        store = make_store()
        with pytest.raises(ValueError):
            _fuse_forward(np.zeros(CFG.rep_dim), np.zeros(CFG.rep_dim + 1), store)[0]


class TestLstmStep:
    def test_all_zero_weights_closed_form(self):
        store = ParamStore()
        hidden = 4
        init_lstm_params(store, "z", 3, hidden, named_rng(0, "init"))
        for name in store.names():
            store[name][:] = 0.0
        c_prev = np.array([1.0, -2.0, 0.5, 0.0])
        h, c, cache = lstm_step(store, "z", np.zeros(hidden), c_prev, np.zeros(3))
        np.testing.assert_allclose(cache.f, 0.5)
        np.testing.assert_allclose(cache.i, 0.5)
        np.testing.assert_allclose(cache.g, 0.0)
        np.testing.assert_allclose(c, 0.5 * c_prev)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev))

    def test_large_negative_forget_bias_saturates(self):
        store = ParamStore()
        init_lstm_params(store, "z", 3, 4, named_rng(1, "init"))
        store["z.bf"][:] = -50.0
        c_prev = np.full(4, 3.0)
        _, c, cache = lstm_step(store, "z", np.zeros(4), c_prev, np.ones(3))
        np.testing.assert_allclose(c, cache.i * cache.g, atol=1e-12)

    def test_matches_scalar_oracle(self):
        store = ParamStore()
        hidden, d_in = 4, 3
        rng = named_rng(2, "init")
        init_lstm_params(store, "z", d_in, hidden, rng)
        h_prev = rng.normal(size=hidden)
        c_prev = rng.normal(size=hidden)
        x = rng.normal(size=d_in)
        h, c, _ = lstm_step(store, "z", h_prev, c_prev, x)
        z = np.concatenate([h_prev, x])

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        for row in range(hidden):
            f = sig(float(store["z.Wf"][row] @ z + store["z.bf"][row]))
            i = sig(float(store["z.Wi"][row] @ z + store["z.bi"][row]))
            g = max(float(store["z.Wc"][row] @ z + store["z.bc"][row]), 0.0)
            o = sig(float(store["z.Wo"][row] @ z + store["z.bo"][row]))
            c_row = f * c_prev[row] + i * g
            assert c[row] == pytest.approx(c_row, rel=1e-12)
            assert h[row] == pytest.approx(o * math.tanh(c_row), rel=1e-12)

    def test_tanh_candidate_flag(self):
        store = ParamStore()
        init_lstm_params(store, "z", 2, 3, named_rng(3, "init"))
        store["z.bc"][:] = -2.0
        _, _, cache = lstm_step(store, "z", np.zeros(3), np.zeros(3), np.zeros(2),
                                activation="tanh")
        assert np.all(cache.g < 0.0)  # relu would clamp these to zero


class TestMixture:
    def test_empty_vocabulary_is_pure_generate_softmax(self):
        store = make_store()
        h = named_rng(4, "h").normal(size=CFG.rep_dim)
        (dist,), _ = _mixture_forward(h[None], [5], TABLE, store, CFG)  # no partners
        np.testing.assert_allclose(dist.probs, softmax_stable(store["gen.out.W"] @ h),
                                   atol=1e-12)
        assert dist.copy_ids == ()
        assert np.all(dist.copy_mass == 0.0)

    def test_counting_case_exact(self):
        # 3 real codes + STOP + UNK = 5 generate ids, 2 copy ids, all scores zero
        (dist,), _ = _mixture_from_scores(np.zeros((1, 5)), np.zeros(2), [(0, 2)])
        assert dist.probs[1] == 1.0 / 7.0
        assert dist.probs[0] == 2.0 / 7.0
        assert dist.probs[2] == 2.0 / 7.0
        assert abs(dist.probs.sum() - 1.0) < 1e-9

    def test_normalization_and_support_on_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cfg = GeneratorConfig(n_codes=int(rng.integers(2, 8)), d_code=4, rep_dim=6)
            store = ParamStore()
            init_generator_params(store, cfg, rng)
            prev = int(rng.integers(0, cfg.n_total))
            partners = tuple(sorted(rng.choice(cfg.n_codes, size=rng.integers(0, 3),
                                               replace=False).tolist()))
            partners = tuple(p for p in partners if p != prev)
            table = None
            if partners:
                anchor = prev if prev < cfg.n_codes else 0
                pairs = {tuple(sorted((anchor, p))): 9.0 for p in partners if p != anchor}
                if pairs:
                    table = ComplicationTable(pairs, 2.0, 1)
            h = rng.normal(size=cfg.rep_dim)
            (dist,), _ = _mixture_forward(h[None], [prev], table, store, cfg)
            assert abs(dist.probs.sum() - 1.0) < 1e-9
            outside = np.ones(cfg.n_total, dtype=bool)
            if dist.copy_ids:
                outside[list(dist.copy_ids)] = False
            assert np.all(dist.copy_mass[outside] == 0.0)

    def test_shared_shift_invariance(self):
        rng = np.random.default_rng(12)
        gen = rng.normal(size=6)
        cop = rng.normal(size=2)
        (a,), _ = _mixture_from_scores(gen[None], cop, [(1, 3)])
        (b,), _ = _mixture_from_scores(gen[None] + 55.5, cop + 55.5, [(1, 3)])
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)

    def test_no_copy_flag_forces_pure_generate(self):
        cfg = GeneratorConfig(n_codes=6, d_code=5, rep_dim=8, no_copy=True)
        store = make_store(cfg=cfg)
        h = named_rng(5, "h").normal(size=cfg.rep_dim)
        (dist,), _ = _mixture_forward(h[None], [0], TABLE, store, cfg)  # has a partner
        assert dist.copy_ids == ()
        np.testing.assert_allclose(dist.probs, softmax_stable(store["gen.out.W"] @ h),
                                   atol=1e-12)


class TestStepLoss:
    def test_certain_target_zero_loss(self):
        (dist,), _ = _mixture_from_scores(np.array([[100.0, 0.0, 0.0]]), np.zeros(0), [()])
        assert generator_step_loss(dist, 0) == pytest.approx(0.0, abs=1e-9)

    def test_exp_minus_two(self):
        probs = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0)])
        (dist,), _ = _mixture_from_scores(np.log(probs)[None], np.zeros(0), [()])
        assert generator_step_loss(dist, 0) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_seven_terms(self):
        (dist,), _ = _mixture_from_scores(np.zeros((1, 5)), np.zeros(2), [(0, 2)])
        assert generator_step_loss(dist, 1) == pytest.approx(math.log(7.0), abs=1e-12)

    def test_floor_prevents_infinity(self):
        (dist,), _ = _mixture_from_scores(np.array([[1000.0, 0.0]]), np.zeros(0), [()])
        assert generator_step_loss(dist, 1) <= -math.log(1e-12) + 1e-9


class TestDecode:
    def test_forced_stop_yields_empty_valid_path(self):
        store = make_store()
        # saturate the LSTM so h is far from zero, then point every unit at STOP
        for gate in ("bc", "bo"):
            store[f"gen.lstm.{gate}"][:] = 5.0
        store["gen.out.W"][:] = 0.0
        store["gen.out.W"][CFG.stop_id] = 5.0
        path = decode_path(store, CFG, TABLE, np.zeros(CFG.rep_dim))
        assert path.codes == (CFG.stop_id,)
        assert path.valid_len == 0
        assert path.valid_codes == ()

    def test_max_len_one_truncates(self):
        store = make_store()
        store["gen.lstm.bc"][:] = 5.0
        store["gen.lstm.bo"][:] = 5.0
        store["gen.out.W"][:] = 0.0
        store["gen.out.W"][2] = 5.0
        path = decode_path(store, CFG, TABLE, np.zeros(CFG.rep_dim), max_len=1)
        assert path.codes == (2,)
        assert path.valid_len == 1

    def test_no_duplicates_and_nothing_after_stop(self):
        rng = np.random.default_rng(21)
        for seed in range(15):
            store = make_store(seed=seed)
            x = rng.normal(size=CFG.rep_dim)
            path = decode_path(store, CFG, TABLE, x, max_len=8)
            valid = path.valid_codes
            assert len(valid) == len(set(valid))
            assert CFG.stop_id not in valid
            assert CFG.unk_id not in path.codes
            if CFG.stop_id in path.codes:
                assert path.codes.index(CFG.stop_id) == len(path.codes) - 1
            assert len(path.codes) <= 8
            assert len(path.distributions) == len(path.codes)

    def test_distributions_are_unmasked(self):
        store = make_store(seed=3)
        x = named_rng(6, "x").normal(size=CFG.rep_dim)
        path = decode_path(store, CFG, TABLE, x, max_len=4)
        for dist in path.distributions:
            assert abs(dist.probs.sum() - 1.0) < 1e-9
            assert np.all(dist.probs > 0.0)


class TestStackSteps:
    def test_steps_with_differing_settings_rejected(self):
        store = make_store()
        x = named_rng(6, "x").normal(size=CFG.rep_dim)
        _, traces = decode_path_traced(store, CFG, TABLE, x, max_len=1)
        tanh = replace(traces[0], lstm=replace(traces[0].lstm, activation="tanh"))
        with pytest.raises(ValueError, match="activation"):
            stack_steps([traces, [tanh]])


class TestSequenceGradients:
    def test_joint_gradient_check_with_copy_path(self):
        cfg = GeneratorConfig(n_codes=6, d_code=5, rep_dim=8)
        store = make_store(seed=7, cfg=cfg)
        rng = named_rng(8, "x")
        x = rng.normal(size=cfg.rep_dim) * 0.3
        inputs = [cfg.stop_id, 0, 1]
        targets = [(0, 1.0), (1, 1.0), (cfg.stop_id, 1.0)]

        def f(s):
            return path_loss(run_steps(s, cfg, TABLE, x, inputs), targets)

        store.zero_grads()
        traces = run_steps(store, cfg, TABLE, x, inputs)
        sequence_backward(store, cfg, traces, targets)
        analytic = {n: store.grad(n).copy() for n in store.names()}
        err = finite_diff_check(f, store, analytic, eps=1e-5, num_samples=300,
                                rng=np.random.default_rng(3))
        assert err < 1e-4

    def test_weighted_targets_scale_gradients(self):
        cfg = GeneratorConfig(n_codes=4, d_code=3, rep_dim=5)
        store = ParamStore()
        init_generator_params(store, cfg, named_rng(9, "init"))
        x = named_rng(10, "x").normal(size=cfg.rep_dim)
        inputs = [cfg.stop_id, 1]

        store.zero_grads()
        traces = store_traces = run_steps(store, cfg, None, x, inputs)
        sequence_backward(store, cfg, traces, [(1, 2.0), (0, 2.0)])
        doubled = {n: store.grad(n).copy() for n in store.names()}
        store.zero_grads()
        sequence_backward(store, cfg, store_traces, [(1, 1.0), (0, 1.0)])
        for n in store.names():
            np.testing.assert_allclose(doubled[n], 2.0 * store.grad(n), atol=1e-12)

    def test_gradient_with_respect_to_representation(self):
        cfg = GeneratorConfig(n_codes=4, d_code=3, rep_dim=5)
        store = ParamStore()
        init_generator_params(store, cfg, named_rng(11, "init"))
        x = named_rng(12, "x").normal(size=cfg.rep_dim)
        inputs = [cfg.stop_id, 2]
        targets = [(2, 1.0), (cfg.stop_id, 1.0)]

        store.zero_grads()
        traces = run_steps(store, cfg, None, x, inputs)
        dx = sequence_backward(store, cfg, traces, targets)
        eps = 1e-6
        for i in range(cfg.rep_dim):
            xp = x.copy()
            xp[i] += eps
            up = path_loss(run_steps(store, cfg, None, xp, inputs), targets)
            xm = x.copy()
            xm[i] -= eps
            dn = path_loss(run_steps(store, cfg, None, xm, inputs), targets)
            assert dx[i] == pytest.approx((up - dn) / (2 * eps), abs=1e-5)
