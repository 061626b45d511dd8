import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from ehrpath.corpus import ComplicationTable
from ehrpath.generator import (PROB_FLOOR, DecodedPath, DecoderTables, GeneratorConfig, StepTrace,
                               _code_backward, _concat, _mixture_backward, _mixture_forward,
                               batch_backward, decode_path, decode_path_traced, generator_slots,
                               generator_step, path_loss, run_batch, run_steps, sequence_backward,
                               stack_steps, step_losses)
from ehrpath.lstm import lstm_slots, lstm_step, lstm_step_backward
from ehrpath.numerics import ParamStore, finite_diff_check, named_rng
from ehrpath.trainer import _policy_terms
from oracles import (GATES, fold_six_blocks, four_gate_lstm_step, four_gate_lstm_step_backward,
                     four_gate_lstm_slots, fuse_forward, generator_step_loss, mixture_forward_row,
                     mixture_scores_row, path_loss_loop, per_slot_errors,
                     scatter_mixture_backward, scatter_mixture_forward, softmax_stable, step_row)

CFG = GeneratorConfig(n_codes=6, d_code=5, rep_dim=8)
TABLE = ComplicationTable({(0, 1): 5.0, (2, 3): 4.0, (1, 4): 3.0}, 2.0, 1)
EMPTY = ComplicationTable({}, 2.0, 5)


def make_store(seed=0, cfg=CFG):
    return ParamStore(generator_slots(cfg, named_rng(seed, "init")))


def unit_store(seed):
    """Weights of unit scale: cell states far from zero, so that tanh(c)
    differs from c, and greedy paths that the document vector decides."""
    store = make_store()
    rng = named_rng(seed, "unit")
    for name in store.names():
        store[name][...] = rng.normal(size=store[name].shape) * 0.5
    return store


class TestFuse:
    def test_equal_inputs_zero_difference_blocks(self):
        store = make_store()
        rng = named_rng(1, "x")
        x = rng.normal(size=CFG.rep_dim)
        _, u = fuse_forward(x, x.copy(), store)
        r = CFG.rep_dim
        np.testing.assert_array_equal(u[4 * r:5 * r], np.zeros(r))  # x - c
        np.testing.assert_array_equal(u[5 * r:6 * r], np.zeros(r))  # c - x

    def test_zero_inputs_zero_output(self):
        store = make_store()
        out = fuse_forward(np.zeros(CFG.rep_dim), np.zeros(CFG.rep_dim), store)[0]
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
        np.testing.assert_allclose(fuse_forward(x, c, store)[0], np.tanh(x + c), atol=1e-12)

    def test_output_strictly_inside_unit_interval(self):
        store = make_store()
        rng = named_rng(3, "x")
        out = fuse_forward(rng.normal(size=CFG.rep_dim), rng.normal(size=CFG.rep_dim), store)[0]
        assert np.all(np.abs(out) < 1.0)

    def test_shape_mismatch_rejected(self):
        store = make_store()
        with pytest.raises(ValueError):
            fuse_forward(np.zeros(CFG.rep_dim), np.zeros(CFG.rep_dim + 1), store)[0]


class TestLstmStep:
    def test_all_zero_weights_closed_form(self):
        hidden = 4
        store = ParamStore(lstm_slots("z", 3, hidden, named_rng(0, "init")))
        for name in store.names():
            store[name][:] = 0.0
        c_prev = np.array([1.0, -2.0, 0.5, 0.0])
        (h,), (c,), cache = lstm_step(store, "z", np.zeros((1, hidden)), c_prev[None],
                                      np.zeros((1, 3)))
        np.testing.assert_allclose(cache.f, 0.5)
        np.testing.assert_allclose(cache.i, 0.5)
        np.testing.assert_allclose(cache.g, 0.0)
        np.testing.assert_allclose(c, 0.5 * c_prev)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev))

    def test_large_negative_forget_bias_saturates(self):
        store = ParamStore(lstm_slots("z", 3, 4, named_rng(1, "init")))
        store["z.b"][:4] = -50.0  # the forget gate's block
        c_prev = np.full(4, 3.0)
        _, c, cache = lstm_step(store, "z", np.zeros((1, 4)), c_prev[None], np.ones((1, 3)))
        np.testing.assert_allclose(c, cache.i * cache.g, atol=1e-12)

    def test_matches_scalar_oracle(self):
        hidden, d_in = 4, 3
        rng = named_rng(2, "init")
        store = ParamStore(lstm_slots("z", d_in, hidden, rng))
        h_prev = rng.normal(size=hidden)
        c_prev = rng.normal(size=hidden)
        x = rng.normal(size=d_in)
        (h,), (c,), _ = lstm_step(store, "z", h_prev[None], c_prev[None], x[None])
        z = np.concatenate([h_prev, x])

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        def pre(gate, row):  # gate blocks in the order f, i, c, o
            k = gate * hidden + row
            return float(store["z.W"][k] @ z + store["z.b"][k])

        for row in range(hidden):
            f = sig(pre(0, row))
            i = sig(pre(1, row))
            g = max(pre(2, row), 0.0)
            o = sig(pre(3, row))
            c_row = f * c_prev[row] + i * g
            assert c[row] == pytest.approx(c_row, rel=1e-12)
            assert h[row] == pytest.approx(o * math.tanh(c_row), rel=1e-12)


class TestFusedLstmMatchesFourGateOracle:
    """The fused cell against the four-gate reference cell in oracles.py,
    whose per-gate slots hold the fused slots' row blocks."""
    HIDDEN, D_IN = 4, 3

    def _blocks(self):
        return [slice(k * self.HIDDEN, (k + 1) * self.HIDDEN) for k in range(4)]

    def test_init_stacks_the_four_gate_draws(self):
        fused = ParamStore(lstm_slots("z", self.D_IN, self.HIDDEN, named_rng(5, "init")))
        gates = ParamStore(four_gate_lstm_slots("z", self.D_IN, self.HIDDEN, named_rng(5, "init")))
        assert fused.names() == ["z.W", "z.b"]
        for gate, block in zip(GATES, self._blocks()):
            np.testing.assert_array_equal(fused["z.W"][block], gates[f"z.W{gate}"])
            np.testing.assert_array_equal(fused["z.b"][block], gates[f"z.b{gate}"])

    @pytest.mark.parametrize("rows", [1, 5])
    def test_step_and_backward_match(self, rows):
        hidden, rng = self.HIDDEN, named_rng(6, "x")
        # unit-scale weights, so that every gate leaves its linear region and
        # the ReLU candidate is cut on some rows and units
        fused = ParamStore([("z.W", rng.normal(size=(4 * hidden, hidden + self.D_IN))),
                            ("z.b", rng.normal(size=4 * hidden))])
        gates = ParamStore([(f"z.{kind}{gate}", fused[f"z.{kind}"][block])
                            for gate, block in zip(GATES, self._blocks()) for kind in "Wb"])
        h_prev, c_prev, dh, dc = rng.normal(size=(4, rows, hidden))
        x = rng.normal(size=(rows, self.D_IN))

        h, c, cache = lstm_step(fused, "z", h_prev, c_prev, x)
        h_ref, c_ref, cache_ref = four_gate_lstm_step(gates, "z", h_prev, c_prev, x)
        assert 0 < np.sum(cache.g_pre > 0.0) < cache.g_pre.size
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-12)
        backward = lstm_step_backward(fused, "z", dh, dc, cache)
        backward_ref = four_gate_lstm_step_backward(gates, "z", dh, dc, cache_ref)
        for name, mine, theirs in zip(("dh_prev", "dc_prev", "dx_in"), backward, backward_ref):
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-12, err_msg=name)
        for gate, block in zip(GATES, self._blocks()):
            for slot in ("W", "b"):
                theirs = gates.grad(f"z.{slot}{gate}")
                assert np.abs(theirs).max() > 1e-3
                np.testing.assert_allclose(fused.grad(f"z.{slot}")[block], theirs, rtol=0,
                                           atol=1e-12, err_msg=f"{slot}{gate}")


class TestMixture:
    def test_empty_vocabulary_is_pure_generate_softmax(self):
        store = make_store()
        h = named_rng(4, "h").normal(size=CFG.rep_dim)
        dist = mixture_forward_row(h, 5, TABLE, store, CFG)  # no partners
        np.testing.assert_allclose(dist.probs, softmax_stable(store["gen.out.W"] @ h),
                                   atol=1e-12)
        assert dist.copy_ids == ()
        assert np.all(dist.copy_mass == 0.0)

    def test_counting_case_exact(self):
        # 3 real codes + STOP + UNK = 5 generate ids, 2 copy ids, all scores zero
        dist = mixture_scores_row(np.zeros((1, 5)), np.zeros(2), [(0, 2)])
        assert dist.probs[1] == 1.0 / 7.0
        assert dist.probs[0] == 2.0 / 7.0
        assert dist.probs[2] == 2.0 / 7.0
        assert abs(dist.probs.sum() - 1.0) < 1e-9

    def test_normalization_and_support_on_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cfg = GeneratorConfig(n_codes=int(rng.integers(2, 8)), d_code=4, rep_dim=6)
            store = ParamStore(generator_slots(cfg, rng))
            prev = int(rng.integers(0, cfg.n_total))
            partners = tuple(sorted(rng.choice(cfg.n_codes, size=rng.integers(0, 3),
                                               replace=False).tolist()))
            partners = tuple(p for p in partners if p != prev)
            table = EMPTY
            if partners:
                anchor = prev if prev < cfg.n_codes else 0
                pairs = {tuple(sorted((anchor, p))): 9.0 for p in partners if p != anchor}
                if pairs:
                    table = ComplicationTable(pairs, 2.0, 1)
            h = rng.normal(size=cfg.rep_dim)
            dist = mixture_forward_row(h, prev, table, store, cfg)
            assert abs(dist.probs.sum() - 1.0) < 1e-9
            outside = np.ones(cfg.n_total, dtype=bool)
            if dist.copy_ids:
                outside[list(dist.copy_ids)] = False
            assert np.all(dist.copy_mass[outside] == 0.0)

    def test_shared_shift_invariance(self):
        rng = np.random.default_rng(12)
        gen = rng.normal(size=6)
        cop = rng.normal(size=2)
        a = mixture_scores_row(gen[None], cop, [(1, 3)])
        b = mixture_scores_row(gen[None] + 55.5, cop + 55.5, [(1, 3)])
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)

    def test_no_copy_flag_forces_pure_generate(self):
        cfg = GeneratorConfig(n_codes=6, d_code=5, rep_dim=8, no_copy=True)
        store = make_store(cfg=cfg)
        h = named_rng(5, "h").normal(size=cfg.rep_dim)
        dist = mixture_forward_row(h, 0, TABLE, store, cfg)  # has a partner
        assert dist.copy_ids == ()
        np.testing.assert_allclose(dist.probs, softmax_stable(store["gen.out.W"] @ h),
                                   atol=1e-12)


class TestDenseHeadMatchesCandidateLists:
    """The dense copy head against the candidate-list head of oracles.py,
    to 1e-12 in probabilities, copy mass and every gradient: rows after
    codes with two, one and no partners and after STOP and UNK, targets on
    and off the copy candidates, one target below PROB_FLOOR, and no_copy."""

    @pytest.mark.parametrize("no_copy", [False, True])
    def test_probabilities_and_every_gradient(self, no_copy):
        cfg = replace(CFG, no_copy=no_copy)
        store = unit_store(17)
        tables = DecoderTables(store, cfg, TABLE)
        rng = named_rng(18, "h")
        prev = [1, 1, 0, 2, 5, cfg.stop_id, cfg.unk_id, 4]
        h = rng.normal(size=(len(prev), cfg.rep_dim))
        h[-1] *= 40.0  # a row whose least likely id sits far below the floor
        probs, shares = _mixture_forward(h, prev, tables)
        ref_probs, copy_ids, cache = scatter_mixture_forward(h, prev, TABLE, store, cfg, tables)
        np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(shares[:, cfg.n_total:], cache.exp_copy / cache.z[:, None],
                                   rtol=0, atol=1e-12)
        assert [tuple(np.flatnonzero(m)) for m in tables.copy_mask[prev]] == copy_ids

        # on a candidate, off the candidates (twice), STOP, UNK and a floored id
        target = np.array([4, 3, 1, 3, 0, cfg.stop_id, cfg.unk_id, int(np.argmin(probs[-1]))])
        assert probs[-1, target[-1]] < PROB_FLOOR
        weight = rng.normal(size=len(prev))
        mine, theirs = store.copy(), store.copy()
        unset = {f.name: None for f in fields(StepTrace)}
        step = StepTrace(**{**unset, "h": h, "probs": probs, "shares": shares, "tables": tables})
        d_key = np.zeros((cfg.n_total, cfg.rep_dim))
        dh = _mixture_backward(mine, step, target, weight, d_key)
        _code_backward(mine, tables, d_key, np.zeros_like(d_key))
        dh_ref = scatter_mixture_backward(theirs, h, copy_ids, cache, tables, target, weight)
        np.testing.assert_allclose(dh, dh_ref, rtol=0, atol=1e-12)
        for name in store.names():
            np.testing.assert_allclose(mine.grad(name), theirs.grad(name), rtol=0, atol=1e-12,
                                       err_msg=name)
        copy_slots = ("gen.copy.W", "gen.code_proj", "gen.code_embed")
        assert all((np.abs(theirs.grad(n)).max() > 1e-3) != no_copy for n in copy_slots)


class TestStepLoss:
    def test_certain_target_zero_loss(self):
        dist = mixture_scores_row(np.array([[100.0, 0.0, 0.0]]), np.zeros(0), [()])
        assert generator_step_loss(dist.probs, 0) == pytest.approx(0.0, abs=1e-9)

    def test_exp_minus_two(self):
        probs = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0)])
        dist = mixture_scores_row(np.log(probs)[None], np.zeros(0), [()])
        assert generator_step_loss(dist.probs, 0) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_seven_terms(self):
        dist = mixture_scores_row(np.zeros((1, 5)), np.zeros(2), [(0, 2)])
        assert generator_step_loss(dist.probs, 1) == pytest.approx(math.log(7.0), abs=1e-12)

    def test_floor_prevents_infinity(self):
        dist = mixture_scores_row(np.array([[1000.0, 0.0]]), np.zeros(0), [()])
        assert generator_step_loss(dist.probs, 1) <= -math.log(1e-12) + 1e-9


class TestDecode:
    def test_forced_stop_yields_empty_valid_path(self):
        store = make_store()
        # saturate the LSTM so h is far from zero, then point every unit at STOP
        store["gen.lstm.b"][2 * CFG.rep_dim:] = 5.0  # candidate and output gates
        store["gen.out.W"][:] = 0.0
        store["gen.out.W"][CFG.stop_id] = 5.0
        path = decode_path(store, CFG, TABLE, np.zeros(CFG.rep_dim))
        assert path.codes == (CFG.stop_id,)
        assert path.valid_len == 0
        assert path.valid_codes == ()

    def test_max_len_one_truncates(self):
        store = make_store()
        store["gen.lstm.b"][2 * CFG.rep_dim:] = 5.0  # candidate and output gates
        store["gen.out.W"][:] = 0.0
        store["gen.out.W"][2] = 5.0
        path = decode_path(store, replace(CFG, max_len=1), TABLE, np.zeros(CFG.rep_dim))
        assert path.codes == (2,)
        assert path.valid_len == 1

    def test_no_duplicates_and_nothing_after_stop(self):
        rng = np.random.default_rng(21)
        for seed in range(15):
            store = make_store(seed=seed)
            x = rng.normal(size=CFG.rep_dim)
            path, traces = decode_path_traced(store, replace(CFG, max_len=8), TABLE, x)
            valid = path.valid_codes
            assert len(valid) == len(set(valid))
            assert CFG.stop_id not in valid
            assert CFG.unk_id not in path.codes
            if CFG.stop_id in path.codes:
                assert path.codes.index(CFG.stop_id) == len(path.codes) - 1
            assert len(path.codes) <= 8
            assert len(traces) == len(path.codes)

    def test_batched_first_step_gives_the_same_paths(self):
        # the first step of a batch (STOP in, zero state) handed to each
        # document's decode, against decoding each document from scratch
        cfg = replace(CFG, max_len=4)
        store = unit_store(2)
        xs = named_rng(13, "x").normal(size=(24, cfg.rep_dim))
        (first,) = run_batch(store, cfg, TABLE, xs, [[cfg.stop_id]] * len(xs))
        lengths = set()
        for b, x in enumerate(xs):
            mine, my_traces = decode_path_traced(store, cfg, TABLE, x, first, b)
            theirs, their_traces = decode_path_traced(store, cfg, TABLE, x)
            assert mine.codes == theirs.codes and mine.valid_len == theirs.valid_len
            assert decode_path(store, cfg, TABLE, x, first, b).codes == mine.codes
            assert my_traces[0] is first and len(their_traces[0].rows) == 1
            for t, u in zip([step_row(first, b)] + my_traces[1:], their_traces):
                d, e = t.dist, u.dist
                assert d.copy_ids == e.copy_ids
                np.testing.assert_allclose(d.probs, e.probs, rtol=0, atol=1e-12)
                np.testing.assert_allclose(d.copy_mass, e.copy_mass, rtol=0, atol=1e-12)
                np.testing.assert_allclose(t.h, u.h, rtol=0, atol=1e-12)
            lengths.add(len(mine.codes))
        # paths that stop at step 1, that reach max_len, and between
        assert lengths == {1, 2, 3, cfg.max_len}

    def test_distributions_are_unmasked(self):
        store = make_store(seed=3)
        x = named_rng(6, "x").normal(size=CFG.rep_dim)
        _, traces = decode_path_traced(store, replace(CFG, max_len=4), TABLE, x)
        for dist in (trace.dist for trace in traces):
            assert abs(dist.probs.sum() - 1.0) < 1e-9
            assert np.all(dist.probs > 0.0)

    def test_scores_are_each_real_codes_highest_probability(self):
        store = unit_store(2)
        x = named_rng(13, "x").normal(size=CFG.rep_dim)
        path, traces = decode_path_traced(store, replace(CFG, max_len=4), TABLE, x)
        assert len(traces) > 1
        best = np.max([trace.probs[0, :CFG.n_codes] for trace in traces], axis=0)
        np.testing.assert_array_equal(path.scores, best)


def assert_same_record(mine, theirs):
    """Field by field equality of two records of lockstep rows."""
    assert type(mine) is type(theirs)
    for f in fields(mine):
        a, b = getattr(mine, f.name), getattr(theirs, f.name)
        if is_dataclass(a):
            assert_same_record(a, b)
        elif isinstance(a, np.ndarray):
            assert a.shape == b.shape, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


class TestStepRow:
    def test_concat_of_every_row_gives_back_the_step(self):
        store = unit_store(4)
        xs = named_rng(5, "x").normal(size=(4, CFG.rep_dim))
        # rows with several, one and no copy candidates at steps 1 and 2
        steps = run_batch(store, CFG, TABLE, xs,
                          [[CFG.stop_id, 1, 0], [CFG.stop_id, 2], [CFG.stop_id, 5, 3],
                           [CFG.stop_id, 0]])
        assert [len(s.rows) for s in steps] == [4, 4, 2]
        assert [sum(map(len, s.copy_ids)) for s in steps[1:]] == [4, 2]
        for step in steps:
            rows = [step_row(step, b) for b in range(len(step.rows))]
            assert all(len(r.rows) == 1 and len(r.probs) == 1 for r in rows)
            assert_same_record(_concat(rows), step)

    def test_candidate_rows_follow_their_owner(self):
        store = unit_store(4)
        xs = named_rng(5, "x").normal(size=(3, CFG.rep_dim))
        step = run_batch(store, CFG, TABLE, xs, [[1], [5], [0]])[0]
        # code 1 has partners 0 and 4, code 5 none, code 0 partner 1
        for b, count in enumerate((2, 0, 1)):
            row = step_row(step, b)
            assert row.dist.copy_ids == step.copy_ids[b]
            assert len(row.dist.copy_ids) == count


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

    def test_path_loss_equals_the_loop_form_bit_for_bit(self):
        # steps without a target (None) and negative weights, as the
        # policy-gradient terms carry
        rng = np.random.default_rng(21)
        store = make_store(seed=5)
        for _ in range(30):
            x = rng.normal(size=CFG.rep_dim)
            inputs = [CFG.stop_id] + rng.integers(0, CFG.n_codes, size=rng.integers(0, 6)).tolist()
            targets = [None if rng.random() < 0.3 else
                       (int(rng.integers(0, CFG.n_total)), float(rng.normal() * 2.0))
                       for _ in inputs]
            traces = run_steps(store, CFG, TABLE, x, inputs)
            assert path_loss(traces, targets) == path_loss_loop(traces, targets)

    def test_weighted_targets_scale_gradients(self):
        cfg = GeneratorConfig(n_codes=4, d_code=3, rep_dim=5)
        store = ParamStore(generator_slots(cfg, named_rng(9, "init")))
        x = named_rng(10, "x").normal(size=cfg.rep_dim)
        inputs = [cfg.stop_id, 1]

        store.zero_grads()
        traces = store_traces = run_steps(store, cfg, EMPTY, x, inputs)
        sequence_backward(store, cfg, traces, [(1, 2.0), (0, 2.0)])
        doubled = {n: store.grad(n).copy() for n in store.names()}
        store.zero_grads()
        sequence_backward(store, cfg, store_traces, [(1, 1.0), (0, 1.0)])
        for n in store.names():
            np.testing.assert_allclose(doubled[n], 2.0 * store.grad(n), atol=1e-12)

    def test_gradient_with_respect_to_representation(self):
        cfg = GeneratorConfig(n_codes=4, d_code=3, rep_dim=5)
        store = ParamStore(generator_slots(cfg, named_rng(11, "init")))
        x = named_rng(12, "x").normal(size=cfg.rep_dim)
        inputs = [cfg.stop_id, 2]
        targets = [(2, 1.0), (cfg.stop_id, 1.0)]

        store.zero_grads()
        traces = run_steps(store, cfg, EMPTY, x, inputs)
        dx = sequence_backward(store, cfg, traces, targets)
        eps = 1e-6
        for i in range(cfg.rep_dim):
            xp = x.copy()
            xp[i] += eps
            up = path_loss(run_steps(store, cfg, EMPTY, xp, inputs), targets)
            xm = x.copy()
            xm[i] -= eps
            dn = path_loss(run_steps(store, cfg, EMPTY, xm, inputs), targets)
            assert dx[i] == pytest.approx((up - dn) / (2 * eps), abs=1e-5)


class TestBatchBackward:
    def test_zero_weight_row_equals_the_batch_without_it(self):
        # the policy-gradient pass starts on a batch's first step, where a
        # document whose greedy path is empty sits at weight 0: its row
        # must add nothing to the gradient
        store = unit_store(14)
        xs = named_rng(15, "x").normal(size=(4, CFG.rep_dim)) * 0.3
        inputs = [[CFG.stop_id, 1, 0], [CFG.stop_id], [CFG.stop_id, 2], [CFG.stop_id, 5]]
        targets = np.array([[1, 0, 4], [3, 0, 0], [2, 1, 0], [5, 2, 0]])
        weights = named_rng(16, "w").normal(size=targets.shape)
        weights[1] = 0.0
        for b, seq in enumerate(inputs):
            weights[b, len(seq):] = 0.0
        keep = [0, 2, 3]

        def grads(xs, inputs, targets, weights):
            store.zero_grads()
            dx = batch_backward(store, CFG, run_batch(store, CFG, TABLE, xs, inputs), targets,
                                weights)
            return dx, {n: store.grad(n).copy() for n in store.names()}

        dx, with_row = grads(xs, inputs, targets, weights)
        dx_kept, without = grads(xs[keep], [inputs[b] for b in keep], targets[keep],
                                 weights[keep])
        np.testing.assert_array_equal(dx[1], 0.0)
        np.testing.assert_allclose(dx[keep], dx_kept, rtol=0, atol=1e-12)
        for n in store.names():
            assert np.linalg.norm(without[n]) > 0.0, n
            np.testing.assert_allclose(with_row[n], without[n], rtol=0, atol=1e-12, err_msg=n)


class TestDecoderTables:
    @pytest.mark.parametrize("rep", [60, 300])  # desk and published sizes
    def test_one_pass_fold_equals_the_seven_pass_fold_bit_for_bit(self, rep):
        cfg = GeneratorConfig(n_codes=6, d_code=5, rep_dim=rep)
        store = ParamStore(generator_slots(cfg, named_rng(rep, "init")))
        rng = named_rng(rep, "w")
        shape = store["gen.fuse.W"].shape
        # entries over twelve decades, so that every sum rounds
        store["gen.fuse.W"][...] = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
        tables = DecoderTables(store, cfg, TABLE)
        theirs_all = fold_six_blocks(store["gen.fuse.W"])
        for mine, theirs in zip((tables.A, tables.C, tables.M), theirs_all):
            np.testing.assert_array_equal(mine, theirs)
            assert mine.flags.c_contiguous

    def test_fold_equals_six_block_sums_bit_for_bit(self):
        store = unit_store(12)
        w = np.hsplit(store["gen.fuse.W"], 6)
        tables = DecoderTables(store, CFG, TABLE)
        np.testing.assert_array_equal(tables.A, w[0] + w[3] + w[4] - w[5])
        np.testing.assert_array_equal(tables.C, w[1] + w[3] - w[4] + w[5])
        np.testing.assert_array_equal(tables.M, w[2])
        assert all(t.flags.c_contiguous for t in (tables.A, tables.C, tables.M))

    def test_step_on_tables_matches_six_block_formula(self):
        store = unit_store(7)
        xs = named_rng(8, "x").normal(size=(4, CFG.rep_dim))
        step = run_batch(store, CFG, TABLE, xs, [[1], [2], [CFG.stop_id], [0]])[0]
        prev = [1, 2, CFG.stop_id, 0]
        code_vec = store["gen.code_embed"][prev] @ store["gen.code_proj"].T
        fused, _ = fuse_forward(xs, code_vec, store)
        np.testing.assert_allclose(step.tables.code_vec[prev], code_vec, rtol=0, atol=1e-12)
        np.testing.assert_allclose(step.fused, fused, rtol=0, atol=1e-12)
        # the copy candidates of codes 1 (0 and 4), 2 (3) and 0 (1), read from the tables
        assert step.copy_ids == [(0, 4), (3,), (), (1,)]
        proj = store["gen.code_embed"][[0, 4, 3, 1]] @ store["gen.code_proj"].T
        np.testing.assert_allclose(step.tables.code_vec[[0, 4, 3, 1]], proj, rtol=0, atol=1e-12)
        np.testing.assert_allclose(step.tables.copy_key[[0, 4, 3, 1]],
                                   np.tanh(proj @ store["gen.copy.W"]), rtol=0, atol=1e-12)

    def test_each_run_batch_builds_tables_from_the_current_weights(self):
        store = unit_store(9)
        xs = named_rng(10, "x").normal(size=(2, CFG.rep_dim))
        inputs = [[CFG.stop_id, 1], [CFG.stop_id]]
        before = run_batch(store, CFG, TABLE, xs, inputs)
        store["gen.fuse.W"][...] += named_rng(11, "w").normal(size=store["gen.fuse.W"].shape)
        after = run_batch(store, CFG, TABLE, xs, inputs)
        fresh = DecoderTables(store, CFG, TABLE)
        assert all(step.tables is after[0].tables for step in after)
        assert after[0].tables is not before[0].tables
        for name in ("A", "C", "M", "code_vec", "code_part", "copy_key"):
            np.testing.assert_array_equal(getattr(after[0].tables, name), getattr(fresh, name))
        assert not np.allclose(after[0].tables.A, before[0].tables.A)
        fused, _ = fuse_forward(xs[:1], after[1].tables.code_vec[[1]], store)
        np.testing.assert_allclose(after[1].fused, fused, rtol=0, atol=1e-12)

    def test_decode_steps_run_on_the_first_steps_tables(self):
        cfg = replace(CFG, max_len=4)
        store = unit_store(2)
        xs = named_rng(13, "x").normal(size=(3, cfg.rep_dim))
        (first,) = run_batch(store, cfg, TABLE, xs, [[cfg.stop_id]] * len(xs))
        for b, x in enumerate(xs):
            _, traces = decode_path_traced(store, cfg, TABLE, x, first, b)
            assert all(trace.tables is first.tables for trace in traces)
        # a standalone step or decode builds tables of its own
        h = np.zeros(cfg.rep_dim)
        assert generator_step(store, cfg, TABLE, xs[0], 1, h, h).tables is not first.tables
        _, traces = decode_path_traced(store, cfg, TABLE, xs[0])
        assert traces[0].tables is not first.tables
        assert all(trace.tables is traces[0].tables for trace in traces)

    def test_only_steps_on_one_batchs_tables_are_stacked(self):
        cfg = replace(CFG, max_len=2)
        store = make_store()
        xs = named_rng(6, "x").normal(size=(2, cfg.rep_dim))
        (first,) = run_batch(store, cfg, TABLE, xs, [[cfg.stop_id]] * len(xs))
        decodes = [decode_path_traced(store, cfg, TABLE, x, first, b)[1][1:]
                   for b, x in enumerate(xs)]
        assert all(decodes)  # each path takes a step after the first
        assert all(step.tables is first.tables for step in stack_steps(decodes))
        # a standalone decode builds its own tables, even on the same weights
        _, own = decode_path_traced(store, cfg, TABLE, xs[1])
        with pytest.raises(ValueError, match="tables"):
            stack_steps([decodes[0], own])


class TestPerSlotOracle:
    """oracles.per_slot_errors on every generator slot at desk sizes, through
    an aligned backward (a teacher-forced lockstep pass) and a policy
    backward (fixed greedy-form paths continuing a batch's first step, as
    adversarial_round builds it), both with copy-active rows: the true
    gradient passes at 1e-4, and the check fails when any one slot's
    analytic gradient is scaled by 1.01, by 0 or by 2."""

    BOUND = 1e-4
    DESK = GeneratorConfig(n_codes=20, d_code=24, rep_dim=60)
    PAIRS = ComplicationTable({(2 * i, 2 * i + 1): 9.0 for i in range(5)}, 2.0, 1)
    STOP = DESK.stop_id
    # after 1, 2, 9 and 6 the next code is a copy candidate; after 3, 8 and 0 it is not
    INPUTS = [[STOP, 1, 0], [STOP, 2], [STOP, 3, 4, 5], [STOP, 9, 8], [STOP], [STOP, 6, 7]]
    PATHS = [(1, 0, 5), (3,), (), (2, 3, 9, 8), (6, 7), (0,)]

    def _aligned(self, xs):
        """The loss of the aligned-form pass, and the pass's arguments."""
        targets = np.zeros((len(xs), max(map(len, self.INPUTS))), dtype=np.int64)
        weights = np.zeros(targets.shape)
        for b, seq in enumerate(self.INPUTS):
            targets[b, :len(seq)] = seq[1:] + [self.STOP]
            weights[b, :len(seq)] = 1.0

        def terms(s):
            return run_batch(s, self.DESK, self.PAIRS, xs, self.INPUTS), targets, weights
        return terms

    def _policy(self, xs):
        advantages = named_rng(19, "advantages").normal(size=sum(map(len, self.PATHS)))

        def terms(s):
            (first,) = run_batch(s, self.DESK, self.PAIRS, xs, [[self.STOP]] * len(xs))
            decodes = []
            for b, codes in enumerate(self.PATHS):
                traces = [first]
                h, c = first.h[b], first.c[b]
                for code in codes[:-1]:  # one step after each code but the last
                    traces.append(generator_step(s, self.DESK, self.PAIRS, xs[b], code, h, c,
                                                 first.tables, first.x_part[b]))
                    h, c = traces[-1].h[0], traces[-1].c[0]
                decodes.append((DecodedPath(codes, np.zeros(0), len(codes)), traces))
            return _policy_terms(first, decodes, advantages)
        return terms

    @pytest.mark.parametrize("case", ["aligned", "policy"])
    def test_true_gradient_passes_and_each_scaled_slot_fails(self, case):
        store = ParamStore(generator_slots(self.DESK, named_rng(20, "init")))
        xs = named_rng(21, "x").normal(size=(len(self.INPUTS), self.DESK.rep_dim))
        terms = {"aligned": self._aligned, "policy": self._policy}[case](xs)

        def f(s):
            return float(step_losses(*terms(s)).sum())

        steps, targets, weights = terms(store)
        assert any(ids for step in steps for ids in step.copy_ids)
        store.zero_grads()
        batch_backward(store, self.DESK, steps, targets, weights)
        analytic = {n: store.grad(n).copy() for n in store.names()}
        # a step of 1e-5, as criterion 1 takes: at 1e-6 the rounding of a
        # loss near 50 reads up to 4e-5 on gradients near 1e-4
        true = per_slot_errors(f, store, analytic, np.random.default_rng(0), eps=1e-5)
        assert sorted(true) == sorted(store.names())
        assert max(true.values()) <= self.BOUND, true
        scaled = {(name, factor): per_slot_errors(f, store, {name: analytic[name] * factor},
                                                  np.random.default_rng(0), eps=1e-5)[name]
                  for name in store.names() for factor in (1.01, 0.0, 2.0)}
        weakest = min(scaled, key=scaled.get)
        print(f"\nper-slot oracle, generator {case}: true gradient at most "
              f"{max(true.values()):.1e}, {self.BOUND / max(true.values()):.0f}x inside "
              f"{self.BOUND:.0e}; weakest mutation {weakest[0]} x{weakest[1]} at "
              f"{scaled[weakest]:.1e}, {scaled[weakest] / self.BOUND:.0f}x outside")
        assert all(err > self.BOUND for err in scaled.values()), scaled
