import math
import pickle

import numpy as np
import pytest

from ehrpath.numerics import (ADAM_TILE, ParamStore, adam_step, add_rows, finite_diff_check,
                              named_rng, uniform_init)
from oracles import adam_update_with_temporaries, softmax_stable


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax_stable(np.zeros(3)), np.full(3, 1 / 3))

    def test_large_logits_no_overflow(self):
        np.testing.assert_allclose(softmax_stable(np.array([1000.0, 1000.0])), [0.5, 0.5])

    def test_two_class_closed_form(self):
        np.testing.assert_allclose(softmax_stable(np.array([0.0, math.log(3.0)])),
                                   [0.25, 0.75], atol=1e-12)

    def test_probability_vector_on_random_input(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = softmax_stable(rng.normal(scale=10.0, size=rng.integers(1, 40)))
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=7)
        np.testing.assert_allclose(softmax_stable(logits), softmax_stable(logits + 123.4),
                                   atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            softmax_stable(np.zeros(0))


def scalar_adam_oracle(p0, grads, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook scalar Adam, written independently of the implementation."""
    p, m, v = p0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


class TestAdam:
    def test_zero_gradient_is_identity(self):
        store = ParamStore([("w", np.array([1.0, -2.0, 3.0]))])
        before = store["w"].copy()
        adam_step(store, 0.1)
        np.testing.assert_array_equal(store["w"], before)
        assert store.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        store = ParamStore([("p", np.array([0.0]))])
        store.grad("p")[:] = 1.0
        adam_step(store, 0.1)
        assert store["p"][0] == pytest.approx(-0.1, abs=1e-7)

    def test_two_identical_gradients_match_scalar_oracle(self):
        store = ParamStore([("p", np.array([0.0]))])
        for _ in range(2):
            store.grad("p")[:] = 1.0
            adam_step(store, 0.1)
        assert store["p"][0] == pytest.approx(scalar_adam_oracle(0.0, [1.0, 1.0]), abs=1e-12)

    def test_random_gradient_sequence_matches_oracle(self):
        rng = np.random.default_rng(3)
        grads = rng.normal(size=6)
        store = ParamStore([("p", np.array([0.5]))])
        for g in grads:
            store.grad("p")[:] = g
            adam_step(store, 0.01)
        assert store["p"][0] == pytest.approx(scalar_adam_oracle(0.5, grads, lr=0.01), abs=1e-12)

    def test_gradients_zeroed_after_step(self):
        store = ParamStore([("p", np.array([0.0]))])
        store.grad("p")[:] = 1.0
        adam_step(store, 1e-4)
        assert np.all(store.grad("p") == 0.0)

    def test_bit_identical_to_the_expression_with_temporaries(self):
        rng = np.random.default_rng(3)
        layouts = [
            # small slots, and one of two whole tiles plus a partial one, so
            # the tile seams fall inside a row
            [(7, 5), (4,), (5, (2 * ADAM_TILE + 3) // 5 + 1), (3, 9), (1,), (12, 2)],
            # the first tile seam falls on a slot boundary, and the second on
            # a one-element slot, which the last tile opens
            [(7, 5), (ADAM_TILE - 35,), (4, ADAM_TILE // 4), (1,), (12, 2)],
        ]
        for shapes in layouts:
            store = ParamStore([(f"s{i}", rng.normal(size=shape))
                                for i, shape in enumerate(shapes)])
            ref = {n: [store[n].copy(), np.zeros(store[n].shape), np.zeros(store[n].shape)]
                   for n in store.names()}
            learning_rate = 3e-3
            for step in range(1, 6):
                for name in store.names():
                    g = rng.normal(size=store[name].shape) * 10.0 ** rng.uniform(-9, 3)
                    store.grad(name)[:] = g
                    p, m, v = ref[name]
                    adam_update_with_temporaries(p, g, m, v, step, learning_rate)
                adam_step(store, learning_rate)
                for name in store.names():
                    p, m, v = ref[name]
                    np.testing.assert_array_equal(store[name], p)
                    np.testing.assert_array_equal(store._m[name], m)
                    np.testing.assert_array_equal(store._v[name], v)

    def test_nan_gradient_names_slot(self):
        store = ParamStore([("bad.slot", np.zeros(2))])
        store.grad("bad.slot")[0] = np.nan
        with pytest.raises(FloatingPointError, match="bad.slot"):
            adam_step(store, 1e-4)

    @pytest.mark.parametrize("learning_rate", [0.0, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, learning_rate):
        store = ParamStore([("p", np.array([0.0]))])
        with pytest.raises(ValueError):
            adam_step(store, learning_rate)


class TestFiniteDiff:
    def test_quadratic_correct_gradient(self):
        store = ParamStore([("p", np.array([3.0]))])

        def f(s):
            return float(s["p"][0] ** 2)

        err = finite_diff_check(f, store, {"p": np.array([6.0])})
        assert err < 1e-6

    def test_quadratic_wrong_gradient_reports_relative_error(self):
        store = ParamStore([("p", np.array([3.0]))])

        def f(s):
            return float(s["p"][0] ** 2)

        # |6 - 5| / max(1, 5, 6) = 1/6
        err = finite_diff_check(f, store, {"p": np.array([5.0])})
        assert err == pytest.approx(1 / 6, abs=1e-3)

    def test_restores_parameters(self):
        store = ParamStore([("p", np.array([3.0]))])
        finite_diff_check(lambda s: float(s["p"][0] ** 2), store, {"p": np.array([6.0])})
        assert store["p"][0] == 3.0


class TestParamStore:
    def test_duplicate_slot_rejected(self):
        with pytest.raises(ValueError):
            ParamStore([("w", np.zeros(2)), ("w", np.zeros(2))])

    def test_clip_grads_scales_to_max_norm(self):
        store = ParamStore([("a", np.zeros(3)), ("b", np.zeros(4))])
        store.grad("a")[:] = 3.0
        store.grad("b")[:] = 4.0
        store.clip_grads(1.0)
        assert store.grad_norm() == pytest.approx(1.0)

    def test_clip_noop_when_under_norm(self):
        store = ParamStore([("a", np.zeros(2))])
        store.grad("a")[:] = 0.1
        before = store.grad("a").copy()
        store.clip_grads(5.0)
        np.testing.assert_array_equal(store.grad("a"), before)

    def test_copy_is_deep(self):
        store = ParamStore([("w", np.ones(2))])
        dup = store.copy()
        dup["w"][0] = 99.0
        assert store["w"][0] == 1.0


class TestGradientLifetime:
    """Gradients exist from the first write until adam_step or zero_grads;
    an idle store holds parameters and moments only."""

    @staticmethod
    def _store():
        store = ParamStore([("a", np.array([1.0, -2.0])), ("w", np.zeros((3, 2)))])
        store.grad("a")[:] = [0.5, -0.25]
        store.add_outer("w", np.array([1.0, -2.0, 3.0]), np.array([0.5, 4.0]))
        return store

    def test_adam_step_drops_the_gradient_array(self):
        store = self._store()
        adam_step(store, 1e-4)
        assert store._grad_buffer is None
        assert np.all(store.grad("a") == 0.0) and np.all(store.grad("w") == 0.0)

    def test_zero_grads_drops_the_gradient_array(self):
        store = self._store()
        store.zero_grads()
        assert store._grad_buffer is None
        assert np.all(store.grad("a") == 0.0) and np.all(store.grad("w") == 0.0)

    def test_copy_and_pickle_of_an_idle_store_carry_no_gradients(self):
        store = self._store()
        adam_step(store, 1e-4)
        for dup in (store.copy(), pickle.loads(pickle.dumps(store))):
            assert dup._grad_buffer is None
            assert dup.step == 1
            for name in store.names():
                np.testing.assert_array_equal(dup[name], store[name])
                np.testing.assert_array_equal(dup._m[name], store._m[name])
                np.testing.assert_array_equal(dup._v[name], store._v[name])

    def test_copy_and_pickle_carry_live_gradients_exactly(self):
        store = self._store()
        expected = {"a": np.array([0.5, -0.25]),
                    "w": np.outer([1.0, -2.0, 3.0], [0.5, 4.0])}
        for dup in (store.copy(), pickle.loads(pickle.dumps(store))):
            assert dup._grad_buffer is not None
            assert not np.shares_memory(dup._grad_buffer, store._grad_buffer)
            for name, g in expected.items():
                np.testing.assert_array_equal(dup.grad(name), g)
                assert np.shares_memory(dup.grad(name), dup._grad_buffer)
            dup.grad("a")[:] = 7.0
            np.testing.assert_array_equal(store.grad("a"), expected["a"])

    def test_adam_step_without_gradients_matches_scalar_oracle(self):
        # one real gradient, then two steps on a store that received none:
        # the moments keep decaying as on zero gradients
        store = ParamStore([("p", np.array([0.5]))])
        store.grad("p")[:] = 0.7
        adam_step(store, 0.1)
        for _ in range(2):
            assert store._grad_buffer is None
            adam_step(store, 0.1)
        assert store.step == 3
        assert store["p"][0] == pytest.approx(scalar_adam_oracle(0.5, [0.7, 0.0, 0.0]),
                                              abs=1e-12)

    def test_idle_store_reads_a_zero_norm_and_ignores_scaling(self):
        store = self._store()
        store.zero_grads()
        store.scale_grads(3.0)
        assert store._grad_buffer is None
        assert store.grad_norm() == 0.0
        assert store.clip_grads(1.0) == 0.0


class TestDeferredOuter:
    LEFT = np.array([1.0, -2.0, 3.0])
    RIGHT = np.array([0.5, 4.0])

    def _store(self):
        store = ParamStore([("w", np.zeros((3, 2)))])
        store.add_outer("w", self.LEFT, self.RIGHT)
        return store

    def test_grad_sees_pending_rows(self):
        np.testing.assert_array_equal(self._store().grad("w"), np.outer(self.LEFT, self.RIGHT))

    def test_grad_norm_sees_pending_rows(self):
        expected = np.linalg.norm(np.outer(self.LEFT, self.RIGHT))
        assert self._store().grad_norm() == pytest.approx(expected, rel=1e-15)

    def test_scale_grads_scales_pending_rows(self):
        store = self._store()
        store.scale_grads(0.5)
        np.testing.assert_array_equal(store.grad("w"), 0.5 * np.outer(self.LEFT, self.RIGHT))

    def test_clip_grads_clips_pending_rows(self):
        store = self._store()
        norm = store.clip_grads(1.0)
        assert norm == pytest.approx(np.linalg.norm(np.outer(self.LEFT, self.RIGHT)))
        assert np.linalg.norm(store.grad("w")) == pytest.approx(1.0)

    def test_copy_carries_pending_rows(self):
        store = self._store()
        dup = store.copy()
        np.testing.assert_array_equal(dup.grad("w"), np.outer(self.LEFT, self.RIGHT))
        np.testing.assert_array_equal(store.grad("w"), dup.grad("w"))

    def test_adam_step_applies_pending_rows_and_drops_them(self):
        store = self._store()
        adam_step(store, 0.1)
        # Adam's first step moves every coordinate by lr against its gradient's sign
        np.testing.assert_allclose(store["w"], -0.1 * np.sign(np.outer(self.LEFT, self.RIGHT)),
                                   atol=1e-7)
        assert np.all(store.grad("w") == 0.0)

    def test_adam_step_sees_non_finite_pending_rows(self):
        store = self._store()
        store.add_outer("w", self.LEFT, np.array([np.nan, 0.0]))
        with pytest.raises(FloatingPointError, match="'w'"):
            adam_step(store, 1e-4)

    def test_zero_grads_drops_pending_rows(self):
        store = self._store()
        store.zero_grads()
        assert np.all(store.grad("w") == 0.0)

    def test_block_equals_sum_of_row_outer_products(self):
        rng = np.random.default_rng(4)
        left, right = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        store = self._store()
        store.add_outer("w", left, right)
        expected = np.outer(self.LEFT, self.RIGHT) + sum(np.outer(a, b)
                                                         for a, b in zip(left, right))
        np.testing.assert_allclose(store.grad("w"), expected, rtol=0, atol=1e-13)

    def test_rows_add_to_immediate_updates(self):
        store = self._store()
        store.grad("w")[:] += 1.0
        store.add_outer("w", self.LEFT, self.RIGHT)
        np.testing.assert_array_equal(store.grad("w"), 1.0 + 2.0 * np.outer(self.LEFT, self.RIGHT))


class TestAddRows:
    def test_matches_add_at_with_repeated_ids(self):
        rng = np.random.default_rng(5)
        ids = np.array([3, 0, 3, 7, 0, 3, 5])
        rows = rng.normal(size=(ids.size, 4))
        start = rng.normal(size=(8, 4))
        expected = start.copy()
        np.add.at(expected, ids, rows)
        got = start.copy()
        add_rows(got, ids, rows)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(got[[1, 2, 4, 6]], start[[1, 2, 4, 6]])  # untouched

    def test_sums_each_ids_rows_one_after_another(self):
        # bit for bit the sequential sum of each id's rows in their order,
        # then one add into the target; magnitudes far apart make any other
        # order round differently
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 4, size=60)
        rows = rng.normal(size=(60, 3)) * 10.0 ** rng.uniform(-3, 3, size=(60, 1))
        start = rng.normal(size=(6, 3))
        expected = start.copy()
        for i in np.unique(ids):
            total = rows[np.flatnonzero(ids == i)[0]].copy()
            for j in np.flatnonzero(ids == i)[1:]:
                total += rows[j]
            expected[i] += total
        got = start.copy()
        add_rows(got, ids, rows)
        np.testing.assert_array_equal(got, expected)


class TestNamedRng:
    def test_same_seed_same_stream(self):
        a = named_rng(7, "init").uniform(size=5)
        b = named_rng(7, "init").uniform(size=5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = named_rng(7, "init").uniform(size=5)
        b = named_rng(7, "dropout").uniform(size=5)
        assert not np.array_equal(a, b)

    def test_uniform_init_range(self):
        w = uniform_init((50, 50), named_rng(0, "init"))
        assert np.all(np.abs(w) <= 0.08)
