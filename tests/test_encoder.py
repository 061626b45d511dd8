import dataclasses

import numpy as np
import pytest

from ehrpath import encoder
from ehrpath.encoder import (EncoderConfig, embed_tokens, encode_backward, encode_batch,
                             encode_batch_backward, encode_ehr, encoder_slots)
from ehrpath.numerics import ParamStore, finite_diff_check, named_rng
from oracles import (assert_per_slot_power, conv_feature_map, document_encode,
                     document_encode_backward, max_pool)

SMALL = EncoderConfig(vocab_size=30, d_embed=6, kernel_sizes=(2, 3), n_filters=4, dropout=0.5)


def small_store(seed=0, cfg=SMALL):
    return ParamStore(encoder_slots(cfg, named_rng(seed, "init")))


class TestEmbed:
    def test_single_token_row(self):
        store = small_store()
        out = embed_tokens([7], store, SMALL)
        np.testing.assert_array_equal(out, store["enc.embed"][[7]])

    def test_repeated_token_identical_rows(self):
        store = small_store()
        out = embed_tokens([5, 5, 5], store, SMALL)
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])

    def test_three_token_lookup(self):
        store = small_store()
        out = embed_tokens([2, 9, 4], store, SMALL)
        np.testing.assert_array_equal(out, store["enc.embed"][[2, 9, 4]])

    def test_out_of_range_raises(self):
        store = small_store()
        with pytest.raises(ValueError, match="dictionary"):
            embed_tokens([30], store, SMALL)

    def test_pad_row_zero_initialized(self):
        store = small_store()
        assert np.all(store["enc.embed"][0] == 0.0)


class TestConvFeatureMap:
    def test_zero_filter_negative_bias_clamps(self):
        X = np.ones((4, 3))
        out = conv_feature_map(X, np.zeros((2, 3)), -1.0, 2)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_zero_filter_positive_bias(self):
        X = np.ones((4, 3))
        out = conv_feature_map(X, np.zeros((2, 3)), 2.0, 2)
        np.testing.assert_array_equal(out, np.full(3, 2.0))

    def test_ones_filter_hand_convolution(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = conv_feature_map(X, np.ones((2, 2)), 0.0, 2)
        np.testing.assert_allclose(out, [10.0, 18.0])  # window row sums

    def test_shorter_than_kernel_raises(self):
        with pytest.raises(ValueError):
            conv_feature_map(np.ones((1, 2)), np.ones((2, 2)), 0.0, 2)


class TestMaxPool:
    def test_basic(self):
        assert max_pool(np.array([0.0, 5.0, 3.0])) == (5.0, 1)

    def test_tie_breaks_to_first_index(self):
        assert max_pool(np.array([2.0, 2.0, 2.0])) == (2.0, 0)

    def test_matches_independent_max_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = rng.normal(size=10)
            val, idx = max_pool(f)
            best = f[0]
            for v in f[1:]:
                best = v if v > best else best
            assert val == best and f[idx] == best


class TestEncode:
    def test_eval_mode_deterministic(self):
        store = small_store()
        x1, _ = encode_ehr([3, 4, 5, 6], store, SMALL)
        x2, _ = encode_ehr([3, 4, 5, 6], store, SMALL)
        np.testing.assert_array_equal(x1, x2)

    def test_published_configuration_dimension_is_300(self):
        cfg = EncoderConfig(vocab_size=40)
        assert cfg.rep_dim == 300
        store = ParamStore(encoder_slots(cfg, named_rng(0, "init")))
        x, _ = encode_ehr([1, 2, 3, 4, 5, 6], store, cfg)
        assert x.shape == (300,)

    def test_output_non_negative(self):
        store = small_store()
        x, _ = encode_ehr([3, 9, 1, 7, 2], store, SMALL)
        assert np.all(x >= 0.0)

    def test_short_document_padded(self):
        store = small_store()
        x, cache = encode_ehr([4], store, SMALL)
        assert x.shape == (SMALL.rep_dim,)
        assert list(cache.padded_ids) == [4, 0, 0]

    def test_bank_matches_single_filter_contract(self):
        store = small_store()
        tokens = [3, 9, 1, 7]
        x, cache = encode_ehr(tokens, store, SMALL)  # eval mode: x holds the pooled values
        X = embed_tokens(cache.padded_ids, store, SMALL)
        for j in range(SMALL.n_filters):
            filt = store["enc.conv2.W"][j].reshape(2, SMALL.d_embed)
            fmap = conv_feature_map(X, filt, float(store["enc.conv2.b"][j]), 2)
            val, _ = max_pool(fmap)
            assert x[j] == pytest.approx(val)  # kernel 2: the first block

    def test_duplicating_tokens_never_reduces_pooled_values(self):
        store = small_store()
        tokens = [3, 9, 1, 7, 2]
        x1, _ = encode_ehr(tokens, store, SMALL)  # eval mode: the pooled values
        x2, _ = encode_ehr(tokens + tokens, store, SMALL)
        assert np.all(x2 >= x1 - 1e-15)  # every kernel's block

    def test_dropout_mask_reproducible_and_unbiased(self):
        store = small_store()
        tokens = [3, 9, 1, 7]
        x_eval, _ = encode_ehr(tokens, store, SMALL)
        a, _ = encode_ehr(tokens, store, SMALL, dropout_rng=np.random.default_rng(42))
        b, _ = encode_ehr(tokens, store, SMALL, dropout_rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        # inverted dropout is unbiased: the mask average approaches eval output
        rng = np.random.default_rng(7)
        acc = np.zeros_like(x_eval)
        n = 10000
        for _ in range(n):
            xt, _ = encode_ehr(tokens, store, SMALL, dropout_rng=rng)
            acc += xt
        scale = np.linalg.norm(acc / n - x_eval) / max(np.linalg.norm(x_eval), 1e-12)
        assert scale < 0.02


class TestEncoderGradients:
    def test_finite_difference_check(self):
        cfg = EncoderConfig(vocab_size=25, d_embed=5, kernel_sizes=(2, 3), n_filters=3,
                            dropout=0.0)
        store = ParamStore(encoder_slots(cfg, named_rng(2, "init")))
        tokens = [3, 7, 11, 2, 9, 14]
        weights = named_rng(3, "probe").normal(size=cfg.rep_dim)

        def f(s):
            x, _ = encode_ehr(tokens, s, cfg)
            return float(weights @ x)

        store.zero_grads()
        x, cache = encode_ehr(tokens, store, cfg)
        encode_backward(weights, cache, store, cfg)
        analytic = {n: store.grad(n).copy() for n in store.names()}
        err = finite_diff_check(f, store, analytic, eps=1e-6, num_samples=200,
                                rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_dropout_backward_consistent_with_fixed_mask(self):
        cfg = EncoderConfig(vocab_size=25, d_embed=5, kernel_sizes=(2,), n_filters=3,
                            dropout=0.5)
        store = ParamStore(encoder_slots(cfg, named_rng(4, "init")))
        tokens = [3, 7, 11]
        weights = named_rng(5, "probe").normal(size=cfg.rep_dim)

        def f(s):
            x, _ = encode_ehr(tokens, s, cfg, dropout_rng=np.random.default_rng(9))
            return float(weights @ x)

        store.zero_grads()
        _, cache = encode_ehr(tokens, store, cfg, dropout_rng=np.random.default_rng(9))
        encode_backward(weights, cache, store, cfg)
        analytic = {n: store.grad(n).copy() for n in store.names()}
        err = finite_diff_check(f, store, analytic, eps=1e-6, num_samples=100,
                                rng=np.random.default_rng(1))
        assert err < 1e-4

    def test_pad_gradient_stays_zero(self):
        store = small_store()
        store.zero_grads()
        _, cache = encode_ehr([4], store, SMALL)  # padded with two pad rows
        encode_backward(np.ones(SMALL.rep_dim), cache, store, SMALL)
        assert np.all(store.grad("enc.embed")[0] == 0.0)


class TestBatchMatchesDocumentOracle:
    """The packed batch against the per-document encoder, to 1e-10 on the
    representations, on a loss over them and on every encoder gradient."""

    CFG = EncoderConfig(vocab_size=40, d_embed=6, kernel_sizes=(2, 3, 5), n_filters=5,
                        dropout=0.4)

    def check(self, lengths, train_mode=False, seed=0, cfg=CFG, prepare=None):
        store = small_store(seed, cfg)
        rng = np.random.default_rng(seed)
        # unit-scale embeddings, so that most filters' ReLUs are open
        store["enc.embed"][1:] = rng.normal(size=(cfg.vocab_size - 1, cfg.d_embed))
        docs = [rng.integers(1, cfg.vocab_size, size=n).tolist() for n in lengths]
        upstream = rng.normal(size=(len(docs), cfg.rep_dim))
        if prepare is not None:
            prepare(store, upstream)

        X, cache = encode_batch(docs, store, cfg, np.random.default_rng(9) if train_mode else None)
        store.zero_grads()
        encode_batch_backward(upstream, cache, store, cfg)
        batch_grads = {n: store.grad(n).copy() for n in store.names()}

        doc_rng = np.random.default_rng(9) if train_mode else None  # one draw per document
        encoded = [document_encode(d, store, cfg, doc_rng) for d in docs]
        store.zero_grads()
        for dx, (_, doc_cache) in zip(upstream, encoded):
            document_encode_backward(dx, doc_cache, store, cfg)
        oracle_X = np.stack([x for x, _ in encoded])

        np.testing.assert_allclose(X, oracle_X, rtol=0, atol=1e-10)
        assert float(np.sum(upstream * X)) == pytest.approx(float(np.sum(upstream * oracle_X)),
                                                            rel=0, abs=1e-10)
        for name in store.names():
            np.testing.assert_allclose(batch_grads[name], store.grad(name), rtol=0, atol=1e-10,
                                       err_msg=name)
        return cache

    def test_documents_shorter_than_largest_kernel(self):
        self.check([1, 4, 2, 9, 3])

    def test_document_of_exactly_largest_kernel(self):
        self.check([5, 5, 7])

    def test_batch_crossing_chunk_boundary(self, monkeypatch):
        monkeypatch.setattr(encoder, "ROW_BUDGET", 16)
        cache = self.check([6, 7, 5, 9, 8, 6, 12])
        assert len(cache.chunks) > 1

    def test_document_longer_than_row_budget(self, monkeypatch):
        monkeypatch.setattr(encoder, "ROW_BUDGET", 16)
        cache = self.check([6, 40, 7])
        assert (1, 2) in cache.chunks  # the long one is alone

    def test_dropout_masks_equal_per_document_draws(self, monkeypatch):
        monkeypatch.setattr(encoder, "ROW_BUDGET", 16)
        docs = [[1, 2, 3, 4, 5, 6], [7, 8, 9], list(range(10, 21)), [5, 4, 3, 2, 1, 9, 8, 7]]
        store = small_store(3, self.CFG)
        X_train, _ = encode_batch(docs, store, self.CFG, np.random.default_rng(9))
        X_eval, _ = encode_batch(docs, store, self.CFG)
        draws = np.random.default_rng(9)
        per_doc = [(draws.random(self.CFG.rep_dim) >= 0.4) / 0.6 for _ in docs]
        np.testing.assert_array_equal(X_train, X_eval * np.stack(per_doc))
        self.check([6, 3, 11, 8], train_mode=True)

    def test_sparse_selection_of_long_notes(self):
        # three notes of 200-400 tokens: a few hundred winning windows among
        # about 900 per kernel, so the selection is sparse
        cache = self.check([231, 389, 302])
        assert len(np.unique(cache.starts)) < 0.2 * len(cache.padded_ids)

    def test_one_filter(self):
        self.check([4, 9, 2, 6, 5], cfg=dataclasses.replace(self.CFG, n_filters=1))

    @pytest.mark.parametrize("n_filters", [1, 5])
    def test_chunk_of_one_document_of_exactly_the_largest_kernel(self, monkeypatch, n_filters):
        # one window of kernel 5 in the chunk, so its feature map has one row
        # per filter: the in-place products see their smallest shapes
        monkeypatch.setattr(encoder, "ROW_BUDGET", 5)
        cache = self.check([5, 8, 5], cfg=dataclasses.replace(self.CFG, n_filters=n_filters))
        assert cache.chunks == [(0, 1), (1, 2), (2, 3)]

    def test_kernel_without_an_open_winner(self):
        def close_kernel_3(store, upstream):
            store["enc.conv3.b"][:] = -100.0  # every ReLU of kernel 3 stays shut

        self.check([6, 11, 3, 8], prepare=close_kernel_3)

    def test_chunk_without_an_open_winner(self, monkeypatch):
        monkeypatch.setattr(encoder, "ROW_BUDGET", 16)

        def no_upstream_for_second_chunk(store, upstream):
            upstream[2:4] = 0.0

        cache = self.check([9, 7, 8, 6, 10], prepare=no_upstream_for_second_chunk)
        assert (2, 4) in cache.chunks

    def test_empty_batch(self):
        X, cache = encode_batch([], small_store(), SMALL)
        assert X.shape == (0, SMALL.rep_dim) and cache.chunks == []

    def test_finite_difference_three_documents_with_dropout(self):
        cfg = EncoderConfig(vocab_size=25, d_embed=5, kernel_sizes=(2, 3), n_filters=3,
                            dropout=0.3)
        store = small_store(6, cfg)
        # unit-scale embeddings, so that most filters' ReLUs are open
        store["enc.embed"][1:] = named_rng(6, "embed").normal(size=(24, 5))
        # no document is padded: the pad row's gradient is pinned at zero
        docs = [[3, 7, 11, 2, 9], [14, 1, 17], [5, 8, 20, 8, 4, 13, 6]]
        weights = named_rng(7, "probe").normal(size=(len(docs), cfg.rep_dim))

        def f(s):
            X, _ = encode_batch(docs, s, cfg, np.random.default_rng(11))
            return float(np.sum(weights * X))

        store.zero_grads()
        _, cache = encode_batch(docs, store, cfg, np.random.default_rng(11))
        encode_batch_backward(weights, cache, store, cfg)
        analytic = {n: store.grad(n).copy() for n in store.names()}
        err = finite_diff_check(f, store, analytic, eps=1e-6, num_samples=200,
                                rng=np.random.default_rng(2))
        assert err < 1e-4


class TestPerSlotOracle:
    """oracles.assert_per_slot_power on every encoder slot, at desk sizes
    and on a batch of long notes whose selection is sparse: the true
    gradient passes at 1e-4, and the check fails when any one slot's
    analytic gradient is scaled by 1.01, by 0 or by 2."""

    BOUND = 1e-4
    DESK = EncoderConfig(vocab_size=200, d_embed=24, kernel_sizes=(3, 4, 5), n_filters=20,
                         dropout=0.1)
    CASES = {"desk": (DESK, [int(n) for n in np.random.default_rng(1).integers(12, 31, 16)]),
             "long-notes": (dataclasses.replace(DESK, vocab_size=1000), [231, 389, 302])}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_true_gradient_passes_and_each_scaled_slot_fails(self, case):
        cfg, lengths = self.CASES[case]
        store = small_store(8, cfg)
        rng = named_rng(8, "probe")
        docs = [rng.integers(1, cfg.vocab_size, size=n).tolist() for n in lengths]
        weights = rng.normal(size=(len(docs), cfg.rep_dim))

        def f(s):
            X, _ = encode_batch(docs, s, cfg, np.random.default_rng(11))
            return float(np.sum(weights * X))

        store.zero_grads()
        _, cache = encode_batch(docs, store, cfg, np.random.default_rng(11))
        encode_batch_backward(weights, cache, store, cfg)
        analytic = {n: store.grad(n).copy() for n in store.names()}
        assert_per_slot_power(f, store, analytic, f"encoder {case}", self.BOUND)
