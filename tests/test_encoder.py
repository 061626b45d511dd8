import numpy as np
import pytest

from ehrpath.encoder import (EncoderConfig, embed_tokens, encode_backward, encode_ehr,
                             init_encoder_params)
from ehrpath.numerics import ParamStore, finite_diff_check, named_rng
from oracles import conv_feature_map, max_pool

SMALL = EncoderConfig(vocab_size=30, d_embed=6, kernel_sizes=(2, 3), n_filters=4, dropout=0.5)


def small_store(seed=0, cfg=SMALL):
    store = ParamStore()
    init_encoder_params(store, cfg, named_rng(seed, "init"))
    return store


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
        store = ParamStore()
        init_encoder_params(store, cfg, named_rng(0, "init"))
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
        _, cache = encode_ehr(tokens, store, SMALL)
        X = embed_tokens(cache.padded_ids, store, SMALL)
        for j in range(SMALL.n_filters):
            filt = store["enc.conv2.W"][j].reshape(2, SMALL.d_embed)
            fmap = conv_feature_map(X, filt, float(store["enc.conv2.b"][j]), 2)
            val, _ = max_pool(fmap)
            assert cache.pooled_raw[2][j] == pytest.approx(val)

    def test_duplicating_tokens_never_reduces_pooled_values(self):
        store = small_store()
        tokens = [3, 9, 1, 7, 2]
        _, c1 = encode_ehr(tokens, store, SMALL)
        _, c2 = encode_ehr(tokens + tokens, store, SMALL)
        for k in SMALL.kernel_sizes:
            assert np.all(c2.pooled_raw[k] >= c1.pooled_raw[k] - 1e-15)

    def test_dropout_mask_reproducible_and_unbiased(self):
        store = small_store()
        tokens = [3, 9, 1, 7]
        x_eval, _ = encode_ehr(tokens, store, SMALL)
        a, _ = encode_ehr(tokens, store, SMALL, train_mode=True,
                          dropout_rng=np.random.default_rng(42))
        b, _ = encode_ehr(tokens, store, SMALL, train_mode=True,
                          dropout_rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        # inverted dropout is unbiased: the mask average approaches eval output
        rng = np.random.default_rng(7)
        acc = np.zeros_like(x_eval)
        n = 10000
        for _ in range(n):
            xt, _ = encode_ehr(tokens, store, SMALL, train_mode=True, dropout_rng=rng)
            acc += xt
        scale = np.linalg.norm(acc / n - x_eval) / max(np.linalg.norm(x_eval), 1e-12)
        assert scale < 0.02

    def test_train_mode_without_rng_rejected(self):
        store = small_store()
        with pytest.raises(ValueError):
            encode_ehr([3, 4], store, SMALL, train_mode=True)


class TestEncoderGradients:
    def test_finite_difference_check(self):
        cfg = EncoderConfig(vocab_size=25, d_embed=5, kernel_sizes=(2, 3), n_filters=3,
                            dropout=0.0)
        store = ParamStore()
        init_encoder_params(store, cfg, named_rng(2, "init"))
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
        store = ParamStore()
        init_encoder_params(store, cfg, named_rng(4, "init"))
        tokens = [3, 7, 11]
        weights = named_rng(5, "probe").normal(size=cfg.rep_dim)

        def f(s):
            x, _ = encode_ehr(tokens, s, cfg, train_mode=True,
                              dropout_rng=np.random.default_rng(9))
            return float(weights @ x)

        store.zero_grads()
        _, cache = encode_ehr(tokens, store, cfg, train_mode=True,
                              dropout_rng=np.random.default_rng(9))
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
