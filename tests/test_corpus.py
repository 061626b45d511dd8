import hashlib
import json

import numpy as np
import pytest

from conftest import tiny_bundle
from oracles import complication_pairs, synthetic_documents
from ehrpath.corpus import (ComplicationTable, CorpusBundle, CorpusConfig, EhrDocument,
                            build_complication_table, decimal_int, filter_top_k,
                            generate_synthetic_corpus, load_corpus_dir, split_indices, synthetic_bundle, write_corpus_dir)
from ehrpath.errors import ConfigError, DataError
from ehrpath.trainer import TrainConfig, build_model


def doc(codes, tokens=(1, 2)):
    return EhrDocument(tuple(tokens), frozenset(codes))


BASE = dict(num_docs=100, vocab_size=80, num_codes=6, top_k=6, doc_len=(5, 10), seed=3)


class TestGeneration:
    def test_same_seed_reproduces_bit_exactly(self):
        cfg = CorpusConfig(**BASE, planted_pairs=((0, 1, 0.8),))
        docs_a, _, _ = generate_synthetic_corpus(cfg)
        docs_b, _, _ = generate_synthetic_corpus(cfg)
        assert docs_a == docs_b

    def test_different_seed_differs(self):
        docs_a, _, _ = generate_synthetic_corpus(CorpusConfig(**BASE))
        docs_b, _, _ = generate_synthetic_corpus(CorpusConfig(**{**BASE, "seed": 4}))
        assert docs_a != docs_b

    def test_planted_cooccurrence_binomial_bound(self):
        # 5 sigma around Binomial(n_A, 0.9)
        cfg = CorpusConfig(num_docs=10000, vocab_size=80, num_codes=6, top_k=6,
                           planted_pairs=((0, 1, 0.9),), doc_len=(5, 8), seed=11)
        docs, _, _ = generate_synthetic_corpus(cfg)
        with_a = [d for d in docs if 0 in d.gold_codes]
        with_both = sum(1 in d.gold_codes for d in with_a)
        mean = 0.9 * len(with_a)
        bound = 5.0 * np.sqrt(len(with_a) * 0.9 * 0.1)
        assert abs(with_both - mean) <= bound

    def test_target_never_appears_without_source(self):
        cfg = CorpusConfig(**BASE, planted_pairs=((2, 3, 0.5),))
        docs, _, _ = generate_synthetic_corpus(cfg)
        assert all(2 in d.gold_codes for d in docs if 3 in d.gold_codes)

    def test_zero_docs_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic_corpus(CorpusConfig(**{**BASE, "num_docs": 0}))

    def test_top_k_larger_than_codes_rejected(self):
        with pytest.raises(ConfigError):
            CorpusConfig(**{**BASE, "top_k": 7}).validate()

    def test_token_ids_inside_dictionary_and_never_pad(self):
        docs, _, tokens = generate_synthetic_corpus(CorpusConfig(**BASE))
        for d in docs:
            assert all(0 < t < tokens.vocab_size for t in d.tokens)

    def test_dictionaries_carry_sentinels(self):
        _, codes, tokens = generate_synthetic_corpus(CorpusConfig(**BASE))
        assert codes.n_total == codes.num_real + 2
        assert codes.stop_id != codes.unk_id
        assert tokens.labels[0] == "<pad>"


class TestFilterTopK:
    def test_shared_code_keeps_everything(self):
        docs = [doc({0}), doc({0, 1}), doc({0, 2})]
        out = filter_top_k(docs, 1)
        assert len(out) == 3
        assert all(d.gold_codes == frozenset({0}) for d in out)

    def test_rare_only_document_removed(self):
        docs = [doc({0}), doc({0}), doc({5})]
        out = filter_top_k(docs, 1)
        assert len(out) == 2

    def test_hand_enumerated_toy_corpus(self):
        docs = [doc({0, 1}), doc({0}), doc({1, 2}), doc({2}), doc({2, 3}), doc({3, 4})]
        # document frequency: 2:3, 0:2, 1:2, 3:2, 4:1 -> top-2 = {2, 0} (ties to lower id)
        out = filter_top_k(docs, 2)
        assert [d.gold_codes for d in out] == [frozenset({0}), frozenset({0}),
                                               frozenset({2}), frozenset({2}),
                                               frozenset({2})]

    def test_every_survivor_labeled_within_top_k(self):
        docs, _, _ = generate_synthetic_corpus(CorpusConfig(**{**BASE, "code_skew": 1.5}))
        out = filter_top_k(docs, 3)
        kept = set().union(*(d.gold_codes for d in out))
        assert len(kept) <= 3
        assert all(d.gold_codes for d in out)


class TestSplit:
    def test_600_docs_split_400_100_100(self):
        idx = split_indices(600, seed=1)
        assert (len(idx["train"]), len(idx["test"]), len(idx["validation"])) == (400, 100, 100)

    def test_minimal_six_documents(self):
        idx = split_indices(6, seed=1)
        assert (len(idx["train"]), len(idx["test"]), len(idx["validation"])) == (4, 1, 1)

    def test_same_seed_identical(self):
        assert split_indices(100, seed=9) == split_indices(100, seed=9)

    def test_partition_property(self):
        for n in (6, 17, 100, 333):
            idx = split_indices(n, seed=2)
            merged = idx["train"] + idx["test"] + idx["validation"]
            assert sorted(merged) == list(range(n))

    def test_too_few_documents_rejected(self):
        with pytest.raises(ConfigError):
            split_indices(5, seed=0)


class TestComplicationTable:
    def test_hand_2x2_table(self):
        # n11=30, n10=10, n01=10, n00=50 -> OR = (30*50)/(10*10) = 15
        docs = ([doc({0, 1})] * 30 + [doc({0})] * 10 + [doc({1})] * 10 + [doc({2})] * 50)
        table = build_complication_table(docs, or_threshold=2.0, min_support=5)
        assert table.pairs[(0, 1)] == pytest.approx(15.0)

    def test_never_cooccurring_excluded(self):
        docs = [doc({0})] * 20 + [doc({1})] * 20
        table = build_complication_table(docs, or_threshold=1.0, min_support=0)
        assert not table.is_pair(0, 1)

    def test_min_support_guard(self):
        docs = [doc({0, 1})] * 4 + [doc({2})] * 40
        table = build_complication_table(docs, or_threshold=2.0, min_support=5)
        assert (0, 1) not in table.pairs

    def test_planted_pair_detected_and_matches_oracle_recount(self):
        cfg = CorpusConfig(num_docs=10000, vocab_size=80, num_codes=6, top_k=6,
                           planted_pairs=((0, 1, 0.9),), doc_len=(5, 8), seed=13)
        docs, _, _ = generate_synthetic_corpus(cfg)
        table = build_complication_table(docs, or_threshold=2.0, min_support=5)
        assert table.is_pair(0, 1)
        n11 = sum({0, 1} <= d.gold_codes for d in docs)
        n10 = sum(0 in d.gold_codes and 1 not in d.gold_codes for d in docs)
        n01 = sum(1 in d.gold_codes and 0 not in d.gold_codes for d in docs)
        n00 = len(docs) - n11 - n10 - n01
        cells = [n11, n10, n01, n00]
        if min(cells) == 0:
            cells = [c + 0.5 for c in cells]
        assert table.pairs[(0, 1)] == pytest.approx(cells[0] * cells[3] / (cells[1] * cells[2]))

    def test_symmetry_and_no_self_pairs(self):
        cfg = CorpusConfig(**BASE, planted_pairs=((0, 1, 0.9), (2, 3, 0.9)),
                           extra_code_prob=0.6)
        docs, _, _ = generate_synthetic_corpus(cfg)
        table = build_complication_table(docs, or_threshold=1.5, min_support=3)
        for code in range(6):
            assert code not in table.partners(code)
            for p in table.partners(code):
                assert code in table.partners(p)

    def test_empty_split_rejected(self):
        with pytest.raises(ConfigError):
            build_complication_table([], 2.0, 5)


class TestMatchesLoopOracle:
    """Synthesis and the table equal their loop forms bit for bit: the same
    documents, and the same pairs in the same order with the same floats."""

    @pytest.mark.parametrize("cfg", [
        CorpusConfig(**BASE, planted_pairs=((0, 1, 0.8),)),
        CorpusConfig(**{**BASE, "num_docs": 300}, planted_pairs=((0, 1, 0.9), (2, 3, 0.5)),
                     code_skew=0.0, extra_code_prob=1.0, signal_strength=0.5),
        CorpusConfig(num_docs=50, vocab_size=40, num_codes=2, top_k=2, doc_len=(1, 3),
                     planted_pairs=((0, 1, 0.5),), code_skew=2.0, seed=9)],
        ids=["base", "two-pairs", "one-samplable-code"])
    def test_synthesis(self, cfg):
        docs, _, _ = generate_synthetic_corpus(cfg)
        assert docs == synthetic_documents(cfg)
        assert all(type(t) is int for d in docs for t in d.tokens)

    @pytest.mark.parametrize("or_threshold, min_support", [(1.0, 0), (1.5, 3), (2.0, 5)])
    def test_table(self, or_threshold, min_support):
        cfg = CorpusConfig(**{**BASE, "num_docs": 400, "top_k": 5},
                           planted_pairs=((0, 1, 0.9), (2, 3, 0.3)), extra_code_prob=0.6)
        docs = filter_top_k(generate_synthetic_corpus(cfg)[0], cfg.top_k)
        pairs = build_complication_table(docs, or_threshold, min_support).pairs
        expected = complication_pairs(docs, or_threshold, min_support)
        assert list(pairs.items()) == list(expected.items())
        assert all(type(v) is float for v in pairs.values())


class TestCorpusIo:
    def _bundle(self):
        cfg = CorpusConfig(**BASE, planted_pairs=((0, 1, 0.9),))
        docs, codes, tokens = generate_synthetic_corpus(cfg)
        splits = split_indices(len(docs), cfg.seed)
        table = build_complication_table([docs[i] for i in splits["train"]], 1.5, 3)
        return CorpusBundle(docs, codes, tokens, table, splits)

    def test_roundtrip(self, tmp_path):
        bundle = self._bundle()
        write_corpus_dir(str(tmp_path), bundle)
        loaded = load_corpus_dir(str(tmp_path))
        assert loaded.documents == bundle.documents
        assert loaded.splits == bundle.splits
        assert loaded.table.pairs.keys() == bundle.table.pairs.keys()
        for k, v in bundle.table.pairs.items():
            assert loaded.table.pairs[k] == v  # repr round-trips floats exactly
        assert loaded.codes.labels == bundle.codes.labels
        assert loaded.tokens.labels == bundle.tokens.labels

    def test_corrupt_corpus_raises_data_error(self, tmp_path):
        bundle = self._bundle()
        write_corpus_dir(str(tmp_path), bundle)
        (tmp_path / "corpus.jsonl").write_text("not json\n")
        with pytest.raises(DataError):
            load_corpus_dir(str(tmp_path))

    def test_out_of_range_code_raises_data_error(self, tmp_path):
        bundle = self._bundle()
        write_corpus_dir(str(tmp_path), bundle)
        bad = json.dumps({"tokens": [1, 2], "codes": [99]})
        (tmp_path / "corpus.jsonl").write_text(bad + "\n")
        with pytest.raises(DataError):
            load_corpus_dir(str(tmp_path))


class TestDecimalInt:
    def test_plain_decimal_text_is_read(self):
        for text, value in (("0", 0), ("7", 7), ("301", 301), ("-2", -2)):
            assert decimal_int(text) == value

    @pytest.mark.parametrize("text", ["+1", "01", "-0", " 1", "1_000", "1.0", ""])
    def test_other_spellings_rejected(self, text):
        with pytest.raises(ValueError):
            decimal_int(text)


class TestDocumentInvariants:
    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            EhrDocument((), frozenset({1}))

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            EhrDocument((1,), frozenset())

    def test_table_validates_ordering(self):
        with pytest.raises(ValueError):
            ComplicationTable({(3, 1): 2.0}, 2.0, 5)


TINY_DIGEST = "dcf271f4ad64177f566c831ae85694bfc206adfec1275360e593cfe49be18772"
DESK_DIGEST = "81b11a82fb7f2bdd6fe77fb3885a4cb9856cf3dbef9889f0a8a6b892ae01563f"
LONG_DIGEST = "9ed78c29b8c413550d8439956af739bf1d879b4ee299a3b1f920379d7e2e4156"


def setup_digest(bundle: CorpusBundle) -> str:
    """sha256 over everything set-up hands to training: each document's
    tokens and gold set, the split ids, the table's pairs in insertion order
    with their odds ratios as float.hex, and the initial parameters."""
    h = hashlib.sha256()
    for d in bundle.documents:
        h.update(repr((d.tokens, sorted(d.gold_codes))).encode())
    h.update(json.dumps(bundle.splits).encode())
    h.update(repr([(a, b, orr.hex()) for (a, b), orr in bundle.table.pairs.items()]).encode())
    model = build_model(bundle, TrainConfig(seed=1, d_embed=24, d_code=24, n_filters=20))
    for name, p in model.parameters():
        h.update(name.encode())
        h.update(p.tobytes())
    return h.hexdigest()


class TestSetupPinned:
    """Set-up output pinned bit for bit: the corpus, splits, table and
    initial parameters of three configs, as sha256 digests."""

    def test_tiny_bundle(self):
        assert setup_digest(tiny_bundle()) == TINY_DIGEST

    def test_desk_corpus(self):
        cfg = CorpusConfig(num_docs=2000, vocab_size=200, num_codes=20, top_k=20,
                           planted_pairs=tuple((2 * i, 2 * i + 1, 0.9) for i in range(5)),
                           doc_len=(12, 30), seed=1, code_skew=0.3,
                           extra_code_prob=0.3, signal_strength=0.85)
        assert setup_digest(synthetic_bundle(cfg, 2.0, 5)) == DESK_DIGEST

    def test_long_notes(self):
        cfg = CorpusConfig(num_docs=200, vocab_size=20000, num_codes=50, top_k=50,
                           planted_pairs=tuple((2 * i, 2 * i + 1, 0.9) for i in range(12)),
                           doc_len=(200, 400), seed=1, code_skew=0.3,
                           extra_code_prob=0.3, signal_strength=0.85)
        assert setup_digest(synthetic_bundle(cfg, 2.0, 5)) == LONG_DIGEST
