import numpy as np
import pytest

from ehrpath.corpus import (CodeDictionary, ComplicationTable, CorpusBundle, EhrDocument,
                            TokenDictionary)
from ehrpath.errors import DataError
from ehrpath.metrics import (PredictionRecord, auc, complication_ratio, format_metric_table,
                             jaccard, metric_table, micro_macro_prf, read_predictions,
                             write_predictions, REPORT_KEYS)

TABLE = ComplicationTable({(0, 1): 9.0, (2, 3): 5.0}, 2.0, 1)
# Two documents with gold codes {2} and {0} over four real codes.
BUNDLE = CorpusBundle([EhrDocument((1,), frozenset({2})), EhrDocument((1,), frozenset({0}))],
                      CodeDictionary(["a", "b", "c", "d"]), TokenDictionary(["<pad>", "t"]),
                      TABLE)


def rec(doc_id, pred, gold, scores=None):
    return PredictionRecord(doc_id, frozenset(pred), frozenset(gold), scores or {})


def auc_pair_oracle(scores, relevant):
    """O(n^2) pairwise comparison with half credit for ties."""
    pos = [s for s, r in zip(scores, relevant) if r]
    neg = [s for s, r in zip(scores, relevant) if not r]
    if not pos or not neg:
        return None
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard([rec(0, {1, 2}, {1, 2})]) == 1.0

    def test_disjoint_sets(self):
        assert jaccard([rec(0, {1}, {2})]) == 0.0

    def test_partial_overlap(self):
        assert jaccard([rec(0, {0, 1}, {1, 2})]) == pytest.approx(1 / 3)

    def test_empty_union_counts_as_one(self):
        assert jaccard([PredictionRecord(0, frozenset(), frozenset(), {})]) == 1.0

    def test_order_invariance(self):
        records = [rec(0, {0, 1}, {1}), rec(1, {2}, {2, 3}), rec(2, {4}, {4})]
        assert jaccard(records) == jaccard(records[::-1])

    def test_relabeling_invariance(self):
        records = [rec(0, {0, 1}, {1, 2}), rec(1, {3}, {3})]
        remap = {0: 7, 1: 5, 2: 9, 3: 0}
        relabeled = [rec(r.doc_id, {remap[c] for c in r.predicted},
                         {remap[c] for c in r.gold}) for r in records]
        assert jaccard(records) == jaccard(relabeled)


class TestComplicationRatio:
    def test_single_planted_pair_is_one(self):
        assert complication_ratio([rec(0, {0, 1}, {0, 1})], TABLE) == 1.0

    def test_three_predictions_one_pair_is_one_third(self):
        # pairs among {0, 1, 4}: (0,1) in table, (0,4) and (1,4) not
        assert complication_ratio([rec(0, {0, 1, 4}, {0})], TABLE) == pytest.approx(1 / 3)

    def test_short_predictions_excluded_from_mean(self):
        records = [rec(0, {0, 1}, {0}), rec(1, {4}, {4}), rec(2, set(), {1})]
        assert complication_ratio(records, TABLE) == 1.0

    def test_no_qualifying_record_is_absent(self):
        assert complication_ratio([rec(0, {4}, {4})], TABLE) is None

    def test_relabeling_invariance(self):
        records = [rec(0, {0, 1, 2}, {0}), rec(1, {2, 3}, {3})]
        remap = {0: 10, 1: 11, 2: 12, 3: 13}
        table2 = ComplicationTable({(10, 11): 9.0, (12, 13): 5.0}, 2.0, 1)
        relabeled = [rec(r.doc_id, {remap[c] for c in r.predicted},
                         {remap[c] for c in r.gold}) for r in records]
        assert complication_ratio(records, TABLE) == complication_ratio(relabeled, table2)


class TestPrf:
    def test_perfect_predictions_all_ones(self):
        records = [rec(0, {0, 1}, {0, 1}), rec(1, {2}, {2})]
        out = micro_macro_prf(records, labels=[0, 1, 2])
        for avg in ("micro", "macro"):
            assert out[avg] == (1.0, 1.0, 1.0)

    def test_always_empty_predictions_zero(self):
        records = [rec(0, set(), {0}), rec(1, set(), {1})]
        out = micro_macro_prf(records, labels=[0, 1])
        assert out["micro"] == (0.0, 0.0, 0.0)
        assert out["macro"] == (0.0, 0.0, 0.0)

    def test_hand_built_confusion_counts(self):
        # doc0: pred {0,1} gold {0,2}; doc1: pred {2} gold {2}
        # label 0: tp=1 fp=0 fn=0; label 1: tp=0 fp=1 fn=0; label 2: tp=1 fp=0 fn=1
        records = [rec(0, {0, 1}, {0, 2}), rec(1, {2}, {2})]
        out = micro_macro_prf(records, labels=[0, 1, 2])
        micro_p = 2 / 3
        micro_r = 2 / 3
        assert out["micro"].precision == pytest.approx(micro_p)
        assert out["micro"].recall == pytest.approx(micro_r)
        assert out["micro"].f1 == pytest.approx(2 * micro_p * micro_r / (micro_p + micro_r))
        assert out["macro"].precision == pytest.approx((1.0 + 0.0 + 1.0) / 3)
        assert out["macro"].recall == pytest.approx((1.0 + 0.0 + 0.5) / 3)
        label2_f1 = 2 * 1.0 * 0.5 / 1.5
        assert out["macro"].f1 == pytest.approx((1.0 + 0.0 + label2_f1) / 3)

    def test_micro_f1_identity_between_pooled_and_harmonic(self):
        rng = np.random.default_rng(31)
        labels = list(range(6))
        records = []
        for i in range(40):
            pred = {int(c) for c in rng.choice(6, size=rng.integers(0, 4), replace=False)}
            gold = {int(c) for c in rng.choice(6, size=rng.integers(1, 4), replace=False)}
            records.append(rec(i, pred, gold))
        out = micro_macro_prf(records, labels)
        p, r, f1 = out["micro"]
        expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert f1 == pytest.approx(expected, abs=1e-12)


class TestAuc:
    def test_perfect_ranking_is_one(self):
        records = [rec(0, set(), {0}, {0: 0.9, 1: 0.1}),
                   rec(1, set(), {1}, {0: 0.2, 1: 0.8})]
        out = auc(records, labels=[0, 1])
        assert out["micro"] == 1.0
        assert out["macro"] == 1.0

    def test_all_ties_give_half(self):
        records = [rec(0, set(), {0}, {0: 0.5, 1: 0.5}),
                   rec(1, set(), {1}, {0: 0.5, 1: 0.5})]
        out = auc(records, labels=[0, 1])
        assert out["micro"] == 0.5
        assert out["macro"] == 0.5

    def test_six_pair_toy_matches_pairwise_oracle(self):
        scores = [0.9, 0.8, 0.8, 0.4, 0.3, 0.1]
        rel = [True, False, True, False, False, True]
        records = [rec(i, set(), {0} if r else {1}, {0: s})
                   for i, (s, r) in enumerate(zip(scores, rel))]
        out = auc(records, labels=[0])
        assert out["macro"] == pytest.approx(auc_pair_oracle(scores, rel), abs=1e-12)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n).tolist()
            rel = rng.random(n) < 0.5
            records = [rec(i, set(), {0} if rel[i] else set(), {0: scores[i]})
                       for i in range(n)]
            expected = auc_pair_oracle(scores, rel.tolist())
            got = auc(records, labels=[0])["macro"]
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_unscorable_labels_absent(self):
        records = [rec(0, set(), {0}, {0: 0.5, 1: 0.4})]  # label 1 has no positive
        out = auc(records, labels=[1])
        assert out["micro"] is None and out["macro"] is None


class TestReport:
    def test_metric_table_has_exactly_ten_keys(self):
        records = [rec(0, {0, 1}, {0, 1}, {0: 0.9, 1: 0.8, 2: 0.1})]
        values = metric_table(records, TABLE, labels=[0, 1, 2])
        assert tuple(values) == REPORT_KEYS
        assert len(values) == 10

    def test_format_absent_value_as_nan(self):
        records = [rec(0, {0}, {0}, {0: 0.9})]
        text = format_metric_table(metric_table(records, TABLE, labels=[0]))
        lines = text.strip().split("\n")
        assert len(lines) == 10
        assert lines[1] == "complication nan"

    def test_all_values_in_unit_interval(self):
        rng = np.random.default_rng(35)
        records = []
        for i in range(30):
            pred = {int(c) for c in rng.choice(4, size=rng.integers(0, 4), replace=False)}
            gold = {int(c) for c in rng.choice(4, size=rng.integers(1, 3), replace=False)}
            scores = {c: float(rng.random()) for c in range(4)}
            records.append(rec(i, pred, gold, scores))
        values = metric_table(records, TABLE, labels=range(4))
        for key, val in values.items():
            if val is not None:
                assert 0.0 <= val <= 1.0, key


class TestPredictionIo:
    def test_roundtrip(self, tmp_path):
        records = [rec(0, {1, 2}, {2}, {1: 0.5, 2: 0.25}), rec(1, {0}, {0}, {0: 1.0})]
        path = str(tmp_path / "preds.jsonl")
        write_predictions(path, records)
        loaded = read_predictions(path, BUNDLE)
        assert loaded == records

    def test_bad_file_raises_data_error(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        for content in (b"{broken\n", b'{"doc": 0, "pred": [\xff]}\n'):  # bad JSON, not UTF-8
            path.write_bytes(content)
            with pytest.raises(DataError):
                read_predictions(str(path), BUNDLE)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            read_predictions(str(path), BUNDLE)
