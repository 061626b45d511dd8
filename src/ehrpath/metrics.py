"""Evaluation metrics for multi-label code prediction.

Jaccard overlap, the fraction of predicted code pairs that are complication
pairs, micro/macro precision-recall-F1, and rank AUC (normalized
Mann-Whitney U with half credit for ties). Also owns the line-delimited
prediction file format and the flat metric report table.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import ComplicationTable, CorpusBundle, atomic_write, decimal_int, id_list
from .errors import DataError

REPORT_KEYS = ("jaccard", "complication",
               "precision_micro", "precision_macro",
               "recall_micro", "recall_macro",
               "f1_micro", "f1_macro",
               "auc_micro", "auc_macro")


@dataclass(frozen=True)
class PredictionRecord:
    doc_id: int
    predicted: frozenset[int]
    gold: frozenset[int]
    scores: dict[int, float]


class Prf(NamedTuple):
    precision: float
    recall: float
    f1: float


def jaccard(records: Sequence[PredictionRecord]) -> float:
    """Mean |pred & gold| / |pred | gold|; both-empty counts as 1."""
    if len(records) == 0:
        raise ValueError("no records to score")
    total = 0.0
    for rec in records:
        union = rec.predicted | rec.gold
        total += 1.0 if not union else len(rec.predicted & rec.gold) / len(union)
    return total / len(records)


def complication_ratio(records: Sequence[PredictionRecord],
                       table: ComplicationTable) -> float | None:
    """Mean over records with >= 2 predictions of the fraction of predicted
    pairs that are complication pairs; None when no record qualifies."""
    if len(records) == 0:
        raise ValueError("no records to score")
    ratios = []
    for rec in records:
        pred = sorted(rec.predicted)
        n = len(pred)
        if n < 2:
            continue
        hits = sum(table.is_pair(pred[i], pred[j])
                   for i in range(n) for j in range(i + 1, n))
        ratios.append(hits / (n * (n - 1) / 2))
    if not ratios:
        return None
    return float(np.mean(ratios))


def micro_macro_prf(records: Sequence[PredictionRecord],
                    labels: Sequence[int]) -> dict[str, Prf]:
    """Micro pools TP/FP/FN over every (doc, label) decision; macro averages
    per-label metrics over the label universe, with 0/0 defined as 0."""
    tp = Counter(c for rec in records for c in rec.predicted & rec.gold)
    fp = Counter(c for rec in records for c in rec.predicted - rec.gold)
    fn = Counter(c for rec in records for c in rec.gold - rec.predicted)

    def prf(t: int, p: int, n: int) -> Prf:
        prec = t / (t + p) if t + p else 0.0
        rec = t / (t + n) if t + n else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        return Prf(prec, rec, f1)

    micro = prf(*(sum(count[c] for c in labels) for count in (tp, fp, fn)))
    per_label = [prf(tp[c], fp[c], fn[c]) for c in labels]
    macro = Prf(*(float(np.mean([m[i] for m in per_label])) for i in range(3)))
    return {"micro": micro, "macro": macro}


def _binary_auc(scores: np.ndarray, relevant: np.ndarray) -> float | None:
    """Normalized Mann-Whitney U via average ranks; ties get half credit."""
    n_pos = int(relevant.sum())
    n_neg = relevant.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # a run of tied scores at sorted positions lo..hi-1 shares the average
    # 1-based rank (lo + 1 + hi) / 2
    ordered = np.sort(scores)
    ranks = (np.searchsorted(ordered, scores, "left") + np.searchsorted(ordered, scores, "right")
             + 1) / 2.0
    rank_sum = float(ranks[relevant].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(records: Sequence[PredictionRecord],
        labels: Sequence[int]) -> dict[str, float | None]:
    """Micro AUC over all pooled (doc, label) score/relevance pairs; macro
    AUC averaged over labels having at least one positive and one negative.
    Codes without a score count as score 0."""
    if len(records) == 0:
        raise ValueError("no records to score")
    scores = np.array([[rec.scores.get(c, 0.0) for rec in records] for c in labels])
    relevant = np.array([[c in rec.gold for rec in records] for c in labels])
    micro = _binary_auc(scores.ravel(), relevant.ravel())
    per_label = [_binary_auc(s, r) for s, r in zip(scores, relevant)]
    scorable = [a for a in per_label if a is not None]
    macro = float(np.mean(scorable)) if scorable else None
    return {"micro": micro, "macro": macro}


def metric_table(records: Sequence[PredictionRecord], table: ComplicationTable,
                 labels: Sequence[int]) -> dict[str, float | None]:
    """All report metrics keyed by REPORT_KEYS order."""
    prf = micro_macro_prf(records, labels)
    area = auc(records, labels)
    return {
        "jaccard": jaccard(records),
        "complication": complication_ratio(records, table),
        "precision_micro": prf["micro"].precision,
        "precision_macro": prf["macro"].precision,
        "recall_micro": prf["micro"].recall,
        "recall_macro": prf["macro"].recall,
        "f1_micro": prf["micro"].f1,
        "f1_macro": prf["macro"].f1,
        "auc_micro": area["micro"],
        "auc_macro": area["macro"],
    }


def format_metric_table(values: dict[str, float | None]) -> str:
    return "".join(f"{key} {'nan' if values.get(key) is None else format(values[key], '.6f')}\n"
                   for key in REPORT_KEYS)


def write_predictions(path: str, records: Sequence[PredictionRecord]) -> None:
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps({
                "doc": rec.doc_id,
                "pred": sorted(rec.predicted),
                "gold": sorted(rec.gold),
                "scores": {str(c): rec.scores[c] for c in sorted(rec.scores)},
            }) + "\n")


def _corpus_mismatch(rec: PredictionRecord, bundle: CorpusBundle, seen: set[int]) -> str | None:
    """What makes one prediction record disagree with its corpus, if anything."""
    n_docs, n_codes = len(bundle.documents), bundle.codes.num_real
    bad_ids = sorted(c for c in rec.predicted | rec.gold | rec.scores.keys()
                     if not 0 <= c < n_codes)
    if bad_ids:
        return f"code ids {bad_ids} are not among the {n_codes} real codes"
    bad_scores = [s for s in rec.scores.values() if not 0.0 <= s <= 1.0]
    if bad_scores:
        return f"scores {bad_scores} are not probabilities in [0, 1]"
    if not 0 <= rec.doc_id < n_docs:
        return f"doc {rec.doc_id} is not one of the corpus's {n_docs} documents"
    if rec.doc_id in seen:
        return f"doc {rec.doc_id} is predicted twice"
    seen.add(rec.doc_id)
    gold = bundle.documents[rec.doc_id].gold_codes
    if rec.gold != gold:
        return f"gold {sorted(rec.gold)} differs from doc {rec.doc_id}'s codes {sorted(gold)}"
    return None


def read_predictions(path: str, bundle: CorpusBundle) -> list[PredictionRecord]:
    """The records of a prediction file made from the corpus bundle. Each
    record must name a distinct corpus document, carry that document's gold
    codes, and hold real code ids and JSON-number scores in [0, 1], keyed by
    the code id's decimal text; the first that does not is a DataError naming
    its line."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read prediction file {path}: {exc}") from exc
    records: list[PredictionRecord] = []
    seen: set[int] = set()
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if type(rec["doc"]) is not int:
                raise ValueError(f"'doc' must be one JSON integer, got {rec['doc']!r}")
            scores = {decimal_int(k): v for k, v in rec.get("scores", {}).items()}
            if any(type(v) not in (int, float) for v in scores.values()):
                raise ValueError(f"'scores' must map code ids to JSON numbers, got {scores!r:.60}")
            record = PredictionRecord(
                rec["doc"],
                frozenset(id_list(rec["pred"], "'pred'")),
                frozenset(id_list(rec["gold"], "'gold'")),
                {k: float(v) for k, v in scores.items()},
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"bad prediction file {path}, line {ln}: {exc}") from exc
        problem = _corpus_mismatch(record, bundle, seen)
        if problem:
            raise DataError(f"prediction file {path}, line {ln}: {problem}")
        records.append(record)
    if not records:
        raise DataError(f"prediction file {path} is empty")
    return records
