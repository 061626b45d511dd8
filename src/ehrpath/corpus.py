"""Synthetic EHR-style corpora with planted complication structure.

Documents are token-id sequences labeled with a set of diagnosis codes.
Tokens are drawn from code-conditioned signature vocabularies so the codes
are learnable from text, and configured code pairs co-occur in the labels
with a fixed probability. Also houses top-K label filtering, the 4:1:1
split, the document co-occurrence odds-ratio table, and the on-disk
formats consumed by the CLI.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .numerics import named_rng

PAD_TOKEN = 0

CORPUS_FILE = "corpus.jsonl"
TOKENS_FILE = "tokens.txt"
CODES_FILE = "codes.txt"
TABLE_FILE = "complications.txt"
SPLITS_FILE = "splits.json"


@dataclass(frozen=True)
class EhrDocument:
    """One record: token ids plus its ground-truth code set."""
    tokens: tuple[int, ...]
    gold_codes: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.tokens) == 0:
            raise ValueError("document has no tokens")
        if len(self.gold_codes) == 0:
            raise ValueError("document has no gold codes")


class CodeIds:
    """The code id space: the `n_codes` real codes take ids 0..n-1, the STOP
    and UNK sentinels the two ids after them."""

    n_codes: int

    @property
    def stop_id(self) -> int:
        return self.n_codes

    @property
    def unk_id(self) -> int:
        return self.n_codes + 1

    @property
    def n_total(self) -> int:
        return self.n_codes + 2


class CodeDictionary(CodeIds):
    """Real code labels with dense ids 0..n-1, plus the sentinels."""

    def __init__(self, labels: Sequence[str]):
        if len(labels) == 0:
            raise ValueError("empty code dictionary")
        self.labels = list(labels)

    @property
    def n_codes(self) -> int:
        return len(self.labels)

    num_real = n_codes

    def label(self, code: int) -> str:
        if code == self.stop_id:
            return "<stop>"
        if code == self.unk_id:
            return "<unk>"
        return self.labels[code]


class TokenDictionary:
    """Token labels; id 0 is the reserved zero-embedding pad token."""

    def __init__(self, labels: Sequence[str]):
        if len(labels) < 2 or labels[PAD_TOKEN] != "<pad>":
            raise ValueError("token dictionary must start with '<pad>'")
        self.labels = list(labels)

    @property
    def vocab_size(self) -> int:
        return len(self.labels)


class ComplicationTable:
    """Symmetric code-pair table: (a, b) with a < b mapped to its odds ratio,
    plus the per-code copy vocabulary derived from it."""

    def __init__(self, pairs: dict[tuple[int, int], float], threshold: float,
                 min_support: int):
        self.pairs = dict(pairs)
        self.threshold = threshold
        self.min_support = min_support
        vocab: dict[int, set[int]] = {}
        for (a, b), _ in self.pairs.items():
            if a == b:
                raise ValueError(f"code {a} paired with itself")
            if a > b:
                raise ValueError(f"pair ({a}, {b}) not stored with a < b")
            vocab.setdefault(a, set()).add(b)
            vocab.setdefault(b, set()).add(a)
        self._vocab = {c: tuple(sorted(v)) for c, v in vocab.items()}

    def partners(self, code: int) -> tuple[int, ...]:
        """Copy vocabulary of `code`: its complication partners, ascending."""
        return self._vocab.get(code, ())

    def is_pair(self, a: int, b: int) -> bool:
        if a > b:
            a, b = b, a
        return (a, b) in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class CorpusConfig:
    num_docs: int
    vocab_size: int
    num_codes: int
    top_k: int = 50
    planted_pairs: tuple[tuple[int, int, float], ...] = ()
    doc_len: tuple[int, int] = (20, 60)
    seed: int = 0
    # synthesis knobs: code frequency skew (Zipf exponent), chance of one
    # extra unrelated code, and the fraction of tokens drawn from a gold
    # code's signature vocabulary rather than background noise
    code_skew: float = 1.0
    extra_code_prob: float = 0.25
    signal_strength: float = 0.8

    def validate(self) -> None:
        if self.num_docs <= 0:
            raise ConfigError(f"num_docs must be positive, got {self.num_docs}")
        if self.num_codes <= 0:
            raise ConfigError(f"num_codes must be positive, got {self.num_codes}")
        if self.top_k < 1 or self.top_k > self.num_codes:
            raise ConfigError(f"top_k must lie in [1, num_codes={self.num_codes}], got {self.top_k}")
        # one signature block per code plus one background block, each >= 1 token
        if self.vocab_size < 1 + 2 * (self.num_codes + 1):
            raise ConfigError(
                f"vocab_size {self.vocab_size} too small for {self.num_codes} codes "
                f"(need >= {1 + 2 * (self.num_codes + 1)})")
        lo, hi = self.doc_len
        if lo < 1 or hi < lo:
            raise ConfigError(f"doc_len range must satisfy 1 <= lo <= hi, got {self.doc_len}")
        if not (0.0 <= self.extra_code_prob <= 1.0 and 0.0 <= self.signal_strength <= 1.0):
            raise ConfigError("probabilities must lie in [0, 1]")
        sources = set()
        targets = set()
        for a, b, p in self.planted_pairs:
            if not (0 <= a < self.num_codes and 0 <= b < self.num_codes) or a == b:
                raise ConfigError(f"planted pair ({a}, {b}) out of range or degenerate")
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"co-occurrence probability {p} outside [0, 1]")
            if b in targets:
                raise ConfigError(f"code {b} is the target of two planted pairs")
            sources.add(a)
            targets.add(b)
        if sources & targets:
            raise ConfigError("a planted-pair target may not also be a source")
        if len(targets) >= self.num_codes:
            raise ConfigError("every code is a planted-pair target; nothing left to sample")


def generate_synthetic_corpus(cfg: CorpusConfig) -> tuple[list[EhrDocument], CodeDictionary, TokenDictionary]:
    """Deterministic synthesis from cfg.seed.

    Each document samples a primary code (frequency ~ 1/rank^code_skew),
    maybe one extra code, then flips one coin per planted pair whose source
    is present. Pair targets enter a document only through that coin, so
    target-given-source co-occurrence is exactly binomial at the configured
    probability. Tokens are drawn from the signature blocks of the gold
    codes with probability signal_strength, else from the background block.
    """
    cfg.validate()
    rng = named_rng(cfg.seed, "corpus")

    block = (cfg.vocab_size - 1) // (cfg.num_codes + 1)
    bg_start = 1 + cfg.num_codes * block
    n_bg = cfg.vocab_size - bg_start

    targets = {b for _, b, _ in cfg.planted_pairs}
    samplable = np.array([c for c in range(cfg.num_codes) if c not in targets])
    weights = 1.0 / (np.arange(len(samplable)) + 1.0) ** cfg.code_skew
    weights /= weights.sum()

    lo, hi = cfg.doc_len
    documents: list[EhrDocument] = []
    for _ in range(cfg.num_docs):
        n_tokens = int(rng.integers(lo, hi + 1))
        gold = {int(rng.choice(samplable, p=weights))}
        if rng.random() < cfg.extra_code_prob:
            gold.add(int(rng.choice(samplable)))
        for a, b, p in cfg.planted_pairs:
            if a in gold and rng.random() < p:
                gold.add(b)
        ordered = sorted(gold)
        signal = rng.random(n_tokens) < cfg.signal_strength
        which = rng.integers(0, len(ordered), size=n_tokens)
        offsets = rng.integers(0, block, size=n_tokens)
        bg = rng.integers(0, n_bg, size=n_tokens)
        code_arr = np.array(ordered)[which]
        toks = np.where(signal, 1 + code_arr * block + offsets, bg_start + bg)
        documents.append(EhrDocument(tuple(int(t) for t in toks), frozenset(gold)))

    codes = CodeDictionary([f"D{c:03d}" for c in range(cfg.num_codes)])
    tokens = TokenDictionary(["<pad>"] + [f"w{t}" for t in range(1, cfg.vocab_size)])
    return documents, codes, tokens


def filter_top_k(documents: Sequence[EhrDocument], k: int) -> list[EhrDocument]:
    """Restrict gold sets to the k most frequent codes (by document
    frequency, ties to the lower id); drop documents left without labels."""
    if k < 1:
        raise ConfigError(f"top-k must be >= 1, got {k}")
    freq = Counter()
    for doc in documents:
        freq.update(doc.gold_codes)
    ranked = sorted(freq, key=lambda c: (-freq[c], c))
    keep = set(ranked[:k])
    out = []
    for doc in documents:
        restricted = doc.gold_codes & keep
        if restricted:
            out.append(EhrDocument(doc.tokens, frozenset(restricted)))
    return out


def split_indices(n: int, seed: int, ratio: tuple[int, int, int] = (4, 1, 1)) -> dict[str, list[int]]:
    """Disjoint, exhaustive shuffled index split; remainder goes to train."""
    total = sum(ratio)
    if n < total:
        raise ConfigError(f"need at least {total} documents to split {ratio}, got {n}")
    order = [int(i) for i in named_rng(seed, "split").permutation(n)]
    n_test = n * ratio[1] // total
    n_val = n * ratio[2] // total
    n_train = n - n_test - n_val
    return {
        "train": order[:n_train],
        "test": order[n_train:n_train + n_test],
        "validation": order[n_train + n_test:],
    }


def build_complication_table(train_documents: Sequence[EhrDocument],
                             or_threshold: float = 2.0,
                             min_support: int = 5) -> ComplicationTable:
    """Odds ratio over the 2x2 document co-occurrence table for every code
    pair; a pair is kept iff OR >= or_threshold and it co-occurs in at least
    min_support documents. Zero cells get the +0.5 continuity correction."""
    if len(train_documents) == 0:
        raise ConfigError("cannot build complication table from an empty split")
    n_codes = max(max(doc.gold_codes) for doc in train_documents) + 1
    member = np.zeros((len(train_documents), n_codes), dtype=np.int64)
    for i, doc in enumerate(train_documents):
        for c in doc.gold_codes:
            member[i, c] = 1
    co = member.T @ member
    per_code = member.sum(axis=0)
    n_docs = len(train_documents)

    pairs: dict[tuple[int, int], float] = {}
    for a in range(n_codes):
        for b in range(a + 1, n_codes):
            n11 = int(co[a, b])
            if n11 < min_support:
                continue
            n10 = int(per_code[a]) - n11
            n01 = int(per_code[b]) - n11
            n00 = n_docs - n11 - n10 - n01
            cells = [float(n11), float(n10), float(n01), float(n00)]
            if min(cells) == 0.0:
                cells = [c + 0.5 for c in cells]
            orr = (cells[0] * cells[3]) / (cells[1] * cells[2])
            if orr >= or_threshold:
                pairs[(a, b)] = orr
    return ComplicationTable(pairs, or_threshold, min_support)


# ---------------------------------------------------------------------------
# On-disk formats
# ---------------------------------------------------------------------------


@dataclass
class CorpusBundle:
    """Everything a training or evaluation run needs, as loaded from disk."""
    documents: list[EhrDocument]
    codes: CodeDictionary
    tokens: TokenDictionary
    table: ComplicationTable
    splits: dict[str, list[int]] = field(default_factory=dict)

    def split_docs(self, name: str) -> list[EhrDocument]:
        """The documents of one split, which must hold at least one."""
        if not self.splits[name]:
            raise DataError(f"the {name} split is empty")
        return [self.documents[i] for i in self.splits[name]]


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """A file that replaces path, through os.replace, only once the block
    completes and the file is synced; a block that raises leaves path as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_corpus_dir(out_dir: str, bundle: CorpusBundle) -> None:
    lines = {CORPUS_FILE: [json.dumps({"tokens": list(doc.tokens), "codes": sorted(doc.gold_codes)})
                           for doc in bundle.documents],
             TOKENS_FILE: bundle.tokens.labels, CODES_FILE: bundle.codes.labels,
             SPLITS_FILE: [json.dumps(bundle.splits)]}
    for name, file_lines in lines.items():
        with atomic_write(os.path.join(out_dir, name)) as fh:
            fh.write("".join(line + "\n" for line in file_lines))
    write_table(os.path.join(out_dir, TABLE_FILE), bundle.table)


def write_table(path: str, table: ComplicationTable) -> None:
    with atomic_write(path) as fh:
        fh.write(f"# threshold={table.threshold!r} min_support={table.min_support}\n")
        for (a, b) in sorted(table.pairs):
            fh.write(f"{a} {b} {table.pairs[(a, b)]!r}\n")


def read_table(path: str) -> ComplicationTable:
    threshold, min_support = 2.0, 5
    pairs: dict[tuple[int, int], float] = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    for part in line[1:].split():
                        key, _, val = part.partition("=")
                        if key == "threshold":
                            threshold = float(val)
                        elif key == "min_support":
                            min_support = int(val)
                    continue
                a, b, orr = line.split()
                pairs[(int(a), int(b))] = float(orr)
        return ComplicationTable(pairs, threshold, min_support)
    except (OSError, ValueError) as exc:
        raise DataError(f"bad complication table {path}: {exc}") from exc


def load_corpus_dir(corpus_dir: str) -> CorpusBundle:
    def _read_lines(name: str) -> list[str]:
        with open(os.path.join(corpus_dir, name)) as fh:
            return [line.rstrip("\n") for line in fh]

    try:
        tokens = TokenDictionary(_read_lines(TOKENS_FILE))
        codes = CodeDictionary(_read_lines(CODES_FILE))
        documents = []
        for ln, line in enumerate(_read_lines(CORPUS_FILE), start=1):
            rec = json.loads(line)
            toks = tuple(int(t) for t in rec["tokens"])
            gold = frozenset(int(c) for c in rec["codes"])
            if any(not 0 < t < tokens.vocab_size for t in toks):
                raise ValueError(f"line {ln}: token id outside dictionary")
            if any(not 0 <= c < codes.num_real for c in gold):
                raise ValueError(f"line {ln}: code id outside dictionary")
            documents.append(EhrDocument(toks, gold))
        with open(os.path.join(corpus_dir, SPLITS_FILE)) as fh:
            raw = json.load(fh)
        splits = {k: [int(i) for i in v] for k, v in raw.items()}
        owner: dict[int, str] = {}
        for name in ("train", "test", "validation"):
            if name not in splits:
                raise ValueError(f"splits manifest missing {name!r}")
            if any(not 0 <= i < len(documents) for i in splits[name]):
                raise ValueError(f"split {name!r} references unknown documents")
            for i in splits[name]:
                if i in owner:
                    raise ValueError(f"document {i} is listed in split {owner[i]!r} and {name!r}")
                owner[i] = name
    except DataError:
        raise
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise DataError(f"bad corpus directory {corpus_dir}: {exc}") from exc
    table = read_table(os.path.join(corpus_dir, TABLE_FILE))
    for a, b in table.pairs:
        if not 0 <= a < b < codes.num_real:
            raise DataError(f"bad complication table {TABLE_FILE}: pair ({a}, {b}) names an id "
                            f"outside the {codes.num_real} real codes")
    return CorpusBundle(documents, codes, tokens, table, splits)
