import pytest

from ehrpath.corpus import CorpusConfig, synthetic_bundle


def tiny_bundle(seed=5, num_docs=60, num_codes=6, planted=((0, 1, 0.9),)):
    """Small, fast corpus bundle for trainer and CLI tests."""
    cfg = CorpusConfig(num_docs=num_docs, vocab_size=60, num_codes=num_codes,
                       top_k=num_codes, planted_pairs=planted, doc_len=(6, 12),
                       seed=seed, code_skew=0.3, extra_code_prob=0.3,
                       signal_strength=0.9)
    return synthetic_bundle(cfg, or_threshold=2.0, min_support=3)


@pytest.fixture
def bundle():
    return tiny_bundle()
