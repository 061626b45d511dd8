import os
import sys

# One BLAS thread, as the benchmark runs: on a small host a thread pool
# buys these sizes nothing and takes the other cores. OpenBLAS reads the
# variables once, when numpy loads.
assert "numpy" not in sys.modules, "numpy was loaded before tests/conftest.py"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import pytest  # noqa: E402

from ehrpath.corpus import CorpusConfig, synthetic_bundle  # noqa: E402


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
