"""Multi-label clinical code prediction by greedy path decoding.

A CNN document encoder feeds an LSTM decoder that emits one code per step
under a two-mode output head: a vocabulary-wide generate mode and a copy
mode over the previous code's complication partners, competing under one
shared normalizer. Training aligns the orderless gold set to decode steps
(keep correct predictions, Hungarian-assign the rest) and optionally adds
an adversarial path scorer whose rewards weight policy-gradient updates.
Everything runs in double precision on hand-derived gradients.
"""

__version__ = "0.1.0"

from .corpus import (ComplicationTable, CodeDictionary, CorpusConfig, EhrDocument,
                     TokenDictionary, build_complication_table, filter_top_k,
                     generate_synthetic_corpus, split_indices)
from .generator import DecodedPath, GeneratorConfig, MixtureDistribution, decode_path
from .metrics import PredictionRecord, auc, complication_ratio, jaccard, micro_macro_prf
from .numerics import ParamStore, adam_step, finite_diff_check
from .trainer import Model, TrainConfig, TrainReport, train

__all__ = [
    "CodeDictionary", "ComplicationTable", "CorpusConfig", "DecodedPath", "EhrDocument",
    "GeneratorConfig", "MixtureDistribution", "Model", "ParamStore",
    "PredictionRecord", "TokenDictionary", "TrainConfig", "TrainReport", "adam_step",
    "auc", "build_complication_table", "complication_ratio", "decode_path",
    "filter_top_k", "finite_diff_check", "generate_synthetic_corpus", "jaccard",
    "micro_macro_prf", "split_indices", "train",
]
