"""Context-aware semantic similarity for sparse corpora.

Short texts that share a time and a place are often related even when
their words barely overlap. This package embeds texts with
salience-weighted word vectors, folds timestamps and coordinates into the
similarity score (either additively or multiplicatively), fits the
feature weights against human-labeled rankings, and ships the supporting
experiments: PCA augmentation sweeps, cosine-shift measurements, and a
from-scratch 2-D map layout.
"""

__version__ = "0.1.0"

from .corpus import Record, clean_corpus, geocode, load_corpus, preprocess
from .embed import (
    ContextModel,
    EmbeddingSpace,
    WordVectorTable,
    embed_sentence,
    fit_context,
    load_word_vectors,
    token_saliences,
)
from .errors import SemfuseError
from .geotime import GeoPoint, encode_time_cyclical, haversine_miles, standardize
from .rankopt import (
    GridConfig,
    SimilarityParams,
    optimize_alphas,
    pairwise_scores,
    rank_loss,
    rank_matrix,
)
from .spectra import PcaModel, augment, cosine, fit_pca, transform
from .tsne import TsneConfig, run_tsne

__all__ = [
    "__version__",
    "ContextModel",
    "EmbeddingSpace",
    "GeoPoint",
    "GridConfig",
    "PcaModel",
    "Record",
    "SemfuseError",
    "SimilarityParams",
    "TsneConfig",
    "WordVectorTable",
    "augment",
    "clean_corpus",
    "cosine",
    "embed_sentence",
    "encode_time_cyclical",
    "fit_context",
    "fit_pca",
    "geocode",
    "haversine_miles",
    "load_corpus",
    "load_word_vectors",
    "optimize_alphas",
    "pairwise_scores",
    "preprocess",
    "rank_loss",
    "rank_matrix",
    "run_tsne",
    "standardize",
    "token_saliences",
    "transform",
]
