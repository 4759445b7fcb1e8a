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

from .corpus import CleanDoc, Gazetteer, Record, clean_corpus, geocode, load_corpus, preprocess
from .embed import (
    ContextModel,
    EmbeddingSpace,
    WordVectorTable,
    embed_sentence,
    fit_context,
    load_word_vectors,
    sim_cosal,
    token_saliences,
    word_salience,
)
from .errors import SemfuseError
from .geotime import GeoPoint, encode_time_cyclical, haversine_miles, standardize
from .rankopt import (
    GridConfig,
    RankMatrix,
    SimilarityParams,
    optimize_alphas,
    rank_loss,
    rank_matrix,
    sim_pi,
    sim_sigma,
)
from .spectra import AugmentedSpace, PcaModel, augment, cosine, fit_pca, transform
from .tsne import TsneConfig, run_tsne

__all__ = [
    "__version__",
    "AugmentedSpace",
    "CleanDoc",
    "ContextModel",
    "EmbeddingSpace",
    "Gazetteer",
    "GeoPoint",
    "GridConfig",
    "PcaModel",
    "RankMatrix",
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
    "preprocess",
    "rank_loss",
    "rank_matrix",
    "run_tsne",
    "sim_cosal",
    "sim_pi",
    "sim_sigma",
    "standardize",
    "token_saliences",
    "transform",
]
