"""Distributional-semantics substrate (Section 4 of the paper).

Builds ESA-style vector spaces from a document corpus, adds the
Parametric Vector Space Model with thematic projection (Algorithm 1),
and exposes the semantic measures and caches the matcher consumes.
"""

from repro.semantics.cache import (
    PersistentScoreStore,
    RelatednessCache,
    precompute_scores,
)
from repro.semantics.documents import Document, DocumentSet
from repro.semantics.index import ApproxNeighborIndex, InvertedIndex, Posting
from repro.semantics.measures import (
    CachedMeasure,
    ExactMeasure,
    NonThematicMeasure,
    SemanticMeasure,
    ThematicMeasure,
)
from repro.semantics.persistence import (
    corpus_digest,
    load_corpus,
    load_space,
    save_corpus,
)
from repro.semantics.pvsm import ParametricVectorSpace, Theme, theme_key
from repro.semantics.space import DistributionalVectorSpace, relatedness_from_distance
from repro.semantics.tokenize import STOP_WORDS, normalize_term, tokenize
from repro.semantics.vectors import ZERO_VECTOR, SparseVector
from repro.semantics.weighting import augmented_tf, idf, tf_idf

__all__ = [
    "ApproxNeighborIndex",
    "CachedMeasure",
    "DistributionalVectorSpace",
    "Document",
    "DocumentSet",
    "ExactMeasure",
    "InvertedIndex",
    "NonThematicMeasure",
    "ParametricVectorSpace",
    "PersistentScoreStore",
    "Posting",
    "RelatednessCache",
    "STOP_WORDS",
    "SemanticMeasure",
    "SparseVector",
    "ThematicMeasure",
    "Theme",
    "ZERO_VECTOR",
    "augmented_tf",
    "corpus_digest",
    "idf",
    "load_corpus",
    "load_space",
    "normalize_term",
    "save_corpus",
    "precompute_scores",
    "relatedness_from_distance",
    "theme_key",
    "tf_idf",
    "tokenize",
]
