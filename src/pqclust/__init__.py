"""Clustering of large vector collections through product-quantized codes.

Vectors are compressed once into short PQ codes; k-means then runs
entirely in the compressed domain with table lookups for distances and
histogram voting for center updates. Baseline clusterers (exact k-means,
binary k-means) and evaluation metrics operate on the original vectors
for comparison.
"""

from .baselines import (
    Binarizer,
    bkmeans_fit,
    binarize,
    kmeans_fit,
    majority_center,
    original_space_error,
    rand_index,
    train_binarizer,
)
from .clustering import (
    MemoryEstimate,
    assign,
    build_histogram,
    estimate_memory,
    estimate_working_set,
    fit,
    init_centers,
    update_center_naive,
    update_center_sparse,
)
from .lloyd import ClusteringResult, IterationStats, cluster_means
from .pq import (
    MAX_CODEWORDS,
    DistanceTables,
    PQCodebook,
    build_distance_tables,
    decode,
    encode,
    paired_distance_sq,
    train_codebook,
)

__version__ = "0.1.0"

__all__ = [
    "Binarizer",
    "ClusteringResult",
    "DistanceTables",
    "IterationStats",
    "MAX_CODEWORDS",
    "MemoryEstimate",
    "PQCodebook",
    "assign",
    "binarize",
    "bkmeans_fit",
    "build_distance_tables",
    "build_histogram",
    "cluster_means",
    "decode",
    "encode",
    "estimate_memory",
    "estimate_working_set",
    "fit",
    "init_centers",
    "kmeans_fit",
    "majority_center",
    "original_space_error",
    "paired_distance_sq",
    "rand_index",
    "train_binarizer",
    "train_codebook",
    "update_center_naive",
    "update_center_sparse",
]
