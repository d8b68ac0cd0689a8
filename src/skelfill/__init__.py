"""Occlusion-aware imputation for motion-capture skeleton sequences.

Pipeline: parse captures into ``[3, T, V, M]`` tensors with NaN-coded
missing joints, synthesise occlusion, embed each sample, group samples by
k-means pseudo-label, fill each missing joint from its nearest
within-cluster neighbours, and score recovery error against the clean data.
"""

from .clustering import ClusterModel, PseudoLabels, kmeans_fit, kmeans_predict
from .data import (
    Dataset,
    MissingMask,
    RawCapture,
    SkeletonSequence,
    build_missing_matrix,
    compute_missing_mask,
    parse_ntu_skeleton,
    preprocess_relative,
    to_canonical,
)
from .embedding import EmbeddingMatrix, embed_baseline, load_embeddings, save_embeddings
from .evaluation import EvalReport, clustering_quality, impute_random_baseline, mpjpe
from .graph import SkeletonGraph, chain_graph, default_skeleton_graph, load_edge_list
from .imputation import (
    DonorSet,
    FlatSample,
    ImputationReport,
    find_donors,
    impute_dataset,
    impute_value,
    masked_distance,
)
from .masking import (
    MaskPlan,
    asm_plan,
    csm_probabilities,
    frequency_degrees,
    matm_plan,
    missing_frequency,
)
from .occlusion import OcclusionRecord, OcclusionSpec, occlude_joints, occlude_random
from .synth import make_corpus

__version__ = "0.1.0"

__all__ = [
    "ClusterModel",
    "Dataset",
    "DonorSet",
    "EmbeddingMatrix",
    "EvalReport",
    "FlatSample",
    "ImputationReport",
    "MaskPlan",
    "MissingMask",
    "OcclusionRecord",
    "OcclusionSpec",
    "PseudoLabels",
    "RawCapture",
    "SkeletonGraph",
    "SkeletonSequence",
    "asm_plan",
    "build_missing_matrix",
    "chain_graph",
    "clustering_quality",
    "compute_missing_mask",
    "csm_probabilities",
    "default_skeleton_graph",
    "embed_baseline",
    "find_donors",
    "frequency_degrees",
    "impute_dataset",
    "impute_random_baseline",
    "impute_value",
    "kmeans_fit",
    "kmeans_predict",
    "load_edge_list",
    "load_embeddings",
    "make_corpus",
    "masked_distance",
    "matm_plan",
    "missing_frequency",
    "mpjpe",
    "occlude_joints",
    "occlude_random",
    "parse_ntu_skeleton",
    "preprocess_relative",
    "save_embeddings",
    "to_canonical",
]
