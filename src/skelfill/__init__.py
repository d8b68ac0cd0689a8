"""Occlusion-aware imputation for motion-capture skeleton sequences.

Pipeline: parse captures into ``[3, T, V, M]`` tensors with NaN-coded
missing joints, synthesise occlusion, embed each sample, group samples by
k-means pseudo-label, fill each missing joint from its nearest
within-cluster neighbours, and score recovery error against the clean data.

Each exported name loads its submodule on first use (PEP 562), so
``import skelfill`` imports no numpy and changes no process state.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE_OF = {
    name: module
    for module, names in (
        ("clustering", "ClusterModel PseudoLabels kmeans_fit kmeans_predict"),
        ("data", "Dataset MissingMask RawCapture SkeletonSequence build_missing_matrix "
                 "compute_missing_mask parse_ntu_skeleton preprocess_relative to_canonical"),
        ("embedding", "EmbeddingMatrix embed_baseline load_embeddings save_embeddings"),
        ("evaluation", "EvalReport clustering_quality impute_random_baseline mpjpe"),
        ("graph", "SkeletonGraph chain_graph default_skeleton_graph load_edge_list"),
        ("imputation", "DonorSet FlatSample ImputationReport find_donors impute_dataset "
                       "impute_value masked_distance"),
        ("masking", "MaskPlan asm_plan csm_probabilities frequency_degrees matm_plan "
                    "missing_frequency"),
        ("occlusion", "OcclusionRecord OcclusionSpec occlude_joints occlude_random"),
        ("synth", "make_corpus"),
    )
    for name in names.split()
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
