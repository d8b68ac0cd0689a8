"""Joint- and frame-masking probability machinery.

Two joint-masking strategies:

* CSM — center-biased: a joint's masking probability is proportional to its
  degree in the skeleton graph, so well-connected central joints are hidden
  more often.
* ASM-frequency — adaptive: when a batch shows real missingness, each
  joint's empirical missing frequency is quantised into a degree in
  {1, 2, 3} and probabilities follow those degrees, so joints that the data
  loses most often are hidden most often.  A batch with no missing joints
  falls back to CSM.

Frame masking (``matm_plan``) weights frames by motion energy so that busy
frames are preferentially hidden; a static sequence degrades to uniform
frame choice.

All draws are seeded; weighted sampling *without* replacement is done by
sequential renormalising draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SkeletonSequence, squared_motion
from .errors import DegenerateGraph, FrameCountOutOfRange, MaskCountOutOfRange
from .graph import SkeletonGraph, chain_graph, default_skeleton_graph, load_edge_list

__all__ = [
    "MaskPlan",
    "SkeletonGraph",
    "asm_plan",
    "chain_graph",
    "csm_probabilities",
    "default_skeleton_graph",
    "frequency_degrees",
    "load_edge_list",
    "matm_plan",
    "missing_frequency",
    "sample_without_replacement",
]

# Offset added to the frequency range before quantisation; keeps the top of
# the range strictly below the next integer so degrees stay in {1, 2, 3}.
RANGE_EPSILON = 0.001


@dataclass
class MaskPlan:
    """One planned joint mask.

    probabilities  [V] float64, sums to 1
    masked_joints  the joints chosen for masking
    strategy_used  "CSM" or "ASM-frequency"
    """

    probabilities: np.ndarray
    masked_joints: set[int]
    strategy_used: str


def csm_probabilities(graph: SkeletonGraph) -> np.ndarray:
    """Masking probability proportional to graph degree, p_i = deg_i / sum(deg)."""
    total = int(graph.degrees.sum())
    if total == 0:
        raise DegenerateGraph("graph has no edges; degree probabilities undefined")
    return graph.degrees.astype(np.float64) / total


def missing_frequency(batch: np.ndarray) -> np.ndarray:
    """Per-joint missing counts: column sums of the [N, V] missing matrix."""
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[0] < 1:
        raise ValueError(f"expected a [N, V] boolean matrix, got shape {batch.shape}")
    return batch.astype(np.int64).sum(axis=0)


def frequency_degrees(freq: np.ndarray) -> np.ndarray:
    """Quantise per-joint missing counts into degrees in {1, 2, 3}.

    degree_i = floor((f_i - min f) / (max f - min f + 0.001) * 3 + 1)

    The epsilon keeps the maximum strictly below 4, so a constant input maps
    to all-ones and the most-missed joints map to 3.
    """
    freq = np.asarray(freq, dtype=np.float64)
    if freq.ndim != 1 or freq.size == 0:
        raise ValueError("expected a non-empty 1-d frequency vector")
    if (freq < 0).any():
        raise ValueError("missing counts cannot be negative")
    lo = freq.min()
    span = freq.max() - lo + RANGE_EPSILON
    degrees = np.floor((freq - lo) / span * 3.0 + 1.0).astype(np.int64)
    # guards the float edge where span rounds to (max - min) exactly
    return np.minimum(degrees, 3)


def sample_without_replacement(weights: np.ndarray, count: int, rng: np.random.Generator) -> list[int]:
    """Draw ``count`` distinct indices, each step proportional to the
    remaining weights (renormalised).  Exhausted weight falls back to a
    uniform draw over the remaining indices."""
    weights = np.asarray(weights, dtype=np.float64)
    remaining = np.arange(weights.size)
    chosen: list[int] = []
    for _ in range(count):
        w = weights[remaining]
        total = w.sum()
        if total > 0:
            pick = int(rng.choice(remaining, p=w / total))
        else:
            pick = int(rng.choice(remaining))
        chosen.append(pick)
        remaining = remaining[remaining != pick]
    return chosen


def asm_plan(batch: np.ndarray, graph: SkeletonGraph, m: int, seed: int) -> MaskPlan:
    """Plan a joint mask of size ``m`` for one batch.

    With no observed missingness the plan is a pure CSM draw; otherwise the
    probabilities follow the quantised missing-frequency degrees.
    """
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] != graph.num_joints:
        raise ValueError(
            f"batch shape {batch.shape} does not match graph with {graph.num_joints} joints"
        )
    num_joints = graph.num_joints
    if not 1 <= m <= num_joints:
        raise MaskCountOutOfRange(f"mask size {m} outside 1..{num_joints}")

    freq = missing_frequency(batch)
    if freq.sum() == 0:
        probabilities = csm_probabilities(graph)
        strategy = "CSM"
    else:
        degrees = frequency_degrees(freq)
        probabilities = degrees.astype(np.float64) / degrees.sum()
        strategy = "ASM-frequency"

    rng = np.random.default_rng(seed)
    masked = set(sample_without_replacement(probabilities, m, rng))
    return MaskPlan(probabilities=probabilities, masked_joints=masked, strategy_used=strategy)


def motion_energy(seq: SkeletonSequence) -> np.ndarray:
    """Per-frame motion energy: summed squared displacement of every joint
    instance present in both frames of a consecutive pair.  Frame 0 gets 0."""
    energy = np.zeros(seq.num_frames, dtype=np.float64)
    energy[1:] = squared_motion(seq.data.astype(np.float64)).sum(axis=(0, 2, 3))
    return energy


def matm_plan(seq: SkeletonSequence, n_frames: int, seed: int) -> set[int]:
    """Choose ``n_frames`` distinct frames to mask, weighted by motion
    energy; a static sequence (zero energy everywhere) is sampled uniformly."""
    t_n = seq.num_frames
    if not 1 <= n_frames <= t_n:
        raise FrameCountOutOfRange(f"frame count {n_frames} outside 1..{t_n}")
    energy = motion_energy(seq)
    rng = np.random.default_rng(seed)
    return set(sample_without_replacement(energy, n_frames, rng))
