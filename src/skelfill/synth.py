"""Deterministic synthetic skeleton corpus.

Each class is a family of smooth sinusoidal joint trajectories around a
fixed standing pose: the class fixes frequency, per-joint amplitudes and
phases, and every sample adds small seeded phase/amplitude jitter plus a
little coordinate noise.  Samples within a class are therefore near
neighbours of each other while classes stay well separated — a controlled
setting where recovery quality is measurable against known ground truth.

The class parameters come from the seed alone, so every split of one seed
shares its class motions.  Train items draw from the stream
``[seed, 202, cls, item]`` and the items of any other split from
``[seed, 303, cls, item]``: new draws of the same motions.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, SkeletonSequence

# Rough standing pose of the 25-joint layout, metres, (x right, y up, z depth).
_BASE_POSE_25 = np.array(
    [
        (0.00, 0.00, 0.00), (0.00, 0.25, 0.00), (0.00, 0.50, 0.00), (0.00, 0.65, 0.00),
        (-0.18, 0.45, 0.00), (-0.30, 0.25, 0.00), (-0.38, 0.05, 0.00), (-0.41, -0.02, 0.00),
        (0.18, 0.45, 0.00), (0.30, 0.25, 0.00), (0.38, 0.05, 0.00), (0.41, -0.02, 0.00),
        (-0.09, -0.05, 0.00), (-0.10, -0.45, 0.00), (-0.11, -0.85, 0.00), (-0.12, -0.90, 0.12),
        (0.09, -0.05, 0.00), (0.10, -0.45, 0.00), (0.11, -0.85, 0.00), (0.12, -0.90, 0.12),
        (0.00, 0.40, 0.00), (-0.44, -0.08, 0.00), (-0.42, 0.00, 0.04),
        (0.44, -0.08, 0.00), (0.42, 0.00, 0.04),
    ],
    dtype=np.float64,
)


def _base_pose(num_joints: int) -> np.ndarray:
    if num_joints == 25:
        return _BASE_POSE_25
    rng = np.random.default_rng(12061)  # fixed layout for non-standard counts
    return rng.uniform(-0.5, 0.5, size=(num_joints, 3))


def make_corpus(
    classes: int,
    per_class: int,
    frames: int = 50,
    joints: int = 25,
    seed: int = 0,
    id_prefix: str = "synth",
    split_tag: str = "train",
) -> Dataset:
    """Generate ``classes * per_class`` single-body samples, labelled by class."""
    if classes < 1 or per_class < 1:
        raise ValueError("classes and per_class must be >= 1")
    if frames < 2 or joints < 2:
        raise ValueError("need at least 2 frames and 2 joints")

    base = _base_pose(joints)
    item_stream = 202 if split_tag == "train" else 303
    t_axis = np.arange(frames, dtype=np.float64) / frames

    data = np.empty((classes * per_class, 3, frames, joints, 1), dtype=np.float32)
    samples = []
    for cls in range(classes):
        cls_rng = np.random.default_rng([seed, 101, cls])
        freq = cls_rng.uniform(0.5, 3.0)
        amplitude = cls_rng.uniform(0.03, 0.25, size=(joints, 3))
        phase = cls_rng.uniform(0.0, 2.0 * np.pi, size=(joints, 3))
        for item in range(per_class):
            rng = np.random.default_rng([seed, item_stream, cls, item])
            jitter = rng.normal(0.0, 0.05)
            scale = rng.uniform(0.9, 1.1)
            wave = np.sin(
                2.0 * np.pi * freq * t_axis[:, None, None] + phase[None] + jitter
            )  # [T, V, 3]
            traj = base[None] + scale * amplitude[None] * wave
            traj = traj + rng.normal(0.0, 0.004, size=traj.shape)
            row = data[len(samples)]
            row[..., 0] = traj.transpose(2, 0, 1)  # [3, T, V], rounded to float32
            samples.append(SkeletonSequence(row, f"{id_prefix}-c{cls:02d}-{item:04d}", label=cls))
    return Dataset(data, samples, split_tag)
