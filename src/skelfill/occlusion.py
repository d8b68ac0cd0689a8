"""Synthetic occlusion with recorded ground truth.

Two modes:

* ``occlude_random`` hides an exact fraction of the joint instances of each
  sample, drawn uniformly without replacement.
* ``occlude_joints`` hides chosen joints in a seeded fraction of frames,
  mimicking a fixed physical occluder.

Both return the occluded dataset together with an :class:`OcclusionRecord`
holding the original values, which later serves as evaluation ground truth.
Per-sample randomness derives from ``seed XOR sample_index`` so results do
not depend on iteration order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .data import Dataset
from .errors import (
    AlreadyOccluded,
    FormatError,
    JointIndexOutOfRange,
    RateOutOfRange,
    RecordMismatch,
)


@dataclass
class OcclusionSpec:
    """Configuration of one synthesis run."""

    mode: str  # "random_rate" | "joint_targeted"
    rate: float = 0.0
    joints: tuple[int, ...] = ()
    frame_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("random_rate", "joint_targeted"):
            raise ValueError(f"unknown occlusion mode {self.mode!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise RateOutOfRange(f"rate {self.rate} outside [0, 1]")
        if not 0.0 <= self.frame_fraction <= 1.0:
            raise RateOutOfRange(f"frame fraction {self.frame_fraction} outside [0, 1]")


@dataclass
class OcclusionRecord:
    """Hidden ground truth: per sample, the (t, v, m) indices and the
    original finite values, in the order they were hidden."""

    entries: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    # sample_id -> (indices [n, 3] int32, values [n, 3] float32)

    def add(self, sample_id: str, indices: np.ndarray, values: np.ndarray) -> None:
        self.entries[sample_id] = (
            np.asarray(indices, dtype=np.int32).reshape(-1, 3),
            np.asarray(values, dtype=np.float32).reshape(-1, 3),
        )

    def total_instances(self) -> int:
        return sum(idx.shape[0] for idx, _ in self.entries.values())

    def restore(self, dataset: Dataset) -> Dataset:
        """Write the recorded originals back; inverse of the occlusion."""
        by_id = {seq.sample_id: seq for seq in dataset.samples}
        out = []
        for seq in dataset.samples:
            data = seq.data.copy()
            if seq.sample_id in self.entries:
                idx, values = self.entries[seq.sample_id]
                data[:, idx[:, 0], idx[:, 1], idx[:, 2]] = values.T
            out.append(seq.with_data(data))
        for sid in self.entries:
            if sid not in by_id:
                raise RecordMismatch(f"record refers to unknown sample {sid!r}")
        return Dataset.from_sequences(out, split_tag=dataset.split_tag)

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["sample_id", "t", "v", "m", "x", "y", "z"])
            for sid, (idx, values) in self.entries.items():
                for row in range(idx.shape[0]):
                    writer.writerow(
                        [sid, int(idx[row, 0]), int(idx[row, 1]), int(idx[row, 2])]
                        + [repr(float(values[row, c])) for c in range(3)]
                    )

    @classmethod
    def load_csv(cls, path: str | Path) -> "OcclusionRecord":
        grouped_idx: dict[str, list[tuple[int, int, int]]] = {}
        grouped_val: dict[str, list[tuple[float, float, float]]] = {}
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["sample_id", "t", "v", "m", "x", "y", "z"]:
                raise FormatError(f"{path}: unexpected occlusion header {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 7:
                    raise FormatError(f"{path}:{lineno}: expected 7 columns")
                try:
                    t, v, m = int(row[1]), int(row[2]), int(row[3])
                    x, y, z = float(row[4]), float(row[5]), float(row[6])
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: malformed numeric field") from None
                if not all(map(math.isfinite, (x, y, z))):
                    raise FormatError(f"{path}:{lineno}: recorded value is not finite")
                grouped_idx.setdefault(row[0], []).append((t, v, m))
                grouped_val.setdefault(row[0], []).append((x, y, z))
        record = cls()
        for sid in grouped_idx:
            record.add(sid, np.array(grouped_idx[sid]), np.array(grouped_val[sid], dtype=np.float32))
        return record


def _reject_preexisting_nan(dataset: Dataset) -> None:
    for mask, seq in zip(dataset.masks, dataset.samples):
        if mask.frame_mask.any():
            raise AlreadyOccluded(f"sample {seq.sample_id!r} already has missing joints")


def occlude_random(dataset: Dataset, rate: float, seed: int) -> tuple[Dataset, OcclusionRecord]:
    """Hide exactly ``floor(rate * T * V * bodies_present)`` joint instances
    per sample, chosen uniformly without replacement among present bodies."""
    if not 0.0 <= rate <= 1.0:
        raise RateOutOfRange(f"rate {rate} outside [0, 1]")
    _reject_preexisting_nan(dataset)

    record = OcclusionRecord()
    out = []
    for index, seq in enumerate(dataset.samples):
        rng = np.random.default_rng(seed ^ index)
        _, t_n, v_n, _ = seq.data.shape
        slots = np.flatnonzero(seq.body_present)
        pool = t_n * v_n * len(slots)
        count = math.floor(rate * pool)
        data = seq.data.copy()
        if count and pool:
            grid_t, grid_v, grid_m = np.meshgrid(
                np.arange(t_n), np.arange(v_n), slots, indexing="ij"
            )
            chosen = np.sort(rng.choice(pool, size=count, replace=False))
            ts = grid_t.ravel()[chosen]
            vs = grid_v.ravel()[chosen]
            ms = grid_m.ravel()[chosen]
            values = data[:, ts, vs, ms].T.copy()  # [count, 3]
            data[:, ts, vs, ms] = np.nan
            record.add(seq.sample_id, np.stack([ts, vs, ms], axis=1), values)
        else:
            record.add(seq.sample_id, np.empty((0, 3)), np.empty((0, 3), dtype=np.float32))
        out.append(seq.with_data(data))
    return Dataset.from_sequences(out, split_tag=dataset.split_tag), record


def occlude_joints(
    dataset: Dataset,
    joints: Iterable[int],
    frame_fraction: float,
    seed: int,
) -> tuple[Dataset, OcclusionRecord]:
    """Hide each targeted joint in ``floor(frame_fraction * T)`` seeded
    frames; the same frame choice applies to every present body.

    Entries that are already missing are skipped rather than re-recorded, so
    recorded originals are always finite.
    """
    targets = sorted(set(int(j) for j in joints))
    if not targets:
        raise JointIndexOutOfRange("no joints given to occlude")
    if not 0.0 <= frame_fraction <= 1.0:
        raise RateOutOfRange(f"frame fraction {frame_fraction} outside [0, 1]")

    record = OcclusionRecord()
    out = []
    for index, seq in enumerate(dataset.samples):
        _, t_n, v_n, _ = seq.data.shape
        bad = [j for j in targets if not 0 <= j < v_n]
        if bad:
            raise JointIndexOutOfRange(f"joints {bad} outside 0..{v_n - 1}")
        rng = np.random.default_rng(seed ^ index)
        n_frames = math.floor(frame_fraction * t_n)
        slots = np.flatnonzero(seq.body_present)
        data = seq.data.copy()
        indices: list[tuple[int, int, int]] = []
        values: list[np.ndarray] = []
        for joint in targets:
            frames = np.sort(rng.choice(t_n, size=n_frames, replace=False))
            for t in frames:
                for m in slots:
                    triple = data[:, t, joint, m]
                    if np.isnan(triple).all():
                        continue  # already missing, nothing to record
                    indices.append((t, joint, m))
                    values.append(triple.copy())
                    data[:, t, joint, m] = np.nan
        if indices:
            record.add(seq.sample_id, np.array(indices), np.stack(values))
        else:
            record.add(seq.sample_id, np.empty((0, 3)), np.empty((0, 3), dtype=np.float32))
        out.append(seq.with_data(data))
    return Dataset.from_sequences(out, split_tag=dataset.split_tag), record


def apply_spec(dataset: Dataset, spec: OcclusionSpec) -> tuple[Dataset, OcclusionRecord]:
    if spec.mode == "random_rate":
        return occlude_random(dataset, spec.rate, spec.seed)
    return occlude_joints(dataset, spec.joints, spec.frame_fraction, spec.seed)
