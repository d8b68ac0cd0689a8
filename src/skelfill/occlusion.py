"""Synthetic occlusion and its ground truth.

Two modes:

* ``occlude_random`` hides an exact fraction of the joint instances of each
  sample, drawn uniformly without replacement.
* ``occlude_joints`` hides chosen joints in a seeded fraction of frames,
  mimicking a fixed physical occluder.

The ground truth of an occluded copy is the clean copy.  One rule,
:meth:`OcclusionRecord.between`, reads it off the two: a joint instance was
hidden when it is missing in the occluded copy and present in the clean
one.  Both modes return the occluded dataset with that record.  Evaluation
takes the record occlusion returned when a pipeline hands it on and both
files are as occlusion left them; otherwise it rebuilds the record the same
way from the clean and occluded files.  A record holds one split as arrays,
a row per hidden joint instance.

:func:`draw_per_sample` owns every per-sample draw, of both modes and of
evaluation's random baseline: each sample draws from its own stream,
:func:`sample_rng`, keyed by the stage seed, the split and the sample's
index, so results do not depend on iteration order and the train and test
samples at one index draw apart.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .data import Dataset, _int
from .errors import (
    AlreadyOccluded,
    FormatError,
    JointIndexOutOfRange,
    RateOutOfRange,
    RecordMismatch,
)

# the synthesis modes, also the choices of the config's ``occlusion_mode``
MODES = ("random_rate", "joint_targeted")


@dataclass
class OcclusionSpec:
    """Configuration of one synthesis run."""

    mode: str  # one of MODES
    rate: float = 0.0
    joints: tuple[int, ...] = ()
    frame_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown occlusion mode {self.mode!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise RateOutOfRange(f"rate {self.rate} outside [0, 1]")
        if not 0.0 <= self.frame_fraction <= 1.0:
            raise RateOutOfRange(f"frame fraction {self.frame_fraction} outside [0, 1]")


@dataclass
class OcclusionRecord:
    """One split's hidden ground truth.  ``index`` [n, 4] int32: a row
    (position in ``sample_ids``, t, v, m) per hidden joint instance, by
    sample, then (t, v, m); ``values`` [n, 3] float32: its clean values."""

    sample_ids: list[str] = field(default_factory=list)
    index: np.ndarray = field(default_factory=lambda: np.empty((0, 4), dtype=np.int32))
    values: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.float32))

    def total_instances(self) -> int:
        return len(self.index)

    def rows_in(self, dataset: Dataset) -> np.ndarray:
        """The row of ``dataset`` holding each recorded sample.  Refused when
        the record names a sample ``dataset`` lacks, or indexes outside
        [0, shape) of the record's samples and of ``dataset``'s (t, v, m)."""
        position = {sid: i for i, sid in enumerate(dataset.sample_ids)}
        try:
            rows = np.array([position[sid] for sid in self.sample_ids], dtype=np.intp)
        except KeyError as missing:
            raise RecordMismatch(f"record refers to unknown sample {missing.args[0]!r}") from None
        shape = (len(rows), *dataset.data.shape[2:])
        outside = ((self.index < 0) | (self.index >= shape)).any(axis=1)
        if outside.any():
            row = tuple(self.index[outside][0].tolist())
            raise RecordMismatch(f"record row (sample, t, v, m) = {row} indexes outside {shape}")
        return rows

    def restore(self, dataset: Dataset) -> Dataset:
        """Write the recorded originals back; inverse of the occlusion."""
        rows, (n, t, v, m) = self.rows_in(dataset), self.index.T
        data = dataset.data.copy()
        data[rows[n], :, t, v, m] = self.values
        return dataset.with_data(data)

    @classmethod
    def between(cls, clean: Dataset, occluded: Dataset) -> "OcclusionRecord":
        """The record of what ``occluded`` hides of ``clean``; the inverse of
        :meth:`restore`.  Per occluded sample: every joint instance missing
        there (all channels NaN) and present in ``clean`` (no channel NaN),
        with its clean values."""
        position = {sid: i for i, sid in enumerate(clean.sample_ids)}
        ids = occluded.sample_ids
        for sid in ids:
            if sid not in position or clean.data.shape[1:] != occluded.data.shape[1:]:
                raise RecordMismatch(f"occluded sample {sid!r} has no clean sample of shape "
                                     f"{occluded.data.shape[1:]}")
        # the clean rows in the occluded split's order; a copy only where that differs
        source = clean.data if ids == clean.sample_ids else clean.data[[position[sid] for sid in ids]]
        hidden = np.isnan(occluded.data).all(axis=1) & ~np.isnan(source).any(axis=1)
        index = np.argwhere(hidden)  # by sample, then in (t, v, m) order
        n, t, v, m = index.T
        return cls(ids, index.astype(np.int32), source[n, :, t, v, m])

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["sample_id", "t", "v", "m", "x", "y", "z"])
            for (n, t, v, m), values in zip(self.index.tolist(), self.values.tolist()):
                writer.writerow([self.sample_ids[n], t, v, m] + [repr(value) for value in values])

    @classmethod
    def load_csv(cls, path: str | Path) -> "OcclusionRecord":
        """The record in the CSV at ``path``, its samples in order of first
        appearance.  Refuses a malformed or non-finite field, an index outside
        [0, 2**31) and a repeated instance, naming the file and the line."""
        position: dict[str, int] = {}
        rows: dict[tuple[int, int, int, int], tuple[float, float, float]] = {}
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
                    t, v, m = _int(row[1]), _int(row[2]), _int(row[3])
                    x, y, z = float(row[4]), float(row[5]), float(row[6])
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: malformed numeric field") from None
                if not all(map(math.isfinite, (x, y, z))):
                    raise FormatError(f"{path}:{lineno}: recorded value is not finite")
                if not 0 <= t | v | m < 1 << 31:  # each is in [0, 2**31) just when their OR is
                    raise FormatError(f"{path}:{lineno}: (t, v, m) = {t, v, m} outside 0..{(1 << 31) - 1}")
                key = (position.setdefault(row[0], len(position)), t, v, m)
                if key in rows:
                    raise FormatError(f"{path}:{lineno}: repeats (t, v, m) = {t, v, m} of sample {row[0]!r}")
                rows[key] = (x, y, z)
        keys = sorted(rows)  # by sample, then (t, v, m)
        return cls(list(position), np.array(keys, dtype=np.int32).reshape(-1, 4),
                   np.array([rows[key] for key in keys], dtype=np.float32).reshape(-1, 3))


def sample_rng(seed: int, split: int, index: int) -> np.random.Generator:
    """The random stream of the sample at ``index`` of a split, 0 for train
    and 1 for any other, under a stage's ``seed``."""
    return np.random.default_rng([seed, split, index])


def draw_per_sample(dataset: Dataset, seed: int,
                    draw: Callable[[np.ndarray, np.random.Generator, np.ndarray], None]) -> Dataset:
    """A copy of ``dataset`` in which ``draw(sample, rng, slots)`` has changed
    each sample's [3, T, V, M] array in place, given the sample's own stream
    (:func:`sample_rng`, keyed by ``dataset.split_tag``) and its present body
    slots."""
    data, split = dataset.data.copy(), int(dataset.split_tag != "train")
    for index, (seq, sample) in enumerate(zip(dataset.samples, data)):
        draw(sample, sample_rng(seed, split, index), np.flatnonzero(seq.body_present))
    return dataset.with_data(data)


def _reject_preexisting_nan(dataset: Dataset) -> None:
    missing = np.isnan(dataset.data).all(axis=1).any(axis=(1, 2, 3))
    if missing.any():
        sid = dataset.sample_ids[int(np.argmax(missing))]
        raise AlreadyOccluded(f"sample {sid!r} already has missing joints")


def occlude_random(dataset: Dataset, rate: float, seed: int) -> tuple[Dataset, OcclusionRecord]:
    """Hide exactly ``floor(rate * T * V * bodies_present)`` joint instances
    per sample, chosen uniformly without replacement among present bodies."""
    if not 0.0 <= rate <= 1.0:
        raise RateOutOfRange(f"rate {rate} outside [0, 1]")
    _reject_preexisting_nan(dataset)

    _, _, t_n, v_n, _ = dataset.data.shape

    def draw(sample, rng, slots):
        pool = t_n * v_n * len(slots)
        count = math.floor(rate * pool)
        if count:
            chosen = rng.choice(pool, size=count, replace=False)
            ts, vs, ks = np.unravel_index(chosen, (t_n, v_n, len(slots)))
            sample[:, ts, vs, slots[ks]] = np.nan

    occluded = draw_per_sample(dataset, seed, draw)
    return occluded, OcclusionRecord.between(dataset, occluded)


def occlude_joints(
    dataset: Dataset,
    joints: Iterable[int],
    frame_fraction: float,
    seed: int,
) -> tuple[Dataset, OcclusionRecord]:
    """Hide each targeted joint in ``floor(frame_fraction * T)`` seeded
    frames; the same frame choice applies to every present body.  An entry
    that is already missing stays out of the record."""
    targets = sorted(set(int(j) for j in joints))
    if not targets:
        raise JointIndexOutOfRange("no joints given to occlude")
    if not 0.0 <= frame_fraction <= 1.0:
        raise RateOutOfRange(f"frame fraction {frame_fraction} outside [0, 1]")

    _, _, t_n, v_n, _ = dataset.data.shape
    bad = [j for j in targets if not 0 <= j < v_n]
    if bad:
        raise JointIndexOutOfRange(f"joints {bad} outside 0..{v_n - 1}")
    n_frames = math.floor(frame_fraction * t_n)

    def draw(sample, rng, slots):
        for joint in targets:
            frames = rng.choice(t_n, size=n_frames, replace=False)
            sample[:, frames[:, None], joint, slots[None, :]] = np.nan

    occluded = draw_per_sample(dataset, seed, draw)
    return occluded, OcclusionRecord.between(dataset, occluded)


def apply_spec(dataset: Dataset, spec: OcclusionSpec) -> tuple[Dataset, OcclusionRecord]:
    if spec.mode == "random_rate":
        return occlude_random(dataset, spec.rate, spec.seed)
    return occlude_joints(dataset, spec.joints, spec.frame_fraction, spec.seed)
