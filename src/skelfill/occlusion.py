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

:func:`sample_rng` owns every per-sample stream, of both modes (through
:func:`draw_per_sample`) and of evaluation's random baseline: each sample
draws from its own, keyed by the stage seed, the split and the sample's
index, so results do not depend on iteration order and the train and test
samples at one index draw apart.

:meth:`OcclusionRecord.between` works through blocks of samples
(:func:`data.sample_blocks`): one pass counts the hidden instances and the
next writes them into the record's arrays, so it holds no [n, 4] int64
index beside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import formats
from .data import Dataset, _int, sample_blocks
from .errors import (
    AlreadyOccluded,
    FormatError,
    JointIndexOutOfRange,
    RateOutOfRange,
    RecordMismatch,
)

# the synthesis modes, also the choices of the config's ``occlusion_mode``
MODES = ("random_rate", "joint_targeted")
# the columns of the record CSV, read and written by :mod:`skelfill.formats`
RECORD_COLUMNS = ("sample_id", "t", "v", "m", "x", "y", "z")


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
        # column extremes first, so a record inside the shape builds no [n, 4] mask
        if len(self.index) and (self.index.min() < 0 or (self.index.max(axis=0) >= shape).any()):
            row = tuple(self.index[((self.index < 0) | (self.index >= shape)).any(axis=1)][0].tolist())
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
        order = None if ids == clean.sample_ids else np.array([position[sid] for sid in ids])

        def hidden(rows: slice) -> tuple[np.ndarray, np.ndarray]:
            # a block's clean rows in the occluded split's order, a copy only where that differs
            source = clean.data[rows] if order is None else clean.data[order[rows]]
            return np.isnan(occluded.data[rows]).all(axis=1) & ~np.isnan(source).any(axis=1), source

        # one pass counts the rows, the next fills them in: no block's indices outlive it
        blocks = list(sample_blocks(occluded.data.shape))
        counts = [np.count_nonzero(hidden(rows)[0]) for rows in blocks]
        index = np.empty((sum(counts), 4), dtype=np.int32)
        values = np.empty((len(index), 3), dtype=clean.data.dtype)
        end = 0
        for rows, count in zip(blocks, counts):
            if count:
                mask, source = hidden(rows)
                n, t, v, m = np.nonzero(mask)  # by sample, then in (t, v, m) order
                at = slice(end, end + count)
                values[at] = source[n, :, t, v, m]
                n += rows.start
                for column, coords in zip(index[at].T, (n, t, v, m)):
                    column[:] = coords
                end += count
        return cls(ids, index, values)

    def save_csv(self, path: str | Path) -> None:
        formats.write_table(path, RECORD_COLUMNS, (
            [self.sample_ids[n], t, v, m] + [repr(value) for value in values]
            for (n, t, v, m), values in zip(self.index.tolist(), self.values.tolist())),
            self.sample_ids)

    @classmethod
    def load_csv(cls, path: str | Path) -> "OcclusionRecord":
        """The record in the CSV at ``path``, its samples in order of first
        appearance.  Refuses a malformed or non-finite field, an index outside
        [0, 2**31) and a repeated instance, naming the file and the line."""
        position: dict[str, int] = {}
        rows: dict[tuple[int, int, int, int], tuple[float, float, float]] = {}
        for lineno, row in formats.read_table(path, RECORD_COLUMNS):
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


def sample_rng(dataset: Dataset, seed: int, index: int) -> np.random.Generator:
    """The random stream of the sample at row ``index`` of ``dataset`` under a
    stage's ``seed``, keyed by its split: 0 for train and 1 for any other."""
    return np.random.default_rng([seed, int(dataset.split_tag != "train"), index])


def draw_per_sample(dataset: Dataset, seed: int,
                    draw: Callable[[np.ndarray, np.random.Generator, np.ndarray], None]) -> Dataset:
    """A copy of ``dataset`` in which ``draw(sample, rng, slots)`` has changed
    each sample's [3, T, V, M] array in place, given the sample's own stream
    (:func:`sample_rng`) and its present body slots."""
    data = dataset.data.copy()
    for index, (seq, sample) in enumerate(zip(dataset.samples, data)):
        draw(sample, sample_rng(dataset, seed, index), np.flatnonzero(seq.body_present))
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
