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
way from the clean and occluded files.  A record holds one split as arrays:
each sample's row ends, and per row, a hidden joint instance, its position
in the samples' (T, V, M) grid and its clean values.

:func:`sample_rng` owns every per-sample stream, of both modes (through
:func:`draw_per_sample`) and of evaluation's random baseline: each sample
draws from its own, keyed by the stage seed, the split and the sample's
index, so results do not depend on iteration order and the train and test
samples at one index draw apart.

:meth:`OcclusionRecord.between` works through blocks of samples
(:func:`data.sample_blocks`): one pass counts each sample's hidden
instances and the next writes them into the record's arrays, so beside
them it holds one block's indices at a time.  Every read of a record at a split's samples
(:meth:`OcclusionRecord.restore`, and evaluation's scoring and baseline)
goes over blocks of whole recorded samples (:meth:`OcclusionRecord.blocks`),
so it holds at most ``RECORD_ROWS`` rows' sample indices at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

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

# Record rows that one step of a read at a split's samples takes: gathering
# a row's values widens its sample and grid indices to intp, and scoring
# makes them float64, so a block holds some 110 bytes a row, 0.9 MiB here.
# At the ROADMAP default the baseline and the scoring of the train split
# took 0.160 s, 0.150 s at 16 384 rows and 0.190 s with a filled copy.
RECORD_ROWS = 1 << 13


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
    """One split's hidden ground truth, a row per hidden joint instance, by
    sample, then in (t, v, m) order.  ``ends`` [S] int64: the end of each
    sample's rows; ``grid``: the (T, V, M) of the samples; ``position`` [n]
    int32: each row's instance in that grid, in C order; ``values`` [n, 3]
    float32: its clean values."""

    sample_ids: list[str] = field(default_factory=list)
    ends: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    grid: tuple[int, int, int] = (0, 0, 0)
    position: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    values: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.float32))

    @classmethod
    def of_rows(cls, sample_ids: list[str], counts: list[int] | np.ndarray, t: np.ndarray,
                v: np.ndarray, m: np.ndarray, values: list | np.ndarray) -> "OcclusionRecord":
        """The record of ``counts[i]`` rows of each sample ``sample_ids[i]``,
        in order, at (``t``, ``v``, ``m``), in the smallest grid that holds
        them.  Refused (``ValueError``) when that grid holds 2**31 or more
        instances, since a position would not fit in int32."""
        grid = tuple(int(c.max()) + 1 if len(c) else 0 for c in (t, v, m))
        if math.prod(grid) >= 1 << 31:
            raise ValueError(f"(T, V, M) = {grid} holds {math.prod(grid)} joint instances, "
                             f"over {(1 << 31) - 1}")
        position = (np.asarray(t, dtype=np.int64) * grid[1] + v) * grid[2] + m
        return cls(list(sample_ids), np.cumsum(counts, dtype=np.int64), grid, position.astype(np.int32),
                   np.asarray(values, dtype=np.float32).reshape(-1, 3))

    def total_instances(self) -> int:
        return len(self.position)

    def blocks(self, size: int) -> Iterator[tuple[slice, np.ndarray, slice]]:
        """Blocks of whole recorded samples, in order: each block's slice of
        ``sample_ids``, its samples' ends from the start of its rows, and the
        slice of those rows.  A block ends with the sample that brings it to
        ``size`` rows, or with the last."""
        first = start = 0
        for last, end in enumerate(self.ends.tolist(), 1):
            if end - start >= size or last == len(self.ends):
                yield slice(first, last), self.ends[first:last] - start, slice(start, end)
                first, start = last, end

    def rows_in(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """The row of ``dataset`` holding each recorded sample, and each
        recorded instance's position in ``dataset``'s (T, V, M) grid: the
        stored ``position`` itself when the grids match.  Refused when the
        record names a sample ``dataset`` lacks, or holds an instance outside
        its own grid or ``dataset``'s."""
        index = {sid: i for i, sid in enumerate(dataset.sample_ids)}
        try:
            rows = np.array([index[sid] for sid in self.sample_ids], dtype=np.intp)
        except KeyError as missing:
            raise RecordMismatch(f"record refers to unknown sample {missing.args[0]!r}") from None
        grid, position, size = dataset.data.shape[2:], self.position, math.prod(self.grid)

        def refuse(outside: np.ndarray):
            i = int(np.argmax(outside))  # the first row outside, as (sample, t, v, m)
            t, rest = divmod(int(position[i]), max(1, self.grid[1] * self.grid[2]))
            row = (int(np.searchsorted(self.ends, i, side="right")), t, *divmod(rest, max(1, self.grid[2])))
            raise RecordMismatch(f"record row (sample, t, v, m) = {row} indexes outside {(len(rows), *grid)}")

        # extremes first, so a record inside its grid builds no mask
        if len(position) and (position.min() < 0 or position.max() >= size):
            refuse((position < 0) | (position >= size))
        if len(position) and self.grid != grid:
            coords = np.unravel_index(position, self.grid)
            outside = np.any([c >= n for c, n in zip(coords, grid)], axis=0)
            if outside.any():
                refuse(outside)
            position = np.ravel_multi_index(coords, grid)
        return rows, position

    def restore(self, dataset: Dataset) -> Dataset:
        """Write the recorded originals back; inverse of the occlusion."""
        rows, position = self.rows_in(dataset)
        data = dataset.data.copy()
        for samples, ends, at in self.blocks(RECORD_ROWS):
            data[block_index(data.shape, rows[samples], ends, position[at])] = self.values[at]
        return dataset.with_data(data)

    @classmethod
    def between(cls, clean: Dataset, occluded: Dataset) -> "OcclusionRecord":
        """The record of what ``occluded`` hides of ``clean``; the inverse of
        :meth:`restore`.  Per occluded sample: every joint instance missing
        there (all channels NaN) and present in ``clean`` (no channel NaN),
        with its clean values."""
        row_of = {sid: i for i, sid in enumerate(clean.sample_ids)}
        ids = occluded.sample_ids
        for sid in ids:
            if sid not in row_of or clean.data.shape[1:] != occluded.data.shape[1:]:
                raise RecordMismatch(f"occluded sample {sid!r} has no clean sample of shape "
                                     f"{occluded.data.shape[1:]}")
        order = None if ids == clean.sample_ids else np.array([row_of[sid] for sid in ids])

        def hidden(rows: slice) -> tuple[np.ndarray, np.ndarray]:
            # a block's [B, T·V·M] mask and its clean rows [B, 3, T·V·M] in
            # the occluded split's order, a copy only where that differs
            source = clean.data[rows] if order is None else clean.data[order[rows]]
            mask = np.isnan(occluded.data[rows]).all(axis=1) & ~np.isnan(source).any(axis=1)
            return mask.reshape(len(mask), -1), source.reshape(len(source), 3, -1)

        # one pass counts each sample's rows, the next fills them in: no
        # block's indices outlive it
        blocks = list(sample_blocks(occluded.data.shape))
        ends = np.empty(len(ids), dtype=np.int64)
        for rows in blocks:
            ends[rows] = np.count_nonzero(hidden(rows)[0], axis=1)
        np.cumsum(ends, out=ends)
        position = np.empty(ends[-1] if len(ends) else 0, dtype=np.int32)
        values = np.empty((len(position), 3), dtype=clean.data.dtype)
        for rows in blocks:
            at = slice(ends[rows.start - 1] if rows.start else 0, ends[rows.stop - 1])
            if at.stop > at.start:
                mask, source = hidden(rows)
                n, where = np.nonzero(mask)  # by sample, then in C order of the grid
                position[at], values[at] = where, source[n, :, where]
        return cls(ids, ends, tuple(occluded.data.shape[2:]), position, values)

    def save_csv(self, path: str | Path) -> None:
        def rows():
            starts = [0, *self.ends.tolist()]
            for sid, start, end in zip(self.sample_ids, starts, starts[1:]):
                coords = (c.tolist() for c in np.unravel_index(self.position[start:end], self.grid))
                for *tvm, values in zip(*coords, self.values[start:end].tolist()):
                    yield [sid, *tvm] + [repr(value) for value in values]

        formats.write_table(path, RECORD_COLUMNS, rows(), self.sample_ids)

    @classmethod
    def load_csv(cls, path: str | Path) -> "OcclusionRecord":
        """The record in the CSV at ``path``, its samples in order of first
        appearance, in the smallest grid that holds its rows.  Refuses a
        malformed or non-finite field, an index outside [0, 2**31) and a
        repeated instance, naming the file and the line, and a grid of 2**31
        or more instances, naming the file."""
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
        n, t, v, m = (np.fromiter((key[i] for key in keys), np.int64, len(keys)) for i in range(4))
        try:
            return cls.of_rows(list(position), np.bincount(n, minlength=len(position)), t, v, m,
                               [rows[key] for key in keys])
        except ValueError as err:
            raise FormatError(f"{path}: {err}") from None


def block_index(shape: tuple[int, ...], rows: np.ndarray, ends: np.ndarray,
                position: np.ndarray) -> tuple:
    """The index of an array of ``shape`` [N, 3, T, V, M] at one block of a
    record's rows (:meth:`OcclusionRecord.blocks`), [n, 3] when read: the
    block's samples are at ``rows``, their rows end at ``ends`` and lie at
    ``position`` in the array's (T, V, M) grid."""
    return (np.repeat(rows, np.diff(ends, prepend=0)), slice(None),
            *np.unravel_index(position, shape[2:]))


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
