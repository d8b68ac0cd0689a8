"""Evaluation: error against the clean split and clustering quality.

The ground truth is an :class:`OcclusionRecord`: the joint instances one
occluded split hides, with their values in the clean split
(:meth:`OcclusionRecord.between`).  The headline metric is the mean
per-joint position error (in the data's units) between recovered and clean
joint positions, taken over the hidden instances that were actually
imputed; instances left NaN are excluded from the mean and reported as a
separate count.  A seeded random baseline fills every hole uniformly inside
the per-channel value range of the dataset, giving the scale against which
recovery quality is judged.  It is drawn at the record's rows alone
(:func:`impute_random_baseline`): each recorded sample's stream, from the
one owner of per-sample streams, :func:`occlusion.sample_rng`, makes the
draws a fill of the whole split makes (``tests/reference.py`` keeps that
fill), and the values at the record's rows are kept.  Each sample's
:class:`MpjpeStats` add in record order, and several splits pool split by
split, each with its record.  The report scores each split on its own and
the splits together.

Scoring and the baseline go over blocks of whole recorded samples
(:meth:`OcclusionRecord.blocks`; a split's values through
:func:`occlusion.values_at`), and the channel ranges over blocks of samples
(:func:`data.sample_blocks`), each as the budget ``data.BLOCK_BYTES``
allows.  So beside the splits and records it reads, eval holds one block's
arrays at a time, and of a split no filled copy but one sample's.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from .clustering import PseudoLabels
from .data import Dataset, sample_blocks
from .errors import LengthMismatch, RecordMismatch
from .occlusion import OcclusionRecord, sample_rng, values_at


@dataclass
class MpjpeStats:
    """The summed error over ``evaluated`` recovered joint instances, and
    the ``excluded`` count left missing.  Stats of disjoint parts add with
    ``+``."""

    total: float = 0.0
    evaluated: int = 0
    excluded: int = 0

    @property
    def mean_error(self) -> float | None:
        """None when nothing was evaluated."""
        return self.total / self.evaluated if self.evaluated else None

    def __add__(self, other: MpjpeStats) -> MpjpeStats:
        return MpjpeStats(*(getattr(self, f.name) + getattr(other, f.name)
                            for f in fields(self)))


@dataclass
class SplitScores:
    """Errors and coverage are None when nothing was evaluated or hidden."""

    mpjpe_imputed: float | None
    mpjpe_random: float | None
    coverage: float | None
    imputed_instances: int
    unimputable_instances: int

    @classmethod
    def of(cls, knn: MpjpeStats, baseline: MpjpeStats, **rest):
        """The scores of recovery ``knn`` against the random ``baseline``, on
        the same hidden instances; ``rest`` fills a subclass's fields."""
        hidden = knn.evaluated + knn.excluded
        return cls(knn.mean_error, baseline.mean_error, knn.evaluated / hidden if hidden else None,
                   knn.evaluated, knn.excluded, **rest)


@dataclass
class EvalReport(SplitScores):
    """The scores of the splits together, and of each split in ``splits``.
    ``per_class`` is keyed by the label as text, as JSON writes it.  The CSV
    leaves out ``per_class`` and ``splits``."""

    per_class: dict[str, float] | None = None
    purity: float | None = None
    nmi: float | None = None
    splits: dict[str, SplitScores] | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def csv_header(self) -> list[str]:
        return [f.name for f in fields(self) if f.name not in ("per_class", "splits")]

    def csv_row(self) -> list[str]:
        values = (getattr(self, name) for name in self.csv_header())
        return ["" if value is None else repr(value) for value in values]


def _extremes(values: np.ndarray, where) -> tuple[np.ndarray, np.ndarray]:
    """Each channel's least and greatest value of ``values`` [n, 3, ...]
    ``where`` it holds, NaN skipped; +inf and -inf for a channel with none."""
    axes = (0, *range(2, values.ndim))
    return (np.fmin.reduce(values, axis=axes, initial=np.inf, where=where),
            np.fmax.reduce(values, axis=axes, initial=-np.inf, where=where))


def _channel_ranges(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The [min, max] of each coordinate channel over the finite values of
    present bodies, (0, 0) for a channel with none.  Taken over blocks of
    samples, with no copy: a block whose every body slot is present reduces
    as it lies in memory, any other ``where`` its slots are, and only a
    block holding an infinity adds a mask of its finite values.  Min and max
    are exact, so the blocks do not change them."""
    lo, hi = np.full(3, np.inf), np.full(3, -np.inf)
    data = dataset.data
    present = np.array([seq.body_present for seq in dataset.samples], dtype=bool)
    for rows in sample_blocks(data.shape, 4):  # 4 bytes a float32 scalar
        block, slots = data[rows], present[rows, None, None, None, :]
        if slots.all():
            low, high = _extremes(block.reshape(len(block), 3, -1), True)
        else:
            low, high = _extremes(block, slots)
        if (low == -np.inf).any() or (high == np.inf).any():  # an infinity, which no range takes
            low, high = _extremes(block, np.isfinite(block) & slots)
        lo, hi = np.fmin(lo, low), np.fmax(hi, high)
    seen = lo <= hi
    return np.where(seen, lo, 0.0), np.where(seen, hi, 0.0)


def impute_random_baseline(dataset: Dataset, record: OcclusionRecord, seed: int) -> Iterator[np.ndarray]:
    """The seeded random fill of ``dataset`` at the rows of ``record``, whose
    instances it hides: the [n, 3] float32 values of each block of whole
    recorded samples, in record order, as :func:`mpjpe` scores them.  Every
    missing scalar draws uniformly from the dataset-wide [min, max] of its
    coordinate channel (present bodies only), and every scalar that is not
    missing keeps its value.  The ranges are taken by the call, and each
    block is drawn as it is read, so one block's values are held at a time.

    Each recorded sample draws from its own stream
    (:func:`occlusion.sample_rng`, keyed by its row of ``dataset``): a copy
    of the sample is filled channel by channel, one value per missing scalar
    in C order, as a fill of the whole split fills it, and is read at the
    record's rows.
    """
    (rows, position), (lo, hi) = record.rows_in(dataset), _channel_ranges(dataset)

    def draw(samples: slice, ends: np.ndarray, at: slice) -> np.ndarray:
        values, block = np.empty((at.stop - at.start, 3), dtype=dataset.data.dtype), position[at]
        for row, start, end in zip(rows[samples].tolist(), [0, *ends[:-1].tolist()], ends.tolist()):
            if start == end:
                continue
            sample = dataset.data[row].copy()
            rng = sample_rng(dataset, seed, row)
            for c, channel in enumerate(sample):
                holes = np.isnan(channel)
                channel[holes] = rng.uniform(lo[c], hi[c], size=np.count_nonzero(holes)).astype(np.float32)
            values[start:end] = sample.reshape(3, -1)[:, block[start:end]].T
        return values

    return itertools.starmap(draw, record.blocks())


def _sample_stats(recovered: Iterable[np.ndarray], record: OcclusionRecord) -> Iterator[MpjpeStats]:
    """Each recorded sample's stats, in record order, from the [n, 3] values
    ``recovered`` at each block of the record's rows
    (:meth:`OcclusionRecord.blocks`)."""
    blocks = iter(recovered)
    for _, ends, at in record.blocks():
        values = next(blocks, None)
        if values is None or values.shape != (at.stop - at.start, 3):
            raise RecordMismatch(f"recovered values do not match the record's rows {at.start}..{at.stop}")
        diff = values.astype(np.float64)  # [n, 3], in place from here
        diff -= record.values[at]
        finite = np.isfinite(diff).all(axis=1)  # as recovered: the recorded values are finite
        diff *= diff
        errors = np.sqrt(diff.sum(axis=1)[finite])
        kept = np.concatenate(([0], np.cumsum(finite)))[ends].tolist()
        start = kept_start = 0
        for end, kept_end in zip(ends.tolist(), kept):
            # one sum per sample, over its errors alone, so totals keep their bits
            yield MpjpeStats(float(errors[kept_start:kept_end].sum()), kept_end - kept_start,
                             end - start - (kept_end - kept_start))
            start, kept_start = end, kept_end


def mpjpe(recovered: Dataset | Iterable[np.ndarray], record: OcclusionRecord) -> MpjpeStats:
    """Summed Euclidean error over recovered joint instances vs the record.
    ``recovered`` is a split, in which each recorded sample is found by id,
    or the values recovered at the record's rows, block by block, as
    :func:`impute_random_baseline` gives them."""
    if isinstance(recovered, Dataset):
        recovered = values_at(recovered, record, *record.rows_in(recovered))
    return sum(_sample_stats(recovered, record), MpjpeStats())


def _entropy(counts: np.ndarray) -> float:
    probs = counts[counts > 0] / counts.sum()
    return float(-(probs * np.log(probs)).sum())


def clustering_quality(pseudo, truth) -> tuple[float, float]:
    """Purity and normalized mutual information of a labelling against truth.

    Both are permutation-invariant in the cluster ids.  NMI uses the
    geometric normalisation I / sqrt(H_pseudo * H_truth); two trivial
    single-block partitions count as a perfect match.
    """
    p = np.asarray(pseudo.labels if isinstance(pseudo, PseudoLabels) else pseudo)
    t = np.asarray(truth)
    if p.shape != t.shape or p.ndim != 1 or p.size == 0:
        raise LengthMismatch(f"label vectors disagree: {p.shape} vs {t.shape}")

    _, p_idx = np.unique(p, return_inverse=True)
    _, t_idx = np.unique(t, return_inverse=True)
    n_p, n_t = p_idx.max() + 1, t_idx.max() + 1
    table = np.zeros((n_p, n_t), dtype=np.int64)
    np.add.at(table, (p_idx, t_idx), 1)
    n = table.sum()

    purity = float(table.max(axis=1).sum() / n)

    h_p = _entropy(table.sum(axis=1).astype(np.float64))
    h_t = _entropy(table.sum(axis=0).astype(np.float64))
    if h_p == 0.0 and h_t == 0.0:
        nmi = 1.0
    elif h_p == 0.0 or h_t == 0.0:
        nmi = 0.0
    else:
        joint = table / n
        outer = np.outer(table.sum(axis=1), table.sum(axis=0)) / (n * n)
        nonzero = joint > 0
        info = float((joint[nonzero] * np.log(joint[nonzero] / outer[nonzero])).sum())
        nmi = info / math.sqrt(h_p * h_t)
    return purity, nmi


def per_class_error(splits: Iterable[tuple[Dataset, OcclusionRecord]]) -> dict[int, MpjpeStats]:
    """Recovery error per true class label over (imputed split, its record)
    pairs, pooled split by split; empty when no recorded sample has a label."""
    by_label: dict[int, MpjpeStats] = {}
    for imputed, record in splits:
        rows, position = record.rows_in(imputed)
        for row, stats in zip(rows.tolist(), _sample_stats(values_at(imputed, record, rows, position), record)):
            label = imputed.samples[row].label
            if label is not None:
                by_label[int(label)] = by_label.get(int(label), MpjpeStats()) + stats
    return dict(sorted(by_label.items()))
