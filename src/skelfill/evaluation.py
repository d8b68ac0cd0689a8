"""Evaluation: error against the clean split and clustering quality.

The ground truth is an :class:`OcclusionRecord`: the joint instances one
occluded split hides, with their values in the clean split
(:meth:`OcclusionRecord.between`).  The headline metric is the mean
per-joint position error (in the data's units) between recovered and clean
joint positions, taken over the hidden instances that were actually
imputed; instances left NaN are excluded from the mean and reported as a
separate count.  A seeded random baseline fills every hole uniformly inside
the per-channel value range of the dataset, giving the scale against which
recovery quality is judged; its per-sample draws, like occlusion's, are
made by the one owner of those streams, :func:`occlusion.draw_per_sample`.
Each sample's :class:`MpjpeStats` add in record order, and several splits
pool split by split, each with its record.  The report scores each split
on its own and the splits together.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from .clustering import PseudoLabels
from .data import Dataset
from .errors import LengthMismatch
from .occlusion import OcclusionRecord, draw_per_sample


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


# Scalars of the samples whose channel range one step of the random
# baseline takes: the step's masks stay a few MiB whatever the split's size.
RANGE_BLOCK = 1 << 20


def _channel_ranges(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The [min, max] of each coordinate channel over the finite values of
    present bodies, (0, 0) for a channel with none.  Taken over blocks of
    samples; min and max are exact, so the blocks do not change them."""
    lo, hi = np.full(3, np.inf), np.full(3, -np.inf)
    data, (n, *shape) = dataset.data, dataset.data.shape
    present = np.array([seq.body_present for seq in dataset.samples], dtype=bool)
    step = max(1, RANGE_BLOCK // max(1, math.prod(shape)))
    for start in range(0, n, step):
        block = data[start:start + step]
        usable = np.isfinite(block)
        usable &= present[start:start + step, None, None, None, :]
        values = np.where(usable, block, np.float32(np.nan))  # NaN, which fmin and fmax skip
        lo = np.fmin(lo, np.fmin.reduce(values, axis=(0, 2, 3, 4), initial=np.inf))
        hi = np.fmax(hi, np.fmax.reduce(values, axis=(0, 2, 3, 4), initial=-np.inf))
    seen = lo <= hi
    return np.where(seen, lo, 0.0), np.where(seen, hi, 0.0)


def impute_random_baseline(dataset: Dataset, seed: int) -> Dataset:
    """Fill every missing scalar with a seeded uniform draw from the
    dataset-wide [min, max] of its coordinate channel (present bodies only).

    Each sample draws through :func:`occlusion.draw_per_sample`.  A dataset
    with nothing missing comes back with identical values.
    """
    lo, hi = _channel_ranges(dataset)

    def draw(sample, rng, slots):
        for c in range(3):
            holes = np.isnan(sample[c])
            count = int(holes.sum())
            if count:
                sample[c][holes] = rng.uniform(lo[c], hi[c], size=count).astype(np.float32)

    return draw_per_sample(dataset, seed, draw)


def _sample_stats(imputed: Dataset, record: OcclusionRecord) -> Iterator[tuple[int, MpjpeStats]]:
    """Each recorded sample's row in ``imputed`` and its stats, in record order."""
    rows, (n, t, v, m) = record.rows_in(imputed), record.index.T
    diff = imputed.data[rows[n], :, t, v, m].astype(np.float64)  # [n, 3], in place from here
    diff -= record.values
    finite = np.isfinite(diff).all(axis=1)  # as recovered: the recorded values are finite
    diff *= diff
    errors = np.sqrt(diff.sum(axis=1)[finite])
    hidden = np.bincount(n, minlength=len(rows))
    evaluated = np.bincount(n[finite], minlength=len(rows))
    for row, count, kept, end in zip(*(a.tolist() for a in (rows, hidden, evaluated, np.cumsum(evaluated)))):
        # one sum per sample, over its errors alone, so totals keep their bits
        yield row, MpjpeStats(float(errors[end - kept:end].sum()), kept, count - kept)


def mpjpe(imputed: Dataset, record: OcclusionRecord) -> MpjpeStats:
    """Summed Euclidean error over recovered joint instances vs the record."""
    stats = MpjpeStats()
    for _, sample in _sample_stats(imputed, record):
        stats += sample
    return stats


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
        for row, stats in _sample_stats(imputed, record):
            label = imputed.samples[row].label
            if label is not None:
                by_label[int(label)] = by_label.get(int(label), MpjpeStats()) + stats
    return dict(sorted(by_label.items()))
