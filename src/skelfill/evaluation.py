"""Evaluation: error against the clean split and clustering quality.

The ground truth is an :class:`OcclusionRecord`: the joint instances the
occluded split hides, with their values in the clean split
(:meth:`OcclusionRecord.between`).  The headline metric is the mean
per-joint position error (in the data's units) between recovered and clean
joint positions, taken over the hidden instances that were actually
imputed; instances left NaN are excluded from the mean and reported as a
separate count.  A seeded random baseline fills every hole uniformly inside
the per-channel value range of the dataset, giving the scale against which
recovery quality is judged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .clustering import PseudoLabels
from .data import Dataset, SkeletonSequence
from .errors import LengthMismatch, RecordMismatch
from .occlusion import OcclusionRecord


@dataclass
class MpjpeStats:
    """mean_error is NaN when nothing was evaluated."""

    mean_error: float
    evaluated: int
    excluded: int


@dataclass
class EvalReport:
    """Errors and coverage are None when nothing was evaluated or hidden."""

    mpjpe_imputed: float | None
    mpjpe_random: float | None
    coverage: float | None
    imputed_instances: int
    unimputable_instances: int
    per_class: dict[int, float] | None = None
    purity: float | None = None
    nmi: float | None = None

    def to_json(self) -> str:
        payload = {
            "mpjpe_imputed": self.mpjpe_imputed,
            "mpjpe_random": self.mpjpe_random,
            "coverage": self.coverage,
            "imputed_instances": self.imputed_instances,
            "unimputable_instances": self.unimputable_instances,
            "per_class": None
            if self.per_class is None
            else {str(label): err for label, err in sorted(self.per_class.items())},
            "purity": self.purity,
            "nmi": self.nmi,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def csv_header(self) -> list[str]:
        return [
            "mpjpe_imputed", "mpjpe_random", "coverage",
            "imputed_instances", "unimputable_instances", "purity", "nmi",
        ]

    def csv_row(self) -> list[str]:
        def fmt(value: float | None) -> str:
            return "" if value is None else repr(float(value))

        return [
            fmt(self.mpjpe_imputed), fmt(self.mpjpe_random), fmt(self.coverage),
            str(self.imputed_instances), str(self.unimputable_instances),
            fmt(self.purity), fmt(self.nmi),
        ]


def impute_random_baseline(dataset: Dataset, seed: int) -> Dataset:
    """Fill every missing scalar with a seeded uniform draw from the
    dataset-wide [min, max] of its coordinate channel (present bodies only).

    Per-sample randomness derives from ``seed XOR sample_index``.  A dataset
    with nothing missing comes back with identical values.
    """
    lo = np.zeros(3)
    hi = np.zeros(3)
    seen = np.zeros(3, dtype=bool)
    for seq in dataset.samples:
        slots = np.flatnonzero(seq.body_present)
        if slots.size == 0:
            continue
        block = seq.data[:, :, :, slots]
        for c in range(3):
            finite = block[c][np.isfinite(block[c])]
            if finite.size == 0:
                continue
            c_lo, c_hi = float(finite.min()), float(finite.max())
            if not seen[c]:
                lo[c], hi[c], seen[c] = c_lo, c_hi, True
            else:
                lo[c], hi[c] = min(lo[c], c_lo), max(hi[c], c_hi)

    out = []
    for index, seq in enumerate(dataset.samples):
        rng = np.random.default_rng(seed ^ index)
        data = seq.data.copy()
        for c in range(3):
            holes = np.isnan(data[c])
            count = int(holes.sum())
            if count:
                data[c][holes] = rng.uniform(lo[c], hi[c], size=count).astype(np.float32)
        out.append(seq.with_data(data))
    return Dataset.from_sequences(out, split_tag=dataset.split_tag)


def mpjpe(imputed: Dataset, record: OcclusionRecord) -> MpjpeStats:
    """Mean Euclidean error over recovered joint instances vs the record."""
    by_id = {seq.sample_id: seq for seq in imputed.samples}
    total = 0.0
    evaluated = 0
    excluded = 0
    for sid, (idx, values) in record.entries.items():
        seq = by_id.get(sid)
        if seq is None:
            raise RecordMismatch(f"record refers to unknown sample {sid!r}")
        _, t_n, v_n, m_n = seq.data.shape
        if idx.size and (
            idx[:, 0].max() >= t_n or idx[:, 1].max() >= v_n or idx[:, 2].max() >= m_n
        ):
            raise RecordMismatch(f"record for {sid!r} indexes outside the sample shape")
        got = seq.data[:, idx[:, 0], idx[:, 1], idx[:, 2]].T.astype(np.float64)  # [n, 3]
        finite = np.isfinite(got).all(axis=1)
        diff = got[finite] - values[finite].astype(np.float64)
        total += float(np.sqrt((diff * diff).sum(axis=1)).sum())
        evaluated += int(finite.sum())
        excluded += int((~finite).sum())
    mean = total / evaluated if evaluated else math.nan
    return MpjpeStats(mean_error=mean, evaluated=evaluated, excluded=excluded)


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


def combine_mpjpe(parts: list[MpjpeStats]) -> MpjpeStats:
    evaluated = sum(p.evaluated for p in parts)
    excluded = sum(p.excluded for p in parts)
    if evaluated == 0:
        return MpjpeStats(mean_error=math.nan, evaluated=0, excluded=excluded)
    total = sum(p.mean_error * p.evaluated for p in parts if p.evaluated)
    return MpjpeStats(mean_error=total / evaluated, evaluated=evaluated, excluded=excluded)


def per_class_error(imputed: Dataset, record: OcclusionRecord) -> dict[int, float] | None:
    """Mean recovery error per true class label, when labels exist."""
    by_label: dict[int, list[SkeletonSequence]] = {}
    for seq in imputed.samples:
        if seq.label is not None:
            by_label.setdefault(int(seq.label), []).append(seq)
    if not by_label:
        return None
    out: dict[int, float] = {}
    for label, seqs in sorted(by_label.items()):
        ids = {s.sample_id for s in seqs}
        sub = OcclusionRecord(
            entries={sid: entry for sid, entry in record.entries.items() if sid in ids}
        )
        stats = mpjpe(
            Dataset.from_sequences(list(seqs), split_tag=imputed.split_tag), sub
        )
        if stats.evaluated:
            out[label] = stats.mean_error
    return out or None
