"""Within-cluster nearest-neighbour imputation of missing joints.

Each sample is viewed as a flat vector of length ``L = 3*T*V*M`` with NaN
holes.  The distance between two samples is a masked Euclidean distance
computed over the coordinates both have, scaled up by how little they
overlap::

    dist(a, b) = sqrt((L / |P|) * sum_{i in P} (a_i - b_i)^2)

where P is the set of positions present in both.  Pairs with no overlap
have no distance and never serve as neighbours.

A missing joint instance of a target sample is filled from the k nearest
cluster members that have that whole joint instance present; all three
channels share the donor set.  The fill is the inverse-distance weighted
mean of the donor values; if any donor sits at distance exactly 0, the fill
is the plain mean of the zero-distance donors.  Donors always contribute
their *original* values, so imputed values never feed later imputations and
the result does not depend on processing order.  Positions with no donors
stay NaN and are tallied as unimputable.

Training samples draw donors from their own cluster; test samples draw
donors exclusively from the training members of their predicted cluster.
Both splits run through one fill path.

The scalar functions (``masked_distance``, ``find_donors``,
``impute_value``) and the engine share one distance-and-ordering kernel
(``_distances_to_members`` and ``_ordered_donors``) and one fill rule, so a
donor set or value computed with the scalar API is the one the engine uses.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .clustering import PseudoLabels
from .data import Dataset
from .errors import EmptyDonorSet, LabelMismatch, NoOverlap


@dataclass
class FlatSample:
    """Flattened view of one sample.

    vector      [L] float64 with NaN holes, C-order flattening of [C, T, V, M]
    present     [L] bool
    sample_ref  index of the sample in its dataset
    """

    vector: np.ndarray
    present: np.ndarray
    sample_ref: int


@dataclass
class DonorSet:
    """Neighbours chosen for one position: (sample_ref, distance) pairs,
    ordered by ascending distance then ascending sample_ref."""

    neighbors: list[tuple[int, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.neighbors)


@dataclass
class SampleCounts:
    missing: int = 0
    imputed: int = 0
    unimputable: int = 0


@dataclass
class ImputationReport:
    """Scalar-coordinate accounting (3 per joint instance) plus the donor
    pool each cluster offered."""

    train: dict[str, SampleCounts]
    test: dict[str, SampleCounts]
    cluster_sizes: dict[int, int]
    k: int

    def totals(self) -> SampleCounts:
        out = SampleCounts()
        for counts in list(self.train.values()) + list(self.test.values()):
            out.missing += counts.missing
            out.imputed += counts.imputed
            out.unimputable += counts.unimputable
        return out

    def to_json(self) -> str:
        def block(side: dict[str, SampleCounts]) -> dict:
            return {
                sid: {"missing": c.missing, "imputed": c.imputed, "unimputable": c.unimputable}
                for sid, c in side.items()
            }

        totals = self.totals()
        payload = {
            "k": self.k,
            "cluster_sizes": {str(label): size for label, size in sorted(self.cluster_sizes.items())},
            "train": block(self.train),
            "test": block(self.test),
            "totals": {
                "missing": totals.missing,
                "imputed": totals.imputed,
                "unimputable": totals.unimputable,
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def masked_distance(a: FlatSample, b: FlatSample) -> float:
    """Overlap-scaled Euclidean distance between two flat samples."""
    if a.vector.shape != b.vector.shape:
        raise ValueError("samples differ in length")
    dist = _distances_to_members(b.vector[None, :], b.present[None, :], a.vector, a.present)[0]
    if dist == np.inf:
        raise NoOverlap(f"samples {a.sample_ref} and {b.sample_ref} share no present coordinate")
    return float(dist)


def find_donors(
    cluster: Sequence[FlatSample], target: FlatSample, position: int, k: int
) -> DonorSet:
    """The up-to-k nearest cluster members with ``position`` present.

    Candidates with no coordinate overlap with the target are skipped.
    Ties in distance are broken toward the lower sample_ref.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= position < target.vector.size:
        raise ValueError(f"position {position} outside the flat vector")
    if any(member.vector.shape != target.vector.shape for member in cluster):
        raise ValueError("samples differ in length")
    if not cluster:
        return DonorSet()
    present = np.stack([member.present for member in cluster])
    refs = np.array([member.sample_ref for member in cluster])
    order, dist = _ordered_donors(
        np.stack([member.vector for member in cluster]), present, refs,
        target.vector, target.present, target.sample_ref,
    )
    hits = np.flatnonzero(present[order, position])[:k]
    return DonorSet(neighbors=[(int(refs[order[i]]), float(dist[i])) for i in hits])


def _weighted_fill(distances: np.ndarray, values: np.ndarray) -> float:
    zero = distances == 0.0
    if zero.any():
        return float(values[zero].mean())
    recip = 1.0 / distances
    return float((recip * values).sum() / recip.sum())


def impute_value(donors: DonorSet, donor_values: np.ndarray) -> float:
    """Inverse-distance weighted mean of the donor values (see module doc)."""
    if len(donors) == 0:
        raise EmptyDonorSet("no donors available")
    donor_values = np.asarray(donor_values, dtype=np.float64)
    if donor_values.shape != (len(donors),):
        raise ValueError("donor values do not align with the donor set")
    distances = np.array([dist for _, dist in donors.neighbors], dtype=np.float64)
    return _weighted_fill(distances, donor_values)


def _check_alignment(dataset: Dataset, labels: PseudoLabels, side: str) -> None:
    if labels is None:
        raise LabelMismatch(f"{side} labels are required")
    if list(labels.sample_ids) != dataset.sample_ids:
        raise LabelMismatch(f"{side} labels are not aligned with the {side} dataset")


def _distances_to_members(
    member_rows: np.ndarray, member_present: np.ndarray, vector: np.ndarray, present: np.ndarray
) -> np.ndarray:
    """Masked distance from one target to every member row; positions with
    no overlap come back as +inf.  The arithmetic runs in float64 whatever
    the dtype of the member rows."""
    vector = np.asarray(vector, dtype=np.float64)
    both = member_present & present[None, :]
    counts = both.sum(axis=1)
    diff = np.where(both, member_rows - vector[None, :], 0.0)
    ignored = (diff * diff).sum(axis=1)
    length = vector.size
    out = np.full(member_rows.shape[0], np.inf)
    valid = counts > 0
    out[valid] = np.sqrt(length / counts[valid] * ignored[valid])
    return out


def _ordered_donors(
    rows: np.ndarray,
    present: np.ndarray,
    refs: np.ndarray,
    vector: np.ndarray,
    target_present: np.ndarray,
    self_ref: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate rows in neighbour order: ascending distance, then ascending
    ref.  The target's own row and rows with no overlap are dropped.
    Returns (row indices, their distances)."""
    dist = _distances_to_members(rows, present, vector, target_present)
    if self_ref is not None:
        dist[refs == self_ref] = np.inf
    order = np.lexsort((refs, dist))
    order = order[np.isfinite(dist[order])]
    return order, dist[order]


# A donor pool: member rows [n, L] float32, their present mask [n, L] and
# their sample indices [n] in the training set.
Pool = tuple[np.ndarray, np.ndarray, np.ndarray]


def _pool(dataset: Dataset, members: np.ndarray) -> Pool:
    if members.size == 0:
        return np.empty((0, 0), np.float32), np.empty((0, 0), bool), members
    rows = np.stack([dataset.samples[i].data.ravel() for i in members])
    return rows, np.isfinite(rows), members


def _groups(labels: np.ndarray) -> dict[int, np.ndarray]:
    return {int(label): np.flatnonzero(labels == label) for label in np.unique(labels)}


def _fill_one_target(
    data: np.ndarray, pool: Pool, k: int, self_ref: int | None, trace: dict | None, trace_key: str
) -> SampleCounts:
    """Impute every missing joint instance of one float32 sample in place."""
    flat = data.reshape(-1)
    present = np.isfinite(flat)
    counts = SampleCounts(missing=int((~present).sum()))
    instances = np.argwhere(np.isnan(data).all(axis=0))  # [(t, v, m)] in C order
    if instances.size == 0:
        return counts
    rows, member_present, refs = pool
    if rows.shape[0] == 0:
        counts.unimputable = counts.missing
        return counts

    order, dist = _ordered_donors(rows, member_present, refs, flat, present, self_ref)
    pos0 = np.ravel_multi_index(tuple(instances.T), data.shape[1:])  # channel 0
    channels = np.arange(3) * (flat.size // 3)
    usable = member_present[order[None, :], pos0[:, None]]  # [instance, candidate]
    for j, (t, v, m) in enumerate(instances):
        hits = np.flatnonzero(usable[j])[:k]
        if hits.size == 0:
            counts.unimputable += 3
            continue
        donors = order[hits]
        donor_dist = dist[hits]
        pos = pos0[j] + channels
        values = rows[donors[None, :], pos[:, None]].astype(np.float64)  # [channel, donor]
        for c in range(3):
            flat[pos[c]] = _weighted_fill(donor_dist, values[c])
        counts.imputed += 3
        if trace is not None:
            trace[(trace_key, int(t), int(v), int(m))] = tuple(int(r) for r in refs[donors])
    return counts


def _fill_split(
    dataset: Dataset,
    groups: dict[int, np.ndarray],
    pools: dict[int, Pool],
    same_pool: bool,
    k: int,
    threads: int,
    trace: dict | None,
) -> tuple[Dataset, dict[str, SampleCounts]]:
    """Fill every sample of ``dataset``: the targets ``groups[label]`` draw
    donors from ``pools[label]``.  With ``same_pool`` the targets are pool
    members themselves and must skip their own row."""

    def run_group(label: int) -> list[tuple[int, np.ndarray, SampleCounts]]:
        done = []
        for gi in groups[label]:
            seq = dataset.samples[gi]
            data = seq.data.astype(np.float32)
            counts = _fill_one_target(
                data, pools[label], k, int(gi) if same_pool else None, trace, seq.sample_id
            )
            done.append((int(gi), data, counts))
        return done

    labels = sorted(groups)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            results = list(executor.map(run_group, labels))
    else:
        results = [run_group(label) for label in labels]

    filled = {gi: (data, counts) for done in results for gi, data, counts in done}
    out = Dataset.from_sequences(
        [seq.with_data(filled[gi][0]) for gi, seq in enumerate(dataset.samples)],
        split_tag=dataset.split_tag,
    )
    return out, {seq.sample_id: filled[gi][1] for gi, seq in enumerate(dataset.samples)}


def impute_dataset(
    train: Dataset,
    train_labels: PseudoLabels,
    test: Dataset | None = None,
    test_labels: PseudoLabels | None = None,
    k: int = 5,
    threads: int = 1,
    trace: dict | None = None,
) -> tuple[Dataset, Dataset | None, ImputationReport]:
    """Impute every sample of the given datasets (see module doc).

    ``trace``, when given, maps ``(sample_id, t, v, m)`` to the tuple of
    donor sample indices used, in neighbour order — handy for audits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_alignment(train, train_labels, "train")
    if test is not None:
        _check_alignment(test, test_labels, "test")

    clusters = _groups(train_labels.labels)
    pools = {label: _pool(train, members) for label, members in clusters.items()}
    imputed_train, train_counts = _fill_split(train, clusters, pools, True, k, threads, trace)

    imputed_test: Dataset | None = None
    test_counts: dict[str, SampleCounts] = {}
    if test is not None:
        groups = _groups(test_labels.labels)
        empty = _pool(train, np.empty(0, dtype=np.int64))
        test_pools = {label: pools.get(label, empty) for label in groups}
        imputed_test, test_counts = _fill_split(test, groups, test_pools, False, k, threads, trace)

    report = ImputationReport(
        train=train_counts,
        test=test_counts,
        cluster_sizes={label: int(members.size) for label, members in clusters.items()},
        k=k,
    )
    return imputed_train, imputed_test, report
