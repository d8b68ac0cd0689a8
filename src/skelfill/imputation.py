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

Each rule is stated once.  ``_ordered_donors`` (over
``_distances_to_members``) puts a target's candidates in neighbour order,
``_first_k`` selects the donors of each hole of a [candidate, hole] matrix,
and ``_weighted_fill`` fills each column of a [candidate, column] matrix.
The engine calls each once per target for all of its holes; ``find_donors``
and ``impute_value`` call them on one column, so the scalar API computes
exactly what the engine does.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .clustering import PseudoLabels
from .data import Dataset, SkeletonSequence
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
    shape = (len(cluster), target.vector.size)
    present = np.array([member.present for member in cluster], dtype=bool).reshape(shape)
    refs = np.array([member.sample_ref for member in cluster], dtype=np.int64)
    order, dist = _ordered_donors(
        np.array([member.vector for member in cluster], dtype=np.float64).reshape(shape),
        present, refs, target.vector, target.present, target.sample_ref,
    )
    hits = np.flatnonzero(_first_k(present[order, position][:, None], k)[:, 0])
    return DonorSet(neighbors=[(int(refs[order[i]]), float(dist[i])) for i in hits])


def impute_value(donors: DonorSet, donor_values: np.ndarray) -> float:
    """Inverse-distance weighted mean of the donor values (see module doc)."""
    if len(donors) == 0:
        raise EmptyDonorSet("no donors available")
    donor_values = np.asarray(donor_values, dtype=np.float64)
    if donor_values.shape != (len(donors),):
        raise ValueError("donor values do not align with the donor set")
    distances = np.array([dist for _, dist in donors.neighbors], dtype=np.float64)
    take = np.ones((len(donors), 1), dtype=bool)
    return float(_weighted_fill(distances, donor_values[:, None], take)[0])


def _first_k(usable: np.ndarray, k: int) -> np.ndarray:
    """The donors of each column of a [candidate, hole] matrix whose rows
    are in neighbour order: its first k usable candidates."""
    return usable & (np.cumsum(usable, axis=0) <= k)


def _weighted_fill(dist: np.ndarray, values: np.ndarray, take: np.ndarray) -> np.ndarray:
    """The fill of each column of [candidate, column] float64 ``values``
    from the candidates ``take`` marks, each column taking at least one: the
    mean of the taken donors at ``dist`` 0 where there are any, otherwise
    their inverse-distance weighted mean."""
    zero = take & (dist == 0.0)[:, None]
    recip = 1.0 / np.where(dist == 0.0, 1.0, dist)
    weight = np.where(zero.any(axis=0), zero, take * recip[:, None])
    terms = np.where(weight > 0.0, weight * values, -0.0)
    # cumsum adds the rows in candidate order for any number of columns (sum()
    # adds one column pairwise), and from -0.0, the exact identity of float
    # addition, so the candidates a column does not take change nothing.
    start = np.full((1, values.shape[1]), -0.0)
    num = np.cumsum(np.concatenate([start, terms]), axis=0)[-1]
    den = np.cumsum(np.concatenate([start, weight]), axis=0)[-1]
    return num / den


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
    rows = np.array([dataset.samples[i].data.ravel() for i in members], np.float32)
    rows = rows.reshape(members.size, dataset.samples[0].data.size)
    return rows, np.isfinite(rows), members


def _groups(labels: np.ndarray) -> dict[int, np.ndarray]:
    return {int(label): np.flatnonzero(labels == label) for label in np.unique(labels)}


def _fill_one_target(
    seq: SkeletonSequence, pool: Pool, k: int, self_ref: int | None, trace: dict | None
) -> tuple[np.ndarray, SampleCounts]:
    """A float32 copy of one sample's data with every missing joint instance
    imputed, and the sample's counts."""
    data = seq.data.astype(np.float32)
    flat = data.reshape(-1)
    present = np.isfinite(flat)
    holes = np.flatnonzero(np.isnan(data).all(axis=0))  # channel-0 positions, C order
    rows, member_present, refs = pool
    order, dist = _ordered_donors(rows, member_present, refs, flat, present, self_ref)
    take = _first_k(member_present[order[:, None], holes], k)  # [candidate, hole]
    found = take.any(axis=0)
    pos = (holes[found] + np.arange(3)[:, None] * (flat.size // 3)).ravel()  # [channel * hole]
    values = rows[order[:, None], pos].astype(np.float64)
    flat[pos] = _weighted_fill(dist, values, np.tile(take[:, found], 3))
    if trace is not None:
        for hole, donors in zip(holes[found], take[:, found].T):
            t, v, m = (int(i) for i in np.unravel_index(hole, data.shape[1:]))
            trace[(seq.sample_id, t, v, m)] = tuple(refs[order[donors]].tolist())
    imputed = 3 * int(found.sum())
    return data, SampleCounts(int((~present).sum()), imputed, 3 * holes.size - imputed)


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

    def run_group(label: int) -> list[tuple[int, tuple[np.ndarray, SampleCounts]]]:
        pool = pools[label]
        return [(i, _fill_one_target(dataset.samples[i], pool, k, i if same_pool else None, trace))
                for i in groups[label].tolist()]

    labels = sorted(groups)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            results = list(executor.map(run_group, labels))
    else:
        results = [run_group(label) for label in labels]

    filled = dict(pair for done in results for pair in done)
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

    imputed_test, test_counts = None, {}
    if test is not None:
        groups = _groups(test_labels.labels)
        # a label no train cluster has gets an empty pool, [0, L] as the test rows
        pools |= {label: _pool(test, groups[label][:0]) for label in groups if label not in pools}
        imputed_test, test_counts = _fill_split(test, groups, pools, False, k, threads, trace)

    report = ImputationReport(
        train=train_counts,
        test=test_counts,
        cluster_sizes={label: int(members.size) for label, members in clusters.items()},
        k=k,
    )
    return imputed_train, imputed_test, report
