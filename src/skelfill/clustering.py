"""Seeded k-means over embedding rows.

Hand-rolled rather than delegated so the exact contracts hold: seeded
k-means++ initialisation, assignment ties broken toward the lowest cluster
index, empty clusters repaired by re-seeding them on the point currently
farthest from its own centroid, and a per-iteration check that inertia
never increases.  Identical inputs and seed give identical models and
labels on every platform.  Every assignment of rows to centroids, in the
fit and in :func:`kmeans_predict`, is made by :func:`_assign`, and every
squared distance, the k-means++ draws' too, by :func:`_sq_distances`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import sample_blocks
from .embedding import EmbeddingMatrix
from .errors import DimensionMismatch, FormatError, KTooLarge
from .formats import read_container, read_records, write_container

SKKM_MAGIC = b"SKKM1"

_INERTIA_SLACK = 1e-8  # relative tolerance for the monotonicity assertion


@dataclass
class ClusterModel:
    centroids: np.ndarray  # [K, D] float64
    k: int
    inertia: float
    iterations_run: int
    seed: int


@dataclass
class PseudoLabels:
    labels: np.ndarray  # [N] int64, values in 0..K-1
    sample_ids: list[str]

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (len(self.sample_ids),):
            raise ValueError("labels and sample ids differ in length")


def _sq_distances(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact [N, K] squared Euclidean distances, in blocks of rows whose
    [rows, K, D] float64 difference array fits in a block
    (:func:`data.sample_blocks`), or of one row.

    Computed as explicit differences (not the expanded dot-product form) so
    symmetric inputs give bitwise-identical distances and argmin tie-breaks
    are trustworthy.  Each (row, centroid) sum reduces the same D values in
    the same order whatever the block size, so its bits do not depend on it.
    """
    out = np.empty((rows.shape[0], centroids.shape[0]), dtype=np.float64)
    for block in sample_blocks(rows.shape, 8 * len(centroids)):  # K float64 differences a scalar
        diff = rows[block, None, :] - centroids[None, :, :]
        out[block] = np.multiply(diff, diff, out=diff).sum(axis=2)
    return out


def _assign(rows: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centroid, ties toward the lowest index, and its
    squared distance to it."""
    dist = _sq_distances(rows, centroids)
    labels = dist.argmin(axis=1)
    return labels, dist[np.arange(len(labels)), labels]


def _init_plusplus(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` rows drawn by k-means++: the first uniformly, each next one in
    proportion to the squared distance of each row to its nearest row drawn
    so far (:func:`_sq_distances`)."""
    n = rows.shape[0]
    chosen = [int(rng.integers(n))]
    best = _sq_distances(rows, rows[chosen])[:, 0]
    for _ in range(1, k):
        total = best.sum()
        if total > 0:
            idx = int(rng.choice(n, p=best / total))
        else:
            # all remaining mass at already-chosen points: spread uniformly
            remaining = np.ones(n, dtype=bool)
            remaining[chosen] = False
            idx = int(rng.choice(np.flatnonzero(remaining)))
        chosen.append(idx)
        np.minimum(best, _sq_distances(rows, rows[[idx]])[:, 0], out=best)
    return rows[chosen]


def kmeans_fit(
    matrix: EmbeddingMatrix,
    k: int,
    seed: int,
    max_iter: int = 300,
    tol: float = 1e-4,
    inertia_log: list[float] | None = None,
) -> tuple[ClusterModel, PseudoLabels]:
    """Lloyd iterations from a seeded k-means++ start.

    Stops when labels are stable, when the largest centroid displacement
    falls below ``tol``, or after ``max_iter`` iterations.  When
    ``inertia_log`` is given it receives the inertia of the initial
    assignment followed by one value per iteration.
    """
    rows = matrix.values
    n = rows.shape[0]
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} outside 1..{n} rows")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if tol < 0:
        raise ValueError("tol must be >= 0")

    rng = np.random.default_rng(seed)
    centroids = _init_plusplus(rows, k, rng)

    labels, point_costs = _assign(rows, centroids)
    inertia = float(point_costs.sum())
    if inertia_log is not None:
        inertia_log.append(inertia)

    iterations = 0
    while iterations < max_iter:
        iterations += 1
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        sums = np.zeros((k, rows.shape[1]), dtype=np.float64)
        np.add.at(sums, labels, rows)
        means = np.where(counts[:, None] > 0, sums / np.maximum(counts[:, None], 1.0), 0.0)

        # Re-seed each empty cluster on the point farthest from its own
        # centroid, removing that point from its former cluster's mean.
        consumed: list[int] = []
        for empty in np.flatnonzero(counts == 0):
            candidates = point_costs.copy()
            if consumed:
                candidates[consumed] = -np.inf
            point = int(candidates.argmax())
            consumed.append(point)
            former = int(labels[point])
            if counts[former] > 1:
                sums[former] -= rows[point]
                counts[former] -= 1
                means[former] = sums[former] / counts[former]
            means[empty] = rows[point]
            labels[point] = empty
            counts[empty] = 1
            point_costs[point] = 0.0

        shift = float(np.sqrt(((means - centroids) ** 2).sum(axis=1)).max())
        centroids = means

        new_labels, point_costs = _assign(rows, centroids)
        new_inertia = float(point_costs.sum())
        if inertia_log is not None:
            inertia_log.append(new_inertia)
        if new_inertia > inertia + _INERTIA_SLACK * max(1.0, inertia):
            raise RuntimeError(
                f"inertia increased {inertia} -> {new_inertia} on iteration {iterations}"
            )
        stable = bool(np.array_equal(new_labels, labels))
        labels = new_labels
        inertia = new_inertia
        if stable or shift < tol:
            break

    model = ClusterModel(
        centroids=centroids, k=k, inertia=inertia, iterations_run=iterations, seed=seed
    )
    return model, PseudoLabels(labels=labels, sample_ids=list(matrix.sample_ids))


def kmeans_predict(model: ClusterModel, matrix: EmbeddingMatrix) -> PseudoLabels:
    """Nearest-centroid labels; ties go to the lowest cluster index."""
    if matrix.width != model.centroids.shape[1]:
        raise DimensionMismatch(
            f"matrix width {matrix.width} != model width {model.centroids.shape[1]}"
        )
    labels, _ = _assign(matrix.values, model.centroids)
    return PseudoLabels(labels=labels, sample_ids=list(matrix.sample_ids))


def save_model(model: ClusterModel, path: str | Path) -> None:
    fields = (model.k, model.centroids.shape[1], float(model.inertia), model.seed)
    write_container(path, SKKM_MAGIC, "<IIdQ", fields, model.centroids)


def load_model(path: str | Path) -> ClusterModel:
    with read_container(path, SKKM_MAGIC, "<IIdQ") as (handle, (k, width, inertia, seed)):
        if k == 0 or width == 0:
            raise FormatError(f"{path}: degenerate model K={k} D={width}")
        centroids, _, _ = read_records(handle, (k, width), np.float64, ids=False)
    finite = np.isfinite(centroids).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}: non-finite value in centroid {int(np.argmin(finite))}")
    return ClusterModel(centroids=centroids, k=int(k), inertia=float(inertia), iterations_run=0, seed=int(seed))
