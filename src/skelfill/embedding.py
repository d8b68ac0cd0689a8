"""Per-sample feature embeddings.

The built-in embedding is a deterministic, missing-aware statistics vector
over body slot 0: per-joint temporal mean, per-joint temporal standard
deviation, per-joint mean absolute per-channel velocity (3V values each),
followed by one mean bone length per skeleton edge.  Width is therefore
``9 * V + len(edges)``.  Statistics over empty support (a joint or bone
never observed) are 0, so rows never contain NaN.

Samples are embedded in blocks of consecutive samples, as one [B, 3, T, V]
float64 array, as many as the working-memory budget ``data.BLOCK_BYTES``
holds at 17 bytes a scalar, one at least: 16 samples at 50 frames, 2 at
300.  Beside that copy (8 bytes a scalar) and its masks, a block holds one
channel's float64 transient at a time; traced, it holds 16.6 bytes a
scalar at 50 frames and 14.5 at 300.  A block bounds the working memory
whatever the size of the dataset, and shares each array operation's
overhead among its samples.  Each row equals, bit for bit, the row of its
sample embedded on its own, because every sum keeps the order of the
one-sample sum:

- means, deviations and speeds reduce the T axis of the block or of one
  of its channels, with +0.0 for each term a mask leaves out.  numpy adds
  the terms of each sample in the order it uses on that sample alone: one
  frame after another, or pairwise over T when V = 1;
- bone lengths reduce the channel axis of one bone's [B, 3, T] extents,
  in the order of the one-sample reduction;
- a bone's mean length is the mean of the 1-D array of its lengths in the
  frames where both joints are present, which numpy sums pairwise.  So the
  (sample, edge) rows of a block are grouped by their count c of usable
  frames, and each group's ``[G, c]`` array is reduced along its rows,
  which sums each row pairwise in the same way.  A count of 0 gives 0.

Learned 256-wide encoder features can be swapped in through an SKEMB file
without touching any downstream stage; its layout and the refusals of its
reader are those of every binary container (see :mod:`skelfill.formats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, sample_blocks
from .errors import FormatError, IdMismatch
from .formats import read_container, read_records, write_container
from .graph import SkeletonGraph, chain_graph, default_skeleton_graph

SKEMB_MAGIC = b"SKEMB1"


@dataclass
class EmbeddingMatrix:
    """values [N, D] float64 (finite), aligned with sample_ids."""

    values: np.ndarray
    sample_ids: list[str]
    source: str  # "builtin" | "external"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"expected [N, D] matrix, got shape {self.values.shape}")
        if self.values.shape[0] != len(self.sample_ids):
            raise ValueError("row count does not match sample id count")
        if not np.isfinite(self.values).all():
            raise ValueError("embedding matrix contains non-finite values")

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _mean_over_frames(zeroed: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The mean over axis 2 of the terms ``count`` counts; the others are 0
    in ``zeroed``.  0 where ``count`` is 0."""
    return np.where(count > 0, zeroed.sum(axis=2) / np.maximum(count, 1), 0.0)


def _embed_block(body: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The rows of a block: ``body`` is [B, 3, T, V] float64 with NaN for
    missing joint instances, and is overwritten; ``edges`` is [E, 2] joint
    indices.  One channel's float64 transient is held at a time, its
    deviations and then its steps, and then one bone's extents at a time.
    A mask's False times a finite term gives the +0.0 or -0.0 that stands
    for a term left out (squared or taken absolute, +0.0)."""
    present = np.isfinite(body)  # per channel; channels of one joint agree
    body[~present] = 0.0
    count = present.sum(axis=2)  # [B, 3, V]
    step_present = present[:, :, 1:, :] & present[:, :, :-1, :]  # none when T = 1
    joint_present = present.all(axis=1)  # [B, T, V]
    mean = _mean_over_frames(body, count)
    std, speed = np.empty_like(mean), np.empty_like(mean)
    buffer = np.empty_like(body[:, :1])  # [B, 1, T, V]
    for c in range(3):
        ch = slice(c, c + 1)
        dev = np.subtract(body[:, ch], mean[:, ch, None, :], out=buffer)
        dev *= present[:, ch]
        dev *= dev
        std[:, ch] = np.sqrt(_mean_over_frames(dev, count[:, ch]))
        step = np.subtract(body[:, ch, 1:], body[:, ch, :-1], out=buffer[:, :, 1:])
        np.abs(step, out=step)
        step *= step_present[:, ch]
        speed[:, ch] = _mean_over_frames(step, step_present[:, ch].sum(axis=2))
    del buffer, dev, step, present

    # one row per (sample, edge): the bone's length in each frame, and
    # whether both of its joints are present there
    length = np.empty((body.shape[0], len(edges), body.shape[2]))  # [B, E, T]
    for e, (i, j) in enumerate(edges.tolist()):  # one bone at a time
        extent = body[..., i] - body[..., j]  # [B, 3, T]
        extent *= extent
        length[:, e] = extent.sum(axis=1)
    length = np.sqrt(length, out=length).reshape(-1, body.shape[2])
    a, b = edges.T
    usable = (joint_present[:, :, a] & joint_present[:, :, b]).transpose(0, 2, 1).reshape(length.shape)
    used = usable.sum(axis=1)
    bones = np.zeros(used.size)
    for c in sorted(set(used[used > 0].tolist())):
        rows = np.flatnonzero(used == c)
        bones[rows] = length[rows][usable[rows]].reshape(rows.size, c).mean(axis=1)

    n = body.shape[0]
    return np.concatenate(
        [mean.reshape(n, -1), std.reshape(n, -1), speed.reshape(n, -1), bones.reshape(n, -1)], axis=1
    )


def embed_baseline(dataset: Dataset, graph: SkeletonGraph | None = None) -> EmbeddingMatrix:
    """Embed every sample of the dataset; reads body slot 0 only, so the
    content of padding body slots never influences the row."""
    if not len(dataset):
        raise ValueError("dataset has no samples")
    num_joints = dataset.data.shape[3]
    if graph is None:
        graph = default_skeleton_graph() if num_joints == 25 else chain_graph(num_joints)
    if graph.num_joints != num_joints:
        raise ValueError(
            f"graph covers {graph.num_joints} joints but data has {num_joints}"
        )
    edges = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
    rows = np.empty((len(dataset), 9 * num_joints + len(edges)))
    for block in sample_blocks(dataset.data.shape[:4], 17):  # 17 bytes a scalar of slot 0
        rows[block] = _embed_block(dataset.data[block, ..., 0].astype(np.float64), edges)
    return EmbeddingMatrix(values=rows, sample_ids=dataset.sample_ids, source="builtin")


def save_embeddings(matrix: EmbeddingMatrix, path: str | Path) -> None:
    if matrix.width == 0:
        raise FormatError("refusing to write a zero-width embedding matrix")
    write_container(path, SKEMB_MAGIC, "<II", matrix.values.shape, matrix.values, matrix.sample_ids)


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    with read_container(path, SKEMB_MAGIC, "<II") as (handle, (n, width)):
        if width == 0:
            raise FormatError(f"{path}: zero-width embedding matrix")
        rows, ids, _ = read_records(handle, (n, width), np.float64)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}: non-finite value in the row of {ids[np.argmin(finite)]!r}")
    return EmbeddingMatrix(values=rows, sample_ids=ids, source="external")


def align_to_dataset(matrix: EmbeddingMatrix, dataset: Dataset) -> EmbeddingMatrix:
    """Reorder rows to the dataset's sample order; ids must match as a set."""
    want = dataset.sample_ids
    have = set(matrix.sample_ids)
    if have != set(want):
        missing = sorted(set(want) - have)[:5]
        extra = sorted(have - set(want))[:5]
        raise IdMismatch(f"embedding ids differ from dataset ids (missing={missing}, extra={extra})")
    position = {sid: i for i, sid in enumerate(matrix.sample_ids)}
    order = [position[sid] for sid in want]
    return EmbeddingMatrix(values=matrix.values[order], sample_ids=list(want), source=matrix.source)
