"""Per-sample feature embeddings.

The built-in embedding is a deterministic, missing-aware statistics vector
over body slot 0: per-joint temporal mean, per-joint temporal standard
deviation, per-joint mean absolute per-channel velocity (3V values each),
followed by one mean bone length per skeleton edge.  Width is therefore
``9 * V + len(edges)``.  Statistics over empty support (a joint or bone
never observed) are 0, so rows never contain NaN.

Learned 256-wide encoder features can be swapped in through the SKEMB file
interface without touching any downstream stage::

    magic  b"SKEMB1"
    u32    N, u32 D             (little endian)
    N records: u32 id length, UTF-8 id, D f32 values
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import FormatError, IdMismatch
from .formats import read_exact, read_str, write_str
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


def _masked_mean(values: np.ndarray, present: np.ndarray, axis: int) -> np.ndarray:
    count = present.sum(axis=axis)
    total = np.where(present, values, 0.0).sum(axis=axis)
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def _embed_one(body: np.ndarray, graph: SkeletonGraph) -> np.ndarray:
    """body is [3, T, V] float64 with NaN for missing joint instances."""
    present = np.isfinite(body)  # per channel; channels of one joint agree
    mean = _masked_mean(body, present, axis=1)  # [3, V]
    dev = np.where(present, body - mean[:, None, :], 0.0)
    var = _masked_mean(dev * dev, present, axis=1)
    std = np.sqrt(var)

    if body.shape[1] > 1:
        step = body[:, 1:, :] - body[:, :-1, :]
        step_present = present[:, 1:, :] & present[:, :-1, :]
        speed = _masked_mean(np.where(step_present, np.abs(step), 0.0), step_present, axis=1)
    else:
        speed = np.zeros_like(mean)

    joint_present = present.all(axis=0)  # [T, V]
    bones = np.zeros(len(graph.edges), dtype=np.float64)
    for e_idx, (a, b) in enumerate(graph.edges):
        both = joint_present[:, a] & joint_present[:, b]  # [T]
        if both.any():
            seg = body[:, both, a] - body[:, both, b]  # [3, T_ok]
            bones[e_idx] = np.sqrt((seg * seg).sum(axis=0)).mean()

    return np.concatenate([mean.ravel(), std.ravel(), speed.ravel(), bones])


def embed_baseline(dataset: Dataset, graph: SkeletonGraph | None = None) -> EmbeddingMatrix:
    """Embed every sample of the dataset; reads body slot 0 only, so the
    content of padding body slots never influences the row."""
    if not dataset.samples:
        raise ValueError("dataset has no samples")
    num_joints = dataset.samples[0].num_joints
    for seq in dataset.samples:
        if seq.num_joints != num_joints:
            raise ValueError("samples disagree in joint count")
    if graph is None:
        graph = default_skeleton_graph() if num_joints == 25 else chain_graph(num_joints)
    if graph.num_joints != num_joints:
        raise ValueError(
            f"graph covers {graph.num_joints} joints but data has {num_joints}"
        )
    rows = np.stack(
        [_embed_one(seq.data[:, :, :, 0].astype(np.float64), graph) for seq in dataset.samples]
    )
    return EmbeddingMatrix(values=rows, sample_ids=dataset.sample_ids, source="builtin")


def save_embeddings(matrix: EmbeddingMatrix, path: str | Path) -> None:
    if matrix.width == 0:
        raise FormatError("refusing to write a zero-width embedding matrix")
    with open(path, "wb") as handle:
        handle.write(SKEMB_MAGIC)
        handle.write(struct.pack("<II", matrix.values.shape[0], matrix.width))
        for row, sid in zip(matrix.values, matrix.sample_ids):
            write_str(handle, sid)
            handle.write(np.ascontiguousarray(row, dtype="<f4").tobytes())


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    with open(path, "rb") as handle:
        magic = handle.read(6)
        if magic != SKEMB_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {SKEMB_MAGIC!r}")
        n, width = struct.unpack("<II", read_exact(handle, 8, "header"))
        if width == 0:
            raise FormatError(f"{path}: zero-width embedding matrix")
        # each record holds at least a 4-byte id length and the row itself
        left = os.fstat(handle.fileno()).st_size - handle.tell()
        if n * (4 + 4 * width) > left:
            raise FormatError(
                f"{path}: truncated: header claims {n} rows of width {width}, "
                f"but only {left} bytes follow"
            )
        ids: list[str] = []
        rows = np.empty((n, width), dtype=np.float64)
        for i in range(n):
            ids.append(read_str(handle, "sample id"))
            raw = read_exact(handle, width * 4, f"row of {ids[-1]}")
            rows[i] = np.frombuffer(raw, dtype="<f4")
        if handle.read(1):
            raise FormatError(f"{path}: trailing bytes after {n} records")
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate sample ids")
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
