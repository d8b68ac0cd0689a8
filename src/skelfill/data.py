"""Capture parsing and the canonical in-memory data model.

The canonical tensor layout of a sample is ``[C, T, V, M]`` float32: C=3
coordinate channels, T frames, V joints, M body slots.  A missing joint
instance is encoded as NaN in all three channels at once; zeros mean
"present at the origin" (padding for absent bodies), never "missing".

A :class:`Dataset` is one split held as one ``[N, C, T, V, M]`` array, so
every sample of a dataset has one shape; each sample's ``data`` is a view of
its row.  The missing-data masks of a dataset are computed when read.

All container types are treated as immutable after construction: operations
return new objects and never write into arrays they received.

Text capture layout (one capture per file, parsed into a :class:`RawCapture`)::

    <frame count>
    per frame:   <body count>
    per body:    <metadata line, first token = body id>
                 <joint count, at least 1 and the same for every body>
                 one line per joint: x y z [extra fields ignored]
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .errors import EmptyCapture, FormatError, MalformedCapture

NUM_CHANNELS = 3

# 0-based index of the mid-spine joint in the standard 25-joint layout,
# used as the default origin for relative coordinates.
DEFAULT_CENTER_JOINT = 1

# the least magnitude that a cast to float32 rounds to infinity
_F32_INF = 2.0**128 - 2.0**103

# Bytes of working memory one block of a pass over a split holds, whatever its size.  Each pass
# reads it when called and divides it by the bytes of its unit, stated there; each unit and its history:
# - a float32 scalar of samples, 4 (2**18): 300-frame ranges took 6 ms in place, 80 with a block copy
# - a float64 difference of k-means, 8 (2**17): default cluster stage 0.34-0.47 s, 0.85-1.09 at 256 rows
# - a record row, 128 (2**13): default baseline and scoring 0.160 s, 0.150 at 2**14 rows, 0.190 copied
# - a fill block's cell, 8 a candidate, 64 a slot: coarse-sparse peak +1.9 MiB at 3 MiB, +0.25 at 256 KiB
# - a gathered scalar, 64 (2**14), beside the bounds' arrays: a whole [member, 256] gather +0.35 MiB
# - a slot-0 scalar of the embedding, 17 (16 samples at 50 frames; 10-13 raised benchmark peaks 0.1-0.3 MiB)
# ``imputation.BLOCK_COLUMNS`` is a BLAS shape, not a memory bound, so it stays apart.
BLOCK_BYTES = 1 << 20


@dataclass
class RawCapture:
    """A parsed capture, one entry per body record in file order.

    frame_index  [B] int, the frame of each record
    body_ids     [B] str, the first token of each record's metadata line
    coords       [B, V, 3] float64, the x, y, z of each joint of each record
    frame_count  frames declared, counting those that hold no body
    """

    frame_index: np.ndarray
    body_ids: list[str]
    coords: np.ndarray
    frame_count: int


@dataclass
class SkeletonSequence:
    """One canonical sample.

    data          [C, T, V, M] float32, NaN for missing joint instances
    body_present  [M] bool, False for zero-padded body slots
    """

    data: np.ndarray
    sample_id: str
    label: int | None = None
    body_present: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.data.ndim != 4 or self.data.shape[0] != NUM_CHANNELS:
            raise ValueError(f"expected [3, T, V, M] data, got shape {self.data.shape}")
        if self.body_present is None:
            self.body_present = np.ones(self.data.shape[3], dtype=bool)

    def with_data(self, data: np.ndarray) -> "SkeletonSequence":
        """A copy holding ``data``, with the same id and label and its own
        copy of ``body_present``."""
        return SkeletonSequence(
            data=data, sample_id=self.sample_id, label=self.label,
            body_present=self.body_present.copy(),
        )

    @property
    def num_frames(self) -> int:
        return self.data.shape[1]

    @property
    def num_joints(self) -> int:
        return self.data.shape[2]


@dataclass
class MissingMask:
    """Boolean views of where a sample is missing.

    frame_mask  [T, V, M], True where the joint instance is NaN
    joint_row   [V], True where the joint is missing in any frame of body 0
    """

    frame_mask: np.ndarray
    joint_row: np.ndarray


@dataclass
class Dataset:
    """One split: ``data`` [N, 3, T, V, M], with ``samples[i].data`` a view
    of ``data[i]``, as :meth:`from_sequences` and :meth:`with_data` build it."""

    data: np.ndarray
    samples: list[SkeletonSequence]
    split_tag: str = "train"

    @classmethod
    def from_sequences(cls, samples: list[SkeletonSequence], split_tag: str = "train") -> "Dataset":
        """The samples stacked into one array; refused unless they share one shape."""
        for seq in samples[1:]:
            if seq.data.shape != samples[0].data.shape:
                raise FormatError(f"samples disagree in shape: {seq.sample_id} has "
                                  f"{seq.data.shape}, expected {samples[0].data.shape}")
        data = (np.stack([seq.data for seq in samples]) if samples
                else np.empty((0, NUM_CHANNELS, 0, 0, 0), dtype=np.float32))
        return cls(data, samples, split_tag).with_data(data)

    def with_data(self, data: np.ndarray) -> "Dataset":
        """The same samples (ids, labels, copies of ``body_present``) and
        split holding ``data`` [N, 3, T, V, M], each sample a view of it."""
        return Dataset(data, [seq.with_data(row) for seq, row in zip(self.samples, data)],
                       self.split_tag)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def sample_ids(self) -> list[str]:
        return [s.sample_id for s in self.samples]

    @property
    def masks(self) -> list[MissingMask]:
        """Each sample's :class:`MissingMask`, computed on every read."""
        return [compute_missing_mask(s) for s in self.samples]


def _int(text: str) -> int:
    """The integer ``text``, written as an optional minus sign and ASCII
    digits; ``int`` alone would also take spaces, ``_``, ``+`` and other
    digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_ntu_skeleton(text: str | IO[str]) -> RawCapture:
    """Parse one capture from text following the layout in the module docstring.

    Counts are trusted and verified against the stream; any violation raises
    :class:`MalformedCapture` carrying the offending 1-based line number.
    Only the first three fields of a joint line are read, as coordinates;
    tracking state and any other field are ignored.  A coordinate must be
    finite and stay finite as float32, the type of the canonical tensor.

    The structure (the counts, the metadata lines and the end of the text)
    is checked before any joint line is read.  So a capture with more than
    one fault is reported at its first structural fault, or else at its
    first bad joint line, even where a bad joint line comes earlier.
    """
    if hasattr(text, "read"):
        text = text.read()
    lines = text.splitlines()
    pos = 0  # index of the next unread line; current line number == pos after a take

    def take(what: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise MalformedCapture(f"unexpected end of stream while reading {what}", line=len(lines) + 1)
        value = lines[pos]
        pos += 1
        return value

    def take_count(what: str) -> int:
        raw = take(what).strip()
        try:
            value = _int(raw)
        except ValueError:
            raise MalformedCapture(f"expected integer {what}, got {raw!r}", line=pos) from None
        if value < 0:
            raise MalformedCapture(f"negative {what}: {value}", line=pos)
        return value

    frame_count = take_count("frame count")
    if frame_count == 0:
        raise MalformedCapture("capture declares zero frames", line=1)

    num_joints = 0
    frame_index: list[int] = []
    body_ids: list[str] = []
    starts: list[int] = []  # index of each body's first joint line
    for f_idx in range(frame_count):
        for _ in range(take_count("body count")):
            meta = take("body metadata").split()
            frame_index.append(f_idx)
            body_ids.append(meta[0] if meta else "")
            declared = take_count("joint count")
            if declared == 0:
                raise MalformedCapture("body declares zero joints", line=pos)
            if not num_joints:
                num_joints = declared
            elif declared != num_joints:
                raise MalformedCapture(
                    f"joint count {declared} differs from earlier count {num_joints}", line=pos
                )
            if pos + declared > len(lines):
                raise MalformedCapture("unexpected end of stream while reading joint line",
                                       line=len(lines) + 1)
            starts.append(pos)
            pos += declared

    while pos < len(lines):
        if lines[pos].strip():
            raise MalformedCapture("trailing content after declared frames", line=pos + 1)
        pos += 1

    coords = _joint_coords(lines, starts, num_joints)
    return RawCapture(frame_index=np.array(frame_index, dtype=np.intp), body_ids=body_ids,
                      coords=coords.reshape(len(body_ids), num_joints, 3), frame_count=frame_count)


def _joint_coords(lines: list[str], starts: list[int], num_joints: int) -> np.ndarray:
    """The x, y, z of the ``num_joints`` joint lines from each index in
    ``starts``, ``[len(starts) * num_joints, 3]`` float64.

    One C pass reads every joint line.  ``loadtxt`` converts each field as
    ``float()`` does, correctly rounded, but refuses some text ``float()``
    takes (``1_0``, non-ASCII digits) and skips blank lines.  So when the
    pass raises, returns fewer rows, or finds a value out of range,
    :func:`_joint_coords_per_line` reads the lines again one by one; it
    raises at the first bad line, or returns what ``float()`` reads.
    """
    joint_lines = [line for start in starts for line in lines[start:start + num_joints]]
    if not joint_lines:
        return np.empty((0, 3))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # only blank lines: the row count below tells
            coords = np.loadtxt(joint_lines, dtype=np.float64, comments=None,
                                usecols=(0, 1, 2), ndmin=2)
    except ValueError:
        coords = None
    if coords is None or len(coords) != len(joint_lines) or not (np.abs(coords) < _F32_INF).all():
        coords = _joint_coords_per_line(lines, starts, num_joints)
    return coords


def _joint_coords_per_line(lines: list[str], starts: list[int], num_joints: int) -> np.ndarray:
    """:func:`_joint_coords`, one ``float()`` per field, raising
    :class:`MalformedCapture` at the first bad joint line."""
    coords: list[tuple[float, float, float]] = []
    for start in starts:
        for line in range(start + 1, start + num_joints + 1):  # 1-based
            fields = lines[line - 1].split()
            if len(fields) < 3:
                raise MalformedCapture("joint line has fewer than 3 fields", line=line)
            try:
                x, y, z = float(fields[0]), float(fields[1]), float(fields[2])
            except ValueError:
                raise MalformedCapture("non-numeric coordinate in joint line", line=line) from None
            if not (-_F32_INF < x < _F32_INF and -_F32_INF < y < _F32_INF
                    and -_F32_INF < z < _F32_INF):  # NaN fails every comparison
                finite = all(map(math.isfinite, (x, y, z)))
                raise MalformedCapture(("coordinate beyond the float32 range" if finite else
                                        "non-finite coordinate") + " in joint line", line=line)
            coords.append((x, y, z))
    return np.array(coords, dtype=np.float64)


def resample_indices(source_frames: int, target_frames: int) -> list[int]:
    """Nearest source index for each target frame, no interpolation.

    Uses ``floor(i * (S - 1) / (T - 1) + 0.5)`` (round half up); a single
    target frame takes source frame 0.
    """
    if source_frames < 1 or target_frames < 1:
        raise ValueError("frame counts must be positive")
    if target_frames == 1:
        return [0]
    span = source_frames - 1
    return [int(math.floor(i * span / (target_frames - 1) + 0.5)) for i in range(target_frames)]


def squared_motion(data: np.ndarray) -> np.ndarray:
    """Squared displacement of each coordinate between consecutive frames of
    a ``[3, T, ...]`` array, shaped ``[3, T - 1, ...]``; 0 where the joint
    instance is not finite in both frames of the pair."""
    prev, cur = data[:, :-1], data[:, 1:]
    valid = np.isfinite(prev).all(axis=0) & np.isfinite(cur).all(axis=0)
    diff = np.where(valid[None], cur - prev, 0.0)
    return diff * diff


def to_canonical(
    raw: RawCapture,
    target_frames: int,
    max_bodies: int,
    *,
    sample_id: str = "",
    label: int | None = None,
) -> SkeletonSequence:
    """Turn a parsed capture into a fixed-shape ``[3, T, V, M]`` tensor.

    Frames are resampled by nearest index (see :func:`resample_indices`).
    Bodies are ranked by total motion energy (:func:`squared_motion` over
    the frames where the body is present), descending, ties broken by first
    appearance; the top ``max_bodies`` fill the body slots in rank order and
    the rest are dropped.  Slots without a body, and frames where a kept
    body is absent, are zero-filled; those slots are flagged in
    ``body_present``.
    """
    if target_frames < 1:
        raise ValueError("target_frames must be >= 1")
    if max_bodies < 1:
        raise ValueError("max_bodies must be >= 1")

    column: dict[str, int] = {}  # body id -> column, in order of first appearance
    record: dict[tuple[int, int], int] = {}  # (frame, column) -> its last record
    for i, (f_idx, body_id) in enumerate(zip(raw.frame_index.tolist(), raw.body_ids)):
        record[f_idx, column.setdefault(body_id, len(column))] = i
    if not column:
        raise EmptyCapture("capture contains no bodies")

    # every body stacked once: [3, F, V, bodies] float64, NaN where a body is absent
    stacked = np.full((NUM_CHANNELS, raw.frame_count, raw.coords.shape[1], len(column)), np.nan)
    frames, bodies = np.array(list(record)).T
    stacked[:, frames, :, bodies] = raw.coords[list(record.values())].transpose(0, 2, 1)

    energy = squared_motion(stacked).sum(axis=(0, 1, 2))
    kept = np.argsort(-energy, kind="stable")[:max_bodies]

    chosen = stacked[:, resample_indices(raw.frame_count, target_frames)][:, :, :, kept]
    data = np.zeros((NUM_CHANNELS, target_frames, stacked.shape[2], max_bodies), dtype=np.float32)
    data[:, :, :, : len(kept)] = np.where(np.isnan(chosen), 0.0, chosen)

    body_present = np.zeros(max_bodies, dtype=bool)
    body_present[: len(kept)] = True
    return SkeletonSequence(data=data, sample_id=sample_id, label=label, body_present=body_present)


def preprocess_relative(seq: SkeletonSequence, center_joint: int = DEFAULT_CENTER_JOINT) -> SkeletonSequence:
    """Express every joint relative to the center joint, per frame and body.

    Frames whose center joint is itself missing are left untranslated and
    counted in a warning.  Idempotent whenever the center joint is fully
    present (it then sits at the origin).
    """
    if not 0 <= center_joint < seq.num_joints:
        raise ValueError(f"center joint {center_joint} outside 0..{seq.num_joints - 1}")
    data = seq.data
    center = data[:, :, center_joint, :]  # [3, T, M]
    center_present = np.isfinite(center).all(axis=0)  # [T, M]
    shifted = data - center[:, :, None, :]
    out = np.where(center_present[None, :, None, :], shifted, data).astype(np.float32)

    skipped = int((~center_present).sum())
    if skipped:
        import logging  # loaded, with traceback and string, only by a run that warns

        logging.getLogger(__name__).warning(
            "sample %s: center joint missing in %d (frame, body) slots; left untranslated",
            seq.sample_id, skipped,
        )
    return seq.with_data(out)


def block_units(unit_bytes: int) -> int:
    """How many units of ``unit_bytes`` bytes one block holds, one at least."""
    return max(1, BLOCK_BYTES // unit_bytes)


def sample_blocks(shape: tuple[int, ...], scalar_bytes: int) -> Iterator[slice]:
    """Consecutive slices, in order, of the rows of an ``[N, ...]`` array of
    ``shape``: as many whole rows as one block holds at ``scalar_bytes``
    bytes a scalar (:func:`block_units`), and one at least."""
    step = block_units(scalar_bytes * max(1, math.prod(shape[1:])))
    return (slice(start, min(start + step, shape[0])) for start in range(0, shape[0], step))


def first_invalid_instance(data: np.ndarray) -> tuple[int, int, int, int] | None:
    """The first (n, t, v, m), in C order, of a ``[N, 3, T, V, M]`` array
    whose joint instance is only partly NaN or has an infinite coordinate;
    None when every instance is either finite or NaN in all three channels.
    Checked over blocks of samples, in order."""
    for rows in sample_blocks(data.shape, 4):  # 4 bytes a float32 scalar
        block = data[rows]
        bad = ~(np.isfinite(block).all(axis=1) | np.isnan(block).all(axis=1))
        if bad.any():
            n, *tvm = np.argwhere(bad)[0].tolist()
            return (rows.start + n, *tvm)
    return None


def compute_missing_mask(seq: SkeletonSequence) -> MissingMask:
    """Boolean missing-data views; the per-joint row reads body slot 0."""
    frame_mask = np.isnan(seq.data).all(axis=0)  # [T, V, M]
    joint_row = frame_mask[:, :, 0].any(axis=0)  # [V]
    return MissingMask(frame_mask=frame_mask, joint_row=joint_row)


def build_missing_matrix(dataset: Dataset) -> np.ndarray:
    """Stack per-sample joint rows into the batch missing matrix [N, V]."""
    if not dataset.masks:
        raise ValueError("dataset has no samples")
    return np.stack([m.joint_row for m in dataset.masks], axis=0)
