"""Capture parsing and the canonical in-memory data model.

The canonical tensor layout is ``[C, T, V, M]`` float32: C=3 coordinate
channels, T frames, V joints, M body slots.  A missing joint instance is
encoded as NaN in all three channels at once; zeros mean "present at the
origin" (padding for absent bodies), never "missing".

All container types are treated as immutable after construction: operations
return new objects and never write into arrays they received.

Text capture layout (one capture per file)::

    <frame count>
    per frame:   <body count>
    per body:    <metadata line, first token = body id>
                 <joint count>
                 one line per joint: x y z [extra fields ignored]
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import EmptyCapture, MalformedCapture

log = logging.getLogger(__name__)

NUM_CHANNELS = 3

# 0-based index of the mid-spine joint in the standard 25-joint layout,
# used as the default origin for relative coordinates.
DEFAULT_CENTER_JOINT = 1


@dataclass
class JointRecord:
    x: float
    y: float
    z: float
    tracking_state: int = 2


@dataclass
class BodyRecord:
    body_id: str
    joints: list[JointRecord]


@dataclass
class FrameRecord:
    bodies: list[BodyRecord]


@dataclass
class RawCapture:
    """Parsed capture text, frame structure preserved as-is."""

    frames: list[FrameRecord]

    @property
    def joint_count(self) -> int:
        for frame in self.frames:
            if frame.bodies:
                return len(frame.bodies[0].joints)
        return 0


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

    @property
    def num_bodies(self) -> int:
        return self.data.shape[3]


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
    samples: list[SkeletonSequence]
    masks: list[MissingMask]
    split_tag: str = "train"

    @classmethod
    def from_sequences(cls, samples: list[SkeletonSequence], split_tag: str = "train") -> "Dataset":
        return cls(samples=samples, masks=[compute_missing_mask(s) for s in samples], split_tag=split_tag)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def sample_ids(self) -> list[str]:
        return [s.sample_id for s in self.samples]


def parse_ntu_skeleton(text: str | IO[str]) -> RawCapture:
    """Parse one capture from text following the layout in the module docstring.

    Counts are trusted and verified against the stream; any violation raises
    :class:`MalformedCapture` carrying the offending 1-based line number.
    Only the first three fields of a joint line are interpreted as
    coordinates; a trailing integer field, when present, is kept as the
    tracking state.
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
            value = int(raw)
        except ValueError:
            raise MalformedCapture(f"expected integer {what}, got {raw!r}", line=pos) from None
        if value < 0:
            raise MalformedCapture(f"negative {what}: {value}", line=pos)
        return value

    frame_count = take_count("frame count")
    if frame_count == 0:
        raise MalformedCapture("capture declares zero frames", line=1)

    joint_count: int | None = None
    frames: list[FrameRecord] = []
    for _ in range(frame_count):
        body_count = take_count("body count")
        bodies: list[BodyRecord] = []
        for _ in range(body_count):
            meta = take("body metadata").split()
            body_id = meta[0] if meta else ""
            declared = take_count("joint count")
            if joint_count is None:
                joint_count = declared
            elif declared != joint_count:
                raise MalformedCapture(
                    f"joint count {declared} differs from earlier count {joint_count}", line=pos
                )
            joints: list[JointRecord] = []
            for _ in range(declared):
                fields = take("joint line").split()
                if len(fields) < 3:
                    raise MalformedCapture("joint line has fewer than 3 fields", line=pos)
                try:
                    x, y, z = float(fields[0]), float(fields[1]), float(fields[2])
                except ValueError:
                    raise MalformedCapture("non-numeric coordinate in joint line", line=pos) from None
                if not all(map(math.isfinite, (x, y, z))):
                    raise MalformedCapture("non-finite coordinate in joint line", line=pos)
                tracking = 2
                if len(fields) >= 12:
                    try:
                        tracking = int(float(fields[11]))
                    except ValueError:
                        pass  # optional trailing field, ignored when unreadable
                joints.append(JointRecord(x, y, z, tracking))
            bodies.append(BodyRecord(body_id=body_id, joints=joints))
        frames.append(FrameRecord(bodies=bodies))

    while pos < len(lines):
        if lines[pos].strip():
            raise MalformedCapture("trailing content after declared frames", line=pos + 1)
        pos += 1

    return RawCapture(frames=frames)


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


def _body_motion_energy(coords_by_frame: list[np.ndarray | None]) -> float:
    """Total squared frame-to-frame displacement over frames where the body
    is present in both of a consecutive pair."""
    energy = 0.0
    prev: np.ndarray | None = None
    for cur in coords_by_frame:
        if cur is not None and prev is not None:
            diff = cur - prev
            energy += float(np.nansum(diff * diff))
        prev = cur
    return energy


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
    Bodies are ranked by total motion energy, descending, ties broken by
    first appearance; the top ``max_bodies`` fill the body slots in rank
    order and the rest are dropped.  Slots without a body, and frames where
    a kept body is absent, are zero-filled; those slots are flagged in
    ``body_present``.
    """
    if target_frames < 1:
        raise ValueError("target_frames must be >= 1")
    if max_bodies < 1:
        raise ValueError("max_bodies must be >= 1")

    first_seen: dict[str, int] = {}
    per_frame: list[dict[str, np.ndarray]] = []
    for f_idx, frame in enumerate(raw.frames):
        coords: dict[str, np.ndarray] = {}
        for body in frame.bodies:
            arr = np.array([[j.x, j.y, j.z] for j in body.joints], dtype=np.float64)  # [V, 3]
            coords[body.body_id] = arr
            first_seen.setdefault(body.body_id, f_idx)
        per_frame.append(coords)

    if not first_seen:
        raise EmptyCapture("capture contains no bodies")
    num_joints = raw.joint_count

    energy = {
        bid: _body_motion_energy([coords.get(bid) for coords in per_frame])
        for bid in first_seen
    }
    ranked = sorted(first_seen, key=lambda bid: (-energy[bid], first_seen[bid]))
    kept = ranked[:max_bodies]

    src = resample_indices(len(raw.frames), target_frames)
    data = np.zeros((NUM_CHANNELS, target_frames, num_joints, max_bodies), dtype=np.float32)
    for slot, bid in enumerate(kept):
        for t_idx, f_idx in enumerate(src):
            arr = per_frame[f_idx].get(bid)
            if arr is not None:
                data[:, t_idx, :, slot] = arr.T.astype(np.float32)

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
        log.warning(
            "sample %s: center joint missing in %d (frame, body) slots; left untranslated",
            seq.sample_id, skipped,
        )
    return seq.with_data(out)


def first_invalid_instance(data: np.ndarray) -> tuple[int, int, int] | None:
    """The first (t, v, m), in C order, of a ``[3, T, V, M]`` tensor whose
    joint instance is only partly NaN or has an infinite coordinate; None
    when every instance is either finite or NaN in all three channels."""
    bad = ~(np.isfinite(data).all(axis=0) | np.isnan(data).all(axis=0))
    return tuple(int(i) for i in np.argwhere(bad)[0]) if bad.any() else None


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
