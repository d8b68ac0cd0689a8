"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from skelfill import Dataset, OcclusionRecord, SkeletonSequence


def seq_of(data, sample_id="s0", label=None, body_present=None) -> SkeletonSequence:
    data = np.asarray(data, dtype=np.float32)
    return SkeletonSequence(
        data=data, sample_id=sample_id, label=label,
        body_present=None if body_present is None else np.asarray(body_present, dtype=bool),
    )


def dataset_of(*seqs: SkeletonSequence, split: str = "train") -> Dataset:
    return Dataset.from_sequences(list(seqs), split_tag=split)


def random_dataset(
    rng: np.random.Generator,
    n: int,
    frames: int = 3,
    joints: int = 4,
    bodies: int = 1,
    split: str = "train",
    prefix: str = "r",
) -> Dataset:
    seqs = []
    for i in range(n):
        data = rng.uniform(-10.0, 10.0, size=(3, frames, joints, bodies)).astype(np.float32)
        seqs.append(SkeletonSequence(data=data, sample_id=f"{prefix}{i:04d}", label=None))
    return Dataset.from_sequences(seqs, split_tag=split)


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise array equality; NaN payloads must match too."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_dataset(got: Dataset, want: Dataset) -> None:
    """``got`` equals ``want`` as a read returns it: ids in order, labels
    (``None``, not -1), split tag, float32 data bit for bit with NaN
    payloads, body slots and masks."""
    assert got.split_tag == want.split_tag
    assert got.sample_ids == want.sample_ids
    assert [repr(s.label) for s in got.samples] == [repr(s.label) for s in want.samples]
    assert len(got.masks) == len(got.samples)
    for a, b, mask_a, mask_b in zip(got.samples, want.samples, got.masks, want.masks):
        assert a.data.dtype == b.data.dtype == np.float32, a.sample_id
        assert a.data.shape == b.data.shape, a.sample_id
        assert np.array_equal(a.data.view(np.uint32), b.data.view(np.uint32)), a.sample_id
        assert a.body_present.dtype == b.body_present.dtype == bool, a.sample_id
        assert np.array_equal(a.body_present, b.body_present), a.sample_id
        assert np.array_equal(mask_a.frame_mask, mask_b.frame_mask), a.sample_id
        assert np.array_equal(mask_a.joint_row, mask_b.joint_row), a.sample_id


def record_from(entries: dict) -> OcclusionRecord:
    """The record of ``entries``: sample id -> ((t, v, m) rows, their
    values), each sample's rows in (t, v, m) order, in the smallest grid
    that holds them."""
    rows = [np.reshape(np.asarray(idx, dtype=np.int64), (-1, 3)) for idx, _ in entries.values()]
    t, v, m = np.concatenate([np.empty((0, 3), np.int64), *rows]).T
    values = [row for _, vals in entries.values() for row in np.reshape(vals, (-1, 3)).tolist()]
    return OcclusionRecord.of_rows(list(entries), [len(idx) for idx in rows], t, v, m, values)


def entries_of(record: OcclusionRecord) -> dict:
    """``record`` as sample id -> ((t, v, m) rows [n, 3] int32, their values
    [n, 3] float32), every recorded sample included."""
    starts = [0, *record.ends.tolist()]
    return {sid: (np.stack(np.unravel_index(record.position[start:end], record.grid), axis=1).astype(np.int32),
                  record.values[start:end])
            for sid, start, end in zip(record.sample_ids, starts, starts[1:])}


def capture_text(frames) -> str:
    """Build capture text.  ``frames`` is a list of frames; each frame is a
    list of (body_id, coords) where coords is an iterable of (x, y, z)."""
    lines = [str(len(frames))]
    for bodies in frames:
        lines.append(str(len(bodies)))
        for body_id, coords in bodies:
            lines.append(f"{body_id} 0 0 0 0 0 0 0 0 2")
            coords = list(coords)
            lines.append(str(len(coords)))
            for x, y, z in coords:
                lines.append(f"{x} {y} {z}")
    return "\n".join(lines) + "\n"


def write_two_body_captures(directory, count: int = 6) -> None:
    """``count`` two-body captures of four joints, named like NTU files of
    two actions.  In the first, the second body sits motionless at one
    point, so after ingest its slot is all zeros: present in memory, but
    not in a dataset read back."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(31)
    for i in range(count):
        frames = []
        for _ in range(6):
            active = rng.uniform(-1, 1, size=(4, 3))
            other = np.full((4, 3), 0.5) if i == 0 else rng.uniform(-0.2, 0.2, size=(4, 3))
            frames.append([(1, active.tolist()), (2, other.tolist())])
        (directory / f"S001C001P{i:03d}R001A{1 + i % 2:03d}.skeleton").write_text(capture_text(frames))
