"""Dataset wire formats.

SKL1 (binary dataset container)::

    magic  b"SKL1"
    u32    N, C, T, V, M          (little endian)
    N records:
        u32    id byte length
        bytes  sample id, UTF-8
        i32    label, -1 when absent
        f32[]  C*T*V*M values, row-major in (C, T, V, M) order

Float payloads round-trip bit-exactly: values are copied to and from the
file without any arithmetic, so NaN payload bits survive.

Both dataset readers refuse a joint instance that is NaN in only some of
its channels, or that has an infinite coordinate (see the data model in
:mod:`skelfill.data`).

CSV (interchange dataset, lossy for NaN payload bits)::

    sample_id,label,t,v,m,x,y,z    one row per joint instance

Labels CSV::

    sample_id,label
"""

from __future__ import annotations

import csv
import hashlib
import os
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .data import NUM_CHANNELS, Dataset, SkeletonSequence, first_invalid_instance
from .errors import FormatError

SKL1_MAGIC = b"SKL1"
_INVALID = "joint instance partly NaN or not finite"


def read_exact(handle: BinaryIO, count: int, what: str) -> bytes:
    """Read ``count`` bytes of a file.  A count beyond the bytes left, as a
    corrupt header field gives, is refused before anything is allocated."""
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    buf = handle.read(count) if count <= left else b""
    if len(buf) != count:
        raise FormatError(
            f"{handle.name}: truncated stream while reading {what}: "
            f"{count} bytes wanted, {left} left"
        )
    return buf


def write_str(handle: BinaryIO, value: str) -> None:
    raw = value.encode("utf-8")
    handle.write(struct.pack("<I", len(raw)))
    handle.write(raw)


def read_str(handle: BinaryIO, what: str) -> str:
    (length,) = struct.unpack("<I", read_exact(handle, 4, f"{what} length"))
    return read_exact(handle, length, what).decode("utf-8")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _infer_body_present(data: np.ndarray) -> np.ndarray:
    """A slot holds a body iff its slab has any nonzero or NaN value."""
    slab_nan = np.isnan(data).any(axis=(0, 1, 2))
    slab_nonzero = (data != 0).any(axis=(0, 1, 2))
    present = slab_nan | slab_nonzero
    if not present.any():
        present[0] = True  # degenerate all-zero sample still owns slot 0
    return present


def write_skl1(dataset: Dataset, path: str | Path) -> None:
    samples = dataset.samples
    if not samples:
        raise FormatError("refusing to write an empty dataset")
    shape = samples[0].data.shape
    for seq in samples:
        if seq.data.shape != shape:
            raise FormatError(
                f"samples disagree in shape: {seq.sample_id} has {seq.data.shape}, expected {shape}"
            )
    c, t, v, m = shape
    with open(path, "wb") as handle:
        handle.write(SKL1_MAGIC)
        handle.write(struct.pack("<IIIII", len(samples), c, t, v, m))
        for seq in samples:
            write_str(handle, seq.sample_id)
            label = -1 if seq.label is None else int(seq.label)
            handle.write(struct.pack("<i", label))
            handle.write(np.ascontiguousarray(seq.data, dtype="<f4").tobytes())


def read_skl1(path: str | Path, split_tag: str = "train") -> Dataset:
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != SKL1_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {SKL1_MAGIC!r}")
        n, c, t, v, m = struct.unpack("<IIIII", read_exact(handle, 20, "header"))
        if c != NUM_CHANNELS:
            raise FormatError(f"{path}: expected {NUM_CHANNELS} channels, header says {c}")
        if min(t, v, m) < 1:
            raise FormatError(f"{path}: degenerate dimensions T={t} V={v} M={m}")
        samples = []
        slab_bytes = c * t * v * m * 4
        for _ in range(n):
            sample_id = read_str(handle, "sample id")
            (label,) = struct.unpack("<i", read_exact(handle, 4, "label"))
            raw = read_exact(handle, slab_bytes, f"data of {sample_id}")
            data = np.frombuffer(raw, dtype="<f4").reshape(c, t, v, m).copy()
            bad = first_invalid_instance(data)
            if bad is not None:
                raise FormatError(f"{path}: sample {sample_id!r}: {_INVALID} at (t, v, m) = {bad}")
            samples.append(
                SkeletonSequence(
                    data=data,
                    sample_id=sample_id,
                    label=None if label < 0 else int(label),
                    body_present=_infer_body_present(data),
                )
            )
        if handle.read(1):
            raise FormatError(f"{path}: trailing bytes after {n} records")
    return Dataset.from_sequences(samples, split_tag=split_tag)


def _format_value(value: float) -> str:
    # repr of the exact float64 the f32 widens to; shortest round-trip text
    return "nan" if np.isnan(value) else repr(float(value))


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    if not dataset.samples:
        raise FormatError("refusing to write an empty dataset")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample_id", "label", "t", "v", "m", "x", "y", "z"])
        for seq in dataset.samples:
            label = "" if seq.label is None else str(seq.label)
            _, t_n, v_n, m_n = seq.data.shape
            for t in range(t_n):
                for v in range(v_n):
                    for m in range(m_n):
                        writer.writerow(
                            [seq.sample_id, label, t, v, m]
                            + [_format_value(seq.data[c, t, v, m]) for c in range(3)]
                        )


def read_dataset_csv(path: str | Path, split_tag: str = "train") -> Dataset:
    order: list[str] = []
    rows: dict[str, list[tuple[int, int, int, float, float, float]]] = {}
    labels: dict[str, int | None] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:5]] != ["sample_id", "label", "t", "v", "m"]:
            raise FormatError(f"{path}: unexpected CSV header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 8:
                raise FormatError(f"{path}:{lineno}: expected 8 columns, got {len(row)}")
            sid = row[0]
            try:
                if sid not in rows:
                    labels[sid] = int(row[1]) if row[1] not in ("", "-1") else None
                    rows[sid] = []
                    order.append(sid)
                t, v, m = int(row[2]), int(row[3]), int(row[4])
                x, y, z = float(row[5]), float(row[6]), float(row[7])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: malformed numeric field") from None
            rows[sid].append((t, v, m, x, y, z))
    if not order:
        raise FormatError(f"{path}: no data rows")

    samples = []
    for sid in order:
        entries = rows[sid]
        t_n = max(e[0] for e in entries) + 1
        v_n = max(e[1] for e in entries) + 1
        m_n = max(e[2] for e in entries) + 1
        data = np.full((NUM_CHANNELS, t_n, v_n, m_n), np.nan, dtype=np.float32)
        for t, v, m, x, y, z in entries:
            data[:, t, v, m] = (x, y, z)
        bad = first_invalid_instance(data)
        if bad is not None:
            line = _last_csv_line(path, sid, bad)
            raise FormatError(f"{path}:{line}: sample {sid!r}: {_INVALID} at (t, v, m) = {bad}")
        samples.append(
            SkeletonSequence(
                data=data,
                sample_id=sid,
                label=labels[sid],
                body_present=_infer_body_present(data),
            )
        )
    return Dataset.from_sequences(samples, split_tag=split_tag)


def _last_csv_line(path: str | Path, sid: str, tvm: tuple[int, int, int]) -> int:
    """The line of the row that set ``tvm`` of sample ``sid``: found again
    only on error, so a read keeps no line number per row."""
    with open(path, newline="") as handle:
        rows = enumerate(csv.reader(handle), start=1)
        next(rows)  # header
        return [n for n, row in rows if row[:1] == [sid] and tuple(map(int, row[2:5])) == tvm][-1]


def write_dataset(dataset: Dataset, path: str | Path, fmt: str = "skl1") -> None:
    if fmt == "skl1":
        write_skl1(dataset, path)
    elif fmt == "csv":
        write_dataset_csv(dataset, path)
    else:
        raise FormatError(f"unknown dataset format {fmt!r}")


def read_dataset(path: str | Path, split_tag: str = "train") -> Dataset:
    """Dispatch on content: SKL1 magic means binary, anything else is CSV."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
    if magic == SKL1_MAGIC:
        return read_skl1(path, split_tag=split_tag)
    return read_dataset_csv(path, split_tag=split_tag)


def write_labels_csv(sample_ids: list[str], labels, path: str | Path) -> None:
    if len(sample_ids) != len(labels):
        raise FormatError("sample ids and labels differ in length")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample_id", "label"])
        for sid, lab in zip(sample_ids, labels):
            writer.writerow([sid, int(lab)])


def read_labels_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    ids: list[str] = []
    labels: list[int] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["sample_id", "label"]:
            raise FormatError(f"{path}: unexpected labels header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise FormatError(f"{path}:{lineno}: expected 2 columns")
            try:
                labels.append(int(row[1]))
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-integer label {row[1]!r}") from None
            ids.append(row[0])
    return ids, np.asarray(labels, dtype=np.int64)
