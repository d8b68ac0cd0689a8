"""Dataset wire formats, and the container of every binary artifact.

The splits (SKL1), the embeddings (SKEMB) and the k-means model (SKKM) are
each a magic, a header of little-endian fields and records of ``<f4``
values, in SKL1 and SKEMB after a sample id (u32 byte length, UTF-8)::

    SKL1   magic b"SKL1", header u32 N, C, T, V, M; N records of an id, an
           i32 label (-1 when absent) and C*T*V*M values in (C, T, V, M) order
    SKEMB  magic b"SKEMB1", header u32 N, D; N records of an id and D values
    SKKM   magic b"SKKM1", header u32 K, u32 D, f64 inertia, u64 seed;
           K records of D values, the centroids

Only :func:`read_container`, :func:`read_records` and
:func:`write_container` know this framing.  A read refuses, naming the
file, a wrong magic; a header or record cut short; a header count the bytes
left cannot hold, before anything sized by it is allocated; a byte after
the last record; and a sample id that repeats, or that is not UTF-8
(naming its byte).  A write refuses an id with no UTF-8 form (a lone
surrogate, as a file name that is not UTF-8 decodes to) before it opens the
file.  Each codec adds its own refusals: SKL1 a channel count other than
3, a dimension of 0 and no records; SKEMB a width of 0; SKKM a K or D of 0;
SKEMB and SKKM a non-finite value, a signalling NaN included.  SKL1 values
are copied to and from the file without arithmetic, so NaN payload bits
survive.

Both dataset readers refuse a joint instance that is NaN in only some of
its channels, or that has an infinite coordinate (see the data model in
:mod:`skelfill.data`), once the file's structure has passed: so a file
with more than one fault is reported at its first structural fault.

The CSV tables, the dataset, the labels and the occlusion record
(``sample_id,t,v,m,x,y,z``, its rules in :mod:`skelfill.occlusion`), share
one framing: UTF-8 whatever the locale, a header of the table's columns,
lines ending in CRLF and fields quoted as RFC 4180 requires (by
:mod:`csv`).  :func:`read_table` reads each table and refuses, naming the
file, another header (blanks around a name allowed), a row of another
width and text that is not UTF-8, each but the header at its line; it
skips blank rows.  :func:`write_table` writes the labels and the record,
and refuses an id with no UTF-8 form before it opens the file; the
dataset writer formats its rows itself, for speed and the base copy.

CSV (interchange dataset, lossy for NaN payload bits)::

    sample_id,label,t,v,m,x,y,z    header
    one row per joint instance, in (sample, t, v, m) order

Each coordinate is the ``repr`` of the float64 it widens to (for float32
data, the usual case), the shortest text that reads back to the same
float64, and ``nan`` when it is missing.  That is not the shortest text for
the float32: float32 0.1 is written ``0.10000000149011612``, though ``0.1``
reads back to the same float32.  An unlabelled sample has an empty
label.  The reader refuses a sample that lacks the row of some
(t, v, m) or repeats one, and an index below 0 or not below the sample's
row count (no complete sample has one), naming it as written before
anything sized by it is allocated.  Each of ``t``, ``v``, ``m`` and the label
is an optional minus sign and ASCII digits; other text is refused, naming
the line.  A label must fit the int32 of SKL1, whose writer refuses one that
does not.  Both readers read a label below 0 as none.

A CSV write may be given a *base*: a CSV file this writer wrote from
float32 data, and the dataset a read of it returns.  Each row of a float32
sample whose x, y, z keep their bits (as ``uint32``) in the base sample of
the same place is then copied, line for line, from the base file, and only
the other rows are formatted; the file equals a fresh write byte for byte.
The base file is read one sample at a time.  A sample whose base lines do
not start with the ``sample_id,label,t,v,m,`` text of a fresh write (a base
label below 0, for one, reads back as none) is formatted fresh.  So is the
whole file when the base differs in ids, order, count or shape, or when an
id holds CR or LF, which would split its rows over more lines.

Labels CSV::

    sample_id,label

Its reader refuses a label outside int64, or written other than as an
optional minus sign and ASCII digits, naming the line.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .data import NUM_CHANNELS, Dataset, SkeletonSequence, _int, first_invalid_instance, sample_blocks
from .errors import FormatError

SKL1_MAGIC = b"SKL1"
_INVALID = "joint instance partly NaN or not finite"
_DEFAULT_NAN = np.float32(np.nan)
DATASET_COLUMNS = ("sample_id", "label", "t", "v", "m", "x", "y", "z")
LABEL_COLUMNS = ("sample_id", "label")
_CSV_HEADER = ",".join(DATASET_COLUMNS) + "\r\n"
_I32, _I64 = range(-1 << 31, 1 << 31), range(-1 << 63, 1 << 63)

# a CSV file this module wrote and the dataset a read of it returns: the
# base whose unchanged rows a CSV write copies (see the module docstring)
Base = tuple[str | Path, Dataset]


def _int_in(span: range, text: str, what: str) -> int:
    """The integer ``text``, refused naming ``what`` and the text outside ``span``."""
    if (value := _int(text)) not in span:
        raise FormatError(f"{what} {text} outside {span.start}..{span.stop - 1}")
    return value


def _read_exact(handle: BinaryIO, count: int, what: str) -> bytes:
    """Read ``count`` bytes of a file.  A count beyond the bytes left, as a
    corrupt length field gives, is refused before anything is allocated."""
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    buf = handle.read(count) if count <= left else b""
    if len(buf) != count:
        raise FormatError(
            f"{handle.name}: truncated stream while reading {what}: "
            f"{count} bytes wanted, {left} left"
        )
    return buf


def encode_id(sample_id: str, path: str | Path) -> bytes:
    """``sample_id`` as UTF-8; an id with no UTF-8 form is refused naming
    ``path``, which may hold the same lone surrogates, escaped like the id."""
    try:
        return sample_id.encode("utf-8")
    except UnicodeEncodeError as exc:
        where = str(path).encode("utf-8", "backslashreplace").decode("utf-8")
        raise FormatError(f"{where}: sample id {sample_id!r} is not UTF-8: {exc.reason}") from None


def _refuse_repeated_ids(sample_ids: list[str], path: str | Path) -> None:
    if len(set(sample_ids)) != len(sample_ids):
        raise FormatError(f"{path}: duplicate sample ids")


@contextlib.contextmanager
def read_container(path: str | Path, magic: bytes, header: str) -> Iterator[tuple[BinaryIO, tuple]]:
    """The file ``path`` past its ``magic`` and the fields of its ``header``
    struct; a byte left once the caller has read the records is refused."""
    with open(path, "rb") as handle:
        found = handle.read(len(magic))
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
        yield handle, struct.unpack(header, _read_exact(handle, struct.calcsize(header), "header"))
        if handle.read(1):
            raise FormatError(f"{path}: trailing bytes after the last record")


# a signalling NaN word widens to a quiet NaN without a warning; the readers
# of float64 records refuse it as non-finite
@np.errstate(invalid="ignore")
def read_records(handle: BinaryIO, shape: tuple[int, ...], dtype, *, ids: bool = True,
                 labels: bool = False) -> tuple[np.ndarray, list[str], list[int]]:
    """The ``dtype`` array of the rows of ``shape[1:]`` of ``shape[0]`` records,
    read in place once the bytes left can hold that many, and the records'
    sample ids and i32 labels, each when asked for."""
    n, size = shape[0], math.prod(shape[1:])
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    if n * (4 * ids + 4 * labels + 4 * size) > left:  # each record's least size
        raise FormatError(f"{handle.name}: truncated: header claims {n} records of {4 * size} "
                          f"data bytes, but only {left} bytes follow")
    data, sample_ids, label_list = np.empty(shape, dtype=dtype), [], []
    for i, row in enumerate(data.reshape(n, size)):
        if ids:
            (length,) = struct.unpack("<I", _read_exact(handle, 4, "sample id length"))
            try:
                sample_ids.append(_read_exact(handle, length, "sample id").decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise FormatError(f"{handle.name}: sample id is not UTF-8: {exc.reason} "
                                  f"at byte {handle.tell() - length + exc.start}") from None
        if labels:
            label_list.append(struct.unpack("<i", _read_exact(handle, 4, "label"))[0])
        what = f"data of {sample_ids[-1]}" if ids else f"record {i}"
        row[:] = np.frombuffer(_read_exact(handle, 4 * size, what), "<f4")
    _refuse_repeated_ids(sample_ids, handle.name)
    return data, sample_ids, label_list


def write_container(path: str | Path, magic: bytes, header: str, fields: tuple, rows: np.ndarray,
                    ids: list[str] | None = None, labels: list[int] | None = None) -> None:
    """Write ``magic``, the ``header`` struct of ``fields`` and a record of
    each row of ``rows``, after its id and label when given, to ``path``,
    which is not opened when an id is refused."""
    raw_ids = None if ids is None else [encode_id(sid, path) for sid in ids]
    with open(path, "wb") as handle:
        handle.write(magic + struct.pack(header, *fields))
        for i, row in enumerate(rows):
            if raw_ids is not None:
                handle.write(struct.pack("<I", len(raw_ids[i])) + raw_ids[i])
            if labels is not None:
                handle.write(struct.pack("<i", labels[i]))
            handle.write(np.ascontiguousarray(row, dtype="<f4"))


def decode_utf8(data: bytes, fault: Callable[[int, str], Exception]) -> str:
    """``data`` decoded as UTF-8; else raises ``fault(line, what)``, given the
    line of the first bad byte, as :meth:`str.splitlines` counts lines, and
    what is wrong there.  Every text input is decoded here."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; a stand-in for it counts the line it is on
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise fault(line, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def text_lines(path: str | Path, error: Callable[[str], Exception]) -> list[tuple[int, str]]:
    """The lines of the text file ``path``, read as UTF-8 whatever the
    locale, each stripped and with its number, leaving out blank and ``#``
    lines; text that is not UTF-8 raises ``error("{path}:{line}: {what}")``."""
    text = decode_utf8(Path(path).read_bytes(), lambda line, what: error(f"{path}:{line}: {what}"))
    return [(number, line) for number, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and not line.startswith("#")]


def read_table(path: str | Path, columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Each row but blank ones of the CSV table ``path`` of ``columns``, and
    the line it ends on; a fault of the framing (see the module docstring)
    raises :class:`FormatError`."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [name.strip() for name in header] != list(columns):
                found = "none" if header is None else ",".join(header)
                raise FormatError(f"{path}: unexpected header {found!r}, expected {','.join(columns)!r}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(columns):
                    raise FormatError(f"{path}:{reader.line_num}: expected {len(columns)} columns, "
                                      f"got {len(row)}")
                yield reader.line_num, row
    except UnicodeDecodeError:
        decode_utf8(Path(path).read_bytes(), lambda line, what: FormatError(f"{path}:{line}: {what}"))
        raise


def write_table(path: str | Path, columns: tuple[str, ...], rows: Iterable[Iterable],
                ids: Iterable[str]) -> None:
    """Write the CSV table of ``columns`` and ``rows`` to ``path``, which is
    not opened when one of ``ids``, the sample ids the rows hold, has no
    UTF-8 form."""
    for sid in ids:
        encode_id(sid, path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def sha256_file(path: str | Path) -> str:
    digest, buf = hashlib.sha256(), bytearray(1 << 20)  # one buffer, refilled in place
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buf):
            digest.update(memoryview(buf)[:size])
    return digest.hexdigest()


def _infer_body_present(data: np.ndarray) -> np.ndarray:
    """[N, M]: a slot holds a body iff its slab of ``data`` [N, 3, T, V, M]
    has any nonzero or NaN (!= 0) value; a sample with none owns slot 0."""
    present = np.empty((len(data), data.shape[-1]), dtype=bool)
    for rows in sample_blocks(data.shape, 4):  # 4 bytes a float32 scalar
        present[rows] = (data[rows] != 0).any(axis=(1, 2, 3))
    present[~present.any(axis=1), 0] = True
    return present


def _as_read(data: np.ndarray, sample_ids: list[str], labels: list[int | None],
             path: str | Path, fmt: str, split_tag: str) -> Dataset:
    """The dataset a read of the ``fmt`` file ``path`` returns for ``data``
    [N, 3, T, V, M] and its samples' ids and labels: float32 data, refused
    when a joint instance is invalid; no label for one
    below 0; and the body slots :func:`_infer_body_present` finds."""
    data = np.ascontiguousarray(data, dtype=np.float32)
    bad = first_invalid_instance(data)
    if bad is not None:
        sid, tvm = sample_ids[bad[0]], bad[1:]
        where = f"{path}:{_last_csv_line(path, sid, tvm)}" if fmt == "csv" else path
        raise FormatError(f"{where}: sample {sid!r}: {_INVALID} at (t, v, m) = {tvm}")
    labels = [None if label is None or label < 0 else int(label) for label in labels]
    return Dataset(data, [SkeletonSequence(row, sid, label, present) for row, sid, label, present
                          in zip(data, sample_ids, labels, _infer_body_present(data))], split_tag)


def write_skl1(dataset: Dataset, path: str | Path) -> None:
    if not len(dataset):
        raise FormatError("refusing to write an empty dataset")
    labels = [-1 if seq.label is None else int(seq.label) for seq in dataset.samples]
    for seq, label in zip(dataset.samples, labels):
        if label not in _I32:
            raise FormatError(f"{path}: sample {seq.sample_id!r}: label {seq.label} outside int32")
    write_container(path, SKL1_MAGIC, "<IIIII", dataset.data.shape, dataset.data,
                    dataset.sample_ids, labels)


def read_skl1(path: str | Path, split_tag: str = "train") -> Dataset:
    with read_container(path, SKL1_MAGIC, "<IIIII") as (handle, (n, c, t, v, m)):
        if c != NUM_CHANNELS:
            raise FormatError(f"{path}: expected {NUM_CHANNELS} channels, header says {c}")
        if min(t, v, m) < 1:
            raise FormatError(f"{path}: degenerate dimensions T={t} V={v} M={m}")
        if n == 0:
            raise FormatError(f"{path}: header declares no records")
        data, ids, labels = read_records(handle, (n, c, t, v, m), np.float32, labels=True)
    return _as_read(data, ids, labels, path, "skl1", split_tag)


def _csv_prefix(seq: SkeletonSequence) -> str:
    """The ``sample_id,label,`` text of every row of ``seq``, quoted by
    :mod:`csv` as its rows would be."""
    buf = io.StringIO()
    csv.writer(buf).writerow([seq.sample_id, "" if seq.label is None else seq.label])
    return buf.getvalue()[:-2] + ","  # drop the "\r\n" line end


def _format_rows(heads: list[str], xyz: np.ndarray) -> list[str]:
    """The CSV rows of ``[3, n]`` coordinates, each after its
    ``sample_id,label,t,v,m,`` text in ``heads``."""
    return [f"{head}{x!r},{y!r},{z!r}\r\n"
            for head, (x, y, z) in zip(heads, xyz.T.astype(np.float64).tolist())]


@contextlib.contextmanager
def _base_samples(dataset: Dataset, base: Base | None) -> Iterator[Iterator]:
    """For each sample of ``dataset``, the lines of the sample at the same
    place in ``base`` and its ``[3, n]`` float32 coordinates; ``(None,
    None)`` for every sample when the base can lend nothing (see the module
    docstring).  The base file is read one sample at a time."""
    ids = dataset.sample_ids
    if (base is None or base[1].sample_ids != ids or base[1].data.shape != dataset.data.shape
            or any("\r" in sid or "\n" in sid for sid in ids)):
        yield itertools.repeat((None, None))
        return
    coords = np.asarray(base[1].data, dtype=np.float32).reshape(len(ids), NUM_CHANNELS, -1)
    with open(base[0], newline="", encoding="utf-8") as handle:
        if handle.readline() != _CSV_HEADER:
            yield itertools.repeat((None, None))
            return
        yield ((list(itertools.islice(handle, coords.shape[2])), xyz) for xyz in coords)


def write_dataset_csv(dataset: Dataset, path: str | Path, base: Base | None = None) -> None:
    """Write ``dataset`` as CSV (see the module docstring), each sample as one
    joined string; :mod:`csv` quotes only the id and label.  With ``base``,
    each row whose coordinates keep their bits is copied from the base
    file, and only the others are formatted."""
    if not len(dataset):
        raise FormatError("refusing to write an empty dataset")
    for sid in dataset.sample_ids:  # refused before the file is opened
        encode_id(sid, path)
    tvm = [f"{t},{v},{m}," for t, v, m in np.ndindex(dataset.data.shape[2:])]
    with open(path, "w", newline="", encoding="utf-8") as handle, _base_samples(dataset, base) as lent:
        handle.write(_CSV_HEADER)
        coords = dataset.data.reshape(len(dataset), NUM_CHANNELS, -1)
        for seq, xyz, (lines, old) in zip(dataset.samples, coords, lent):
            prefix = _csv_prefix(seq)
            heads = [prefix + text for text in tvm]
            if (old is None or xyz.dtype != np.float32 or len(lines) != len(heads)
                    or not all(map(str.startswith, lines, heads))):
                handle.write("".join(_format_rows(heads, xyz)))
                continue
            changed = np.flatnonzero((xyz.view(np.uint32) != old.view(np.uint32)).any(axis=0)).tolist()
            for i, row in zip(changed, _format_rows([heads[i] for i in changed], xyz[:, changed])):
                lines[i] = row
            handle.write("".join(lines))


def read_dataset_csv(path: str | Path, split_tag: str = "train") -> Dataset:
    order: list[str] = []
    rows: dict[str, list[tuple[int, int, int, float, float, float]]] = {}
    labels: dict[str, int | None] = {}
    for lineno, row in read_table(path, DATASET_COLUMNS):
        sid = row[0]
        try:
            if sid not in rows:
                labels[sid] = _int_in(_I32, row[1], f"{path}:{lineno}: label") if row[1] else None
                rows[sid] = []
                order.append(sid)
            t, v, m = _int(row[2]), _int(row[3]), _int(row[4])
            x, y, z = float(row[5]), float(row[6]), float(row[7])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed numeric field") from None
        if not 0 <= t | v | m < 1 << 62:  # each is in [0, 2**62) just when their OR is
            raise FormatError(_index_fault(path, sid, (t, v, m)) + f", line {lineno}")
        rows[sid].append((t, v, m, x, y, z))
    if not order:
        raise FormatError(f"{path}: no data rows")

    data = None
    for i, sid in enumerate(order):
        table = np.array(rows[sid], dtype=np.float64)  # [row, (t, v, m, x, y, z)]
        tvm = table[:, :3].astype(np.int64)
        beyond = np.flatnonzero((tvm >= len(tvm)).any(axis=1))  # no complete sample has it
        if beyond.size:
            raise FormatError(_index_fault(path, sid, rows[sid][beyond[0]][:3]))
        shape = tuple((tvm.max(axis=0) + 1).tolist())
        flat = np.ravel_multi_index(tvm.T, shape)
        # a complete sample holds each position of its shape once, so its
        # sorted positions are 0..n-1; at the first index i where they differ,
        # position i is missing or position ranks[i] repeated, whichever is first
        ranks = np.sort(flat)
        off = np.flatnonzero(ranks != np.arange(ranks.size))
        if off.size or ranks.size != math.prod(shape):
            pos = min(off[0], ranks[off[0]]) if off.size else ranks.size
            first = tuple(int(i) for i in np.unravel_index(pos, shape))
            raise FormatError(f"{path}: sample {sid!r}: {np.count_nonzero(flat == pos)} rows "
                              f"for (t, v, m) = {first}, expected exactly 1")
        if data is None:
            data = np.empty((len(order), NUM_CHANNELS, *shape), dtype=np.float32)
        elif shape != data.shape[2:]:
            raise FormatError(f"{path}: samples disagree in shape: {sid} has "
                              f"{(NUM_CHANNELS, *shape)}, expected {data.shape[1:]}")
        data[i].reshape(NUM_CHANNELS, -1)[:, flat] = table[:, 3:].T
    return _as_read(data, order, [labels[sid] for sid in order], path, "csv", split_tag)


def _index_fault(path: str | Path, sid: str, tvm: tuple[int, int, int]) -> str:
    return (f"{path}: sample {sid!r}: {'negative' if min(tvm) < 0 else 'out-of-range'} "
            f"index (t, v, m) = ({', '.join(map(str, tvm))})")


def _last_csv_line(path: str | Path, sid: str, tvm: tuple[int, int, int]) -> int:
    """The line of the row of ``tvm`` of sample ``sid``: found again only on
    error, so a read keeps no line number per row."""
    return [line for line, row in read_table(path, DATASET_COLUMNS)
            if row[0] == sid and tuple(map(int, row[2:5])) == tvm][-1]


def write_dataset(
    dataset: Dataset, path: str | Path, fmt: str = "skl1", *, base: Base | None = None
) -> None:
    """Write ``dataset`` to ``path`` in ``fmt``; a CSV write copies the
    unchanged rows of ``base`` (see the module docstring), an SKL1 write
    ignores it."""
    if fmt == "skl1":
        write_skl1(dataset, path)
    elif fmt == "csv":
        write_dataset_csv(dataset, path, base)
    else:
        raise FormatError(f"unknown dataset format {fmt!r}")


def dataset_as_written(dataset: Dataset, path: str | Path, fmt: str, split_tag: str) -> Dataset:
    """What ``read_dataset(path, split_tag)`` returns once
    ``write_dataset(dataset, path, fmt)`` has written ``path``, built without
    reading it back; a repeated id or an invalid joint instance raises a
    :class:`FormatError`, as the read does.  A CSV file holds every NaN as
    ``nan``, which reads back as the default NaN whatever its payload was."""
    _refuse_repeated_ids(dataset.sample_ids, path)
    data = _default_nans(dataset.data) if fmt == "csv" else dataset.data
    return _as_read(data, dataset.sample_ids, [seq.label for seq in dataset.samples],
                    path, fmt, split_tag)


def _default_nans(data: np.ndarray) -> np.ndarray:
    """``data`` as float32 with every NaN the default NaN; a new array only
    when some NaN differs from it."""
    data = np.asarray(data, dtype=np.float32)
    nan = np.isnan(data)
    if (data[nan].view(np.uint32) == _DEFAULT_NAN.view(np.uint32)).all():
        return data
    return np.where(nan, _DEFAULT_NAN, data)


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
    write_table(path, LABEL_COLUMNS, ((sid, int(lab)) for sid, lab in zip(sample_ids, labels)),
                sample_ids)


def read_labels_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    ids: list[str] = []
    labels: list[int] = []
    for lineno, (sid, label) in read_table(path, LABEL_COLUMNS):
        try:
            labels.append(_int_in(_I64, label, f"{path}:{lineno}: label"))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer label {label!r}") from None
        ids.append(sid)
    return ids, np.asarray(labels, dtype=np.int64)
