"""Wire-format round trips, including NaN payload preservation."""

from __future__ import annotations

import csv
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import skelfill.data

from conftest import assert_same_dataset, bits_equal, dataset_of, random_dataset, seq_of
from skelfill import formats
from skelfill.clustering import ClusterModel, load_model, save_model
from skelfill.data import SkeletonSequence
from skelfill.embedding import EmbeddingMatrix, load_embeddings, save_embeddings
from skelfill.errors import FormatError
from skelfill.formats import (
    SKL1_MAGIC,
    dataset_as_written,
    read_dataset,
    read_dataset_csv,
    read_labels_csv,
    read_skl1,
    write_dataset,
    write_dataset_csv,
    write_labels_csv,
    write_skl1,
)
from skelfill.occlusion import OcclusionRecord


def crafted_nan(payload: int) -> np.float32:
    """A float32 NaN with explicit payload bits."""
    value = np.uint32(payload).view(np.float32)
    assert np.isnan(value)
    return value


def payload_dataset():
    rng = np.random.default_rng(41)
    a = rng.uniform(-5, 5, size=(3, 2, 3, 2)).astype(np.float32)
    # one missing triple carrying three distinct quiet-NaN payloads
    a[0, 1, 2, 0] = crafted_nan(0x7FC00123)
    a[1, 1, 2, 0] = crafted_nan(0xFFC00042)
    a[2, 1, 2, 0] = crafted_nan(0x7FC0BEEF)
    b = rng.uniform(-5, 5, size=(3, 2, 3, 2)).astype(np.float32)
    b[:, :, :, 1] = 0.0  # empty body slot
    return dataset_of(seq_of(a, "with-nan", label=4), seq_of(b, "plain", label=None))


# ---- SKL1 ------------------------------------------------------------------

def test_skl1_round_trip_is_bit_exact(tmp_path):
    dataset = payload_dataset()
    path = tmp_path / "d.skl1"
    write_skl1(dataset, path)
    loaded = read_skl1(path, split_tag="train")
    assert loaded.sample_ids == ["with-nan", "plain"]
    assert loaded.samples[0].label == 4
    assert loaded.samples[1].label is None
    for original, roundtripped in zip(dataset.samples, loaded.samples):
        assert bits_equal(original.data, roundtripped.data)
    # NaN payload bits survive exactly
    assert loaded.samples[0].data[0, 1, 2, 0].view(np.uint32) == np.uint32(0x7FC00123)


def test_skl1_rewrite_is_byte_identical(tmp_path):
    dataset = payload_dataset()
    first = tmp_path / "a.skl1"
    second = tmp_path / "b.skl1"
    write_skl1(dataset, first)
    write_skl1(read_skl1(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_skl1_infers_body_presence(tmp_path):
    path = tmp_path / "d.skl1"
    write_skl1(payload_dataset(), path)
    loaded = read_skl1(path)
    assert loaded.samples[0].body_present.tolist() == [True, True]
    assert loaded.samples[1].body_present.tolist() == [True, False]


def test_skl1_all_zero_sample_keeps_slot_zero(tmp_path):
    data = np.zeros((3, 1, 2, 2), dtype=np.float32)
    path = tmp_path / "z.skl1"
    write_skl1(dataset_of(seq_of(data, "z")), path)
    assert read_skl1(path).samples[0].body_present.tolist() == [True, False]


def test_skl1_bad_magic(tmp_path):
    path = tmp_path / "bad.skl1"
    path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxxxxx")
    with pytest.raises(FormatError, match="magic"):
        read_skl1(path)


def test_skl1_truncation(tmp_path):
    dataset = payload_dataset()
    path = tmp_path / "d.skl1"
    write_skl1(dataset, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(FormatError, match="truncated"):
        read_skl1(path)


def test_skl1_trailing_bytes(tmp_path):
    path = tmp_path / "d.skl1"
    write_skl1(payload_dataset(), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_skl1(path)


def test_skl1_rejects_wrong_channel_count(tmp_path):
    path = tmp_path / "c4.skl1"
    with open(path, "wb") as handle:
        handle.write(SKL1_MAGIC)
        handle.write(struct.pack("<IIIII", 0, 4, 1, 1, 1))
    with pytest.raises(FormatError, match="channels"):
        read_skl1(path)


def test_skl1_rejects_degenerate_dimensions(tmp_path):
    path = tmp_path / "d0.skl1"
    with open(path, "wb") as handle:
        handle.write(SKL1_MAGIC)
        handle.write(struct.pack("<IIIII", 0, 3, 5, 0, 1))
    with pytest.raises(FormatError, match="degenerate"):
        read_skl1(path)


def test_skl1_refuses_a_file_of_no_records(tmp_path):
    path = tmp_path / "n0.skl1"
    path.write_bytes(SKL1_MAGIC + struct.pack("<IIIII", 0, 3, 5, 4, 1))
    with pytest.raises(FormatError, match=re.escape(f"{path}: header declares no records")):
        read_skl1(path)


def test_skl1_refuses_a_repeated_sample_id(tmp_path):
    data = np.ones((3, 2, 3, 1), dtype=np.float32)
    dataset = dataset_of(seq_of(data, "a"), seq_of(data, "b"), seq_of(data, "a"))
    path = tmp_path / "dup.skl1"
    write_skl1(dataset, path)
    message = re.escape(f"{path}: duplicate sample ids")
    with pytest.raises(FormatError, match=message):
        read_skl1(path)
    # the dataset a pipeline hands on in place of reading the file is refused alike
    for fmt in ("skl1", "csv"):
        with pytest.raises(FormatError, match=message):
            dataset_as_written(dataset, path, fmt, "train")


def test_skl1_refuses_more_records_than_the_file_can_hold_before_allocating(tmp_path):
    # two records of 144 data bytes each; three need at least 3 * (4 + 4 + 144) bytes
    path = tmp_path / "d.skl1"
    write_skl1(payload_dataset(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 3) + raw[8:])
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: truncated: header claims 3 records of 144 data bytes, but only "
            f"{len(raw) - 24} bytes follow")):
        read_skl1(path)


@pytest.mark.parametrize("bad", [(0, np.nan), (1, np.inf), (2, -np.inf)])
def test_skl1_rejects_partly_nan_and_infinite_instances(tmp_path, bad):
    channel, value = bad
    data = np.ones((3, 2, 3, 1), dtype=np.float32)
    data[:, 0, 0, 0] = np.nan  # a whole missing instance is fine
    data[channel, 1, 2, 0] = value
    path = tmp_path / "p.skl1"
    write_skl1(dataset_of(seq_of(np.ones_like(data), "good"), seq_of(data, "bad")), path)
    with pytest.raises(FormatError, match=re.escape(f"{path}: sample 'bad'") + r".*\(1, 2, 0\)"):
        read_skl1(path)


def test_skl1_rejects_empty_dataset(tmp_path):
    from skelfill.data import Dataset

    with pytest.raises(FormatError):
        write_skl1(Dataset.from_sequences([]), tmp_path / "e.skl1")


def test_skl1_rejects_mixed_shapes(tmp_path):
    a = seq_of(np.zeros((3, 2, 2, 1), dtype=np.float32), "a")
    b = seq_of(np.zeros((3, 3, 2, 1), dtype=np.float32), "b")
    with pytest.raises(FormatError, match="shape"):
        write_skl1(dataset_of(a, b), tmp_path / "m.skl1")


# ---- CSV -------------------------------------------------------------------

def test_csv_writer_rejects_mixed_shapes(tmp_path):
    a = seq_of(np.zeros((3, 2, 2, 1), dtype=np.float32), "a")
    b = seq_of(np.zeros((3, 2, 3, 1), dtype=np.float32), "b")
    with pytest.raises(FormatError, match="shape"):
        write_dataset_csv(dataset_of(a, b), tmp_path / "m.csv")
    assert not (tmp_path / "m.csv").exists()


def test_csv_reader_rejects_mixed_shapes(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("sample_id,label,t,v,m,x,y,z\n"
                    "a,0,0,0,0,1,1,1\na,0,0,1,0,1,1,1\n"
                    "b,0,0,0,0,1,1,1\n")
    with pytest.raises(FormatError) as err:
        read_dataset_csv(path)
    assert str(err.value) == (f"{path}: samples disagree in shape: "
                              "b has (3, 1, 1, 1), expected (3, 1, 2, 1)")


def test_csv_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(5)
    dataset = random_dataset(rng, 3, frames=2, joints=3, bodies=2)
    dataset.samples[0].data[:, 1, 1, 0] = np.nan
    dataset.samples[0].label = 9
    path = tmp_path / "d.csv"
    write_dataset_csv(dataset, path)
    loaded = read_dataset_csv(path)
    assert loaded.sample_ids == dataset.sample_ids
    assert loaded.samples[0].label == 9
    for original, roundtripped in zip(dataset.samples, loaded.samples):
        # repr round-trips every finite float32 exactly; NaN payloads are
        # canonicalised (documented as lossy), so compare value-wise
        assert np.array_equal(original.data, roundtripped.data, equal_nan=True)


def _row_writer_csv(dataset, path):
    """Reference: one ``csv.writer`` row per joint instance, each value the
    repr of the float64 it widens to."""
    def text(value):
        return "nan" if np.isnan(value) else repr(float(value))

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample_id", "label", "t", "v", "m", "x", "y", "z"])
        for seq in dataset.samples:
            label = "" if seq.label is None else str(seq.label)
            _, t_n, v_n, m_n = seq.data.shape
            for t in range(t_n):
                for v in range(v_n):
                    for m in range(m_n):
                        writer.writerow([seq.sample_id, label, t, v, m]
                                        + [text(seq.data[c, t, v, m]) for c in range(3)])


def test_csv_writer_bytes_match_the_row_writer(tmp_path):
    rng = np.random.default_rng(13)
    a = rng.uniform(-5, 5, size=(3, 3, 2, 2)).astype(np.float32)  # two bodies
    a[:, 1, 1, 0] = np.nan
    a[:, 0, 0, 0] = (-0.0, 1e-45, np.finfo(np.float32).max)  # 1e-45: subnormal
    a[:, :, :, 1] *= 1e-3
    b = SkeletonSequence(data=rng.normal(size=(3, 3, 2, 2)), sample_id=" sp ", label=3)  # float64
    plain = seq_of(a[:, ::-1], "plain", label=0)  # non-contiguous
    dataset = dataset_of(seq_of(a, 'a,"b"\nc', label=None), b, plain)
    write_dataset_csv(dataset, tmp_path / "new.csv")
    _row_writer_csv(dataset, tmp_path / "reference.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("sample,oops\n")
    with pytest.raises(FormatError, match="header"):
        read_dataset_csv(path)


def test_csv_rejects_short_row(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("sample_id,label,t,v,m,x,y,z\ns0,0,0,0,0,1.0\n")
    with pytest.raises(FormatError, match="columns"):
        read_dataset_csv(path)


def test_csv_rejects_malformed_numbers(tmp_path):
    path = tmp_path / "n.csv"
    for row in ("s0,0,0,0,zero,1,1,1", "s0,x,0,0,0,1,1,1"):
        path.write_text(f"sample_id,label,t,v,m,x,y,z\n{row}\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: malformed")):
            read_dataset_csv(path)


@pytest.mark.parametrize("edit", ["delete", "repeat"])
def test_csv_rejects_a_missing_or_repeated_row(tmp_path, edit):
    rng = np.random.default_rng(13)
    path = tmp_path / "d.csv"
    write_dataset_csv(random_dataset(rng, 2, frames=2, joints=3), path)
    lines = path.read_text().splitlines(keepends=True)
    row = 1 + 6 + 4  # past the header and sample 0, the row of (t, v, m) = (1, 1, 0)
    sid = lines[row].split(",")[0]
    lines[row:row + 1] = [] if edit == "delete" else [lines[row]] * 2
    path.write_text("".join(lines))
    count = 0 if edit == "delete" else 2
    message = f"{path}: sample {sid!r}: {count} rows for (t, v, m) = (1, 1, 0)"
    with pytest.raises(FormatError, match=re.escape(message)):
        read_dataset_csv(path)


def test_csv_rejects_a_negative_index(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("sample_id,label,t,v,m,x,y,z\na,0,0,0,0,1,1,1\na,0,-1,0,0,1,1,1\n")
    message = f"{path}: sample 'a': negative index (t, v, m) = (-1, 0, 0)"
    with pytest.raises(FormatError, match=re.escape(message)):
        read_dataset_csv(path)


BIG, HUGE, WIDE = 10**10, 10**400, 10**31  # beyond the rows, float64 and int64


@pytest.mark.parametrize("rows, fault", [
    (f"a,0,0,0,0,1,1,1\na,0,{BIG},{BIG},0,1,1,1", f"out-of-range index (t, v, m) = ({BIG}, {BIG}, 0)"),
    (f"a,0,{HUGE},0,0,1,1,1\na,0,0,0,0,1,1,1", f"out-of-range index (t, v, m) = ({HUGE}, 0, 0), line 2"),
    (f"a,0,0,0,0,1,1,1\na,0,-{WIDE},0,0,1,1,1", f"negative index (t, v, m) = (-{WIDE}, 0, 0), line 3"),
], ids=["beyond-the-rows", "beyond-float64", "beyond-int64"])
def test_csv_refuses_an_index_out_of_range_naming_it(tmp_path, rows, fault):
    # each of t, v, m is at least 0 and below the sample's row count
    path = tmp_path / "i.csv"
    path.write_text(f"sample_id,label,t,v,m,x,y,z\n{rows}\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: sample 'a': {fault}")):
        read_dataset_csv(path)


def test_csv_refuses_a_label_outside_int32(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text(f"sample_id,label,t,v,m,x,y,z\na,{10**23},0,0,0,1,1,1\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:2: label {10**23} outside")):
        read_dataset_csv(path)
    path.write_text(f"sample_id,label,t,v,m,x,y,z\na,{2**31 - 1},0,0,0,1,1,1\n")
    assert read_dataset_csv(path).samples[0].label == 2**31 - 1


@pytest.mark.parametrize("field", ["label", "t", "v", "m"])
@pytest.mark.parametrize("text", [" 0_1 ", "1_0", " 1", "+1", "\u0661"])
def test_csv_refuses_an_integer_other_than_a_sign_and_digits(tmp_path, field, text):
    # Python's int takes spaces, "_", "+" and non-ASCII digits; no writer does
    row = dict(label="0", t="0", v="0", m="0")
    row[field] = text
    path = tmp_path / "d.csv"
    path.write_text("sample_id,label,t,v,m,x,y,z\n"
                    f"a,{row['label']},{row['t']},{row['v']},{row['m']},1,1,1\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:2: malformed numeric field")):
        read_dataset_csv(path)


def test_skl1_refuses_to_write_a_label_outside_int32(tmp_path):
    path = tmp_path / "l.skl1"
    for label in (2**31, -2**31 - 1):
        with pytest.raises(FormatError, match=re.escape(f"{path}: sample 'a': label {label} outside int32")):
            write_skl1(dataset_of(seq_of(np.ones((3, 1, 1, 1)), "a", label=label)), path)
    write_skl1(dataset_of(seq_of(np.ones((3, 1, 1, 1)), "a", label=2**31 - 1)), path)
    assert read_skl1(path).samples[0].label == 2**31 - 1


def test_csv_rejects_partly_nan_and_infinite_instances(tmp_path):
    path = tmp_path / "p.csv"
    good = "a,0,0,0,0,nan,nan,nan\na,0,1,0,0,1,1,1\n"
    for row in ("a,0,2,0,0,nan,1,2", "a,0,2,0,0,1,inf,2", "a,0,2,0,0,1,2,-inf"):
        path.write_text(f"sample_id,label,t,v,m,x,y,z\n{good}{row}\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:4: sample 'a'")):
            read_dataset_csv(path)
    path.write_text(f"sample_id,label,t,v,m,x,y,z\n{good}")
    assert np.isnan(read_dataset_csv(path).samples[0].data[:, 0, 0, 0]).all()


def test_csv_rejects_empty_body(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("sample_id,label,t,v,m,x,y,z\n")
    with pytest.raises(FormatError, match="no data"):
        read_dataset_csv(path)


# ---- dispatch ----------------------------------------------------------------

def test_read_dataset_dispatches_on_magic(tmp_path):
    rng = np.random.default_rng(11)
    dataset = random_dataset(rng, 2)
    binary = tmp_path / "d.skl1"
    text = tmp_path / "d.csv"
    write_dataset(dataset, binary, "skl1")
    write_dataset(dataset, text, "csv")
    assert read_dataset(binary).sample_ids == dataset.sample_ids
    assert read_dataset(text).sample_ids == dataset.sample_ids
    assert bits_equal(read_dataset(binary).samples[0].data, dataset.samples[0].data)


def test_write_dataset_rejects_unknown_format(tmp_path):
    with pytest.raises(FormatError):
        write_dataset(random_dataset(np.random.default_rng(0), 1), tmp_path / "x", "parquet")


# ---- a dataset as its file reads back -------------------------------------

def _unlike_its_read():
    """Samples that a write and a read change: NaN payloads, a label below
    0, float64 and non-contiguous data, and a second body slot of zeros
    that the object calls present."""
    rng = np.random.default_rng(23)
    still = rng.uniform(-5, 5, size=(3, 2, 3, 2)).astype(np.float32)
    still[:, :, :, 1] = 0.0
    return dataset_of(
        payload_dataset().samples[0],
        seq_of(still, "still", label=2, body_present=[True, True]),
        SkeletonSequence(data=rng.normal(size=(3, 2, 3, 2)), sample_id="wide", label=-5),
        seq_of(still[:, ::-1], "reversed", label=-1),
    )


@pytest.mark.parametrize("fmt", ["skl1", "csv"])
def test_dataset_as_written_is_what_the_file_reads_back(tmp_path, fmt):
    dataset = _unlike_its_read()
    path = tmp_path / f"d.{fmt}"
    write_dataset(dataset, path, fmt)
    read = read_dataset(path, split_tag="test")
    assert_same_dataset(dataset_as_written(dataset, path, fmt, "test"), read)
    # the cases differ between the object and its read
    assert [seq.label for seq in read.samples] == [4, 2, None, None]
    assert read.samples[1].body_present.tolist() == [True, False]
    payload = read.samples[0].data[:, 1, 2, 0].view(np.uint32).tolist()
    assert payload == ([0x7FC00123, 0xFFC00042, 0x7FC0BEEF] if fmt == "skl1" else [0x7FC00000] * 3)


@pytest.mark.parametrize("fmt", ["skl1", "csv"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_dataset_as_written_raises_the_reads_error(tmp_path, fmt, value):
    data = np.ones((3, 2, 2, 1), dtype=np.float32)
    data[1, 1, 0, 0] = value
    dataset = dataset_of(seq_of(np.ones_like(data), "good"), seq_of(data, "bad"))
    path = tmp_path / f"d.{fmt}"
    write_dataset(dataset, path, fmt)
    with pytest.raises(FormatError) as read_error:
        read_dataset(path)
    with pytest.raises(FormatError) as error:
        dataset_as_written(dataset, path, fmt, "train")
    assert str(error.value) == str(read_error.value)
    assert "'bad'" in str(error.value)


@pytest.mark.parametrize("scalars", [1, 80, 1 << 20])
@pytest.mark.parametrize("fmt", ["skl1", "csv"])
def test_read_checks_are_the_same_over_any_blocks_of_samples(tmp_path, monkeypatch, fmt, scalars):
    # blocks of one sample (36 scalars), of two, and of all six: the first
    # invalid instance in C order, the body slots, and the read's refusal
    rng = np.random.default_rng(41)
    data = rng.uniform(-1, 1, size=(6, 3, 2, 3, 2)).astype(np.float32)
    data[1, :, :, :, 1] = 0.0  # an absent second slot
    data[4] = 0.0  # no body at all: slot 0 holds it
    data[2, :, 1, 2, 0] = np.nan  # a missing instance, which is valid
    data[3, 1, 0, 1, 1] = np.nan  # partly NaN: the first invalid instance
    data[5, 0, 1, 0, 0] = np.inf
    dataset = dataset_of(*(seq_of(row, f"s{i}") for i, row in enumerate(data)))
    path = tmp_path / f"d.{fmt}"
    write_dataset(dataset, path, fmt)
    with pytest.raises(FormatError) as whole:
        read_dataset(path)
    monkeypatch.setattr(skelfill.data, "BLOCK_BYTES", 4 * scalars)  # 4 bytes a float32 scalar
    assert skelfill.data.first_invalid_instance(data) == (3, 0, 1, 1)
    assert skelfill.data.first_invalid_instance(np.delete(data, [3, 5], axis=0)) is None
    present = formats._infer_body_present(data)
    assert present.tolist() == [[True, True], [True, False], [True, True], [True, True],
                                [True, False], [True, True]]
    with pytest.raises(FormatError) as blocked:
        read_dataset(path)
    assert str(blocked.value) == str(whole.value)
    assert "sample 's3'" in str(blocked.value) and "(t, v, m) = (0, 1, 1)" in str(blocked.value)


# ---- a CSV write that copies the unchanged rows of its base ------------------

def _base_dataset(ids=("s0", 's,"1"', "s2"), first_label=3):
    """Three samples of 12 rows: a quoted id, a missing instance and a
    zero coordinate in each."""
    rng = np.random.default_rng(43)
    seqs = []
    for i, sid in enumerate(ids):
        data = rng.uniform(-5, 5, size=(3, 2, 3, 2)).astype(np.float32)
        data[:, 1, 2, 1] = np.nan
        data[0, 0, 1, 0] = 0.0
        seqs.append(seq_of(data, sid, label=first_label if i == 0 else i))
    return dataset_of(*seqs)


def _edited(dataset, edit, i=0):
    """``dataset`` with sample ``i``'s data passed through ``edit``."""
    seqs = list(dataset.samples)
    data = seqs[i].data.copy()
    edit(data)
    seqs[i] = seqs[i].with_data(data)
    return dataset_of(*seqs)


def _set(index, value):
    def edit(data):
        data[index] = value
    return edit


_BASE_CASES = {
    # name: (the base written, the new dataset from the base as read, rows formatted)
    "one-channel": (_base_dataset(), lambda d: _edited(d, _set((2, 1, 0, 1), 7.0), 1), 1),
    "every-row": (_base_dataset(), lambda d: dataset_of(*[
        s.with_data(np.where(np.isnan(s.data), 1, s.data + 1).astype(np.float32))
        for s in d.samples]), 36),
    "signed-zero": (_base_dataset(), lambda d: _edited(d, _set((0, 0, 1, 0), -0.0)), 1),
    "nan-payload": (_base_dataset(), lambda d: _edited(
        _edited(d, _set((slice(None), 0, 0, 0), crafted_nan(0x7FC00123)), 2),
        _set((slice(None), 1, 2, 1), crafted_nan(0x7FC0BEEF)), 2), 2),
    "label-minus-5": (_base_dataset(first_label=-5), lambda d: _edited(d, _set((1, 0, 2, 0), 2.0), 2),
                      13),
    "crlf-id": (_base_dataset(ids=("s0", 'a,"b"\r\nc', "s2")),
                lambda d: _edited(d, _set((2, 1, 0, 1), 7.0)), 36),
    "other-ids": (_base_dataset(), lambda d: dataset_of(
        *d.samples[:2], seq_of(d.samples[2].data, "s3", label=2)), 36),
    "other-order": (_base_dataset(), lambda d: dataset_of(*d.samples[::-1]), 36),
    "fewer-samples": (_base_dataset(), lambda d: dataset_of(*d.samples[:2]), 24),
    "other-shape": (_base_dataset(), lambda d: dataset_of(
        *[s.with_data(s.data[:, :, :, :1]) for s in d.samples]), 18),
    "float64-data": (_base_dataset(), lambda d: dataset_of(
        *[s.with_data(s.data.astype(np.float64)) for s in d.samples]), 36),
}


@pytest.mark.parametrize("case", sorted(_BASE_CASES))
def test_a_csv_write_with_a_base_equals_a_fresh_write(tmp_path, monkeypatch, case):
    written, derive, formatted = _BASE_CASES[case]
    base_path = tmp_path / "base.csv"
    write_dataset(written, base_path, "csv")
    base = read_dataset(base_path)
    new = derive(base)
    rows, format_rows = [], formats._format_rows
    monkeypatch.setattr(formats, "_format_rows",
                        lambda heads, xyz: rows.append(len(heads)) or format_rows(heads, xyz))
    write_dataset(new, tmp_path / "copied.csv", "csv", base=(base_path, base))
    assert sum(rows) == formatted
    write_dataset(new, tmp_path / "fresh.csv", "csv")
    assert (tmp_path / "copied.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_an_skl1_write_ignores_its_base(tmp_path):
    base_path = tmp_path / "base.csv"
    write_dataset(_base_dataset(), base_path, "csv")
    new = _edited(read_dataset(base_path), _set((2, 1, 0, 1), 7.0))
    write_dataset(new, tmp_path / "copied.skl1", base=(base_path, read_dataset(base_path)))
    write_dataset(new, tmp_path / "fresh.skl1")
    assert (tmp_path / "copied.skl1").read_bytes() == (tmp_path / "fresh.skl1").read_bytes()


# ---- labels ------------------------------------------------------------------

def test_labels_csv_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv(["a", "b", "c"], np.array([0, 2, 1]), path)
    ids, labels = read_labels_csv(path)
    assert ids == ["a", "b", "c"]
    assert labels.tolist() == [0, 2, 1]
    assert labels.dtype == np.int64


def test_labels_csv_length_mismatch():
    with pytest.raises(FormatError):
        write_labels_csv(["a"], [0, 1], "unused.csv")


def test_labels_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample_id,label\na,notanumber\n")
    with pytest.raises(FormatError, match="label"):
        read_labels_csv(path)


def test_labels_csv_refuses_a_label_outside_int64(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(f"sample_id,label\na,0\nb,{10**23}\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: label {10**23} outside")):
        read_labels_csv(path)


@pytest.mark.parametrize("text", [" 1_0", "1 ", "+1", "\u0661"])
def test_labels_csv_refuses_a_label_other_than_a_sign_and_digits(tmp_path, text):
    path = tmp_path / "labels.csv"
    path.write_text(f"sample_id,label\na,-1\nb,{text}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: non-integer label {text!r}")):
        read_labels_csv(path)


# ---- the CSV table framing ---------------------------------------------------

CSV_READERS = {  # table: reader, its header, a row of it
    "dataset": (read_dataset_csv, "sample_id,label,t,v,m,x,y,z", "a,0,0,0,0,1,1,1"),
    "labels": (read_labels_csv, "sample_id,label", "a,0"),
    "record": (OcclusionRecord.load_csv, "sample_id,t,v,m,x,y,z", "a,0,0,0,1,1,1"),
}


@pytest.mark.parametrize("table", sorted(CSV_READERS))
def test_every_csv_reader_refuses_a_bad_header_and_a_row_of_another_width(tmp_path, table):
    read, header, row = CSV_READERS[table]
    path, width = tmp_path / f"{table}.csv", header.count(",") + 1
    faults = {  # text: the whole message; the blank line 3 is skipped
        "": f"{path}: unexpected header 'none', expected {header!r}",
        "x" + header: f"{path}: unexpected header {'x' + header!r}, expected {header!r}",
        f"{header}\n{row}\n\n{row},1\n": f"{path}:4: expected {width} columns, got {width + 1}",
        f"{header}\n{row[:row.rindex(',')]}\n": f"{path}:2: expected {width} columns, got {width - 1}",
    }
    for text, message in faults.items():
        path.write_text(text)
        with pytest.raises(FormatError, match=re.escape(message) + "$"):
            read(path)


def test_a_dataset_header_naming_other_coordinates_is_refused(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("sample_id,label,t,v,m,u,w,q\na,0,0,0,0,1,1,1\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: unexpected header ")):
        read_dataset_csv(path)


def test_a_csv_fault_names_the_line_past_a_quoted_line_break(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text('sample_id,label\n"a\nb",1\nc,x\n')
    with pytest.raises(FormatError, match=re.escape(f"{path}:4: non-integer label 'x'")):
        read_labels_csv(path)


def test_csv_tables_are_utf8_under_an_ascii_locale(tmp_path):
    # in the C locale, with neither its coercion nor UTF-8 mode, open()
    # defaults to ASCII; the id \u00e9 is written as UTF-8 and read back
    import ast
    import os
    import subprocess
    import sys

    import skelfill

    program = (
        "import locale, sys\n"
        "import numpy as np\n"
        "from skelfill.formats import read_labels_csv, write_labels_csv\n"
        "from skelfill.occlusion import OcclusionRecord\n"
        "record, labels = sys.argv[1] + '/record.csv', sys.argv[1] + '/labels.csv'\n"
        "OcclusionRecord(['\\u00e91'], np.array([1]), (2, 3, 1), np.array([5], np.int32),\n"
        "                np.ones((1, 3), np.float32)).save_csv(record)\n"
        "write_labels_csv(['\\u00e91'], [4], labels)\n"
        "loaded = OcclusionRecord.load_csv(record)\n"
        "print(ascii([locale.getpreferredencoding(False), loaded.sample_ids, loaded.position.tolist(),\n"
        "             read_labels_csv(labels)[0]]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=str(Path(skelfill.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-X", "utf8=0", "-c", program, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    encoding, record_ids, position, label_ids = ast.literal_eval(out)
    assert encoding.lower().replace("-", "") != "utf8"
    assert record_ids == label_ids == ["\u00e91"]
    assert position == [5]  # (t, v, m) = (1, 2, 0) in the grid (2, 3, 1)
    assert (tmp_path / "record.csv").read_bytes() == "sample_id,t,v,m,x,y,z\r\n\u00e91,1,2,0,1.0,1.0,1.0\r\n".encode()
    assert (tmp_path / "labels.csv").read_bytes() == "sample_id,label\r\n\u00e91,4\r\n".encode()


def test_sha256_file_equals_hashlib_over_chunk_boundaries(tmp_path):
    import hashlib

    for size in (0, 1, (1 << 20) - 1, 1 << 20, (2 << 20) + 7):
        path = tmp_path / f"{size}.bin"
        path.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
        assert formats.sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


# ---- corrupt headers of the binary containers -------------------------------

def _write_skl1(path):
    write_skl1(random_dataset(np.random.default_rng(5), 2), path)


def _write_skemb(path):
    save_embeddings(EmbeddingMatrix(np.ones((2, 3)), ["r0000", "r0001"], "builtin"), path)


def _write_skkm(path):
    save_model(ClusterModel(np.ones((2, 3)), k=2, inertia=0.0, iterations_run=0, seed=0), path)


# container -> (writer of a valid file of two records, ids r0000 and r0001 but
# none in SKKM; reader; fixed header bytes; offsets of its u32 sizes, the
# record count first)
CONTAINERS = {
    "skl1": (_write_skl1, read_skl1, 24, (4, 8, 12, 16, 20)),
    "skemb": (_write_skemb, load_embeddings, 14, (6, 10)),
    "skkm": (_write_skkm, load_model, 29, (5, 9)),
}


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_corrupt_header_raises_format_error(tmp_path, kind):
    write, read, header_bytes, size_fields = CONTAINERS[kind]
    valid = tmp_path / f"valid.{kind}"
    write(valid)
    read(valid)
    raw = valid.read_bytes()
    bad = tmp_path / f"bad.{kind}"
    # every error names the corrupt file
    for cut in range(header_bytes):
        bad.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match=bad.name):
            read(bad)
    # a size of 2**32 - 1 must be refused before a read or an array is sized by it
    for offset in size_fields:
        bad.write_bytes(raw[:offset] + b"\xff\xff\xff\xff" + raw[offset + 4:])
        with pytest.raises(FormatError, match=bad.name):
            read(bad)


# fault -> whether it needs sample ids, which SKKM records lack
FAULTS = {"bad-magic": False, "count-beyond-the-file": False, "last-record-cut": False,
          "trailing-byte": False, "repeated-id": True, "id-not-utf8": True}


@pytest.mark.parametrize("kind, fault", [(kind, fault) for kind in sorted(CONTAINERS)
                                         for fault, needs_ids in FAULTS.items()
                                         if kind != "skkm" or not needs_ids])
def test_a_corrupt_container_is_refused_naming_the_file(tmp_path, kind, fault):
    write, read, header_bytes, (count_at, *_) = CONTAINERS[kind]
    path = tmp_path / f"d.{kind}"
    write(path)
    raw = path.read_bytes()
    (count,) = struct.unpack_from("<I", raw, count_at)
    magic, first_id = raw[:count_at], header_bytes + 4
    # the corrupt file, and what its refusal says after the file name
    data, message = {
        "bad-magic": (b"X" + raw[1:], f"bad magic {b'X' + magic[1:]!r}, expected {magic!r}"),
        "count-beyond-the-file": (raw[:count_at] + struct.pack("<I", count + 1) + raw[count_at + 4:],
                                  f"truncated: header claims {count + 1} records of "),
        "last-record-cut": (raw[:-1], "truncated: header claims 2 records" if kind == "skkm"
                            else "truncated stream while reading data of r0001: "),
        "trailing-byte": (raw + b"\0", "trailing bytes after the last record"),
        "repeated-id": (raw.replace(b"r0001", b"r0000"), "duplicate sample ids"),
        "id-not-utf8": (raw[:first_id] + b"\xff" + raw[first_id + 1:],
                        f"sample id is not UTF-8: invalid start byte at byte {first_id}"),
    }[fault]
    path.write_bytes(data)
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        read(path)


@pytest.mark.parametrize("kind", ["skl1", "csv", "skemb", "labels", "record"])
def test_an_id_with_no_utf8_form_is_refused_before_the_file_is_opened(tmp_path, kind):
    sid = "S\udcff01"  # what a file name with the byte 0xff in it decodes to
    path = tmp_path / f"d.{kind}"
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: sample id {sid!r} is not UTF-8: surrogates not allowed")):
        if kind == "skemb":
            save_embeddings(EmbeddingMatrix(np.ones((2, 3)), ["a", sid], "builtin"), path)
        elif kind == "labels":
            write_labels_csv(["a", sid], [0, 1], path)
        elif kind == "record":
            OcclusionRecord(["a", sid], np.array([1, 2]), (1, 1, 1), np.zeros(2, dtype=np.int32),
                            np.ones((2, 3), dtype=np.float32)).save_csv(path)
        else:
            write_dataset(dataset_of(seq_of(np.ones((3, 2, 3, 1)), "a"),
                                     seq_of(np.ones((3, 2, 3, 1)), sid)), path, kind)
    assert not path.exists()


@pytest.mark.parametrize("kind", ["skemb", "skkm"])
def test_a_signalling_nan_is_refused_as_non_finite_without_a_warning(tmp_path, kind):
    path = tmp_path / f"m.{kind}"
    if kind == "skemb":
        save_embeddings(EmbeddingMatrix(np.ones((2, 3)), ["a", "b"], "builtin"), path)
        read, message = load_embeddings, "non-finite value in the row of 'b'"
    else:
        save_model(ClusterModel(np.ones((2, 3)), k=2, inertia=0.0, iterations_run=0, seed=0), path)
        read, message = load_model, "non-finite value in centroid 1"
    path.write_bytes(path.read_bytes()[:-4] + struct.pack("<I", 0x7F80_0001))  # the last value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            read(path)
