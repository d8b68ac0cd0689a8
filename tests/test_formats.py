"""Wire-format round trips, including NaN payload preservation."""

from __future__ import annotations

import re
import struct

import numpy as np
import pytest

from conftest import bits_equal, dataset_of, random_dataset, seq_of
from skelfill.clustering import ClusterModel, load_model, save_model
from skelfill.embedding import EmbeddingMatrix, load_embeddings, save_embeddings
from skelfill.errors import FormatError
from skelfill.formats import (
    SKL1_MAGIC,
    read_dataset,
    read_dataset_csv,
    read_labels_csv,
    read_skl1,
    write_dataset,
    write_dataset_csv,
    write_labels_csv,
    write_skl1,
)


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
        write_skl1(Dataset(samples=[], masks=[]), tmp_path / "e.skl1")


def test_skl1_rejects_mixed_shapes(tmp_path):
    a = seq_of(np.zeros((3, 2, 2, 1), dtype=np.float32), "a")
    b = seq_of(np.zeros((3, 3, 2, 1), dtype=np.float32), "b")
    with pytest.raises(FormatError, match="shape"):
        write_skl1(dataset_of(a, b), tmp_path / "m.skl1")


# ---- CSV -------------------------------------------------------------------

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


def test_csv_rejects_partly_nan_and_infinite_instances(tmp_path):
    path = tmp_path / "p.csv"
    good = "a,0,0,0,0,nan,nan,nan\na,0,1,0,0,1,1,1\n"
    for row in ("a,0,0,0,0,nan,1,2", "a,0,0,0,0,1,inf,2", "a,0,0,0,0,1,2,-inf"):
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


# ---- corrupt headers of the binary containers -------------------------------

def _write_skl1(path):
    write_skl1(random_dataset(np.random.default_rng(5), 2), path)


def _write_skemb(path):
    save_embeddings(EmbeddingMatrix(np.ones((2, 3)), ["a", "b"], "builtin"), path)


def _write_skkm(path):
    save_model(ClusterModel(np.ones((2, 3)), k=2, inertia=0.0, iterations_run=0, seed=0), path)


# container -> (writer of a valid file, reader, fixed header bytes, offsets of its u32 sizes)
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
