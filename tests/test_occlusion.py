"""Occlusion synthesis: exact counts, determinism, and invertibility."""

from __future__ import annotations

import time
import tracemalloc
import warnings

import numpy as np
import pytest

import skelfill.data

from conftest import bits_equal, dataset_of, entries_of, random_dataset, record_from, seq_of
from reference import between_ref
from skelfill import Dataset, OcclusionRecord, OcclusionSpec, mpjpe, occlude_joints, occlude_random
from skelfill.errors import (
    AlreadyOccluded,
    FormatError,
    JointIndexOutOfRange,
    RateOutOfRange,
    RecordMismatch,
)
from skelfill.occlusion import apply_spec


def nan_triples(seq) -> int:
    return int(np.isnan(seq.data).all(axis=0).sum())


# ---- random-rate mode ------------------------------------------------------

def test_random_rate_hides_exact_floor_count():
    rng = np.random.default_rng(3)
    dataset = random_dataset(rng, 4, frames=5, joints=10)  # pool = 50
    occluded, record = occlude_random(dataset, rate=0.2, seed=0)
    for seq in occluded.samples:
        assert nan_triples(seq) == 10  # floor(0.2 * 50)
    assert record.total_instances() == 40


def test_random_rate_skips_absent_body_slots():
    rng = np.random.default_rng(4)
    data = rng.uniform(-1, 1, size=(3, 4, 5, 2)).astype(np.float32)
    data[:, :, :, 1] = 0.0
    seq = seq_of(data, "s", body_present=[True, False])
    occluded, _ = occlude_random(dataset_of(seq), rate=0.5, seed=1)
    out = occluded.samples[0].data
    assert not np.isnan(out[:, :, :, 1]).any()
    assert nan_triples(occluded.samples[0]) == 10  # floor(0.5 * 4 * 5 * 1)


def test_random_rate_always_hides_whole_triples():
    rng = np.random.default_rng(5)
    occluded, _ = occlude_random(random_dataset(rng, 3, frames=4, joints=6), 0.3, seed=9)
    for seq in occluded.samples:
        per_channel = np.isnan(seq.data)
        assert (per_channel.all(axis=0) == per_channel.any(axis=0)).all()


def test_random_rate_is_deterministic():
    rng = np.random.default_rng(6)
    dataset = random_dataset(rng, 3, frames=4, joints=6)
    first, rec_a = occlude_random(dataset, 0.25, seed=42)
    second, rec_b = occlude_random(dataset, 0.25, seed=42)
    for a, b in zip(first.samples, second.samples):
        assert bits_equal(a.data, b.data)
    assert rec_a.sample_ids == rec_b.sample_ids
    assert bits_equal(rec_a.ends, rec_b.ends) and bits_equal(rec_a.position, rec_b.position)
    assert bits_equal(rec_a.values, rec_b.values)
    # a different seed must produce a different pattern
    third, _ = occlude_random(dataset, 0.25, seed=43)
    assert any(
        not bits_equal(a.data, c.data) for a, c in zip(first.samples, third.samples)
    )


def test_each_sample_draws_from_its_own_seed_split_and_index():
    # sample 1 under seed 0 and sample 0 under seed 1 share seed ^ index, and
    # the train and test samples at one index share seed and index
    train = random_dataset(np.random.default_rng(8), 2, frames=8, joints=6)
    test = Dataset(train.data, train.samples, "test")

    def hidden(dataset, seed):
        return np.isnan(occlude_random(dataset, 0.5, seed)[0].data).all(axis=1)

    assert not np.array_equal(hidden(train, 0)[1], hidden(train, 1)[0])
    assert not np.array_equal(hidden(train, 0), hidden(test, 0))
    assert np.array_equal(hidden(test, 0), hidden(Dataset(train.data, train.samples, "val"), 0))


def test_restore_inverts_occlusion_bit_exactly():
    rng = np.random.default_rng(7)
    dataset = random_dataset(rng, 4, frames=3, joints=8)
    occluded, record = occlude_random(dataset, 0.4, seed=2)
    restored = record.restore(occluded)
    for original, back in zip(dataset.samples, restored.samples):
        assert bits_equal(original.data, back.data)


def test_restore_rejects_unknown_sample():
    rng = np.random.default_rng(8)
    dataset = random_dataset(rng, 2)
    _, record = occlude_random(dataset, 0.2, seed=0)
    record = record_from({**entries_of(record), "ghost": (np.zeros((1, 3)), np.zeros((1, 3)))})
    with pytest.raises(RecordMismatch):
        record.restore(dataset)


def test_rate_zero_hides_nothing():
    rng = np.random.default_rng(9)
    dataset = random_dataset(rng, 2)
    occluded, record = occlude_random(dataset, 0.0, seed=0)
    for original, out in zip(dataset.samples, occluded.samples):
        assert bits_equal(original.data, out.data)
    assert record.total_instances() == 0
    assert record.sample_ids == dataset.sample_ids


def test_rate_out_of_range():
    dataset = random_dataset(np.random.default_rng(0), 1)
    with pytest.raises(RateOutOfRange):
        occlude_random(dataset, 1.5, seed=0)
    with pytest.raises(RateOutOfRange):
        occlude_random(dataset, -0.1, seed=0)


def test_random_rate_refuses_preexisting_holes():
    data = np.ones((3, 2, 2, 1), dtype=np.float32)
    data[:, 0, 0, 0] = np.nan
    with pytest.raises(AlreadyOccluded):
        occlude_random(dataset_of(seq_of(data, "dirty")), 0.2, seed=0)
    # a hole in the second body slot of the second sample is found and named
    clean, dirty = np.ones((2, 3, 2, 2, 2), dtype=np.float32)
    dirty[:, 1, 0, 1] = np.nan
    with pytest.raises(AlreadyOccluded, match="'second'"):
        occlude_random(dataset_of(seq_of(clean, "first"), seq_of(dirty, "second")), 0.2, seed=0)


# ---- joint-targeted mode -----------------------------------------------------

def test_joint_targeted_hits_all_frames_at_full_fraction():
    rng = np.random.default_rng(10)
    dataset = random_dataset(rng, 2, frames=6, joints=5)
    occluded, record = occlude_joints(dataset, joints=[4, 2], frame_fraction=1.0, seed=3)
    for seq, mask in zip(occluded.samples, occluded.masks):
        assert mask.joint_row.tolist() == [False, False, True, False, True]
        assert np.isnan(seq.data[:, :, 2, 0]).all()
        assert np.isnan(seq.data[:, :, 4, 0]).all()
        assert not np.isnan(seq.data[:, :, 0, 0]).any()
    assert record.total_instances() == 2 * 2 * 6  # samples * joints * frames


def test_joint_targeted_frame_count_uses_floor():
    rng = np.random.default_rng(11)
    dataset = random_dataset(rng, 3, frames=10, joints=4)
    occluded, _ = occlude_joints(dataset, joints=[1], frame_fraction=0.45, seed=5)
    for seq in occluded.samples:
        assert int(np.isnan(seq.data[:, :, 1, 0]).all(axis=0).sum()) == 4  # floor(4.5)


def test_joint_targeted_covers_every_present_body():
    rng = np.random.default_rng(12)
    data = rng.uniform(-1, 1, size=(3, 5, 4, 2)).astype(np.float32)
    seq = seq_of(data, "s2", body_present=[True, True])
    occluded, _ = occlude_joints(dataset_of(seq), joints=[0], frame_fraction=0.6, seed=1)
    out = occluded.samples[0].data
    hit_body0 = np.isnan(out[:, :, 0, 0]).all(axis=0)
    hit_body1 = np.isnan(out[:, :, 0, 1]).all(axis=0)
    assert hit_body0.tolist() == hit_body1.tolist()  # same frames on each body
    assert hit_body0.sum() == 3  # floor(0.6 * 5)


def test_joint_targeted_skips_already_missing_entries():
    rng = np.random.default_rng(13)
    dataset = random_dataset(rng, 1, frames=4, joints=3)
    once, rec_first = occlude_joints(dataset, joints=[1], frame_fraction=1.0, seed=7)
    twice, rec_second = occlude_joints(once, joints=[1, 2], frame_fraction=1.0, seed=8)
    sid = dataset.sample_ids[0]
    # second pass only recorded joint 2: joint 1 was already gone
    idx, values = entries_of(rec_second)[sid]
    assert idx.shape[0] == 4
    assert set(idx[:, 1].tolist()) == {2}
    assert np.isfinite(values).all()
    # restoring both records in reverse order recovers the original
    restored = rec_first.restore(rec_second.restore(twice))
    assert bits_equal(restored.samples[0].data, dataset.samples[0].data)


def test_joint_targeted_validates_joints():
    dataset = random_dataset(np.random.default_rng(0), 1, joints=4)
    with pytest.raises(JointIndexOutOfRange):
        occlude_joints(dataset, joints=[], frame_fraction=1.0, seed=0)
    with pytest.raises(JointIndexOutOfRange):
        occlude_joints(dataset, joints=[0, 9], frame_fraction=1.0, seed=0)
    with pytest.raises(RateOutOfRange):
        occlude_joints(dataset, joints=[0], frame_fraction=1.2, seed=0)


# ---- records and the OcclusionSpec dispatcher --------------------------------

def test_between_restores_the_clean_split_bit_exactly():
    rng = np.random.default_rng(16)
    clean = random_dataset(rng, 3, frames=5, joints=6)
    occluded, _ = occlude_random(clean, 0.4, seed=4)
    restored = OcclusionRecord.between(clean, occluded).restore(occluded)
    for original, back in zip(clean.samples, restored.samples):
        assert bits_equal(original.data, back.data)

    # two bodies and one absent slot, joint-targeted
    seqs = []
    for i in range(3):
        data = rng.uniform(-1, 1, size=(3, 6, 5, 3)).astype(np.float32)
        data[:, :, :, 2] = 0.0
        seqs.append(seq_of(data, f"b{i}", body_present=[True, True, False]))
    clean = dataset_of(*seqs)
    occluded, record = occlude_joints(clean, joints=[3, 1], frame_fraction=0.5, seed=6)
    rebuilt = OcclusionRecord.between(clean, occluded)
    assert rebuilt.total_instances() == record.total_instances() == 3 * 2 * 3 * 2
    assert not any((idx[:, 2] == 2).any() for idx, _ in entries_of(rebuilt).values())
    restored = rebuilt.restore(occluded)
    for original, back in zip(clean.samples, restored.samples):
        assert bits_equal(original.data, back.data)


@pytest.mark.parametrize("record_rows", [1 << 13, 1])
def test_between_and_restore_equal_a_per_sample_loop(monkeypatch, record_rows):
    # the whole-split forms against the one-sample-at-a-time rule, with the
    # clean split in another order, holding one more sample and missing
    # instances of its own, and a record of only some of the samples;
    # restore takes blocks of the whole record, or of one sample (one row)
    rng = np.random.default_rng(19)
    clean = random_dataset(rng, 5, frames=6, joints=5, bodies=2)
    occluded, _ = occlude_random(clean, 0.3, seed=2)
    dirty = [seq.data.copy() for seq in reversed(clean.samples)]
    dirty[0][:, 2, 3, 1] = np.nan
    dirty[2][:, :, 4, 0] = np.nan
    clean = dataset_of(*(seq_of(data, seq.sample_id) for data, seq in
                         zip(dirty, reversed(clean.samples))), seq_of(dirty[1], "extra"))
    record = OcclusionRecord.between(clean, occluded)
    assert record.sample_ids == occluded.sample_ids
    got, want = entries_of(record), between_ref(clean, occluded)
    assert list(got) == list(want)
    for sid, (idx, values) in want.items():
        assert bits_equal(got[sid][0], idx), sid
        assert bits_equal(got[sid][1], values), sid

    partial = record_from({sid: got[sid] for sid in occluded.sample_ids[3:0:-2]})
    monkeypatch.setattr(skelfill.data, "BLOCK_BYTES", 128 * record_rows)  # 128 bytes a record row
    restored = partial.restore(occluded)
    monkeypatch.undo()
    assert bits_equal(restored.data, partial.restore(occluded).data)
    for seq, back in zip(occluded.samples, restored.samples):
        want = seq.data.copy()
        if seq.sample_id in partial.sample_ids:
            idx, values = got[seq.sample_id]
            want[:, idx[:, 0], idx[:, 1], idx[:, 2]] = values.T
        assert bits_equal(back.data, want), seq.sample_id


@pytest.mark.parametrize("scalars", [1, 150, 1 << 20])
def test_between_is_the_same_over_any_blocks_of_samples(monkeypatch, scalars):
    # blocks of one sample (60 scalars), of two, and of all seven, with the
    # clean split in another order and missing an instance of its own
    rng = np.random.default_rng(21)
    clean = random_dataset(rng, 7, frames=2, joints=5, bodies=2)
    occluded, _ = occlude_random(clean, 0.4, seed=5)
    dirty = [seq.data.copy() for seq in reversed(clean.samples)]
    dirty[1][:, 1, 2, 0] = np.nan
    clean = dataset_of(*(seq_of(data, seq.sample_id) for data, seq in zip(dirty, reversed(clean.samples))))
    monkeypatch.setattr(skelfill.data, "BLOCK_BYTES", 4 * scalars)  # 4 bytes a float32 scalar
    got, want = entries_of(OcclusionRecord.between(clean, occluded)), between_ref(clean, occluded)
    assert list(got) == list(want)
    assert all(bits_equal(got[sid][i], want[sid][i]) for sid in want for i in (0, 1))


@pytest.fixture(scope="module")
def thousand_two_body() -> tuple[Dataset, Dataset]:
    """1 000 samples of 3 x 20 x 25 x 2 scalars (12 MB), and their copy
    with 30% of each sample's joint instances hidden."""
    clean = random_dataset(np.random.default_rng(22), 1000, frames=20, joints=25, bodies=2)
    occluded, _ = occlude_random(clean, 0.3, seed=6)
    return clean, occluded


def test_between_holds_one_block_beside_its_record(thousand_two_body):
    # beside the record it returns, between holds one block's masks and
    # coordinates (some 2 MB), not masks of the whole split and an int64
    # index of the hidden instances (over 12 MB)
    clean, occluded = thousand_two_body
    tracemalloc.start()
    try:
        record = OcclusionRecord.between(clean, occluded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.total_instances() == 1000 * 20 * 25 * 2 * 3 // 10
    assert peak <= record.ends.nbytes + record.position.nbytes + record.values.nbytes + clean.data.nbytes / 4


def test_a_record_holds_one_position_a_hidden_instance(thousand_two_body):
    # 16 bytes a hidden instance (an int32 position, three float32 values)
    # and 8 a sample (its row end); a (sample, t, v, m) int32 row beside the
    # values took 28 bytes a hidden instance
    clean, occluded = thousand_two_body
    record = OcclusionRecord.between(clean, occluded)
    hidden, samples = record.total_instances(), len(record.sample_ids)
    assert record.ends.nbytes + record.position.nbytes + record.values.nbytes <= 16 * hidden + 8 * samples
    # the split's grid is the record's, so its positions come back as stored
    assert record.rows_in(clean)[1] is record.position
    # scoring gathers one block of rows at a time: beside the split and the
    # record, a block's sample and grid indices, values and errors (up to
    # 128 bytes a row, so the budget: the 935 KB seen here), and the lookup
    # of the ids
    tracemalloc.start()
    try:
        stats = mpjpe(clean, record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (stats.total, stats.evaluated, stats.excluded) == (0.0, hidden, 0)
    assert peak <= skelfill.data.BLOCK_BYTES + 64 * len(clean)


def test_between_records_in_t_v_m_order():
    rng = np.random.default_rng(17)
    clean = random_dataset(rng, 2, frames=6, joints=5, bodies=2)
    _, record = occlude_joints(clean, joints=[4, 0], frame_fraction=0.5, seed=3)
    keys = [(n, *row) for n, (idx, _) in enumerate(entries_of(record).values()) for row in idx.tolist()]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_between_needs_a_clean_sample_of_the_same_id_and_shape():
    rng = np.random.default_rng(18)
    clean = random_dataset(rng, 2, frames=4, joints=5)
    occluded, _ = occlude_random(clean, 0.3, seed=1)
    with pytest.raises(RecordMismatch, match="r0001"):
        OcclusionRecord.between(dataset_of(clean.samples[0]), occluded)
    # a dataset holds one shape, so the clean split is all of the shorter shape
    shorter = seq_of(clean.samples[1].data[:, :3], "r0001")
    with pytest.raises(RecordMismatch, match="r0001"):
        OcclusionRecord.between(dataset_of(shorter), dataset_of(occluded.samples[1]))


def test_record_csv_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    dataset = random_dataset(rng, 3, frames=4, joints=5)
    _, record = occlude_random(dataset, 0.3, seed=6)
    path = tmp_path / "rec.csv"
    record.save_csv(path)
    loaded = OcclusionRecord.load_csv(path)
    # empty-entry samples drop out of the CSV; every written row survives
    whole = entries_of(record)
    for sid, (idx, values) in entries_of(loaded).items():
        assert bits_equal(idx, whole[sid][0])
        assert bits_equal(values, whole[sid][1])
    assert loaded.total_instances() == record.total_instances()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_record_csv_rejects_non_finite_value(tmp_path, value):
    path = tmp_path / "rec.csv"
    path.write_text(f"sample_id,t,v,m,x,y,z\ns0,0,0,0,1.0,2.0,3.0\ns0,0,1,0,1.0,{value},3.0\n")
    with pytest.raises(FormatError) as err:
        OcclusionRecord.load_csv(path)
    assert f"{path}:3: recorded value is not finite" in str(err.value)


HEADER = "sample_id,t,v,m,x,y,z\n"


@pytest.mark.parametrize("row, fault", [
    ("s0,-1,0,0,1,2,3", "(t, v, m) = (-1, 0, 0) outside 0..2147483647"),
    ("s0,0,-1,0,1,2,3", "(t, v, m) = (0, -1, 0) outside 0..2147483647"),
    ("s0,0,0,-1,1,2,3", "(t, v, m) = (0, 0, -1) outside 0..2147483647"),
    ("s0,2147483648,0,0,1,2,3", "(t, v, m) = (2147483648, 0, 0) outside 0..2147483647"),
    ("s0, 1_0 ,0,0,1,2,3", "malformed numeric field"),
    ("s0,+1,0,0,1,2,3", "malformed numeric field"),
    ("s0,10,0,0,4,5,6", "repeats (t, v, m) = (10, 0, 0) of sample 's0'"),
], ids=["t-negative", "v-negative", "m-negative", "beyond-int32", "spaces-underscore", "plus",
        "repeated"])
def test_record_csv_refuses_an_index_naming_the_line(tmp_path, row, fault):
    # as int() read them, t = -1 indexed the last frame and " 1_0 " read as
    # 10, each a second row for the instance of line 2
    path = tmp_path / "rec.csv"
    path.write_text(HEADER + "s0,10,0,0,1,2,3\n" + row + "\n")
    with pytest.raises(FormatError) as err:
        OcclusionRecord.load_csv(path)
    assert f"{path}:3: {fault}" in str(err.value)


def test_record_csv_groups_rows_by_sample_in_order_of_first_appearance(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text(HEADER + "b,2,0,0,1,1,1\na,0,1,0,2,2,2\nb,0,3,0,3,3,3\na,0,0,0,4,4,4\n")
    record = OcclusionRecord.load_csv(path)
    assert record.sample_ids == ["b", "a"]
    assert record.position.dtype == np.int32 and record.values.dtype == np.float32
    # the smallest grid that holds the rows: t < 3, v < 4, m < 1
    assert record.grid == (3, 4, 1) and record.ends.tolist() == [2, 4]
    assert record.position.tolist() == [3, 8, 0, 1]  # (0, 3, 0), (2, 0, 0); (0, 0, 0), (0, 1, 0)
    assert record.values[:, 0].tolist() == [3, 1, 4, 2]
    saved = tmp_path / "saved.csv"
    record.save_csv(saved)
    assert saved.read_text().splitlines()[1:] == [
        "b,0,3,0,3.0,3.0,3.0", "b,2,0,0,1.0,1.0,1.0", "a,0,0,0,4.0,4.0,4.0", "a,0,1,0,2.0,2.0,2.0"]


def test_record_csv_refuses_a_grid_of_2_to_the_31_instances(tmp_path):
    # t and v each fit in int32, but a position in (46341, 46341, 1) does not
    path = tmp_path / "rec.csv"
    path.write_text(HEADER + "s0,0,0,0,1,2,3\ns0,46340,46340,0,1,2,3\n")
    with pytest.raises(FormatError, match=r"rec\.csv: \(T, V, M\) = \(46341, 46341, 1\) holds "
                                          r"2147488281 joint instances, over 2147483647"):
        OcclusionRecord.load_csv(path)
    # the largest square grid under 2**31 instances is read
    path.write_text(HEADER + "s0,0,0,0,1,2,3\ns0,46339,46339,0,1,2,3\n")
    record = OcclusionRecord.load_csv(path)
    assert record.grid == (46340, 46340, 1) and record.position.tolist() == [0, 46340 * 46340 - 1]


# The corruption sweep of a saved record CSV: its seed and its number of
# mutations are fixed here, before it runs.
SWEEP_SEED, SWEEP_MUTATIONS = 3001, 600
# inserted numbers: signs, int32 and grid limits, non-finite and overflowing
# floats, a digit separator, an Arabic-Indic one
SWEEP_NUMBERS = [b"-1", b"-0", b"0", b"7", b"46341", b"2147483647", b"2147483648", b"99999999999999999999",
                 b"1e400", b"nan", b"-inf", b"1_0", "\u0661".encode()]
SWEEP_BYTES = b'0123456789-+.,e_" \r\n\x00\xff'


def corrupt_copies(text: bytes, rng: np.random.Generator):
    """``SWEEP_MUTATIONS`` copies of ``text``, each changed once: a bit
    flipped, cut short, a byte replaced, a span repeated in place or a
    number inserted."""
    for _ in range(SWEEP_MUTATIONS):
        kind, at = int(rng.integers(5)), int(rng.integers(len(text)))
        if kind == 0:
            yield text[:at] + bytes([text[at] ^ 1 << int(rng.integers(8))]) + text[at + 1:]
        elif kind == 1:
            yield text[:at]
        elif kind == 2:
            yield text[:at] + bytes([SWEEP_BYTES[rng.integers(len(SWEEP_BYTES))]]) + text[at + 1:]
        elif kind == 3:
            end = at + int(rng.integers(1, 64))
            yield text[:end] + text[at:end] + text[end:]
        else:
            yield text[:at] + SWEEP_NUMBERS[rng.integers(len(SWEEP_NUMBERS))] + text[at:]


def test_a_corrupt_record_csv_is_refused_or_read_as_a_record(tmp_path):
    # with warnings as errors, each read raises FormatError or returns a
    # record that the split it came from refuses with RecordMismatch, or
    # takes, restores and scores
    dataset = random_dataset(np.random.default_rng(24), 4, frames=3, joints=4, bodies=2)
    _, record = occlude_random(dataset, 0.3, seed=7)
    path = tmp_path / "rec.csv"
    record.save_csv(path)
    outcomes = {"refused": 0, "mismatch": 0, "read": 0}
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, text in enumerate(corrupt_copies(path.read_bytes(), np.random.default_rng(SWEEP_SEED))):
            path.write_bytes(text)
            try:
                loaded = OcclusionRecord.load_csv(path)
                loaded.restore(dataset)
                mpjpe(dataset, loaded)
                outcomes["read"] += 1
            except FormatError:
                outcomes["refused"] += 1
            except RecordMismatch:
                outcomes["mismatch"] += 1
            except Exception as exc:
                pytest.fail(f"mutation {i} raised {exc!r} on {text!r}")
    assert sum(outcomes.values()) == SWEEP_MUTATIONS and all(outcomes.values()), outcomes
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("row", [(-1, 0, 0), (4, 0, 0), (0, -1, 0), (0, 5, 0),
                                 (0, 0, -1), (0, 0, 1), (3, 4, 1), (9, 9, 9)])
def test_restore_refuses_an_index_outside_the_shape(row):
    # the record's grid is the smallest that holds its rows, and a row at a
    # negative index lies at a negative position; neither fits (4, 5, 1)
    dataset = random_dataset(np.random.default_rng(20), 2, frames=4, joints=5)
    _, record = occlude_random(dataset, 0.3, seed=1)
    entries = entries_of(record)
    idx, values = entries["r0001"]
    entries["r0001"] = (np.vstack([idx, [row]]), np.vstack([values, np.zeros((1, 3))]))
    with pytest.raises(RecordMismatch, match=r"record row \(sample, t, v, m\) = \(1, .*outside \(2, 4, 5, 1\)"):
        record_from(entries).restore(dataset)


def test_a_record_in_a_grid_of_its_own_restores_at_the_same_joints():
    # a record read from a CSV holds the smallest grid of its rows; a split
    # of a wider grid finds each row at its (t, v, m) all the same
    dataset = random_dataset(np.random.default_rng(23), 2, frames=4, joints=5, bodies=2)
    entries = {"r0001": ([(0, 1, 0), (2, 3, 1)], [(1, 2, 3), (4, 5, 6)]), "r0000": ([(1, 0, 0)], [(7, 8, 9)])}
    record = record_from(entries)
    assert record.grid == (3, 4, 2)
    rows, position = record.rows_in(dataset)
    assert rows.tolist() == [1, 0] and position.tolist() == [2, 27, 10]  # in the (4, 5, 2) grid
    want = dataset.data.copy()
    for sid, (idx, values) in entries.items():
        for (t, v, m), value in zip(idx, values):
            want[dataset.sample_ids.index(sid), :, t, v, m] = value
    assert bits_equal(record.restore(dataset).data, want)


def test_spec_validation_and_dispatch():
    with pytest.raises(ValueError):
        OcclusionSpec(mode="sideways")
    with pytest.raises(RateOutOfRange):
        OcclusionSpec(mode="random_rate", rate=2.0)

    rng = np.random.default_rng(15)
    dataset = random_dataset(rng, 2, frames=5, joints=4)
    via_spec, _ = apply_spec(dataset, OcclusionSpec(mode="random_rate", rate=0.2, seed=21))
    direct, _ = occlude_random(dataset, 0.2, seed=21)
    for a, b in zip(via_spec.samples, direct.samples):
        assert bits_equal(a.data, b.data)

    targeted, _ = apply_spec(
        dataset, OcclusionSpec(mode="joint_targeted", joints=(1,), frame_fraction=0.4, seed=2)
    )
    assert all(mask.joint_row[1] for mask in targeted.masks)
