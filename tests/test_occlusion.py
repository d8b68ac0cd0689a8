"""Occlusion synthesis: exact counts, determinism, and invertibility."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import bits_equal, dataset_of, random_dataset, seq_of
from skelfill import OcclusionRecord, OcclusionSpec, occlude_joints, occlude_random
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
    for sid in rec_a.entries:
        assert bits_equal(rec_a.entries[sid][0], rec_b.entries[sid][0])
        assert bits_equal(rec_a.entries[sid][1], rec_b.entries[sid][1])
    # a different seed must produce a different pattern
    third, _ = occlude_random(dataset, 0.25, seed=43)
    assert any(
        not bits_equal(a.data, c.data) for a, c in zip(first.samples, third.samples)
    )


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
    record.add("ghost", np.zeros((1, 3)), np.zeros((1, 3), dtype=np.float32))
    with pytest.raises(RecordMismatch):
        record.restore(dataset)


def test_rate_zero_hides_nothing():
    rng = np.random.default_rng(9)
    dataset = random_dataset(rng, 2)
    occluded, record = occlude_random(dataset, 0.0, seed=0)
    for original, out in zip(dataset.samples, occluded.samples):
        assert bits_equal(original.data, out.data)
    assert record.total_instances() == 0
    assert set(record.entries) == set(dataset.sample_ids)


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
    assert rec_second.entries[sid][0].shape[0] == 4
    assert set(rec_second.entries[sid][0][:, 1].tolist()) == {2}
    assert np.isfinite(rec_second.entries[sid][1]).all()
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
    assert all(not (idx[:, 2] == 2).any() for idx, _ in rebuilt.entries.values())
    restored = rebuilt.restore(occluded)
    for original, back in zip(clean.samples, restored.samples):
        assert bits_equal(original.data, back.data)


def test_between_and_restore_equal_a_per_sample_loop():
    # the whole-split forms against the one-sample-at-a-time rule, with the
    # clean split in another order, holding one more sample and missing
    # instances of its own, and a record of only some of the samples
    rng = np.random.default_rng(19)
    clean = random_dataset(rng, 5, frames=6, joints=5, bodies=2)
    occluded, _ = occlude_random(clean, 0.3, seed=2)
    dirty = [seq.data.copy() for seq in reversed(clean.samples)]
    dirty[0][:, 2, 3, 1] = np.nan
    dirty[2][:, :, 4, 0] = np.nan
    clean = dataset_of(*(seq_of(data, seq.sample_id) for data, seq in
                         zip(dirty, reversed(clean.samples))), seq_of(dirty[1], "extra"))
    by_id = {seq.sample_id: seq.data for seq in clean.samples}
    record = OcclusionRecord.between(clean, occluded)
    assert list(record.entries) == occluded.sample_ids
    for seq in occluded.samples:
        source = by_id[seq.sample_id]
        idx = np.argwhere(np.isnan(seq.data).all(axis=0) & ~np.isnan(source).any(axis=0))
        got_idx, got_values = record.entries[seq.sample_id]
        assert np.array_equal(got_idx, idx)
        assert bits_equal(got_values, np.ascontiguousarray(source[:, idx[:, 0], idx[:, 1], idx[:, 2]].T))

    partial = OcclusionRecord({sid: record.entries[sid] for sid in occluded.sample_ids[3:0:-2]})
    restored = partial.restore(occluded)
    for seq, back in zip(occluded.samples, restored.samples):
        want = seq.data.copy()
        if seq.sample_id in partial.entries:
            idx, values = partial.entries[seq.sample_id]
            want[:, idx[:, 0], idx[:, 1], idx[:, 2]] = values.T
        assert bits_equal(back.data, want), seq.sample_id


def test_between_records_in_t_v_m_order():
    rng = np.random.default_rng(17)
    clean = random_dataset(rng, 2, frames=6, joints=5, bodies=2)
    _, record = occlude_joints(clean, joints=[4, 0], frame_fraction=0.5, seed=3)
    for idx, _ in record.entries.values():
        keys = [tuple(row) for row in idx.tolist()]
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
    for sid, (idx, values) in loaded.entries.items():
        assert bits_equal(idx, record.entries[sid][0])
        assert bits_equal(values, record.entries[sid][1])
    assert loaded.total_instances() == record.total_instances()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_record_csv_rejects_non_finite_value(tmp_path, value):
    path = tmp_path / "rec.csv"
    path.write_text(f"sample_id,t,v,m,x,y,z\ns0,0,0,0,1.0,2.0,3.0\ns0,0,1,0,1.0,{value},3.0\n")
    with pytest.raises(FormatError) as err:
        OcclusionRecord.load_csv(path)
    assert f"{path}:3: recorded value is not finite" in str(err.value)


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
