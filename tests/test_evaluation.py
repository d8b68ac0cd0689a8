"""Recovery-error metrics, the random baseline, and clustering quality."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import bits_equal, dataset_of, entries_of, random_dataset, record_from, seq_of
from reference import between_ref, mpjpe_ref, per_class_error_ref, random_baseline_ref
from skelfill import OcclusionRecord, clustering_quality, evaluation, impute_random_baseline, mpjpe
from skelfill.errors import LengthMismatch, RecordMismatch
from skelfill.evaluation import EvalReport, MpjpeStats, per_class_error
from skelfill.occlusion import occlude_random


# ---- random baseline ----------------------------------------------------------

def baseline_of(dataset, record, seed):
    """The random baseline's values at every row of ``record``, [n, 3]."""
    return np.concatenate([np.empty((0, 3), np.float32), *impute_random_baseline(dataset, record, seed)])


def at_record(data, dataset, record):
    """``data`` [N, 3, T, V, M] of ``dataset``'s samples at the rows of ``record``, [n, 3]."""
    return np.array([data[dataset.sample_ids.index(sid), :, t, v, m]
                     for sid, (idx, _) in entries_of(record).items() for t, v, m in idx.tolist()],
                    dtype=data.dtype).reshape(-1, 3)


def test_baseline_fills_every_hole_within_channel_range():
    rng = np.random.default_rng(139)
    dataset = random_dataset(rng, 4, frames=4, joints=6)
    occluded, record = occlude_random(dataset, 0.3, seed=3)
    values = baseline_of(occluded, record, seed=17)
    lo = [min(s.data[c][np.isfinite(s.data[c])].min() for s in occluded.samples) for c in range(3)]
    hi = [max(s.data[c][np.isfinite(s.data[c])].max() for s in occluded.samples) for c in range(3)]
    assert values.shape == record.values.shape and values.dtype == np.float32
    assert np.isfinite(values).all()
    assert ((values >= lo) & (values <= hi)).all()


def test_baseline_is_deterministic():
    rng = np.random.default_rng(149)
    occluded, record = occlude_random(random_dataset(rng, 3), 0.4, seed=0)
    first = baseline_of(occluded, record, seed=5)
    assert bits_equal(first, baseline_of(occluded, record, seed=5))
    assert not bits_equal(first, baseline_of(occluded, record, seed=6))


def test_baseline_identity_when_nothing_missing():
    # recorded instances that the split holds keep their values, and draw nothing
    rng = np.random.default_rng(151)
    dataset = random_dataset(rng, 2)
    record = record_from({"r0001": ([(0, 1, 0), (2, 3, 0)], np.zeros((2, 3))),
                          "r0000": ([(1, 2, 0)], np.zeros((1, 3)))})
    assert bits_equal(baseline_of(dataset, record, seed=1), at_record(dataset.data, dataset, record))


def test_baseline_range_ignores_padding_slots():
    rng = np.random.default_rng(157)
    data = rng.uniform(0.0, 1.0, size=(3, 3, 4, 2)).astype(np.float32)
    data[:, :, :, 1] = 999.0  # junk in an absent body slot
    data[:, 1, 1, 0] = np.nan
    seq = seq_of(data, "s", body_present=[True, False])
    value = baseline_of(dataset_of(seq), record_from({"s": ([(1, 1, 0)], np.zeros((1, 3)))}), seed=9)
    assert (value <= 1.0).all()  # range came from the present body only


@pytest.mark.parametrize("block", [1, 300, 1 << 20])
def test_baseline_range_is_the_same_over_any_blocks_of_samples(monkeypatch, block):
    # blocks of one sample (144 scalars), of two, and of all seven; record
    # blocks of one row up to the whole record
    rng = np.random.default_rng(163)
    seqs = []
    for i in range(7):
        data = rng.uniform(-5.0, 5.0, size=(3, 4, 6, 2)).astype(np.float32)
        if i % 3:
            data[:, :, :, 1] = 1000.0 * (-1) ** i  # junk in an absent body slot
        seqs.append(seq_of(data, f"s{i}", body_present=[True, i % 3 == 0]))
    occluded, record = occlude_random(dataset_of(*seqs), 0.3, seed=4)
    present = np.array([seq.body_present for seq in occluded.samples])[:, None, None, None, :]
    usable = np.isfinite(occluded.data) & present
    want = [[occluded.data[:, c][usable[:, c]].min() for c in range(3)],
            [occluded.data[:, c][usable[:, c]].max() for c in range(3)]]
    monkeypatch.setattr(evaluation, "RANGE_BLOCK", block)
    monkeypatch.setattr(evaluation, "RECORD_ROWS", max(1, block // 12))
    assert [bound.tolist() for bound in evaluation._channel_ranges(occluded)] == want
    values = baseline_of(occluded, record, seed=8)
    monkeypatch.undo()
    assert bits_equal(values, baseline_of(occluded, record, seed=8))


def test_baseline_range_of_a_channel_with_no_value_is_zero():
    data = np.full((3, 2, 2, 1), np.nan, dtype=np.float32)
    data[0] = 1.5
    lo, hi = evaluation._channel_ranges(dataset_of(seq_of(data, "s")))
    assert lo.tolist() == [1.5, 0.0, 0.0] and hi.tolist() == [1.5, 0.0, 0.0]


def test_baseline_range_skips_infinity():
    data = np.arange(12, dtype=np.float32).reshape(3, 2, 2, 1)
    data[0, 0, 0, 0], data[2, 1, 1, 0] = -np.inf, np.inf
    lo, hi = evaluation._channel_ranges(dataset_of(seq_of(data, "s")))
    assert lo.tolist() == [1.0, 4.0, 8.0] and hi.tolist() == [3.0, 7.0, 10.0]


BASELINE_CASES = ["train", "test", "no-hole", "absent-slot", "empty", "nan-outside", "reordered"]


def baseline_case(case: str) -> tuple:
    """An occluded split and its record, with the feature ``case`` names."""
    rng = np.random.default_rng(167)
    seqs = [seq_of(rng.uniform(-3, 3, size=(3, 5, 4, 2)).astype(np.float32), f"c{i}",
                   body_present=[True, case != "absent-slot" or i % 2 == 0]) for i in range(9)]
    clean = dataset_of(*seqs, split="test" if case == "test" else "train")
    if case == "nan-outside":  # a hand-made clean split that misses an instance
        clean.data[4, :, 2, 1, 0] = np.nan
    occluded = clean.with_data(np.where(
        rng.uniform(size=clean.data[:, :1].shape) < (0.0 if case == "empty" else 0.3), np.nan, clean.data))
    if case == "no-hole":
        occluded.data[3] = clean.data[3]
    record = OcclusionRecord.between(clean, occluded)
    if case == "reordered":  # the record's samples in another order than the split's
        entries = entries_of(record)
        record = record_from({sid: entries[sid] for sid in reversed(record.sample_ids)})
    return occluded, record


@pytest.mark.parametrize("rows", [1 << 13, 7])
@pytest.mark.parametrize("case", BASELINE_CASES)
def test_baseline_equals_the_whole_split_fill_at_the_records_rows(monkeypatch, case, rows):
    monkeypatch.setattr(evaluation, "RECORD_ROWS", rows)  # 7: blocks of a few samples
    occluded, record = baseline_case(case)
    want = at_record(random_baseline_ref(occluded, 23), occluded, record)
    assert bits_equal(baseline_of(occluded, record, 23), want)
    assert stats_bits(mpjpe(impute_random_baseline(occluded, record, 23), record)) == \
        stats_bits(mpjpe(occluded.with_data(random_baseline_ref(occluded, 23)), record))
    # each case holds what it names
    counts = np.diff(record.ends, prepend=0)
    assert (0 in counts) == (case in ("no-hole", "empty"))
    assert (record.total_instances() == 0) == (case == "empty")
    missing = np.isnan(occluded.data).all(axis=1).sum(axis=(1, 2, 3))
    assert (missing[record.rows_in(occluded)[0]] > counts).any() == (case == "nan-outside")
    assert (occluded.split_tag == "test") == (case == "test")
    assert (record.sample_ids != occluded.sample_ids) == (case == "reordered")


def test_baseline_refuses_values_that_do_not_match_the_record():
    occluded, record = baseline_case("train")
    with pytest.raises(RecordMismatch):
        mpjpe([np.zeros((1, 3), np.float32)], record)


# ---- recovery error --------------------------------------------------------------

def record_of(sample_id, entries):
    return record_from({sample_id: ([e[0] for e in entries], [e[1] for e in entries])})


def test_mpjpe_single_displacement():
    data = np.zeros((3, 2, 2, 1), dtype=np.float32)
    data[:, 0, 0, 0] = (3.0, 4.0, 0.0)
    record = record_of("s0", [((0, 0, 0), (0.0, 0.0, 0.0))])
    stats = mpjpe(dataset_of(seq_of(data, "s0")), record)
    assert stats.mean_error == pytest.approx(5.0, abs=1e-7)
    assert (stats.evaluated, stats.excluded) == (1, 0)


def test_mpjpe_averages_instances():
    data = np.zeros((3, 2, 2, 1), dtype=np.float32)
    data[:, 0, 0, 0] = (3.0, 0.0, 0.0)  # error 3
    data[:, 1, 1, 0] = (0.0, 4.0, 0.0)  # error 4
    record = record_of("s0", [((0, 0, 0), (0, 0, 0)), ((1, 1, 0), (0, 0, 0))])
    stats = mpjpe(dataset_of(seq_of(data, "s0")), record)
    assert stats.mean_error == pytest.approx(3.5, abs=1e-7)
    assert stats.evaluated == 2


def test_mpjpe_excludes_instances_left_missing():
    data = np.zeros((3, 2, 2, 1), dtype=np.float32)
    data[:, 0, 0, 0] = np.nan
    record = record_of("s0", [((0, 0, 0), (1, 1, 1)), ((1, 0, 0), (0, 0, 0))])
    stats = mpjpe(dataset_of(seq_of(data, "s0")), record)
    assert stats.mean_error == 0.0  # only the recovered instance counts
    assert (stats.evaluated, stats.excluded) == (1, 1)


def test_mpjpe_empty_record_has_no_mean():
    stats = mpjpe(dataset_of(seq_of(np.zeros((3, 1, 1, 1), dtype=np.float32), "s0")), OcclusionRecord())
    assert stats.mean_error is None
    assert (stats.total, stats.evaluated, stats.excluded) == (0.0, 0, 0)


def test_mpjpe_record_mismatches():
    dataset = dataset_of(seq_of(np.zeros((3, 2, 2, 1), dtype=np.float32), "s0"))
    with pytest.raises(RecordMismatch):
        mpjpe(dataset, record_of("ghost", [((0, 0, 0), (0, 0, 0))]))
    with pytest.raises(RecordMismatch):
        mpjpe(dataset, record_of("s0", [((5, 0, 0), (0, 0, 0))]))


@pytest.mark.parametrize("row", [(-1, 0, 0), (2, 0, 0), (0, -1, 0), (0, 2, 0), (0, 0, -1), (0, 0, 1)])
def test_mpjpe_refuses_an_index_outside_the_sample_shape(row):
    # t = -1 once scored the last frame a second time
    data = np.zeros((3, 2, 2, 1), dtype=np.float32)
    data[:, 1, 0, 0] = (3.0, 4.0, 0.0)
    record = record_of("s0", [((1, 0, 0), (0, 0, 0)), (row, (0, 0, 0))])
    with pytest.raises(RecordMismatch, match="outside"):
        mpjpe(dataset_of(seq_of(data, "s0")), record)


def test_mpjpe_stats_add_totals_and_counts():
    merged = MpjpeStats(6.0, 3, 1) + MpjpeStats(4.0, 1, 0)
    assert (merged.total, merged.evaluated, merged.excluded) == (10.0, 4, 1)
    assert merged.mean_error == 2.5
    empty = MpjpeStats() + MpjpeStats(0.0, 0, 2)
    assert empty.mean_error is None
    assert empty.excluded == 2


def test_per_class_error_groups_by_label():
    near = np.zeros((3, 1, 1, 1), dtype=np.float32)
    near[:, 0, 0, 0] = (1.0, 0.0, 0.0)
    far = np.zeros((3, 1, 1, 1), dtype=np.float32)
    far[:, 0, 0, 0] = (0.0, 2.0, 0.0)
    record = record_from({sid: ([[0, 0, 0]], np.zeros((1, 3))) for sid in ("a", "b")})
    dataset = dataset_of(seq_of(near, "a", label=0), seq_of(far, "b", label=1))
    errors = per_class_error([(dataset, record)])
    assert list(errors) == [0, 1]
    assert errors[0].mean_error == pytest.approx(1.0)
    assert errors[1].mean_error == pytest.approx(2.0)
    assert (errors[1].evaluated, errors[1].excluded) == (1, 0)
    unlabeled = dataset_of(seq_of(near, "a"), seq_of(far, "b"))
    assert per_class_error([(unlabeled, record)]) == {}


# ---- against the per-sample oracles ------------------------------------------------

ORACLE_CASES = ["excluded", "nothing-hidden", "unlabelled", "partial-record", "reordered", "two-splits"]


def oracle_split(seed: int, prefix: str, case: str) -> tuple:
    """An imputed split and the record of what its occluded copy hid, with
    the feature ``case`` names."""
    rng = np.random.default_rng(seed)
    clean = dataset_of(*(
        seq_of(rng.uniform(-10, 10, size=(3, 6, 5, 2)).astype(np.float32), f"{prefix}{i}",
               label=None if case == "unlabelled" and i % 3 == 0 else int(rng.integers(3)))
        for i in range(8)))
    occluded, _ = occlude_random(clean, 0.3, seed=seed)
    if case == "nothing-hidden":
        occluded = occluded.with_data(np.where(np.arange(8)[:, None, None, None, None] % 3 == 1,
                                               clean.data, occluded.data))
    record = OcclusionRecord.between(clean, occluded)
    got, want = entries_of(record), between_ref(clean, occluded)
    assert list(got) == list(want)
    assert all(bits_equal(got[sid][i], want[sid][i]) for sid in want for i in (0, 1))
    # every hole filled near its clean value, or, in "excluded", a third left missing
    noise = rng.normal(0, 0.1, size=clean.data.shape).astype(np.float32)
    filled = np.where(np.isnan(occluded.data), clean.data + noise, occluded.data)
    if case == "excluded":
        left = (rng.uniform(size=filled[:, 0].shape) < 0.3)[:, None] & np.isnan(occluded.data)
        filled[left] = np.nan
    imputed = occluded.with_data(filled)
    if case == "partial-record":
        entries = entries_of(record)
        record = record_from({sid: entries[sid] for sid in record.sample_ids[6:0:-2]})
    if case == "reordered":
        imputed = dataset_of(*(imputed.samples[i] for i in rng.permutation(8)))
    return imputed, record


def stats_bits(stats: MpjpeStats) -> tuple:
    return stats.total.hex(), stats.evaluated, stats.excluded


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_scoring_equals_the_per_sample_oracles_bit_for_bit(case, seed):
    splits = [oracle_split(seed, "a", case)]
    if case == "two-splits":
        splits.append(oracle_split(seed + 100, "b", case))
    for imputed, record in splits:
        by_id = {seq.sample_id: seq.data for seq in imputed.samples}
        assert stats_bits(mpjpe(imputed, record)) == stats_bits(mpjpe_ref(by_id, entries_of(record)))
    pooled = {sid: entry for _, record in splits for sid, entry in entries_of(record).items()}
    got = per_class_error(splits)
    want = per_class_error_ref([imputed for imputed, _ in splits], pooled)
    assert {label: stats_bits(stats) for label, stats in got.items()} == \
        {label: stats_bits(stats) for label, stats in want.items()}
    # each case holds what it names
    stats = mpjpe(*splits[0])
    assert stats.evaluated > 0 and (stats.excluded > 0) == (case == "excluded")
    counts = [len(idx) for idx, _ in entries_of(splits[0][1]).values()]
    assert (0 in counts) == (case == "nothing-hidden")
    imputed, record = splits[0]
    assert (None in [seq.label for seq in imputed.samples]) == (case == "unlabelled")
    assert (len(record.sample_ids) < len(imputed)) == (case == "partial-record")
    assert (record.sample_ids != imputed.sample_ids) == (case in ("partial-record", "reordered"))


# ---- clustering quality -----------------------------------------------------------

def test_quality_single_cluster_two_classes():
    purity, nmi = clustering_quality(np.zeros(4, dtype=int), np.array([0, 0, 1, 1]))
    assert purity == 0.5
    assert nmi == 0.0


def test_quality_perfect_match():
    purity, nmi = clustering_quality(np.array([2, 2, 0, 0, 1]), np.array([5, 5, 9, 9, 7]))
    assert purity == 1.0
    assert nmi == pytest.approx(1.0, abs=1e-12)


def test_quality_trivial_partitions_match():
    purity, nmi = clustering_quality(np.zeros(3, dtype=int), np.zeros(3, dtype=int))
    assert (purity, nmi) == (1.0, 1.0)


def test_quality_is_permutation_invariant():
    rng = np.random.default_rng(163)
    pseudo = rng.integers(0, 4, size=60)
    truth = rng.integers(0, 3, size=60)
    base = clustering_quality(pseudo, truth)
    relabeled = (pseudo + 7) * 3  # new cluster ids, same partition
    assert clustering_quality(relabeled, truth) == pytest.approx(base)


def test_quality_accepts_pseudo_label_objects():
    from skelfill import PseudoLabels

    pseudo = PseudoLabels(labels=np.array([0, 0, 1, 1]), sample_ids=list("abcd"))
    purity, _ = clustering_quality(pseudo, np.array([3, 3, 8, 8]))
    assert purity == 1.0


def test_quality_length_mismatch():
    with pytest.raises(LengthMismatch):
        clustering_quality(np.zeros(3, dtype=int), np.zeros(4, dtype=int))
    with pytest.raises(LengthMismatch):
        clustering_quality(np.zeros(0, dtype=int), np.zeros(0, dtype=int))


# ---- report serialisation ----------------------------------------------------------

def test_eval_report_serialises():
    import json

    report = EvalReport(
        mpjpe_imputed=0.1, mpjpe_random=0.9, coverage=0.98,
        imputed_instances=100, unimputable_instances=2,
        per_class={"2": 0.2, "10": 0.05}, purity=0.9, nmi=0.85,
    )
    text = report.to_json()
    payload = json.loads(text)
    assert payload["mpjpe_imputed"] == 0.1
    assert payload["per_class"] == {"10": 0.05, "2": 0.2}
    assert text.index('"10"') < text.index('"2"')  # label keys sort as text
    assert report.csv_header() == [
        "mpjpe_imputed", "mpjpe_random", "coverage",
        "imputed_instances", "unimputable_instances", "purity", "nmi",
    ]
    assert report.csv_row() == [repr(0.1), repr(0.9), repr(0.98), "100", "2", repr(0.9), repr(0.85)]
    bare = EvalReport(
        mpjpe_imputed=0.1, mpjpe_random=0.9, coverage=1.0,
        imputed_instances=3, unimputable_instances=0,
    )
    assert bare.csv_row()[-1] == ""  # optional metrics stay blank
