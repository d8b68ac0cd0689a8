"""Distance, donor selection, value fill, and the full imputation engine."""

from __future__ import annotations

import json
import math
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from conftest import bits_equal, dataset_of, seq_of
from reference import fill_one_target_ref
from skelfill import (
    Dataset,
    DonorSet,
    FlatSample,
    PseudoLabels,
    SkeletonSequence,
    find_donors,
    impute_dataset,
    impute_value,
    masked_distance,
)
from skelfill.errors import EmptyDonorSet, LabelMismatch, NoOverlap
from skelfill import imputation
from skelfill.imputation import _donor_slots, _slot_fill
from skelfill.occlusion import occlude_random
from skelfill.synth import make_corpus


def flat(values, ref=0) -> FlatSample:
    vector = np.asarray(values, dtype=np.float64)
    return FlatSample(vector=vector, present=np.isfinite(vector), sample_ref=ref)


def labels_for(dataset: Dataset, values) -> PseudoLabels:
    return PseudoLabels(labels=np.asarray(values), sample_ids=dataset.sample_ids)


def holes_of(seq) -> np.ndarray:
    return np.isnan(seq.data).all(axis=0)


# ---- masked distance ---------------------------------------------------------

def test_masked_distance_frozen_cases():
    nan = math.nan
    # overlap {0, 1}: sqrt(4/2 * (0 + 4)) = sqrt(8)
    assert masked_distance(flat([1, 2, nan, 4]), flat([1, 0, 3, nan], 1)) == pytest.approx(
        math.sqrt(8), abs=1e-12
    )
    # no holes: plain Euclidean
    assert masked_distance(flat([0, 0]), flat([3, 4], 1)) == 5.0
    # identical vectors: zero
    assert masked_distance(flat([2, nan, 5]), flat([2, nan, 5], 1)) == 0.0


def test_masked_distance_is_symmetric():
    rng = np.random.default_rng(97)
    for _ in range(200):
        a = rng.uniform(-10, 10, size=12)
        b = rng.uniform(-10, 10, size=12)
        a[rng.random(12) < 0.3] = np.nan
        b[rng.random(12) < 0.3] = np.nan
        fa, fb = flat(a), flat(b, 1)
        if not (fa.present & fb.present).any():
            continue
        assert masked_distance(fa, fb) == masked_distance(fb, fa)


def test_masked_distance_errors():
    with pytest.raises(NoOverlap):
        masked_distance(flat([1, math.nan]), flat([math.nan, 2], 1))
    with pytest.raises(ValueError):
        masked_distance(flat([1, 2]), flat([1, 2, 3], 1))


# ---- donor search --------------------------------------------------------------

def test_find_donors_orders_by_distance_then_ref():
    target = flat([0.0, 0.0], ref=0)
    cluster = [
        target,
        flat([3.0, 4.0], ref=1),    # distance 5
        flat([0.0, 1.0], ref=2),    # distance 1
        flat([0.0, 1.0], ref=3),    # duplicate of ref 2, tie
        flat([math.nan, math.nan], ref=4),  # no overlap, skipped
    ]
    donors = find_donors(cluster, target, position=0, k=3)
    assert [ref for ref, _ in donors.neighbors] == [2, 3, 1]
    assert donors.neighbors[0][1] == donors.neighbors[1][1] == 1.0


def test_find_donors_requires_position_present():
    target = flat([math.nan, 0.0], ref=0)
    cluster = [
        flat([math.nan, 1.0], ref=1),  # position 0 missing: not a donor
        flat([5.0, 0.5], ref=2),
    ]
    donors = find_donors(cluster, target, position=0, k=5)
    assert [ref for ref, _ in donors.neighbors] == [2]


def test_find_donors_shortage_and_emptiness():
    target = flat([0.0], ref=0)
    assert len(find_donors([flat([1.0], 1)], target, 0, k=5)) == 1
    assert len(find_donors([], target, 0, k=5)) == 0
    with pytest.raises(ValueError):
        find_donors([], target, 0, k=0)
    with pytest.raises(ValueError):
        find_donors([], target, 5, k=1)
    with pytest.raises(ValueError):
        find_donors([flat([1.0, 2.0], 1)], target, 0, k=1)


# ---- weighted fill ---------------------------------------------------------------

def donor_set(dists):
    return DonorSet(neighbors=[(i + 1, d) for i, d in enumerate(dists)])


def test_impute_value_inverse_distance_weighting():
    # (1/1 + 3/2) / (1/1 + 1/2) = 5/3
    assert impute_value(donor_set([1.0, 2.0]), np.array([1.0, 3.0])) == pytest.approx(5 / 3, abs=1e-15)


def test_impute_value_single_donor():
    assert impute_value(donor_set([4.0]), np.array([7.5])) == 7.5


def test_impute_value_zero_distance_rule():
    assert impute_value(donor_set([0.0, 1.0]), np.array([7.0, 9.0])) == 7.0
    assert impute_value(donor_set([0.0, 0.0]), np.array([7.0, 9.0])) == 8.0


def test_impute_value_validation():
    with pytest.raises(EmptyDonorSet):
        impute_value(DonorSet(), np.array([]))
    with pytest.raises(ValueError):
        impute_value(donor_set([1.0]), np.array([1.0, 2.0]))


def test_fill_adds_each_column_in_candidate_order():
    # the engine fills many columns in one call and impute_value one; past 8
    # donors numpy's sum would add those two shapes in different orders
    rng = np.random.default_rng(149)
    dist = np.sort(rng.uniform(0.5, 3.0, size=16))
    values = rng.uniform(-2, 2, size=(16, 300))
    slot, valid = _donor_slots(rng.random((16, 300)) < 0.8, 10)  # [slot, column]
    assert valid.any(axis=0).all() and valid.all(axis=0).sum() > 200
    fill = _slot_fill(dist[slot], valid, np.take_along_axis(values, slot, axis=0)[:, None])
    for j in range(values.shape[1]):
        rows = slot[valid[:, j], j]
        assert (np.diff(rows) > 0).all()  # the first usable candidates, in order
        donors = DonorSet(neighbors=[(int(i), float(dist[i])) for i in rows])
        assert impute_value(donors, values[rows, j]) == fill[0, j]
        num = den = -0.0
        for i in rows:  # one donor at a time, in candidate order
            num += (1.0 / dist[i]) * values[i, j]
            den += 1.0 / dist[i]
        assert num / den == fill[0, j]


# ---- full engine ------------------------------------------------------------------

def holed_copy(data, spots):
    out = np.asarray(data, dtype=np.float32).copy()
    for t, v, m in spots:
        out[:, t, v, m] = np.nan
    return out


def test_impute_dataset_fills_from_identical_neighbours():
    rng = np.random.default_rng(101)
    base = rng.uniform(-1, 1, size=(3, 2, 3, 1)).astype(np.float32)
    dataset = dataset_of(
        seq_of(holed_copy(base, [(1, 2, 0)]), "target"),
        seq_of(base.copy(), "donor-a"),
        seq_of(base.copy(), "donor-b"),
    )
    trace: dict = {}
    imputed, _, report = impute_dataset(
        dataset, labels_for(dataset, [0, 0, 0]), k=5, trace=trace
    )
    # zero-distance donors carry the exact original value
    assert bits_equal(imputed.samples[0].data, base)
    assert trace[("target", 1, 2, 0)] == (1, 2)
    counts = report.train["target"]
    assert (counts.missing, counts.imputed, counts.unimputable) == (3, 3, 0)


def test_impute_dataset_leaves_present_values_untouched():
    rng = np.random.default_rng(103)
    base = rng.uniform(-4, 4, size=(3, 3, 4, 2)).astype(np.float32)
    holed = holed_copy(base, [(0, 1, 0), (2, 3, 1)])
    dataset = dataset_of(
        seq_of(holed, "a"), seq_of(base.copy(), "b"), seq_of(base.copy(), "c")
    )
    imputed, _, _ = impute_dataset(dataset, labels_for(dataset, [0, 0, 0]), k=2)
    out = imputed.samples[0].data
    present = np.isfinite(holed)
    assert out[present].tobytes() == holed[present].tobytes()
    assert not np.isnan(out).any()


def test_impute_dataset_weights_follow_the_formula():
    # two donors at controlled distances; verify the blended value
    t, v, m = 1, 0, 0
    target = np.zeros((3, 2, 2, 1), dtype=np.float32)
    near = np.zeros((3, 2, 2, 1), dtype=np.float32)
    far = np.zeros((3, 2, 2, 1), dtype=np.float32)
    near[0, 0, 0, 0] = 1.0   # distance sqrt(L/L * 1) over full overlap
    far[0, 0, 0, 0] = 2.0
    near[:, t, v, m] = 10.0
    far[:, t, v, m] = 20.0
    holed = holed_copy(target, [(t, v, m)])
    dataset = dataset_of(seq_of(holed, "t"), seq_of(near, "n"), seq_of(far, "f"))
    imputed, _, _ = impute_dataset(dataset, labels_for(dataset, [0, 0, 0]), k=2)
    L = 12
    d_near = math.sqrt(L / (L - 3) * 1.0)
    d_far = math.sqrt(L / (L - 3) * 4.0)
    expected = (10 / d_near + 20 / d_far) / (1 / d_near + 1 / d_far)
    got = imputed.samples[0].data[0, t, v, m]
    assert got == pytest.approx(expected, abs=1e-6)


def test_impute_dataset_tallies_unimputable():
    rng = np.random.default_rng(107)
    base = rng.uniform(-1, 1, size=(3, 2, 3, 1)).astype(np.float32)
    spots = [(0, 1, 0)]
    dataset = dataset_of(
        seq_of(holed_copy(base, spots), "a"),
        seq_of(holed_copy(base, spots), "b"),  # every member misses the same joint
    )
    imputed, _, report = impute_dataset(dataset, labels_for(dataset, [0, 0]), k=3)
    for seq in imputed.samples:
        assert np.isnan(seq.data[:, 0, 1, 0]).all()
    totals = report.totals()
    assert totals.missing == 6
    assert totals.imputed == 0
    assert totals.unimputable == 6


def test_impute_dataset_counts_invariant():
    rng = np.random.default_rng(109)
    seqs = []
    for i in range(6):
        data = rng.uniform(-2, 2, size=(3, 3, 3, 1)).astype(np.float32)
        spots = [(int(t), int(v), 0) for t, v in rng.integers(0, 3, size=(2, 2))]
        seqs.append(seq_of(holed_copy(data, spots), f"s{i}"))
    dataset = dataset_of(*seqs)
    _, _, report = impute_dataset(dataset, labels_for(dataset, [0, 1, 0, 1, 0, 1]), k=2)
    totals = report.totals()
    assert totals.missing == totals.imputed + totals.unimputable
    parsed = json.loads(report.to_json())
    assert report.to_json() == json.dumps(asdict(report) | {"totals": asdict(totals)},
                                          sort_keys=True, indent=2)
    assert parsed["totals"]["missing"] == totals.missing
    assert parsed["k"] == 2
    assert parsed["cluster_sizes"] == {"0": 3, "1": 3}


def test_impute_dataset_donors_read_original_values_only():
    # two samples missing the same joint at different frames: each must be
    # filled from the other's ORIGINAL data, not from its imputed copy
    base_a = np.full((3, 2, 2, 1), 1.0, dtype=np.float32)
    base_b = np.full((3, 2, 2, 1), 5.0, dtype=np.float32)
    a = holed_copy(base_a, [(0, 0, 0)])
    b = holed_copy(base_b, [(1, 0, 0)])
    dataset = dataset_of(seq_of(a, "a"), seq_of(b, "b"))
    imputed, _, _ = impute_dataset(dataset, labels_for(dataset, [0, 0]), k=1)
    # a's hole reads b's original 5s; b's hole reads a's original 1s
    assert (imputed.samples[0].data[:, 0, 0, 0] == 5.0).all()
    assert (imputed.samples[1].data[:, 1, 0, 0] == 1.0).all()


def test_impute_dataset_is_order_independent():
    rng = np.random.default_rng(113)
    seqs = []
    for i in range(8):
        data = rng.uniform(-3, 3, size=(3, 3, 4, 1)).astype(np.float32)
        spots = [(int(t), int(v), 0) for t, v in rng.integers(0, 3, size=(3, 2))]
        seqs.append(seq_of(holed_copy(data, spots), f"s{i}"))
    label_values = [0, 1, 0, 1, 0, 1, 0, 1]

    forward = dataset_of(*seqs)
    out_fwd, _, _ = impute_dataset(forward, labels_for(forward, label_values), k=3)

    perm = [5, 2, 7, 0, 3, 6, 1, 4]
    backward = dataset_of(*[seqs[i] for i in perm])
    out_bwd, _, _ = impute_dataset(
        backward, labels_for(backward, [label_values[i] for i in perm]), k=3
    )
    by_id = {seq.sample_id: seq for seq in out_bwd.samples}
    for seq in out_fwd.samples:
        assert bits_equal(seq.data, by_id[seq.sample_id].data)


def test_impute_dataset_threads_match_single_thread():
    rng = np.random.default_rng(127)
    seqs = []
    for i in range(10):
        data = rng.uniform(-3, 3, size=(3, 2, 4, 1)).astype(np.float32)
        spots = [(int(t), int(v), 0) for t, v in rng.integers(0, 2, size=(2, 2))]
        spots = [(t, min(v, 3), m) for t, v, m in spots]
        seqs.append(seq_of(holed_copy(data, spots), f"s{i}"))
    dataset = dataset_of(*seqs)
    labels = labels_for(dataset, [i % 3 for i in range(10)])
    out_one, _, rep_one = impute_dataset(dataset, labels, k=2, threads=1)
    out_four, _, rep_four = impute_dataset(dataset, labels, k=2, threads=4)
    for a, b in zip(out_one.samples, out_four.samples):
        assert bits_equal(a.data, b.data)
    assert rep_one.to_json() == rep_four.to_json()


def test_a_lone_cluster_runs_in_the_calling_thread(monkeypatch):
    rng = np.random.default_rng(149)

    def corpus(n, prefix, split):
        data = rng.uniform(-2, 2, size=(n, 3, 4, 5, 1)).astype(np.float32)
        data = np.where(rng.random((n, 1, 4, 5, 1)) < 0.3, np.float32(np.nan), data)
        return dataset_of(*(seq_of(row, f"{prefix}{i}") for i, row in enumerate(data)), split=split)

    train, test = corpus(12, "tr", "train"), corpus(3, "te", "test")
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))

    def run(threads, labels=0):
        return impute_dataset(train, labels_for(train, [labels] * 6 + [0] * 6), test,
                              labels_for(test, [0] * 3), k=3, threads=threads)

    one, two = run(1), run(2)
    assert started == []
    for a, b in zip(one[:2], two[:2]):
        assert bits_equal(a.data, b.data)
    assert one[2].to_json() == two[2].to_json()
    assert one[2].totals().imputed > 0
    run(2, labels=1)  # two clusters: the probe sees the pool's worker
    assert started


def test_impute_dataset_test_split_draws_from_train_only():
    rng = np.random.default_rng(131)
    base = rng.uniform(-1, 1, size=(3, 2, 3, 1)).astype(np.float32)
    train = dataset_of(
        seq_of(base.copy(), "tr0"), seq_of((base + 1).astype(np.float32), "tr1"), split="train"
    )
    test_seq = holed_copy(base, [(0, 2, 0)])
    test = dataset_of(
        seq_of(test_seq, "te0"),
        seq_of(holed_copy(base, [(1, 1, 0)]), "te1"),
        split="test",
    )
    trace: dict = {}
    _, imputed_test, report = impute_dataset(
        train,
        labels_for(train, [0, 1]),
        test,
        labels_for(test, [0, 7]),  # label 7 has no training members
        k=3,
        trace=trace,
    )
    # te0 drew its donor from train cluster 0 (only member: index 0)
    assert trace[("te0", 0, 2, 0)] == (0,)
    assert bits_equal(imputed_test.samples[0].data, base)
    # te1's cluster is empty on the training side: everything stays missing
    assert np.isnan(imputed_test.samples[1].data[:, 1, 1, 0]).all()
    counts = report.test["te1"]
    assert counts.unimputable == counts.missing == 3


def test_a_target_with_no_hole_computes_no_distance(monkeypatch):
    rng = np.random.default_rng(139)
    train = dataset_of(*[seq_of(rng.uniform(size=(3, 2, 3, 1)), f"tr{i}") for i in range(4)])
    test = dataset_of(
        seq_of(rng.uniform(size=(3, 2, 3, 1)), "te0"),
        seq_of(holed_copy(rng.uniform(size=(3, 2, 3, 1)), [(0, 1, 0)]), "te1"),
        split="test",
    )
    rows = []
    kernel = imputation._distances_to_members
    monkeypatch.setattr(imputation, "_distances_to_members",
                        lambda members, *rest: rows.append(len(members)) or kernel(members, *rest))
    out, out_test, report = impute_dataset(
        train, labels_for(train, [0, 0, 1, 1]), test, labels_for(test, [0, 0]), k=2)
    assert sum(rows[:-1]) == 0  # the unoccluded samples compared no member row
    assert rows[-1] == 2  # te1, the one target with a hole, compared train cluster 0
    for before, after in zip(train.samples + test.samples[:1], out.samples + out_test.samples[:1]):
        assert bits_equal(before.data, after.data)
    assert report.test["te1"].imputed == 3


def shortlist_corpus(offset: float, seed: int) -> Dataset:
    """One cluster at synth scale that stresses the shortlist's bounds.
    Values are ``offset`` plus differences of about 1e-3 (offset 1e4) or 1
    (offset 0).  Coordinate (0, 0, 0, 0) is 0 except in the near copies and
    q, and joint instance (0, 0, 1) is present in rows 0 and 1 alone."""
    rng = np.random.default_rng(seed)
    shape, spread = (3, 50, 25, 2), 1e-3 if offset else 1.0

    def row(values):
        data = np.array(values, dtype=np.float32)
        data[:, rng.random(shape[1:]) < 0.1] = np.nan
        data[:, 0, 0, 1] = np.nan
        data[0, 0, 0, 0] = 0.0
        return data

    base = offset + spread * rng.uniform(-1, 1, size=shape)
    rows = [row(base + spread * rng.uniform(-0.3, 0.3, size=shape)) for _ in range(14)]
    rows[0][:, 0, 0, 1] = rows[1][:, 0, 0, 1] = offset  # fewer than k donors there
    rows += [rows[3].copy(), rows[3].copy(), rows[5].copy()]  # exact ties under other refs
    # near copies of row 7: their distances to a target differ from row 7's by
    # about j/2 units in the last place before the square root
    squares = [np.nansum((data.astype(np.float64) - rows[7]) ** 2) for data in rows]
    for j in range(1, 5):
        near = rows[7].copy()
        near[0, 0, 0, 0] = np.sqrt(j * 2.0**-53 * np.median(squares))
        rows.append(near)
    # closer to row 7 than to any other row: row 7 and its near copies come first
    rows += [row(rows[7] + spread * rng.uniform(-0.01, 0.01, size=shape)) for _ in range(3)]
    # equal to offset: at offset 0 their distance to each other and its bounds are 0
    rows += [row(np.full(shape, offset)) for _ in range(2)]
    # for target w, q is 2e-7 farther than p, well inside q's bounds: w and q
    # share the large coordinates z, which p misses and which widen q's bounds
    z = (slice(None), slice(1, 11), 1, 0)
    values = base + spread * rng.uniform(-0.3, 0.3, size=shape)
    values[z] = offset + 1000 * spread
    w, p = row(values), row(values + spread * rng.uniform(-0.01, 0.01, size=shape))
    w[z], p[z] = values[z], np.nan
    both = np.isfinite(w) & np.isfinite(p)
    gap = np.sum((p[both].astype(np.float64) - w[both]) ** 2)
    q = p.copy()
    q[z] = w[z]
    q[0, 0, 0, 0] = np.sqrt(gap * (both.sum() + w[z].size) / both.sum() * (1 + 2e-7) - gap)
    rows += [w, p, q]
    # present exactly where row 0 is missing: no overlap with row 0
    apart = np.where(np.isnan(rows[0]), rows[2], np.nan).astype(np.float32)
    apart[:, 0, 0, 1] = np.nan  # keeps rows 0 and 1 the only donors there
    rows.append(apart)
    return dataset_of(*[seq_of(data, f"s{i:02d}") for i, data in enumerate(rows)])


def full_pool_fill(seq, rows, k):
    """A target's filled data and donors from ``fill_one_target_ref`` on
    every row of the split, and its candidates' distances in neighbour order."""
    donors: dict = {}
    data, _ = fill_one_target_ref(seq, rows, np.arange(len(rows)), k, donors)
    flat = np.where(np.isfinite(seq.data), seq.data, np.nan).astype(np.float32).reshape(-1)
    dist = imputation._distances_to_members(rows, flat)
    return data, donors, np.sort(dist[np.isfinite(dist)])


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("k", [1, 5])
def test_shortlist_gives_the_full_pool_donors(offset, k):
    dataset = shortlist_corpus(offset, seed=151)
    n = len(dataset.samples)
    trace: dict = {}
    imputed, _, _ = impute_dataset(dataset, labels_for(dataset, [0] * n), k=k, trace=trace)
    rows = imputation._rows(dataset)
    donors: dict = {}
    ties = near = short = 0
    for seq, out in zip(dataset.samples, imputed.samples):
        data, chosen, dist = full_pool_fill(seq, rows, k)
        assert bits_equal(out.data, data)
        donors |= chosen
        gaps = np.diff(dist)
        ties += int((gaps == 0).sum())
        near += int(((gaps > 0) & (gaps <= 4 * np.spacing(dist[1:]))).sum())
        short += sum(0 < len(refs) < k for refs in chosen.values())
    assert trace == donors
    assert ties and (short or k == 1) and (near or offset)  # the corpus has what it claims


def bounds_rows(kind: str, rng) -> np.ndarray:
    """Float32 rows [n, L] with NaN where a value is absent, of one kind the
    bounds' error term must cover: rows that overlap in few positions, where
    each row's own sum of squares far exceeds the overlap's, and rows of
    magnitudes near 1e30 or 1e-30, which hold values of both signs."""
    n, length = 40, 3 * 6 * 5 * 2
    if kind == "few-overlap":
        rows = np.full((n, length), np.nan, dtype=np.float32)
        rows[:, :6] = rng.uniform(-1, 1, size=(n, 6))  # the positions rows share, small
        for row in rows:  # and large values at 30 positions of 15..L-1, few shared
            own = 15 + rng.choice(length - 15, size=30, replace=False)
            row[own] = rng.uniform(-1e3, 1e3, size=own.size)
        # rows 1 to 3 share nothing with the others; rows 2 and 3 share 6..11
        rows[1:4] = np.nan
        rows[1, 12:15] = rng.uniform(-1e3, 1e3, size=3)
        rows[2:4, 6:12] = rng.uniform(-1e3, 1e3, size=(2, 6))
        return rows
    scale = float(kind.split("-", 1)[1])
    rows = (scale * rng.uniform(-1, 1, size=(n, length))).astype(np.float32)
    rows[5] = rows[4] * np.float32(1 + 2.0**-20)  # nearly equal rows
    rows[rng.random((n, length)) < 0.3] = np.nan
    return rows


def assert_bounds_hold(targets, members):
    """The bounds of the ``(rows, index)`` pairs ``targets`` and ``members``
    hold for every pair of the rows they gather."""
    lo, hi = imputation._distance_bounds(targets, members)
    targets, members = (rows[index] for rows, index in (targets, members))
    assert lo.shape == hi.shape == (len(targets), len(members))
    for target, (row_lo, row_hi) in enumerate(zip(lo, hi)):
        # the value the loop takes the square root of, as it computes it
        vector = targets[target].astype(np.float64)
        both = ~np.isnan(members) & ~np.isnan(vector)
        counts = both.sum(axis=1)
        diff = np.where(both, members - vector, 0.0)
        ignored = (diff * diff).sum(axis=1)
        valid = counts > 0
        value = members.shape[1] / counts[valid] * ignored[valid]
        dist = imputation._distances_to_members(members, vector)
        assert bits_equal(np.sqrt(value), dist[valid])
        assert (row_lo[valid] <= value).all() and (value <= row_hi[valid]).all()
        assert np.isinf(row_lo[~valid]).all() and np.isinf(row_hi[~valid]).all()
    return lo, hi


def test_distance_bounds_hold_for_every_pair():
    # each kind of rows against itself, and every third row against all of
    # them, so the bounds run both ways
    rng = np.random.default_rng(197)
    for kind in ("offset-0", "offset-1e4", "few-overlap", "scale-1e30", "scale-1e-30"):
        if kind.startswith("offset"):
            rows = imputation._rows(shortlist_corpus(float(kind.split("-")[1]), seed=151))
        else:
            rows = bounds_rows(kind, rng)
        every = (rows, np.arange(len(rows)))
        lo, _ = assert_bounds_hold(every, every)
        assert_bounds_hold((rows, np.arange(0, len(rows), 3)), every)
        if kind.startswith("offset"):
            assert np.isinf(lo[0, -1])  # the row apart from row 0
        elif kind == "few-overlap":
            assert np.isinf(lo[1:4, 4:]).all() and np.isfinite(lo[2, 3])


def test_distance_bounds_of_gathered_rows_equal_those_of_their_copy():
    # members in no order, with gaps and across gathers of several rows,
    # give the bits of the same rows copied out in that order
    rng = np.random.default_rng(211)
    rows = bounds_rows("scale-1", rng)
    rows = np.concatenate([rows] * 3)  # 120 rows: 90 members take two gathers a block
    members = rng.permutation(len(rows))[:90]
    targets = members[::4]
    copied = (rows[members], np.arange(members.size))
    want = imputation._distance_bounds((rows[targets], np.arange(targets.size)), copied)
    got = imputation._distance_bounds((rows, targets), (rows, members))
    assert all(bits_equal(a, b) for a, b in zip(got, want))
    same = (rows, members)
    assert all(bits_equal(a, b) for a, b in zip(imputation._distance_bounds(same, same),
                                                  imputation._distance_bounds(copied, copied)))


def test_distance_bounds_hold_three_target_member_arrays():
    # besides its two block buffers a side, the pass holds the sum, the
    # overlap counts and the product buffer, [target, member] float64 each,
    # and the bool of which pairs share nothing
    rng = np.random.default_rng(199)
    rows = rng.uniform(-1, 1, size=(600, 300)).astype(np.float32)
    rows[rng.random(rows.shape) < 0.2] = np.nan
    members = (rows, np.arange(len(rows)))
    width = min(imputation.BLOCK_COLUMNS, rows.shape[1])
    for targets in (members, (rows, np.arange(400))):
        sides = len(members[1]) + len(targets[1]) * (targets is not members)
        cells = len(targets[1]) * len(members[1])
        tracemalloc.start()
        try:
            lo, hi = imputation._distance_bounds(targets, members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the buffers' values and presence, and the float32 values and bool
        # presence of one gather of a few rows, which fills them
        buffers = sides * width * (8 + 8) + imputation.GATHER_SCALARS * (4 + 1)
        assert peak <= 3 * 8 * cells + cells + buffers + (1 << 17), peak


def test_the_exact_pass_sees_a_shortlist(monkeypatch):
    # 120 samples of 10 motions in one cluster: the exact distances of each
    # target are computed on a shortlist, not on the whole pool
    clean = make_corpus(classes=10, per_class=12, frames=20, seed=157)
    dataset, _ = occlude_random(clean, rate=0.1, seed=157)
    n = len(dataset.samples)
    rows = []
    kernel = imputation._distances_to_members
    monkeypatch.setattr(imputation, "_distances_to_members",
                        lambda members, *rest: rows.append(len(members)) or kernel(members, *rest))
    _, _, report = impute_dataset(dataset, labels_for(dataset, [0] * n), k=5)
    assert len(rows) == n and 0 < sum(rows) <= n * n / 4
    assert report.totals().imputed == report.totals().missing > 0


def test_a_float32_split_without_infinity_gives_its_own_rows_to_every_pool():
    rng = np.random.default_rng(179)
    arrays = random_arrays(rng, 6)
    split = as_dataset(arrays, "s")
    rows = imputation._rows(split)
    assert np.shares_memory(rows, split.data)
    # a pool of part of the split, its members out of order, reads those
    # rows and holds one bool a joint instance: its members' channel-0 presence
    members = np.array([4, 1, 3])
    pool_rows, present, refs = imputation._pool(rows, members)
    assert pool_rows is rows and bits_equal(refs, members)
    assert bits_equal(present, np.isfinite(rows[members, : rows.shape[1] // 3]))
    # an infinity and float64 data each get one float32 copy with NaN
    # wherever a value is not finite
    with_inf = [data.copy() for data in arrays]
    with_inf[4][1, 2, 3, 0] = -np.inf
    for dataset in (as_dataset(with_inf, "s"), as_dataset(random_arrays(rng, 6, dtype=np.float64), "s")):
        rows = imputation._rows(dataset)
        want = dataset.data.reshape(len(dataset.samples), -1).astype(np.float32)
        assert not np.shares_memory(rows, dataset.data)
        assert bits_equal(rows, np.where(np.isfinite(want), want, np.float32(np.nan)))


def test_impute_dataset_leaves_its_inputs_bit_identical():
    # one cluster of each whole split: the pools are the splits' own rows
    rng = np.random.default_rng(181)
    arrays = random_arrays(rng, 30)
    arrays[0][:, 0, 0, 0] = np.uint32(0x7FC0_0001).view(np.float32)  # a hole with a NaN payload
    train, test = as_dataset(arrays, "tr"), as_dataset(random_arrays(rng, 4), "te", "test")
    before = [dataset.data.copy() for dataset in (train, test)]
    out, out_test, report = impute_dataset(train, labels_for(train, [0] * 30), test,
                                           labels_for(test, [0] * 4), k=3)
    assert report.totals().imputed > 0
    for dataset, data, filled in zip((train, test), before, (out, out_test)):
        assert bits_equal(dataset.data, data)
        assert not np.shares_memory(filled.data, dataset.data)


def test_one_cluster_imputes_within_a_bounded_transient():
    # 120 samples in one cluster, so the bounds pass runs on the whole split.
    # In units of the split's bytes, the peak, 2.83, is a fill block's: the
    # filled copy and the targets' holes (1.14), the channel-0 mask (1/12)
    # and FILL_BYTES of block arrays (1.46).  The bounds pass before it
    # peaks at 2.54, with its two block buffers (2/3) and its three
    # [member, member] arrays (1/2).  A per-scalar mask would add 1/6 more,
    # a [member, member] table kept through the fill 1/6, and a copy of the
    # pool 13/12
    clean = make_corpus(classes=10, per_class=12, frames=20, seed=173)
    dataset, _ = occlude_random(clean, rate=0.05, seed=173)
    labels = labels_for(dataset, [0] * len(dataset.samples))
    tracemalloc.start()
    try:
        _, _, report = impute_dataset(dataset, labels, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.totals().imputed == report.totals().missing > 0
    assert peak <= 2.9 * dataset.data.nbytes


def test_pools_built_at_once_in_two_threads_add_only_their_masks(monkeypatch):
    # two clusters, each a part of the split, filled by two threads.  Both
    # tasks build their pools at once, while the calling thread waits on
    # them: the pools index the split's own rows and add one bool a joint
    # instance
    rng = np.random.default_rng(193)
    train = as_dataset(random_arrays(rng, 40, shape=(3, 20, 25, 2)), "tr")
    length = train.data[0].size
    marks = []

    def mark():
        marks.append(tracemalloc.get_traced_memory()[0])

    both, build = threading.Barrier(2, action=mark, timeout=60), imputation._pool

    def pool(rows, members):
        both.wait()
        out = build(rows, members)
        both.wait()
        return out

    monkeypatch.setattr(imputation, "_pool", pool)
    tracemalloc.start()
    try:
        _, _, report = impute_dataset(train, labels_for(train, [i % 2 for i in range(40)]), k=3, threads=2)
    finally:
        tracemalloc.stop()
    assert report.totals().imputed > 0
    before, after = marks
    masks = 40 * (length // 3)  # two pools of 20 members: a bool an instance
    assert masks <= after - before <= masks + 4096


@pytest.mark.parametrize("fill_bytes", [1, 6000])
@pytest.mark.parametrize("name", ["40-targets", "pools-either-side-of-4k"])
def test_fill_blocks_of_any_size_fill_alike(monkeypatch, name, fill_bytes):
    # blocks of one hole, and blocks of about ten holes, which end inside
    # most targets' holes, give the values, counts and donors of the
    # default blocks
    train, train_labels, test, test_labels, k, threads = reference_case(name)
    args = (train, labels_for(train, train_labels), test,
            None if test is None else labels_for(test, test_labels))
    runs = []
    for size in (imputation.FILL_BYTES, fill_bytes):
        monkeypatch.setattr(imputation, "FILL_BYTES", size)
        trace: dict = {}
        out_train, out_test, report = impute_dataset(*args, k=k, threads=threads, trace=trace)
        runs.append(([out.data.tobytes() for out in (out_train, out_test) if out is not None],
                     report.to_json(), trace))
    assert runs[0] == runs[1]


def shortlist_by_partition(usable, lo, hi, k):
    """The shortlist's rule with every hole's limit taken by partitioning
    the hi of all of its usable rows."""
    usable = usable & np.isfinite(lo)[:, None]
    cut = np.where(usable, hi[:, None], np.inf)
    limit = np.partition(cut, k - 1, axis=0)[k - 1]
    return np.flatnonzero((usable & (lo[:, None] <= limit)).any(axis=1))


def test_shortlist_falls_back_for_holes_short_of_k_donors_in_its_head():
    # 40 rows and k = 3, so the head is the 12 rows of least hi.  Hole 0 has
    # one usable row there and three beyond it; hole 1's third usable row
    # ties on hi with its fourth; hole 2 is usable everywhere but in the row
    # that overlaps nothing, which hole 0 alone may use.
    rng = np.random.default_rng(163)
    n, k = 40, 3
    hi = np.round(np.sort(rng.uniform(1.0, 2.0, size=n)), 2)
    hi[6] = hi[5]
    lo = hi - rng.uniform(0.0, 0.5, size=n)
    rank = rng.permutation(n)  # row rank[i] is the i-th in hi order
    lo, hi = lo[np.argsort(rank)], hi[np.argsort(rank)]
    present = np.zeros((n, 9), dtype=bool)
    present[rank[[10, 20, 30, 35]], 0] = True
    present[rank[[0, 2, 5, 6]], 1] = True
    present[:, 2] = True
    apart = rank[25]
    lo[apart] = hi[apart] = np.inf
    present[apart, 0] = True
    holes = np.arange(3)
    head = np.argsort(hi, kind="stable")[: 4 * k]
    assert present[head, 0].sum() < k <= present[:, 0].sum()
    assert hi[rank[5]] == hi[rank[6]]
    kept = imputation._shortlist(present, holes, lo, hi, k)
    assert bits_equal(kept, shortlist_by_partition(present[:, holes], lo, hi, k))
    assert set(rank[[10, 20, 30]]) <= set(kept.tolist()) and apart not in kept
    assert {rank[5], rank[6]} <= set(kept.tolist())
    # every row within the least limit, and none beyond the largest
    for trial in range(20):
        lo = rng.uniform(0.0, 2.0, size=n)
        hi = lo + rng.uniform(0.0, 0.2, size=n)
        usable = rng.random((n, 9)) < rng.uniform(0.05, 0.9)
        assert bits_equal(imputation._shortlist(usable, holes, lo, hi, k),
                          shortlist_by_partition(usable[:, holes], lo, hi, k)), trial


def random_arrays(rng, n, shape=(3, 6, 5, 2), rate=0.25, dtype=np.float32):
    arrays = []
    for _ in range(n):
        data = rng.uniform(-2, 2, size=shape).astype(dtype)
        data[:, rng.random(shape[1:]) < rate] = np.nan
        arrays.append(data)
    return arrays


def as_dataset(arrays, prefix, split="train"):
    # not seq_of, which casts to float32: float64 data keeps its digits
    seqs = [SkeletonSequence(data=data, sample_id=f"{prefix}{i:02d}") for i, data in enumerate(arrays)]
    return dataset_of(*seqs, split=split)


def reference_case(name):
    """(train, train labels, test, test labels, k, threads) for one case of
    the engine against ``fill_one_target_ref``."""
    rng = np.random.default_rng(167)
    if name.startswith("shortlist"):
        _, offset, k = name.split("-")
        train = shortlist_corpus(float(offset), seed=151)
        return train, [0] * len(train.samples), None, None, int(k), 1
    if name == "zero-distance":
        train = random_arrays(rng, 12)
        for i, source in ((3, 2), (7, 6), (8, 6)):  # copies, with a hole of their own
            train[i] = train[source].copy()
            train[i][:, i % 6, 1, 0] = np.nan
        return as_dataset(train, "tr"), [0] * 12, None, None, 3, 1
    if name == "inf-member":
        train, test = random_arrays(rng, 10), random_arrays(rng, 3)
        train[2][0, 1, 2, 0] = np.inf  # channel 0 of a present instance
        train[5][:, 3, 4, 1] = np.inf
        train[7][0, 0, 0, 0], train[7][1:, 0, 0, 0] = -np.inf, np.nan
        test[1][0, 2, 2, 0] = np.inf
        return as_dataset(train, "tr"), [0] * 10, as_dataset(test, "te", "test"), [0, 0, 0], 4, 1
    if name == "test-label-without-train":
        train, test = as_dataset(random_arrays(rng, 8), "tr"), as_dataset(random_arrays(rng, 4), "te", "test")
        return train, [0, 1] * 4, test, [1, 5, 0, 5], 3, 2
    if name == "members-without-holes":
        train = random_arrays(rng, 30, rate=0.0)
        for data in train[::3]:
            data[:, rng.random(data.shape[1:]) < 0.3] = np.nan
        test = as_dataset(random_arrays(rng, 5), "te", "test")
        return as_dataset(train, "tr"), [0] * 30, test, [0] * 5, 2, 1
    if name == "pools-either-side-of-4k":  # k = 4: 17 members bounded, 9 not
        train, test = as_dataset(random_arrays(rng, 26), "tr"), as_dataset(random_arrays(rng, 6), "te", "test")
        return train, [0] * 17 + [1] * 9, test, [0, 1, 1, 0, 1, 0], 4, 2
    if name == "40-targets":  # about 6000 holes: more than one fill block of FILL_BYTES
        train = as_dataset(random_arrays(rng, 40, shape=(3, 20, 25, 1), rate=0.3), "tr")
        return train, [0] * 40, None, None, 5, 1
    if name == "float64":
        train = as_dataset(random_arrays(rng, 25, dtype=np.float64), "tr")
        test = as_dataset(random_arrays(rng, 5, dtype=np.float64), "te", "test")
        return train, [0] * 25, test, [0] * 5, 5, 1
    raise ValueError(name)


REFERENCE_CASES = [f"shortlist-{offset}-{k}" for offset in ("0", "1e4") for k in (1, 5, 10)] + [
    "zero-distance", "inf-member", "test-label-without-train", "members-without-holes",
    "pools-either-side-of-4k", "40-targets", "float64",
]


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_engine_equals_the_per_target_reference(name):
    train, train_labels, test, test_labels, k, threads = reference_case(name)
    trace: dict = {}
    out_train, out_test, report = impute_dataset(
        train, labels_for(train, train_labels),
        test, None if test is None else labels_for(test, test_labels),
        k=k, threads=threads, trace=trace,
    )
    rows = np.array([seq.data.ravel() for seq in train.samples], dtype=np.float32)
    want: dict = {}
    filled = 0
    sides = [(train, train_labels, out_train, report.train)]
    if test is not None:
        sides.append((test, test_labels, out_test, report.test))
    for dataset, labels, out, counts in sides:
        for seq, label, got in zip(dataset.samples, labels, out.samples):
            members = np.flatnonzero(np.asarray(train_labels) == label)
            with np.errstate(invalid="ignore"):  # the reference weighs an infinite row by 0
                data, expected = fill_one_target_ref(seq, rows[members], members, k, want)
            assert np.array_equal(got.data.view(np.uint32), data.view(np.uint32)), seq.sample_id
            assert counts[seq.sample_id] == expected, seq.sample_id
            filled += expected.imputed
    assert trace == want
    assert filled > 0


def test_impute_dataset_rejects_misaligned_labels():
    rng = np.random.default_rng(137)
    seqs = [seq_of(rng.uniform(size=(3, 2, 2, 1)).astype(np.float32), f"s{i}") for i in range(3)]
    dataset = dataset_of(*seqs)
    wrong_order = PseudoLabels(labels=np.zeros(3, dtype=np.int64), sample_ids=["s1", "s0", "s2"])
    with pytest.raises(LabelMismatch):
        impute_dataset(dataset, wrong_order)
    with pytest.raises(LabelMismatch):
        impute_dataset(dataset, None)
    with pytest.raises(ValueError):
        impute_dataset(dataset, labels_for(dataset, [0, 0, 0]), k=0)


@pytest.mark.parametrize("k, threads", [(3, 1), (3, 2), (10, 1), (10, 2)])
def test_scalar_api_agrees_with_engine(k, threads):
    # every hole of a clustered corpus with a test split: find_donors picks
    # the engine's donors in the engine's order, and impute_value gives the
    # engine's coordinate bit for bit.  k = 10 gives donor sets past 8, where
    # numpy's sum of a single column goes pairwise; threads = 2 runs the pool.
    rng = np.random.default_rng(139)

    def corpus(n, prefix, split):
        seqs = []
        for i in range(n):
            if i % 4 == 3:  # exact copy of the previous sample: distance ties
                data = seqs[-1].data.copy()
            else:
                data = rng.uniform(-2, 2, size=(3, 4, 5, 2)).astype(np.float32)
                data[:, rng.random((4, 5, 2)) < 0.25] = np.nan
            seqs.append(seq_of(data, f"{prefix}{i}"))
        return dataset_of(*seqs, split=split)

    train = corpus(48, "tr", "train")
    test = corpus(8, "te", "test")
    train_labels = labels_for(train, [(i // 4) % 3 for i in range(48)])
    test_labels = labels_for(test, [i % 4 for i in range(8)])  # label 3: no train members
    trace: dict = {}
    out_train, out_test, _ = impute_dataset(
        train, train_labels, test, test_labels, k=k, threads=threads, trace=trace
    )

    def flat_of(seq, ref):
        return flat(seq.data.astype(np.float64).ravel(), ref)

    members = [flat_of(seq, i) for i, seq in enumerate(train.samples)]
    filled = ties = unfilled = full = 0
    for dataset, labels, out, own in (
        (train, train_labels, out_train, True),
        (test, test_labels, out_test, False),
    ):
        for gi, seq in enumerate(dataset.samples):
            target = flat_of(seq, gi if own else -1)
            cluster = [
                member for member, label in zip(members, train_labels.labels)
                if label == labels.labels[gi]
            ]
            for t, v, m in np.argwhere(holes_of(seq)).tolist():
                pos = [int(np.ravel_multi_index((c, t, v, m), seq.data.shape)) for c in range(3)]
                donors = find_donors(cluster, target, pos[0], k)
                refs = tuple(ref for ref, _ in donors.neighbors)
                assert trace.get((seq.sample_id, t, v, m), ()) == refs
                got = out.samples[gi].data[:, t, v, m]
                if not refs:
                    assert np.isnan(got).all()
                    unfilled += 1
                    continue
                dists = [dist for _, dist in donors.neighbors]
                ties += len(set(dists)) < len(dists)
                full += len(refs) == k
                for c in range(3):
                    values = np.array([members[r].vector[pos[c]] for r in refs])
                    assert bits_equal(np.float32(impute_value(donors, values)), got[c])
                filled += 1
    assert filled > 50 and ties > 0 and unfilled > 0 and full > 50
