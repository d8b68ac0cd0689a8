"""Seeded k-means: exactness, determinism, and the model file format."""

from __future__ import annotations

import struct

import numpy as np
import pytest

import skelfill.data
from reference import init_plusplus_ref
from skelfill import ClusterModel, EmbeddingMatrix, kmeans_fit, kmeans_predict
from skelfill.clustering import SKKM_MAGIC, _init_plusplus, _sq_distances, load_model, save_model
from skelfill.data import BLOCK_BYTES
from skelfill.errors import DimensionMismatch, FormatError, KTooLarge


def matrix_of(values, prefix="e") -> EmbeddingMatrix:
    values = np.asarray(values, dtype=np.float64)
    return EmbeddingMatrix(
        values=values, sample_ids=[f"{prefix}{i}" for i in range(values.shape[0])], source="builtin"
    )


def test_single_cluster_is_the_mean():
    rng = np.random.default_rng(59)
    rows = rng.normal(size=(20, 4))
    model, labels = kmeans_fit(matrix_of(rows), k=1, seed=0)
    assert labels.labels.tolist() == [0] * 20
    assert np.allclose(model.centroids[0], rows.mean(axis=0), atol=1e-12)
    expected_inertia = ((rows - rows.mean(axis=0)) ** 2).sum()
    assert abs(model.inertia - expected_inertia) < 1e-9


def test_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(61)
    rows = rng.normal(size=(7, 3))
    model, labels = kmeans_fit(matrix_of(rows), k=7, seed=5)
    assert model.inertia == 0.0
    assert sorted(labels.labels.tolist()) == list(range(7))


def test_recovers_well_separated_blobs():
    rng = np.random.default_rng(67)
    blob_a = rng.normal(0.0, 0.1, size=(15, 3))
    blob_b = rng.normal(50.0, 0.1, size=(12, 3))
    rows = np.vstack([blob_a, blob_b])
    truth = np.array([0] * 15 + [1] * 12)
    for seed in range(10):
        _, labels = kmeans_fit(matrix_of(rows), k=2, seed=seed)
        # the two blobs form the two clusters, up to label swap
        assert len(set(labels.labels[truth == 0].tolist())) == 1
        assert len(set(labels.labels[truth == 1].tolist())) == 1
        assert labels.labels[0] != labels.labels[-1]


def test_predict_breaks_ties_toward_lowest_index():
    model = ClusterModel(
        centroids=np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]),
        k=3, inertia=0.0, iterations_run=0, seed=0,
    )
    labels = kmeans_predict(model, matrix_of([[0.0, 0.0], [5.0, 5.0], [2.4, 2.4]]))
    assert labels.labels.tolist() == [0, 2, 0]


def test_predict_rejects_width_mismatch():
    model = ClusterModel(centroids=np.zeros((2, 3)), k=2, inertia=0.0, iterations_run=0, seed=0)
    with pytest.raises(DimensionMismatch):
        kmeans_predict(model, matrix_of(np.zeros((2, 4))))


def test_fit_is_deterministic():
    rng = np.random.default_rng(71)
    rows = rng.normal(size=(30, 5))
    model_a, labels_a = kmeans_fit(matrix_of(rows), k=4, seed=123)
    model_b, labels_b = kmeans_fit(matrix_of(rows), k=4, seed=123)
    assert model_a.centroids.tobytes() == model_b.centroids.tobytes()
    assert labels_a.labels.tobytes() == labels_b.labels.tobytes()
    assert model_a.inertia == model_b.inertia


def test_inertia_log_never_increases():
    rng = np.random.default_rng(73)
    for trial in range(40):
        rows = rng.normal(size=(rng.integers(8, 40), rng.integers(2, 5)))
        log: list[float] = []
        model, _ = kmeans_fit(matrix_of(rows), k=int(rng.integers(1, 6)), seed=trial, inertia_log=log)
        assert len(log) == model.iterations_run + 1
        for prev, cur in zip(log, log[1:]):
            assert cur <= prev + 1e-8 * max(1.0, prev)
        assert log[-1] == model.inertia


def test_converged_centroids_are_cluster_means():
    rng = np.random.default_rng(79)
    rows = rng.normal(size=(40, 3))
    model, labels = kmeans_fit(matrix_of(rows), k=4, seed=9, max_iter=500, tol=0.0)
    assert model.iterations_run < 500  # converged by stable labels
    for label in range(4):
        members = rows[labels.labels == label]
        assert members.shape[0] > 0
        assert np.allclose(model.centroids[label], members.mean(axis=0), rtol=1e-9, atol=1e-12)


def test_predict_on_training_rows_matches_fit_labels():
    rng = np.random.default_rng(83)
    rows = rng.normal(size=(25, 4))
    matrix = matrix_of(rows)
    model, labels = kmeans_fit(matrix, k=3, seed=2, max_iter=500, tol=0.0)
    assert kmeans_predict(model, matrix).labels.tolist() == labels.labels.tolist()


def test_duplicate_heavy_input_triggers_empty_cluster_repair():
    distinct = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    rows = np.repeat(distinct, 4, axis=0)  # 12 rows, only 3 distinct
    model, labels = kmeans_fit(matrix_of(rows), k=5, seed=1)
    assert model.centroids.shape == (5, 2)
    assert set(labels.labels.tolist()) <= set(range(5))
    assert model.inertia <= 1e-12  # every point sits on some centroid


@pytest.mark.parametrize("k, d", [(60, 249), (3, 1 << 16), (1, 7)])
@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_sq_distances_equal_a_row_at_a_time_bit_for_bit_across_block_edges(k, d, scale):
    # the rows span two whole blocks and one row of a third (one row a block
    # when the K * D float64 differences of a row alone exceed the budget)
    n = 2 * max(1, BLOCK_BYTES // (8 * k * d)) + 1
    rng = np.random.default_rng(k)
    rows = rng.standard_normal((n, d)) * scale
    centroids = rng.standard_normal((k, d)) * scale
    expected = np.stack([((row - centroids) ** 2).sum(axis=1) for row in rows])
    assert _sq_distances(rows, centroids).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, d, k", [(40, 7, 6), (301, 249, 60), (1, 3, 1), (9, 4, 9), (25, 1, 25)])
@pytest.mark.parametrize("budget", [BLOCK_BYTES, 1])
def test_plusplus_seeding_equals_the_reference_bit_for_bit(monkeypatch, n, d, k, budget):
    # at any budget (one row a block at 1 byte); K = 1, K = N, and rows
    # repeated so that all mass sits on drawn rows before K are drawn
    monkeypatch.setattr(skelfill.data, "BLOCK_BYTES", budget)
    rng = np.random.default_rng(n * d + k)
    cases = [rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=d),
             np.repeat(rng.standard_normal((-(-n // 4), d)), 4, axis=0)[:n]]
    for rows in cases:
        for seed in range(3):
            got = _init_plusplus(rows, k, np.random.default_rng(seed))
            want = init_plusplus_ref(rows, k, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()


def test_k_bounds():
    rows = np.zeros((4, 2))
    with pytest.raises(KTooLarge):
        kmeans_fit(matrix_of(rows), k=0, seed=0)
    with pytest.raises(KTooLarge):
        kmeans_fit(matrix_of(rows), k=5, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(matrix_of(np.zeros((4, 2))), k=1, seed=0, max_iter=0)
    with pytest.raises(ValueError):
        kmeans_fit(matrix_of(np.zeros((4, 2))), k=1, seed=0, tol=-1.0)


# ---- model file ------------------------------------------------------------

def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(89)
    centroids = rng.normal(size=(3, 4)).astype(np.float32).astype(np.float64)
    model = ClusterModel(centroids=centroids, k=3, inertia=2.5, iterations_run=7, seed=99)
    path = tmp_path / "m.skkm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.k == 3
    assert loaded.inertia == 2.5
    assert loaded.seed == 99
    assert loaded.iterations_run == 0  # not serialised
    assert np.array_equal(loaded.centroids, centroids)
    again = tmp_path / "m2.skkm"
    save_model(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_model_load_errors(tmp_path):
    bad = tmp_path / "bad.skkm"
    bad.write_bytes(b"WRONG" + b"\x00" * 24)
    with pytest.raises(FormatError, match="magic"):
        load_model(bad)

    degenerate = tmp_path / "deg.skkm"
    degenerate.write_bytes(SKKM_MAGIC + struct.pack("<IIdQ", 0, 3, 0.0, 0))
    with pytest.raises(FormatError, match="degenerate"):
        load_model(degenerate)

    good = tmp_path / "good.skkm"
    save_model(
        ClusterModel(centroids=np.ones((2, 2)), k=2, inertia=0.0, iterations_run=0, seed=0), good
    )
    truncated = tmp_path / "trunc.skkm"
    truncated.write_bytes(good.read_bytes()[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_model(truncated)
    trailing = tmp_path / "trail.skkm"
    trailing.write_bytes(good.read_bytes() + b"x")
    with pytest.raises(FormatError, match="trailing"):
        load_model(trailing)


def test_a_model_whose_seed_the_header_cannot_hold_writes_no_file(tmp_path):
    path = tmp_path / "m.skkm"
    model = ClusterModel(centroids=np.ones((2, 2)), k=2, inertia=0.0, iterations_run=0, seed=2**64)
    with pytest.raises(struct.error):
        save_model(model, path)
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_load_refuses_a_non_finite_centroid(tmp_path, value):
    # such a centroid would give every row the label 0 in kmeans_predict
    centroids = np.arange(6, dtype=np.float64).reshape(3, 2)
    centroids[1, 0] = value
    path = tmp_path / "m.skkm"
    save_model(ClusterModel(centroids=centroids, k=3, inertia=0.0, iterations_run=0, seed=0), path)
    with pytest.raises(FormatError, match=f"{path}: non-finite value in centroid 1"):
        load_model(path)
