"""Baseline embedding features and the embedding file format."""

from __future__ import annotations

import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import dataset_of, random_dataset, seq_of
from reference import embed_one_ref
from skelfill import EmbeddingMatrix, SkeletonSequence, embed_baseline, load_embeddings, save_embeddings
from skelfill.embedding import SKEMB_MAGIC, align_to_dataset
from skelfill.errors import FormatError, IdMismatch
from skelfill.graph import SkeletonGraph, chain_graph, default_skeleton_graph


def test_embedding_width():
    # 9 features per joint (mean, std, speed per channel) and one per bone
    for joints, graph, width in ((4, chain_graph(4), 39), (25, default_skeleton_graph(), 249)):
        data = np.arange(3 * 2 * joints, dtype=np.float32).reshape(3, 2, joints, 1)
        matrix = embed_baseline(dataset_of(seq_of(data, "w")), graph=graph)
        assert matrix.width == 9 * joints + len(graph.edges) == width


def test_constant_sequence_features():
    data = np.zeros((3, 5, 3, 1), dtype=np.float32)
    data[:, :, 0, 0] = np.array([0, 0, 0])[:, None]
    data[:, :, 1, 0] = np.array([1, 0, 0])[:, None]
    data[:, :, 2, 0] = np.array([1, 2, 0])[:, None]
    matrix = embed_baseline(dataset_of(seq_of(data, "c")), graph=chain_graph(3))
    row = matrix.values[0]
    v = 3
    means, stds, speeds, bones = row[: 3 * v], row[3 * v : 6 * v], row[6 * v : 9 * v], row[9 * v :]
    # channel-major per-joint means
    assert means.tolist() == [0, 1, 1, 0, 0, 2, 0, 0, 0]
    assert (stds == 0).all() and (speeds == 0).all()
    assert bones.tolist() == [1.0, 2.0]  # |j0-j1| and |j1-j2|


def test_moving_joint_speed_feature():
    data = np.zeros((3, 3, 2, 1), dtype=np.float32)
    data[0, :, 1, 0] = [0, 2, 4]  # joint 1 moves 2 units per frame along x
    matrix = embed_baseline(dataset_of(seq_of(data, "m")), graph=chain_graph(2))
    row = matrix.values[0]
    assert row[1] == 2.0          # mean x of joint 1
    assert row[6 * 2 + 1] == 2.0  # mean |step| on x for joint 1
    assert row[6 * 2] == 0.0      # joint 0 never moves


def test_missing_joint_zeroes_its_features():
    rng = np.random.default_rng(31)
    data = rng.uniform(1, 2, size=(3, 4, 3, 1)).astype(np.float32)
    data[:, :, 1, 0] = np.nan  # joint 1 never observed
    matrix = embed_baseline(dataset_of(seq_of(data, "h")), graph=chain_graph(3))
    row = matrix.values[0]
    assert np.isfinite(row).all()
    v = 3
    for block in range(3):  # means, stds, speeds
        for channel in range(3):
            assert row[block * 3 * v + channel * v + 1] == 0.0
    assert row[9 * v] == 0.0 and row[9 * v + 1] == 0.0  # both bones touch joint 1


def test_identical_samples_embed_identically():
    rng = np.random.default_rng(37)
    data = rng.uniform(-1, 1, size=(3, 4, 4, 1)).astype(np.float32)
    matrix = embed_baseline(dataset_of(seq_of(data, "a"), seq_of(data.copy(), "b")))
    assert np.array_equal(matrix.values[0], matrix.values[1])


def test_padding_body_slot_is_ignored():
    rng = np.random.default_rng(41)
    body0 = rng.uniform(-1, 1, size=(3, 4, 4, 1)).astype(np.float32)
    with_zeros = np.concatenate([body0, np.zeros_like(body0)], axis=3)
    with_junk = np.concatenate([body0, rng.uniform(5, 6, size=body0.shape).astype(np.float32)], axis=3)
    matrix = embed_baseline(
        dataset_of(
            seq_of(with_zeros, "z", body_present=[True, False]),
            seq_of(with_junk, "j", body_present=[True, True]),
        )
    )
    assert np.array_equal(matrix.values[0], matrix.values[1])


def test_embed_baseline_validation():
    from skelfill.data import Dataset

    with pytest.raises(ValueError):
        embed_baseline(Dataset.from_sequences([]))
    one = dataset_of(seq_of(np.zeros((3, 2, 3, 1), dtype=np.float32), "a"))
    with pytest.raises(ValueError, match="graph covers"):
        embed_baseline(one, graph=chain_graph(5))


def _holey_dataset(rng, frames, n=20, joints=25, bodies=1, dtype=np.float32,
                   joint_rate=0.2, frame_rate=0.0, never=()):
    """``n`` random samples of ``frames`` frames.  In body slot 0, joint
    instances are hidden at ``joint_rate``, whole frames at ``frame_rate``,
    and the joints in ``never`` in every frame; any other body slot holds
    junk, NaN included."""
    seqs = []
    for i in range(n):
        data = rng.uniform(-2, 2, size=(3, frames, joints, bodies)).astype(dtype)
        data[..., 1:] = rng.choice([np.nan, 1e30, -7.0], size=(3, frames, joints, bodies - 1))
        hidden = rng.random((frames, joints)) < joint_rate
        hidden |= (rng.random(frames) < frame_rate)[:, None]
        hidden[:, list(never)] = True
        data[:, hidden, 0] = np.nan
        seqs.append(SkeletonSequence(data=data, sample_id=f"s{i:03d}"))
    return dataset_of(*seqs)


_REFERENCE_CASES = {
    # (dataset arguments, graph); V = 25 with the default skeleton unless given
    "frame-holes": (dict(frames=40, joint_rate=0.0, frame_rate=0.3), None),
    "joint-holes": (dict(frames=40), None),
    "joint-never-present": (dict(frames=40, never=(3, 20)), None),
    "T=1": (dict(frames=1), None),
    "T=8": (dict(frames=8, frame_rate=0.1), None),
    "T=129": (dict(frames=129, joint_rate=0.01), None),
    "T=300": (dict(frames=300, frame_rate=0.05), None),
    "float64": (dict(frames=30, dtype=np.float64), None),
    "one-joint": (dict(frames=30, joints=1), SkeletonGraph(num_joints=1, edges=())),
    "chain-of-4": (dict(frames=30, joints=4), chain_graph(4)),
    "junk-second-body": (dict(frames=30, bodies=2), None),
    "N=37": (dict(frames=30, n=37), None),
}


def test_samples_of_other_frame_or_joint_counts_are_refused_when_a_dataset_is_built():
    # a dataset is one [N, 3, T, V, M] array, so embed_baseline never meets them
    zeros = np.zeros((3, 2, 3, 1), dtype=np.float32)
    for t, v in ((40, 3), (2, 4)):
        other = seq_of(np.zeros((3, t, v, 1), dtype=np.float32), "b")
        with pytest.raises(FormatError, match=re.escape(
                f"samples disagree in shape: b has (3, {t}, {v}, 1), expected (3, 2, 3, 1)")):
            dataset_of(seq_of(zeros, "a"), other)


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_embed_baseline_equals_the_per_sample_reference(case):
    kwargs, graph = _REFERENCE_CASES[case]
    rng = np.random.default_rng(sorted(_REFERENCE_CASES).index(case))
    dataset = _holey_dataset(rng, **kwargs)
    graph = graph or default_skeleton_graph()
    got = embed_baseline(dataset, graph=graph).values
    want = np.stack([embed_one_ref(seq.data[:, :, :, 0].astype(np.float64), graph)
                     for seq in dataset.samples])
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_embed_baseline_working_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(59)
    graph = default_skeleton_graph()

    def peak_without_output(n):
        dataset = _holey_dataset(rng, 50, n=n)
        tracemalloc.start()
        try:
            matrix = embed_baseline(dataset, graph=graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - matrix.values.nbytes

    small, large = peak_without_output(32), peak_without_output(160)
    assert large <= 1.5 * small, (small, large)


def test_matrix_validation():
    with pytest.raises(ValueError):
        EmbeddingMatrix(values=np.zeros((2, 3)), sample_ids=["only-one"], source="builtin")
    with pytest.raises(ValueError):
        EmbeddingMatrix(values=np.array([[np.nan]]), sample_ids=["a"], source="builtin")


# ---- file round trip -------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    values = rng.uniform(-3, 3, size=(4, 7)).astype(np.float32).astype(np.float64)
    matrix = EmbeddingMatrix(values=values, sample_ids=[f"s{i}" for i in range(4)], source="builtin")
    path = tmp_path / "m.skemb"
    save_embeddings(matrix, path)
    loaded = load_embeddings(path)
    assert loaded.sample_ids == matrix.sample_ids
    assert loaded.source == "external"
    assert np.array_equal(loaded.values, values)  # f32-representable, so exact
    # a second save of the loaded matrix is byte-identical
    again = tmp_path / "m2.skemb"
    save_embeddings(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_load_rejects_bad_files(tmp_path):
    bad_magic = tmp_path / "bad.skemb"
    bad_magic.write_bytes(b"NOTEMB" + b"\x00" * 8)
    with pytest.raises(FormatError, match="magic"):
        load_embeddings(bad_magic)

    zero_width = tmp_path / "zero.skemb"
    zero_width.write_bytes(SKEMB_MAGIC + struct.pack("<II", 0, 0))
    with pytest.raises(FormatError, match="zero-width"):
        load_embeddings(zero_width)

    truncated = tmp_path / "trunc.skemb"
    good = tmp_path / "good.skemb"
    save_embeddings(
        EmbeddingMatrix(values=np.ones((2, 3)), sample_ids=["a", "b"], source="builtin"), good
    )
    truncated.write_bytes(good.read_bytes()[:-5])
    with pytest.raises(FormatError, match="truncated"):
        load_embeddings(truncated)

    trailing = tmp_path / "trail.skemb"
    trailing.write_bytes(good.read_bytes() + b"!")
    with pytest.raises(FormatError, match="trailing"):
        load_embeddings(trailing)

    nan = tmp_path / "nan.skemb"
    nan.write_bytes(good.read_bytes()[:-4] + struct.pack("<f", float("nan")))
    with pytest.raises(FormatError, match=re.escape(f"{nan}: non-finite value in the row of 'b'")):
        load_embeddings(nan)


@pytest.mark.parametrize("n, width", [(0xFFFFFFFF, 0xFFFFFFFF), (200_000_000, 64)])
def test_load_rejects_header_larger_than_file(tmp_path, n, width):
    # rejected from the file size, before any array sized by the header
    path = tmp_path / "huge.skemb"
    path.write_bytes(SKEMB_MAGIC + struct.pack("<II", n, width) + b"\x00" * 64)
    with pytest.raises(FormatError, match="truncated"):
        load_embeddings(path)


def test_load_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.skemb"
    with open(path, "wb") as handle:
        handle.write(SKEMB_MAGIC)
        handle.write(struct.pack("<II", 2, 1))
        for _ in range(2):
            handle.write(struct.pack("<I", 4))
            handle.write(b"same")
            handle.write(np.zeros(1, dtype="<f4").tobytes())
    with pytest.raises(FormatError, match="duplicate"):
        load_embeddings(path)


def test_save_rejects_zero_width(tmp_path):
    matrix = EmbeddingMatrix(values=np.zeros((2, 0)), sample_ids=["a", "b"], source="builtin")
    with pytest.raises(FormatError):
        save_embeddings(matrix, tmp_path / "w0.skemb")


# ---- alignment ---------------------------------------------------------------

def test_align_reorders_rows_to_dataset():
    rng = np.random.default_rng(47)
    dataset = random_dataset(rng, 3)
    values = np.arange(6, dtype=np.float64).reshape(3, 2)
    shuffled_ids = [dataset.sample_ids[2], dataset.sample_ids[0], dataset.sample_ids[1]]
    matrix = EmbeddingMatrix(values=values, sample_ids=shuffled_ids, source="external")
    aligned = align_to_dataset(matrix, dataset)
    assert aligned.sample_ids == dataset.sample_ids
    assert aligned.values[0].tolist() == [2, 3]  # row that carried sample_ids[0]
    assert aligned.values[2].tolist() == [0, 1]


def test_align_rejects_id_mismatch():
    rng = np.random.default_rng(53)
    dataset = random_dataset(rng, 2)
    matrix = EmbeddingMatrix(values=np.zeros((2, 2)), sample_ids=["x", "y"], source="external")
    with pytest.raises(IdMismatch):
        align_to_dataset(matrix, dataset)
