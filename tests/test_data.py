"""Capture parsing, canonicalisation, and missing-mask tests."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from conftest import bits_equal, capture_text, dataset_of, seq_of
from skelfill import (
    SkeletonSequence,
    build_missing_matrix,
    compute_missing_mask,
    parse_ntu_skeleton,
    preprocess_relative,
    to_canonical,
)
from skelfill.data import resample_indices
from skelfill.errors import EmptyCapture, MalformedCapture


# ---- parser --------------------------------------------------------------

def test_parse_two_frame_capture():
    text = capture_text([
        [("body7", [(0, 0, 0), (1, 2, 3)])],
        [("body7", [(0.5, 0, 0), (1, 2, 4)])],
    ])
    raw = parse_ntu_skeleton(text)
    assert raw.frame_count == 2
    assert raw.frame_index.tolist() == [0, 1]
    assert raw.body_ids == ["body7", "body7"]
    assert raw.coords.shape == (2, 2, 3)
    assert raw.coords.dtype == np.float64
    assert raw.coords[1, 1].tolist() == [1.0, 2.0, 4.0]


def test_parse_accepts_file_object():
    text = capture_text([[("b", [(1, 1, 1)])]])
    raw = parse_ntu_skeleton(io.StringIO(text))
    assert raw.coords[0, 0].tolist() == [1.0, 1.0, 1.0]


def test_parse_reads_only_the_first_three_fields_of_long_joint_lines():
    # 12-field joint line: x y z, 8 filler fields, tracking state
    text = "1\n1\nbody1 0 0 0 0 0 0 0 0 2\n1\n0.1 0.2 0.3 0 0 0 0 0 0 0 0 1\n"
    raw = parse_ntu_skeleton(text)
    assert raw.coords.shape == (1, 1, 3)
    assert raw.coords[0, 0].tolist() == [0.1, 0.2, 0.3]


def test_parse_keeps_frames_without_bodies():
    text = capture_text([[], [("a", [(1, 1, 1)]), ("b", [(2, 2, 2)])], []])
    raw = parse_ntu_skeleton(text)
    assert raw.frame_count == 3
    assert raw.frame_index.tolist() == [1, 1]
    assert raw.body_ids == ["a", "b"]


def test_parse_rejects_a_body_with_zero_joints():
    with pytest.raises(MalformedCapture, match="zero joints") as err:
        parse_ntu_skeleton("1\n1\nbody 0\n0\n")
    assert err.value.line == 4


def test_parse_zero_frames_rejected_at_line_one():
    with pytest.raises(MalformedCapture) as err:
        parse_ntu_skeleton("0\n")
    assert err.value.line == 1


def test_parse_non_integer_count():
    with pytest.raises(MalformedCapture) as err:
        parse_ntu_skeleton("banana\n")
    assert err.value.line == 1
    assert "frame count" in str(err.value)


def test_parse_truncated_stream_points_past_last_line():
    # declares one frame with one body, then stops before the metadata line
    with pytest.raises(MalformedCapture) as err:
        parse_ntu_skeleton("1\n1\n")
    assert err.value.line == 3


def test_parse_inconsistent_joint_counts():
    lines = [
        "2",
        "1", "bodyA 0", "2", "0 0 0", "1 1 1",
        "1", "bodyA 0", "3",  # line 9: joint count changes
    ]
    with pytest.raises(MalformedCapture) as err:
        parse_ntu_skeleton("\n".join(lines))
    assert err.value.line == 9


def test_parse_short_joint_line():
    with pytest.raises(MalformedCapture) as err:
        parse_ntu_skeleton("1\n1\nbody 0\n1\n0.5 0.5\n")
    assert err.value.line == 5
    assert "fewer than 3" in str(err.value)


def test_parse_non_numeric_coordinate():
    with pytest.raises(MalformedCapture) as err:
        parse_ntu_skeleton("1\n1\nbody 0\n1\n0.5 oops 0.5\n")
    assert err.value.line == 5


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_parse_non_finite_coordinate(coord):
    with pytest.raises(MalformedCapture, match="non-finite") as err:
        parse_ntu_skeleton(f"1\n1\nbody 0\n2\n0.5 0.5 0.5\n0.5 {coord} 0.5\n")
    assert err.value.line == 6


def test_parse_trailing_content_rejected_but_blank_lines_allowed():
    good = capture_text([[("b", [(1, 1, 1)])]]) + "\n\n"
    parse_ntu_skeleton(good)  # trailing blanks are fine
    bad = capture_text([[("b", [(1, 1, 1)])]]) + "\nleftover\n"
    with pytest.raises(MalformedCapture) as err:
        parse_ntu_skeleton(bad)
    assert err.value.line == 7
    assert "trailing" in str(err.value)


def test_parse_negative_count():
    with pytest.raises(MalformedCapture):
        parse_ntu_skeleton("-2\n")


# ---- frame resampling ----------------------------------------------------

def test_resample_matches_rounding_formula():
    for source in range(1, 40):
        for target in range(1, 40):
            got = resample_indices(source, target)
            if target == 1:
                assert got == [0]
                continue
            want = [
                math.floor(i * (source - 1) / (target - 1) + 0.5)
                for i in range(target)
            ]
            assert got == want
            assert got[0] == 0 and got[-1] == source - 1
            assert all(0 <= idx < source for idx in got)
            assert all(a <= b for a, b in zip(got, got[1:]))  # monotone


def test_resample_identity_and_spot_values():
    assert resample_indices(5, 5) == [0, 1, 2, 3, 4]
    assert resample_indices(3, 5) == [0, 1, 1, 2, 2]
    downsampled = resample_indices(100, 50)
    assert downsampled[1] == 2
    assert downsampled[2] == 4
    assert downsampled[25] == 51
    assert downsampled[49] == 99


def test_resample_rejects_nonpositive():
    with pytest.raises(ValueError):
        resample_indices(0, 5)
    with pytest.raises(ValueError):
        resample_indices(5, 0)


# ---- canonicalisation ----------------------------------------------------

def test_to_canonical_ranks_bodies_by_motion():
    # "still" never moves; "mover" travels between frames
    frames = [
        [("still", [(0, 0, 0), (0, 1, 0)]), ("mover", [(1, 0, 0), (1, 1, 0)])],
        [("still", [(0, 0, 0), (0, 1, 0)]), ("mover", [(2, 0, 0), (2, 1, 0)])],
    ]
    raw = parse_ntu_skeleton(capture_text(frames))
    seq = to_canonical(raw, target_frames=2, max_bodies=1, sample_id="s")
    assert seq.data.shape == (3, 2, 2, 1)
    assert seq.data[0, 0, 0, 0] == 1.0  # mover's x wins the single slot
    assert seq.data[0, 1, 0, 0] == 2.0
    assert seq.body_present.tolist() == [True]


def test_to_canonical_motion_tie_broken_by_first_appearance():
    frames = [
        [("late", [(5, 5, 5)])],
        [("late", [(5, 5, 5)]), ("early", [(9, 9, 9)])],
    ]
    # neither body moves; "late" appears first so it outranks "early"
    raw = parse_ntu_skeleton(capture_text(frames))
    seq = to_canonical(raw, target_frames=2, max_bodies=1)
    assert seq.data[0, 0, 0, 0] == 5.0


def test_to_canonical_equal_motion_keeps_first_appearance_order():
    frames = [
        [("early", [(0, 0, 0)])],
        [("late", [(5, 0, 0)]), ("early", [(1, 0, 0)])],
        [("late", [(6, 0, 0)]), ("early", [(1, 0, 0)])],
    ]
    # both bodies move 1 along x once; "late" leads its frames but appears later
    raw = parse_ntu_skeleton(capture_text(frames))
    seq = to_canonical(raw, target_frames=3, max_bodies=2)
    assert seq.data[0, :, 0, 0].tolist() == [0.0, 1.0, 1.0]
    assert seq.data[0, :, 0, 1].tolist() == [0.0, 5.0, 6.0]  # absent in frame 0: zeros


def test_to_canonical_keeps_the_last_record_of_a_body_repeated_in_a_frame():
    frames = [
        [("a", [(1, 0, 0)]), ("a", [(2, 0, 0)]), ("b", [(0, 0, 0)])],
        [("b", [(0, 0, 0)]), ("a", [(3, 0, 0)]), ("a", [(4, 0, 0)])],
    ]
    seq = to_canonical(parse_ntu_skeleton(capture_text(frames)), target_frames=2, max_bodies=2)
    assert seq.data[0, :, 0, 0].tolist() == [2.0, 4.0]  # "a" moves, so it ranks first
    assert seq.data[0, :, 0, 1].tolist() == [0.0, 0.0]


def test_to_canonical_zero_fills_absent_slots():
    frames = [
        [("a", [(1, 1, 1)]), ("b", [(2, 2, 2)])],
        [("a", [(1, 1, 1)])],  # b missing here
    ]
    raw = parse_ntu_skeleton(capture_text(frames))
    seq = to_canonical(raw, target_frames=2, max_bodies=3)
    assert seq.body_present.tolist() == [True, True, False]
    assert (seq.data[:, :, :, 2] == 0).all()  # empty slot
    assert (seq.data[:, 1, :, 1] == 0).all()  # b absent in frame 1
    assert (seq.data[:, 0, :, 1] == 2).all()
    assert not np.isnan(seq.data).any()  # absence is zeros, never NaN


def test_to_canonical_passes_id_and_label():
    raw = parse_ntu_skeleton(capture_text([[("b", [(0, 0, 0)])]]))
    seq = to_canonical(raw, 4, 2, sample_id="clip9", label=17)
    assert seq.sample_id == "clip9"
    assert seq.label == 17
    assert seq.data.shape == (3, 4, 1, 2)


def test_to_canonical_rejects_bodiless_capture():
    raw = parse_ntu_skeleton("2\n0\n0\n")
    with pytest.raises(EmptyCapture):
        to_canonical(raw, 4, 2)


def test_to_canonical_validates_arguments():
    raw = parse_ntu_skeleton(capture_text([[("b", [(0, 0, 0)])]]))
    with pytest.raises(ValueError):
        to_canonical(raw, 0, 2)
    with pytest.raises(ValueError):
        to_canonical(raw, 4, 0)


# ---- relative coordinates ------------------------------------------------

def test_preprocess_relative_shifts_by_center():
    data = np.zeros((3, 1, 2, 1), dtype=np.float32)
    data[:, 0, 0, 0] = (1, 2, 3)  # center joint
    data[:, 0, 1, 0] = (4, 6, 8)
    before = data.copy()
    out = preprocess_relative(seq_of(data, label=3), center_joint=0)
    assert out.data[:, 0, 0, 0].tolist() == [0, 0, 0]
    assert out.data[:, 0, 1, 0].tolist() == [3, 4, 5]
    assert out.label == 3
    assert bits_equal(data, before)  # input untouched


def test_preprocess_relative_skips_frames_with_missing_center():
    data = np.ones((3, 2, 2, 1), dtype=np.float32)
    data[:, 1, 0, 0] = np.nan  # center gone in frame 1
    data[:, 1, 1, 0] = (7, 7, 7)
    out = preprocess_relative(seq_of(data), center_joint=0)
    assert (out.data[:, 0, 1, 0] == 0).all()  # frame 0 translated
    assert out.data[:, 1, 1, 0].tolist() == [7, 7, 7]  # frame 1 untouched
    assert np.isnan(out.data[:, 1, 0, 0]).all()  # hole preserved


def test_preprocess_relative_keeps_other_holes():
    data = np.ones((3, 1, 3, 1), dtype=np.float32)
    data[:, 0, 2, 0] = np.nan
    out = preprocess_relative(seq_of(data), center_joint=0)
    assert np.isnan(out.data[:, 0, 2, 0]).all()
    assert (out.data[:, 0, 1, 0] == 0).all()


def test_preprocess_relative_idempotent():
    rng = np.random.default_rng(7)
    data = rng.uniform(-2, 2, size=(3, 4, 5, 2)).astype(np.float32)
    once = preprocess_relative(seq_of(data), center_joint=1)
    twice = preprocess_relative(once, center_joint=1)
    assert bits_equal(once.data, twice.data)


def test_preprocess_relative_rejects_bad_center():
    data = np.zeros((3, 1, 2, 1), dtype=np.float32)
    with pytest.raises(ValueError):
        preprocess_relative(seq_of(data), center_joint=2)


# ---- missing masks -------------------------------------------------------

def test_missing_mask_reads_whole_triples():
    data = np.zeros((3, 2, 3, 2), dtype=np.float32)
    data[:, 1, 2, 0] = np.nan          # whole triple missing
    data[0, 0, 1, 0] = np.nan          # single channel only: not missing
    data[:, 0, 0, 1] = np.nan          # missing, but in body slot 1
    mask = compute_missing_mask(seq_of(data))
    assert mask.frame_mask.shape == (2, 3, 2)
    assert mask.frame_mask[1, 2, 0]
    assert not mask.frame_mask[0, 1, 0]
    assert mask.frame_mask[0, 0, 1]
    # the per-joint row only looks at body slot 0
    assert mask.joint_row.tolist() == [False, False, True]


def test_sequence_shape_validation():
    with pytest.raises(ValueError):
        SkeletonSequence(data=np.zeros((2, 1, 1, 1), dtype=np.float32), sample_id="x")
    with pytest.raises(ValueError):
        SkeletonSequence(data=np.zeros((3, 1, 1), dtype=np.float32), sample_id="x")


def test_build_missing_matrix_stacks_joint_rows():
    a = np.zeros((3, 2, 3, 1), dtype=np.float32)
    a[:, 0, 1, 0] = np.nan
    b = np.zeros((3, 2, 3, 1), dtype=np.float32)
    b[:, 1, 0, 0] = np.nan
    b[:, 1, 1, 0] = np.nan
    matrix = build_missing_matrix(dataset_of(seq_of(a, "a"), seq_of(b, "b")))
    assert matrix.shape == (2, 3)
    assert matrix.tolist() == [[False, True, False], [True, True, False]]
