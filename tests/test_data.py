"""Capture parsing, canonicalisation, and missing-mask tests."""

from __future__ import annotations

import io
import logging
import math

import numpy as np
import pytest

import skelfill.data

from conftest import bits_equal, capture_text, dataset_of, seq_of, write_two_body_captures
from reference import parse_ntu_skeleton_ref
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
    # a count is an optional minus sign and ASCII digits
    for count in ("banana", "\u0661", "0_2", "+1"):
        with pytest.raises(MalformedCapture) as err:
            parse_ntu_skeleton(f"{count}\n")
        assert err.value.line == 1
        assert str(err.value) == f"line 1: expected integer frame count, got {count!r}"


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


def _assert_same_capture(got, want):
    assert got.frame_count == want.frame_count
    assert got.body_ids == want.body_ids
    assert got.frame_index.dtype == want.frame_index.dtype
    assert got.frame_index.tolist() == want.frame_index.tolist()
    assert got.coords.dtype == want.coords.dtype == np.float64
    assert got.coords.shape == want.coords.shape
    assert np.array_equal(got.coords.view(np.uint64), want.coords.view(np.uint64))


def _joints_text(*joint_lines):
    """Two frames of one body each, then a frame of two bodies, each body
    holding ``joint_lines``."""
    body = ["body 0 0 0 0 0 0 0 0 2", str(len(joint_lines)), *joint_lines]
    return "\n".join(["3", "1", *body, "1", *body, "2", *body, *body]) + "\n"


_CAPTURES = {
    "ntu-12-fields": _joints_text(
        "0.1 0.2 0.3 250.5 200.5 960.5 540.5 0.5 0.1 0.8 0.2 2",
        "-1.234567 0.000001 98765.4321 0 0 0 0 0 0 0 0 1"),
    "tabs": _joints_text("0.1\t0.2\t0.3", "\t1\t2\t3\t"),
    "no-break-space": _joints_text("0.1\xa00.2\xa00.3", "1\xa0 2 \xa03"),
    "em-space": _joints_text("0.1\u20030.2\u20030.3", "1\u2003\u20032\u20033"),
    "blanks-around": _joints_text("   0.1 0.2 0.3", "0.4 0.5 0.6   ", " \t 7 8 9 \t "),
    "underscore-digits": _joints_text("1_0 2 3", "0.1 0.2 0.3"),
    "arabic-indic-digit": _joints_text("0.1 0.2 0.3", "\u0661 2 3"),
    "signs-and-short-forms": _joints_text("-0 +1e5 .5", "5. -.25 +0", "1E-3 -0.0 1e+2"),
    "float32-edges": _joints_text("3.4028235e38 -3.4028235e38 3.4028234663852886e+38",  # below inf
                                  "4.9e-324 -2.2250738585072014e-308 1.401298464324817e-45"),
    "repr-digits": _joints_text(*(f"{x!r} {x * 3!r} {-x / 7!r}" for x in
                                  np.random.default_rng(3).normal(size=40).tolist())),
    "frames-with-zero-bodies": capture_text([[], [("a", [(1, 1, 1)]), ("b", [(2, 2, 2)])], []]),
    "only-zero-body-frames": "2\n0\n0\n",
    "crlf": capture_text([[("a", [(0.1, 0.2, 0.3), (1, 2, 3)])], [("a", [(4, 5, 6), (7, 8, 9)])]])
            .replace("\n", "\r\n"),
}


@pytest.mark.parametrize("text", _CAPTURES.values(), ids=_CAPTURES.keys())
def test_parse_equals_the_line_by_line_reference(text):
    _assert_same_capture(parse_ntu_skeleton(text), parse_ntu_skeleton_ref(text))


def test_parse_equals_the_line_by_line_reference_on_written_captures(tmp_path):
    write_two_body_captures(tmp_path)
    files = sorted(tmp_path.glob("*.skeleton"))
    assert files
    for file in files:
        text = file.read_text()
        _assert_same_capture(parse_ntu_skeleton(text), parse_ntu_skeleton_ref(text))


@pytest.mark.parametrize("line, message", [
    ("", "joint line has fewer than 3 fields"),
    ("0.5 0.5", "joint line has fewer than 3 fields"),
    ("0.5 oops 0.5", "non-numeric coordinate in joint line"),
    ("0.5 0.5 nan", "non-finite coordinate in joint line"),
    ("1e39 0.5 0.5", "coordinate beyond the float32 range in joint line"),
], ids=["blank", "two-fields", "oops", "nan", "1e39"])
def test_parse_reports_a_bad_last_joint_line_as_the_reference_does(line, message):
    # the fault sits on the last joint line of the last body, after every
    # well-formed line the one-pass read takes
    text = _joints_text("0.1 0.2 0.3", "0.4 0.5 0.6")
    lines = text.splitlines()
    lines[-1] = line
    text = "\n".join(lines) + "\n"
    with pytest.raises(MalformedCapture) as err:
        parse_ntu_skeleton(text)
    with pytest.raises(MalformedCapture) as ref:
        parse_ntu_skeleton_ref(text)
    assert err.value.line == ref.value.line == len(lines)
    assert str(err.value) == str(ref.value) == f"line {len(lines)}: {message}"


def test_parse_reads_well_formed_captures_in_one_pass(tmp_path, monkeypatch):
    def per_line(*args):
        raise AssertionError("took the line-by-line path")

    write_two_body_captures(tmp_path)
    texts = [file.read_text() for file in sorted(tmp_path.glob("*.skeleton"))]
    per_line_only = ("underscore-digits", "arabic-indic-digit")  # float() reads, loadtxt refuses
    texts += [text for name, text in _CAPTURES.items() if name not in per_line_only]
    monkeypatch.setattr(skelfill.data, "_joint_coords_per_line", per_line)
    for text in texts:
        parse_ntu_skeleton(text)
    for name in per_line_only:
        with pytest.raises(AssertionError, match="line-by-line"):
            parse_ntu_skeleton(_CAPTURES[name])


def test_parse_truncated_joint_block_points_past_last_line():
    with pytest.raises(MalformedCapture, match="end of stream while reading joint line") as err:
        parse_ntu_skeleton("1\n1\nbody 0\n3\n0 0 0\n1 1 1\n")
    assert err.value.line == 7


def test_parse_reports_a_structural_fault_before_an_earlier_bad_joint_line():
    # line 5 holds a bad coordinate and line 8 a joint count that differs;
    # the structure is checked first, so line 8 is reported
    lines = ["2", "1", "bodyA 0", "1", "0.5 oops 0.5", "1", "bodyA 0", "2", "0 0 0", "1 1 1"]
    text = "\n".join(lines) + "\n"
    with pytest.raises(MalformedCapture, match="differs from earlier count") as err:
        parse_ntu_skeleton(text)
    assert err.value.line == 8
    with pytest.raises(MalformedCapture, match="non-numeric") as ref:
        parse_ntu_skeleton_ref(text)  # line order: the joint line comes first
    assert ref.value.line == 5


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


def test_preprocess_relative_skips_frames_with_missing_center(caplog):
    data = np.ones((3, 2, 2, 1), dtype=np.float32)
    data[:, 1, 0, 0] = np.nan  # center gone in frame 1
    data[:, 1, 1, 0] = (7, 7, 7)
    out = preprocess_relative(seq_of(data), center_joint=0)
    assert (out.data[:, 0, 1, 0] == 0).all()  # frame 0 translated
    assert out.data[:, 1, 1, 0].tolist() == [7, 7, 7]  # frame 1 untouched
    assert np.isnan(out.data[:, 1, 0, 0]).all()  # hole preserved
    assert caplog.record_tuples == [(
        "skelfill.data", logging.WARNING,
        "sample s0: center joint missing in 1 (frame, body) slots; left untranslated",
    )]


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
