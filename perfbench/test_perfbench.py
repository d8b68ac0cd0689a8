"""Tests of the benchmark's own checks.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import calibration
import checks
import run

sys.path.insert(0, str(run.SRC))

from skelfill import formats  # noqa: E402
from skelfill.cli import main as skelfill_main  # noqa: E402


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("bench") / "work"
    code = skelfill_main([
        "pipeline", "--workdir", str(work), "--seed", "3", "--classes", "3",
        "--per-class", "6", "--test-per-class", "2", "--clusters", "2",
        "--rate", "0.2", "--neighbors", "3",
    ])
    assert code == 0
    return work


def _copy(work: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "copy"
    shutil.copytree(work, copy)
    return copy


def test_checks_pass_on_a_clean_run(workdir):
    results = checks.run_checks(workdir, "skl1", k=3, seed=0, spot=10_000)
    assert results == {name: [] for name in checks.CHECKS}


def test_spot_check_fails_on_a_corrupted_fill(workdir, tmp_path):
    copy = _copy(workdir, tmp_path)
    occluded = formats.read_dataset(copy / "test_occluded.skl1", split_tag="test")
    imputed = formats.read_dataset(copy / "test_imputed.skl1", split_tag="test")
    filled = np.isnan(occluded.samples[0].data) & np.isfinite(imputed.samples[0].data)
    c, t, v, m = np.argwhere(filled)[0]
    imputed.samples[0].data[c, t, v, m] += np.float32(0.25)
    formats.write_dataset(imputed, copy / "test_imputed.skl1", "skl1")

    results = checks.run_checks(copy, "skl1", k=3, seed=0, spot=10_000)
    assert len(results["donor-spot-check"]) == 1
    assert f"(t,v,m)={(int(t), int(v), int(m))}" in results["donor-spot-check"][0]
    assert results["present-unchanged"] == [] and results["holes-accounted"] == []


def test_spot_check_fails_when_a_neighbour_count_differs(workdir):
    results = checks.run_checks(workdir, "skl1", k=2, seed=0, spot=10_000)
    assert results["donor-spot-check"]


def test_digest_check_fails_on_a_corrupted_artifact(workdir, tmp_path):
    copy = _copy(workdir, tmp_path)
    reference = checks.digests(workdir)
    assert checks.check_digests(reference, checks.digests(copy)) == []

    raw = bytearray((copy / "train_imputed.skl1").read_bytes())
    raw[-1] ^= 0x01
    (copy / "train_imputed.skl1").write_bytes(bytes(raw))
    problems = checks.check_digests(reference, checks.digests(copy))
    assert problems == ["train_imputed.skl1: digest differs from the first repetition"]


def test_present_check_fails_on_a_changed_coordinate(workdir, tmp_path):
    copy = _copy(workdir, tmp_path)
    occluded = formats.read_dataset(copy / "train_occluded.skl1")
    imputed = formats.read_dataset(copy / "train_imputed.skl1")
    index = tuple(np.argwhere(np.isfinite(occluded.samples[1].data))[0])
    imputed.samples[1].data[index] = -imputed.samples[1].data[index] - 1.0
    formats.write_dataset(imputed, copy / "train_imputed.skl1", "skl1")
    assert checks.check_present_unchanged(checks.Workdir.load(copy, "skl1"))


def test_layer_self_time_subtracts_nested_calls():
    spans = [
        {"id": 0, "parent": None, "layer": "pipeline", "name": "pipeline.run_pipeline",
         "metric": None, "start": 0.0, "end": 10.0, "cpu": 0.0, "error": False},
        {"id": 1, "parent": 0, "layer": "pipeline", "name": "pipeline.run_eval",
         "metric": "pipeline.eval.s", "start": 1.0, "end": 9.0, "cpu": 0.0, "error": False},
        {"id": 2, "parent": 1, "layer": "evaluation", "name": "evaluation.per_class_error",
         "metric": "evaluation.per_class.s", "start": 2.0, "end": 6.0, "cpu": 0.0, "error": True},
        {"id": 3, "parent": 2, "layer": "evaluation", "name": "evaluation.mpjpe",
         "metric": "evaluation.mpjpe.s", "start": 3.0, "end": 5.0, "cpu": 0.0, "error": False},
    ]
    out = run.layer_metrics(spans)
    assert out["pipeline.self_s"] == pytest.approx(6.0)
    assert out["evaluation.self_s"] == pytest.approx(4.0)
    assert out["pipeline.eval.s"] == pytest.approx(8.0)
    assert out["evaluation.per_class.s"] == pytest.approx(4.0)
    assert out["evaluation.mpjpe.s"] == 0.0  # counted inside per_class, not twice
    assert out["evaluation.errors"] == 1


def test_reference_seconds_cancel_the_host_speed():
    times, passes = [2.0, 2.2, 2.4], [0.4, 0.5, 0.6, 0.5]
    assert run.reference_seconds(times, passes) == pytest.approx(2.2 * run.CAL_REF_S / 0.5)
    slow_host = run.reference_seconds([t * 1.7 for t in times], [c * 1.7 for c in passes])
    assert slow_host == pytest.approx(run.reference_seconds(times, passes))
    slow_program = run.reference_seconds([t * 1.7 for t in times], passes)
    assert slow_program == pytest.approx(1.7 * run.reference_seconds(times, passes))


def test_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(128 << 20)  # parent RSS well above the child's peak
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    peak = tmp_path / "peak.txt"
    env = dict(os.environ, PYTHONPATH=str(run.SRC), PERFBENCH_PEAK=str(peak))
    child = run.run_child([sys.executable, "-c", run.PROGRAM, "--help"], env, tmp_path / "log")
    assert child.code == 0
    assert run._peak_mib(peak) < 100.0
    del ballast


def test_calibration_is_a_positive_time():
    assert 0.0 < calibration.calibrate() < 60.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
