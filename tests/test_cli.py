"""End-to-end command line behaviour and exit codes."""

import argparse
import json

import numpy as np
import pytest

from conftest import capture_text
from skelfill import formats
from skelfill.cli import build_parser, main
from skelfill.pipeline import PipelineConfig, artifact_paths

SMALL = [
    "--classes", "3", "--per-class", "4", "--test-per-class", "2",
    "--target-frames", "8",
]


def test_pipeline_smoke(tmp_path, capsys):
    work = tmp_path / "work"
    rc = main(
        ["pipeline", "--workdir", str(work), "--seed", "7", "--clusters", "3",
         "--neighbors", "3", "--rate", "0.3"] + SMALL
    )
    assert rc == 0
    report = json.loads((work / "eval_report.json").read_text())
    for key in ("mpjpe_imputed", "mpjpe_random", "coverage"):
        assert key in report
    assert 0.0 <= report["coverage"] <= 1.0

    out = capsys.readouterr().out
    assert "mpjpe_imputed:" in out
    assert "coverage:" in out
    assert "stages" not in out  # per-stage detail stays out of the plain summary


def test_json_flag_prints_machine_readable_summary(tmp_path, capsys):
    rc = main(["synth", "--workdir", str(tmp_path / "work"), "--seed", "1", "--json"] + SMALL)
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["stage"] == "synth"
    assert summary["train_samples"] == 12
    assert summary["test_samples"] == 6


def test_stagewise_run_matches_single_pipeline_run(tmp_path):
    wd_pipe = tmp_path / "pipe"
    wd_step = tmp_path / "step"
    assert main(
        ["pipeline", "--workdir", str(wd_pipe), "--seed", "7", "--clusters", "3",
         "--neighbors", "3", "--rate", "0.3"] + SMALL
    ) == 0
    for argv in (
        ["synth", "--workdir", str(wd_step), "--seed", "7"] + SMALL,
        ["occlude", "--workdir", str(wd_step), "--seed", "7", "--rate", "0.3"],
        ["embed", "--workdir", str(wd_step)],
        ["cluster", "--workdir", str(wd_step), "--seed", "7", "--clusters", "3"],
        ["impute", "--workdir", str(wd_step), "--neighbors", "3"],
        ["eval", "--workdir", str(wd_step), "--seed", "7"],
    ):
        assert main(argv) == 0, f"stage failed: {argv[0]}"

    pipe_files = sorted(p.name for p in wd_pipe.iterdir())
    step_files = sorted(p.name for p in wd_step.iterdir())
    assert pipe_files == step_files
    for name in pipe_files:
        assert (wd_pipe / name).read_bytes() == (wd_step / name).read_bytes(), name


def test_impute_before_occlude_exits_3(tmp_path, capsys):
    work = tmp_path / "work"
    work.mkdir()
    rc = main(["impute", "--workdir", str(work)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "missing artifact" in err
    assert "occlude" in err


def test_eval_before_impute_exits_3(tmp_path, capsys):
    work = tmp_path / "work"
    work.mkdir()
    rc = main(["eval", "--workdir", str(work)])
    assert rc == 3
    assert "impute" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_knob = 3\n")
    rc = main(["synth", "--config", str(cfg), "--workdir", str(tmp_path / "work")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "bogus_knob" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--threads", "0"], ["--neighbors", "0"], ["--seed", "-40"], ["--rate", "1.5"],
        ["--max-bodies", "0"], ["--center-joint", "-1"], ["--classes", "0"],
        ["--per-class", "0"], ["--test-per-class", "-1"],
        # beyond the 25 joints of the synthetic skeleton
        ["--center-joint", "99"],
        # flags of one stage lead with its subcommand
        ["ingest", "--input", "no-such-captures", "--test-frac", "-0.5"],
        ["ingest", "--input", "no-such-captures", "--test-frac", "1"],
        # the synthetic generator needs two joints and two frames
        ["synth", "--joints", "1"], ["synth", "--target-frames", "1"],
        ["cluster", "--max-iter", "0"], ["cluster", "--tol", "-1"],
        ["occlude", "--frame-fraction", "0"],
        # joint-targeted occlusion needs joints to target
        ["--mode", "joint_targeted"],
    ],
)
def test_out_of_range_flag_exits_2(tmp_path, capsys, flags):
    if flags[0].startswith("--"):
        flags = ["pipeline"] + SMALL + flags
    rc = main(flags[:1] + ["--workdir", str(tmp_path / "work")] + flags[1:])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


def test_targeted_joint_beyond_the_skeleton_exits_2(tmp_path, capsys):
    work = str(tmp_path / "work")
    assert main(["synth", "--workdir", work] + SMALL) == 0  # 25 joints
    rc = main(["occlude", "--workdir", work, "--mode", "joint_targeted", "--joints", "3,99"])
    assert rc == 2
    assert "[99] outside the 25 joints" in capsys.readouterr().err
    assert not list((tmp_path / "work").glob("*occlu*"))


def test_bad_joint_list_exits_2(tmp_path, capsys):
    for joints in ("1,two", "1,,2"):
        rc = main(["occlude", "--workdir", str(tmp_path / "work"), "--joints", joints])
        assert rc == 2
        assert "comma-separated integers" in capsys.readouterr().err


# (flag, dest, choices) on each subcommand.  The parser is generated from the
# PipelineConfig fields, so this literal is the reviewable copy of its surface.
CLI_SURFACE = {
    "ingest": [
        ("--center-joint", "center_joint", None),
        ("--config", "config", None),
        ("--format", "dataset_format", ("skl1", "csv")),
        ("--input", "input", None),
        ("--json", "json", None),
        ("--max-bodies", "max_bodies", None),
        ("--seed", "seed", None),
        ("--target-frames", "target_frames", None),
        ("--test-frac", "test_frac", None),
        ("--threads", "threads", None),
        ("--workdir", "workdir", None),
    ],
    "synth": [
        ("--classes", "synth_classes", None),
        ("--config", "config", None),
        ("--format", "dataset_format", ("skl1", "csv")),
        ("--joints", "synth_joints", None),
        ("--json", "json", None),
        ("--per-class", "synth_per_class", None),
        ("--seed", "seed", None),
        ("--target-frames", "target_frames", None),
        ("--test-per-class", "synth_test_per_class", None),
        ("--threads", "threads", None),
        ("--workdir", "workdir", None),
    ],
    "occlude": [
        ("--config", "config", None),
        ("--format", "dataset_format", ("skl1", "csv")),
        ("--frame-fraction", "occlusion_frame_fraction", None),
        ("--joints", "occlusion_joints", None),
        ("--json", "json", None),
        ("--mode", "occlusion_mode", ("random_rate", "joint_targeted")),
        ("--rate", "occlusion_rate", None),
        ("--seed", "seed", None),
        ("--threads", "threads", None),
        ("--workdir", "workdir", None),
    ],
    "embed": [
        ("--config", "config", None),
        ("--edge-list", "edge_list", None),
        ("--embeddings-test", "embeddings_test", None),
        ("--embeddings-train", "embeddings_train", None),
        ("--format", "dataset_format", ("skl1", "csv")),
        ("--json", "json", None),
        ("--seed", "seed", None),
        ("--source", "embedding_source", ("builtin", "external")),
        ("--threads", "threads", None),
        ("--workdir", "workdir", None),
    ],
    "cluster": [
        ("--clusters", "clusters", None),
        ("--config", "config", None),
        ("--format", "dataset_format", ("skl1", "csv")),
        ("--json", "json", None),
        ("--max-iter", "kmeans_max_iter", None),
        ("--normalize-embeddings", "normalize_embeddings", None),
        ("--seed", "seed", None),
        ("--threads", "threads", None),
        ("--tol", "kmeans_tol", None),
        ("--workdir", "workdir", None),
    ],
    "impute": [
        ("--config", "config", None),
        ("--format", "dataset_format", ("skl1", "csv")),
        ("--json", "json", None),
        ("--neighbors", "neighbors", None),
        ("--seed", "seed", None),
        ("--threads", "threads", None),
        ("--workdir", "workdir", None),
    ],
    "eval": [
        ("--config", "config", None),
        ("--format", "dataset_format", ("skl1", "csv")),
        ("--json", "json", None),
        ("--seed", "seed", None),
        ("--threads", "threads", None),
        ("--workdir", "workdir", None),
    ],
    "pipeline": [
        ("--center-joint", "center_joint", None),
        ("--classes", "synth_classes", None),
        ("--clusters", "clusters", None),
        ("--config", "config", None),
        ("--format", "dataset_format", ("skl1", "csv")),
        ("--input", "input", None),
        ("--json", "json", None),
        ("--max-bodies", "max_bodies", None),
        ("--mode", "occlusion_mode", ("random_rate", "joint_targeted")),
        ("--neighbors", "neighbors", None),
        ("--per-class", "synth_per_class", None),
        ("--rate", "occlusion_rate", None),
        ("--seed", "seed", None),
        ("--target-frames", "target_frames", None),
        ("--test-frac", "test_frac", None),
        ("--test-per-class", "synth_test_per_class", None),
        ("--threads", "threads", None),
        ("--workdir", "workdir", None),
    ],
}


def _surface(parser: argparse.ArgumentParser) -> dict[str, list[tuple]]:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: sorted(
            (flag, action.dest, action.choices)
            for action in stage._actions for flag in action.option_strings
            if flag not in ("-h", "--help")
        )
        for command, stage in sub.choices.items()
    }


def test_cli_surface_is_pinned(capsys):
    assert _surface(build_parser()) == CLI_SURFACE
    assert sum(len(flags) for flags in CLI_SURFACE.values()) == 83
    for command in CLI_SURFACE:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--workdir" in capsys.readouterr().out


def test_too_many_clusters_exits_4(tmp_path, capsys):
    work = str(tmp_path / "work")
    assert main(["synth", "--workdir", work, "--seed", "1"] + SMALL) == 0
    assert main(["occlude", "--workdir", work, "--seed", "1", "--rate", "0.2"]) == 0
    assert main(["embed", "--workdir", work]) == 0
    rc = main(["cluster", "--workdir", work, "--seed", "1", "--clusters", "50"])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_impute_rejects_a_partly_nan_instance_exits_4(tmp_path, capsys):
    work = str(tmp_path / "work")
    fmt = ["--workdir", work, "--format", "csv"]
    assert main(["synth", "--seed", "1"] + fmt + SMALL) == 0
    assert main(["occlude", "--seed", "1", "--rate", "0.2"] + fmt) == 0
    assert main(["embed"] + fmt) == 0
    assert main(["cluster", "--seed", "1", "--clusters", "3"] + fmt) == 0
    path = artifact_paths(PipelineConfig(workdir=work, dataset_format="csv"))["train_occluded"]
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if i and "nan" not in line)
    fields = lines[row].split(",")
    lines[row] = ",".join(fields[:5] + ["nan"] + fields[6:])  # x alone is missing
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    assert main(["impute"] + fmt) == 4
    err = capsys.readouterr().err
    assert f"{path}:{row + 1}: sample {fields[0]!r}" in err
    assert not artifact_paths(PipelineConfig(workdir=work))["imputation_report"].exists()


def test_config_file_applies_and_cli_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# corpus size\n"
        "synth.classes = 2\n"
        "synth_per_class = 2\n"
        "synth.test_per_class = 0\n"
        "target_frames = 6\n"
    )
    rc = main(["synth", "--config", str(cfg), "--workdir", str(tmp_path / "a"), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["train_samples"] == 4

    rc = main(
        ["synth", "--config", str(cfg), "--workdir", str(tmp_path / "b"),
         "--per-class", "3", "--json"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["train_samples"] == 6


def _write_captures(directory, stems):
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(29)
    for stem in stems:
        frames = []
        for _ in range(5):
            coords = rng.uniform(-1, 1, size=(4, 3))
            frames.append([(8, [tuple(row) for row in coords])])
        (directory / f"{stem}.skeleton").write_text(capture_text(frames))


def test_ingest_command_splits_and_labels(tmp_path, capsys):
    source = tmp_path / "captures"
    stems = [f"S001C001P00{i}R001A00{a}" for i, a in ((1, 2), (2, 2), (1, 5), (2, 5))]
    _write_captures(source, stems)
    work = tmp_path / "work"
    rc = main(
        ["ingest", "--input", str(source), "--workdir", str(work),
         "--target-frames", "5", "--test-frac", "0.5", "--seed", "4", "--json"]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["train_samples"] == 2
    assert summary["test_samples"] == 2

    config = PipelineConfig(workdir=str(work))
    train = formats.read_dataset(artifact_paths(config)["train"], split_tag="train")
    test = formats.read_dataset(artifact_paths(config)["test"], split_tag="test")
    labels = {seq.sample_id: seq.label for seq in train.samples + test.samples}
    assert labels == {stem: int(stem[-3:]) - 1 for stem in stems}


def test_pipeline_with_csv_artifacts(tmp_path):
    work = tmp_path / "work"
    rc = main(
        ["pipeline", "--workdir", str(work), "--format", "csv", "--seed", "2",
         "--classes", "2", "--per-class", "4", "--test-per-class", "1",
         "--target-frames", "6", "--clusters", "2", "--neighbors", "2"]
    )
    assert rc == 0
    assert (work / "train_imputed.csv").exists()
    assert not (work / "train_imputed.skl1").exists()
    report = json.loads((work / "eval_report.json").read_text())
    assert np.isfinite(report["mpjpe_imputed"])
