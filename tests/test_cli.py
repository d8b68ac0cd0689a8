"""End-to-end command line behaviour and exit codes."""

import argparse
import dataclasses
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import capture_text, write_two_body_captures
from skelfill import Dataset, formats
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


@pytest.mark.parametrize("fmt, source", [("csv", "synth"), ("skl1", "ingest"), ("csv", "ingest")])
def test_stagewise_run_matches_a_pipeline_that_hands_datasets_on(tmp_path, fmt, source):
    # the ingest captures include a motionless second body, whose slot a
    # dataset read back calls absent while ingest's own object holds it
    if source == "ingest":
        write_two_body_captures(tmp_path / "captures")
        first = ["ingest", "--input", str(tmp_path / "captures"), "--target-frames", "6",
                 "--test-frac", "0.4"]
    else:
        first = ["synth"] + SMALL
    common = ["--format", fmt, "--seed", "7"]
    wd_pipe, wd_step = tmp_path / "pipe", tmp_path / "step"
    assert main(["pipeline", "--workdir", str(wd_pipe), "--rate", "0.3", "--clusters", "2",
                 "--neighbors", "2"] + first[1:] + common) == 0
    for argv in (first, ["occlude", "--rate", "0.3"], ["embed"], ["cluster", "--clusters", "2"],
                 ["impute", "--neighbors", "2"], ["eval"]):
        assert main(argv + ["--workdir", str(wd_step)] + common) == 0, f"stage failed: {argv[0]}"

    names = sorted(p.name for p in wd_pipe.iterdir())
    assert names == sorted(p.name for p in wd_step.iterdir())
    for name in names:
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


def test_a_skl1_dataset_of_no_records_exits_4(tmp_path, capsys):
    work = tmp_path / "work"
    assert main(["synth", "--workdir", str(work), "--seed", "1"] + SMALL) == 0
    path = work / "train.skl1"
    path.write_bytes(path.read_bytes()[:4] + struct.pack("<I", 0) + path.read_bytes()[8:24])
    capsys.readouterr()
    assert main(["occlude", "--workdir", str(work), "--seed", "1"]) == 4
    assert f"error: {path}: header declares no records" in capsys.readouterr().err
    assert not (work / "train_occluded.skl1").exists()


def test_a_skl1_dataset_with_a_repeated_sample_id_exits_4(tmp_path, capsys):
    work = tmp_path / "work"
    assert main(["synth", "--workdir", str(work), "--seed", "1"] + SMALL) == 0
    path = work / "train.skl1"
    clean = formats.read_dataset(path)
    first = clean.samples[0].sample_id
    formats.write_dataset(Dataset.from_sequences(
        [dataclasses.replace(seq, sample_id=first) if i == 1 else seq
         for i, seq in enumerate(clean.samples)]), path, "skl1")
    capsys.readouterr()
    assert main(["occlude", "--workdir", str(work), "--seed", "1"]) == 4
    assert f"error: {path}: duplicate sample ids" in capsys.readouterr().err
    assert not (work / "train_occluded.skl1").exists()


def test_a_csv_index_beyond_float64_exits_4(tmp_path, capsys):
    work = tmp_path / "work"
    assert main(["synth", "--workdir", str(work), "--seed", "1", "--format", "csv"] + SMALL) == 0
    path = work / "train.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    lines[1] = ",".join(fields[:2] + ["9" * 400] + fields[3:])
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["occlude", "--workdir", str(work), "--seed", "1", "--format", "csv"]) == 4
    assert f"error: {path}: sample {fields[0]!r}: out-of-range index" in capsys.readouterr().err
    assert not (work / "train_occluded.csv").exists()


def test_a_csv_index_written_with_spaces_and_underscores_exits_4(tmp_path, capsys):
    work = tmp_path / "work"
    assert main(["synth", "--workdir", str(work), "--seed", "1", "--format", "csv"] + SMALL) == 0
    path = work / "train.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    lines[1] = ",".join(fields[:2] + [f" {fields[2]}_0 "] + fields[3:])  # int() reads t * 10
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["occlude", "--workdir", str(work), "--seed", "1", "--format", "csv"]) == 4
    assert f"error: {path}:2: malformed numeric field" in capsys.readouterr().err
    assert not (work / "train_occluded.csv").exists()


def test_a_cluster_label_beyond_int64_exits_4(tmp_path, capsys):
    work = str(tmp_path / "work")
    assert main(["synth", "--workdir", work, "--seed", "1"] + SMALL) == 0
    for stage in (["occlude", "--rate", "0.2"], ["embed"], ["cluster", "--clusters", "3"]):
        assert main(stage + ["--workdir", work, "--seed", "1"]) == 0, stage[0]
    path = artifact_paths(PipelineConfig(workdir=work))["labels_train"]
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].split(",")[0] + f",{10**23}\r\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["impute", "--workdir", work]) == 4
    assert f"error: {path}:2: label {10**23} outside" in capsys.readouterr().err


def _rename_samples(path):
    clean = formats.read_dataset(path)
    renamed = [dataclasses.replace(seq, sample_id=f"other-{seq.sample_id}")
               for seq in clean.samples]
    formats.write_dataset(Dataset.from_sequences(renamed), path, "skl1")


@pytest.mark.parametrize("damage, code, message", [
    (Path.unlink, 3, "eval: required input {path} is missing; run 'ingest' first"),
    (_rename_samples, 4, "has no clean sample"),
], ids=["deleted", "other-ids"])
def test_eval_takes_ground_truth_from_the_clean_split(tmp_path, capsys, damage, code, message):
    work = str(tmp_path / "work")
    assert main(["synth", "--workdir", work, "--seed", "1"] + SMALL) == 0
    for stage in (["occlude", "--rate", "0.2"], ["embed"], ["cluster", "--clusters", "3"],
                  ["impute", "--neighbors", "3"]):
        assert main(stage + ["--workdir", work, "--seed", "1"]) == 0, stage[0]
    path = artifact_paths(PipelineConfig(workdir=work))["train"]
    damage(path)
    capsys.readouterr()
    assert main(["eval", "--workdir", work, "--seed", "1"]) == code
    assert message.format(path=path) in capsys.readouterr().err


def test_nothing_hidden_gives_strict_json(tmp_path, capsys):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    work = tmp_path / "work"
    rc = main(["pipeline", "--workdir", str(work), "--seed", "1", "--clusters", "3",
               "--neighbors", "3", "--rate", "0", "--json"] + SMALL)
    assert rc == 0
    summary = json.loads(capsys.readouterr().out, parse_constant=refuse)
    report = json.loads((work / "eval_report.json").read_text(), parse_constant=refuse)
    for key in ("mpjpe_imputed", "mpjpe_random", "coverage"):
        assert summary[key] is None and report[key] is None, key
    assert report["imputed_instances"] == report["unimputable_instances"] == 0
    header, row = (work / "eval_report.csv").read_text().splitlines()
    assert row.split(",")[:3] == ["", "", ""]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_knob = 3\n")
    rc = main(["synth", "--config", str(cfg), "--workdir", str(tmp_path / "work")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "bogus_knob" in err


@pytest.mark.parametrize("stage", ["ingest", "occlude", "cluster", "eval"])
def test_a_stage_seed_key_is_unknown(tmp_path, capsys, stage):
    # each stage's seed is the base seed plus the stage's fixed offset
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed_{stage} = 5\n")
    rc = main(["synth", "--config", str(cfg), "--workdir", str(tmp_path / "work")])
    assert rc == 2
    assert f"unknown config key 'seed_{stage}'" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


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
        # an integer is an optional minus sign and ASCII digits
        ["--classes", "\u0662"], ["--per-class", "1_0"], ["--test-per-class", "+1"],
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


@pytest.mark.parametrize("case, code", [
    ("non-integer", 4), ("joint-99", 4), ("missing", 3), ("nan-embedding", 4),
])
def test_bad_embed_input_names_its_file(tmp_path, capsys, case, code):
    work = str(tmp_path / "work")
    assert main(["synth", "--workdir", work, "--seed", "1"] + SMALL) == 0
    assert main(["occlude", "--workdir", work, "--seed", "1", "--rate", "0.2"]) == 0
    bad = tmp_path / "bad"
    if case == "nan-embedding":
        assert main(["embed", "--workdir", work]) == 0
        good = (tmp_path / "work" / "train.skemb").read_bytes()
        bad.write_bytes(good[:-4] + struct.pack("<f", float("nan")))
        flags = ["--source", "external", "--embeddings-train", str(bad)]
    else:
        if case != "missing":
            bad.write_text({"non-integer": "0 1\n1 x\n", "joint-99": "0 1\n1 99\n"}[case])
        flags = ["--edge-list", str(bad)]
    capsys.readouterr()
    assert main(["embed", "--workdir", work] + flags) == code
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("case, code", [
    ("edge-list", 3), ("external-embeddings", 3), ("train_occluded", 3), ("test_occluded", 3),
    ("workdir", 2),
])
def test_a_path_of_the_wrong_kind_exits_with_its_code(tmp_path, capsys, case, code):
    work = tmp_path / "work"
    assert main(["synth", "--workdir", str(work), "--seed", "1"] + SMALL) == 0
    assert main(["occlude", "--workdir", str(work), "--seed", "1", "--rate", "0.2"]) == 0
    bad, argv = tmp_path / "bad", ["embed", "--workdir", str(work)]
    bad.mkdir()
    if case == "edge-list":
        argv += ["--edge-list", str(bad)]
    elif case == "external-embeddings":
        argv += ["--source", "external", "--embeddings-train", str(bad)]
    elif case.endswith("_occluded"):
        bad = work / f"{case}.skl1"
        bad.unlink()
        bad.mkdir()
    else:
        bad = tmp_path / "file"
        bad.write_text("kept\n")
        argv = ["synth", "--workdir", str(bad)] + SMALL
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert (f"{bad} is not a directory" if case == "workdir"
            else f"required input {bad} is a directory, not a file") in err
    assert bad.is_dir() or bad.read_text() == "kept\n"
    assert not (work / "train.skemb").exists()


def test_embed_manifest_hashes_the_edge_list(tmp_path):
    # bones.txt is rewritten in place between two runs: same path, other bones
    work = tmp_path / "work"
    assert main(["synth", "--workdir", str(work), "--seed", "1"] + SMALL) == 0
    assert main(["occlude", "--workdir", str(work), "--seed", "1", "--rate", "0.2"]) == 0
    bones = tmp_path / "bones.txt"
    manifests = []
    for edges in ([(i, i + 1) for i in range(24)], [(0, i) for i in range(1, 25)]):
        bones.write_text("".join(f"{a} {b}\n" for a, b in edges))
        assert main(["embed", "--workdir", str(work), "--edge-list", str(bones)]) == 0
        manifests.append(json.loads((work / "manifest_embed.json").read_text()))
    first, second = manifests
    assert first["outputs"] != second["outputs"]
    assert first["inputs"]["bones.txt"] != second["inputs"]["bones.txt"]
    assert second["inputs"]["bones.txt"] == formats.sha256_file(bones)
    assert first["inputs"].keys() - {"bones.txt"} == {"train_occluded.skl1", "test_occluded.skl1"}


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


@pytest.mark.parametrize("frames, message", [
    ([[(8, [(0.1, 0.2, 0.3), (0.5, float("nan"), 0.1)])]],
     "line 6: non-finite coordinate in joint line"),
    ([[]], "capture contains no bodies"),
    ([[(8, [])]], "line 4: body declares zero joints"),
], ids=["nan", "no-body", "zero-joints"])
def test_ingest_error_names_the_capture_file(tmp_path, capsys, frames, message):
    source = tmp_path / "captures"
    _write_captures(source, [f"S001C001P00{i}R001A002" for i in (1, 3)])
    bad = source / "S001C001P002R001A002.skeleton"
    bad.write_text(capture_text(frames))
    rc = main(["ingest", "--input", str(source), "--workdir", str(tmp_path / "work")])
    assert rc == 4
    assert f"error: {bad}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["skl1", "csv"])
@pytest.mark.parametrize("corrupt", ["appended", "in-a-joint-line"])
def test_ingest_refuses_a_capture_that_is_not_utf8(tmp_path, capsys, fmt, corrupt):
    source = tmp_path / "captures"
    _write_captures(source, [f"S001C001P00{i}R001A002" for i in (1, 2, 3)])
    bad = source / "S001C001P002R001A002.skeleton"
    data = bad.read_bytes()
    if corrupt == "appended":
        data += b"\xff\xfe"
        offset, line, reason = len(data) - 2, data.count(b"\n") + 1, "invalid start byte"
    else:  # the first byte of line 6, the second joint line, becomes a lone lead byte
        offset = [i for i, byte in enumerate(data) if byte == ord("\n")][4] + 1
        data = data[:offset] + b"\xe9" + data[offset + 1:]
        line, reason = 6, "invalid continuation byte"
    bad.write_bytes(data)
    work = tmp_path / "work"
    rc = main(["pipeline", "--input", str(source), "--workdir", str(work), "--format", fmt])
    assert rc == 4
    err = capsys.readouterr().err
    assert f"error: {bad}: line {line}: not UTF-8 text: {reason} at byte {offset}" in err
    assert not work.exists() or not any(work.iterdir())


@pytest.mark.parametrize("fmt", ["skl1", "csv"])
def test_ingest_refuses_a_capture_whose_name_is_not_utf8(tmp_path, capsys, fmt):
    source = tmp_path / "captures"
    _write_captures(source, [f"S001C001P00{i}R001A002" for i in (1, 2, 3)])
    # the byte 0xff in a file name reads back as the lone surrogate U+DCFF
    bad = source / os.fsdecode(b"S\xff01C001P003R001A002.skeleton")
    (source / "S001C001P003R001A002.skeleton").rename(bad)
    work = tmp_path / "work"
    rc = main(["ingest", "--input", str(source), "--workdir", str(work), "--format", fmt])
    assert rc == 4
    err = capsys.readouterr().err
    named = str(bad).encode("utf-8", "backslashreplace").decode("utf-8")  # as stderr shows it
    assert f"error: {named}: sample id {bad.stem!r} is not UTF-8: surrogates not allowed" in err
    assert not work.exists() or not any(work.iterdir())


# the stages run first, the file made not UTF-8, the command that reads it
# (given the file), and its exit code
_NOT_UTF8_CASES = {
    "config": ([], "run.cfg", lambda bad: ["synth", "--config", str(bad)] + SMALL, 2),
    "dataset": (["synth"], "work/train.csv", lambda bad: ["occlude"], 4),
    "labels": (["synth", "occlude", "embed", "cluster"], "work/labels_train.csv",
               lambda bad: ["impute"], 4),
    "edge-list": (["synth", "occlude"], "bones.txt", lambda bad: ["embed", "--edge-list", str(bad)], 4),
}


@pytest.mark.parametrize("kind", list(_NOT_UTF8_CASES))
def test_text_input_that_is_not_utf8_exits_with_its_code(tmp_path, capsys, kind):
    stages, name, command, code = _NOT_UTF8_CASES[kind]
    work = tmp_path / "work"
    flags = ["--workdir", str(work), "--format", "csv", "--seed", "1"]
    for stage in stages:
        extra = {"synth": SMALL, "cluster": ["--clusters", "3"]}.get(stage, [])
        assert main([stage] + flags + extra) == 0
    bad = tmp_path / name
    if kind == "config":
        bad.write_text("seed = 1\nrate = 0.2\n")
    elif kind == "edge-list":
        bad.write_text("".join(f"{i} {i + 1}\n" for i in range(24)))
    data = bad.read_bytes()
    bad.write_bytes(data + b"\xff")  # a line of its own after the last line end
    before = {p.name: p.read_bytes() for p in work.iterdir()} if work.exists() else None
    capsys.readouterr()

    assert main(command(bad) + flags) == code
    line = data.count(b"\n") + 1
    assert f"{bad}:{line}: not UTF-8 text: invalid start byte at byte {len(data)}" in capsys.readouterr().err
    after = {p.name: p.read_bytes() for p in work.iterdir()} if work.exists() else None
    assert after == before


@pytest.mark.parametrize("fmt", ["skl1", "csv"])
def test_ingest_refuses_captures_that_differ_in_joints(tmp_path, capsys, fmt):
    source = tmp_path / "captures"
    source.mkdir()
    first, second = (source / f"S001C001P00{i}R001A002.skeleton" for i in (1, 2))
    first.write_text(capture_text([[(8, [(0, 0, 0), (1, 1, 1)])]]))
    second.write_text(capture_text([[(8, [(0, 0, 0), (1, 1, 1), (2, 2, 2)])]]))
    work = tmp_path / "work"
    rc = main(["pipeline", "--input", str(source), "--workdir", str(work), "--format", fmt])
    assert rc == 4
    assert f"error: {second}: 3 joints, but {first.name} has 2" in capsys.readouterr().err
    assert not work.exists() or not any(work.iterdir())


@pytest.mark.parametrize("fmt", ["skl1", "csv"])
@pytest.mark.parametrize("joints, message", [
    ({1: (0.0, 0.0, 0.0), 3: (1e39, 0.0, 0.0)},
     "line 8: coordinate beyond the float32 range in joint line"),
    ({1: (-3e38, 0.0, 0.0), 3: (3e38, 0.0, 0.0)},
     "a coordinate relative to the center joint is beyond the float32 range"),
], ids=["beyond-float32", "beyond-float32-when-centred"])
def test_ingest_refuses_a_capture_that_overflows_float32(tmp_path, capsys, fmt, joints, message):
    # each value casts to inf as float32, at once or once centred on joint 1
    source = tmp_path / "captures"
    _write_captures(source, [f"S001C001P00{i}R001A002" for i in (1, 3)])
    coords = [joints.get(j, (0.1 * j, 0.2, 0.3)) for j in range(4)]
    bad = source / "S001C001P002R001A002.skeleton"
    bad.write_text(capture_text([[(8, coords)]]))
    work = tmp_path / "work"
    rc = main(["pipeline", "--input", str(source), "--workdir", str(work), "--format", fmt])
    assert rc == 4
    assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert not work.exists() or not any(work.iterdir())


def test_occlude_refuses_a_csv_dataset_of_mixed_shapes(tmp_path, capsys):
    work = tmp_path / "work"
    assert main(["synth", "--workdir", str(work), "--format", "csv", "--seed", "1"] + SMALL) == 0
    path = work / "train.csv"
    lines = path.read_text().splitlines()
    last = lines[-1].split(",")[0]
    # the last sample loses its last frame: (3, 8, V, M) becomes (3, 7, V, M)
    kept = [line for line in lines if (line.split(",")[0], line.split(",")[2]) != (last, "7")]
    assert len(kept) < len(lines)
    path.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    assert main(["occlude", "--workdir", str(work), "--format", "csv", "--seed", "1"]) == 4
    err = capsys.readouterr().err
    assert f"error: {path}: samples disagree in shape: {last} has (3, 7," in err
    assert ", expected (3, 8," in err


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


def test_skl1_and_csv_datasets_give_the_same_results(tmp_path):
    results = {}
    for fmt in ("skl1", "csv"):
        work = tmp_path / fmt
        assert main(["pipeline", "--workdir", str(work), "--format", fmt, "--seed", "2",
                     "--classes", "3", "--per-class", "6", "--test-per-class", "2",
                     "--target-frames", "8", "--clusters", "3", "--neighbors", "3"]) == 0
        names = ["eval_report.json", "eval_report.csv", "imputation_report.json",
                 "labels_train.csv", "labels_test.csv", "kmeans.skkm", "train.skemb", "test.skemb"]
        results[fmt] = {name: (work / name).read_bytes() for name in names}
    assert results["skl1"] == results["csv"]


def test_json_summary_times_every_stage_outside_the_workdir(tmp_path, capsys):
    summaries = []
    for name in ("one", "two"):
        assert main(["pipeline", "--workdir", str(tmp_path / name), "--seed", "4", "--json",
                     "--clusters", "2", "--neighbors", "2"] + SMALL) == 0
        summaries.append(json.loads(capsys.readouterr().out))
    for summary in summaries:
        assert [s["stage"] for s in summary["stages"]] == [
            "synth", "occlude", "embed", "cluster", "impute", "eval"]
        for stage in summary["stages"] + [summary]:
            assert stage["seconds"] > 0
            assert stage["peak_rss_mb"] is None or stage["peak_rss_mb"] > 0
    files = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in files:
        data = (tmp_path / "one" / name).read_bytes()
        assert data == (tmp_path / "two" / name).read_bytes(), name
        assert b"seconds" not in data and b"peak_rss_mb" not in data, name


def test_a_pipeline_leaves_numpy_ma_unimported(tmp_path):
    # NumPy 2 imports numpy.ma, about 15 ms, on the first plain np.unique or
    # np.setdiff1d call; the run ends with a k-means++ start on rows that are
    # all alike, whose later centroids are drawn from the rows not yet chosen
    import subprocess
    import sys

    import skelfill

    program = (
        "import sys\n"
        "import numpy as np\n"
        "from skelfill.cli import main\n"
        "from skelfill.clustering import _init_plusplus\n"
        "assert main(sys.argv[1:]) == 0\n"
        "_init_plusplus(np.zeros((4, 2)), 3, np.random.default_rng(0))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {"PYTHONPATH": str(Path(skelfill.__file__).parents[1]), "PATH": ""}
    out = subprocess.run(
        [sys.executable, "-c", program, "pipeline", "--workdir", str(tmp_path / "work"),
         "--clusters", "2", "--neighbors", "2", "--threads", "2"] + SMALL,
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == "False"


def _fresh(program: str, **env: str) -> list[str]:
    """The lines ``program`` prints in a new interpreter that imports this
    checkout, with ``OPENBLAS_NUM_THREADS`` unset unless ``env`` sets it."""
    import os
    import subprocess
    import sys

    import skelfill

    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(Path(skelfill.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", program], env={**base, **env},
                          capture_output=True, text=True, check=True).stdout.splitlines()


def test_importing_the_package_loads_no_numpy_and_changes_no_environment():
    assert _fresh(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import skelfill\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
    ) == ["False True"]


def test_the_cli_starts_blas_with_one_thread():
    # OpenBLAS starts its pool when numpy loads, so the process would have
    # one thread more; the count is read where /proc exists
    lines = _fresh(
        "import os, sys\n"
        "import skelfill.cli\n"
        "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    print(next(line for line in open('/proc/self/status') if line.startswith('Threads:')))\n"
    )
    assert lines[0] == "True 1"
    if Path("/proc/self/status").exists():
        assert lines[1].split() == ["Threads:", "1"]


def test_the_cli_keeps_a_blas_thread_count_the_caller_set():
    assert _fresh("import os, skelfill.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n",
                  OPENBLAS_NUM_THREADS="2") == ["2"]


def test_every_exported_name_resolves_and_no_other():
    assert _fresh(
        "import skelfill\n"
        "print(len(skelfill.__all__), all(getattr(skelfill, n).__name__ == n for n in skelfill.__all__))\n"
        "try:\n"
        "    skelfill.no_such_name\n"
        "except AttributeError as error:\n"
        "    print(error)\n"
    ) == ["43 True", "module 'skelfill' has no attribute 'no_such_name'"]
