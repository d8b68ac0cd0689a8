"""End-to-end command line behaviour and exit codes."""

import argparse
import dataclasses
import json
import os
import struct
import unicodedata
from pathlib import Path

import numpy as np
import pytest

from conftest import capture_text, write_two_body_captures
from skelfill import Dataset, clustering, formats
from skelfill import cli
from skelfill.cli import build_parser, main
from skelfill.errors import ConfigError
from skelfill.pipeline import SETTINGS, STAGES, PipelineConfig, artifact_paths, expand, load_config

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


@pytest.mark.parametrize("stage, name", [("occlude", "train.skl1"), ("cluster", "train.skemb")])
def test_a_binary_artifact_that_disagrees_with_its_header_exits_4(tmp_path, capsys, stage, name):
    # train.skl1 claims one record more than it holds; train.skemb has a byte appended
    work = tmp_path / "work"
    flags = ["--workdir", str(work), "--seed", "1"]
    assert main(["synth"] + flags + SMALL) == 0
    if stage == "cluster":
        assert main(["occlude"] + flags) == 0
        assert main(["embed"] + flags) == 0
    path = work / name
    raw = bytearray(path.read_bytes())
    if stage == "occlude":
        struct.pack_into("<I", raw, 4, struct.unpack_from("<I", raw, 4)[0] + 1)  # N of the header
    else:
        raw += b"\0"
    path.write_bytes(raw)
    capsys.readouterr()
    assert main([stage] + flags + ["--clusters", "3"] * (stage == "cluster")) == 4
    assert f"error: {path}: " in capsys.readouterr().err
    paths = artifact_paths(PipelineConfig(workdir=str(work)))
    assert not any(paths[key].exists() for key in expand(STAGES[stage].outputs))


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
        # a number is ASCII text without _ that float() reads
        ["--rate", "\u0660.\u0665"], ["--rate", "1_0e-1"], ["cluster", "--tol", "1_0"],
        ["occlude", "--frame-fraction", "\uff11"],
        ["ingest", "--input", "no-such-captures", "--test-frac", "0_0"],
        # every stage seed, at most the base seed + 53, fits the u64 seed of a model file
        ["--seed", "18446744073709551563"],
        # an external test file needs an external train file
        ["embed", "--embeddings-test", "test.skemb"],
    ],
)
def test_out_of_range_flag_exits_2(tmp_path, capsys, flags):
    if flags[0].startswith("--"):
        flags = ["pipeline"] + SMALL + flags
    rc = main(flags[:1] + ["--workdir", str(tmp_path / "work")] + flags[1:])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert not (tmp_path / "work").exists()
    flag, text = flags[-2:]
    if not text.isascii():  # no parser reads it: the message names the flag and its setting
        assert any(f"{flag}: bad value for {name!r}" in err for name in SETTINGS if cli._FLAGS[name] == flag)


# Forms of a number that every integer, float, tuple and choice setting is
# given: non-ASCII digits (Arabic-Indic, fullwidth), a digit separator, a
# sign, blanks, non-finite and overflowing floats, a negative zero, a hex
# literal and no text at all.
SETTING_FORMS = ("\u0661", "\uff11", "1_0", "+1", " 1 ", "nan", "inf", "1e400", "-0", "0x10", "")


def python_reads(name, text):
    """What ``int`` or ``float`` reads from the ASCII form of ``text`` for
    the setting ``name`` (a tuple of what ``int`` reads from each comma-
    separated part, none of no text), a float's -0.0 as 0.0; None where it
    reads nothing, and for a choice."""
    ascii_text = "".join(ch if ch.isascii() else str(unicodedata.digit(ch)) for ch in text)
    kind = SETTINGS[name].type
    try:
        if kind == "tuple[int, ...]":
            return tuple(int(part) for part in ascii_text.split(",")) if ascii_text.strip() else ()
        return {"int": int, "float": lambda text: float(text) + 0.0}[kind](ascii_text)
    except (KeyError, ValueError):
        return None


def setting_outcomes(name, text, parser, cfg):
    """What the setting ``name`` becomes from ``text`` as a flag and as a
    config-file value, each "exit 2" where the CLI refuses it."""
    outcomes = []
    command = SETTINGS[name].metadata["on"][0]
    for route in ("flag", "config"):
        try:
            if route == "flag":
                config = cli._config_from_args(parser.parse_args([command, cli._FLAGS[name], text]))
            else:
                cfg.write_text(f"{name} = {text}\n", encoding="utf-8")
                config = load_config(cfg)
            outcomes.append(getattr(config, name))
        except ConfigError:
            outcomes.append("exit 2")
        except SystemExit as exc:  # argparse refuses a value outside a flag's choices
            assert exc.code == 2
            outcomes.append("exit 2")
    return outcomes


def test_every_number_and_choice_setting_exits_2_or_reads_what_python_reads(tmp_path, capsys):
    parser, cfg = build_parser(), tmp_path / "run.cfg"
    names = [name for name, f in SETTINGS.items()
             if f.type in ("int", "float", "tuple[int, ...]") or f.metadata["choices"] is not None]
    assert len(names) == 19
    accepted = 0
    for name in names:
        for text in SETTING_FORMS:
            want = python_reads(name, text)
            for got in setting_outcomes(name, text, parser, cfg):
                # repr tells -0.0 from 0.0
                assert got == "exit 2" or (want is not None and repr(got) == repr(want)), (name, text, got)
                accepted += got != "exit 2"
    assert accepted
    # pinned: a tolerance of inf (1e400 reads as inf) stops k-means after its
    # first assignment, and -0 is 0.0, not float's -0.0, so it is recorded
    # as 0 is
    for text in ("inf", "1e400"):
        assert setting_outcomes("kmeans_tol", text, parser, cfg) == [float("inf")] * 2
    assert [repr(value) for value in setting_outcomes("test_frac", "-0", parser, cfg)] == ["0.0"] * 2
    capsys.readouterr()


def test_a_rate_of_minus_zero_writes_the_workdir_of_zero(tmp_path):
    # read as float's -0.0, the rate went into manifest_occlude.json as -0.0
    # and gave another config hash than 0, though every data file agreed
    work, workdirs = tmp_path / "work", []
    for rate in ("0", "-0"):
        assert main(["synth", "--workdir", str(work), "--seed", "1"] + SMALL) == 0
        assert main(["occlude", "--workdir", str(work), "--seed", "1", f"--rate={rate}"]) == 0
        workdirs.append(work.rename(tmp_path / f"rate{rate}"))  # each run at the same path
    names = sorted(path.name for path in workdirs[0].iterdir())
    assert names == sorted(path.name for path in workdirs[1].iterdir())
    assert "manifest_occlude.json" in names
    for name in names:
        assert (workdirs[0] / name).read_bytes() == (workdirs[1] / name).read_bytes(), name


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
    assert sum(len(flags) for flags in CLI_SURFACE.values()) == 82
    for command in CLI_SURFACE:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--workdir" in capsys.readouterr().out


def test_too_many_clusters_exits_2_before_cluster_writes(tmp_path, capsys):
    # a setting the data cannot meet, as a targeted joint beyond the skeleton
    work = tmp_path / "work"
    assert main(["synth", "--workdir", str(work), "--seed", "1"] + SMALL) == 0  # 12 train samples
    assert main(["occlude", "--workdir", str(work), "--seed", "1", "--rate", "0.2"]) == 0
    assert main(["embed", "--workdir", str(work)]) == 0
    rc = main(["cluster", "--workdir", str(work), "--seed", "1", "--clusters", "13"])
    assert rc == 2
    assert f"clusters 13 is above the 12 rows of {work / 'train.skemb'}" in capsys.readouterr().err
    paths = artifact_paths(PipelineConfig(workdir=str(work)))
    assert not any(paths[key].exists() for key in expand(STAGES["cluster"].outputs))
    assert not (work / "manifest_cluster.json").exists()


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
        test = (tmp_path / "work" / "test.skemb").rename(tmp_path / "test.skemb")
        flags = ["--embeddings-train", str(bad), "--embeddings-test", str(test)]
    else:
        if case != "missing":
            bad.write_text({"non-integer": "0 1\n1 x\n", "joint-99": "0 1\n1 99\n"}[case])
        flags = ["--edge-list", str(bad)]
    capsys.readouterr()
    assert main(["embed", "--workdir", work] + flags) == code
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "; run '" not in err  # no stage writes a file from outside the workdir


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
        (tmp_path / "test.skemb").write_bytes(b"")
        argv += ["--embeddings-train", str(bad), "--embeddings-test", str(tmp_path / "test.skemb")]
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


@pytest.mark.parametrize("stage, name, code", [
    ("eval", "labels_train.csv", 3), ("cluster", "labels_train.csv", 2),
    ("impute", "train_imputed.skl1", 2), ("eval", "eval_report.csv", 2),
    ("occlude", "manifest_occlude.json", 2),
])
def test_a_directory_in_place_of_a_file_exits_with_its_code(tmp_path, capsys, stage, name, code):
    # an optional input is refused as a required one is; an output, the
    # manifest too, before the stage opens it
    work = tmp_path / "work"
    flags = ["--workdir", str(work), "--seed", "1"]
    assert main(["pipeline", "--clusters", "3"] + flags + SMALL) == 0
    bad, manifest = work / name, work / f"manifest_{stage}.json"
    bad.unlink()
    bad.mkdir()
    for stale in {manifest, work / "eval_report.json"} - {bad}:
        stale.unlink()
    capsys.readouterr()
    assert main([stage] + flags + ["--clusters", "3"] * (stage == "cluster")) == code
    err = capsys.readouterr().err
    assert (f"eval: required input {bad} is a directory, not a file" if code == 3
            else f"{stage}: output {bad} is a directory, not a file") in err
    assert bad.is_dir() and not list(bad.iterdir())
    assert not manifest.is_file()
    # eval writes its JSON report before its CSV one, but only once neither is a directory
    assert not (work / "eval_report.json").exists()


@pytest.mark.parametrize("stage", ["ingest", "synth", "occlude", "embed", "cluster", "impute", "eval"])
def test_a_directory_at_a_later_output_is_refused_before_any_write(tmp_path, capsys, stage):
    # the stage's last output is a directory, and its earlier outputs and its
    # manifest are gone: it exits 2 and writes none of them back
    write_two_body_captures(tmp_path / "captures")
    work = tmp_path / "work"
    flags = ["--workdir", str(work), "--seed", "1"]
    assert main(["pipeline", "--clusters", "3"] + flags + SMALL) == 0
    paths = artifact_paths(PipelineConfig(workdir=str(work)))
    *earlier, last = (paths[key] for key in expand(STAGES[stage].outputs))
    last.unlink()
    last.mkdir()
    gone = earlier + [work / f"manifest_{stage}.json"]
    for path in gone:
        path.unlink(missing_ok=True)  # ingest's manifest: the pipeline ran synth
    argv = {"ingest": ["--input", str(tmp_path / "captures"), "--target-frames", "6", "--test-frac", "0.4"],
            "synth": SMALL, "cluster": ["--clusters", "3"]}.get(stage, [])
    capsys.readouterr()
    assert main([stage] + flags + argv) == 2
    assert f"{stage}: output {last} is a directory, not a file" in capsys.readouterr().err
    assert last.is_dir() and not list(last.iterdir())
    assert not any(path.exists() for path in gone)


def _embedded_elsewhere(tmp_path, capsys) -> Path:
    """A workdir of the small corpus, occluded; its builtin embeddings are
    moved out to ``train.skemb`` and ``test.skemb`` beside it."""
    work = tmp_path / "work"
    assert main(["synth", "--workdir", str(work), "--seed", "1"] + SMALL) == 0
    assert main(["occlude", "--workdir", str(work), "--seed", "1", "--rate", "0.2"]) == 0
    assert main(["embed", "--workdir", str(work)]) == 0
    for split in ("train", "test"):
        (work / f"{split}.skemb").rename(tmp_path / f"{split}.skemb")
    (work / "manifest_embed.json").unlink()
    capsys.readouterr()
    return work


def test_an_import_without_a_file_for_each_split_is_refused_before_embed_writes(tmp_path, capsys):
    work, external = _embedded_elsewhere(tmp_path, capsys), tmp_path / "train.skemb"
    argv = ["embed", "--workdir", str(work), "--embeddings-train", str(external)]
    assert main(argv) == 2  # the workdir holds a test split
    assert "embeddings_train is set, so the test split needs embeddings_test" in capsys.readouterr().err
    assert not list(work.glob("*.skemb")) and not (work / "manifest_embed.json").exists()
    missing = tmp_path / "missing.skemb"
    assert main(argv + ["--embeddings-test", str(missing)]) == 3
    assert f"required input {missing} is missing" in capsys.readouterr().err
    assert not list(work.glob("*.skemb")) and not (work / "manifest_embed.json").exists()
    # a test file alone would not be imported, so it is refused before any stage writes
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"embeddings_test = {tmp_path / 'test.skemb'}\n")
    assert main(["pipeline", "--config", str(cfg), "--workdir", str(tmp_path / "pipe")] + SMALL) == 2
    assert "embeddings_test is set without embeddings_train" in capsys.readouterr().err
    assert not (tmp_path / "pipe").exists()


def test_embed_imports_its_files_when_embeddings_train_is_set(tmp_path, capsys):
    work = _embedded_elsewhere(tmp_path, capsys)
    external = [tmp_path / f"{split}.skemb" for split in ("train", "test")]
    argv = ["embed", "--workdir", str(work), "--edge-list", str(tmp_path / "no-such-bones")]
    assert main(argv + ["--embeddings-train", str(external[0]), "--embeddings-test", str(external[1])]) == 0
    for path in external:
        assert (work / path.name).read_bytes() == path.read_bytes()
    manifest = json.loads((work / "manifest_embed.json").read_text())
    assert manifest["params"]["source"] == "external"
    assert manifest["inputs"] == {
        **{path.name: formats.sha256_file(path) for path in external},
        **{f"{split}_occluded.skl1": formats.sha256_file(work / f"{split}_occluded.skl1")
           for split in ("train", "test")},
    }


def test_a_manifest_lists_outside_files_of_one_name_apart(tmp_path, capsys):
    # each is listed by its absolute path, since their names would be one key
    work = _embedded_elsewhere(tmp_path, capsys)
    external = []
    for split in ("train", "test"):
        (tmp_path / split).mkdir()
        external.append((tmp_path / f"{split}.skemb").rename(tmp_path / split / "emb.skemb"))
    assert main(["embed", "--workdir", str(work), "--embeddings-train", str(external[0]),
                 "--embeddings-test", str(external[1])]) == 0
    assert json.loads((work / "manifest_embed.json").read_text())["inputs"] == {
        **{str(path): formats.sha256_file(path) for path in external},
        **{f"{split}_occluded.skl1": formats.sha256_file(work / f"{split}_occluded.skl1")
           for split in ("train", "test")},
    }


@pytest.mark.parametrize("first", ["synth", "ingest"])
def test_a_pipeline_refuses_an_import_before_any_stage_writes(tmp_path, capsys, first):
    # whether there will be a test split to import for comes from synth's
    # test count, or from ingest's split of its six captures
    write_two_body_captures(tmp_path / "captures")
    argv, with_test, without_test = {
        "synth": (SMALL, ["--test-per-class", "2"], ["--test-per-class", "0"]),
        "ingest": (["--input", str(tmp_path / "captures"), "--target-frames", "6"],
                   ["--test-frac", "0.4"], ["--test-frac", "0.1"]),
    }[first]
    cfg, work = tmp_path / "run.cfg", tmp_path / "work"

    def pipeline(workdir, config_text, flags):
        cfg.write_text(config_text)
        return main(["pipeline", "--config", str(cfg), "--workdir", str(workdir), "--clusters", "2"]
                    + argv + flags)

    assert pipeline(tmp_path / "plain", "", without_test) == 0
    external, missing = tmp_path / "plain" / "train.skemb", tmp_path / "missing.skemb"
    for config_text, flags, code, message in (
        (f"embeddings_train = {missing}\n", without_test, 3,
         f"missing artifact: embed: required input {missing} is missing\n"),
        (f"embeddings_train = {external}\n", with_test, 2,
         "embeddings_train is set, so the test split needs embeddings_test"),
    ):
        capsys.readouterr()
        assert pipeline(work, config_text, flags) == code
        assert not work.exists()
        assert message in capsys.readouterr().err
    # with no test split, the train file alone is imported
    assert pipeline(work, f"embeddings_train = {external}\n", without_test) == 0
    assert (work / "train.skemb").read_bytes() == external.read_bytes()
    assert not (work / "test.skemb").exists()


# a pipeline setting a later stage refuses: (the first stage, the config
# file's text and flags, given the directory ``tmp``; exit code; message)
_LATE_REFUSALS = {
    "clusters-synth": ("synth", lambda tmp: ("", ["--clusters", "13"]), 2,
                       "config error: clusters 13 is above the 12 rows of {work}/train.skemb"),
    # six captures, one of them in the test split
    "clusters-ingest": ("ingest", lambda tmp: ("", ["--clusters", "6"]), 2,
                        "config error: clusters 6 is above the 5 rows of {work}/train.skemb"),
    "targeted-joint": ("synth", lambda tmp: ("occlusion.mode = joint_targeted\nocclusion.joints = 3,30\n", []),
                       2, "config error: occlusion_joints [30] outside the 25 joints of {work}/train.skl1"),
    "edge-list-missing": ("synth", lambda tmp: (f"edge_list = {tmp / 'nope.txt'}\n", []), 3,
                          "missing artifact: embed: required input {tmp}/nope.txt is missing\n"),
    "edge-list-missing-ingest": ("ingest", lambda tmp: (f"edge_list = {tmp / 'nope.txt'}\n", []), 3,
                                 "missing artifact: embed: required input {tmp}/nope.txt is missing\n"),
    "edge-list-directory": ("synth", lambda tmp: (f"edge_list = {tmp}\n", []), 3,
                            "embed: required input {tmp} is a directory, not a file"),
    "edge-list-joint-99": ("synth", lambda tmp: (f"edge_list = {tmp / 'bones.txt'}\n", []), 4,
                           "error: {tmp}/bones.txt: edge (1, 99) outside 0..24"),
}


@pytest.mark.parametrize("case", list(_LATE_REFUSALS))
def test_a_pipeline_refuses_a_later_stage_s_setting_before_any_stage_writes(tmp_path, capsys, case):
    first, settings, code, message = _LATE_REFUSALS[case]
    config_text, flags = settings(tmp_path)
    (tmp_path / "bones.txt").write_text("0 1\n1 99\n")
    if first == "ingest":
        write_two_body_captures(tmp_path / "captures")
        flags += ["--input", str(tmp_path / "captures"), "--target-frames", "6"]
    cfg, work = tmp_path / "run.cfg", tmp_path / "work"
    cfg.write_text(config_text)
    assert main(["pipeline", "--config", str(cfg), "--workdir", str(work), "--clusters", "2"]
                + SMALL + flags) == code
    assert message.format(work=work, tmp=tmp_path) in capsys.readouterr().err
    assert not work.exists()


@pytest.mark.parametrize("first", ["synth", "ingest"])
def test_a_pipeline_works_on_the_splits_its_first_stage_writes(tmp_path, first):
    # a test split an earlier run left in the workdir is neither read nor listed
    write_two_body_captures(tmp_path / "captures")
    argv, with_test, without_test = {
        "synth": (SMALL, ["--test-per-class", "2"], ["--test-per-class", "0"]),
        "ingest": (["--input", str(tmp_path / "captures"), "--target-frames", "6"],
                   ["--test-frac", "0.4"], ["--test-frac", "0.1"]),
    }[first]
    work, fresh = tmp_path / "work", tmp_path / "fresh"
    for workdir, split in ((work, with_test), (work, without_test), (fresh, without_test)):
        assert main(["pipeline", "--workdir", str(workdir), "--clusters", "2"] + argv + split) == 0
    written = sorted(path.name for path in fresh.iterdir())
    assert "test.skl1" in {path.name for path in work.iterdir()} - set(written)
    for name in written:
        assert (work / name).read_bytes() == (fresh / name).read_bytes(), name
        if name.startswith("manifest_"):
            manifest = json.loads((work / name).read_text())
            assert not [key for key in [*manifest["inputs"], *manifest["outputs"]] if key.startswith("test")]


def test_a_seed_beyond_the_model_file_exits_2_before_anything_is_written(tmp_path, capsys):
    # the cluster stage seed, base + 37, is stored as a u64 in kmeans.skkm
    work = tmp_path / "work"
    assert main(["pipeline", "--workdir", str(work), "--seed", str(2**64 - 1)] + SMALL) == 2
    assert "seed must be in [0, 18446744073709551562]" in capsys.readouterr().err
    assert not work.exists()
    largest = 2**64 - 1 - 53  # the eval seed is the largest stage seed
    assert main(["pipeline", "--workdir", str(work), "--seed", str(largest), "--clusters", "3"] + SMALL) == 0
    assert clustering.load_model(work / "kmeans.skkm").seed == largest + 37


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


_ONE_JOINT = capture_text([[(8, [(0.1, 0.2, 0.3)])]])  # one frame of one body of one joint


@pytest.mark.parametrize("text, message", [
    (capture_text([[(8, [(0.1, 0.2, 0.3), (0.5, float("nan"), 0.1)])]]),
     "line 6: non-finite coordinate in joint line"),
    (capture_text([[]]), "capture contains no bodies"),
    (capture_text([[(8, [])]]), "line 4: body declares zero joints"),
    (_ONE_JOINT.replace("0.1 0.2 0.3", "0.1 0.2"), "line 5: joint line has fewer than 3 fields"),
    ("\u0661" + _ONE_JOINT[1:], "line 1: expected integer frame count, got '\u0661'"),
], ids=["nan", "no-body", "zero-joints", "two-fields", "non-ascii-frame-count"])
def test_ingest_error_names_the_capture_file(tmp_path, capsys, text, message):
    source = tmp_path / "captures"
    _write_captures(source, [f"S001C001P00{i}R001A002" for i in (1, 3)])
    bad = source / "S001C001P002R001A002.skeleton"
    bad.write_text(text, encoding="utf-8")
    rc = main(["ingest", "--input", str(source), "--workdir", str(tmp_path / "work")])
    assert rc == 4
    assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


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
    rc = main(["pipeline", "--input", str(source), "--workdir", str(work), "--format", fmt, "--clusters", "2"])
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
    rc = main(["pipeline", "--input", str(source), "--workdir", str(work), "--format", fmt, "--clusters", "2"])
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
    rc = main(["pipeline", "--input", str(source), "--workdir", str(work), "--format", fmt, "--clusters", "2"])
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


def _python(*args: str, stdout=None, **env: str):
    """A new interpreter run with ``args`` that imports this checkout, with
    ``OPENBLAS_NUM_THREADS`` unset unless ``env`` sets it; its stderr, and
    its stdout unless ``stdout`` is given, are captured as text."""
    import subprocess
    import sys

    import skelfill

    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(Path(skelfill.__file__).parents[1])
    return subprocess.run([sys.executable, *args], env={**base, **env}, text=True,
                          stdout=subprocess.PIPE if stdout is None else stdout, stderr=subprocess.PIPE)


def _fresh(program: str, **env: str) -> list[str]:
    """The lines ``program`` prints in a new interpreter (:func:`_python`)."""
    done = _python("-c", program, **env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_importing_the_package_loads_no_numpy_and_changes_no_environment():
    # nor does a library import of a stage module freeze the collector's objects
    assert _fresh(
        "import gc, os, sys\n"
        "before = dict(os.environ)\n"
        "import skelfill\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
        "import skelfill.pipeline\n"
        "print(gc.get_freeze_count())\n"
    ) == ["False True", "0"]


def test_importing_the_cli_freezes_what_it_built_and_loads_no_logging():
    assert _fresh(
        "import gc, sys\n"
        "before = set(sys.modules)\n"
        "import skelfill.cli\n"
        "print(gc.get_freeze_count() > 0, gc.isenabled(), 'logging' in set(sys.modules) - before)\n"
    ) == ["True True False"]


def test_a_cycle_made_after_the_cli_import_is_still_collected_at_exit():
    # development mode reports the file when the collection at exit frees
    # its cycle; a freeze at exit in place of the one at import would keep it
    done = _python("-X", "dev", "-c",
                   "import sys\n"
                   "import skelfill.cli\n"
                   "cycle = [open(sys.executable, 'rb')]\n"
                   "cycle.append(cycle)\n"
                   "del cycle\n")
    assert done.returncode == 0
    assert "ResourceWarning: unclosed file" in done.stderr


def test_a_stage_whose_reader_left_exits_1_with_one_line(tmp_path):
    # the read end is closed before the stage starts, so the summary's flush
    # fails; the stage's files are written all the same
    read, write = os.pipe()
    os.close(read)
    try:
        done = _python("-m", "skelfill.cli", "synth", "--workdir", str(tmp_path / "work"), *SMALL,
                       stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["error: standard output was closed before the summary was written"]
    assert sorted(path.name for path in (tmp_path / "work").iterdir()) == [
        "manifest_synth.json", "test.skl1", "train.skl1"]


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
