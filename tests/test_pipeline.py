"""Stage orchestration: config parsing, seeds, artifact naming, manifests."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import capture_text
from skelfill import Dataset, clustering, evaluation, formats
from skelfill.embedding import EmbeddingMatrix, load_embeddings, save_embeddings
from skelfill.errors import ConfigError, MissingArtifact
from skelfill.occlusion import OcclusionRecord
from skelfill.pipeline import (
    SPLITS,
    PipelineConfig,
    artifact_paths,
    load_config,
    run_cluster,
    run_eval,
    run_ingest,
    run_occlude,
    run_pipeline,
    run_synth,
)


def test_stage_seeds_derive_from_base_seed():
    config = PipelineConfig(seed=100)
    assert config.stage_seed("ingest") == 111
    assert config.stage_seed("occlude") == 123
    assert config.stage_seed("cluster") == 137
    assert config.stage_seed("eval") == 153


def test_explicit_stage_seed_wins_over_derived():
    config = PipelineConfig(seed=100, seed_occlude=5)
    assert config.stage_seed("occlude") == 5
    assert config.stage_seed("cluster") == 137  # others still derived


def test_load_config_dotted_and_underscore_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# occlusion settings\n"
        "\n"
        "occlusion.rate = 0.35\n"
        "occlusion_mode = joint_targeted\n"
        "occlusion.joints = 1, 2, 5\n"
        "clusters = 4\n"
        "normalize_embeddings = true\n"
        "seed = 9\n"
    )
    config = load_config(cfg)
    assert config.occlusion_rate == 0.35
    assert config.occlusion_mode == "joint_targeted"
    assert config.occlusion_joints == (1, 2, 5)
    assert config.clusters == 4
    assert config.normalize_embeddings is True
    assert config.seed == 9
    # untouched keys keep their defaults
    assert config.neighbors == 5


def test_load_config_layers_on_top_of_base(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("clusters = 7\n")
    base = PipelineConfig(seed=42, clusters=3)
    config = load_config(cfg, base=base)
    assert config.clusters == 7
    assert config.seed == 42
    assert base.clusters == 3  # base must not be mutated


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_knob = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(cfg)


def test_load_config_rejects_bad_value_with_line_number(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# header\nclusters = soon\n")
    with pytest.raises(ConfigError, match=":2:"):
        load_config(cfg)


def test_load_config_rejects_line_without_equals(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("clusters 4\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load_config(cfg)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("/nonexistent/run.cfg")


@pytest.mark.parametrize(
    "line",
    [
        "dataset_format = parquet",
        "occlusion_mode = everywhere",
        "embedding_source = magic",
        "threads = 0",
        "seed = -1",
        "test_frac = -0.5",
        "max_bodies = 0",
        "center_joint = -1",
        "synth.classes = 0",
        "synth.per_class = 0",
        "synth.test_per_class = -1",
        "synth.joints = 1",
        "kmeans.max_iter = 0",
        "kmeans.tol = -1",
        "occlusion.joints = 1,,2",
        "seed_eval = -3",
    ],
)
def test_load_config_validates_values(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_test_labels_come_from_the_model_as_stored(tmp_path):
    # Train rows -1 | 1, 1 + 2**-23 give the float64 centroids -1 and
    # 1 + 2**-24; stored as float32 the second rounds to 1.  The test row
    # 2**-26 lies between the two bisectors, 2**-25 and 0.
    config = PipelineConfig(workdir=str(tmp_path), clusters=2)
    paths = artifact_paths(config)
    for split, values in (("train", [-1.0, 1.0, 1.0 + 2**-23]), ("test", [2**-26])):
        ids = [f"{split}{i}" for i in range(len(values))]
        matrix = EmbeddingMatrix(np.array(values)[:, None], ids, source="external")
        save_embeddings(matrix, paths[f"emb_{split}"])
    run_cluster(config)

    test = load_embeddings(paths["emb_test"])
    stored = clustering.load_model(paths["model"])
    _, labels = formats.read_labels_csv(paths["labels_test"])
    assert labels.tolist() == clustering.kmeans_predict(stored, test).labels.tolist()
    fitted, _ = clustering.kmeans_fit(
        load_embeddings(paths["emb_train"]), 2, config.stage_seed("cluster")
    )
    assert sorted(fitted.centroids[:, 0]) == [-1.0, 1.0 + 2**-24]
    assert clustering.kmeans_predict(fitted, test).labels.tolist() != labels.tolist()


def test_artifact_paths_follow_dataset_format(tmp_path):
    skl = artifact_paths(PipelineConfig(workdir=str(tmp_path), dataset_format="skl1"))
    csv = artifact_paths(PipelineConfig(workdir=str(tmp_path), dataset_format="csv"))
    assert skl["train"].name == "train.skl1"
    assert csv["train"].name == "train.csv"
    assert skl["train_imputed"].name == "train_imputed.skl1"
    assert csv["train_imputed"].name == "train_imputed.csv"
    # non-dataset artifacts keep their own formats either way
    for paths in (skl, csv):
        assert paths["emb_train"].name == "train.skemb"
        assert paths["model"].name == "kmeans.skkm"
        assert paths["labels_train"].name == "labels_train.csv"
        assert paths["eval_json"].name == "eval_report.json"


def _small_synth_config(workdir, **overrides) -> PipelineConfig:
    defaults = dict(
        workdir=str(workdir), synth_classes=2, synth_per_class=3,
        synth_test_per_class=1, target_frames=6, synth_joints=5, seed=3,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def test_run_synth_writes_datasets_and_manifest(tmp_path):
    config = _small_synth_config(tmp_path / "work")
    summary = run_synth(config)
    paths = artifact_paths(config)
    assert paths["train"].exists() and paths["test"].exists()
    assert summary["train_samples"] == 6
    assert summary["test_samples"] == 2

    train = formats.read_dataset(paths["train"], split_tag="train")
    assert len(train.samples) == 6
    assert sorted({seq.label for seq in train.samples}) == [0, 1]
    assert train.samples[0].data.shape == (3, 6, 5, 1)

    manifest = json.loads((config.workpath() / "manifest_synth.json").read_text())
    assert manifest["stage"] == "synth"
    assert set(manifest) == {"stage", "config_hash", "params", "inputs", "outputs"}
    # outputs are keyed by workdir-relative name and carry real digests
    assert set(manifest["outputs"]) == {"train.skl1", "test.skl1"}
    assert manifest["outputs"]["train.skl1"] == formats.sha256_file(paths["train"])


def test_run_synth_manifest_identical_across_workdirs(tmp_path):
    manifests = []
    for name in ("a", "b"):
        config = _small_synth_config(tmp_path / name)
        run_synth(config)
        manifests.append((config.workpath() / "manifest_synth.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_center_joint_beyond_the_skeleton_is_a_config_error(tmp_path):
    config = _small_synth_config(tmp_path / "synth", center_joint=5)  # 5 joints
    with pytest.raises(ConfigError, match="center_joint"):
        run_synth(config)
    assert not config.workpath().exists()

    source = tmp_path / "captures"
    _write_captures(source, ["S001C001P001R001A003"])  # 3 joints
    config = PipelineConfig(input=str(source), workdir=str(tmp_path / "ingest"), center_joint=3)
    with pytest.raises(ConfigError, match="center_joint"):
        run_ingest(config)
    assert not config.workpath().exists()


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in dataclasses.fields(PipelineConfig)}


def test_run_synth_skips_test_split_when_empty(tmp_path):
    config = _small_synth_config(tmp_path / "work", synth_test_per_class=0)
    summary = run_synth(config)
    paths = artifact_paths(config)
    assert paths["train"].exists()
    assert not paths["test"].exists()
    assert summary["test_samples"] == 0


def _write_captures(directory, stems):
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(17)
    for stem in stems:
        frames = []
        for _ in range(4):
            coords = rng.uniform(-1, 1, size=(3, 3))
            frames.append([(11, [tuple(row) for row in coords])])
        (directory / f"{stem}.skeleton").write_text(capture_text(frames))


def test_run_ingest_reads_labels_from_file_stems(tmp_path):
    source = tmp_path / "captures"
    stems = [
        "S001C001P001R001A003",
        "S001C001P002R001A003",
        "S001C001P001R001A017",
        "S001C001P002R001A017",
    ]
    _write_captures(source, stems)
    config = PipelineConfig(
        input=str(source), workdir=str(tmp_path / "work"),
        target_frames=4, test_frac=0.25, seed=1,
    )
    summary = run_ingest(config)
    assert summary["train_samples"] == 3
    assert summary["test_samples"] == 1

    paths = artifact_paths(config)
    train = formats.read_dataset(paths["train"], split_tag="train")
    test = formats.read_dataset(paths["test"], split_tag="test")
    seen = {seq.sample_id: seq.label for seq in train.samples + test.samples}
    assert set(seen) == set(stems)
    for stem, label in seen.items():
        assert label == int(stem[-3:]) - 1


def test_run_ingest_unlabelled_when_stem_has_no_action_id(tmp_path):
    source = tmp_path / "captures"
    _write_captures(source, ["clip01"])
    config = PipelineConfig(
        input=str(source), workdir=str(tmp_path / "work"), target_frames=4, test_frac=0.0
    )
    run_ingest(config)
    train = formats.read_dataset(artifact_paths(config)["train"], split_tag="train")
    assert train.samples[0].label is None


def test_run_ingest_requires_input():
    with pytest.raises(ConfigError, match="input"):
        run_ingest(PipelineConfig())


def test_run_ingest_missing_source(tmp_path):
    config = PipelineConfig(input=str(tmp_path / "nowhere"), workdir=str(tmp_path / "work"))
    with pytest.raises(MissingArtifact):
        run_ingest(config)


def test_run_ingest_empty_directory(tmp_path):
    source = tmp_path / "captures"
    source.mkdir()
    config = PipelineConfig(input=str(source), workdir=str(tmp_path / "work"))
    with pytest.raises(MissingArtifact, match="no .skeleton files"):
        run_ingest(config)


def test_missing_artifact_hints_name_the_stage_to_run(tmp_path):
    config = PipelineConfig(workdir=str(tmp_path / "work"))
    config.workpath().mkdir(parents=True)
    with pytest.raises(MissingArtifact, match="run 'ingest' first"):
        run_occlude(config)
    with pytest.raises(MissingArtifact, match="run 'impute' first"):
        run_eval(config)


# stage -> (input names, output names) of its manifest on a two-split synth run
STAGE_FILES = {
    "synth": ([], ["test.skl1", "train.skl1"]),
    "occlude": (
        ["test.skl1", "train.skl1"],
        ["occlusion_test.csv", "occlusion_train.csv", "test_occluded.skl1", "train_occluded.skl1"],
    ),
    "embed": (["test_occluded.skl1", "train_occluded.skl1"], ["test.skemb", "train.skemb"]),
    "cluster": (
        ["test.skemb", "train.skemb"], ["kmeans.skkm", "labels_test.csv", "labels_train.csv"],
    ),
    "impute": (
        ["labels_test.csv", "labels_train.csv", "test_occluded.skl1", "train_occluded.skl1"],
        ["imputation_report.json", "test_imputed.skl1", "train_imputed.skl1"],
    ),
    "eval": (
        ["labels_train.csv", "occlusion_test.csv", "occlusion_train.csv",
         "test_imputed.skl1", "test_occluded.skl1", "train_imputed.skl1", "train_occluded.skl1"],
        ["eval_report.csv", "eval_report.json"],
    ),
}


@pytest.mark.parametrize("test_per_class", [1, 0])
def test_stage_manifests_name_the_files_of_each_split(tmp_path, test_per_class):
    config = _small_synth_config(
        tmp_path / "work", synth_test_per_class=test_per_class, clusters=2, neighbors=2
    )
    run_pipeline(config)
    # a train-only run names the same files less every test artifact
    keep = (lambda name: True) if test_per_class else (lambda name: "test" not in name)
    for stage, (inputs, outputs) in STAGE_FILES.items():
        manifest = json.loads((config.workpath() / f"manifest_{stage}.json").read_text())
        assert list(manifest["inputs"]) == [name for name in inputs if keep(name)], stage
        assert list(manifest["outputs"]) == [name for name in outputs if keep(name)], stage


def test_per_class_error_pools_every_split(tmp_path):
    config = _small_synth_config(tmp_path / "work", clusters=2, neighbors=2)
    run_pipeline(config)
    paths = artifact_paths(config)
    parts = [
        (formats.read_dataset(paths[f"{split}_imputed"], split_tag=split),
         OcclusionRecord.load_csv(paths[f"occlusion_{split}"]))
        for split in SPLITS
    ]
    pooled = evaluation.per_class_error(
        Dataset.from_sequences([seq for imputed, _ in parts for seq in imputed.samples]),
        OcclusionRecord(entries={sid: e for _, rec in parts for sid, e in rec.entries.items()}),
    )
    test_only = evaluation.per_class_error(*parts[1])
    reported = json.loads(paths["eval_json"].read_text())["per_class"]
    assert reported == {str(label): err for label, err in pooled.items()}
    assert reported != {str(label): err for label, err in test_only.items()}
