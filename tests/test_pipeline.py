"""Stage orchestration: config parsing, seeds, artifact naming, manifests."""

import dataclasses
import gc
import hashlib
import json
import re
import shutil
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import skelfill.data

from conftest import (
    assert_same_dataset,
    bits_equal,
    capture_text,
    dataset_of,
    random_dataset,
    seq_of,
    write_two_body_captures,
)
from skelfill import Dataset, clustering, evaluation, formats, imputation, occlusion, pipeline
from skelfill.embedding import EmbeddingMatrix, load_embeddings, save_embeddings
from skelfill.errors import ConfigError, FormatError, MissingArtifact
from skelfill.occlusion import OcclusionRecord
from skelfill.pipeline import (
    SPLITS,
    STAGES,
    PipelineConfig,
    _StageFiles,
    artifact_paths,
    expand,
    load_config,
    parse_setting,
    run_cluster,
    run_embed,
    run_eval,
    run_impute,
    run_ingest,
    run_occlude,
    run_pipeline,
    run_synth,
)
from skelfill.synth import make_corpus


def test_stage_seeds_derive_from_base_seed():
    config = PipelineConfig(seed=100)
    assert config.stage_seed("ingest") == 111
    assert config.stage_seed("occlude") == 123
    assert config.stage_seed("cluster") == 137
    assert config.stage_seed("eval") == 153


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
        "embedding_source = magic",  # no setting: embeddings_train selects the import
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
        "occlusion.joints = 7, \u0661\u0661",
        "clusters = \u0662",
        "seed = 1_0",
        "seed = 18446744073709551563",  # a stage seed would not fit the model file's u64
        "neighbors = +1",
        "seed_eval = -3",
        # a number is ASCII text without _ that float() reads
        "occlusion.rate = \u0660.\u0665",
        "test_frac = 0_0",
        "kmeans.tol = 1_0e-1",
        "occlusion.frame_fraction = \uff11",
        # an external test file needs an external train file
        "embeddings_test = test.skemb",
    ],
)
def test_load_config_validates_values(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_a_float_setting_is_ascii_text_without_underscores_that_float_reads():
    texts = (" 0.5 ", "1e-4", "+.25", "inf")
    assert [parse_setting("kmeans_tol", text, "--tol") for text in texts] == [0.5, 1e-4, 0.25, np.inf]
    for text in ("\u0660.\u0665", "1_0e-1", "\uff11", "half"):
        with pytest.raises(ConfigError, match=re.escape("--tol: bad value for 'kmeans_tol': ")) as err:
            parse_setting("kmeans_tol", text, "--tol")
        assert str(err.value).endswith(repr(text))


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


def test_cluster_fits_l2_normalised_rows_and_keeps_a_zero_row_zero(tmp_path, monkeypatch):
    config = PipelineConfig(workdir=str(tmp_path), clusters=2, normalize_embeddings=True)
    paths = artifact_paths(config)
    rows = np.random.default_rng(7).normal(size=(6, 4)).astype(np.float32).astype(np.float64)
    rows[2] = 0.0
    ids = [f"s{i}" for i in range(len(rows))]
    save_embeddings(EmbeddingMatrix(rows, ids, source="external"), paths["emb_train"])
    fitted, fit = [], clustering.kmeans_fit

    def recording_fit(matrix, *args, **kwargs):
        fitted.append(matrix)
        return fit(matrix, *args, **kwargs)

    monkeypatch.setattr(clustering, "kmeans_fit", recording_fit)
    run_cluster(config)

    norms = np.sqrt((rows * rows).sum(axis=1, keepdims=True))
    unit = np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)
    assert [matrix.values.tolist() for matrix in fitted] == [unit.tolist()]
    assert not fitted[0].values[2].any()
    model, labels = fit(EmbeddingMatrix(unit, ids, source="external"), 2, config.stage_seed("cluster"),
                        max_iter=config.kmeans_max_iter, tol=config.kmeans_tol)
    clustering.save_model(model, tmp_path / "expected.skkm")
    assert paths["model"].read_bytes() == (tmp_path / "expected.skkm").read_bytes()
    assert formats.read_labels_csv(paths["labels_train"])[1].tolist() == labels.labels.tolist()
    assert json.loads((tmp_path / "manifest_cluster.json").read_text())["params"]["normalize"] is True


@pytest.mark.filterwarnings("error")
def test_l2_rows_scales_rows_whose_sum_of_squares_overflows_or_underflows():
    # (3e200)^2 overflows to inf and (3e-170)^2 underflows to 0: each row is
    # divided by its largest magnitude before its norm is taken
    rows = np.array([[3e200, 4e200], [3e-170, 4e-170]])
    unit = pipeline._l2_rows(EmbeddingMatrix(rows, ["big", "small"], source="external")).values
    np.testing.assert_allclose(unit, [[0.6, 0.8], [0.6, 0.8]], rtol=1e-15)


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


def test_run_synth_draws_test_items_of_the_train_motions(tmp_path):
    config = _small_synth_config(tmp_path / "work", synth_classes=4, synth_test_per_class=2)
    run_synth(config)
    train, test = (formats.read_dataset(artifact_paths(config)[split]) for split in SPLITS)
    rows = np.stack([seq.data.ravel() for seq in train.samples])
    for seq in test.samples:
        gaps = np.abs(rows - seq.data.ravel()).max(axis=1)
        assert gaps.min() > 0  # a new draw, not a copy of a train item
        assert train.samples[int(np.argmin(gaps))].label == seq.label


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


def test_train_and_test_samples_at_one_index_hide_different_positions(tmp_path):
    config = _small_synth_config(tmp_path / "work", synth_test_per_class=3, target_frames=10)
    run_synth(config)
    run_occlude(config)
    paths = artifact_paths(config)
    train, test = (formats.read_dataset(paths[f"{split}_occluded"]) for split in SPLITS)
    hidden = [np.isnan(split.data[:len(test)]).all(axis=1) for split in (train, test)]
    assert hidden[0].sum() == hidden[1].sum() > 0
    assert not any(np.array_equal(a, b) for a, b in zip(*hidden))


def test_eval_report_scores_each_split_and_both_together(tmp_path):
    config = _small_synth_config(tmp_path / "work", clusters=2, neighbors=2)
    run_pipeline(config)
    report = json.loads(artifact_paths(config)["eval_json"].read_text())
    splits = report["splits"]
    assert sorted(splits) == ["test", "train"]
    for key in ("imputed_instances", "unimputable_instances"):
        assert splits["train"][key] + splits["test"][key] == report[key]
    assert splits["test"]["imputed_instances"] > 0
    assert sorted(splits["train"]) == ["coverage", "imputed_instances", "mpjpe_imputed",
                                       "mpjpe_random", "unimputable_instances"]


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_holds_no_copy_of_a_split_beside_what_is_handed_to_it(tmp_path, monkeypatch):
    # the stages before eval hand their datasets and records on in memory, so
    # what eval allocates is its transient: each file's hash buffer and a
    # block of record rows at a time, not a random fill of a whole split
    config = _small_synth_config(tmp_path / "work", synth_classes=4, synth_per_class=25,
                                 target_frames=30, synth_joints=25, clusters=2)
    handoff: dict = {}
    for stage in (run_synth, run_occlude, run_embed, run_cluster, run_impute):
        stage(config, handoff=handoff)
    paths = artifact_paths(config)
    split = formats.read_dataset(paths["train"]).data.nbytes  # 900 000 bytes
    monkeypatch.setattr(skelfill.data, "BLOCK_BYTES", 256 * 128)  # 256 record rows at 128 bytes
    hashing = _traced_peak(lambda: formats.sha256_file(paths["train"]))
    peak = _traced_peak(lambda: run_eval(config, handoff=handoff))
    assert peak <= hashing + split / 4
    assert json.loads(paths["eval_json"].read_text())["mpjpe_random"] > 0


# runs of every stage at which each blocked pass has work for several blocks
BUDGET_RUNS = {
    # K > 1, the clusters filled by two threads at once, in skl1
    "synth-threads-2": dict(synth_classes=3, synth_per_class=8, target_frames=12, synth_joints=8,
                            clusters=3, threads=2),
    # one cluster of 30 train samples, over 4k, so the bounds pass runs
    "one-cluster": dict(synth_classes=3, synth_per_class=10, target_frames=12, synth_joints=8,
                        clusters=1, threads=2),
    # two-body captures through ingest, joint-targeted occlusion, in csv
    "ingest-csv": dict(input="captures", dataset_format="csv", clusters=2, neighbors=3,
                       occlusion_mode="joint_targeted", occlusion_joints=(1, 3),
                       occlusion_frame_fraction=0.5),
}


@pytest.mark.parametrize("run", BUDGET_RUNS)
def test_every_output_is_the_same_at_any_working_memory_budget(tmp_path, monkeypatch, run):
    # a budget of one byte gives every blocked pass blocks of one unit: one
    # sample, row, hole or record row of a sample at a time
    settings = dict(BUDGET_RUNS[run])
    if "input" in settings:
        write_two_body_captures(tmp_path / "captures", count=12)
        settings["input"] = str(tmp_path / "captures")
    workdirs = []
    for budget in (skelfill.data.BLOCK_BYTES, 1):
        monkeypatch.setattr(skelfill.data, "BLOCK_BYTES", budget)
        workdirs.append(tmp_path / f"work-{budget}")
        run_pipeline(_small_synth_config(workdirs[-1], **settings))
    files = [{path.name: path.read_bytes() for path in workdir.iterdir()} for workdir in workdirs]
    assert len(files[0]) >= 20 and files[0] == files[1]


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
    # an action id is A and three ASCII digits; \d would take A\u0660\u0660\u0662
    source = tmp_path / "captures"
    _write_captures(source, ["clip01", "S001C001P001R001A\u0660\u0660\u0662"])
    config = PipelineConfig(
        input=str(source), workdir=str(tmp_path / "work"), target_frames=4, test_frac=0.0
    )
    run_ingest(config)
    train = formats.read_dataset(artifact_paths(config)["train"], split_tag="train")
    assert [seq.label for seq in train.samples] == [None, None]


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
    "occlude": (["test.skl1", "train.skl1"], ["test_occluded.skl1", "train_occluded.skl1"]),
    "embed": (["test_occluded.skl1", "train_occluded.skl1"], ["test.skemb", "train.skemb"]),
    "cluster": (
        ["test.skemb", "train.skemb"], ["kmeans.skkm", "labels_test.csv", "labels_train.csv"],
    ),
    "impute": (
        ["labels_test.csv", "labels_train.csv", "test_occluded.skl1", "train_occluded.skl1"],
        ["imputation_report.json", "test_imputed.skl1", "train_imputed.skl1"],
    ),
    "eval": (
        ["labels_train.csv", "test.skl1", "test_imputed.skl1", "test_occluded.skl1",
         "train.skl1", "train_imputed.skl1", "train_occluded.skl1"],
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
    written = {f"manifest_{stage}.json" for stage in STAGE_FILES}
    for stage, (inputs, outputs) in STAGE_FILES.items():
        manifest = json.loads((config.workpath() / f"manifest_{stage}.json").read_text())
        assert list(manifest["inputs"]) == [name for name in inputs if keep(name)], stage
        assert list(manifest["outputs"]) == [name for name in outputs if keep(name)], stage
        written |= set(manifest["outputs"])
    # every file in the workdir is a manifest or some stage's declared output
    assert {p.name for p in config.workpath().iterdir()} == written


@pytest.mark.parametrize("with_test", [True, False])
@pytest.mark.parametrize("source", ["synth", "ingest"])
@pytest.mark.parametrize("fmt", ["skl1", "csv"])
def test_each_manifest_lists_the_files_the_stage_table_names(tmp_path, fmt, source, with_test):
    # the run's splits of each stage's workdir keys, and the outside files
    # its settings name: the captures, and a bone list of the run's joints
    config = _handoff_config(tmp_path, fmt, source)
    joints = config.synth_joints if source == "synth" else 4
    bones = tmp_path / "bones.txt"
    bones.write_text("".join(f"{j} {j + 1}\n" for j in range(joints - 1)))
    tests = {"synth_test_per_class": int(with_test)} if source == "synth" else {
        "test_frac": 0.4 if with_test else 0.1}
    config = dataclasses.replace(config, edge_list=str(bones), **tests)
    run_pipeline(config)
    splits, paths = SPLITS[:1 + with_test], artifact_paths(config)
    for name in [source, "occlude", "embed", "cluster", "impute", "eval"]:
        stage, outside = STAGES[name], []
        for setting in stage.outside:
            value = getattr(config, setting)
            if value is not None:
                path = Path(value)
                outside += path.glob("*.skeleton") if path.is_dir() else [path]
        manifest = json.loads((config.workpath() / f"manifest_{name}.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(
            [paths[key].name for key in expand(stage.inputs, splits)] + [path.name for path in outside]), name
        assert sorted(manifest["outputs"]) == sorted(paths[key].name for key in expand(stage.outputs, splits))


def test_per_class_error_pools_every_split(tmp_path):
    config = _small_synth_config(tmp_path / "work", clusters=2, neighbors=2)
    run_pipeline(config)
    paths = artifact_paths(config)
    read = formats.read_dataset
    parts = [
        (read(paths[f"{split}_imputed"], split_tag=split),
         OcclusionRecord.between(read(paths[split]), read(paths[f"{split}_occluded"])))
        for split in SPLITS
    ]
    pooled = evaluation.per_class_error(parts)
    test_only = evaluation.per_class_error(parts[1:])
    reported = json.loads(paths["eval_json"].read_text())["per_class"]
    assert reported == {str(label): stats.mean_error for label, stats in pooled.items()}
    assert reported != {str(label): stats.mean_error for label, stats in test_only.items()}


def test_per_class_error_counts_an_id_both_splits_hold_in_each(tmp_path):
    # one id prefix, so the 6 test samples share their ids with 6 of the 18
    # train samples; run stage by stage from disk
    config = PipelineConfig(workdir=str(tmp_path / "work"), clusters=2)
    paths = artifact_paths(config)
    config.workpath().mkdir(parents=True)
    formats.write_dataset(make_corpus(3, 6, frames=20, seed=0, id_prefix="s"), paths["train"])
    formats.write_dataset(make_corpus(3, 2, frames=20, seed=1, id_prefix="s", split_tag="test"),
                          paths["test"])
    for stage in (run_occlude, run_embed, run_cluster, run_impute, run_eval):
        stage(config)
    read = formats.read_dataset
    train, test = (
        evaluation.per_class_error([(read(paths[f"{split}_imputed"], split_tag=split),
                                     OcclusionRecord.between(read(paths[split]),
                                                             read(paths[f"{split}_occluded"])))])
        for split in SPLITS
    )
    assert set(read(paths["train"]).sample_ids) > set(read(paths["test"]).sample_ids)
    reported = json.loads(paths["eval_json"].read_text())["per_class"]
    # each split scored on its own, then added train then test; the report
    # adds sample by sample, so the sums may differ in the last bits
    want = {str(label): (train[label] + test[label]).mean_error for label in train}
    assert reported == pytest.approx(want, rel=1e-12, abs=0)
    assert [round(error, 4) for error in reported.values()] == [0.0713, 0.0656, 0.069]


# ---- the hand-off inside one pipeline run ------------------------------------

def _handoff_config(tmp_path, fmt: str, source: str) -> PipelineConfig:
    """A small random-rate run in ``fmt``: on the synthetic corpus, or on an
    ingest of two-body captures, one with a motionless second body."""
    config = PipelineConfig(workdir=str(tmp_path / "work"), dataset_format=fmt, seed=5,
                            clusters=2, neighbors=2, occlusion_rate=0.3)
    if source == "ingest":
        write_two_body_captures(tmp_path / "captures")
        return dataclasses.replace(config, input=str(tmp_path / "captures"), target_frames=6,
                                   test_frac=0.4)
    return dataclasses.replace(config, synth_classes=2, synth_per_class=3,
                               synth_test_per_class=1, target_frames=6, synth_joints=5)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class CheckingHandoff(dict):
    """A hand-off table that compares every dataset it hands out with a real
    read of its file, and every record with the one rebuilt from reads of the
    clean and occluded files, and lists the files of those hits: a record's
    as ``record of`` its clean file."""

    def __init__(self, read):
        super().__init__()
        self.read, self.hits = read, []

    def _check(self, path, entry):
        path = Path(path)
        split = path.stem.split("_")[0]
        if entry is not None and isinstance(entry[1], OcclusionRecord):
            occluded = path.with_name(f"{split}_occluded{path.suffix}")
            if entry[0] == (_sha256(path), _sha256(occluded)):
                want = OcclusionRecord.between(self.read(path, split_tag=split),
                                               self.read(occluded, split_tag=split))
                assert entry[1].sample_ids == want.sample_ids
                assert entry[1].grid == want.grid
                assert bits_equal(entry[1].ends, want.ends)
                assert bits_equal(entry[1].position, want.position)
                assert bits_equal(entry[1].values, want.values)
                self.hits.append(f"record of {path.name}")
        elif entry is not None and entry[0] == _sha256(path):
            assert_same_dataset(entry[1], self.read(path, split_tag=split))
            self.hits.append(path.name)
        return entry

    def get(self, path, default=None):
        return self._check(path, super().get(path, default))

    def pop(self, path, default=None):
        return self._check(path, super().pop(path, default))


def _counting(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that logs each call's first argument."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("source", ["synth", "ingest"])
@pytest.mark.parametrize("fmt", ["skl1", "csv"])
def test_every_dataset_handed_off_is_what_its_file_reads_back(tmp_path, monkeypatch, fmt, source):
    config = _handoff_config(tmp_path, fmt, source)
    table = CheckingHandoff(formats.read_dataset)
    reads = _counting(monkeypatch, formats, "read_dataset")
    run_pipeline(config, handoff=table)
    assert reads == []  # every read was a hit
    # occlude reads {split}, and eval takes the record occlude handed on in
    # its place; embed, impute and eval read {split}_occluded; eval reads
    # {split}_imputed, and eval drops every entry
    per_split = ["{split}.{fmt}", "record of {split}.{fmt}"] + ["{split}_occluded.{fmt}"] * 3 + [
        "{split}_imputed.{fmt}"]
    assert sorted(table.hits) == sorted(
        hit.format(split=split, fmt=fmt) for split in SPLITS for hit in per_split)
    assert table == {}


def test_a_dataset_changed_on_disk_is_read_again(tmp_path, monkeypatch):
    config = _handoff_config(tmp_path, "skl1", "synth")
    before = tmp_path / "before"
    embed = pipeline.run_embed

    def rewrite_then_embed(config, **kwargs):
        paths = artifact_paths(config)
        before.mkdir()
        for split in SPLITS:
            shutil.copy(paths[f"{split}_occluded"], before)
        occluded = formats.read_dataset(paths["train_occluded"])
        changed = [seq.with_data(seq.data * 2) for seq in occluded.samples]
        formats.write_dataset(dataset_of(*changed), paths["train_occluded"])
        return embed(config, **kwargs)

    monkeypatch.setattr(pipeline, "run_embed", rewrite_then_embed)
    run_pipeline(config)

    def embedded_alone(workdir: Path) -> bytes:
        alone = PipelineConfig(workdir=str(workdir))
        run_embed(alone)
        return artifact_paths(alone)["emb_train"].read_bytes()

    after = tmp_path / "after"
    after.mkdir()
    for split in SPLITS:
        shutil.copy(artifact_paths(config)[f"{split}_occluded"], after)
    got = artifact_paths(config)["emb_train"].read_bytes()
    assert got == embedded_alone(after)
    assert got != embedded_alone(before)


def test_a_clean_split_changed_on_disk_is_scored_from_the_file(tmp_path, monkeypatch):
    config = _handoff_config(tmp_path, "skl1", "synth")
    paths = artifact_paths(config)
    kept = tmp_path / "kept" / "train.skl1"
    evaluate = pipeline.run_eval

    def rewrite_then_eval(config, **kwargs):
        kept.parent.mkdir()
        shutil.copy(paths["train"], kept)
        clean = formats.read_dataset(paths["train"])
        formats.write_dataset(clean.with_data(clean.data * 2), paths["train"])
        return evaluate(config, **kwargs)

    monkeypatch.setattr(pipeline, "run_eval", rewrite_then_eval)
    run_pipeline(config)

    def evaluated_alone(train: Path) -> list[bytes]:
        workdir = tmp_path / f"alone-{train.parent.name}"
        shutil.copytree(config.workpath(), workdir)
        shutil.copy(train, workdir / "train.skl1")
        run_eval(dataclasses.replace(config, workdir=str(workdir)))
        return [(workdir / name).read_bytes() for name in ("eval_report.json", "manifest_eval.json")]

    got = [(config.workpath() / name).read_bytes()
           for name in ("eval_report.json", "manifest_eval.json")]
    assert got == evaluated_alone(paths["train"])
    assert got[0] != evaluated_alone(kept)[0]


@pytest.mark.parametrize("fmt", ["skl1", "csv"])
def test_the_table_holds_no_clean_split_once_occlude_returns(tmp_path, fmt):
    config = _handoff_config(tmp_path, fmt, "synth")
    paths, handoff = artifact_paths(config), {}
    run_synth(config, handoff=handoff)
    clean = [weakref.ref(handoff[paths[split]][1].data) for split in SPLITS]
    run_occlude(config, handoff=handoff)
    gc.collect()
    assert [ref() for ref in clean] == [None, None]  # no sample of either clean split is held
    assert sorted(handoff) == sorted(paths[key] for split in SPLITS
                                     for key in (split, f"{split}_occluded"))
    for split in SPLITS:
        assert isinstance(handoff[paths[split]][1], OcclusionRecord)
        assert isinstance(handoff[paths[f"{split}_occluded"]][1], Dataset)


@pytest.mark.parametrize("fmt, source", [("skl1", "synth"), ("csv", "ingest")])
def test_a_pipeline_reads_no_dataset_and_hashes_each_listed_file_once(
        tmp_path, monkeypatch, fmt, source):
    config = _handoff_config(tmp_path, fmt, source)
    reads = _counting(monkeypatch, formats, "read_dataset")
    hashed = _counting(monkeypatch, formats, "sha256_file")
    run_pipeline(config)
    assert reads == []
    manifests = [json.loads(p.read_text()) for p in config.workpath().glob("manifest_*.json")]
    assert len(manifests) == 6
    # ingest takes each capture's digest from the bytes it parsed
    listed = [name for m in manifests for name in [*m["inputs"], *m["outputs"]]]
    assert len(hashed) == len([name for name in listed if not name.endswith(".skeleton")])


def test_eval_scores_each_split_once_for_its_totals_and_its_classes(tmp_path, monkeypatch):
    # the fill and the random baseline of each split, each scored once
    config = _handoff_config(tmp_path, "skl1", "synth")
    passes = _counting(monkeypatch, evaluation, "_sample_stats")
    run_pipeline(config)
    assert len(passes) == 2 * len(SPLITS)


def test_eval_on_its_own_reads_each_imputed_split_after_its_clean_one(tmp_path, monkeypatch):
    # the occluded split is scored for the random baseline and dropped before
    # the imputed one is read, so eval holds no more than two splits at once
    config = _small_synth_config(tmp_path / "work", clusters=2)
    for stage in (run_synth, run_occlude, run_embed, run_cluster, run_impute):
        stage(config)
    reads = _counting(monkeypatch, formats, "read_dataset")
    run_eval(config)
    paths = artifact_paths(config)
    assert reads == [paths[key.format(split=split)] for split in SPLITS
                     for key in ("{split}_occluded", "{split}", "{split}_imputed")]


def test_ingest_lists_each_capture_with_the_digest_of_the_bytes_it_parsed(tmp_path, monkeypatch):
    config = _handoff_config(tmp_path, "csv", "ingest")
    hashed = _counting(monkeypatch, formats, "sha256_file")
    run_ingest(config)
    assert [p for p in hashed if Path(p).suffix == ".skeleton"] == []
    captures = sorted(Path(config.input).glob("*.skeleton"))
    manifest = json.loads((config.workpath() / "manifest_ingest.json").read_text())
    assert manifest["inputs"] == {p.name: _sha256(p) for p in captures}


def _formatted_rows(monkeypatch) -> dict[str, int]:
    """Count, per dataset file written, the CSV rows formatted rather than
    copied from the stage's input file."""
    rows, current = {}, []
    write, format_rows = formats.write_dataset, formats._format_rows

    def counted_write(dataset, path, *args, **kwargs):
        current[:] = [Path(path).name]
        rows[current[0]] = 0
        return write(dataset, path, *args, **kwargs)

    def counted_format(heads, xyz):
        rows[current[0]] += len(heads)
        return format_rows(heads, xyz)

    monkeypatch.setattr(formats, "write_dataset", counted_write)
    monkeypatch.setattr(formats, "_format_rows", counted_format)
    return rows


def test_a_pipeline_formats_only_the_csv_rows_a_stage_changed(tmp_path, monkeypatch):
    config = _handoff_config(tmp_path, "csv", "synth")
    formatted = _formatted_rows(monkeypatch)
    run_pipeline(config)
    paths = artifact_paths(config)

    def changed(before: Dataset, after: Dataset) -> int:
        return sum(int((a.data.view(np.uint32) != b.data.view(np.uint32)).any(axis=0).sum())
                   for a, b in zip(before.samples, after.samples))

    every_row = {}
    for split in SPLITS:
        clean, occluded, imputed = (formats.read_dataset(paths[key]) for key in
                                    (split, f"{split}_occluded", f"{split}_imputed"))
        total = sum(seq.data[0].size for seq in clean.samples)
        every_row |= {f"{split}{suffix}.csv": total for suffix in ("", "_occluded", "_imputed")}
        assert formatted[f"{split}.csv"] == total
        assert 0 < formatted[f"{split}_occluded.csv"] == changed(clean, occluded) < total
        assert 0 < formatted[f"{split}_imputed.csv"] == changed(occluded, imputed) < total

    formatted.clear()
    stepwise = dataclasses.replace(config, workdir=str(tmp_path / "stepwise"))
    for stage in (run_synth, run_occlude, run_embed, run_cluster, run_impute, run_eval):
        stage(stepwise)
    assert formatted == every_row


@pytest.mark.parametrize("fmt", ["skl1", "csv"])
def test_a_dataset_a_read_refuses_is_not_handed_off(tmp_path, fmt):
    # no stage writes such a file, but a stage's write must not hand it on
    data = np.ones((3, 2, 2, 1), dtype=np.float32)
    data[0, 1, 1, 0] = np.inf
    config = PipelineConfig(workdir=str(tmp_path), dataset_format=fmt)
    handoff = {}
    written = _StageFiles(config, "synth", handoff)
    written.write("train", dataset_of(seq_of(data, "bad")))
    [path] = written.outputs
    assert handoff == {}
    assert written.digests == {path: formats.sha256_file(path)}
    with pytest.raises(FormatError) as read_error:
        formats.read_dataset(path)
    with pytest.raises(FormatError) as error:
        _StageFiles(config, "occlude", handoff).read("train")
    assert str(error.value) == str(read_error.value)


# ---- one array per split -------------------------------------------------------

@pytest.mark.parametrize("fmt", ["skl1", "csv"])
def test_a_pipeline_computes_no_missing_mask(tmp_path, monkeypatch, fmt):
    calls = []
    counted = skelfill.data.compute_missing_mask
    monkeypatch.setattr(skelfill.data, "compute_missing_mask",
                        lambda seq: calls.append(seq.sample_id) or counted(seq))
    run_pipeline(_small_synth_config(tmp_path / "work", clusters=2, neighbors=2,
                                     dataset_format=fmt))
    assert calls == []
    # the masks are computed when read, by the function the counter replaced
    assert len(dataset_of(seq_of(np.zeros((3, 1, 1, 1)), "read")).masks) == 1
    assert calls == ["read"]


@pytest.mark.parametrize("fmt", ["skl1", "csv"])
def test_each_dataset_a_stage_returns_is_one_array_and_views_of_its_rows(tmp_path, fmt):
    rng = np.random.default_rng(61)
    clean = random_dataset(rng, 6, frames=4, joints=5, bodies=2)
    test = random_dataset(rng, 3, frames=4, joints=5, bodies=2, split="test", prefix="t")
    path = tmp_path / f"train.{fmt}"
    formats.write_dataset(clean, path, fmt)
    spec = occlusion.OcclusionSpec
    occluded, _ = occlusion.apply_spec(clean, spec("random_rate", rate=0.3, seed=1))
    targeted, _ = occlusion.apply_spec(clean, spec("joint_targeted", joints=(1, 3),
                                                   frame_fraction=0.5, seed=1))
    test_occluded, _ = occlusion.apply_spec(test, spec("random_rate", rate=0.3))
    labels = clustering.PseudoLabels(np.array([0, 0, 0, 1, 1, 1]), occluded.sample_ids)
    test_labels = clustering.PseudoLabels(np.array([1, 0, 1]), test_occluded.sample_ids)
    imputed, imputed_test, _ = imputation.impute_dataset(occluded, labels, test_occluded,
                                                         test_labels, k=2)
    read = formats.read_skl1 if fmt == "skl1" else formats.read_dataset_csv
    datasets = {
        "read": read(path), "as written": formats.dataset_as_written(occluded, path, fmt, "train"),
        "random_rate": occluded, "joint_targeted": targeted, "imputed train": imputed,
        "imputed test": imputed_test,
    }
    for name, dataset in datasets.items():
        assert dataset.data.shape == (len(dataset), 3, 4, 5, 2), name
        for row, seq in zip(dataset.data, dataset.samples):
            assert np.shares_memory(dataset.data, seq.data), (name, seq.sample_id)
            assert bits_equal(seq.data, row), (name, seq.sample_id)
