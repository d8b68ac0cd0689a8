"""Stage orchestration over a working directory.

Every stage reads its inputs from files, writes its outputs to files, and
drops a ``manifest_<stage>.json`` recording the config hash, the seeds used
and the SHA-256 of every input and output.  Stages hold no hidden state, so
any stage can be rerun from the on-disk artifacts alone, and reruns with
identical inputs and config produce byte-identical outputs.

Config files are plain ``key = value`` text: blank lines and ``#`` comments
are skipped, keys may be written dotted (``occlusion.rate``) or with
underscores (``occlusion_rate``), lists are comma-separated.  See
:class:`PipelineConfig` for the keys and defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import clustering, embedding, evaluation, formats, imputation, occlusion, synth
from .data import (
    DEFAULT_CENTER_JOINT,
    Dataset,
    parse_ntu_skeleton,
    preprocess_relative,
    to_canonical,
)
from .errors import ConfigError, MissingArtifact
from .graph import load_edge_list

_ACTION_ID = re.compile(r"A(\d{3})")

# fixed offsets for stage seeds derived from the base seed
_SEED_OFFSETS = {"ingest": 11, "occlude": 23, "cluster": 37, "eval": 53}


@dataclass
class PipelineConfig:
    # data shaping
    input: str | None = None
    workdir: str = "work"
    target_frames: int = 50
    max_bodies: int = 2
    center_joint: int = DEFAULT_CENTER_JOINT
    test_frac: float = 0.2
    # occlusion synthesis
    occlusion_mode: str = "random_rate"
    occlusion_rate: float = 0.2
    occlusion_joints: tuple[int, ...] = ()
    occlusion_frame_fraction: float = 1.0
    # embedding
    embedding_source: str = "builtin"  # "builtin" | "external"
    embeddings_train: str | None = None
    embeddings_test: str | None = None
    edge_list: str | None = None
    # clustering
    clusters: int = 60
    kmeans_max_iter: int = 300
    kmeans_tol: float = 1e-4
    normalize_embeddings: bool = False
    # imputation
    neighbors: int = 5
    # synthetic corpus (used when no input is given)
    synth_classes: int = 10
    synth_per_class: int = 100
    synth_test_per_class: int = 20
    synth_joints: int = 25
    # run control
    seed: int = 0
    seed_ingest: int | None = None
    seed_occlude: int | None = None
    seed_cluster: int | None = None
    seed_eval: int | None = None
    threads: int = 1
    dataset_format: str = "skl1"  # "skl1" | "csv"

    def stage_seed(self, stage: str) -> int:
        explicit = getattr(self, f"seed_{stage}")
        return int(explicit) if explicit is not None else self.seed + _SEED_OFFSETS[stage]

    def workpath(self) -> Path:
        return Path(self.workdir)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    text = raw.strip()
    if not text:
        return ()
    return tuple(int(part.strip()) for part in text.split(","))


_FIELD_PARSERS = {
    "input": str, "workdir": str,
    "target_frames": int, "max_bodies": int, "center_joint": int,
    "test_frac": float,
    "occlusion_mode": str, "occlusion_rate": float,
    "occlusion_joints": _parse_int_tuple, "occlusion_frame_fraction": float,
    "embedding_source": str, "embeddings_train": str, "embeddings_test": str,
    "edge_list": str,
    "clusters": int, "kmeans_max_iter": int, "kmeans_tol": float,
    "normalize_embeddings": _parse_bool,
    "neighbors": int,
    "synth_classes": int, "synth_per_class": int, "synth_test_per_class": int,
    "synth_joints": int,
    "seed": int, "seed_ingest": int, "seed_occlude": int, "seed_cluster": int,
    "seed_eval": int,
    "threads": int, "dataset_format": str,
}


def load_config(path: str | Path, base: PipelineConfig | None = None) -> PipelineConfig:
    """Read a key-value config file on top of ``base`` (or the defaults)."""
    config = dataclasses.replace(base) if base is not None else PipelineConfig()
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        field_name = key.strip().replace(".", "_")
        parser = _FIELD_PARSERS.get(field_name)
        if parser is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        try:
            setattr(config, field_name, parser(value.strip()))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key.strip()!r}: {exc}") from None
    _validate(config)
    return config


def _validate(config: PipelineConfig) -> None:
    if config.dataset_format not in ("skl1", "csv"):
        raise ConfigError(f"dataset_format must be skl1 or csv, got {config.dataset_format!r}")
    if config.occlusion_mode not in ("random_rate", "joint_targeted"):
        raise ConfigError(f"unknown occlusion_mode {config.occlusion_mode!r}")
    if config.embedding_source not in ("builtin", "external"):
        raise ConfigError(f"embedding_source must be builtin or external")
    if config.threads < 1:
        raise ConfigError("threads must be >= 1")
    if config.neighbors < 1:
        raise ConfigError("neighbors must be >= 1")
    if config.clusters < 1:
        raise ConfigError("clusters must be >= 1")
    if config.target_frames < 1:
        raise ConfigError("target_frames must be >= 1")
    if not 0.0 <= config.occlusion_rate <= 1.0:
        raise ConfigError(f"occlusion_rate must be in [0, 1], got {config.occlusion_rate}")
    if not 0.0 < config.occlusion_frame_fraction <= 1.0:
        raise ConfigError(
            f"occlusion_frame_fraction must be in (0, 1], got {config.occlusion_frame_fraction}"
        )
    if config.seed < 0:
        raise ConfigError("seed must be non-negative")
    for stage in _SEED_OFFSETS:
        explicit = getattr(config, f"seed_{stage}")
        if explicit is not None and explicit < 0:
            raise ConfigError(f"seed_{stage} must be non-negative")


# ---- artifact naming ---------------------------------------------------

def _ext(config: PipelineConfig) -> str:
    return "skl1" if config.dataset_format == "skl1" else "csv"


def artifact_paths(config: PipelineConfig) -> dict[str, Path]:
    work = config.workpath()
    ext = _ext(config)
    return {
        "train": work / f"train.{ext}",
        "test": work / f"test.{ext}",
        "train_occluded": work / f"train_occluded.{ext}",
        "test_occluded": work / f"test_occluded.{ext}",
        "occlusion_train": work / "occlusion_train.csv",
        "occlusion_test": work / "occlusion_test.csv",
        "emb_train": work / "train.skemb",
        "emb_test": work / "test.skemb",
        "model": work / "kmeans.skkm",
        "labels_train": work / "labels_train.csv",
        "labels_test": work / "labels_test.csv",
        "train_imputed": work / f"train_imputed.{ext}",
        "test_imputed": work / f"test_imputed.{ext}",
        "imputation_report": work / "imputation_report.json",
        "eval_json": work / "eval_report.json",
        "eval_csv": work / "eval_report.csv",
    }


def _require(path: Path, stage: str, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"{stage}: required input {path} is missing; run '{hint}' first")
    return path


def _config_hash(params: dict) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()


def _relative_name(path: Path, work: Path) -> str:
    # keep manifests independent of where the workdir itself lives
    try:
        return str(path.relative_to(work))
    except ValueError:
        return path.name


def _write_manifest(
    config: PipelineConfig, stage: str, params: dict, inputs: list[Path], outputs: list[Path]
) -> Path:
    work = config.workpath()
    manifest = {
        "stage": stage,
        "config_hash": _config_hash(params),
        "params": params,
        "inputs": {_relative_name(p, work): formats.sha256_file(p) for p in sorted(inputs)},
        "outputs": {_relative_name(p, work): formats.sha256_file(p) for p in sorted(outputs)},
    }
    path = config.workpath() / f"manifest_{stage}.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _summary(stage: str, outputs: list[Path], **extra) -> dict:
    out = {"stage": stage, "outputs": [str(p) for p in outputs]}
    out.update(extra)
    return out


# ---- stages ------------------------------------------------------------

def run_ingest(config: PipelineConfig) -> dict:
    """Parse capture text files, canonicalise, preprocess to relative
    coordinates, and split into train/test datasets."""
    if config.input is None:
        raise ConfigError("ingest needs an input file or directory")
    source = Path(config.input)
    if not source.exists():
        raise MissingArtifact(f"ingest: input {source} does not exist")
    files = sorted(source.glob("*.skeleton")) if source.is_dir() else [source]
    if not files:
        raise MissingArtifact(f"ingest: no .skeleton files under {source}")

    samples = []
    for file in files:
        raw = parse_ntu_skeleton(file.read_text())
        match = _ACTION_ID.search(file.stem)
        label = int(match.group(1)) - 1 if match else None
        seq = to_canonical(
            raw, config.target_frames, config.max_bodies, sample_id=file.stem, label=label
        )
        samples.append(preprocess_relative(seq, config.center_joint))

    rng = np.random.default_rng(config.stage_seed("ingest"))
    order = rng.permutation(len(samples))
    n_test = int(config.test_frac * len(samples))
    test_idx = set(int(i) for i in order[:n_test])
    train = [samples[i] for i in range(len(samples)) if i not in test_idx]
    test = [samples[i] for i in range(len(samples)) if i in test_idx]
    if not train:
        raise ConfigError("ingest: split left no training samples")

    config.workpath().mkdir(parents=True, exist_ok=True)
    paths = artifact_paths(config)
    outputs = [paths["train"]]
    formats.write_dataset(Dataset.from_sequences(train, "train"), paths["train"], _ext(config))
    if test:
        formats.write_dataset(Dataset.from_sequences(test, "test"), paths["test"], _ext(config))
        outputs.append(paths["test"])
    params = {
        "input": str(source), "target_frames": config.target_frames,
        "max_bodies": config.max_bodies, "center_joint": config.center_joint,
        "test_frac": config.test_frac, "seed": config.stage_seed("ingest"),
        "dataset_format": config.dataset_format,
    }
    _write_manifest(config, "ingest", params, files, outputs)
    return _summary("ingest", outputs, train_samples=len(train), test_samples=len(test))


def run_synth(config: PipelineConfig) -> dict:
    """Generate the bundled synthetic corpus in place of ingest."""
    config.workpath().mkdir(parents=True, exist_ok=True)
    paths = artifact_paths(config)
    train = synth.make_corpus(
        config.synth_classes, config.synth_per_class, frames=config.target_frames,
        joints=config.synth_joints, seed=config.seed, id_prefix="train", split_tag="train",
    )
    train = Dataset.from_sequences(
        [preprocess_relative(s, config.center_joint) for s in train.samples], "train"
    )
    formats.write_dataset(train, paths["train"], _ext(config))
    outputs = [paths["train"]]
    n_test = 0
    if config.synth_test_per_class > 0:
        test = synth.make_corpus(
            config.synth_classes, config.synth_test_per_class, frames=config.target_frames,
            joints=config.synth_joints, seed=config.seed + 1, id_prefix="test", split_tag="test",
        )
        test = Dataset.from_sequences(
            [preprocess_relative(s, config.center_joint) for s in test.samples], "test"
        )
        formats.write_dataset(test, paths["test"], _ext(config))
        outputs.append(paths["test"])
        n_test = len(test)
    params = {
        "classes": config.synth_classes, "per_class": config.synth_per_class,
        "test_per_class": config.synth_test_per_class, "frames": config.target_frames,
        "joints": config.synth_joints, "seed": config.seed,
        "center_joint": config.center_joint, "dataset_format": config.dataset_format,
    }
    _write_manifest(config, "synth", params, [], outputs)
    return _summary("synth", outputs, train_samples=len(train), test_samples=n_test)


def run_occlude(config: PipelineConfig) -> dict:
    paths = artifact_paths(config)
    train_path = _require(paths["train"], "occlude", "ingest")
    spec = occlusion.OcclusionSpec(
        mode=config.occlusion_mode, rate=config.occlusion_rate,
        joints=config.occlusion_joints, frame_fraction=config.occlusion_frame_fraction,
        seed=config.stage_seed("occlude"),
    )
    inputs = [train_path]
    outputs = []
    hidden = 0
    for split, src_key, dst_key, rec_key in (
        ("train", "train", "train_occluded", "occlusion_train"),
        ("test", "test", "test_occluded", "occlusion_test"),
    ):
        src = paths[src_key]
        if split == "test" and not src.exists():
            continue
        if split == "test":
            inputs.append(src)
        dataset = formats.read_dataset(src, split_tag=split)
        occluded, record = occlusion.apply_spec(dataset, spec)
        formats.write_dataset(occluded, paths[dst_key], _ext(config))
        record.save_csv(paths[rec_key])
        outputs += [paths[dst_key], paths[rec_key]]
        hidden += record.total_instances()
    params = {
        "mode": spec.mode, "rate": spec.rate, "joints": list(spec.joints),
        "frame_fraction": spec.frame_fraction, "seed": spec.seed,
        "dataset_format": config.dataset_format,
    }
    _write_manifest(config, "occlude", params, inputs, outputs)
    return _summary("occlude", outputs, hidden_instances=hidden)


def _embedding_graph(config: PipelineConfig, num_joints: int):
    if config.edge_list is not None:
        return load_edge_list(config.edge_list, num_joints)
    return None  # embed_baseline picks its default


def run_embed(config: PipelineConfig) -> dict:
    paths = artifact_paths(config)
    train_path = _require(paths["train_occluded"], "embed", "occlude")
    inputs = [train_path]
    outputs = []
    for split, src_key, dst_key, external in (
        ("train", "train_occluded", "emb_train", config.embeddings_train),
        ("test", "test_occluded", "emb_test", config.embeddings_test),
    ):
        src = paths[src_key]
        if split == "test" and not src.exists():
            continue
        if split == "test":
            inputs.append(src)
        dataset = formats.read_dataset(src, split_tag=split)
        if config.embedding_source == "external":
            if external is None:
                raise ConfigError(f"embedding_source=external but no embeddings_{split} path")
            ext_path = _require(Path(external), "embed", "provide external embeddings")
            inputs.append(ext_path)
            matrix = embedding.align_to_dataset(embedding.load_embeddings(ext_path), dataset)
        else:
            graph = _embedding_graph(config, dataset.samples[0].num_joints)
            matrix = embedding.embed_baseline(dataset, graph=graph)
        embedding.save_embeddings(matrix, paths[dst_key])
        outputs.append(paths[dst_key])
    params = {
        "source": config.embedding_source, "edge_list": config.edge_list,
        "external_train": config.embeddings_train, "external_test": config.embeddings_test,
    }
    _write_manifest(config, "embed", params, inputs, outputs)
    return _summary("embed", outputs)


def _l2_rows(matrix: embedding.EmbeddingMatrix) -> embedding.EmbeddingMatrix:
    norms = np.sqrt((matrix.values * matrix.values).sum(axis=1, keepdims=True))
    scaled = np.where(norms > 0, matrix.values / np.maximum(norms, 1e-300), matrix.values)
    return embedding.EmbeddingMatrix(
        values=scaled, sample_ids=list(matrix.sample_ids), source=matrix.source
    )


def run_cluster(config: PipelineConfig) -> dict:
    paths = artifact_paths(config)
    emb_path = _require(paths["emb_train"], "cluster", "embed")
    matrix = embedding.load_embeddings(emb_path)
    if config.normalize_embeddings:
        matrix = _l2_rows(matrix)
    inertia_log: list[float] = []
    model, labels = clustering.kmeans_fit(
        matrix, config.clusters, config.stage_seed("cluster"),
        max_iter=config.kmeans_max_iter, tol=config.kmeans_tol, inertia_log=inertia_log,
    )
    clustering.save_model(model, paths["model"])
    formats.write_labels_csv(labels.sample_ids, labels.labels, paths["labels_train"])
    inputs = [emb_path]
    outputs = [paths["model"], paths["labels_train"]]
    if paths["emb_test"].exists():
        inputs.append(paths["emb_test"])
        test_matrix = embedding.load_embeddings(paths["emb_test"])
        if config.normalize_embeddings:
            test_matrix = _l2_rows(test_matrix)
        test_labels = clustering.kmeans_predict(model, test_matrix)
        formats.write_labels_csv(test_labels.sample_ids, test_labels.labels, paths["labels_test"])
        outputs.append(paths["labels_test"])
    params = {
        "clusters": config.clusters, "max_iter": config.kmeans_max_iter,
        "tol": config.kmeans_tol, "seed": config.stage_seed("cluster"),
        "normalize": config.normalize_embeddings,
    }
    _write_manifest(config, "cluster", params, inputs, outputs)
    return _summary(
        "cluster", outputs,
        inertia=model.inertia, iterations=model.iterations_run,
    )


def run_impute(config: PipelineConfig) -> dict:
    paths = artifact_paths(config)
    train_path = _require(paths["train_occluded"], "impute", "occlude")
    labels_path = _require(paths["labels_train"], "impute", "cluster")
    train = formats.read_dataset(train_path, split_tag="train")
    ids, label_values = formats.read_labels_csv(labels_path)
    train_labels = clustering.PseudoLabels(labels=label_values, sample_ids=ids)
    inputs = [train_path, labels_path]

    test = None
    test_labels = None
    if paths["test_occluded"].exists():
        test_labels_path = _require(paths["labels_test"], "impute", "cluster")
        test = formats.read_dataset(paths["test_occluded"], split_tag="test")
        t_ids, t_values = formats.read_labels_csv(test_labels_path)
        test_labels = clustering.PseudoLabels(labels=t_values, sample_ids=t_ids)
        inputs += [paths["test_occluded"], test_labels_path]

    imputed_train, imputed_test, report = imputation.impute_dataset(
        train, train_labels, test, test_labels, k=config.neighbors, threads=config.threads
    )
    formats.write_dataset(imputed_train, paths["train_imputed"], _ext(config))
    outputs = [paths["train_imputed"]]
    if imputed_test is not None:
        formats.write_dataset(imputed_test, paths["test_imputed"], _ext(config))
        outputs.append(paths["test_imputed"])
    paths["imputation_report"].write_text(report.to_json() + "\n")
    outputs.append(paths["imputation_report"])
    params = {"neighbors": config.neighbors, "dataset_format": config.dataset_format}
    _write_manifest(config, "impute", params, inputs, outputs)
    totals = report.totals()
    return _summary(
        "impute", outputs,
        missing=totals.missing, imputed=totals.imputed, unimputable=totals.unimputable,
    )


def run_eval(config: PipelineConfig) -> dict:
    paths = artifact_paths(config)
    train_imputed_path = _require(paths["train_imputed"], "eval", "impute")
    record_train_path = _require(paths["occlusion_train"], "eval", "occlude")
    occluded_train_path = _require(paths["train_occluded"], "eval", "occlude")
    inputs = [train_imputed_path, record_train_path, occluded_train_path]

    pairs: list[tuple[Dataset, occlusion.OcclusionRecord, Dataset]] = []
    train_imputed = formats.read_dataset(train_imputed_path, split_tag="train")
    record_train = occlusion.OcclusionRecord.load_csv(record_train_path)
    occluded_train = formats.read_dataset(occluded_train_path, split_tag="train")
    pairs.append((train_imputed, record_train, occluded_train))
    if paths["test_imputed"].exists():
        record_test_path = _require(paths["occlusion_test"], "eval", "occlude")
        occluded_test_path = _require(paths["test_occluded"], "eval", "occlude")
        inputs += [paths["test_imputed"], record_test_path, occluded_test_path]
        pairs.append(
            (
                formats.read_dataset(paths["test_imputed"], split_tag="test"),
                occlusion.OcclusionRecord.load_csv(record_test_path),
                formats.read_dataset(occluded_test_path, split_tag="test"),
            )
        )

    seed_eval = config.stage_seed("eval")
    knn_stats = evaluation.combine_mpjpe(
        [evaluation.mpjpe(imputed, record) for imputed, record, _ in pairs]
    )
    random_stats = evaluation.combine_mpjpe(
        [
            evaluation.mpjpe(evaluation.impute_random_baseline(occluded, seed_eval), record)
            for _, record, occluded in pairs
        ]
    )
    denom = knn_stats.evaluated + knn_stats.excluded
    coverage = knn_stats.evaluated / denom if denom else 1.0

    per_class: dict[int, float] = {}
    for imputed, record, _ in pairs:
        part = evaluation.per_class_error(imputed, record)
        if part:
            per_class.update(part)

    purity = nmi = None
    truth = [seq.label for seq in train_imputed.samples]
    if all(lab is not None for lab in truth) and paths["labels_train"].exists():
        ids, pseudo = formats.read_labels_csv(paths["labels_train"])
        if ids == train_imputed.sample_ids:
            purity, nmi = evaluation.clustering_quality(pseudo, np.asarray(truth))
            inputs.append(paths["labels_train"])

    report = evaluation.EvalReport(
        mpjpe_imputed=knn_stats.mean_error,
        mpjpe_random=random_stats.mean_error,
        coverage=coverage,
        imputed_instances=knn_stats.evaluated,
        unimputable_instances=knn_stats.excluded,
        per_class=per_class or None,
        purity=purity,
        nmi=nmi,
    )
    paths["eval_json"].write_text(report.to_json() + "\n")
    with open(paths["eval_csv"], "w", newline="") as handle:
        handle.write(",".join(report.csv_header()) + "\n")
        handle.write(",".join(report.csv_row()) + "\n")
    outputs = [paths["eval_json"], paths["eval_csv"]]
    params = {"seed": seed_eval}
    _write_manifest(config, "eval", params, inputs, outputs)
    return _summary(
        "eval", outputs,
        mpjpe_imputed=report.mpjpe_imputed, mpjpe_random=report.mpjpe_random,
        coverage=report.coverage, purity=report.purity, nmi=report.nmi,
    )


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage in order; uses the synthetic corpus when no input
    directory is configured."""
    stages = []
    stages.append(run_ingest(config) if config.input is not None else run_synth(config))
    stages.append(run_occlude(config))
    stages.append(run_embed(config))
    stages.append(run_cluster(config))
    stages.append(run_impute(config))
    eval_summary = run_eval(config)
    stages.append(eval_summary)
    return {
        "stage": "pipeline",
        "stages": stages,
        "mpjpe_imputed": eval_summary["mpjpe_imputed"],
        "mpjpe_random": eval_summary["mpjpe_random"],
        "coverage": eval_summary["coverage"],
    }
