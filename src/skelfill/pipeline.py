"""Stage orchestration over a working directory.

Every stage reads its inputs from files, writes its outputs to files, and
drops a ``manifest_<stage>.json`` recording the config hash, the seeds used
and the SHA-256 of every input and output.  Stages hold no hidden state, so
any stage can be rerun from the on-disk artifacts alone, and reruns with
identical inputs and config produce byte-identical outputs.  What varies
between runs, each stage's wall time and peak RSS, goes only into the
summary it returns (see :func:`_timed`).

Config files are plain ``key = value`` text: blank lines and ``#`` comments
are skipped, keys may be written dotted (``occlusion.rate``) or with
underscores (``occlusion_rate``), lists are comma-separated.

The field metadata of :class:`PipelineConfig` is the single source for the
config keys, the command-line flags and the range checks: each field holds
its text parser, its range or choices, its flag and the subcommands that
offer the flag.  Config files and flags share one parse path.

Every stage works on the splits in ``SPLITS``: :func:`_splits` requires the
train input of a stage and adds test when the stage before wrote it, and
:func:`_write_datasets` writes one dataset per split.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import time
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
from .errors import ConfigError, EmptyCapture, MalformedCapture, MissingArtifact
from .graph import load_edge_list

_ACTION_ID = re.compile(r"A(\d{3})")

# fixed offsets for stage seeds derived from the base seed
_SEED_OFFSETS = {"ingest": 11, "occlude": 23, "cluster": 37, "eval": 53}

# every subcommand; a setting offered on all of them names this as its ``on``
COMMANDS = "ingest synth occlude embed cluster impute eval pipeline"


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
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {raw!r}") from None


# range checks: a predicate and the range it accepts, in words
_POSITIVE = (lambda v: v >= 1, ">= 1")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")


def _setting(default, parse=str, *, flag=None, on="", check=None, choices=None, help=None):
    """One config key: ``parse`` reads its text (config file or flag), ``check``
    or ``choices`` bound its value, and its flag (by default the key with
    dashes) is offered on the space-separated subcommands in ``on``."""
    return dataclasses.field(default=default, metadata=dict(
        parse=parse, check=check, choices=choices, flag=flag, on=on.split(), help=help))


@dataclass
class PipelineConfig:
    # data shaping
    input: str | None = _setting(None, on="ingest pipeline",
                                 help="capture file or directory (pipeline: synthetic if omitted)")
    workdir: str = _setting("work", on=COMMANDS, help="artifact directory (default: work)")
    target_frames: int = _setting(50, int, on="ingest synth pipeline", check=_POSITIVE)
    max_bodies: int = _setting(2, int, on="ingest pipeline", check=_POSITIVE)
    center_joint: int = _setting(
        DEFAULT_CENTER_JOINT, int, on="ingest pipeline", check=_NON_NEGATIVE)
    test_frac: float = _setting(
        0.2, float, on="ingest pipeline", check=(lambda v: 0 <= v < 1, "in [0, 1)"))
    # occlusion synthesis
    occlusion_mode: str = _setting("random_rate", flag="--mode", on="occlude pipeline",
                                   choices=("random_rate", "joint_targeted"))
    occlusion_rate: float = _setting(0.2, float, flag="--rate", on="occlude pipeline",
                                     check=(lambda v: 0 <= v <= 1, "in [0, 1]"))
    occlusion_joints: tuple[int, ...] = _setting(
        (), _parse_int_tuple, flag="--joints", on="occlude",
        help="comma-separated joint indices for joint_targeted mode")
    occlusion_frame_fraction: float = _setting(1.0, float, flag="--frame-fraction", on="occlude",
                                               check=(lambda v: 0 < v <= 1, "in (0, 1]"))
    # embedding
    embedding_source: str = _setting(
        "builtin", flag="--source", on="embed", choices=("builtin", "external"))
    embeddings_train: str | None = _setting(None, on="embed")
    embeddings_test: str | None = _setting(None, on="embed")
    edge_list: str | None = _setting(None, on="embed", help="bone list file, one 'i j' per line")
    # clustering
    clusters: int = _setting(60, int, on="cluster pipeline", check=_POSITIVE)
    kmeans_max_iter: int = _setting(300, int, flag="--max-iter", on="cluster", check=_POSITIVE)
    kmeans_tol: float = _setting(1e-4, float, flag="--tol", on="cluster", check=_NON_NEGATIVE)
    normalize_embeddings: bool = _setting(False, _parse_bool, on="cluster")
    # imputation
    neighbors: int = _setting(5, int, on="impute pipeline", check=_POSITIVE)
    # synthetic corpus (used when no input is given)
    synth_classes: int = _setting(10, int, flag="--classes", on="synth pipeline", check=_POSITIVE)
    synth_per_class: int = _setting(
        100, int, flag="--per-class", on="synth pipeline", check=_POSITIVE)
    synth_test_per_class: int = _setting(
        20, int, flag="--test-per-class", on="synth pipeline", check=_NON_NEGATIVE)
    synth_joints: int = _setting(
        25, int, flag="--joints", on="synth", check=(lambda v: v >= 2, ">= 2"))
    # run control
    seed: int = _setting(
        0, int, on=COMMANDS, check=_NON_NEGATIVE, help="base seed for all stage seeds")
    seed_ingest: int | None = _setting(None, int, check=_NON_NEGATIVE)
    seed_occlude: int | None = _setting(None, int, check=_NON_NEGATIVE)
    seed_cluster: int | None = _setting(None, int, check=_NON_NEGATIVE)
    seed_eval: int | None = _setting(None, int, check=_NON_NEGATIVE)
    threads: int = _setting(
        1, int, on=COMMANDS, check=_POSITIVE, help="worker threads (default: 1)")
    dataset_format: str = _setting("skl1", flag="--format", on=COMMANDS, choices=("skl1", "csv"),
                                   help="dataset artifact format (default: skl1)")

    def stage_seed(self, stage: str) -> int:
        explicit = getattr(self, f"seed_{stage}")
        return int(explicit) if explicit is not None else self.seed + _SEED_OFFSETS[stage]

    def workpath(self) -> Path:
        return Path(self.workdir)


SETTINGS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def parse_setting(name: str, raw: str, where: str):
    """Parse ``raw`` for the config key ``name``; ``where`` (a file line or a
    flag) prefixes the error."""
    try:
        return SETTINGS[name].metadata["parse"](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {name!r}: {exc}") from None


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
        name = key.strip().replace(".", "_")
        if name not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        setattr(config, name, parse_setting(name, value.strip(), f"{path}:{lineno}"))
    _validate(config)
    return config


def _validate(config: PipelineConfig) -> None:
    """Raise :class:`ConfigError` for the first value outside its field's
    choices or range."""
    for name, f in SETTINGS.items():
        value = getattr(config, name)
        choices, check = f.metadata["choices"], f.metadata["check"]
        if choices is not None and value not in choices:
            raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        if check is not None and value is not None and not check[0](value):
            raise ConfigError(f"{name} must be {check[1]}, got {value!r}")


# ---- artifact naming ---------------------------------------------------

# every stage works on train and, when the stage before wrote it, on test
SPLITS = ("train", "test")


def artifact_paths(config: PipelineConfig) -> dict[str, Path]:
    work = config.workpath()
    ext = config.dataset_format  # validated: skl1 or csv
    return {
        "train": work / f"train.{ext}",
        "test": work / f"test.{ext}",
        "train_occluded": work / f"train_occluded.{ext}",
        "test_occluded": work / f"test_occluded.{ext}",
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


def _splits(config: PipelineConfig, key: str, stage: str, hint: str) -> list[str]:
    """The splits ``stage`` works on.  ``key`` names a split's input in
    :func:`artifact_paths` with ``{split}`` in place of the split: train's
    input is required, and test is added when its input exists."""
    paths = artifact_paths(config)
    _require(paths[key.format(split="train")], stage, hint)
    return [split for split in SPLITS
            if split == "train" or paths[key.format(split=split)].exists()]


def _write_datasets(config: PipelineConfig, datasets: dict[str, Dataset], key: str) -> list[Path]:
    """Write each split's dataset to ``key`` (as in :func:`_splits`) in the
    configured format; return the paths written."""
    paths = [artifact_paths(config)[key.format(split=split)] for split in datasets]
    for path, dataset in zip(paths, datasets.values()):
        formats.write_dataset(dataset, path, config.dataset_format)
    return paths


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
) -> None:
    work = config.workpath()
    manifest = {
        "stage": stage,
        "config_hash": _config_hash(params),
        "params": params,
        "inputs": {_relative_name(p, work): formats.sha256_file(p) for p in sorted(inputs)},
        "outputs": {_relative_name(p, work): formats.sha256_file(p) for p in sorted(outputs)},
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    (work / f"manifest_{stage}.json").write_text(text)


def _summary(stage: str, outputs: list[Path], **extra) -> dict:
    return {"stage": stage, "outputs": [str(p) for p in outputs], **extra}


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size (``VmHWM``) in MiB; None where
    ``/proc/self/status`` does not exist.  ``ru_maxrss`` would not do: after
    ``exec`` it carries the peak of the process that started this one."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except FileNotFoundError:
        pass
    return None


def _timed(stage):
    """Give ``stage``'s summary its wall time in ``seconds`` and the process's
    ``peak_rss_mb`` so far.  They are added after the stage has written its
    manifest, so they never reach a manifest or a report."""
    @functools.wraps(stage)
    def run(config: PipelineConfig) -> dict:
        start = time.perf_counter()
        summary = stage(config)
        summary["seconds"] = time.perf_counter() - start
        summary["peak_rss_mb"] = _peak_rss_mb()
        return summary
    return run


def _sample_counts(datasets: dict[str, Dataset]) -> dict[str, int]:
    return {f"{split}_samples": len(datasets.get(split, ())) for split in SPLITS}


# ---- stages ------------------------------------------------------------

def _check_center_joint(config: PipelineConfig, num_joints: int) -> None:
    if config.center_joint >= num_joints:
        raise ConfigError(f"center_joint {config.center_joint} is not below {num_joints} joints")


@_timed
def run_ingest(config: PipelineConfig) -> dict:
    """Parse captures, canonicalise, make them relative, split train and test."""
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
        match = _ACTION_ID.search(file.stem)
        label = int(match.group(1)) - 1 if match else None
        try:
            seq = to_canonical(parse_ntu_skeleton(file.read_text()), config.target_frames,
                               config.max_bodies, sample_id=file.stem, label=label)
            if samples and seq.num_joints != samples[0].num_joints:
                raise MalformedCapture(f"{seq.num_joints} joints, but {files[0].name} "
                                       f"has {samples[0].num_joints}")
        except (MalformedCapture, EmptyCapture) as exc:
            exc.args = (f"{file}: {exc}",)  # name the file; the type and its line stay
            raise
        _check_center_joint(config, seq.num_joints)
        samples.append(preprocess_relative(seq, config.center_joint))

    rng = np.random.default_rng(config.stage_seed("ingest"))
    order = rng.permutation(len(samples))
    test_idx = set(int(i) for i in order[:int(config.test_frac * len(samples))])
    chosen = {split: [] for split in SPLITS}
    for i, seq in enumerate(samples):
        chosen["test" if i in test_idx else "train"].append(seq)
    if not chosen["train"]:
        raise ConfigError("ingest: split left no training samples")
    datasets = {split: Dataset.from_sequences(seqs, split) for split, seqs in chosen.items() if seqs}

    config.workpath().mkdir(parents=True, exist_ok=True)
    outputs = _write_datasets(config, datasets, "{split}")
    params = {
        "input": str(source), "target_frames": config.target_frames,
        "max_bodies": config.max_bodies, "center_joint": config.center_joint,
        "test_frac": config.test_frac, "seed": config.stage_seed("ingest"),
        "dataset_format": config.dataset_format,
    }
    _write_manifest(config, "ingest", params, files, outputs)
    return _summary("ingest", outputs, **_sample_counts(datasets))


@_timed
def run_synth(config: PipelineConfig) -> dict:
    """Generate the bundled synthetic corpus in place of ingest."""
    _check_center_joint(config, config.synth_joints)
    if config.target_frames < 2:
        raise ConfigError(f"synth needs target_frames >= 2, got {config.target_frames}")
    per_class = {"train": config.synth_per_class, "test": config.synth_test_per_class}
    datasets = {}
    for split in SPLITS:
        if per_class[split]:
            corpus = synth.make_corpus(
                config.synth_classes, per_class[split], frames=config.target_frames,
                joints=config.synth_joints, seed=config.seed, id_prefix=split, split_tag=split,
            )
            datasets[split] = Dataset.from_sequences(
                [preprocess_relative(s, config.center_joint) for s in corpus.samples], split
            )
    config.workpath().mkdir(parents=True, exist_ok=True)
    outputs = _write_datasets(config, datasets, "{split}")
    params = {
        "classes": config.synth_classes, "per_class": config.synth_per_class,
        "test_per_class": config.synth_test_per_class, "frames": config.target_frames,
        "joints": config.synth_joints, "seed": config.seed,
        "center_joint": config.center_joint, "dataset_format": config.dataset_format,
    }
    _write_manifest(config, "synth", params, [], outputs)
    return _summary("synth", outputs, **_sample_counts(datasets))


def _occlusion_spec(config: PipelineConfig) -> occlusion.OcclusionSpec:
    if config.occlusion_mode == "joint_targeted" and not config.occlusion_joints:
        raise ConfigError("occlusion_mode joint_targeted needs occlusion_joints")
    return occlusion.OcclusionSpec(
        mode=config.occlusion_mode, rate=config.occlusion_rate,
        joints=config.occlusion_joints, frame_fraction=config.occlusion_frame_fraction,
        seed=config.stage_seed("occlude"),
    )


@_timed
def run_occlude(config: PipelineConfig) -> dict:
    """Hide joints; the clean split stays their ground truth."""
    spec = _occlusion_spec(config)
    paths = artifact_paths(config)
    inputs, outputs, hidden = [], [], 0
    for split in _splits(config, "{split}", "occlude", "ingest"):
        inputs.append(paths[split])
        dataset = formats.read_dataset(paths[split], split_tag=split)
        num_joints = dataset.samples[0].num_joints
        bad = [j for j in spec.joints if not 0 <= j < num_joints]
        if spec.mode == "joint_targeted" and bad:
            raise ConfigError(f"occlusion_joints {bad} outside the {num_joints} joints "
                              f"of {paths[split]}")
        occluded, record = occlusion.apply_spec(dataset, spec)
        formats.write_dataset(occluded, paths[f"{split}_occluded"], config.dataset_format)
        outputs.append(paths[f"{split}_occluded"])
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
        return load_edge_list(_require(Path(config.edge_list), "embed", "provide the edge list"),
                              num_joints)
    return None  # embed_baseline picks its default


@_timed
def run_embed(config: PipelineConfig) -> dict:
    """Compute or import per-sample embeddings."""
    paths = artifact_paths(config)
    inputs, outputs = [], []
    for split in _splits(config, "{split}_occluded", "embed", "occlude"):
        inputs.append(paths[f"{split}_occluded"])
        dataset = formats.read_dataset(paths[f"{split}_occluded"], split_tag=split)
        if config.embedding_source == "external":
            external = getattr(config, f"embeddings_{split}")
            if external is None:
                raise ConfigError(f"embedding_source=external but no embeddings_{split} path")
            ext_path = _require(Path(external), "embed", "provide external embeddings")
            inputs.append(ext_path)
            matrix = embedding.align_to_dataset(embedding.load_embeddings(ext_path), dataset)
        else:
            graph = _embedding_graph(config, dataset.samples[0].num_joints)
            matrix = embedding.embed_baseline(dataset, graph=graph)
        embedding.save_embeddings(matrix, paths[f"emb_{split}"])
        outputs.append(paths[f"emb_{split}"])
    if config.embedding_source != "external" and config.edge_list is not None:
        inputs.append(Path(config.edge_list))  # the bones the embeddings were computed over
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


@_timed
def run_cluster(config: PipelineConfig) -> dict:
    """Fit k-means on the train embeddings and label both splits."""
    paths = artifact_paths(config)
    inputs, outputs = [], [paths["model"]]
    for split in _splits(config, "emb_{split}", "cluster", "embed"):
        inputs.append(paths[f"emb_{split}"])
        matrix = embedding.load_embeddings(paths[f"emb_{split}"])
        if config.normalize_embeddings:
            matrix = _l2_rows(matrix)
        if split == "train":
            model, labels = clustering.kmeans_fit(
                matrix, config.clusters, config.stage_seed("cluster"),
                max_iter=config.kmeans_max_iter, tol=config.kmeans_tol,
            )
            clustering.save_model(model, paths["model"])
        else:  # from the model as stored, so a later predict from its file agrees
            labels = clustering.kmeans_predict(clustering.load_model(paths["model"]), matrix)
        formats.write_labels_csv(labels.sample_ids, labels.labels, paths[f"labels_{split}"])
        outputs.append(paths[f"labels_{split}"])
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


@_timed
def run_impute(config: PipelineConfig) -> dict:
    """Fill missing joints from neighbours within each cluster."""
    paths = artifact_paths(config)
    splits = _splits(config, "{split}_occluded", "impute", "occlude")
    inputs, args = [], {}  # impute_dataset's arguments: train, train_labels, test, test_labels
    for split in splits:
        labels_path = _require(paths[f"labels_{split}"], "impute", "cluster")
        inputs += [paths[f"{split}_occluded"], labels_path]
        args[split] = formats.read_dataset(paths[f"{split}_occluded"], split_tag=split)
        ids, values = formats.read_labels_csv(labels_path)
        args[f"{split}_labels"] = clustering.PseudoLabels(labels=values, sample_ids=ids)

    *imputed, report = imputation.impute_dataset(**args, k=config.neighbors, threads=config.threads)
    outputs = _write_datasets(config, dict(zip(splits, imputed)), "{split}_imputed")
    paths["imputation_report"].write_text(report.to_json() + "\n")
    outputs.append(paths["imputation_report"])
    params = {"neighbors": config.neighbors, "dataset_format": config.dataset_format}
    _write_manifest(config, "impute", params, inputs, outputs)
    return _summary("impute", outputs, **dataclasses.asdict(report.totals()))


@_timed
def run_eval(config: PipelineConfig) -> dict:
    """Score recovery against the clean split where the occluded one is missing."""
    paths = artifact_paths(config)
    seed_eval = config.stage_seed("eval")
    inputs, imputed, records = [], {}, {}
    knn, baseline = evaluation.MpjpeStats(), evaluation.MpjpeStats()
    for split in _splits(config, "{split}_imputed", "eval", "impute"):
        clean_path = _require(paths[split], "eval", "ingest")
        occluded_path = _require(paths[f"{split}_occluded"], "eval", "occlude")
        inputs += [paths[f"{split}_imputed"], clean_path, occluded_path]
        imputed[split] = formats.read_dataset(paths[f"{split}_imputed"], split_tag=split)
        occluded = formats.read_dataset(occluded_path, split_tag=split)
        record = records[split] = occlusion.OcclusionRecord.between(
            formats.read_dataset(clean_path, split_tag=split), occluded)
        knn += evaluation.mpjpe(imputed[split], record)
        baseline += evaluation.mpjpe(evaluation.impute_random_baseline(occluded, seed_eval), record)

    per_class = evaluation.per_class_error(
        Dataset.from_sequences([seq for d in imputed.values() for seq in d.samples], "all"),
        occlusion.OcclusionRecord(
            entries={sid: e for r in records.values() for sid, e in r.entries.items()}),
    )

    purity = nmi = None
    truth = [seq.label for seq in imputed["train"].samples]
    if all(lab is not None for lab in truth) and paths["labels_train"].exists():
        ids, pseudo = formats.read_labels_csv(paths["labels_train"])
        if ids == imputed["train"].sample_ids:
            purity, nmi = evaluation.clustering_quality(pseudo, np.asarray(truth))
            inputs.append(paths["labels_train"])

    hidden = knn.evaluated + knn.excluded
    report = evaluation.EvalReport(
        mpjpe_imputed=knn.mean_error,
        mpjpe_random=baseline.mean_error,
        coverage=knn.evaluated / hidden if hidden else None,
        imputed_instances=knn.evaluated,
        unimputable_instances=knn.excluded,
        per_class={str(label): stats.mean_error
                   for label, stats in per_class.items() if stats.evaluated} or None,
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


@_timed
def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage in order, on the synthetic corpus when no input is set."""
    _occlusion_spec(config)  # a bad occlusion setting fails before any stage writes
    first = run_ingest if config.input is not None else run_synth
    stages = [stage(config) for stage in
              (first, run_occlude, run_embed, run_cluster, run_impute, run_eval)]
    return {
        "stage": "pipeline",
        "stages": stages,
        **{key: stages[-1][key] for key in ("mpjpe_imputed", "mpjpe_random", "coverage")},
    }
