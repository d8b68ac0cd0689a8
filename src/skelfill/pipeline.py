"""Stage orchestration over a working directory.

Every stage reads its inputs from files, writes its outputs to files, and
drops a ``manifest_<stage>.json`` recording the config hash, the seeds used
and the SHA-256 of every input and output.  Stages hold no hidden state, so
any stage can be rerun from the on-disk artifacts alone, and reruns with
identical inputs and config produce byte-identical outputs.  What varies
between runs, each stage's wall time and peak RSS, goes only into the
summary it returns (see :func:`_timed`).

Within one :func:`run_pipeline`, datasets also pass from stage to stage in
memory, through a hand-off table (:data:`Handoff`).  Each dataset write
enters the file's SHA-256 and the dataset exactly as a read of the file
returns it (:func:`formats.dataset_as_written`).  Each dataset read hashes
the file and takes the table's dataset only when the digests agree; else it
reads the file.  Those digests are the ones the manifests record, so no
file is hashed twice.  A file changed on disk is read again, and a stage
run on its own has no table and reads from disk.  ``run_eval``, the last
reader of every dataset, drops each entry as it reads it.

The clean splits are read again only by ``run_eval``, and only for the
ground truth of what occlusion hid.  So ``run_occlude`` puts each split's
:class:`~skelfill.occlusion.OcclusionRecord` in the table in place of the
clean dataset, keyed by the digests of the clean file as it read it and of
the occluded file as it wrote it, and no clean split stays in memory
through embed, cluster and impute.  ``run_eval`` still hashes the clean
file and lists it in its manifest, and takes the record when both digests
agree; else, when either file changed on disk or eval runs on its own, it
reads the clean file and rebuilds the record
(:meth:`~skelfill.occlusion.OcclusionRecord.between`).

A CSV write of a derived dataset (``{split}_occluded`` from ``{split}``,
``{split}_imputed`` from ``{split}_occluded``) copies, line for line, each
row of the stage's input file whose x, y, z keep their bits, and formats
only the rows the stage changed (see :mod:`skelfill.formats`).  Only an
input the stage took from the table lends its file, since only a file this
process wrote is known to hold the writer's own text; the file written
equals a fresh write byte for byte.

Config files are plain ``key = value`` text: blank lines and ``#`` comments
are skipped, keys may be written dotted (``occlusion.rate``) or with
underscores (``occlusion_rate``), lists are comma-separated.

:data:`COMMANDS` is the single source for the subcommands: the command
line offers one for each name, running the ``run_<name>`` stage of this
module, in that order.  The field metadata of :class:`PipelineConfig` is the
single source for the config keys, the command-line flags and the range
checks: each field holds its text parser, its range or choices, its flag
and the subcommands that offer the flag.  Config files and flags share one
parse path.

Each stage keeps this bookkeeping in one :class:`_StageFiles`, so its body
shows only what it reads, computes and writes.  The object lists the splits
the stage works on (train, and test when the stage before wrote it),
requires and lists each input, reads and writes datasets and hands on and
takes records through the hand-off table, lends a read's file as the base
of its split's CSV write, and writes the manifest from the digests taken on
the way.
"""

from __future__ import annotations

import contextlib
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
    _int,
    parse_ntu_skeleton,
    preprocess_relative,
    to_canonical,
)
from .errors import ConfigError, EmptyCapture, FormatError, MalformedCapture, MissingArtifact
from .graph import load_edge_list

_ACTION_ID = re.compile(r"A(\d{3})")

# fixed offsets for stage seeds derived from the base seed
_SEED_OFFSETS = {"ingest": 11, "occlude": 23, "cluster": 37, "eval": 53}

# every subcommand, each running the stage ``run_<name>``, in ``--help``
# order; a setting offered on all of them names this as its ``on``
COMMANDS = "ingest synth occlude embed cluster impute eval pipeline"


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int(raw: str) -> int:
    """An integer as :func:`~skelfill.data._int` reads one, blanks around it allowed."""
    return _int(raw.strip())


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    text = raw.strip()
    if not text:
        return ()
    try:
        return tuple(_parse_int(part) for part in text.split(","))
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
    target_frames: int = _setting(50, _parse_int, on="ingest synth pipeline", check=_POSITIVE)
    max_bodies: int = _setting(2, _parse_int, on="ingest pipeline", check=_POSITIVE)
    center_joint: int = _setting(
        DEFAULT_CENTER_JOINT, _parse_int, on="ingest pipeline", check=_NON_NEGATIVE)
    test_frac: float = _setting(
        0.2, float, on="ingest pipeline", check=(lambda v: 0 <= v < 1, "in [0, 1)"))
    # occlusion synthesis
    occlusion_mode: str = _setting("random_rate", flag="--mode", on="occlude pipeline",
                                   choices=occlusion.MODES)
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
    clusters: int = _setting(60, _parse_int, on="cluster pipeline", check=_POSITIVE)
    kmeans_max_iter: int = _setting(
        300, _parse_int, flag="--max-iter", on="cluster", check=_POSITIVE)
    kmeans_tol: float = _setting(1e-4, float, flag="--tol", on="cluster", check=_NON_NEGATIVE)
    normalize_embeddings: bool = _setting(False, _parse_bool, on="cluster")
    # imputation
    neighbors: int = _setting(5, _parse_int, on="impute pipeline", check=_POSITIVE)
    # synthetic corpus (used when no input is given)
    synth_classes: int = _setting(
        10, _parse_int, flag="--classes", on="synth pipeline", check=_POSITIVE)
    synth_per_class: int = _setting(
        100, _parse_int, flag="--per-class", on="synth pipeline", check=_POSITIVE)
    synth_test_per_class: int = _setting(
        20, _parse_int, flag="--test-per-class", on="synth pipeline", check=_NON_NEGATIVE)
    synth_joints: int = _setting(
        25, _parse_int, flag="--joints", on="synth", check=(lambda v: v >= 2, ">= 2"))
    # run control
    seed: int = _setting(
        0, _parse_int, on=COMMANDS, check=_NON_NEGATIVE, help="base seed for all stage seeds")
    threads: int = _setting(
        1, _parse_int, on=COMMANDS, check=_POSITIVE, help="worker threads (default: 1)")
    dataset_format: str = _setting("skl1", flag="--format", on=COMMANDS, choices=("skl1", "csv"),
                                   help="dataset artifact format (default: skl1)")

    def stage_seed(self, stage: str) -> int:
        return self.seed + _SEED_OFFSETS[stage]

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
    """Read a key-value config file, as UTF-8 whatever the locale, on top of
    ``base`` (or the defaults)."""
    config = dataclasses.replace(base) if base is not None else PipelineConfig()
    try:
        lines = formats.text_lines(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in lines:
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


# What one ``run_pipeline`` hands from stage to stage.  Dataset path ->
# (SHA-256 of the file as written, the dataset a read of it returns); after
# occlude, clean split path -> ((SHA-256 of the clean file, of the occluded
# file), the record of what the occluded split hides of the clean one).
Handoff = dict[Path, tuple[str, Dataset] | tuple[tuple[str, str], occlusion.OcclusionRecord]]


class _StageFiles:
    """The files of one run of ``stage``: its artifact paths, the inputs and
    outputs its manifest lists, the SHA-256 of each file taken so far, and
    the hand-off table (None for a stage run on its own).  Keys name
    artifacts in :func:`artifact_paths`; a dataset's key starts with its
    split."""

    def __init__(self, config: PipelineConfig, stage: str, handoff: Handoff | None):
        work = config.workpath()
        if work.exists() and not work.is_dir():  # refused before the stage writes into it
            raise ConfigError(f"workdir {work} is not a directory")
        self.config, self.stage, self.handoff = config, stage, handoff
        self.paths = artifact_paths(config)
        self.inputs: set[Path] = set()
        self.outputs: list[Path] = []
        self.digests: dict[Path, str] = {}
        self._bases: dict[str, formats.Base] = {}  # split -> base of its next write

    def splits(self, key: str, hint: str) -> list[str]:
        """The splits the stage works on: train, whose input ``key`` (with
        ``{split}`` for the split) it needs, and test when its input exists,
        each input listed."""
        found = [split for split in SPLITS
                 if split == "train" or self.paths[key.format(split=split)].exists()]
        for split in found:
            self.need(key.format(split=split), hint)
        return found

    def need(self, what: str | Path, hint: str) -> Path:
        """List the input ``what``, a key or a path; a missing file raises
        :class:`MissingArtifact` naming ``hint``, what to run first, and so
        does a directory in its place."""
        path = self.paths[what] if isinstance(what, str) else what
        if not path.exists():
            raise MissingArtifact(f"{self.stage}: required input {path} is missing; run '{hint}' first")
        if path.is_dir():
            raise MissingArtifact(f"{self.stage}: required input {path} is a directory, not a file")
        self.inputs.add(path)
        return path

    def read(self, key: str, last: bool = False) -> Dataset:
        """The dataset of the input ``key``: the table's for the file's digest,
        else the file read.  ``last`` drops the table's entry, for the stage
        that reads the file last; else a dataset from the table is also the
        base of the split's next :meth:`write`, since this process wrote the
        file."""
        path, split = self.paths[key], key.split("_")[0]
        self.inputs.add(path)
        digest = self.digests[path] = formats.sha256_file(path)
        entry = None if self.handoff is None else (
            self.handoff.pop(path, None) if last else self.handoff.get(path))
        if entry is None or entry[0] != digest:
            return formats.read_dataset(path, split_tag=split)
        if not last:
            self._bases[split] = (path, entry[1])
        return entry[1]

    def write(self, key: str, dataset: Dataset) -> None:
        """Write the output ``key`` in the configured format, copying the CSV
        rows left unchanged from the split's base, and hand it on."""
        path, split, fmt = self.output(key), key.split("_")[0], self.config.dataset_format
        path.parent.mkdir(parents=True, exist_ok=True)
        formats.write_dataset(dataset, path, fmt, base=self._bases.pop(split, None))
        digest = self.digests[path] = formats.sha256_file(path)
        if self.handoff is not None:
            with contextlib.suppress(FormatError):  # a read refuses it, so its reader raises
                self.handoff[path] = (digest, formats.dataset_as_written(dataset, path, fmt, split))

    def hand_on_record(self, split: str, record: occlusion.OcclusionRecord) -> None:
        """Put ``record``, read off the clean ``split`` and its occluded copy
        as written, in the table in place of the clean dataset."""
        if self.handoff is not None:
            clean, occluded = self.paths[split], self.paths[f"{split}_occluded"]
            self.handoff[clean] = ((self.digests[clean], self.digests[occluded]), record)

    def record(self, split: str, occluded: Dataset) -> occlusion.OcclusionRecord:
        """The record of what ``occluded``, read from the split's occluded
        file, hides of the clean ``split``: the table's when both files have
        the digests it was handed on with, else rebuilt from the clean file.
        Drops the table's entry."""
        path = self.paths[split]
        digest = self.digests[path] = formats.sha256_file(path)
        entry = None if self.handoff is None else self.handoff.pop(path, None)
        if entry is not None and entry[0] == (digest, self.digests[self.paths[f"{split}_occluded"]]):
            return entry[1]
        clean = formats.read_dataset(path, split_tag=split)
        return occlusion.OcclusionRecord.between(clean, occluded)

    def output(self, key: str) -> Path:
        self.outputs.append(self.paths[key])
        return self.paths[key]

    def finish(self, params: dict, **summary) -> dict:
        """Write the stage's manifest, hashing each listed file not hashed
        yet, and return the stage's summary."""
        work = self.config.workpath()

        def listing(files) -> dict[str, str]:  # names independent of where the workdir lives
            return {str(p.relative_to(work)) if p.is_relative_to(work) else p.name:
                    self.digests.get(p) or formats.sha256_file(p) for p in sorted(files)}

        config_hash = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()
        manifest = {"stage": self.stage, "config_hash": config_hash, "params": params,
                    "inputs": listing(self.inputs), "outputs": listing(self.outputs)}
        (work / f"manifest_{self.stage}.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        return {"stage": self.stage, "outputs": [str(p) for p in self.outputs], **summary}


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
    def run(config: PipelineConfig, handoff: Handoff | None = None) -> dict:
        start = time.perf_counter()
        summary = stage(config, handoff=handoff)
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
def run_ingest(config: PipelineConfig, handoff: Handoff | None = None) -> dict:
    """Parse captures, canonicalise, make them relative, split train and test."""
    if config.input is None:
        raise ConfigError("ingest needs an input file or directory")
    source = Path(config.input)
    if not source.exists():
        raise MissingArtifact(f"ingest: input {source} does not exist")
    captures = sorted(source.glob("*.skeleton")) if source.is_dir() else [source]
    if not captures:
        raise MissingArtifact(f"ingest: no .skeleton files under {source}")

    files = _StageFiles(config, "ingest", handoff)
    rng = np.random.default_rng(config.stage_seed("ingest"))
    test_idx = set(rng.permutation(len(captures))[:int(config.test_frac * len(captures))].tolist())
    split_of = ["test" if i in test_idx else "train" for i in range(len(captures))]
    chosen: dict[str, list] = {split: [] for split in SPLITS}
    data: dict[str, np.ndarray] = {}  # each split's [N, 3, T, V, M], once the first capture is read
    for file, split in zip(captures, split_of):
        formats.encode_id(file.stem, file)  # the sample id, refused before anything is written
        match = _ACTION_ID.search(file.stem)
        label = int(match.group(1)) - 1 if match else None
        try:
            text = formats.decode_utf8(files.need(file, "provide the capture").read_bytes(),
                                       lambda line, what: MalformedCapture(what, line=line))
            seq = to_canonical(parse_ntu_skeleton(text), config.target_frames,
                               config.max_bodies, sample_id=file.stem, label=label)
            if data and seq.num_joints != data["train"].shape[3]:
                raise MalformedCapture(f"{seq.num_joints} joints, but {captures[0].name} "
                                       f"has {data['train'].shape[3]}")
            _check_center_joint(config, seq.num_joints)
            with np.errstate(over="ignore"):  # refused just below
                seq = preprocess_relative(seq, config.center_joint)
            if not np.isfinite(seq.data).all():
                raise MalformedCapture("a coordinate relative to the center joint "
                                       "is beyond the float32 range")
        except (MalformedCapture, EmptyCapture) as exc:
            exc.args = (f"{file}: {exc}",)  # name the file; the type and its line stay
            raise
        data = data or {name: np.empty((split_of.count(name), *seq.data.shape), np.float32)
                        for name in SPLITS}
        row = data[split][len(chosen[split])]
        row[...] = seq.data
        chosen[split].append(seq.with_data(row))
    if not chosen["train"]:
        raise ConfigError("ingest: split left no training samples")
    datasets = {split: Dataset(data[split], seqs, split) for split, seqs in chosen.items() if seqs}
    for split, dataset in datasets.items():
        files.write(split, dataset)
    params = {
        "input": str(source), "target_frames": config.target_frames,
        "max_bodies": config.max_bodies, "center_joint": config.center_joint,
        "test_frac": config.test_frac, "seed": config.stage_seed("ingest"),
        "dataset_format": config.dataset_format,
    }
    return files.finish(params, **_sample_counts(datasets))


@_timed
def run_synth(config: PipelineConfig, handoff: Handoff | None = None) -> dict:
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
            for seq in corpus.samples:  # in place: the corpus is this stage's own
                seq.data[...] = preprocess_relative(seq, config.center_joint).data
            datasets[split] = corpus
    files = _StageFiles(config, "synth", handoff)
    for split, dataset in datasets.items():
        files.write(split, dataset)
    params = {
        "classes": config.synth_classes, "per_class": config.synth_per_class,
        "test_per_class": config.synth_test_per_class, "frames": config.target_frames,
        "joints": config.synth_joints, "seed": config.seed,
        "center_joint": config.center_joint, "dataset_format": config.dataset_format,
    }
    return files.finish(params, **_sample_counts(datasets))


def _occlusion_spec(config: PipelineConfig) -> occlusion.OcclusionSpec:
    if config.occlusion_mode == "joint_targeted" and not config.occlusion_joints:
        raise ConfigError("occlusion_mode joint_targeted needs occlusion_joints")
    return occlusion.OcclusionSpec(
        mode=config.occlusion_mode, rate=config.occlusion_rate,
        joints=config.occlusion_joints, frame_fraction=config.occlusion_frame_fraction,
        seed=config.stage_seed("occlude"),
    )


@_timed
def run_occlude(config: PipelineConfig, handoff: Handoff | None = None) -> dict:
    """Hide joints; the clean split stays their ground truth."""
    spec = _occlusion_spec(config)
    files, hidden = _StageFiles(config, "occlude", handoff), 0
    for split in files.splits("{split}", "ingest"):
        dataset = files.read(split)
        num_joints = dataset.data.shape[3]
        bad = [j for j in spec.joints if not 0 <= j < num_joints]
        if spec.mode == "joint_targeted" and bad:
            raise ConfigError(f"occlusion_joints {bad} outside the {num_joints} joints "
                              f"of {files.paths[split]}")
        occluded, record = occlusion.apply_spec(dataset, spec)
        files.write(f"{split}_occluded", occluded)
        files.hand_on_record(split, record)
        hidden += record.total_instances()
    params = {
        "mode": spec.mode, "rate": spec.rate, "joints": list(spec.joints),
        "frame_fraction": spec.frame_fraction, "seed": spec.seed,
        "dataset_format": config.dataset_format,
    }
    return files.finish(params, hidden_instances=hidden)


@_timed
def run_embed(config: PipelineConfig, handoff: Handoff | None = None) -> dict:
    """Compute or import per-sample embeddings."""
    files = _StageFiles(config, "embed", handoff)
    for split in files.splits("{split}_occluded", "occlude"):
        dataset = files.read(f"{split}_occluded")
        if config.embedding_source == "external":
            external = getattr(config, f"embeddings_{split}")
            if external is None:
                raise ConfigError(f"embedding_source=external but no embeddings_{split} path")
            ext_path = files.need(Path(external), "provide external embeddings")
            matrix = embedding.align_to_dataset(embedding.load_embeddings(ext_path), dataset)
        else:  # embed_baseline picks its default bones without an edge list
            graph = None if config.edge_list is None else load_edge_list(
                files.need(Path(config.edge_list), "provide the edge list"), dataset.data.shape[3])
            matrix = embedding.embed_baseline(dataset, graph=graph)
        embedding.save_embeddings(matrix, files.output(f"emb_{split}"))
    params = {
        "source": config.embedding_source, "edge_list": config.edge_list,
        "external_train": config.embeddings_train, "external_test": config.embeddings_test,
    }
    return files.finish(params)


def _l2_rows(matrix: embedding.EmbeddingMatrix) -> embedding.EmbeddingMatrix:
    """Each row over its L2 norm; a zero row stays zero.  A nonzero row whose
    sum of squares overflows or is not a normal float is first divided by its
    largest magnitude, so that its norm is in range."""
    values = matrix.values
    with np.errstate(over="ignore", under="ignore"):
        squares = (values * values).sum(axis=1)
    normal = (squares >= np.finfo(values.dtype).tiny) & (squares < np.inf)
    odd = np.flatnonzero(values.any(axis=1) & ~normal)
    rows = values.copy()
    rows[odd] /= np.abs(rows[odd]).max(axis=1, keepdims=True)
    squares[odd] = (rows[odd] * rows[odd]).sum(axis=1)
    norms = np.sqrt(squares)[:, None]
    np.divide(rows, norms, out=rows, where=norms > 0)
    return embedding.EmbeddingMatrix(
        values=rows, sample_ids=list(matrix.sample_ids), source=matrix.source
    )


@_timed
def run_cluster(config: PipelineConfig, handoff: Handoff | None = None) -> dict:
    """Fit k-means on the train embeddings and label both splits.

    It reads and writes no dataset, so ``handoff`` is left as it is."""
    files = _StageFiles(config, "cluster", handoff)
    for split in files.splits("emb_{split}", "embed"):
        matrix = embedding.load_embeddings(files.need(f"emb_{split}", "embed"))
        if config.normalize_embeddings:
            matrix = _l2_rows(matrix)
        if split == "train":
            model, labels = clustering.kmeans_fit(
                matrix, config.clusters, config.stage_seed("cluster"),
                max_iter=config.kmeans_max_iter, tol=config.kmeans_tol,
            )
            clustering.save_model(model, files.output("model"))
        else:  # from the model as stored, so a later predict from its file agrees
            labels = clustering.kmeans_predict(clustering.load_model(files.paths["model"]), matrix)
        formats.write_labels_csv(labels.sample_ids, labels.labels, files.output(f"labels_{split}"))
    params = {
        "clusters": config.clusters, "max_iter": config.kmeans_max_iter,
        "tol": config.kmeans_tol, "seed": config.stage_seed("cluster"),
        "normalize": config.normalize_embeddings,
    }
    return files.finish(params, inertia=model.inertia, iterations=model.iterations_run)


@_timed
def run_impute(config: PipelineConfig, handoff: Handoff | None = None) -> dict:
    """Fill missing joints from neighbours within each cluster."""
    files = _StageFiles(config, "impute", handoff)
    splits = files.splits("{split}_occluded", "occlude")
    args = {}  # train, train_labels, test, test_labels
    for split in splits:
        labels_path = files.need(f"labels_{split}", "cluster")
        args[split] = files.read(f"{split}_occluded")
        ids, values = formats.read_labels_csv(labels_path)
        args[f"{split}_labels"] = clustering.PseudoLabels(labels=values, sample_ids=ids)

    *imputed, report = imputation.impute_dataset(**args, k=config.neighbors, threads=config.threads)
    for split, dataset in zip(splits, imputed):
        files.write(f"{split}_imputed", dataset)
    files.output("imputation_report").write_text(report.to_json() + "\n")
    params = {"neighbors": config.neighbors, "dataset_format": config.dataset_format}
    return files.finish(params, **dataclasses.asdict(report.totals()))


@_timed
def run_eval(config: PipelineConfig, handoff: Handoff | None = None) -> dict:
    """Score recovery against the clean split where the occluded one is missing."""
    files = _StageFiles(config, "eval", handoff)
    seed_eval = config.stage_seed("eval")
    scored = {}  # split -> (imputed split, its record)
    by_split = {}  # split -> (MpjpeStats of its recovery, of the random baseline)
    for split in files.splits("{split}_imputed", "impute"):
        files.need(split, "ingest")
        files.need(f"{split}_occluded", "occlude")
        # the last stage to read each dataset, so it drops the hand-off entries
        imputed = files.read(f"{split}_imputed", last=True)
        occluded = files.read(f"{split}_occluded", last=True)
        record = files.record(split, occluded)
        scored[split] = imputed, record
        by_split[split] = (evaluation.mpjpe(imputed, record), evaluation.mpjpe(
            evaluation.impute_random_baseline(occluded, seed_eval), record))
    knn, baseline = (sum(parts, evaluation.MpjpeStats()) for parts in zip(*by_split.values()))
    per_class = evaluation.per_class_error(scored.values())
    train = scored["train"][0]

    purity = nmi = None
    truth = [seq.label for seq in train.samples]
    if all(lab is not None for lab in truth) and files.paths["labels_train"].exists():
        ids, pseudo = formats.read_labels_csv(files.paths["labels_train"])
        if ids == train.sample_ids:
            purity, nmi = evaluation.clustering_quality(pseudo, np.asarray(truth))
            files.need("labels_train", "cluster")

    report = evaluation.EvalReport.of(
        knn, baseline,
        per_class={str(label): stats.mean_error
                   for label, stats in per_class.items() if stats.evaluated} or None,
        purity=purity, nmi=nmi,
        splits={split: evaluation.SplitScores.of(*pair) for split, pair in by_split.items()},
    )
    files.output("eval_json").write_text(report.to_json() + "\n")
    with open(files.output("eval_csv"), "w", newline="") as handle:
        handle.write(",".join(report.csv_header()) + "\n")
        handle.write(",".join(report.csv_row()) + "\n")
    return files.finish(
        {"seed": seed_eval},
        mpjpe_imputed=report.mpjpe_imputed, mpjpe_random=report.mpjpe_random,
        coverage=report.coverage, purity=report.purity, nmi=report.nmi,
    )


@_timed
def run_pipeline(config: PipelineConfig, handoff: Handoff | None = None) -> dict:
    """Run every stage in order, on the synthetic corpus when no input is set.

    The stages hand datasets on through ``handoff``, a new table unless the
    caller passes one."""
    _occlusion_spec(config)  # a bad occlusion setting fails before any stage writes
    handoff = {} if handoff is None else handoff
    first = run_ingest if config.input is not None else run_synth
    stages = [stage(config, handoff=handoff) for stage in
              (first, run_occlude, run_embed, run_cluster, run_impute, run_eval)]
    return {
        "stage": "pipeline",
        "stages": stages,
        **{key: stages[-1][key] for key in ("mpjpe_imputed", "mpjpe_random", "coverage")},
    }
