"""Command-line interface.

One subcommand per pipeline stage plus ``pipeline`` (all stages in order)
and ``synth`` (generate the bundled synthetic corpus).  Flag precedence is
CLI > config file > built-in defaults.

Exit codes: 0 success, 2 configuration error, 3 missing input artifact,
4 data/format error, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import ConfigError, MissingArtifact, SkelfillError
from .pipeline import (
    PipelineConfig,
    _validate,
    load_config,
    run_cluster,
    run_embed,
    run_eval,
    run_impute,
    run_ingest,
    run_occlude,
    run_pipeline,
    run_synth,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_DATA = 4

_STAGES = {
    "ingest": run_ingest,
    "occlude": run_occlude,
    "embed": run_embed,
    "cluster": run_cluster,
    "impute": run_impute,
    "eval": run_eval,
    "pipeline": run_pipeline,
    "synth": run_synth,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--workdir", help="artifact directory (default: work)")
    parser.add_argument("--seed", type=int, help="base seed for all stage seeds")
    parser.add_argument("--threads", type=int, help="worker threads (default: 1)")
    parser.add_argument("--format", choices=("skl1", "csv"), dest="dataset_format",
                        help="dataset artifact format (default: skl1)")
    parser.add_argument("--json", action="store_true",
                        help="print the stage summary as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelfill",
        description="occlusion-aware skeleton imputation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse captures, canonicalise, split")
    p_ingest.add_argument("--input", help="capture file or directory of .skeleton files")
    p_ingest.add_argument("--target-frames", type=int, dest="target_frames")
    p_ingest.add_argument("--max-bodies", type=int, dest="max_bodies")
    p_ingest.add_argument("--center-joint", type=int, dest="center_joint")
    p_ingest.add_argument("--test-frac", type=float, dest="test_frac")

    p_synth = sub.add_parser("synth", help="generate the synthetic corpus")
    p_synth.add_argument("--classes", type=int, dest="synth_classes")
    p_synth.add_argument("--per-class", type=int, dest="synth_per_class")
    p_synth.add_argument("--test-per-class", type=int, dest="synth_test_per_class")
    p_synth.add_argument("--target-frames", type=int, dest="target_frames")
    p_synth.add_argument("--joints", type=int, dest="synth_joints")

    p_occ = sub.add_parser("occlude", help="hide joints and record ground truth")
    p_occ.add_argument("--mode", choices=("random_rate", "joint_targeted"),
                       dest="occlusion_mode")
    p_occ.add_argument("--rate", type=float, dest="occlusion_rate")
    p_occ.add_argument("--joints", dest="occlusion_joints",
                       help="comma-separated joint indices for joint_targeted mode")
    p_occ.add_argument("--frame-fraction", type=float, dest="occlusion_frame_fraction")

    p_embed = sub.add_parser("embed", help="compute or import per-sample embeddings")
    p_embed.add_argument("--source", choices=("builtin", "external"), dest="embedding_source")
    p_embed.add_argument("--embeddings-train", dest="embeddings_train")
    p_embed.add_argument("--embeddings-test", dest="embeddings_test")
    p_embed.add_argument("--edge-list", dest="edge_list",
                         help="text file with one 'i j' bone per line")

    p_cluster = sub.add_parser("cluster", help="fit k-means and label both splits")
    p_cluster.add_argument("--clusters", type=int, dest="clusters")
    p_cluster.add_argument("--max-iter", type=int, dest="kmeans_max_iter")
    p_cluster.add_argument("--tol", type=float, dest="kmeans_tol")
    p_cluster.add_argument("--normalize-embeddings", action="store_const", const=True,
                           dest="normalize_embeddings")

    p_impute = sub.add_parser("impute", help="fill missing joints within clusters")
    p_impute.add_argument("--neighbors", type=int, dest="neighbors")

    sub.add_parser("eval", help="score recovery against recorded ground truth")

    p_pipe = sub.add_parser("pipeline", help="run every stage in order")
    for stage_parser in (p_pipe,):
        stage_parser.add_argument("--input", help="capture source; omit to use the synthetic corpus")
        stage_parser.add_argument("--target-frames", type=int, dest="target_frames")
        stage_parser.add_argument("--max-bodies", type=int, dest="max_bodies")
        stage_parser.add_argument("--center-joint", type=int, dest="center_joint")
        stage_parser.add_argument("--test-frac", type=float, dest="test_frac")
        stage_parser.add_argument("--mode", choices=("random_rate", "joint_targeted"),
                                  dest="occlusion_mode")
        stage_parser.add_argument("--rate", type=float, dest="occlusion_rate")
        stage_parser.add_argument("--clusters", type=int, dest="clusters")
        stage_parser.add_argument("--neighbors", type=int, dest="neighbors")
        stage_parser.add_argument("--classes", type=int, dest="synth_classes")
        stage_parser.add_argument("--per-class", type=int, dest="synth_per_class")
        stage_parser.add_argument("--test-per-class", type=int, dest="synth_test_per_class")

    for sub_parser in sub.choices.values():
        _add_common(sub_parser)
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig()
    if args.config:
        config = load_config(args.config, base=config)
    field_names = {f.name for f in dataclasses.fields(PipelineConfig)}
    for name, value in vars(args).items():
        if name in field_names and value is not None:
            if name == "occlusion_joints" and isinstance(value, str):
                try:
                    value = tuple(int(part.strip()) for part in value.split(",") if part.strip())
                except ValueError:
                    raise ConfigError(f"--joints expects comma-separated integers, got {value!r}")
            setattr(config, name, value)
    _validate(config)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        summary = _STAGES[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except SkelfillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort guard for the CLI
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED

    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        for key, value in summary.items():
            if key == "stages":
                continue
            print(f"{key}: {value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
