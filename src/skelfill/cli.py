"""Command-line interface.

One subcommand per pipeline stage plus ``pipeline`` (all stages in order)
and ``synth`` (generate the bundled synthetic corpus).  Flag precedence is
CLI > config file > built-in defaults.

Exit codes: 0 success, 2 configuration error, 3 missing input artifact,
4 data/format error, 1 unexpected failure.

Importing this module changes the process in two ways.  It sets
``OPENBLAS_NUM_THREADS`` to 1 unless it is already set, before it loads
numpy, so a process that starts here runs no BLAS threads beside its
``--threads`` pool.  Then it freezes (``gc.freeze``) what its imports built,
so no later collection, the ones at exit included, walks those objects
again; what a run creates is still collected.  Library use of the other
modules keeps the caller's setting and freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .errors import ConfigError, MissingArtifact, SkelfillError

# The --threads pool is the program's parallelism, and its BLAS products are
# too small to gain from BLAS threads, whose pool only spins beside it.
# OpenBLAS reads the variable once, when it loads, so this comes before the
# first numpy import; a value the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import pipeline  # noqa: E402
from .pipeline import SETTINGS, PipelineConfig, _validate, load_config, parse_setting  # noqa: E402

# What the imports above built (about 22 000 objects, none of them garbage)
# lives until exit, where the final collections would walk it all: 15-20 ms
# of every process.  Frozen, it is skipped; objects made from here on are
# still collected, at exit too, so -X dev still reports a cycle a run leaks.
gc.freeze()

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_DATA = 4

# subcommand -> stage, in the order ``--help`` lists them with their docstrings
_STAGES = {name: getattr(pipeline, f"run_{name}") for name in pipeline.COMMANDS.split()}
_FLAGS = {name: f.metadata["flag"] or "--" + name.replace("_", "-") for name, f in SETTINGS.items()}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per stage; each config field adds its flag to the
    subcommands its metadata names.  Flag values stay text until
    :func:`_config_from_args` parses them like config-file values."""
    parser = argparse.ArgumentParser(
        prog="skelfill",
        description="occlusion-aware skeleton imputation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, help=(stage.__doc__ or "").split("\n")[0])
        for name, stage in _STAGES.items()
    }
    for name, f in SETTINGS.items():
        # a bool setting is a switch: present means true
        kind = ({"action": "store_const", "const": "true"} if isinstance(f.default, bool)
                else {"choices": f.metadata["choices"]})
        for command in f.metadata["on"]:
            commands[command].add_argument(_FLAGS[name], dest=name, help=f.metadata["help"], **kind)
    for command in commands.values():
        command.add_argument("--config", help="key = value config file")
        command.add_argument("--json", action="store_true", help="print the stage summary as JSON")
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    for name in SETTINGS:
        raw = getattr(args, name, None)
        if raw is not None:
            setattr(config, name, parse_setting(name, raw, _FLAGS[name]))
    _validate(config)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        summary = _STAGES[args.command](config)
        if args.json:
            print(json.dumps(summary, sort_keys=True))
        else:
            for key, value in summary.items():
                if key != "stages":
                    print(f"{key}: {value}")
        sys.stdout.flush()  # a reader that left fails the flush here, not at exit
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except SkelfillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # The stage's files are written; only its summary was lost.  Python
        # flushes stdout once more at exit, so stdout is pointed at devnull,
        # as the SIGPIPE note of the signal module's docs does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before the summary was written", file=sys.stderr)
        return EXIT_UNEXPECTED
    except Exception as exc:  # noqa: BLE001 - last-resort guard for the CLI
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
