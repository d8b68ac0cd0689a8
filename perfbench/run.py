"""Benchmark of ``skelfill pipeline``: run time, memory and recovery quality.

Run from the repository root::

    python3 perfbench/run.py --workload synth-default --seed 0 --seconds 30 --trace 0

Each repetition launches one fresh ``skelfill pipeline`` child on the
sources in ``src/`` with a clean workdir, times it from launch to exit,
reads its CPU time from the kernel and its peak RSS from the child itself
(see ``PROGRAM``).  After every repetition
the artifacts are checked (see ``checks.py``), and their SHA-256 digests
must equal those of the first repetition.  The first repetition warms
the caches and is not timed; the timed ones continue until ``--seconds``
have passed (at least ``MIN_REPS``).  ``setup_s`` comes from one start-up
probe (interpreter plus ``import skelfill.cli``) before each repetition.

The speed a shared host gives the benchmark drifts by a factor of up to
two within minutes, and CPU time drifts with wall time, so times of runs
minutes apart disagree by more than any useful bound.  After every
repetition the benchmark therefore times one pass of ``calibrate()`` (see
``calibration.py``), reference work that never changes.  The times
``pipeline_s``, ``cpu_s`` and ``setup_s`` are reported in reference
seconds: the run's mean time scaled by ``CAL_REF_S`` over the run's mean
calibration pass, i.e. the time the run would take on a host where that
pass takes ``CAL_REF_S``.  A change to the program moves them by the same
factor as the raw times; the raw medians are printed beside them.  The
other end-to-end metrics are medians over the timed repetitions.

With ``--trace 1`` the repetitions alternate between untraced children and
children run under ``tracer.py``, which wraps the public calls of every
layer from outside the package.  The per-layer metrics are medians over the
traced repetitions, the spans are kept under ``.perfbench/spans/``, and
``trace.overhead_s`` is the traced minus the untraced median run time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one pipeline stage or one output check; ``ok_frac`` is the share that
succeeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from calibration import calibrate
from captures import write_captures
from tracer import LAYERS, WRAPS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_REPS = 5          # per run, whatever --seconds says
MIN_TRACED_REPS = 3   # traced repetitions in a --trace 1 run
STOP_AFTER_S = 100.0  # start no repetition after this, to end within 180 s
CHILD_LIMIT_S = 60.0  # a repetition that runs longer is killed and fails
SPOT_SAMPLES = 200    # missing joint instances recomputed by brute force per repetition
CAL_REF_S = 0.4       # calibrate() seconds on a quiet 2-core VM: the unit of the reported times

# The child reports its own peak RSS (VmHWM of its address space).  The
# kernel's ru_maxrss of a child also counts the RSS of the parent that
# started it, so it would report the benchmark's memory, not the program's.
PROGRAM = """\
import os, sys
from skelfill.cli import main
try:
    code = main()
finally:
    with open(os.environ["PERFBENCH_PEAK"], "w") as out, open("/proc/self/status") as status:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
SETUP_PROBE = "import skelfill.cli"


@dataclass
class Workload:
    """One set of pipeline flags.  ``captures`` is (classes, per class,
    source frames) for workloads that ingest generated captures."""

    args: list[str]
    neighbors: int
    ext: str = "skl1"
    captures: tuple[int, int, int] | None = None
    config: list[str] = field(default_factory=list)


# The ROADMAP default is 1000 train + 200 test samples; one repetition of it
# takes about 20 s on a 2-core host, too long to take a median of several in
# one run.  The synthetic workloads are scaled to about a seventh of it with
# the cluster size (train samples per cluster) kept near its 17.
WORKLOADS = {
    # Most time in the per-instance fill loop of imputation (rate 0.2, many
    # small clusters), then the occlusion-record CSV.
    "synth-default": Workload(
        args=["--classes", "10", "--per-class", "15", "--test-per-class", "3",
              "--clusters", "9", "--rate", "0.2", "--neighbors", "5", "--threads", "1"],
        neighbors=5,
    ),
    # Two-body captures through ingest, targeted occlusion and the CSV
    # dataset codec, which dominates; imputation is a few per cent.
    "capture-csv": Workload(
        args=["--format", "csv", "--clusters", "4", "--target-frames", "20"],
        neighbors=5,
        ext="csv",
        captures=(4, 10, 60),
        config=["occlusion.mode = joint_targeted", "occlusion.joints = 7,11,21,23",
                "occlusion.frame_fraction = 0.3"],
    ),
    # One cluster holding every sample (K=1) and few holes: over 5x the
    # distance pairs and under a third of the missing coordinates of
    # synth-default.  Its one cluster is one task, so of the two threads one
    # idles; that imbalance is what a split of a cluster's work would fix.
    # With K>1 over ten classes the cluster sizes, and so the work, swing by
    # a quarter from seed to seed.
    "coarse-sparse": Workload(
        args=["--classes", "10", "--per-class", "18", "--test-per-class", "4",
              "--clusters", "1", "--rate", "0.05", "--neighbors", "10", "--threads", "2"],
        neighbors=10,
    ),
}

# (name, unit, better)
END_TO_END = [
    ("pipeline_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("workdir_mb", "MiB", "lower"),
    ("mpjpe_imputed", "data-units", "lower"),
    ("coverage", "fraction", "higher"),
    ("ok_frac", "fraction", "higher"),
]

TIMES = ("pipeline_s", "cpu_s", "setup_s")  # reported in reference seconds

_TIMES = sorted({metric for *_, metric, _ in WRAPS if metric})
_COUNTS = [
    ("synth.samples", "count", "lower"),
    ("data.parse_bytes", "B", "lower"),
    ("formats.dataset_bytes_read", "B", "lower"),
    ("formats.dataset_bytes_written", "B", "lower"),
    ("formats.sha256_bytes", "B", "lower"),
    ("occlusion.hidden_instances", "count-computed", "lower"),
    ("occlusion.record_bytes", "B", "lower"),
    ("embedding.rows", "count", "lower"),
    ("clustering.iterations", "count-computed", "lower"),
    ("imputation.cpu_s", "s", "lower"),
    ("imputation.busy_frac", "fraction", "higher"),
    ("imputation.missing_coords", "count", "lower"),
    ("imputation.imputed_coords", "count", "higher"),
    ("imputation.unimputable_coords", "count", "lower"),
    ("imputation.fill_ratio", "fraction", "higher"),
    ("imputation.coords_per_s", "1/s", "higher"),
    ("imputation.pair_distances", "pairs-computed", "lower"),
    ("imputation.pair_bytes", "B-computed", "lower"),
    ("imputation.max_cluster", "count", "lower"),
]
PER_LAYER = (
    [(name, "s", "lower") for name in _TIMES]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + _COUNTS
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower")]
)


@dataclass
class Child:
    wall: float
    cpu: float
    code: int


def run_child(cmd: list[str], env: dict, log: Path) -> Child:
    """Run one child to exit; wall time from launch to reaping, CPU time
    from the kernel's accounting of that child alone."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, proc.returncode)


def _peak_mib(path: Path) -> float:
    """Peak RSS from the ``VmHWM:  <n> kB`` line a ``PROGRAM`` child wrote."""
    return int(path.read_text().split()[1]) / 1024.0


def reference_seconds(times: list[float], calibration: list[float]) -> float:
    """The mean of ``times`` in reference seconds: scaled by ``CAL_REF_S``
    over the mean calibration pass of the same run.  Means, not medians,
    because both averages must cover the same stretches of host contention,
    which a median of short passes skips."""
    return statistics.fmean(times) * CAL_REF_S / statistics.fmean(calibration)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time, call times, counts and errors of one traced run."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    by_id = {span["id"]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    threads = 1
    for span in spans:
        duration = span["end"] - span["start"]
        layer = span["layer"]
        out[f"{layer}.self_s"] += duration - _union_length(children.get(span["id"], []))
        out[f"{layer}.errors"] += span["error"]
        parent = by_id.get(span["parent"])
        nested = parent is not None and parent["layer"] == layer and parent["metric"]
        if span["metric"] and not nested:
            out[span["metric"]] += duration
        if span["name"] == "imputation.impute_dataset":
            out["imputation.cpu_s"] += span["cpu"]
        for key, value in span.get("counts", {}).items():
            if key == "imputation.threads":
                threads = value
            else:
                out[key] += value
    wall = out["imputation.impute_dataset.s"]
    if wall > 0:
        out["imputation.busy_frac"] = out["imputation.cpu_s"] / (wall * threads)
        out["imputation.coords_per_s"] = out["imputation.imputed_coords"] / wall
    if out["imputation.missing_coords"]:
        out["imputation.fill_ratio"] = (
            out["imputation.imputed_coords"] / out["imputation.missing_coords"]
        )
    return out


def _dir_mib(path: Path) -> float:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) / (1 << 20)


def prepare(workload: Workload, seed: int, scratch: Path) -> list[str]:
    """Generate the workload's inputs under ``scratch``; return the
    pipeline arguments."""
    args = list(workload.args)
    if workload.captures is not None:
        classes, per_class, frames = workload.captures
        write_captures(scratch / "captures", seed, classes, per_class, frames)
        args += ["--input", str(scratch / "captures")]
    if workload.config:
        cfg = scratch / "workload.cfg"
        cfg.write_text("\n".join(workload.config) + "\n")
        args += ["--config", str(cfg)]
    return args + ["--seed", str(seed)]


def bench(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    workload = WORKLOADS[name]
    pipeline_args = prepare(workload, seed, scratch)
    work = scratch / "work"
    peak_file = scratch / "peak.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_PEAK=str(peak_file))
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    for old in spans_dir.glob(f"{name}-seed{seed}-rep*.jsonl"):
        old.unlink()

    samples: dict[str, list[float]] = {name: [] for name, _, _ in END_TO_END[:-1]}  # not ok_frac
    calibration: list[float] = []
    if not trace:
        calibrate()  # the first pass in a process pays for page faults and caches
    traced_walls: list[float] = []
    traced: list[dict[str, float]] = []
    reference: dict[str, str] | None = None
    attempted = failed = 0
    start = time.perf_counter()
    for rep in itertools.count():  # rep 0 warms caches: checked and digested, not timed
        elapsed = time.perf_counter() - start
        enough = rep - 1 >= MIN_REPS and (not trace or len(traced) >= MIN_TRACED_REPS)
        if (enough and elapsed >= seconds) or (rep >= 3 and elapsed >= STOP_AFTER_S):
            break
        warmup = rep == 0
        traced_rep = trace and not warmup and rep % 2 == 0
        if not trace and not warmup:
            probe = run_child([sys.executable, "-c", SETUP_PROBE], env, scratch / "probe.log")
            if probe.code != 0:
                raise SystemExit(f"perfbench: importing skelfill failed:\n"
                                 f"{(scratch / 'probe.log').read_text()}")
            samples["setup_s"].append(probe.wall)
        shutil.rmtree(work, ignore_errors=True)
        spans_file = spans_dir / f"{name}-seed{seed}-rep{rep}.jsonl"
        if traced_rep:
            cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spans_file),
                   f"{name}-seed{seed}-rep{rep}"]
        else:
            cmd = [sys.executable, "-c", PROGRAM]
        peak_file.unlink(missing_ok=True)
        child = run_child(cmd + ["pipeline", "--workdir", str(work), "--json"] + pipeline_args,
                          env, scratch / "pipeline.log")
        if not trace:  # the pass after the warm-up opens the first timed repetition
            calibration.append(calibrate())
        print(f"rep {rep}: {'warm-up' if warmup else 'traced' if traced_rep else 'untraced'} "
              f"pipeline {child.wall:.3f} s wall, {child.cpu:.3f} s cpu, exit {child.code}"
              + (f"; calibration {calibration[-1]:.3f} s after" if not trace else ""))

        stages_ok = len(list(work.glob("manifest_*.json"))) if work.exists() else 0
        attempted += stages_ok + (child.code != 0)
        failed += child.code != 0
        if child.code == 0:
            results = checks.run_checks(work, workload.ext, workload.neighbors, seed, SPOT_SAMPLES)
            current = checks.digests(work)
            if reference is None:
                reference = current
            else:
                results["digest"] = checks.check_digests(reference, current)
        else:
            results = {check: ["pipeline failed"] for check in checks.CHECKS}
            print((scratch / "pipeline.log").read_text()[-2000:], file=sys.stderr)
        for check, problems in results.items():
            attempted += 1
            if problems:
                failed += 1
                print(f"perfbench: rep {rep} check {check} failed: {problems[:3]}",
                      file=sys.stderr)
        if child.code != 0 or warmup:
            continue
        if traced_rep:
            traced_walls.append(child.wall)
            spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
            traced.append(layer_metrics(spans))
            continue
        samples["pipeline_s"].append(child.wall)
        samples["cpu_s"].append(child.cpu)
        samples["peak_rss_mb"].append(_peak_mib(peak_file))
        samples["workdir_mb"].append(_dir_mib(work))
        report = json.loads((work / "eval_report.json").read_text())
        samples["mpjpe_imputed"].append(report["mpjpe_imputed"])
        samples["coverage"].append(report["coverage"])
    shutil.rmtree(work, ignore_errors=True)

    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    counts: dict[str, int] = {}
    if trace:
        for metric, _, _ in PER_LAYER[:-1]:  # all but trace.overhead_s
            metrics[metric] = statistics.median(t[metric] for t in traced) if traced else 0.0
            counts[metric] = len(traced)
        overhead = (statistics.median(traced_walls) - statistics.median(samples["pipeline_s"])
                    if traced_walls and samples["pipeline_s"] else 0.0)
        metrics["trace.overhead_s"] = overhead
        counts["trace.overhead_s"] = len(traced_walls)
    else:
        for metric, values in samples.items():
            if not values:  # every repetition failed; the result says so
                metrics[metric] = raw[metric] = 0.0
            elif metric in TIMES:
                metrics[metric] = reference_seconds(values, calibration)
                raw[metric] = statistics.median(values)
            else:
                metrics[metric] = statistics.median(values)
            counts[metric] = len(values)
        raw["calibration_s"] = statistics.fmean(calibration)
        counts["calibration_s"] = len(calibration)
        metrics["ok_frac"] = (attempted - failed) / attempted if attempted else 0.0
        counts["ok_frac"] = attempted
    return {"metrics": metrics, "raw": raw, "counts": counts, "attempted": attempted,
            "failed": failed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "skelfill" / "cli.py").is_file():
        print(f"perfbench: no skelfill sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    table = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['failed']} of {result['attempted']} operations failed")
    for name, unit, better in table:
        note = " (computed)" if unit.endswith("-computed") else ""
        print(f"  {name:34s} {result['metrics'][name]:>16.6g} {unit:14s} "
              f"{better} is better, n={result['counts'][name]}{note}")
    if result["raw"]:
        print(f"  unscaled medians: "
              + ", ".join(f"{name} {result['raw'][name]:.4f} s" for name in TIMES)
              + f"; mean calibration pass {result['raw']['calibration_s']:.4f} s over "
              f"{result['counts']['calibration_s']}, reference {CAL_REF_S} s")
    units = {name: unit for name, unit, _ in table}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": units[name]}
                    for name, _, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
