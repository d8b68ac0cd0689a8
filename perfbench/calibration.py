"""A fixed pass of reference work that measures the speed of the host.

The hosts the benchmark runs on share their cores with other machines, and
the speed they give a process drifts by up to a factor of two within
minutes; CPU time drifts with wall time, so neither can tell a slow program
from a busy host.  ``calibrate()`` times work that never changes, of the
four kinds the pipeline spends its time on, so its time follows only the
host:

* floats formatted to text and parsed back, as in the CSV codecs;
* passes over arrays larger than the caches, as in the dataset codecs and
  the embedding;
* masked nearest-neighbour searches and weighted means over small arrays,
  as in the imputation loop;
* a fresh interpreter that imports numpy and the standard modules the
  program uses, as every pipeline child and set-up probe does.

Which of these the host slows most depends on what else it runs, so a mix
of the four tracks the pipeline better than any one of them.  It shares
no code with ``skelfill``.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

import numpy as np

_TEXT_PASSES = 6
_ARRAY_PASSES = 8
_SEARCHES = 200
# -B: the reference child must not write bytecode caches outside the checkout
_START_UP = [sys.executable, "-B", "-c", "import csv, hashlib, json, numpy"]


def _text(passes: int) -> float:
    rows = np.random.default_rng(0).standard_normal((100, 75))
    total = 0.0
    for _ in range(passes):
        text = [",".join(repr(float(x)) for x in row) for row in rows]
        parsed = np.array([[float(x) for x in line.split(",")] for line in text])
        total += float(np.abs(rows - parsed).sum())
    return total


def _arrays(passes: int) -> float:
    values = np.random.default_rng(1).standard_normal(2_000_000)
    total = 0.0
    for _ in range(passes):
        total += float(np.sqrt(np.abs(values * 1.0001 + 0.5)).sum())
    return total


def _searches(count: int, k: int = 10) -> float:
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((400, 150)).astype(np.float32)
    rows[rng.random(rows.shape) < 0.2] = np.nan
    present = ~np.isnan(rows)
    total = 0.0
    for i in range(count):
        query = rows[i % len(rows)]
        both = present[i % len(rows)][None, :] & present
        diff = np.where(both, rows - query[None, :], 0.0)
        overlap = np.maximum(both.sum(axis=1), 1)
        dist = np.sqrt((diff * diff).sum(axis=1) * rows.shape[1] / overlap)
        nearest = np.argsort(dist, kind="stable")[1:k + 1]
        weights = 1.0 / np.maximum(dist[nearest], 1e-9)
        for col in range(0, rows.shape[1], 5):
            values = rows[nearest, col]
            ok = present[nearest, col]
            if ok.any():
                total += float((values[ok] * weights[ok]).sum() / weights[ok].sum())
    return total


def calibrate() -> float:
    """Seconds one pass of the reference work takes."""
    gc.collect()  # what the caller left behind must not be collected inside the timing
    gc.disable()
    try:
        start = time.perf_counter()
        total = _text(_TEXT_PASSES) + _arrays(_ARRAY_PASSES) + _searches(_SEARCHES)
        subprocess.run(_START_UP, check=True)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if not np.isfinite(total):
        raise RuntimeError("calibration produced a non-finite result")
    return elapsed
