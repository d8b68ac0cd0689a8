"""Run ``skelfill`` with a span around every public call into each layer.

Usage::

    python3 perfbench/tracer.py SPANS_FILE RUN_ID <skelfill arguments...>

The wrappers are installed from outside the package: each function listed
in ``WRAPS`` is replaced, in its own module and in every ``skelfill``
module that imported it by name, by a wrapper that records one span
(name, layer, start, end, parent span, run id, CPU seconds, whether it
raised) and the work counts taken from its arguments and result.  Spans are
kept in memory and written as JSON lines to ``SPANS_FILE`` when the
program exits.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time


def _synth_counts(bound, result):
    return {"synth.samples": len(result)}


def _parse_counts(bound, result):
    text = bound["text"]
    return {"data.parse_bytes": len(text) if isinstance(text, str) else 0}


def _read_counts(bound, result):
    return {"formats.dataset_bytes_read": os.path.getsize(bound["path"])}


def _write_counts(bound, result):
    return {"formats.dataset_bytes_written": os.path.getsize(bound["path"])}


def _sha_counts(bound, result):
    return {"formats.sha256_bytes": os.path.getsize(bound["path"])}


def _occlude_counts(bound, result):
    return {"occlusion.hidden_instances": result[1].total_instances()}


def _record_counts(bound, result):
    return {"occlusion.record_bytes": os.path.getsize(bound["path"])}


def _embed_counts(bound, result):
    return {"embedding.rows": int(result.values.shape[0])}


def _kmeans_counts(bound, result):
    return {"clustering.iterations": int(result[0].iterations_run)}


def _has_holes(dataset) -> list[bool]:
    return [bool(mask.frame_mask.any()) for mask in dataset.masks]


def _impute_counts(bound, result):
    """Report totals, plus the target x member distance pairs the engine
    computes: every sample with a hole is compared with every train member
    of its cluster (its own cluster for train, the predicted one for test).
    ``pair_bytes`` counts the float64 member rows those pairs read."""
    import numpy as np

    train, train_labels = bound["train"], bound["train_labels"]
    test, test_labels = bound.get("test"), bound.get("test_labels")
    labels, sizes = np.unique(train_labels.labels, return_counts=True)
    size_of = dict(zip(labels.tolist(), sizes.tolist()))
    pairs = sum(
        size_of[int(label)]
        for label, holes in zip(train_labels.labels, _has_holes(train)) if holes
    )
    if test is not None:
        pairs += sum(
            size_of.get(int(label), 0)
            for label, holes in zip(test_labels.labels, _has_holes(test)) if holes
        )
    totals = result[2].totals()
    length = int(train.samples[0].data.size)
    return {
        "imputation.missing_coords": totals.missing,
        "imputation.imputed_coords": totals.imputed,
        "imputation.unimputable_coords": totals.unimputable,
        "imputation.pair_distances": int(pairs),
        "imputation.pair_bytes": int(pairs) * length * 8,
        "imputation.max_cluster": int(sizes.max()),
        "imputation.threads": int(bound.get("threads", 1)),
    }


# (layer, attribute, time metric, counts): one row per wrapped call.  The
# layers are the modules of ``skelfill``.  A call made inside another timed
# call of the same layer is left out of its time metric, so no time is
# counted twice.
WRAPS = [
    ("pipeline", "run_pipeline", None, None),
    ("pipeline", "run_synth", "pipeline.synth.s", None),
    ("pipeline", "run_ingest", "pipeline.ingest.s", None),
    ("pipeline", "run_occlude", "pipeline.occlude.s", None),
    ("pipeline", "run_embed", "pipeline.embed.s", None),
    ("pipeline", "run_cluster", "pipeline.cluster.s", None),
    ("pipeline", "run_impute", "pipeline.impute.s", None),
    ("pipeline", "run_eval", "pipeline.eval.s", None),
    ("synth", "make_corpus", "synth.make_corpus.s", _synth_counts),
    ("data", "parse_ntu_skeleton", "data.parse_ntu_skeleton.s", _parse_counts),
    ("data", "to_canonical", "data.to_canonical.s", None),
    ("data", "preprocess_relative", "data.preprocess_relative.s", None),
    ("formats", "read_dataset", "formats.read_dataset.s", _read_counts),
    ("formats", "write_dataset", "formats.write_dataset.s", _write_counts),
    ("formats", "sha256_file", "formats.sha256_file.s", _sha_counts),
    ("formats", "read_labels_csv", "formats.labels.s", None),
    ("formats", "write_labels_csv", "formats.labels.s", None),
    ("occlusion", "apply_spec", "occlusion.apply_spec.s", _occlude_counts),
    ("occlusion", "OcclusionRecord.save_csv", "occlusion.record_save.s", _record_counts),
    ("occlusion", "OcclusionRecord.load_csv", "occlusion.record_load.s", None),
    ("embedding", "embed_baseline", "embedding.embed_baseline.s", _embed_counts),
    ("embedding", "save_embeddings", "embedding.codec.s", None),
    ("embedding", "load_embeddings", "embedding.codec.s", None),
    ("clustering", "kmeans_fit", "clustering.kmeans_fit.s", _kmeans_counts),
    ("clustering", "kmeans_predict", "clustering.kmeans_predict.s", None),
    ("clustering", "save_model", "clustering.codec.s", None),
    ("clustering", "load_model", "clustering.codec.s", None),
    ("imputation", "impute_dataset", "imputation.impute_dataset.s", _impute_counts),
    ("evaluation", "mpjpe", "evaluation.mpjpe.s", None),
    ("evaluation", "impute_random_baseline", "evaluation.random_baseline.s", None),
    ("evaluation", "per_class_error", "evaluation.per_class.s", None),
]

LAYERS = [
    "pipeline", "synth", "data", "formats", "occlusion",
    "embedding", "clustering", "imputation", "evaluation",
]


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, layer: str, name: str, metric: str | None, fn, counts):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            raised = True
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                cpu = time.process_time() - cpu0
                stack.pop()
                span = {
                    "id": span_id, "parent": parent, "run": self.run_id,
                    "name": name, "layer": layer, "metric": metric,
                    "start": start, "end": end, "cpu": cpu, "error": raised,
                }
                if counts is not None and not raised:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = counts(bound.arguments, result)
                with self._lock:
                    self.spans.append(span)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Replace every function in ``WRAPS`` by its traced wrapper."""
    cli = importlib.import_module("skelfill.cli")
    modules = [m for n, m in sys.modules.items() if n == "skelfill" or n.startswith("skelfill.")]
    for layer, attr, metric, counts in WRAPS:
        owner = importlib.import_module(f"skelfill.{layer}")
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, leaf)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        wrapped = tracer.wrap(layer, f"{layer}.{attr}", metric, original, counts)
        setattr(owner, leaf, classmethod(wrapped) if is_classmethod else wrapped)
        if outer:
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
        for key, value in cli._STAGES.items():
            if value is original:
                cli._STAGES[key] = wrapped


def main(argv: list[str]) -> int:
    spans_file, run_id, *program_args = argv
    tracer = Tracer(run_id)
    install(tracer)
    from skelfill.cli import main as skelfill_main

    try:
        return skelfill_main(program_args)
    finally:
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
