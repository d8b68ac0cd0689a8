"""Output checks for one pipeline workdir, independent of ``skelfill``.

The artifact readers here re-implement the documented SKL1 and CSV layouts
with the standard library and numpy, so a codec defect in the program
cannot hide itself from the checks.  Every check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Split:
    ids: list[str]
    data: list[np.ndarray]  # each [3, T, V, M] float32


def read_skl1(path: Path) -> Split:
    raw = path.read_bytes()
    if raw[:4] != b"SKL1":
        raise ValueError(f"{path.name}: not an SKL1 file")
    n, c, t, v, m = struct.unpack_from("<5I", raw, 4)
    pos, slab = 24, c * t * v * m * 4
    ids, data = [], []
    for _ in range(n):
        (length,) = struct.unpack_from("<I", raw, pos)
        ids.append(raw[pos + 4: pos + 4 + length].decode("utf-8"))
        pos += 4 + length + 4  # id, then the i32 label
        data.append(np.frombuffer(raw, dtype="<f4", count=c * t * v * m, offset=pos)
                    .reshape(c, t, v, m))
        pos += slab
    if pos != len(raw):
        raise ValueError(f"{path.name}: {len(raw) - pos} trailing bytes")
    return Split(ids, data)


def read_dataset_csv(path: Path) -> Split:
    rows: dict[str, list[list[str]]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            rows.setdefault(row[0], []).append(row)
    ids, data = [], []
    for sid, entries in rows.items():
        idx = np.array([[int(r[2]), int(r[3]), int(r[4])] for r in entries])
        values = np.array([[float(r[5]), float(r[6]), float(r[7])] for r in entries])
        t_n, v_n, m_n = idx.max(axis=0) + 1
        arr = np.full((3, t_n, v_n, m_n), np.nan, dtype=np.float32)
        arr[:, idx[:, 0], idx[:, 1], idx[:, 2]] = values.T
        ids.append(sid)
        data.append(arr)
    return Split(ids, data)


def read_split(path: Path) -> Split:
    with open(path, "rb") as handle:
        binary = handle.read(4) == b"SKL1"
    return read_skl1(path) if binary else read_dataset_csv(path)


def read_labels(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return [r[0] for r in rows], np.array([int(r[1]) for r in rows], dtype=np.int64)


@dataclass
class Workdir:
    """The artifacts of one finished pipeline run."""

    occluded: dict[str, Split]
    imputed: dict[str, Split]
    labels: dict[str, np.ndarray]
    impute_report: dict
    eval_report: dict

    @classmethod
    def load(cls, work: Path, ext: str) -> "Workdir":
        sides = [s for s in ("train", "test") if (work / f"{s}_occluded.{ext}").exists()]
        out = cls(
            occluded={s: read_split(work / f"{s}_occluded.{ext}") for s in sides},
            imputed={s: read_split(work / f"{s}_imputed.{ext}") for s in sides},
            labels={},
            impute_report=json.loads((work / "imputation_report.json").read_text()),
            eval_report=json.loads((work / "eval_report.json").read_text()),
        )
        for side in sides:
            ids, out.labels[side] = read_labels(work / f"labels_{side}.csv")
            if not out.occluded[side].ids == out.imputed[side].ids == ids:
                raise ValueError(f"{side}: occluded, imputed and label sample ids disagree")
        return out


def check_present_unchanged(w: Workdir) -> list[str]:
    """Every coordinate present in ``*_occluded`` is bit-identical in ``*_imputed``."""
    bad = []
    for side, occ in w.occluded.items():
        for sid, before, after in zip(occ.ids, occ.data, w.imputed[side].data):
            keep = np.isfinite(before)
            if not np.array_equal(before.view(np.uint32)[keep], after.view(np.uint32)[keep]):
                bad.append(f"{side}/{sid}: a present coordinate changed")
    return bad


def check_holes_accounted(w: Workdir) -> list[str]:
    """Every hole is filled with a finite value or counted as unimputable."""
    bad = []
    for side, occ in w.occluded.items():
        counts = w.impute_report[side]
        for sid, before, after in zip(occ.ids, occ.data, w.imputed[side].data):
            holes = ~np.isfinite(before)
            left = int((holes & ~np.isfinite(after)).sum())
            entry = counts.get(sid, {"missing": -1, "imputed": -1, "unimputable": -1})
            if int(holes.sum()) != entry["missing"] or left != entry["unimputable"] \
                    or entry["imputed"] + entry["unimputable"] != entry["missing"]:
                bad.append(f"{side}/{sid}: {int(holes.sum())} holes, {left} left, report {entry}")
    return bad


def check_report_totals(w: Workdir) -> list[str]:
    """``imputation_report.json`` totals agree with ``eval_report.json``."""
    totals, ev = w.impute_report["totals"], w.eval_report
    if totals["imputed"] == 3 * ev["imputed_instances"] \
            and totals["unimputable"] == 3 * ev["unimputable_instances"]:
        return []
    return [f"imputation totals {totals} disagree with eval instances "
            f"{ev['imputed_instances']} / {ev['unimputable_instances']}"]


def check_beats_random(w: Workdir) -> list[str]:
    ev = w.eval_report
    if ev["mpjpe_imputed"] < ev["mpjpe_random"]:
        return []
    return [f"mpjpe_imputed {ev['mpjpe_imputed']} is not below mpjpe_random {ev['mpjpe_random']}"]


def _scored_donors(target: np.ndarray, donors: list[tuple[int, np.ndarray]]):
    """(distance, index, donor) for every donor that overlaps the target,
    nearest first, ties toward the lower index.  The distance is the
    overlap-rescaled Euclidean distance of the module docs, recomputed here
    from first principles."""
    flat = target.astype(np.float64).ravel()
    have = np.isfinite(flat)
    scored = []
    for index, donor in donors:
        other = donor.astype(np.float64).ravel()
        both = have & np.isfinite(other)
        overlap = int(both.sum())
        if overlap:
            diff = flat[both] - other[both]
            scored.append((math.sqrt(flat.size / overlap * float(diff @ diff)), index, donor))
    scored.sort(key=lambda item: (item[0], item[1]))
    return scored


def _brute_fill(scored, pos: tuple, k: int):
    """Inverse-distance mean over the k nearest donors holding ``pos``, or
    the mean of the zero-distance ones; None when no donor holds it."""
    chosen = [(dist, donor) for dist, _, donor in scored if np.isfinite(donor[(0, *pos)])][:k]
    if not chosen:
        return None
    out = []
    for c in range(3):
        values = [float(donor[(c, *pos)]) for _, donor in chosen]
        zero = [val for (dist, _), val in zip(chosen, values) if dist == 0.0]
        if zero:
            out.append(sum(zero) / len(zero))
        else:
            weights = [1.0 / dist for dist, _ in chosen]
            out.append(sum(wt * val for wt, val in zip(weights, values)) / sum(weights))
    return np.array(out)


def check_donor_spot(w: Workdir, k: int, seed: int, samples: int) -> list[str]:
    """Recompute ``samples`` seeded missing joint instances by brute force
    and compare them with the imputed artifact."""
    holes = []
    for side, occ in w.occluded.items():
        for i, arr in enumerate(occ.data):
            for t, v, m in np.argwhere(~np.isfinite(arr[0])):
                holes.append((side, i, (int(t), int(v), int(m))))
    if not holes:
        return []
    rng = np.random.default_rng([seed, 4099])
    picks = rng.choice(len(holes), size=min(samples, len(holes)), replace=False)
    train, train_labels = w.occluded["train"], w.labels["train"]
    scored_by_target = {}
    bad = []
    for pick in sorted(picks.tolist()):
        side, i, pos = holes[pick]
        if (side, i) not in scored_by_target:
            label = w.labels[side][i]
            donors = [(j, train.data[j]) for j in np.flatnonzero(train_labels == label)
                      if not (side == "train" and j == i)]
            scored_by_target[side, i] = _scored_donors(w.occluded[side].data[i], donors)
        want = _brute_fill(scored_by_target[side, i], pos, k)
        got = w.imputed[side].data[i][(slice(None), *pos)].astype(np.float64)
        if want is None:
            ok = bool(np.isnan(got).all())
        else:
            ok = bool(np.allclose(got, want.astype(np.float32), rtol=1e-6, atol=1e-7))
        if not ok:
            bad.append(f"{side}/{w.occluded[side].ids[i]} at (t,v,m)={pos}: imputed "
                       f"{got.tolist()}, brute force {None if want is None else want.tolist()}")
    return bad


def digests(work: Path) -> dict[str, str]:
    """SHA-256 of every file in the workdir, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.iterdir()) if p.is_file()}


def check_digests(reference: dict[str, str], current: dict[str, str]) -> list[str]:
    if reference == current:
        return []
    names = sorted(set(reference) | set(current))
    return [f"{name}: digest differs from the first repetition"
            for name in names if reference.get(name) != current.get(name)]


def run_checks(work: Path, ext: str, k: int, seed: int, spot: int) -> dict[str, list[str]]:
    """Every per-repetition output check, by name."""
    try:
        w = Workdir.load(work, ext)
    except (OSError, ValueError, KeyError, IndexError, struct.error) as exc:
        return {name: [f"cannot read artifacts: {exc}"] for name in CHECKS}
    return {
        "present-unchanged": check_present_unchanged(w),
        "holes-accounted": check_holes_accounted(w),
        "report-totals": check_report_totals(w),
        "beats-random": check_beats_random(w),
        "donor-spot-check": check_donor_spot(w, k, seed, spot),
    }


CHECKS = ["present-unchanged", "holes-accounted", "report-totals", "beats-random",
          "donor-spot-check"]
