"""Independent brute-force reference implementations.

These deliberately re-derive every formula from first principles with plain
loops and exhaustive scans — no calls into the package's vectorised
internals — so the acceptance suite can compare the production code against
them on randomized inputs.
"""

from __future__ import annotations

import math

import numpy as np

from skelfill.data import Dataset
from skelfill.data import RawCapture
from skelfill.errors import MalformedCapture
from skelfill.evaluation import MpjpeStats
from skelfill.graph import SkeletonGraph
from skelfill.imputation import SampleCounts


def masked_distance_ref(a: np.ndarray, b: np.ndarray) -> float | None:
    """Overlap-scaled Euclidean distance; None when nothing overlaps."""
    total = 0.0
    overlap = 0
    for x, y in zip(a.tolist(), b.tolist()):
        if math.isnan(x) or math.isnan(y):
            continue
        overlap += 1
        total += (x - y) ** 2
    if overlap == 0:
        return None
    return math.sqrt(len(a) / overlap * total)


def csm_probabilities_ref(num_joints: int, edges) -> list[float]:
    degree = [0] * num_joints
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    total = sum(degree)
    return [d / total for d in degree]


def frequency_degrees_ref(freq) -> list[int]:
    lo = min(freq)
    hi = max(freq)
    out = []
    for f in freq:
        value = math.floor((f - lo) / (hi - lo + 0.001) * 3 + 1)
        out.append(min(value, 3))
    return out


def impute_value_ref(distances, values) -> float:
    zeros = [v for d, v in zip(distances, values) if d == 0.0]
    if zeros:
        return sum(zeros) / len(zeros)
    num = sum(v / d for d, v in zip(distances, values))
    den = sum(1.0 / d for d in distances)
    return num / den


def naive_impute(
    train_data: list[np.ndarray],
    train_labels: list[int],
    test_data: list[np.ndarray] | None = None,
    test_labels: list[int] | None = None,
    k: int = 5,
):
    """Exhaustive within-cluster nearest-neighbour imputation.

    ``*_data`` are [C, T, V, M] float arrays with NaN holes.  Returns
    (imputed train list, imputed test list, donor map) where the donor map
    is keyed by (side, sample_index, t, v, m) with side "train"/"test" and
    values are tuples of train sample indices in neighbour order.
    """
    train_flat = [d.astype(np.float64).ravel() for d in train_data]
    clusters: dict[int, list[int]] = {}
    for i, label in enumerate(train_labels):
        clusters.setdefault(int(label), []).append(i)

    donor_map: dict[tuple, tuple[int, ...]] = {}

    def impute_one(side, index, data, flat, members):
        c_n, t_n, v_n, m_n = data.shape
        out = data.astype(np.float64).copy()
        # full pairwise distances target -> every member
        dists: dict[int, float | None] = {}
        for j in members:
            if side == "train" and j == index:
                continue
            dists[j] = masked_distance_ref(flat, train_flat[j])
        for t in range(t_n):
            for v in range(v_n):
                for m in range(m_n):
                    if not all(math.isnan(out[c, t, v, m]) for c in range(c_n)):
                        continue
                    pos0 = ((0 * t_n + t) * v_n + v) * m_n + m
                    scored = []
                    for j, dist in dists.items():
                        if dist is None:
                            continue
                        if not np.isfinite(train_flat[j][pos0]):
                            continue
                        scored.append((dist, j))
                    scored.sort()
                    chosen = scored[:k]
                    if not chosen:
                        continue
                    donor_map[(side, index, t, v, m)] = tuple(j for _, j in chosen)
                    for c in range(c_n):
                        pos = ((c * t_n + t) * v_n + v) * m_n + m
                        out[c, t, v, m] = impute_value_ref(
                            [d for d, _ in chosen],
                            [float(train_flat[j][pos]) for _, j in chosen],
                        )
        return out

    imputed_train = []
    for i, data in enumerate(train_data):
        members = clusters[int(train_labels[i])]
        imputed_train.append(impute_one("train", i, data, train_flat[i], members))

    imputed_test = None
    if test_data is not None:
        imputed_test = []
        for i, data in enumerate(test_data):
            members = clusters.get(int(test_labels[i]), [])
            flat = data.astype(np.float64).ravel()
            imputed_test.append(impute_one("test", i, data, flat, members))

    return imputed_train, imputed_test, donor_map


def fill_one_target_ref(seq, rows: np.ndarray, refs: np.ndarray, k: int, trace: dict | None = None):
    """One target's float32 data with every missing joint instance filled
    from the float32 member ``rows`` [n, L] (sample indices ``refs``), and
    its counts: the engine's per-target path before it batched each
    cluster, kept as it was with every member row a candidate.  A row of
    the target itself lacks all of its holes, so it is never a donor."""

    def first_k(usable, k):
        return usable & (np.cumsum(usable, axis=0) <= k)

    def weighted_fill(dist, values, take):
        zero = take & (dist == 0.0)[:, None]
        recip = 1.0 / np.where(dist == 0.0, 1.0, dist)
        weight = np.where(zero.any(axis=0), zero, take * recip[:, None])
        terms = np.where(weight > 0.0, weight * values, -0.0)
        start = np.full((1, values.shape[1]), -0.0)
        num = np.cumsum(np.concatenate([start, terms]), axis=0)[-1]
        den = np.cumsum(np.concatenate([start, weight]), axis=0)[-1]
        return num / den

    def distances_to_members(member_rows, member_present, vector, present):
        vector = np.asarray(vector, dtype=np.float64)
        both = member_present & present[None, :]
        counts = both.sum(axis=1)
        diff = np.where(both, member_rows - vector[None, :], 0.0)
        ignored = (diff * diff).sum(axis=1)
        length = vector.size
        out = np.full(member_rows.shape[0], np.inf)
        valid = counts > 0
        out[valid] = np.sqrt(length / counts[valid] * ignored[valid])
        return out

    member_present = np.isfinite(rows)
    data = seq.data.astype(np.float32)
    flat = data.reshape(-1)
    present = np.isfinite(flat)
    holes = np.flatnonzero(np.isnan(data).all(axis=0))  # channel-0 positions, C order
    keep = np.full(refs.size, holes.size > 0)  # a target with no hole computes no distance
    rows, member_present, refs = rows[keep], member_present[keep], refs[keep]
    dist = distances_to_members(rows, member_present, flat, present)
    order = np.lexsort((refs, dist))
    order = order[np.isfinite(dist[order])]
    dist = dist[order]
    take = first_k(member_present[order[:, None], holes], k)  # [candidate, hole]
    found = take.any(axis=0)
    pos = (holes[found] + np.arange(3)[:, None] * (flat.size // 3)).ravel()  # [channel * hole]
    values = rows[order[:, None], pos].astype(np.float64)
    flat[pos] = weighted_fill(dist, values, np.tile(take[:, found], 3))
    if trace is not None:
        for hole, donors in zip(holes[found], take[:, found].T):
            t, v, m = (int(i) for i in np.unravel_index(hole, data.shape[1:]))
            trace[(seq.sample_id, t, v, m)] = tuple(refs[order[donors]].tolist())
    imputed = 3 * int(found.sum())
    return data, SampleCounts(int((~present).sum()), imputed, 3 * holes.size - imputed)


# the least magnitude that a cast to float32 rounds to infinity
_F32_INF = 2.0**128 - 2.0**103


def parse_ntu_skeleton_ref(text: str) -> RawCapture:
    """Line-by-line capture parser: one ``float()`` per coordinate, every
    check made in line order, so the first fault in the text is reported."""
    lines = text.splitlines()
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(lines):
            raise MalformedCapture(f"unexpected end of stream while reading {what}", line=len(lines) + 1)
        pos += 1
        return lines[pos - 1]

    def take_count(what):
        raw = take(what).strip()
        try:
            value = int(raw)
        except ValueError:
            raise MalformedCapture(f"expected integer {what}, got {raw!r}", line=pos) from None
        if value < 0:
            raise MalformedCapture(f"negative {what}: {value}", line=pos)
        return value

    frame_count = take_count("frame count")
    if frame_count == 0:
        raise MalformedCapture("capture declares zero frames", line=1)
    num_joints = 0
    frame_index, body_ids, coords = [], [], []
    for f_idx in range(frame_count):
        for _ in range(take_count("body count")):
            meta = take("body metadata").split()
            frame_index.append(f_idx)
            body_ids.append(meta[0] if meta else "")
            declared = take_count("joint count")
            if declared == 0:
                raise MalformedCapture("body declares zero joints", line=pos)
            if not num_joints:
                num_joints = declared
            elif declared != num_joints:
                raise MalformedCapture(
                    f"joint count {declared} differs from earlier count {num_joints}", line=pos
                )
            for _ in range(declared):
                fields = take("joint line").split()
                if len(fields) < 3:
                    raise MalformedCapture("joint line has fewer than 3 fields", line=pos)
                try:
                    xyz = [float(field) for field in fields[:3]]
                except ValueError:
                    raise MalformedCapture("non-numeric coordinate in joint line", line=pos) from None
                for value in xyz:
                    if math.isnan(value) or math.isinf(value):
                        raise MalformedCapture("non-finite coordinate in joint line", line=pos)
                for value in xyz:
                    if abs(value) >= _F32_INF:
                        raise MalformedCapture("coordinate beyond the float32 range in joint line",
                                               line=pos)
                coords.append(xyz)
    for index in range(pos, len(lines)):
        if lines[index].strip():
            raise MalformedCapture("trailing content after declared frames", line=index + 1)
    return RawCapture(frame_index=np.array(frame_index, dtype=np.intp), body_ids=body_ids,
                      coords=np.array(coords, dtype=np.float64).reshape(len(body_ids), num_joints, 3),
                      frame_count=frame_count)


def _masked_mean_ref(values: np.ndarray, present: np.ndarray, axis: int) -> np.ndarray:
    count = present.sum(axis=axis)
    total = np.where(present, values, 0.0).sum(axis=axis)
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def embed_one_ref(body: np.ndarray, graph: SkeletonGraph) -> np.ndarray:
    """The baseline embedding row of one sample, one bone at a time.  body
    is [3, T, V] float64 with NaN for missing joint instances."""
    present = np.isfinite(body)  # per channel; channels of one joint agree
    mean = _masked_mean_ref(body, present, axis=1)  # [3, V]
    dev = np.where(present, body - mean[:, None, :], 0.0)
    var = _masked_mean_ref(dev * dev, present, axis=1)
    std = np.sqrt(var)

    if body.shape[1] > 1:
        step = body[:, 1:, :] - body[:, :-1, :]
        step_present = present[:, 1:, :] & present[:, :-1, :]
        speed = _masked_mean_ref(np.where(step_present, np.abs(step), 0.0), step_present, axis=1)
    else:
        speed = np.zeros_like(mean)

    joint_present = present.all(axis=0)  # [T, V]
    bones = np.zeros(len(graph.edges), dtype=np.float64)
    for e_idx, (a, b) in enumerate(graph.edges):
        both = joint_present[:, a] & joint_present[:, b]  # [T]
        if both.any():
            seg = body[:, both, a] - body[:, both, b]  # [3, T_ok]
            bones[e_idx] = np.sqrt((seg * seg).sum(axis=0)).mean()

    return np.concatenate([mean.ravel(), std.ravel(), speed.ravel(), bones])


# A record as a dict: sample id -> ((t, v, m) rows [n, 3] int32, their values
# [n, 3] float32), in (t, v, m) order.
Entries = dict[str, tuple[np.ndarray, np.ndarray]]


def between_ref(clean: Dataset, occluded: Dataset) -> Entries:
    """Per occluded sample, in its order: every joint instance missing there
    (all channels NaN) and present in the clean sample of the same id (no
    channel NaN), with its clean values; one sample at a time."""
    by_id = {seq.sample_id: seq.data for seq in clean.samples}
    entries = {}
    for seq in occluded.samples:
        source = by_id[seq.sample_id]
        idx = np.argwhere(np.isnan(seq.data).all(axis=0) & ~np.isnan(source).any(axis=0))
        entries[seq.sample_id] = (idx.astype(np.int32),
                                  np.ascontiguousarray(source[:, idx[:, 0], idx[:, 1], idx[:, 2]].T))
    return entries


def mpjpe_ref(by_id: dict[str, np.ndarray], entries: Entries) -> MpjpeStats:
    """Summed error of the recovered instances of each recorded sample, its
    data ``by_id[sample id]`` [3, T, V, M], one sample at a time and in the
    record's order; each sample's stats added with ``+``."""
    stats = MpjpeStats()
    for sid, (idx, values) in entries.items():
        got = by_id[sid][:, idx[:, 0], idx[:, 1], idx[:, 2]].T.astype(np.float64)  # [n, 3]
        finite = np.isfinite(got).all(axis=1)
        diff = got[finite] - values[finite].astype(np.float64)
        stats += MpjpeStats(float(np.sqrt((diff * diff).sum(axis=1)).sum()),
                            int(finite.sum()), int((~finite).sum()))
    return stats


def per_class_error_ref(splits: list[Dataset], entries: Entries) -> dict[int, MpjpeStats]:
    """Error per true label of the recorded samples, found by id among the
    samples of every split; a sample id must not recur across the splits."""
    by_id = {seq.sample_id: seq for split in splits for seq in split.samples}
    by_label: dict[int, Entries] = {}
    for sid, entry in entries.items():
        label = by_id[sid].label if sid in by_id else None
        if label is not None:
            by_label.setdefault(int(label), {})[sid] = entry
    data = {sid: seq.data for sid, seq in by_id.items()}
    return {label: mpjpe_ref(data, sub) for label, sub in sorted(by_label.items())}


def random_baseline_ref(dataset: Dataset, seed: int) -> np.ndarray:
    """The random baseline as a fill of the whole split, one sample at a
    time: a copy of ``dataset.data`` in which every NaN scalar holds a
    uniform draw from its channel's [min, max] over the finite values of
    present bodies, (0, 0) for a channel with none.  The sample at row i
    draws from ``default_rng([seed, split, i])``, split 0 for train and 1
    for any other, channel by channel, its NaN scalars in C order."""
    bounds = []
    for c in range(3):
        values = [value for seq in dataset.samples
                  for value in seq.data[c][..., seq.body_present].ravel().tolist() if math.isfinite(value)]
        bounds.append((min(values), max(values)) if values else (0.0, 0.0))
    split = 0 if dataset.split_tag == "train" else 1
    data = dataset.data.copy()
    for index, sample in enumerate(data):
        rng = np.random.default_rng([seed, split, index])
        for c, (lo, hi) in enumerate(bounds):
            holes = np.isnan(sample[c])
            count = int(holes.sum())
            if count:
                sample[c][holes] = rng.uniform(lo, hi, size=count).astype(np.float32)
    return data


def init_plusplus_ref(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding over float64 ``rows``: the first row drawn
    uniformly by ``rng.integers``, each next one by ``rng.choice`` in
    proportion to each row's squared distance to its nearest drawn row, as
    ``((rows - row) ** 2).sum(axis=1)``; when every row sits on a drawn one,
    uniformly among the rows not drawn.  The drawn rows, in order."""
    n = rows.shape[0]
    chosen = [int(rng.integers(n))]
    best = ((rows - rows[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = best.sum()
        if total > 0:
            idx = int(rng.choice(n, p=best / total))
        else:
            remaining = np.ones(n, dtype=bool)
            remaining[chosen] = False
            idx = int(rng.choice(np.flatnonzero(remaining)))
        chosen.append(idx)
        best = np.minimum(best, ((rows - rows[idx]) ** 2).sum(axis=1))
    return rows[chosen].copy()
