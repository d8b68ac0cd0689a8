"""Within-cluster nearest-neighbour imputation of missing joints.

Each sample is viewed as a flat vector of length ``L = 3*T*V*M`` with NaN
holes.  The distance between two samples is a masked Euclidean distance
computed over the coordinates both have, scaled up by how little they
overlap::

    dist(a, b) = sqrt((L / |P|) * sum_{i in P} (a_i - b_i)^2)

where P is the set of positions present in both.  Pairs with no overlap
have no distance and never serve as neighbours.

A missing joint instance of a target sample is filled from the k nearest
cluster members that have that whole joint instance present; all three
channels share the donor set.  The fill is the inverse-distance weighted
mean of the donor values; if any donor sits at distance exactly 0, the fill
is the plain mean of the zero-distance donors.  Donors always contribute
their *original* values, so imputed values never feed later imputations and
the result does not depend on processing order.  Positions with no donors
stay NaN and are tallied as unimputable.

Training samples draw donors from their own cluster; test samples draw
donors exclusively from the training members of their predicted cluster.
A coordinate that is not finite is absent: the pool and the target rows hold
NaN wherever one is, ``inf`` included, so the distance kernel adds
``fmax((a - b)**2, 0)``, which is ``+0.0`` exactly where either row lacks the
position.  A donor's channel that is not finite (an instance every reader
refuses) therefore fills NaN.

Each split's rows are made once, in the calling thread: float32 with NaN
exactly where a value is absent, which is the split's own memory unless it
is not float32 or holds an infinity, and then one copy (``_rows``).  The
fills go to a float32 copy of each split, and nothing writes into the rows.
Each cluster is one task: it builds the cluster's pool once, fills the
cluster's train members, then the test samples predicted into it, and drops
the pool.  A pool is its members' indices into the train rows and one bool
a joint instance: channel 0's presence, the only presence that the holes,
the candidate rule, the shortlist and the fill read.  The distance kernels
gather the rows they need through the indices, and take each scalar's
presence from their NaN: a position two rows share is one whose float64
difference is not NaN.  A test label no train cluster has gets an empty
pool.  Up to ``threads`` workers run the tasks, never more than there are
tasks, and a lone task runs in the calling thread.  A split's holes,
missing counts and infinities are found a block of samples at a time, so
the only masks impute holds of a whole split are its pools' channel-0
masks.  ``d(i, j)`` is ``d(j, i)`` bit for bit (``fl(a - b)**2 == fl(b -
a)**2`` over the same positions in the same sum), so each pair of a pool's
own members is computed once: the first of the two targets to need it
keeps it, keyed by the pair, until the other reads it.

Each rule is stated once.  ``_distances_to_members`` gives a target's
distances and ``_neighbour_order`` puts its candidates in neighbour order:
ascending distance, then ascending ref.  ``_donor_slots`` takes the first k
usable candidates of each hole of a [candidate, hole] matrix as [slot, hole]
arrays, and ``_slot_fill`` adds each hole's weighted terms slot by slot,
from ``-0.0``, forming one slot's float64 terms from the float32 donor
values at a time: the candidate order of the per-target path (kept in
``tests/reference.py``), without the ``-0.0`` terms it added for candidates
a hole does not take, so every value keeps its bits.  The engine calls both
once per block of holes, whose arrays ``FILL_BYTES`` bounds, taking targets
in order and splitting one between blocks where its holes do not fit; each
hole's column is its own, so the split changes no value.  ``find_donors``
and ``impute_value`` call them on one column, so the scalar API computes
exactly what the engine does.

Candidates come from one of two rules, chosen by the pool size.  A pool of
at most 4k rows sends every row usable for some hole of the target to the
exact pass.  A larger pool first runs the bounds pass once per task: matrix
products over column blocks, each gathered into two float64 buffers a side
(its values and its presence) that every block refills, accumulate, for
every target with a hole against every pool row, the sum of ``a**2 + b**2 -
2ab`` over the positions both have, and their count.  With each row's
own sum of squares, which gives the error term, they give a proven lower
and upper bound on the value whose square root is the distance
(``_distance_bounds``).  Every target's shortlist is taken right after the
pass, whose [target, member] arrays then go, and only then does the exact
pass run.  It sees on a shortlist the rows usable for some hole whose lower
bound does not exceed that hole's k-th smallest upper bound, found among
the 4k rows of least upper bound or, for the holes short of k usable rows
there, among all rows (``_shortlist``).  Every row that can be among a
hole's first k donors, ties included, is on it, so the slots on the
shortlist give the donors, weights and summation order of the whole pool.
Nothing derived from the bounds reaches an output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from .clustering import PseudoLabels
from .data import Dataset, sample_blocks
from .errors import EmptyDonorSet, LabelMismatch, NoOverlap


@dataclass
class FlatSample:
    """Flattened view of one sample.

    vector      [L] float64 with NaN holes, C-order flattening of [C, T, V, M]
    present     [L] bool; a position both samples mark present counts only
                where the difference of their values is a number
    sample_ref  index of the sample in its dataset
    """

    vector: np.ndarray
    present: np.ndarray
    sample_ref: int


@dataclass
class DonorSet:
    """Neighbours chosen for one position: (sample_ref, distance) pairs,
    ordered by ascending distance then ascending sample_ref."""

    neighbors: list[tuple[int, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.neighbors)


@dataclass
class SampleCounts:
    missing: int = 0
    imputed: int = 0
    unimputable: int = 0

    def __add__(self, other: SampleCounts) -> SampleCounts:
        return SampleCounts(*(getattr(self, f.name) + getattr(other, f.name)
                              for f in fields(self)))


@dataclass
class ImputationReport:
    """Scalar-coordinate accounting (3 per joint instance) plus the donor
    pool each cluster offered, keyed by the cluster label as text, as JSON
    writes it."""

    train: dict[str, SampleCounts]
    test: dict[str, SampleCounts]
    cluster_sizes: dict[str, int]
    k: int

    def totals(self) -> SampleCounts:
        return sum([*self.train.values(), *self.test.values()], SampleCounts())

    def to_json(self) -> str:
        # each SampleCounts's own field dict: asdict's deep copy of every one cost more
        train, test = ({sid: vars(counts) for sid, counts in side.items()}
                       for side in (self.train, self.test))
        payload = {"train": train, "test": test, "cluster_sizes": self.cluster_sizes, "k": self.k,
                   "totals": vars(self.totals())}
        return json.dumps(payload, sort_keys=True, indent=2)


def masked_distance(a: FlatSample, b: FlatSample) -> float:
    """Overlap-scaled Euclidean distance between two flat samples."""
    if a.vector.shape != b.vector.shape:
        raise ValueError("samples differ in length")
    dist = _distances_to_members(_absent_as_nan(b)[None, :], _absent_as_nan(a))[0]
    if dist == np.inf:
        raise NoOverlap(f"samples {a.sample_ref} and {b.sample_ref} share no present coordinate")
    return float(dist)


def find_donors(
    cluster: Sequence[FlatSample], target: FlatSample, position: int, k: int
) -> DonorSet:
    """The up-to-k nearest cluster members with ``position`` present.

    Candidates with no coordinate overlap with the target are skipped.
    Ties in distance are broken toward the lower sample_ref.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= position < target.vector.size:
        raise ValueError(f"position {position} outside the flat vector")
    if any(member.vector.shape != target.vector.shape for member in cluster):
        raise ValueError("samples differ in length")
    others = [member for member in cluster if member.sample_ref != target.sample_ref]
    shape = (len(others), target.vector.size)
    present = np.array([member.present for member in others], dtype=bool).reshape(shape)
    refs = np.array([member.sample_ref for member in others], dtype=np.int64)
    rows = np.array([_absent_as_nan(member) for member in others], dtype=np.float64).reshape(shape)
    dist = _distances_to_members(rows, _absent_as_nan(target))
    order = _neighbour_order(dist, refs)
    slot, valid = _donor_slots(present[order, position][:, None], k)
    return DonorSet(neighbors=[(int(refs[i]), float(dist[i])) for i in order[slot[valid]]])


def impute_value(donors: DonorSet, donor_values: np.ndarray) -> float:
    """Inverse-distance weighted mean of the donor values (see module doc)."""
    if len(donors) == 0:
        raise EmptyDonorSet("no donors available")
    donor_values = np.asarray(donor_values, dtype=np.float64)
    if donor_values.shape != (len(donors),):
        raise ValueError("donor values do not align with the donor set")
    distances = np.array([dist for _, dist in donors.neighbors], dtype=np.float64)[:, None]
    valid = np.ones(distances.shape, dtype=bool)
    return float(_slot_fill(distances, valid, donor_values[:, None, None])[0, 0])


def _absent_as_nan(sample: FlatSample) -> np.ndarray:
    return np.where(sample.present, sample.vector, np.nan)


def _donor_slots(usable: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The donors of each column of a [candidate, column] matrix whose
    candidates are in neighbour order: its first k usable candidates, as
    [slot, column] candidate indices and whether each slot holds a donor.
    A column's donors fill its first slots, in candidate order."""
    count = np.cumsum(usable, axis=0, dtype=np.min_scalar_type(len(usable)))
    # the candidates before a column's (s+1)-th usable one have a count <= s
    slot = np.array([np.count_nonzero(count <= s, axis=0) for s in range(min(k, len(usable)))],
                    dtype=np.intp).reshape(-1, usable.shape[1])
    valid = slot < len(usable)
    return np.where(valid, slot, 0), valid


def _slot_fill(dist: np.ndarray, valid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The float64 fill [channel, column] of each column from the donors
    ``valid`` marks in its slots, at ``dist`` [slot, column] with ``values``
    [slot, channel, column], each column holding at least one: the mean of
    its donors at distance 0 where it has any, otherwise their
    inverse-distance weighted mean.  Both sums add one slot at a time, in
    candidate order, from -0.0, the exact identity of float addition; each
    slot's terms are formed in float64 as its turn comes."""
    zero = valid & (dist == 0.0)
    recip = 1.0 / np.where(dist == 0.0, 1.0, dist)
    weight = np.where(zero.any(axis=0), zero, valid * recip)
    num, den = np.full(values.shape[1:], -0.0), np.full(dist.shape[1:], -0.0)
    for s in range(len(dist)):
        num += np.where(weight[s] > 0.0, weight[s] * values[s], -0.0)
        den += weight[s]  # +0.0 for a slot that adds no donor, which no sum > 0 notices
    return num / den


def _check_alignment(dataset: Dataset, labels: PseudoLabels, side: str) -> None:
    if labels is None:
        raise LabelMismatch(f"{side} labels are required")
    if list(labels.sample_ids) != dataset.sample_ids:
        raise LabelMismatch(f"{side} labels are not aligned with the {side} dataset")


def _distances_to_members(member_rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Masked distance from one target to every member row; rows with no
    overlap come back as +inf.  The rows and the vector hold NaN exactly
    where a value is absent, so a position both have is one whose difference
    is not NaN.  The arithmetic runs in float64 whatever the dtype of the
    member rows."""
    sq = member_rows - np.asarray(vector, dtype=np.float64)
    counts = sq.shape[1] - np.count_nonzero(np.isnan(sq), axis=1)
    sq *= sq
    np.fmax(sq, 0.0, out=sq)  # NaN, where either lacks the position, becomes +0.0
    ignored = sq.sum(axis=1)
    out = np.full(len(sq), np.inf)
    valid = counts > 0
    out[valid] = np.sqrt(sq.shape[1] / counts[valid] * ignored[valid])
    return out


def _neighbour_order(dist: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """The candidates with a distance, by ascending distance then ascending
    ref."""
    order = np.lexsort((refs, dist))
    return order[np.isfinite(dist[order])]


# A donor pool: the rows [N, L] of the train split (``_rows``), its members'
# channel-0 presence [n, L/3], one bool a joint instance, and their sample
# indices [n] into those rows.  Holes and donors are joint instances at
# channel-0 positions, so the shortlist, the candidate rule and the fill read
# the mask; the distance kernels read presence from the NaN of the rows they
# gather through the indices.
Pool = tuple[np.ndarray, np.ndarray, np.ndarray]

# Column width of one block of the bounds pass.  The products of one block of
# a typical cluster (17 targets by 17 members: 17 * 17 * 512 multiply-adds)
# stay under OpenBLAS's single-thread size (m * n * k <= 65536 * 4), above
# which its thread pool makes such small products several times slower.
# 2048-column blocks slowed the synth-default benchmark workload and raised
# peak RSS on its 180-member coarse-sparse cluster.  Each side's float64
# values and presence of one block, two buffers refilled per block, bound
# the pass's working memory whatever L is: 0.7 MiB for those 180 members,
# beside three [target, member] float64 arrays.  Against 512 columns, 256
# lowered coarse-sparse's `--json` peak from 49.4 to 48.2 MiB (medians of 7
# runs), and the ROADMAP default's at one cluster from 131 to 127 MiB, when
# the pass held four such arrays.  Each block adds passes over the
# [target, member] arrays: the bounds of that 1 000-member pool took 0.47 s,
# not 0.41, and of a 360-member 300-frame cluster 0.30 s of CPU, not 0.28.
BLOCK_COLUMNS = 256

# Bytes of one fill block's [candidate, hole] and [slot, hole] arrays: the
# holes whose donors are chosen and filled together are as many as fit,
# split between blocks where a target's do not.  Traced, a block holds about
# 8 bytes a candidate cell (its intp index; the bool masks beside it come
# and go) and 64 a slot cell (intp indices, float64 weights and terms, the
# float32 donor values of three channels).  On coarse-sparse (k = 10, some
# 15 candidates a hole) that is some 1 400 holes a block.  There 3 MiB,
# about the 4 096 holes of a block before, read a `--json` peak 1.9 MiB
# higher, and 256 KiB one 0.25 MiB higher (medians of 6 runs).
FILL_BYTES = 1 << 20

# Scalars of one gather of a split's rows through a pool's indices, which
# fills the pool's mask or the bounds pass's buffers: gathering a whole
# [member, 256] block at once raised coarse-sparse's `--json` peak 0.35 MiB.
GATHER_SCALARS = 1 << 14


def _rows(dataset: Dataset) -> np.ndarray:
    """The rows [N, L] of ``dataset``, float32 with NaN exactly where a value
    is absent: the split's own, as a view, when they are float32 and hold no
    infinity, found a block of samples at a time; otherwise one copy with NaN
    in place of each infinity.  Nothing writes into them."""
    n, *shape = dataset.data.shape
    rows = dataset.data.reshape(n, math.prod(shape))
    if rows.dtype != np.float32 or any(np.isinf(rows[block]).any() for block in sample_blocks(rows.shape)):
        rows = rows.astype(np.float32)
        for block in sample_blocks(rows.shape):
            part = rows[block]
            part[np.isinf(part)] = np.nan
    return rows


def _pool(rows: np.ndarray, members: np.ndarray) -> Pool:
    """The pool of the rows ``members`` of a split's ``rows`` (``_rows``):
    those rows themselves, not a copy, and beside them only the members'
    channel-0 mask, gathered a few rows at a time."""
    present = np.empty((members.size, rows.shape[1] // 3), dtype=bool)
    for block in sample_blocks(present.shape, GATHER_SCALARS):
        np.isfinite(rows[members[block], : present.shape[1]], out=present[block])
    return rows, present, members


def _groups(labels: np.ndarray) -> dict[int, np.ndarray]:
    labels = np.asarray(labels)
    return {label: np.flatnonzero(labels == label) for label in sorted(set(labels.tolist()))}


def _blocks(rows: np.ndarray, index: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each block of ``BLOCK_COLUMNS`` columns of the rows ``index`` of
    ``rows`` [N, L], which hold NaN exactly where a value is absent, their
    float64 values with 0 where absent and their presence as 0 or 1, in two
    buffers that every block refills, so the caller may square the values in
    place.  Each block is gathered into the buffers a few rows at a time
    (``GATHER_SCALARS``).  A narrower last block takes the head of each
    buffer, so it too is C-contiguous and matmul hands it to BLAS without a
    copy."""
    width = min(BLOCK_COLUMNS, rows.shape[1])
    buffers = [np.empty(len(index) * width) for _ in range(2)]
    for start in range(0, rows.shape[1], width):
        shape = (len(index), min(width, rows.shape[1] - start))
        v, pv = (buffer[: math.prod(shape)].reshape(shape) for buffer in buffers)
        for part in sample_blocks(shape, GATHER_SCALARS):
            gathered = rows[index[part], start:start + shape[1]]
            present = np.isfinite(gathered)
            np.copyto(pv[part], present)
            v[part] = 0.0
            np.copyto(v[part], gathered, where=present)
        yield v, pv


def _distance_bounds(targets: tuple[np.ndarray, np.ndarray],
                     members: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``lo``, ``hi`` [target, member] on the value whose square root
    ``_distances_to_members`` returns, ``length / counts * ignored``, for
    every row of ``targets`` against every row of ``members``, each a pair
    ``(rows, index)``: the rows ``index`` of an [N, L] array with NaN exactly
    where a value is absent.  Both are +inf where the two rows share no
    present coordinate.  ``lo`` is low enough that a row whose distance
    rounds to the same float as another's is not cut off by it.  When
    ``targets`` is ``members`` itself, each product of the rows with
    themselves is computed once.  Three [target, member] float64 arrays are
    live at once: the sum ``s``, the overlap counts ``c`` and the product
    buffer."""
    shape, length, same = (len(targets[1]), len(members[1])), members[0].shape[1], targets is members
    s, c, product = (np.zeros(shape) for _ in range(3))
    # each row's sum of squares over its present positions
    a_squares = np.zeros(shape[0])
    b_squares = a_squares if same else np.zeros(shape[1])
    blocks = _blocks(*members)
    pairs = ((block, block) for block in blocks) if same else zip(_blocks(*targets), blocks)
    # with no target (rate 0) or no member there is nothing to bound
    for (a, pa), (b, pb) in pairs if all(shape) else ():
        c += np.matmul(pa, pb.T, out=product)
        np.matmul(a, b.T, out=product)
        product *= -2.0
        s += product
        a *= a  # the values' squares from here, in place
        a_squares += a.sum(axis=1)
        s += np.matmul(a, pb.T, out=product)
        if same:
            s += product.T
        else:
            b *= b
            b_squares += b.sum(axis=1)
            s += np.matmul(pa, b.T, out=product)
    # Proof.  u = 2**-53 and g(n) = n*u / (1 - n*u).  Over the c positions
    # both rows have, with values a of the target and b of the member, let
    # S = sum((b - a)**2) and T = sum(a**2 + b**2), so S <= 2T.  Let Ra be
    # the sum of a**2 over every position the target has, and Rb that of
    # b**2 over the member's, so T <= Ra + Rb.  The rows are float32, so
    # every a*a, b*b and a*b is exact in float64, c is an exact count, and
    # nothing comes near float64's underflow or overflow.  L is below 2**40.
    # 1. The exact pass rounds b - a, its square, and then L additions in
    #    some order, so its sum I obeys |I - S| <= g(L+2) S <= 2 g(L+2) T.
    # 2. s is a float64 sum of the 3c exact terms a*a, b*b and -2ab (scaling
    #    a sum by -2 is exact) and of exact zeros: per block, the products
    #    (A*A) P_m^T and P_t (B*B)^T, or q and q^T with q = (B*B) P_m^T when
    #    the targets are the members, since then the second is the first
    #    transposed.  It adds them in some order of float64 additions,
    #    whatever the BLAS kernel, the block order and the order of the
    #    products (an FMA rounds once), so |s - S| <= g(3L) 2T, as |2ab| <=
    #    a*a + b*b, and |s| <= 3T.
    # 3. The row sums ra and rb add the exact terms a*a and b*b, all >= 0,
    #    so ra >= (1 - g(L)) Ra and so for rb.  With K = 32 (L+2) u, exact,
    #    ea = fl(K ra) and eb = fl(K rb) add up to e >= K (1 - u) (1 - g(L))
    #    (Ra + Rb) >= K (1 - g(L+1)) T.
    # 4. hi = fl(r h) with h = fl(fl(s + ea) + eb), and lo = fl(r max(l, 0))
    #    with l = fl(fl(s - ea) - eb).  Two roundings leave h and l within
    #    3u (|s| + e) of s + e and s - e, so h >= s + m and l <= s - m, with
    #    m = (1 - 3u) e - 3u |s|.
    # 5. The exact pass's value is v = fl(r I), with r = fl(L / c) the same
    #    float as here, and the distance is fl(sqrt(v)).  Rounding is
    #    monotone and I is a float, so hi >= v once m >= |I - s|.  Sorting
    #    compares fl(sqrt(v)), and fl(sqrt(v')) <= fl(sqrt(v)) implies v' <=
    #    v / (1 - 4u); so each lo must be at most (1 - 4u) v.  lo is 0 when
    #    l <= 0, else lo <= r (s - m) (1 + u); v >= r I (1 - u), and (1 - 7u)
    #    (1 + u) <= (1 - 4u) (1 - u), so m >= |I - s| + 7u I is enough.
    # 6. By 1 and 2, with I <= 2 (1 + g(L+2)) T: |I - s| + 7u I + 3u |s| <=
    #    (g(8L+4) + g(23)) (1 + g(L+2)) T <= g(9L+29) T, which by 3 is at
    #    most (1 - 3u) e, as 32 (L+2) (1 - g(L+4)) >= 2 (9L+29) >= (9L+29) /
    #    (1 - (9L+29) u) for L below 2**40.  So m >= |I - s| + 7u I.
    # In place: c becomes the ratio r, the product buffer hi, and s lo.
    apart = c == 0
    np.maximum(c, 1.0, out=c)
    np.divide(length, c, out=c)
    margin = 32 * (length + 2) * 2.0**-53
    ea, eb = margin * a_squares, margin * b_squares
    hi = np.add(s, ea[:, None], out=product)
    hi += eb
    s -= ea[:, None]
    s -= eb
    lo = np.maximum(s, 0.0, out=s)
    lo *= c
    hi *= c
    lo[apart] = hi[apart] = np.inf
    return lo, hi


def _shortlist(present: np.ndarray, holes: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               k: int) -> np.ndarray:
    """The rows, of more than 4k rows of the channel-0 mask ``present``
    [member, L/3], that can be among the first k rows with a hole's position
    present in neighbour order, for some of the target's ``holes``, given
    each row's ``lo`` and ``hi`` from ``_distance_bounds``.  At least k
    usable rows of a hole lie within its k-th smallest ``hi``, its limit, so
    a row whose ``lo`` exceeds that comes after the hole's k-th donor; with
    fewer than k usable rows every one is kept."""
    finite = np.isfinite(lo)  # a row with no overlap has no distance
    # a hole's limit is the hi of its k-th usable row in ascending hi; look
    # for it among the 4k rows of least hi, and partition only for the
    # holes that have fewer than k usable rows there
    head = np.argsort(hi, kind="stable")[: 4 * k]
    count = np.cumsum(present[head[:, None], holes] & finite[head, None], axis=0)
    reached = count[-1] >= k
    limit = np.full(holes.size, np.inf)
    limit[reached] = hi[head[np.argmax(count[:, reached] >= k, axis=0)]]
    if not reached.all():
        rest = holes[~reached]
        cut = np.where(present[:, rest] & finite[:, None], hi[:, None], np.inf)
        limit[~reached] = np.partition(cut, k - 1, axis=0)[k - 1]
    # only a row within the largest limit can be kept: it is, when usable for
    # a hole whose limit it is within
    rows = np.flatnonzero(finite & (lo <= limit.max()))
    usable = present[rows[:, None], holes]
    keep = usable & (lo[rows, None] <= limit)
    return rows[keep.any(axis=1)]


@dataclass
class _Target:
    """One sample to fill: its index in its dataset, a view of its row of
    the float32 copy that is filled, its holes (channel-0 positions, C
    order) and its counts."""

    index: int
    sample_id: str
    data: np.ndarray
    holes: np.ndarray
    counts: SampleCounts


def _targets(dataset: Dataset) -> tuple[np.ndarray, list[_Target]]:
    """A float32 copy of ``dataset.data`` to fill, and a target per row."""
    data = dataset.data.astype(np.float32)
    flat = data.reshape(*data.shape[:2], math.prod(data.shape[2:]))  # [N, 3, L / 3]
    missing, holes = [], []
    for rows in sample_blocks(flat.shape):  # masks of one block of samples at a time
        missing += np.count_nonzero(~np.isfinite(flat[rows]), axis=(1, 2)).tolist()
        holes += [np.flatnonzero(row) for row in np.isnan(flat[rows]).all(axis=1)]
    return data, [_Target(i, sid, row, hole, SampleCounts(miss, 0, 3 * hole.size))
                  for i, (sid, row, hole, miss)
                  in enumerate(zip(dataset.sample_ids, data, holes, missing))]


def _fill_block(block: list[tuple[_Target, np.ndarray, np.ndarray, np.ndarray]], pool: Pool, k: int,
                trace: dict | None) -> None:
    """Fill some holes of each target of ``block`` from its candidate rows
    of ``pool`` and their distances, in neighbour order, in place, and move
    the filled ones from its unimputable to its imputed count.  The columns
    are the block's holes, part by part; the candidate axis is as wide as
    the longest candidate list, the others padded with candidates that are
    never usable."""
    rows, present, members = pool
    width = max(cand.size for _, _, cand, _ in block)
    cand = np.zeros((width, len(block)), dtype=np.intp)
    dist = np.full((width, len(block)), np.inf)
    for i, (_, _, rows_in, d) in enumerate(block):
        cand[: rows_in.size, i] = rows_in
        dist[: d.size, i] = d
    owner = np.repeat(np.arange(len(block)), [part.size for _, part, _, _ in block])
    holes = np.concatenate([part for _, part, _, _ in block])
    usable = present[cand[:, owner], holes] & np.isfinite(dist)[:, owner]  # [candidate, hole]
    slot, valid = _donor_slots(usable, k)  # [slot, hole]
    found = valid[0] if width else np.zeros(holes.size, dtype=bool)
    slot, valid, owner, holes = slot[:, found], valid[:, found], owner[found], holes[found]
    donors = members[cand[slot, owner]]  # [slot, hole] sample indices
    pos = np.arange(3)[:, None] * (rows.shape[1] // 3) + holes  # [channel, hole]
    values = rows[donors[:, None, :], pos]  # [slot, channel, hole] float32
    fill = _slot_fill(dist[slot, owner], valid, values)
    ends = np.cumsum(np.bincount(owner, minlength=len(block))).tolist()
    for i, (target, _, _, _) in enumerate(block):
        mine = slice(ends[i - 1] if i else 0, ends[i])
        target.data.reshape(-1)[pos[:, mine]] = fill[:, mine]
        imputed = 3 * (mine.stop - mine.start)
        target.counts.imputed += imputed
        target.counts.unimputable -= imputed
        if trace is not None:
            for hole, chosen, ok in zip(holes[mine], donors[:, mine].T, valid[:, mine].T):
                t, v, m = (int(j) for j in np.unravel_index(hole, target.data.shape[1:]))
                trace[(target.sample_id, t, v, m)] = tuple(chosen[ok].tolist())


def _fill_targets(targets: list[_Target], rows: np.ndarray, pool: Pool, k: int, trace: dict | None,
                  own: bool = False) -> None:
    """Fill ``targets``, whose rows are those of their split's ``rows``
    (``_rows``) at their indices, from ``pool``, in place.  ``own`` says
    they are the pool's own members, in its order, so the distance of each
    pair of them is computed once.  Every target's candidates are found
    first, so that no [target, member] array of the bounds outlives them."""
    holed = [r for r, target in enumerate(targets) if target.holes.size]
    if not holed:
        return
    chosen = [targets[r] for r in holed]
    split, present, members = pool
    at = holed if own else range(len(holed))  # each target's row of the bounds
    if members.size > 4 * k:
        side = (split, members)
        index = np.array([target.index for target in chosen], dtype=np.intp)
        lo, hi = _distance_bounds(side if own else (rows, index), side)
        shortlists = [_shortlist(present, target.holes, lo[r], hi[r], k) for target, r in zip(chosen, at)]
        del lo, hi
    else:  # a pool of at most 4k rows: every usable row is a candidate
        shortlists = [np.flatnonzero(present[:, target.holes].any(axis=1)) for target in chosen]
    # (j, r) -> the distance between pool rows r and j that target r computed
    # for target j, which comes later: d(r, j) and d(j, r) are the same float
    known: dict[tuple[int, int], float] = {}
    block, width, size = [], 0, 0  # the block's parts, its candidate axis and its holes
    for target, r, rows_in in zip(chosen, at, shortlists):
        dist = np.full(rows_in.size, np.nan)
        if own:
            dist[:] = [known.pop((r, j), np.nan) for j in rows_in.tolist()]
        new = np.isnan(dist)
        dist[new] = _distances_to_members(split[members[rows_in[new]]], rows[target.index])
        if own:
            known.update(((j, r), d) for j, d in zip(rows_in[new].tolist(), dist[new].tolist()) if j > r)
        order = _neighbour_order(dist, members[rows_in])
        cand, start = (rows_in[order], dist[order]), 0
        while start < target.holes.size:
            width = max(width, cand[0].size)
            room = max(1, FILL_BYTES // (8 * width + 64 * k)) - size  # one hole at least
            if room <= 0:  # full at this width
                _fill_block(block, pool, k, trace)
                block, width, size = [], 0, 0
                continue
            part = target.holes[start:start + room]
            block.append((target, part, *cand))
            start, size = start + part.size, size + part.size
    if block:
        _fill_block(block, pool, k, trace)


def impute_dataset(
    train: Dataset,
    train_labels: PseudoLabels,
    test: Dataset | None = None,
    test_labels: PseudoLabels | None = None,
    k: int = 5,
    threads: int = 1,
    trace: dict | None = None,
) -> tuple[Dataset, Dataset | None, ImputationReport]:
    """Impute every sample of the given datasets (see module doc).

    ``trace``, when given, maps ``(sample_id, t, v, m)`` to the tuple of
    donor sample indices used, in neighbour order — handy for audits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_alignment(train, train_labels, "train")
    if test is not None:
        _check_alignment(test, test_labels, "test")

    clusters = _groups(train_labels.labels)
    groups = _groups(test_labels.labels) if test is not None else {}
    # every copy a task fills or reads is made here, in the calling thread:
    # made in a worker, these long-lived arrays would pin the memory that the
    # task's temporaries freed around them in the worker's malloc arena
    train_out, train_targets = _targets(train)
    test_out, test_targets = _targets(test) if test is not None else (None, [])
    train_rows = _rows(train)
    test_rows = _rows(test) if test is not None else None
    none = np.zeros(0, dtype=np.intp)

    def fill_cluster(label: int) -> None:
        # a label no train cluster has gets an empty pool
        pool = _pool(train_rows, clusters.get(label, none))
        _fill_targets([train_targets[i] for i in pool[2]], train_rows, pool, k, trace, own=True)
        _fill_targets([test_targets[i] for i in groups.get(label, none)], test_rows, pool, k, trace)

    labels = sorted(clusters.keys() | groups.keys())
    # no more workers than tasks, and none for a lone task: a worker thread
    # adds its own malloc arena to the peak
    workers = min(threads, len(labels))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # loaded only by a run that starts one

        with ThreadPoolExecutor(max_workers=workers) as executor:
            list(executor.map(fill_cluster, labels))
    else:
        for label in labels:
            fill_cluster(label)

    report = ImputationReport(
        train={target.sample_id: target.counts for target in train_targets},
        test={target.sample_id: target.counts for target in test_targets},
        cluster_sizes={str(label): int(members.size) for label, members in clusters.items()},
        k=k,
    )
    imputed_test = test.with_data(test_out) if test is not None else None
    return train.with_data(train_out), imputed_test, report
