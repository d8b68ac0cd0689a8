"""Skeleton connectivity graphs.

A graph is an undirected set of bones over joint indices ``0..num_joints-1``.
The default 25-joint layout matches the common depth-camera skeleton used by
large action-recognition corpora (spine/neck/head chain, two arms with hand
tips and thumbs, two legs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateGraph, FormatError
from .formats import _int, decode_utf8

# Bones of the standard 25-joint skeleton, 0-based joint indices.
_DEFAULT_EDGES_25 = (
    (0, 1), (1, 20), (2, 20), (2, 3), (4, 20), (4, 5), (5, 6), (6, 7),
    (8, 20), (8, 9), (9, 10), (10, 11), (0, 12), (12, 13), (13, 14),
    (14, 15), (0, 16), (16, 17), (17, 18), (18, 19), (21, 22), (7, 22),
    (23, 24), (11, 24),
)


@dataclass
class SkeletonGraph:
    """Undirected joint-connectivity graph.

    Edges are stored deduplicated as sorted ``(lo, hi)`` pairs in a fixed
    order so that everything derived from the graph (degrees, bone feature
    ordering) is deterministic.
    """

    num_joints: int
    edges: tuple[tuple[int, int], ...]
    degrees: np.ndarray = field(init=False, repr=False)  # [V] int64

    def __post_init__(self) -> None:
        canon = []
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on joint {a}")
            if not (0 <= a < self.num_joints and 0 <= b < self.num_joints):
                raise ValueError(f"edge ({a}, {b}) outside 0..{self.num_joints - 1}")
            lo, hi = (a, b) if a < b else (b, a)
            if (lo, hi) not in seen:
                seen.add((lo, hi))
                canon.append((lo, hi))
        self.edges = tuple(sorted(canon))
        deg = np.zeros(self.num_joints, dtype=np.int64)
        for lo, hi in self.edges:
            deg[lo] += 1
            deg[hi] += 1
        self.degrees = deg

    def is_connected(self) -> bool:
        if self.num_joints == 0:
            return False
        adj: list[list[int]] = [[] for _ in range(self.num_joints)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == self.num_joints


def default_skeleton_graph() -> SkeletonGraph:
    """The built-in 25-joint skeleton."""
    return SkeletonGraph(num_joints=25, edges=_DEFAULT_EDGES_25)


def chain_graph(num_joints: int) -> SkeletonGraph:
    """Fallback path graph 0-1-2-...-(V-1) for non-standard joint counts."""
    if num_joints < 2:
        raise DegenerateGraph("need at least 2 joints for a chain")
    return SkeletonGraph(
        num_joints=num_joints,
        edges=tuple((i, i + 1) for i in range(num_joints - 1)),
    )


def load_edge_list(path: str | Path, num_joints: int) -> SkeletonGraph:
    """Read a graph from a text file with one ``i j`` pair per line.

    Blank lines and lines starting with ``#`` are skipped.  The resulting
    graph must be connected.  The file is read as UTF-8 whatever the
    locale.  Text that is not UTF-8, a line other than two indices of ASCII
    digits, a self-loop or a joint outside ``0..num_joints-1`` raises
    :class:`FormatError`.
    """
    lines = decode_utf8(Path(path).read_bytes(),
                        lambda line, what: FormatError(f"{path}:{line}: {what}")).splitlines()
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected two joint indices, got {line!r}")
        try:
            a, b = _int(parts[0]), _int(parts[1])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer joint index in {line!r}") from None
        edges.append((a, b))
    try:
        graph = SkeletonGraph(num_joints=num_joints, edges=tuple(edges))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not graph.is_connected():
        raise DegenerateGraph(f"edge list in {path} does not connect all {num_joints} joints")
    return graph
