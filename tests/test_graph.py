"""Skeleton graph construction and edge-list loading."""

from __future__ import annotations

import re

import pytest

from skelfill.errors import DegenerateGraph, FormatError
from skelfill.graph import SkeletonGraph, chain_graph, default_skeleton_graph, load_edge_list


def test_default_graph_shape():
    graph = default_skeleton_graph()
    assert graph.num_joints == 25
    assert len(graph.edges) == 24
    assert graph.degrees.sum() == 48
    assert graph.is_connected()
    # hands and feet are leaves
    for leaf in (3, 15, 19, 21, 23):
        assert graph.degrees[leaf] == 1


def test_edges_are_canonicalised():
    graph = SkeletonGraph(num_joints=4, edges=((2, 1), (1, 2), (3, 0)))
    assert graph.edges == ((0, 3), (1, 2))
    assert graph.degrees.tolist() == [1, 1, 1, 1]


def test_graph_validation():
    with pytest.raises(ValueError):
        SkeletonGraph(num_joints=3, edges=((1, 1),))
    with pytest.raises(ValueError):
        SkeletonGraph(num_joints=3, edges=((0, 3),))


def test_chain_graph():
    graph = chain_graph(4)
    assert graph.edges == ((0, 1), (1, 2), (2, 3))
    assert graph.degrees.tolist() == [1, 2, 2, 1]
    assert graph.is_connected()
    with pytest.raises(DegenerateGraph):
        chain_graph(1)


def test_connectivity_detection():
    split = SkeletonGraph(num_joints=4, edges=((0, 1), (2, 3)))
    assert not split.is_connected()


def test_load_edge_list(tmp_path):
    path = tmp_path / "bones.txt"
    path.write_text("# torso\n0 1\n1 2\n\n2 3\n")
    graph = load_edge_list(path, num_joints=4)
    assert graph.edges == ((0, 1), (1, 2), (2, 3))

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(FormatError, match="two joint indices"):
        load_edge_list(bad, num_joints=3)

    nonint = tmp_path / "nonint.txt"
    for line in ("0 x", "1 \u0662", "0 1_0"):  # "\u0662" is an Arabic-Indic 2
        nonint.write_text(f"0 1\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{nonint}:2: non-integer joint index")):
            load_edge_list(nonint, num_joints=11)

    outside = tmp_path / "outside.txt"
    outside.write_text("0 1\n1 99\n")
    with pytest.raises(FormatError, match=re.escape(f"{outside}: edge (1, 99) outside 0..2")):
        load_edge_list(outside, num_joints=3)

    disconnected = tmp_path / "disc.txt"
    disconnected.write_text("0 1\n")
    with pytest.raises(DegenerateGraph):
        load_edge_list(disconnected, num_joints=3)
