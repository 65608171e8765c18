"""Tests of the benchmark's corpus generator and outside soundness checks.

Run with ``python -m pytest -q perfbench``.
"""

import os
import sys

import networkx as nx
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from autorbits.formats import InputDocument, parse_graph, sniff_format  # noqa: E402

WORKLOADS = sorted(corpus.WORKLOADS)


def _nx(mat):
    return nx.from_numpy_array((mat == corpus.EDGE).astype(int))


def _fingerprint(ops):
    parts = []
    for op in ops:
        parts.append(op.name.encode())
        parts.extend(g.tobytes() for g in op.graphs)
        if op.path is not None:
            parts.append(corpus.file_bytes(op))
    return parts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    assert _fingerprint(corpus.build(workload, 7)) == _fingerprint(corpus.build(workload, 7))
    assert _fingerprint(corpus.build(workload, 7)) != _fingerprint(corpus.build(workload, 8))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_names_are_unique(workload):
    names = [op.name for op in corpus.build(workload, 3)]
    assert len(names) == len(set(names))


def test_relabel_pairs_are_true_relabelings():
    pairs = [op for op in corpus.build("iso-pairs", 5) if op.expect.get("verdict") == "isomorphic"]
    assert len(pairs) == 9
    for op in pairs:
        g1, g2 = op.graphs
        p = op.relabeling
        assert np.array_equal(np.sort(p), np.arange(g1.shape[0]))
        assert np.array_equal(g2[np.ix_(p, p)], g1), op.name


def test_non_isomorphic_pairs_differ_in_an_invariant():
    pairs = [op for op in corpus.build("iso-pairs", 5) if op.expect.get("not_verdict")]
    assert len(pairs) == 4
    for op in pairs:
        a, b = (_nx(g) for g in op.graphs)
        if sorted(d for _, d in a.degree()) != sorted(d for _, d in b.degree()):
            continue
        if (sorted(map(len, nx.connected_components(a)))
                != sorted(map(len, nx.connected_components(b)))):
            continue
        # 4x4 rook vs. Shrikhande: both SRG(16, 6, 2, 2); only the rook graph has K4s.
        assert a.number_of_nodes() == 16, op.name
        assert max(map(len, nx.find_cliques(a))) != max(map(len, nx.find_cliques(b))), op.name


def test_expected_orbit_counts_hold_for_small_families():
    # Cycle unions are left out: their orbits follow from the components,
    # which the outside check computes, and VF2 backtracks long on them.
    ops = [op for op in corpus.build("orbits-symmetric", 2)
           if op.graphs[0].shape[0] <= 21 and not op.expect.get("by_component_size")]
    assert len(ops) == 11
    for op in ops:
        assert len(_vf2_orbits(_nx(op.graphs[0]))) == op.expect["orbits"], op.name


def _vf2_orbits(g):
    """Orbits by anchored VF2: v is in u's orbit iff an isomorphism of g
    onto itself maps the anchored u to the anchored v."""

    def anchored(w):
        h = g.copy()
        nx.set_node_attributes(h, {x: x == w for x in h}, "anchor")
        return h

    def same(x, y):
        return x["anchor"] == y["anchor"]

    orbits, left = [], set(g)
    while left:
        u = min(left)
        orbit = {u} | {v for v in left - {u}
                       if nx.is_isomorphic(anchored(u), anchored(v), node_match=same)}
        orbits.append(orbit)
        left -= orbit
    return orbits


def test_rigid_inputs_are_certifiably_rigid_and_files_round_trip():
    cycle = corpus.cycle(12)
    assert not corpus.is_certifiably_rigid(cycle)
    for op in corpus.build("rigid-cli", 4):
        mat = op.graphs[0]
        assert corpus.is_certifiably_rigid(mat), op.name
        payload = corpus.file_bytes(op)
        doc = InputDocument(sniff_format(payload), payload)
        assert doc.format == op.fmt
        g = parse_graph(doc)
        assert g.n == mat.shape[0]
        # Color ids are compacted order-preservingly, so equality of the
        # equivalence pattern is exact equality after ranking.
        assert np.array_equal(g.colors, np.unique(mat, return_inverse=True)[1].reshape(mat.shape))


@pytest.mark.parametrize("n", [2, 62, 63, 150])
def test_graph6_writer_matches_networkx(n):
    upper = np.triu(np.random.default_rng(n).random((n, n)) < 0.5, 1)
    mat = corpus.from_adjacency(upper | upper.T)
    parsed = nx.from_graph6_bytes(corpus.write_graph6(mat).strip())
    assert sorted(parsed.edges()) == sorted(_nx(mat).edges())


def test_checks_reject_unsound_answers():
    op = corpus.Op("c6", corpus.ORBITS, 1, (corpus.cycle(6),), {"orbits": 1, "status": "certified"})
    rotation = [1, 2, 3, 4, 5, 0]
    good = {"status": "certified", "orbits": [list(range(6))], "generators": [rotation]}
    assert checks.check(op, good) == []
    bad_gen = dict(good, generators=[[1, 0, 2, 3, 4, 5]])
    assert "generator 0 is not an automorphism" in checks.check(op, bad_gen)
    bad_part = dict(good, generators=[[3, 4, 5, 0, 1, 2]])
    assert "orbits differ from the closure of the generators" in checks.check(op, bad_part)

    g1 = corpus.path(4)
    pair = corpus.Op("p4", corpus.ISO, 1, (g1, corpus.relabel(g1, np.array([3, 2, 1, 0]))),
                     {"verdict": "isomorphic"})
    assert checks.check(pair, {"verdict": "isomorphic", "witness": [3, 2, 1, 0]}) == []
    assert checks.check(pair, {"verdict": "isomorphic", "witness": [1, 0, 2, 3]})
    assert checks.check(pair, {"verdict": "inconclusive", "witness": None})
