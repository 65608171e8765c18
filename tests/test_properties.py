"""Property tests of refine and iso_test on random small graphs, against
brute force."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from autorbits import (
    ISOMORPHIC,
    NON_ISOMORPHIC,
    EdgeColoredGraph,
    OrderedPartition,
    Permutation,
    RefinementConfig,
    apply_permutation,
    brute_iso,
    individualize_sequence,
    iso_test,
    refine,
)
from util import exact_wl, graph_from_bitmask


@st.composite
def graph_pairs(draw):
    n = draw(st.integers(1, 7))
    pairs = n * (n - 1) // 2
    g1 = graph_from_bitmask(n, draw(st.integers(0, (1 << pairs) - 1)))
    g2 = graph_from_bitmask(n, draw(st.integers(0, (1 << pairs) - 1)))
    perm = Permutation(np.array(draw(st.permutations(range(n))), dtype=np.int64))
    k = draw(st.sampled_from((1, 2)))
    return g1, g2, perm, RefinementConfig(k=k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph_pairs())
def test_iso_test_is_sound_and_complete_on_small_graphs(case):
    g1, g2, perm, cfg = case
    h = apply_permutation(g1, perm)
    same = iso_test(g1, h, cfg)
    assert same.verdict == ISOMORPHIC
    assert apply_permutation(g1, same.witness) == h

    result = iso_test(g1, g2, cfg)
    if brute_iso(g1, g2) is None:
        assert result.verdict == NON_ISOMORPHIC and result.witness is None
    else:
        assert result.verdict == ISOMORPHIC
        assert apply_permutation(g1, result.witness) == g2


# A sparse palette: ids with gaps, one far above the others.
SPARSE_IDS = (0, 3, 7, 2**40)


@st.composite
def gapped_digraphs(draw):
    n = draw(st.integers(1, 7))
    cells = draw(st.lists(st.sampled_from(SPARSE_IDS), min_size=n * n, max_size=n * n))
    g = EdgeColoredGraph(np.array(cells, dtype=np.int64).reshape(n, n))
    perm = Permutation(np.array(draw(st.permutations(range(n))), dtype=np.int64))
    k = draw(st.sampled_from((1, 2, 3)))
    return g, perm, RefinementConfig(k=k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gapped_digraphs())
def test_gapped_palettes_are_refined_and_told_apart(case):
    g, perm, cfg = case
    h = apply_permutation(g, perm)
    moved, still = refine(h, cfg), refine(g, cfg)
    assert moved.trace_digest == still.trace_digest
    relabeled = np.empty(g.n, dtype=np.int64)
    relabeled[perm.image] = still.vertex_partition.class_of
    assert moved.vertex_partition == OrderedPartition(relabeled)

    same = iso_test(g, h, cfg)
    assert same.verdict == ISOMORPHIC
    assert apply_permutation(g, same.witness) == h

    # Raising the largest id preserves the order of ids, so a graph that
    # ranked its ids would not see the change.
    top = int(g.colors.max())
    raised = EdgeColoredGraph(np.where(g.colors == top, top + 1, g.colors))
    other = iso_test(g, raised, cfg)
    assert other.verdict == NON_ISOMORPHIC and other.witness is None
    assert brute_iso(g, raised) is None


# Ids up to the input bound, far apart, so hashing sees no dense palette.
WIDE_IDS = (0, 1, 5, 2**31, 2**62 - 1)


@st.composite
def individualized_digraphs(draw):
    k = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(1, 9))
    palette = sorted(draw(st.sets(st.sampled_from(WIDE_IDS), min_size=1)))
    cells = draw(st.lists(st.sampled_from(palette), min_size=n * n, max_size=n * n))
    g = EdgeColoredGraph(np.array(cells, dtype=np.int64).reshape(n, n))
    order = draw(st.permutations(range(n)))
    g = individualize_sequence(g, order[: draw(st.integers(0, min(n, 2)))])
    perm = Permutation(np.array(draw(st.permutations(range(n))), dtype=np.int64))
    return g, perm, k


@settings(max_examples=250, deadline=None, derandomize=True)
@given(individualized_digraphs())
def test_hashed_refinement_matches_the_exact_oracle(case):
    g, perm, k = case
    cfg = RefinementConfig(k=k)
    coloring = refine(g, cfg)
    classes = {frozenset(members) for members in coloring.vertex_partition.classes}
    assert (classes, coloring.rounds_used) == exact_wl(g, k)
    assert refine(apply_permutation(g, perm), cfg).trace_digest == coloring.trace_digest
