import numpy as np
import pytest

from autorbits import (
    EdgeColoredGraph,
    InvalidPartitionError,
    OrderedPartition,
    Permutation,
    SizeMismatchError,
    WindowSet,
    apply_permutation,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_undirected_edges,
    is_automorphism,
    path_graph,
)
from util import random_colored_digraph, random_permutation


def test_constructor_keeps_color_ids():
    source = np.array([[5, 9], [9, 5]])
    g = EdgeColoredGraph(source)
    assert g.color_count == 10
    assert g.colors.tolist() == [[5, 9], [9, 5]]
    source[0, 0] = 7
    assert g.colors[0, 0] == 5 and not g.colors.flags.writeable
    assert EdgeColoredGraph([[2**62 - 1]]).color_count == 2**62


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        EdgeColoredGraph([[0, 1, 2], [1, 0, 2]])
    with pytest.raises(ValueError):
        EdgeColoredGraph([[-1]])
    with pytest.raises(ValueError):
        EdgeColoredGraph([[2**62]])
    with pytest.raises(ValueError):
        EdgeColoredGraph(np.zeros((0, 0), dtype=int))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: EdgeColoredGraph([[0, 1.7], [1.2, 0]]), ValueError),
        (lambda: EdgeColoredGraph([["0", "1"], ["1", "0"]]), ValueError),
        (lambda: EdgeColoredGraph([[0, 2**63], [1, 0]]), ValueError),
        (lambda: Permutation([0.5, 1.2]), ValueError),
        (lambda: OrderedPartition([0.5, 1.5]), InvalidPartitionError),
        (lambda: WindowSet.from_elements(2, [((0, 1.7), (2, 3))]), ValueError),
        (lambda: from_undirected_edges(3, [(0, 1.5)]), ValueError),
    ],
    ids=["float-colors", "string-colors", "colors-past-int64", "float-permutation",
         "float-class-ids", "float-window", "float-edge"],
)
def test_public_constructors_refuse_non_integers(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("n", [0, -1, 2.0, "3", np.float64(3)], ids=repr)
def test_edge_lists_refuse_an_order_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match="graph order"):
        from_undirected_edges(n, [])


def test_named_graphs_of_order_zero_are_refused():
    for build in (complete_graph, empty_graph, cycle_graph, path_graph):
        with pytest.raises(ValueError, match="graph order"):
            build(0)
    assert from_undirected_edges(True, []).n == from_undirected_edges(np.int64(1), []).n == 1


def test_boolean_color_matrices_are_accepted():
    g = EdgeColoredGraph([[True, False], [False, True]])
    assert g.colors.tolist() == [[1, 0], [0, 1]] and g.color_count == 2


def test_complete_graph_has_two_colors():
    g = complete_graph(3)
    assert g.color_count == 2
    assert g.colors[0, 1] == g.colors[1, 0]
    assert g.colors[0, 0] != g.colors[0, 1]


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([1, 2, 3])


def test_permutation_algebra():
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    assert p.compose(p.inverse()) == Permutation.identity(3)
    assert p.compose(q)(1) == p(q(1))
    assert p.inverse().inverse() == p


def test_apply_permutation_identity_and_inverse():
    rng = np.random.default_rng(0)
    g = random_colored_digraph(rng, 6)
    assert apply_permutation(g, Permutation.identity(6)) == g
    p = random_permutation(rng, 6)
    assert apply_permutation(apply_permutation(g, p), p.inverse()) == g


def test_apply_permutation_defining_property():
    rng = np.random.default_rng(1)
    g = random_colored_digraph(rng, 5)
    p = random_permutation(rng, 5)
    h = apply_permutation(g, p)
    for u in range(5):
        for v in range(5):
            assert h.colors[p(u), p(v)] == g.colors[u, v]


def test_apply_permutation_size_mismatch():
    with pytest.raises(SizeMismatchError):
        apply_permutation(complete_graph(3), Permutation.identity(4))


def test_complete_graph_fixed_by_any_permutation():
    rng = np.random.default_rng(2)
    g = complete_graph(3)
    for _ in range(5):
        assert apply_permutation(g, random_permutation(rng, 3)) == g


def test_is_automorphism_on_path():
    g = path_graph(3)
    assert is_automorphism(g, Permutation.identity(3))
    assert is_automorphism(g, Permutation([2, 1, 0]))
    assert not is_automorphism(g, Permutation([1, 0, 2]))


def test_automorphisms_compose():
    g = cycle_graph(6)
    rot = Permutation([1, 2, 3, 4, 5, 0])
    flip = Permutation([0, 5, 4, 3, 2, 1])
    assert is_automorphism(g, rot) and is_automorphism(g, flip)
    assert is_automorphism(g, rot.compose(flip))


def test_disjoint_union_layout():
    u = disjoint_union(cycle_graph(3), path_graph(3))
    assert u.n == 6
    tag = u.colors[0, 3]
    assert (u.colors[:3, 3:] == tag).all()
    assert (u.colors[3:, :3] == tag).all()
    # the tag is fresh: it appears nowhere inside either side block
    assert tag not in u.colors[:3, :3]
    assert tag not in u.colors[3:, 3:]
