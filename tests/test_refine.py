import itertools

import numpy as np
import pytest

from autorbits import (
    EdgeColoredGraph,
    petersen_graph,
    OrderedPartition,
    RefinementConfig,
    ResourceLimitError,
    Run,
    apply_permutation,
    brute_orbits,
    complete_graph,
    cycle_graph,
    individualize_sequence,
    path_graph,
    refine,
)
from autorbits import refinement
from util import random_permutation, random_simple_graph, rigid6

K1 = RefinementConfig(k=1)
K2 = RefinementConfig(k=2)
K3 = RefinementConfig(k=3)


def relabel_partition(p, perm):
    inv = perm.inverse()
    return OrderedPartition([int(p.class_of[inv(v)]) for v in range(p.n)])


def test_k4_single_class():
    assert refine(complete_graph(4), K1).vertex_partition.classes == ((0, 1, 2, 3),)


def test_path_degree_split():
    part = refine(path_graph(3), K1).vertex_partition
    assert part.same_blocks(OrderedPartition.from_classes([[1], [0, 2]]))


def test_c5_k2_vertex_classes():
    # The pair classes (loops, cycle edges, non-edges) are stable at once,
    # so no round splits and the one vertex class is the diagonal's.
    coloring = refine(cycle_graph(5), K2)
    assert coloring.vertex_partition.classes == ((0, 1, 2, 3, 4),)
    assert coloring.rounds_used == 0


def test_stability_one_more_round_is_no_op():
    rng = np.random.default_rng(20)
    for cfg in (K1, K2, K3):
        for _ in range(10):
            n = int(rng.integers(3, 8))
            g = random_simple_graph(rng, n, 0.5)
            first = refine(g, cfg)
            again = refine(g, cfg)
            assert first.vertex_partition == again.vertex_partition
            assert first.rounds_used == again.rounds_used
            # The class count rises strictly each round and is at most n^k.
            assert first.rounds_used < n ** cfg.k


def test_individualize_makes_fresh_singleton():
    g = complete_graph(4)
    part = refine(individualize_sequence(g, [0]), K1).vertex_partition
    assert part.same_blocks(OrderedPartition.from_classes([[0], [1, 2, 3]]))


def test_individualize_out_of_range():
    with pytest.raises(ValueError):
        individualize_sequence(complete_graph(3), [3])


def test_individualize_already_unique_color_is_recoloring_only():
    once = individualize_sequence(path_graph(3), [1])  # vertex 1 now has a unique diagonal color
    twice = individualize_sequence(once, [1])
    # same partition structure of the matrix: entries equal iff equal before
    flat_a = once.colors.flatten()
    flat_b = twice.colors.flatten()
    for i in range(flat_a.size):
        for j in range(flat_a.size):
            assert (flat_a[i] == flat_a[j]) == (flat_b[i] == flat_b[j])


def test_c5_individualized_stabilizer_orbits():
    part = refine(individualize_sequence(cycle_graph(5), [0]), K1).vertex_partition
    assert part.same_blocks(OrderedPartition.from_classes([[0], [1, 4], [2, 3]]))


def test_fix_sequence_examples():
    g = complete_graph(4)
    assert refine(individualize_sequence(g, []), K1).vertex_partition == refine(g, K1).vertex_partition
    p2 = refine(individualize_sequence(g, [0, 1]), K1).vertex_partition
    assert p2.same_blocks(OrderedPartition.from_classes([[0], [1], [2, 3]]))
    assert refine(individualize_sequence(g, [0, 1, 2]), K1).vertex_partition.is_discrete()


def test_fix_sequence_rejects_duplicates():
    with pytest.raises(ValueError):
        individualize_sequence(complete_graph(4), [0, 0])
    with pytest.raises(ValueError):
        individualize_sequence(complete_graph(4), [5])


def test_fixes_are_distinct_integer_vertices_everywhere():
    # A bool counts as an integer, as in the public constructors; a float,
    # a string or a nested list is refused by refine, individualize_sequence
    # and Run.stage alike, not read as an index or truncated.
    g = cycle_graph(6)
    assert individualize_sequence(g, [True]) == individualize_sequence(g, [1])
    assert Run(g, K1).stage((True,)).fixes == (1,)
    calls = (
        lambda fixes: individualize_sequence(g, fixes),
        lambda fixes: refine(g, K1, fixes),
        lambda fixes: Run(g, K1).stage(fixes),
    )
    for call, fixes in itertools.product(calls, ([1.5], (1.7,), ["1"], [[0, 1]], [6], [-1], [2, 2])):
        with pytest.raises(ValueError):
            call(fixes)


@pytest.mark.parametrize("k", [2.0, 1.0, np.float64(2.0), "2", None], ids=repr)
def test_refinement_config_refuses_a_non_integer_k(k):
    with pytest.raises(ValueError):
        RefinementConfig(k=k)


def test_refinement_config_takes_a_numpy_integer_or_bool_k():
    g = cycle_graph(6)
    assert refine(g, RefinementConfig(k=np.int64(2)), (0,)) == refine(g, K2, (0,))
    assert refine(g, RefinementConfig(k=True), (0,)) == refine(g, K1, (0,))


def test_fix_order_within_singleton_classes_is_partition_neutral():
    g = path_graph(4)  # refinement splits ends from middles; fix one of each
    a = refine(individualize_sequence(g, [0, 1]), K1).vertex_partition
    b = refine(individualize_sequence(g, [1, 0]), K1).vertex_partition
    assert a.same_blocks(b)


@pytest.mark.parametrize("cfg", [K1, K2, K3])
def test_equivariance(cfg):
    rng = np.random.default_rng(21)
    hi = 7 if cfg.k < 3 else 6
    for _ in range(200):
        n = int(rng.integers(3, hi + 1))
        g = random_simple_graph(rng, n, float(rng.choice([0.3, 0.5, 0.7])))
        perm = random_permutation(rng, n)
        left = refine(apply_permutation(g, perm), cfg)
        right = refine(g, cfg)
        assert left.trace_digest == right.trace_digest
        assert left.vertex_partition == relabel_partition(right.vertex_partition, perm)


def test_monotonicity_in_k():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        g = random_simple_graph(rng, n, 0.5)
        p1 = refine(g, K1).vertex_partition
        p2 = refine(g, K2).vertex_partition
        p3 = refine(g, K3).vertex_partition
        assert p2.is_finer_or_equal(p1)
        assert p3.is_finer_or_equal(p2)


def test_orbit_coarseness():
    # every true orbit lies inside one stable class
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        g = random_simple_graph(rng, n, float(rng.choice([0.2, 0.5, 0.8])))
        orbits = brute_orbits(g)
        for cfg in (K1, K2):
            stable = refine(g, cfg).vertex_partition
            assert orbits.is_finer_or_equal(stable)


def test_discreteness_implies_trivial_group():
    rng = np.random.default_rng(24)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(6, 9))
        g = random_simple_graph(rng, n, 0.5)
        if refine(g, K2).is_discrete():
            assert brute_orbits(g).is_discrete()
            checked += 1
    assert checked > 10


def test_individualization_strictly_refines():
    rng = np.random.default_rng(25)
    for _ in range(30):
        n = int(rng.integers(4, 8))
        g = random_simple_graph(rng, n, 0.5)
        base = refine(g, K2).vertex_partition
        for v in range(n):
            finer = refine(individualize_sequence(g, [v]), K2).vertex_partition
            assert finer.is_finer_or_equal(base)
            assert len(finer.classes[int(finer.class_of[v])]) == 1


def test_rigid_graph_discrete_under_k2():
    coloring = refine(rigid6(), K2)
    assert coloring.is_discrete()


def test_never_coarser_than_diagonal():
    rng = np.random.default_rng(26)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        g = random_simple_graph(rng, n, 0.5)
        g2 = individualize_sequence(g, [0])
        part = refine(g2, K1).vertex_partition
        diag = g2.colors.diagonal()
        for members in part.classes:
            assert len({int(diag[v]) for v in members}) == 1


# A 3-colored digraph on 6 vertices whose refinement is discrete at every k.
DIGRAPH6 = [
    [0, 1, 2, 1, 0, 2],
    [2, 1, 1, 0, 2, 1],
    [1, 0, 0, 2, 1, 1],
    [0, 2, 1, 2, 1, 0],
    [2, 1, 0, 0, 1, 2],
    [1, 1, 2, 0, 2, 0],
]
# name -> (graph, fixes refine individualizes). "c6-fixes0" reads the fix
# from the diagonal and must give the trace of the individualized "c6-fix0".
GOLDEN_INPUTS = {
    "petersen": (petersen_graph, ()),
    "digraph6": (lambda: EdgeColoredGraph(DIGRAPH6), ()),
    "c6-fix0": (lambda: individualize_sequence(cycle_graph(6), [0]), ()),
    "c6-fixes0": (lambda: cycle_graph(6), (0,)),
}


@pytest.mark.parametrize(
    "name, k, digest, rounds, class_of",
    [
        ("petersen", 1, "b1b7057f9813d3a5d4540a78279feb89", 0, [0] * 10),
        ("petersen", 2, "cb5dbaf141dd6edc6ba92ab5ab669637", 0, [0] * 10),
        ("petersen", 3, "bda9c93050b7fed3271ca7b348cfc3d2", 1, [0] * 10),
        ("digraph6", 1, "cc49ab9b70f398db08dc890e5e2c52bc", 1, [1, 4, 0, 5, 3, 2]),
        ("digraph6", 2, "ce09bef8ba29f7a6f93c828ade9d2ffb", 1, [1, 3, 0, 5, 4, 2]),
        ("digraph6", 3, "43f55db66db89740c45fae89a0e51926", 1, [1, 3, 0, 5, 4, 2]),
        ("c6-fix0", 1, "c1d9af244dd41ab16fa3f3ee6bdb4e17", 2, [3, 0, 2, 1, 2, 0]),
        ("c6-fix0", 2, "f73e31398d66c0171c880aa5e0ce7629", 2, [3, 2, 0, 1, 0, 2]),
        ("c6-fix0", 3, "2cf4f299464271abf382e3e6828bbb96", 2, [3, 0, 1, 2, 1, 0]),
        ("c6-fixes0", 1, "c1d9af244dd41ab16fa3f3ee6bdb4e17", 2, [3, 0, 2, 1, 2, 0]),
        ("c6-fixes0", 2, "f73e31398d66c0171c880aa5e0ce7629", 2, [3, 2, 0, 1, 0, 2]),
        ("c6-fixes0", 3, "2cf4f299464271abf382e3e6828bbb96", 2, [3, 0, 1, 2, 1, 0]),
    ],
)
def test_golden_traces(name, k, digest, rounds, class_of):
    # Pins the trace bytes, so any change to atoms, hashing or id order shows.
    graph, fixes = GOLDEN_INPUTS[name]
    coloring = refine(graph(), RefinementConfig(k=k), fixes)
    assert coloring.trace_digest.hex() == digest
    assert coloring.rounds_used == rounds
    assert coloring.vertex_partition.class_of.tolist() == class_of


def test_config_validation():
    with pytest.raises(ValueError):
        RefinementConfig(k=4)


def test_pair_hashes_are_salted_after_mixing():
    # Vertices 0 and 2 share an atom and differ only in their pair to
    # vertex 1, so one round splits them and the next is stable. Salting
    # ids before mixing made two hashes collide here and took two rounds.
    coloring = refine(EdgeColoredGraph([[6, 1, 1], [1, 5, 0], [1, 0, 6]]), K2)
    assert coloring.rounds_used == 1
    assert coloring.is_discrete()


def test_order_above_the_exact_bound_is_a_resource_limit(monkeypatch):
    assert refinement._EXACT_ORDER == 8192
    monkeypatch.setattr(refinement, "_EXACT_ORDER", 3)
    assert refine(cycle_graph(3), K2).rounds_used == 0
    for cfg in (K1, K2):
        with pytest.raises(ResourceLimitError, match="exact"):
            refine(cycle_graph(4), cfg)
    # k=3 sums wrap in uint64 and have no bound.
    assert refine(cycle_graph(4), K3).vertex_partition.classes == ((0, 1, 2, 3),)
