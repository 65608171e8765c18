"""Property tests of refine, iso_test and compute_orbits on random small
graphs, against brute force and against the engine with its k=1 gate
forced, of the two forms of the k=1 pair terms against a per-entry
reference, of refining fixes against refining the individualized graph,
of stage_orbits against grouping by canonical form, of the array
scans of partitions against loop references, of compute_orbits against
a reference that sweeps in every iteration, and of verify_merge's twin
step on planted twins and half-twins."""

from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    brute_orbits,
    compute_orbits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_undirected_edges,
    individualize_sequence,
    is_automorphism,
    iso_test,
    path_graph,
    petersen_graph,
    refine,
    verify_merge,
)
from autorbits import engine, refinement
from util import (
    cycle_union,
    exact_wl,
    form_grouped_stage_orbits,
    graph_from_bitmask,
    hypercube_graph,
    per_entry_k1_sums,
    reference_candidate_order,
    reference_classes,
    reference_compute_orbits,
    reference_merge_candidates,
    rook_graph_4x4,
    shrikhande_graph,
)


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


@st.composite
def gate_cases(draw):
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(("simple", "colored", "cycle", "complete", "empty", "path", "union")))
    if kind == "simple":
        g = graph_from_bitmask(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    elif kind == "colored":
        cells = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
        g = EdgeColoredGraph(np.array(cells, dtype=np.int64).reshape(n, n))
    elif kind == "union" and n >= 6:
        a = draw(st.integers(3, n - 3))
        g = disjoint_union(cycle_graph(a), cycle_graph(n - a))
    elif kind == "cycle" and n == 10:
        g = petersen_graph()
    elif kind == "cycle" and n >= 3:
        g = cycle_graph(n)
    else:
        g = {"complete": complete_graph, "empty": empty_graph}.get(kind, path_graph)(n)
    # A second graph one cell pair away from g: often non-isomorphic, and
    # often hard to tell apart by refinement alone.
    mat = g.colors.copy()
    i, j, a, b = (draw(st.integers(0, n - 1)) for _ in range(4))
    mat[i, j] = mat[j, i] = g.colors[a, b]
    perm = Permutation(np.array(draw(st.permutations(range(n))), dtype=np.int64))
    k = draw(st.sampled_from((2, 3)))
    return g, EdgeColoredGraph(mat), perm, RefinementConfig(k=k)


def _under_gate(gate, fn, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "ONE_WL_FIRST", gate)
        return fn(*args)


def _orbit_answer(system):
    return (
        system.partition.classes,
        [w.as_list() for w in system.generators],
        system.status,
        asdict(system.stats),
    )


def _iso_answer(result):
    witness = None if result.witness is None else result.witness.as_list()
    return result.verdict, witness, asdict(result.stats)


ALWAYS, NEVER = 1, 1 << 62
K1 = RefinementConfig(k=1)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(gate_cases())
def test_one_wl_first_changes_no_answer(case):
    g, other, perm, cfg = case
    on = _under_gate(ALWAYS, compute_orbits, g, cfg)
    assert _orbit_answer(on) == _orbit_answer(_under_gate(NEVER, compute_orbits, g, cfg))

    for second in (g, other):
        h = apply_permutation(second, perm)
        on = _under_gate(ALWAYS, iso_test, g, h, cfg)
        assert _iso_answer(on) == _iso_answer(_under_gate(NEVER, iso_test, g, h, cfg))
        if g.n <= 7:
            assert (on.verdict == ISOMORPHIC) == (brute_iso(g, h) is not None)
        if on.verdict == ISOMORPHIC:
            assert apply_permutation(g, on.witness) == h


@st.composite
def k1_cases(draw):
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("undirected", "tournament", "2-color", "5-color", "wide")))
    if kind in ("undirected", "tournament"):
        g = graph_from_bitmask(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
        if kind == "tournament":
            # Every pair oriented: an edge points up, a non-edge down.
            up = np.triu(g.colors == 1, 1) | np.tril(g.colors == 2, -1)
            g = EdgeColoredGraph(np.where(up, 1, 2) - 2 * np.eye(n, dtype=np.int64))
    else:
        palette = {"2-color": (0, 1), "5-color": tuple(range(5)), "wide": (0, 1, 2**40)}[kind]
        cells = draw(st.lists(st.sampled_from(palette), min_size=n * n, max_size=n * n))
        g = EdgeColoredGraph(np.array(cells, dtype=np.int64).reshape(n, n))
    order = draw(st.permutations(range(n)))
    fixes = order[: draw(st.integers(0, min(n, 4)))]
    return g, fixes, draw(st.sampled_from((1, 5, 1 << 16)))


def _refine_answer(coloring):
    return coloring.vertex_partition.class_of.tolist(), coloring.rounds_used, coloring.trace_digest


def _two_codes_high_loops():
    # A 2-code graph whose vertex colors reach id 13: the base graph gets
    # the indicator form, and three fixes take the individualized diagonal
    # to ids 14-16, past the ids that form codes off the diagonal.
    mat = cycle_graph(9).colors.copy()
    np.fill_diagonal(mat, [13, 0, 5, 0, 13, 2, 0, 0, 7])
    return EdgeColoredGraph(mat), [4, 0, 7], 1 << 16


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k1_cases())
@example(_two_codes_high_loops())
def test_both_k1_pair_term_forms_match_the_per_entry_reference(case):
    g, fixes, block = case
    c = g.colors.tolist()
    codes = {(c[u][w], c[w][u]) for u in range(g.n) for w in range(g.n) if u != w}
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(refinement._DIMENSIONS, 1, per_entry_k1_sums)
        want = [_refine_answer(refine(h, K1)) for h in (g, individualize_sequence(g, fixes))]
    for gate in (ALWAYS, NEVER):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(refinement, "_INDICATOR_ORDER", gate)
            patch.setattr(refinement, "_BLOCK", block)
            terms = refinement.build_k1_terms(g)
            # The base graph alone chooses the form.
            indicators = gate == ALWAYS and len(codes) <= 2 and g.color_count <= 16
            assert isinstance(terms, refinement._PairIndicators) == indicators
            for given in (None, terms):
                assert [_refine_answer(refine(g, K1, f, given)) for f in ((), fixes)] == want


@st.composite
def fix_cases(draw):
    k = draw(st.sampled_from((1, 2, 3)))
    if k >= 2 and draw(st.booleans()):
        # A small colored digraph, its diagonal drawn like every other cell.
        n = draw(st.integers(1, 6))
        cells = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
        g = EdgeColoredGraph(np.array(cells, dtype=np.int64).reshape(n, n))
        fixes = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    else:
        g, fixes, _ = draw(k1_cases())
    return g, fixes, RefinementConfig(k=k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fix_cases())
def test_refine_of_fixes_matches_the_individualized_graph(case):
    g, fixes, cfg = case
    want = _refine_answer(refine(individualize_sequence(g, fixes), cfg))
    terms = engine.Run(g, K1)._k1_terms
    assert _refine_answer(refine(g, cfg, fixes)) == want
    assert _refine_answer(refine(g, cfg, fixes, terms)) == want
    # Terms belong to the graph object they were built from, not to an
    # equal matrix.
    with pytest.raises(ValueError, match="another graph"):
        refine(EdgeColoredGraph(g.colors), cfg, fixes, terms)


@st.composite
def stage_cases(draw):
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("simple", "circulant", "directed circulant")))
    if kind == "simple":
        g = graph_from_bitmask(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    else:
        # A circulant is vertex-transitive, so its regular stages have
        # classes whose extensions must be matched. A directed one can have
        # more than two automorphic extensions with one digest.
        offsets = draw(st.lists(st.integers(1, max(1, n - 1)), max_size=4))
        v = np.arange(n)
        arc = np.isin((v[None, :] - v[:, None]) % n, offsets)
        if kind == "circulant":
            arc |= arc.T
        g = EdgeColoredGraph(np.where(arc, 1, 2) - 2 * np.eye(n, dtype=np.int64))
    return g, RefinementConfig(k=draw(st.sampled_from((1, 2))))


NAMED_STAGE_GRAPHS = (
    petersen_graph(), hypercube_graph(4), rook_graph_4x4(), shrikhande_graph(), cycle_graph(5),
)


def _with_named_graphs(test):
    for g in NAMED_STAGE_GRAPHS:
        for k in (1, 2):
            test = example((g, RefinementConfig(k=k)))(test)
    return test


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stage_cases())
@_with_named_graphs
def test_stage_orbits_matches_grouping_by_canonical_form(case):
    g, cfg = case
    run = engine.Run(g, cfg)
    for v in range(g.n):
        stage = engine.find_regular_stage(run, first_seed=v)
        part, gens = engine.stage_orbits(run, stage)
        want_part, want_gens = form_grouped_stage_orbits(run, stage)
        assert part.classes == want_part.classes
        assert [w.as_list() for w in gens] == [w.as_list() for w in want_gens]


@st.composite
def class_maps(draw, n):
    """A partition of [0, n) with dense class ids in a drawn order."""
    drawn = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    values, inverse = np.unique(drawn, return_inverse=True)
    order = np.array(draw(st.permutations(range(values.size))), dtype=np.int64)
    return OrderedPartition(order[inverse])


@st.composite
def scan_cases(draw):
    n = draw(st.integers(1, 12))
    q, stable = draw(class_maps(n)), draw(class_maps(n))
    exclude = draw(st.sets(st.integers(0, n - 1), max_size=3))
    return q, stable, exclude


def _assert_scans_match(q, stable, exclude):
    classes = reference_classes(q)
    assert q.classes == classes
    assert q.first_members().tolist() == [members[0] for members in classes]
    coloring = SimpleNamespace(vertex_partition=q)
    assert engine._candidate_order(coloring, exclude) == reference_candidate_order(coloring, exclude)
    assert list(engine._merge_candidates(q, stable)) == reference_merge_candidates(q, stable)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scan_cases())
def test_partition_scans_match_the_loop_references_on_class_maps(case):
    _assert_scans_match(*case)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stage_cases())
@_with_named_graphs
def test_partition_scans_match_the_loop_references_on_reached_stages(case):
    g, cfg = case
    run = engine.Run(g, cfg)
    for v in range(g.n):
        engine.find_regular_stage(run, first_seed=v)
    stable = run.stage(()).coloring.vertex_partition
    for stage in list(run._stages.values()):
        part = stage.coloring.vertex_partition
        _assert_scans_match(part, stable, {0, g.n - 1})
        _assert_scans_match(stable, part, set(stage.fixes))



def _assert_orbits_match_the_reference(g, cfg, budget=None):
    got = compute_orbits(g, cfg, budget)
    want = reference_compute_orbits(g, cfg, budget)
    assert got.status == want.status
    assert got.partition == want.partition
    assert [w.as_list() for w in got.generators] == [w.as_list() for w in want.generators]
    assert asdict(got.stats) == asdict(want.stats)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stage_cases(), st.sampled_from((None, 0, 1, 2, 3)))
def test_compute_orbits_matches_the_sweep_per_iteration_reference(case, budget):
    _assert_orbits_match_the_reference(*case, budget)


# Random small graphs seldom merge past their stage orbits or idle after
# the first sweep; these do both.
SWEEP_CASES = {
    "q3@k1": (hypercube_graph(3), 1),
    "q3@k2": (hypercube_graph(3), 2),
    "q4@k1": (hypercube_graph(4), 1),
    "q4@k2": (hypercube_graph(4), 2),
    "rook4@k2": (rook_graph_4x4(), 2),
    "shrikhande@k2": (shrikhande_graph(), 2),
    "c3+c4@k1": (cycle_union(3, 4), 1),
    "3c3+3c4@k1": (cycle_union(3, 3, 3, 4, 4, 4), 1),
    "c20+c21@k1": (cycle_union(20, 21), 1),
}


@pytest.mark.parametrize("name", SWEEP_CASES)
def test_compute_orbits_matches_the_sweep_per_iteration_reference_on_named_graphs(name):
    g, k = SWEEP_CASES[name]
    _assert_orbits_match_the_reference(g, RefinementConfig(k=k))


@pytest.mark.parametrize("n", range(20, 41, 2))
def test_compute_orbits_matches_the_sweep_per_iteration_reference_on_rigid_cubics(n):
    networkx = pytest.importorskip("networkx")
    g = from_undirected_edges(n, networkx.random_regular_graph(3, n, seed=n).edges())
    _assert_orbits_match_the_reference(g, RefinementConfig(k=1))


def _symmetrized(mat, perm):
    """mat made invariant under perm, a permutation of order at most 3:
    each pair takes the color of the first pair of its orbit, in row-major
    order."""
    cells = np.arange(mat.size).reshape(mat.shape)
    first, power = cells, perm
    for _ in range(2):
        first = np.minimum(first, cells[np.ix_(power, power)])
        power = perm[power]
    return mat.reshape(-1)[first]


@st.composite
def planted_twin_cases(draw):
    """A colored digraph with two planted vertices o1 and o2, and their swap.

    They are twins (the swap is an automorphism), or half-twins that some
    other automorphism maps onto each other, so that no refinement
    separates them: with (o1 o2)(a b) an automorphism, row o2 is row o1
    read through the swap but column o2 is not column o1 read through it,
    or the other way round; or, with (o1 o2 a) an automorphism, c(o1, o2)
    != c(o2, o1). Or nothing is planted.
    """
    n = draw(st.integers(2, 8))
    cells = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
    mat = np.array(cells, dtype=np.int64).reshape(n, n)
    order = draw(st.permutations(range(n)))
    o1, o2 = order[:2]
    kinds = ("twins", "unplanted") + ("asymmetric",) * (n >= 3) + ("row", "column") * (n >= 4)
    kind = draw(st.sampled_from(kinds))
    swap = np.arange(n)
    swap[[o1, o2]] = o2, o1
    if kind == "twins":
        mat = _symmetrized(mat, swap)
    elif kind == "asymmetric":
        a = order[2]
        cycle = np.arange(n)
        cycle[[o1, o2, a]] = o2, a, o1
        mat = _symmetrized(mat, cycle)
        mat[o2, o1] = mat[a, o2] = mat[o1, a] = (mat[o1, o2] + 1) % 3
    elif kind in ("row", "column"):
        a, b = order[2:4]
        both = swap.copy()
        both[[a, b]] = b, a
        mat = _symmetrized(mat, both)
        if kind == "column":
            mat = mat.T
        mat[o1, a] = mat[o1, b] = mat[o2, a] = mat[o2, b] = mat[o1, a]
        mat[b, o1] = mat[a, o2] = (mat[a, o1] + 1) % 3
        if kind == "column":
            mat = mat.T
    return EdgeColoredGraph(mat), o1, o2, Permutation(swap), RefinementConfig(k=draw(st.sampled_from((1, 2))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(planted_twin_cases())
def test_twin_step_returns_only_verified_swaps(case):
    g, o1, o2, swap, cfg = case
    run = engine.Run(g, cfg)
    w = verify_merge(run, OrderedPartition.singletons(g.n), o1, o2)
    if is_automorphism(g, swap):
        # Twins are merged by their swap, with no refine past the base stage.
        assert w == swap
        assert (run.stats.refine_calls, run.stats.verify_tree_nodes) == (1, 0)
    else:
        assert w is None or (is_automorphism(g, w) and w(o1) == o2)
    assert compute_orbits(g, cfg).partition.same_blocks(brute_orbits(g))
