
from types import SimpleNamespace

import numpy as np
import pytest

from autorbits import (
    CERTIFIED,
    EdgeColoredGraph,
    INCONCLUSIVE,
    ISOMORPHIC,
    LOWER_BOUND,
    NON_ISOMORPHIC,
    NotDiscreteError,
    OrderedPartition,
    RefinementConfig,
    Run,
    SizeMismatchError,
    apply_permutation,
    brute_iso,
    brute_orbits,
    canonical_form_discrete,
    closure_orbits,
    complete_graph,
    compute_orbits,
    cycle_graph,
    disjoint_union,
    empty_graph,
    extract_isomorphism,
    find_regular_stage,
    from_undirected_edges,
    individualize_sequence,
    is_automorphism,
    iso_test,
    path_graph,
    petersen_graph,
    refine,
    stage_orbits,
    verify_merge,
)
from autorbits import engine, refinement
from util import (
    cycle_union,
    paley_graph,
    random_permutation,
    random_simple_graph,
    rigid6,
    rook_graph_4x4,
    shrikhande_graph,
)

K1 = RefinementConfig(k=1)
K2 = RefinementConfig(k=2)


# ---------------------------------------------------------------- stages


def test_regular_stage_discrete_graph_stops_immediately():
    stage = find_regular_stage(Run(rigid6(), K2))
    assert stage.fixes == ()
    assert stage.coloring.is_discrete()


def test_regular_stage_k4():
    stage = find_regular_stage(Run(complete_graph(4), K1))
    assert len(stage.fixes) == 2
    sizes = sorted(len(c) for c in stage.coloring.vertex_partition.classes)
    assert sizes == [1, 1, 2]


def test_regular_stage_c5():
    stage = find_regular_stage(Run(cycle_graph(5), K1))
    assert len(stage.fixes) == 1
    part = stage.coloring.vertex_partition
    v0 = stage.fixes[0]
    assert part.same_blocks(
        OrderedPartition.from_classes([[v0], [(v0 + 1) % 5, (v0 - 1) % 5],
                                       [(v0 + 2) % 5, (v0 - 2) % 5]])
    )


def test_regular_stage_postcondition():
    # any single further individualization of a non-singleton vertex is discrete
    rng = np.random.default_rng(30)
    for _ in range(10):
        g = random_simple_graph(rng, int(rng.integers(4, 8)), 0.5)
        stage = find_regular_stage(Run(g, K2))
        part = stage.coloring.vertex_partition
        if part.is_discrete():
            assert stage.fixes == ()
            continue
        for members in part.classes:
            if len(members) < 2:
                continue
            for y in members:
                follow = refine(individualize_sequence(g, list(stage.fixes) + [y]), K2)
                assert follow.is_discrete()


# ----------------------------------------------------------- stage store


def test_stage_store_returns_the_stored_object():
    run = Run(cycle_graph(6), K1)
    first = run.stage((0, 2))
    assert run.stage([0, 2]) is first
    assert run.stage(()) is run.stage(())
    assert run.stats.refine_calls == 2


def test_stage_store_refines_each_distinct_tuple_once(monkeypatch):
    calls = []
    real_refine = engine.refine

    def counting_refine(g, cfg=None, *rest):
        calls.append(g)
        return real_refine(g, cfg, *rest)

    monkeypatch.setattr(engine, "refine", counting_refine)
    run = Run(petersen_graph(), K2)
    asked = [(), (0,), (0, 1), (), (0,), (1, 0), (0, 1), ()]
    for fixes in asked:
        run.stage(fixes)
    assert len(calls) == len(set(asked)) == run.stats.refine_calls


def _k1_term_builds(monkeypatch):
    """Graphs that k=1 pair terms are built from, by a run or by a refine."""
    builds = []
    real_build = refinement.build_k1_terms

    def spy(g):
        builds.append(g)
        return real_build(g)

    for module in (engine, refinement):
        monkeypatch.setattr(module, "build_k1_terms", spy)
    return builds


def _terms_passed(monkeypatch):
    """(k, k1_terms) of every refine the engine calls."""
    passed = []
    real_refine = engine.refine

    def spy(g, cfg=None, fixes=(), k1_terms=None):
        passed.append((cfg.k, k1_terms))
        return real_refine(g, cfg, fixes, k1_terms)

    monkeypatch.setattr(engine, "refine", spy)
    return passed


def test_k1_pair_terms_are_built_once_per_run(monkeypatch):
    builds, passed = _k1_term_builds(monkeypatch), _terms_passed(monkeypatch)
    g = complete_graph(40)
    system = compute_orbits(g, K1)
    assert system.stats.refine_calls > 1 and len(builds) == 1 and builds[0] is g
    # Every stage is refined with the run's terms.
    assert len(passed) == system.stats.refine_calls
    assert all(terms is passed[0][1] and terms.graph is g for _, terms in passed)
    builds.clear()
    h = complete_graph(40)
    assert iso_test(g, h, K1).verdict == ISOMORPHIC
    assert len(builds) == 2 and builds[0] is g and builds[1] is h
    # A direct refine builds its own terms, and a graph holds none.
    builds.clear()
    refine(g, K1)
    refine(g, K1, [0])
    assert len(builds) == 2
    assert EdgeColoredGraph.__slots__ == ("colors", "n", "color_count")


def test_k2_run_builds_k1_terms_per_pass_and_keeps_none(monkeypatch):
    monkeypatch.setattr(engine, "ONE_WL_FIRST", 1)
    builds, passed = _k1_term_builds(monkeypatch), _terms_passed(monkeypatch)
    g = petersen_graph()
    system = compute_orbits(g, K2)
    assert system.status == CERTIFIED
    k1_passes = [k for k, _ in passed].count(1)
    assert k1_passes == system.stats.refine_calls > 1
    # A k >= 2 run passes no terms, so each k=1 pass builds and frees its own.
    assert all(terms is None for _, terms in passed)
    assert len(builds) == k1_passes and all(b is g for b in builds)


def test_stored_stage_equals_a_fresh_refine():
    g = petersen_graph()
    fixes = (3, 7)
    stage = Run(g, K2).stage(fixes)
    fresh = refine(individualize_sequence(g, fixes), K2)
    assert stage.coloring.vertex_partition == fresh.vertex_partition
    assert stage.coloring.trace_digest == fresh.trace_digest


def _refines_by_k(monkeypatch):
    calls = []
    real_refine = engine.refine

    def spy(g, cfg=None, *rest):
        calls.append(cfg.k)
        return real_refine(g, cfg, *rest)

    monkeypatch.setattr(engine, "refine", spy)
    return calls


def test_one_wl_discrete_stages_skip_the_k2_refine(monkeypatch):
    rng = np.random.default_rng(80)
    g = random_simple_graph(rng, 80)
    assert refine(g, K1).is_discrete()
    calls = _refines_by_k(monkeypatch)
    system = compute_orbits(g, K2)
    assert calls == [1]
    assert system.status == CERTIFIED and system.partition.is_discrete()
    assert system.stats.refine_calls == 1


def test_stages_that_one_wl_leaves_open_get_the_k2_refine(monkeypatch):
    g = cycle_graph(64)
    calls = _refines_by_k(monkeypatch)
    stage = Run(g, K2).stage(())
    assert calls == [1, 2]
    assert stage.coloring.trace_digest == refine(g, K2).trace_digest


@pytest.mark.parametrize("g", [petersen_graph(), complete_graph(8)], ids=["petersen", "k8"])
def test_bounded_stage_store_gives_the_same_orbits(g, monkeypatch):
    default = compute_orbits(g, K2)
    bound = 3 * g.n
    monkeypatch.setattr(engine, "STAGE_STORE_VERTICES", bound)
    stored = engine.Run._stage
    sizes = []

    def checked_stage(run, fixes):
        out = stored(run, fixes)
        sizes.append(len(run._stages) * g.n)
        return out

    monkeypatch.setattr(engine.Run, "_stage", checked_stage)
    small = compute_orbits(g, K2)
    assert sizes and max(sizes) <= bound
    assert small.partition == default.partition
    assert small.status == default.status == CERTIFIED
    assert [w.as_list() for w in small.generators] == [
        w.as_list() for w in default.generators
    ]
    assert small.stats.refine_calls > default.stats.refine_calls


# ------------------------------------------------- forms and extraction


def test_canonical_form_requires_discrete():
    run = Run(complete_graph(4), K1)
    with pytest.raises(NotDiscreteError):
        canonical_form_discrete(run.stage(()))


def test_canonical_form_deterministic_and_relabeling_invariant():
    rng = np.random.default_rng(31)
    g = random_simple_graph(rng, 6, 0.5)
    run = Run(g, K2)
    stage = find_regular_stage(run)
    fixes = stage.fixes
    if not stage.coloring.is_discrete():
        y = engine._candidate_order(stage.coloring)[0]
        fixes = fixes + (y,)
    s1 = run.stage(fixes)
    assert canonical_form_discrete(s1) == canonical_form_discrete(run.stage(fixes))

    perm = random_permutation(rng, 6)
    gp = apply_permutation(g, perm)
    runp = Run(gp, K2)
    mapped = tuple(perm(v) for v in fixes)
    s2 = runp.stage(mapped)
    assert canonical_form_discrete(s1) == canonical_form_discrete(s2)


def test_forms_separate_classes_in_c5():
    run = Run(cycle_graph(5), K1)
    f01 = canonical_form_discrete(run.stage((0, 1)))
    f04 = canonical_form_discrete(run.stage((0, 4)))
    f02 = canonical_form_discrete(run.stage((0, 2)))
    assert f01 == f04  # 1 and 4 lie in one stabilizer orbit
    assert f01 != f02  # 2 does not


def test_extract_isomorphism_identity_and_reflection():
    run = Run(cycle_graph(5), K1)
    s = run.stage((0, 1))
    ident = extract_isomorphism(s, s)
    assert ident.is_identity()
    w = extract_isomorphism(s, run.stage((0, 4)))
    assert w.as_list() == [0, 4, 3, 2, 1]
    assert is_automorphism(cycle_graph(5), w)


def test_extract_isomorphism_cross_graph_none():
    r1 = Run(complete_graph(3), K1)
    r2 = Run(path_graph(3), K1)
    s1 = r1.stage((0, 1))
    s2 = r2.stage((0, 1))
    assert s1.coloring.is_discrete() and s2.coloring.is_discrete()
    assert extract_isomorphism(s1, s2) is None


# -------------------------------------------------------- stage orbits


def test_stage_orbits_k4():
    g = complete_graph(4)
    run = Run(g, K1)
    stage = find_regular_stage(run)
    part, gens = stage_orbits(run, stage)
    rest = tuple(v for v in range(4) if v not in stage.fixes)
    assert part.same_blocks(
        OrderedPartition.from_classes([[stage.fixes[0]], [stage.fixes[1]], list(rest)])
    )
    assert all(is_automorphism(g, w) for w in gens)


def test_stage_orbits_c5():
    g = cycle_graph(5)
    run = Run(g, K1)
    stage = find_regular_stage(run)
    part, gens = stage_orbits(run, stage)
    assert part.same_blocks(OrderedPartition.from_classes([[0], [1, 4], [2, 3]]))
    assert gens and all(is_automorphism(g, w) for w in gens)


def test_stage_orbits_rigid_graph_no_generators():
    g = rigid6()
    run = Run(g, K2)
    stage = find_regular_stage(run)
    part, gens = stage_orbits(run, stage)
    assert part.is_discrete() and gens == []


def test_rigid_cubic_k1_search_builds_no_canonical_form(monkeypatch):
    # Every one-vertex extension of this rigid graph's base stage is
    # discrete with its own trace digest, so nothing needs a form.
    networkx = pytest.importorskip("networkx")

    def refuse(stage):
        raise AssertionError("the search built a canonical form")

    monkeypatch.setattr(engine, "canonical_form_discrete", refuse)
    cubic = networkx.random_regular_graph(3, 60, seed=60)
    system = compute_orbits(from_undirected_edges(60, cubic.edges()), K1)
    assert system.status == LOWER_BOUND
    assert system.partition.classes == tuple((v,) for v in range(60))


def test_search_validates_no_fixes_it_built_itself(monkeypatch):
    # Only refine validates fixes, once per store miss: the engine's own
    # lookups take the tuples it built as they are.
    networkx = pytest.importorskip("networkx")
    calls = []
    real = refinement.fix_sequence

    def counting(fixes, n):
        calls.append(fixes)
        return real(fixes, n)

    monkeypatch.setattr(refinement, "fix_sequence", counting)
    monkeypatch.setattr(engine, "fix_sequence", counting)
    cubic = networkx.random_regular_graph(3, 60, seed=60)
    system = compute_orbits(from_undirected_edges(60, cubic.edges()), K1)
    assert system.stats.refine_calls == 61
    assert len(calls) <= system.stats.refine_calls


def test_find_regular_stage_validates_its_seed_on_a_store_hit():
    run = Run(cycle_graph(5), K1)
    run.stage((1,))
    with pytest.raises(ValueError):
        find_regular_stage(run, first_seed=1.0)
    assert find_regular_stage(run, first_seed=np.int64(1)).fixes == (1,)


# ------------------------------------------------------- compute_orbits


def test_orbits_complete_graphs():
    for n in (2, 3, 5, 7):
        system = compute_orbits(complete_graph(n), K1)
        assert system.status == CERTIFIED
        assert system.partition.classes == (tuple(range(n)),)
        assert closure_orbits(n, list(system.generators)).same_blocks(system.partition)


def test_orbits_path():
    system = compute_orbits(path_graph(3), K1)
    assert system.status == CERTIFIED
    assert system.partition.same_blocks(OrderedPartition.from_classes([[0, 2], [1]]))


def test_orbits_petersen():
    system = compute_orbits(petersen_graph(), K2)
    assert system.status == CERTIFIED
    assert system.partition.classes == (tuple(range(10)),)


def test_orbits_triangle_plus_square():
    system = compute_orbits(disjoint_union(cycle_graph(3), cycle_graph(4)), K2)
    assert system.status == CERTIFIED
    assert system.partition.same_blocks(
        OrderedPartition.from_classes([[0, 1, 2], [3, 4, 5, 6]])
    )


def test_orbits_two_triangles_merge_across_components():
    system = compute_orbits(disjoint_union(cycle_graph(3), cycle_graph(3)), K2)
    assert system.status == CERTIFIED
    assert system.partition.classes == (tuple(range(6)),)


def test_orbits_rigid_graph():
    system = compute_orbits(rigid6(), K2)
    assert system.status == CERTIFIED
    assert system.partition.is_discrete()
    assert system.generators == ()


def test_orbits_match_oracle_small():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        g = random_simple_graph(rng, n, float(rng.choice([0.2, 0.5, 0.8])))
        system = compute_orbits(g, K2)
        truth = brute_orbits(g)
        assert system.partition.is_finer_or_equal(truth)
        if system.status == CERTIFIED:
            assert system.partition.same_blocks(truth)
        assert all(is_automorphism(g, w) for w in system.generators)
        assert closure_orbits(g.n, list(system.generators)).same_blocks(system.partition)


def test_orbits_deterministic():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    a = compute_orbits(g, K2)
    b = compute_orbits(g, K2)
    assert a.partition == b.partition
    assert a.status == b.status
    assert [w.as_list() for w in a.generators] == [w.as_list() for w in b.generators]
    assert a.stats == b.stats


@pytest.mark.parametrize("budget", [2.5, -3, "3", np.float64(2.0)])
def test_budget_must_be_an_integer_at_least_zero(budget):
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        compute_orbits(g, K1, budget=budget)
    with pytest.raises(ValueError):
        iso_test(g, g, K1, budget=budget)


def test_bool_and_numpy_budgets_count_as_integers():
    g = cycle_graph(5)
    assert compute_orbits(g, K1, budget=True).partition == compute_orbits(g, K1, budget=1).partition
    assert iso_test(g, g, K1, budget=np.int64(64)).verdict == ISOMORPHIC


@pytest.mark.parametrize(
    "g, cfg", [(path_graph(21), K2), (cycle_graph(30), K2), (paley_graph(29), K1)],
    ids=["p21-k2", "c30-k2", "paley29-k1"],
)
def test_each_generator_is_emitted_once(g, cfg):
    system = compute_orbits(g, cfg)
    assert system.status == CERTIFIED
    assert len(set(system.generators)) == len(system.generators)
    assert closure_orbits(g.n, system.generators).same_blocks(system.partition)


def test_budget_zero_means_no_iterations():
    g = complete_graph(4)
    system = compute_orbits(g, K1, budget=0)
    assert system.status == LOWER_BOUND
    assert system.partition.is_discrete()


# ---------------------------------------------------------- verify_merge


def test_verify_merge_c5_singletons():
    g = cycle_graph(5)
    q = OrderedPartition.from_classes([[0], [1], [4], [2, 3]])
    w = verify_merge(Run(g, K1), q, 1, 2)
    assert w is not None and w(1) == 4 and is_automorphism(g, w)


def test_verify_merge_two_triangles():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    q = OrderedPartition.from_classes([[0, 1, 2], [3, 4, 5]])
    w = verify_merge(Run(g, K1), q, 0, 1)
    assert w is not None and w(0) in (3, 4, 5) and is_automorphism(g, w)


def test_verify_merge_triangle_vs_square_fails():
    g = disjoint_union(cycle_graph(3), cycle_graph(4))
    q = OrderedPartition.from_classes([[0, 1, 2], [3, 4, 5, 6]])
    assert verify_merge(Run(g, K1), q, 0, 1) is None


def test_verify_merge_rejects_same_class():
    g = cycle_graph(4)
    q = OrderedPartition.from_classes([[0, 1, 2, 3]])
    with pytest.raises(ValueError):
        verify_merge(Run(g, K1), q, 0, 0)


def test_verify_merge_validates_its_partition():
    run = Run(cycle_graph(5), K1)
    with pytest.raises(SizeMismatchError):
        verify_merge(run, OrderedPartition.singletons(3), 0, 1)
    with pytest.raises(SizeMismatchError):
        verify_merge(run, OrderedPartition.singletons(8), 0, 6)
    for a, b in ((0, 5), (-1, 0), (2, -5)):
        with pytest.raises(ValueError):
            verify_merge(run, OrderedPartition.singletons(5), a, b)


@pytest.mark.parametrize("bad", [1.0, np.float64(2.0), "1", None], ids=repr)
def test_verify_merge_refuses_a_non_integer_class_id(bad):
    run = Run(cycle_graph(5), K1)
    q = OrderedPartition.singletons(5)
    for ids in ((0, bad), (bad, 0)):
        with pytest.raises(ValueError):
            verify_merge(run, q, *ids)
    # A numpy integer or a bool is an integer id.
    want = verify_merge(run, q, 1, 2)
    assert verify_merge(run, q, np.int64(1), np.int64(2)) == want
    assert verify_merge(run, q, True, 2) == want
    assert verify_merge(run, q, False, True) == verify_merge(run, q, 0, 1)


def test_verify_merge_separated_by_base_coloring_refines_once():
    g = disjoint_union(cycle_graph(3), path_graph(3))
    q = OrderedPartition.from_classes([[0, 1, 2], [3, 5], [4]])
    run = Run(g, K1)
    assert verify_merge(run, q, 0, 1) is None
    assert run.stats.refine_calls == 1


def _is_transposition(w):
    moved = np.flatnonzero(w.image != np.arange(w.n))
    return moved.size == 2 and w(moved[0]) == moved[1]


def test_verify_merge_of_twins_is_their_swap_without_a_descent():
    run = Run(complete_graph(5), K1)
    w = verify_merge(run, OrderedPartition.singletons(5), 1, 3)
    assert w.as_list() == [0, 3, 2, 1, 4]
    assert run.stats.refine_calls == 1 and run.stats.verify_tree_nodes == 0


def test_complete_graph_merges_by_twin_swaps():
    system = compute_orbits(complete_graph(40), K1)
    assert system.status == CERTIFIED
    assert (system.stats.refine_calls, system.stats.verify_tree_nodes) == (41, 0)
    assert len(system.generators) == 39
    assert all(_is_transposition(w) for w in system.generators)


def test_empty_graph_merges_by_twin_swaps_at_k2():
    system = compute_orbits(empty_graph(20), K2)
    assert system.status == CERTIFIED
    assert system.stats.refine_calls == 21


STAR = from_undirected_edges(7, [(0, v) for v in range(1, 7)])
K33 = from_undirected_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])


@pytest.mark.parametrize("cfg", [K1, K2], ids=["k1", "k2"])
@pytest.mark.parametrize("g", [STAR, K33], ids=["star", "k33"])
def test_twin_swaps_and_descents_give_the_brute_orbits(g, cfg):
    system = compute_orbits(g, cfg)
    assert system.status == CERTIFIED
    assert system.partition.same_blocks(brute_orbits(g))
    assert closure_orbits(g.n, system.generators).same_blocks(system.partition)


def test_k33_mixes_twin_swaps_with_a_descent_across_its_sides():
    system = compute_orbits(K33, K1)
    # Vertices of one side are twins; the two sides are not, so joining
    # them takes a descent.
    assert any(_is_transposition(w) for w in system.generators)
    assert any(w(0) >= 3 for w in system.generators)
    assert system.stats.verify_tree_nodes > 0


@pytest.mark.parametrize("name", ["cubic40", "c20+c21"])
def test_compute_orbits_sweeps_once_and_tries_each_pair_once(monkeypatch, name):
    # Both runs end lower_bound after idle iterations, which a sweep per
    # iteration would each enumerate again.
    networkx = pytest.importorskip("networkx")
    if name == "cubic40":
        g = from_undirected_edges(40, networkx.random_regular_graph(3, 40, seed=40).edges())
    else:
        g = cycle_union(20, 21)
    enumerations, pairs = [], []
    real_candidates, real_merge = engine._merge_candidates, engine._verify_merge

    def candidates(*args):
        enumerations.append(args)
        return real_candidates(*args)

    def merge(run, o1, o2):
        pairs.append((o1, o2))
        return real_merge(run, o1, o2)

    monkeypatch.setattr(engine, "_merge_candidates", candidates)
    monkeypatch.setattr(engine, "_verify_merge", merge)
    system = compute_orbits(g, K1)
    assert system.status == LOWER_BOUND
    assert len(enumerations) == 1
    assert pairs and len(set(pairs)) == len(pairs)


# ------------------------------------------------------- candidate order


def test_candidate_order_smaller_class_then_earlier_class_then_smaller_vertex():
    q = OrderedPartition.from_classes([[7, 0, 6], [5, 1], [2], [4, 3]])
    coloring = SimpleNamespace(vertex_partition=q)
    assert engine._candidate_order(coloring) == [1, 5, 3, 4, 0, 6, 7]
    assert engine._candidate_order(coloring, exclude={5, 6}) == [1, 3, 4, 0, 7]


def test_candidate_order_discrete_is_empty():
    run = Run(rigid6(), K2)
    assert engine._candidate_order(run.stage(()).coloring) == []


def test_search_repeats_itself_from_the_stage_store():
    run = Run(petersen_graph(), K1)
    stage = find_regular_stage(run, first_seed=0)
    q = OrderedPartition.singletons(10)
    witness = verify_merge(run, q, 0, 1)
    refines = run.stats.refine_calls
    assert find_regular_stage(run, first_seed=0) is stage
    assert witness is not None and verify_merge(run, q, 0, 1) == witness
    assert run.stats.refine_calls == refines


# --------------------------------------------------------------- iso_test


def test_iso_relabelings_yield_verified_witnesses():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(5, 11))
        g = random_simple_graph(rng, n, float(rng.choice([0.3, 0.5, 0.7])))
        perm = random_permutation(rng, n)
        h = apply_permutation(g, perm)
        result = iso_test(g, h, K2)
        assert result.verdict == ISOMORPHIC
        assert apply_permutation(g, result.witness) == h


def test_iso_rejects_different_graphs():
    assert iso_test(complete_graph(3), path_graph(3), K2).verdict == NON_ISOMORPHIC
    assert iso_test(complete_graph(3), complete_graph(4), K2).verdict == NON_ISOMORPHIC


def test_iso_never_emits_unverified_witness():
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(5, 9))
        g1 = random_simple_graph(rng, n, 0.4)
        g2 = random_simple_graph(rng, n, 0.4)
        result = iso_test(g1, g2, K2)
        if result.verdict == ISOMORPHIC:
            assert apply_permutation(g1, result.witness) == g2


def test_iso_hard_pair_k2_separates():
    result = iso_test(rook_graph_4x4(), shrikhande_graph(), K2)
    assert result.verdict == NON_ISOMORPHIC
    assert result.witness is None


def test_iso_hard_pair_k1_never_false_positive():
    result = iso_test(rook_graph_4x4(), shrikhande_graph(), K1)
    assert result.verdict in (NON_ISOMORPHIC, INCONCLUSIVE)
    assert result.witness is None


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("cfg", [K1, K2], ids=["k1", "k2"])
def test_complete_graph_is_not_its_empty_complement(n, cfg):
    g, h = complete_graph(n), empty_graph(n)
    result = iso_test(g, h, cfg)
    assert result.verdict == NON_ISOMORPHIC and result.witness is None
    assert brute_iso(g, h) is None


def test_ids_past_the_input_bound_still_refine():
    # Individualizing a graph whose largest id is 2**62 - 1 gives its fixed
    # vertex the id 2**62, past the bound on input ids.
    g = EdgeColoredGraph([[2**62 - 1, 0, 0], [0, 2**62 - 1, 0], [0, 0, 2**62 - 1]])
    fixed = individualize_sequence(g, [1])
    assert fixed.colors[1, 1] == 2**62
    for cfg in (K1, K2):
        assert refine(fixed, cfg).vertex_partition.same_blocks(
            OrderedPartition.from_classes([[0, 2], [1]])
        )
        system = compute_orbits(g, cfg)
        assert system.status == CERTIFIED and system.partition.class_count == 1


def _atlas_graphs(n):
    from networkx.generators.atlas import graph_atlas_g

    return [
        from_undirected_edges(n, list(G.edges()))
        for G in graph_atlas_g()
        if G.number_of_nodes() == n
    ]


@pytest.mark.parametrize("cfg", [K1, K2], ids=["k1", "k2"])
def test_iso_decides_small_isomorphism_classes(cfg):
    # Every ordered pair of the 34 five-vertex classes, and every pair of the
    # 156 six-vertex classes that base refinement cannot tell apart; the
    # second graph of each pair is relabeled.
    rng = np.random.default_rng(38)
    pairs = 0
    for n, expected_classes in ((5, 34), (6, 156)):
        graphs = _atlas_graphs(n)
        assert len(graphs) == expected_classes
        relabeled = [apply_permutation(g, random_permutation(rng, n)) for g in graphs]
        traces1 = [refine(g, cfg).trace_digest for g in graphs]
        traces2 = [refine(h, cfg).trace_digest for h in relabeled]
        for i, g in enumerate(graphs):
            for j, h in enumerate(relabeled):
                if n == 6 and traces1[i] != traces2[j]:
                    continue
                pairs += 1
                result = iso_test(g, h, cfg)
                truth = brute_iso(g, h)
                if truth is None:
                    assert result.verdict == NON_ISOMORPHIC, (n, i, j)
                    assert result.witness is None
                else:
                    assert result.verdict == ISOMORPHIC, (n, i, j)
                    assert apply_permutation(g, result.witness) == h
    # The exact counts pin which six-vertex pairs share a base trace. K6 and
    # the empty graph differ in color_count, so their traces differ. The
    # trace hashes the stable round too, which at k=1 pins what each class
    # sees (the degree sequence, say), so fewer k=1 pairs share a trace.
    assert pairs == {1: 1320, 2: 1312}[cfg.k]


def test_stable_round_tells_apart_equal_color_count_regular_graphs():
    # 3K2, C6 and K3,3: regular on six vertices with one palette, so k=1
    # never splits them; only the hashed stable round sees the degrees.
    graphs = [
        from_undirected_edges(6, [(0, 1), (2, 3), (4, 5)]),
        cycle_graph(6),
        from_undirected_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    ]
    assert len({refine(g, K1).trace_digest for g in graphs}) == 3
    for g in graphs:
        for h in graphs:
            if g is not h:
                result = iso_test(g, h, K1)
                assert result.verdict == NON_ISOMORPHIC
                assert result.stats.verify_tree_nodes == 2


def test_iso_relabeled_long_cycle_is_cheap():
    rng = np.random.default_rng(39)
    g = cycle_graph(100)
    h = apply_permutation(g, random_permutation(rng, 100))
    result = iso_test(g, h, K1)
    assert result.verdict == ISOMORPHIC
    assert apply_permutation(g, result.witness) == h
    assert result.stats.refine_calls <= 10


def test_iso_descent_is_not_recursive():
    import sys

    from autorbits import empty_graph

    # The empty graph is individualized one vertex per level down to a
    # discrete stage, so the descent is 150 levels deep.
    rng = np.random.default_rng(40)
    g = empty_graph(150)
    h = apply_permutation(g, random_permutation(rng, 150))
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        result = iso_test(g, h, K1)
    finally:
        sys.setrecursionlimit(limit)
    assert result.verdict == ISOMORPHIC
    assert result.stats.verify_tree_depth_max >= 150


def test_iso_budget_cut_is_inconclusive():
    # Rook 4x4 vs Shrikhande at k=1 needs 226 descent nodes to exhaust
    # (the count follows the class order, which the round hashes set).
    cut = iso_test(rook_graph_4x4(), shrikhande_graph(), K1, budget=100)
    assert cut.verdict == INCONCLUSIVE and cut.witness is None
    assert cut.stats.verify_tree_nodes <= 100
    full = iso_test(rook_graph_4x4(), shrikhande_graph(), K1)
    assert full.verdict == NON_ISOMORPHIC
    assert full.stats.verify_tree_nodes == 226


def test_iso_stats_are_aggregated():
    result = iso_test(cycle_graph(5), cycle_graph(5), K1)
    assert result.verdict == ISOMORPHIC
    assert result.stats.refine_calls > 0


def test_depth_instrumentation_bounded():
    rng = np.random.default_rng(35)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        g = random_simple_graph(rng, n, 0.5)
        system = compute_orbits(g, K2)
        bound = int(np.ceil(np.log2(max(2, g.n)))) + 1
        assert system.stats.verify_tree_depth_max <= bound


def test_verify_merge_depth_budget_flagged(monkeypatch):
    g = from_undirected_edges(4, [(0, 1), (2, 3)])
    q = OrderedPartition.from_classes([[0, 1], [2, 3]])
    # with the default budget the swap is found
    w = verify_merge(Run(g, K1), q, 0, 1)
    assert w is not None and is_automorphism(g, w)
    # bridging the two edges needs a second level; budget 1 cuts it off
    monkeypatch.setattr(engine, "_default_depth_budget", lambda n: 1)
    run = Run(g, K1)
    assert verify_merge(run, q, 0, 1) is None
    assert run.stats.depth_budget_hits >= 1


def test_extract_isomorphism_requires_discrete():
    run = Run(complete_graph(4), K1)
    s = run.stage(())
    with pytest.raises(NotDiscreteError):
        extract_isomorphism(s, s)


def test_found_generators_compose_to_automorphisms():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    system = compute_orbits(g, K2)
    gens = list(system.generators)
    assert len(gens) >= 2
    for a in gens[:3]:
        for b in gens[:3]:
            assert is_automorphism(g, a.compose(b))


def test_orbits_petersen_confirmed_by_forced_oracle():
    system = compute_orbits(petersen_graph(), K2)
    truth = brute_orbits(petersen_graph(), max_n=10)
    assert system.status == CERTIFIED
    assert system.partition.same_blocks(truth)


def test_engine_with_k3_config():
    k3 = RefinementConfig(k=3)
    system = compute_orbits(cycle_graph(5), k3)
    assert system.status == CERTIFIED
    assert system.partition.classes == ((0, 1, 2, 3, 4),)
    system = compute_orbits(path_graph(4), k3)
    assert system.partition.same_blocks(OrderedPartition.from_classes([[0, 3], [1, 2]]))


def test_engine_tiny_graphs():
    from autorbits import EdgeColoredGraph, empty_graph

    one = compute_orbits(EdgeColoredGraph([[0]]), K1)
    assert one.status == CERTIFIED and one.partition.classes == ((0,),)
    two = compute_orbits(empty_graph(2), K1)
    assert two.status == CERTIFIED and two.partition.classes == ((0, 1),)


def test_two_triangles_certify():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    system = compute_orbits(g, K2)
    assert system.status == CERTIFIED
    assert system.partition.classes == (tuple(range(6)),)
    truth = brute_orbits(g)
    assert system.partition.same_blocks(truth)


def test_moderate_size_run_is_quick():
    import time

    rng = np.random.default_rng(5)
    edges = [(i, j) for i in range(100) for j in range(i + 1, 100) if rng.random() < 0.3]
    from autorbits import from_undirected_edges

    g = from_undirected_edges(100, edges)
    t0 = time.perf_counter()
    system = compute_orbits(g, K2)
    assert time.perf_counter() - t0 < 10.0
    assert system.status == CERTIFIED
    assert system.partition.is_discrete()


def test_orbits_on_colored_digraphs_match_oracle():
    from util import random_colored_digraph

    rng = np.random.default_rng(36)
    certified = 0
    for _ in range(60):
        n = int(rng.integers(3, 8))
        g = random_colored_digraph(rng, n, colors=int(rng.integers(2, 5)))
        system = compute_orbits(g, K2)
        truth = brute_orbits(g)
        assert system.partition.is_finer_or_equal(truth)
        if system.status == CERTIFIED:
            certified += 1
            assert system.partition.same_blocks(truth)
        assert all(is_automorphism(g, w) for w in system.generators)
    assert certified >= 55  # random pair colorings are almost always rigid


def test_iso_on_relabeled_colored_digraphs():
    from util import random_colored_digraph

    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        g = random_colored_digraph(rng, n, colors=3)
        perm = random_permutation(rng, n)
        h = apply_permutation(g, perm)
        result = iso_test(g, h, K2)
        assert result.verdict == ISOMORPHIC
        assert apply_permutation(g, result.witness) == h
