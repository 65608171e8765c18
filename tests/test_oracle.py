import numpy as np
import pytest

from autorbits import (
    Permutation,
    SizeLimitError,
    apply_permutation,
    brute_aut,
    brute_iso,
    brute_orbits,
    closure_orbits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_automorphism,
    path_graph,
)
from util import random_permutation, random_simple_graph, rigid6


def test_k3_has_full_symmetric_group():
    auts = brute_aut(complete_graph(3))
    assert len(auts) == 6


def test_path_has_identity_and_reversal():
    auts = brute_aut(path_graph(3))
    assert [a.as_list() for a in auts] == [[0, 1, 2], [2, 1, 0]]


def test_c5_has_dihedral_group():
    assert len(brute_aut(cycle_graph(5))) == 10


def test_aut_output_closed_under_composition_and_inverse():
    g = cycle_graph(4)
    auts = set(brute_aut(g))
    for a in auts:
        assert a.inverse() in auts
        for b in auts:
            assert a.compose(b) in auts


def test_size_limit_and_override():
    g = complete_graph(9)
    with pytest.raises(SizeLimitError):
        brute_aut(g)
    with pytest.raises(SizeLimitError):
        brute_iso(g, g)
    with pytest.raises(SizeLimitError):
        brute_orbits(cycle_graph(4), max_n=3)
    assert len(brute_aut(cycle_graph(9), max_n=9)) == 18


def test_brute_orbits_k4():
    assert brute_orbits(complete_graph(4)).classes == ((0, 1, 2, 3),)


def test_brute_orbits_triangle_plus_square():
    g = disjoint_union(cycle_graph(3), cycle_graph(4))
    assert brute_orbits(g).classes == ((0, 1, 2), (3, 4, 5, 6))


def test_brute_orbits_rigid_graph_all_singletons():
    g = rigid6()
    assert len(brute_aut(g)) == 1
    assert brute_orbits(g).is_discrete()


def test_brute_orbits_equals_closure_of_brute_aut():
    rng = np.random.default_rng(10)
    for _ in range(20):
        g = random_simple_graph(rng, int(rng.integers(3, 7)), 0.5)
        auts = brute_aut(g)
        assert brute_orbits(g).same_blocks(closure_orbits(g.n, auts))


def test_brute_iso_self_and_relabeling():
    g = path_graph(3)
    assert brute_iso(g, g) == Permutation.identity(3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_simple_graph(rng, 6, 0.5)
        p = random_permutation(rng, 6)
        hp = apply_permutation(h, p)
        w = brute_iso(h, hp)
        assert w is not None and apply_permutation(h, w) == hp


def test_brute_iso_distinguishes():
    assert brute_iso(complete_graph(3), path_graph(3)) is None


def test_brute_iso_symmetric_in_existence():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g1 = random_simple_graph(rng, 5, 0.4)
        g2 = random_simple_graph(rng, 5, 0.4)
        assert (brute_iso(g1, g2) is None) == (brute_iso(g2, g1) is None)


def test_closure_orbits_empty_and_transitive():
    assert closure_orbits(4, []).is_discrete()
    cyc = Permutation([1, 2, 3, 0])
    assert closure_orbits(4, [cyc]).classes == ((0, 1, 2, 3),)


def test_closure_orbits_two_generators():
    gens = [Permutation([1, 0, 3, 2, 4]), Permutation([0, 2, 1, 3, 4])]
    assert closure_orbits(5, gens).classes == ((0, 1, 2, 3), (4,))


def test_brute_aut_results_are_automorphisms():
    rng = np.random.default_rng(13)
    g = random_simple_graph(rng, 6, 0.5)
    for a in brute_aut(g):
        assert is_automorphism(g, a)
