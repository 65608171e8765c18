import time

import numpy as np
import pytest

from autorbits import (
    InvalidPartitionError,
    OrderedPartition,
    Permutation,
    SizeMismatchError,
    closure_orbits,
    partition_join,
)
from autorbits.partitions import join_pairs
from util import all_set_partitions, random_permutation, reference_join_pairs


def P(*classes):
    return OrderedPartition.from_classes(classes)


def test_constructor_validation():
    with pytest.raises(InvalidPartitionError):
        OrderedPartition([0, 2])  # class id 1 missing
    with pytest.raises(InvalidPartitionError):
        OrderedPartition.from_classes([[0, 1], [1, 2]])
    with pytest.raises(InvalidPartitionError):
        OrderedPartition.from_classes([[0], [2]], n=3)


def test_from_classes_reads_iterators_once():
    assert OrderedPartition.from_classes(iter([[0], [1, 2]])) == P([0], [1, 2])
    classes = (iter(c) for c in ([2], [0, 1]))
    assert OrderedPartition.from_classes(classes, n=3).classes == ((2,), (0, 1))


def test_is_discrete():
    assert P([0], [1], [2]).is_discrete()
    assert not P([0, 1], [2]).is_discrete()
    assert not P([0, 1, 2]).is_discrete()


def test_is_finer_or_equal():
    assert P([0], [1], [2]).is_finer_or_equal(P([0, 1], [2]))
    assert not P([0, 1], [2]).is_finer_or_equal(P([0], [1, 2]))
    p = P([0, 1], [2])
    assert p.is_finer_or_equal(p)
    with pytest.raises(SizeMismatchError):
        p.is_finer_or_equal(P([0], [1]))


def test_join_examples():
    # 0-indexed forms of the worked examples
    a = partition_join(P([0, 1], [2], [3]), P([0], [1], [2, 3]))
    assert a.same_blocks(P([0, 1], [2, 3]))
    b = partition_join(P([0, 1], [2]), P([1, 2], [0]))
    assert b.same_blocks(P([0, 1, 2]))


def test_join_matches_group_closure_on_two_generators():
    # orbits of <(0 1)(2 3)> joined with orbits of <(1 2)> on 5 points
    g1 = Permutation([1, 0, 3, 2, 4])
    g2 = Permutation([0, 2, 1, 3, 4])
    joined = partition_join(closure_orbits(5, [g1]), closure_orbits(5, [g2]))
    assert joined.same_blocks(closure_orbits(5, [g1, g2]))
    assert joined.same_blocks(P([0, 1, 2, 3], [4]))


def test_join_pair_laws_exhaustive_n5():
    parts = [OrderedPartition.from_classes(c, n=5) for c in all_set_partitions(range(5))]
    for p in parts:
        assert partition_join(p, p).same_blocks(p)
        for q in parts:
            j = partition_join(p, q)
            assert j.same_blocks(partition_join(q, p))
            assert p.is_finer_or_equal(j) and q.is_finer_or_equal(j)


def test_join_associativity_exhaustive_n4():
    parts = [OrderedPartition.from_classes(c, n=4) for c in all_set_partitions(range(4))]
    for p in parts:
        for q in parts:
            for r in parts:
                lhs = partition_join(partition_join(p, q), r)
                rhs = partition_join(p, partition_join(q, r))
                assert lhs.same_blocks(rhs)


def test_join_minimality_exhaustive_n5():
    parts = [OrderedPartition.from_classes(c, n=5) for c in all_set_partitions(range(5))]
    for p in parts:
        for q in parts:
            j = partition_join(p, q)
            for r in parts:
                if p.is_finer_or_equal(r) and q.is_finer_or_equal(r):
                    assert j.is_finer_or_equal(r)


def test_join_lemma_property_random_generator_sets():
    # joining orbit partitions of two generator sets equals the orbits of the
    # union set, via group closure
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(4, 9))
        s1 = [random_permutation(rng, n) for _ in range(int(rng.integers(1, 4)))]
        s2 = [random_permutation(rng, n) for _ in range(int(rng.integers(1, 4)))]
        joined = partition_join(closure_orbits(n, s1), closure_orbits(n, s2))
        assert joined.same_blocks(closure_orbits(n, s1 + s2))


def test_order_checks_match_set_definitions_exhaustive_n5():
    rng = np.random.default_rng(5)

    def shuffled(classes):
        # Class ids in a random order, members in a random order.
        order = rng.permutation(len(classes))
        return OrderedPartition.from_classes(
            [rng.permutation(classes[i]).tolist() for i in order], n=5
        )

    cases = [(shuffled(c), {frozenset(b) for b in c}) for c in all_set_partitions(range(5))]
    assert len(cases) == 52
    for p, p_blocks in cases:
        for q, q_blocks in cases:
            finer = all(any(b <= c for c in q_blocks) for b in p_blocks)
            assert p.is_finer_or_equal(q) == finer
            assert p.same_blocks(q) == (p_blocks == q_blocks)
    fours = [OrderedPartition.from_classes(c, n=4) for c in all_set_partitions(range(4))]
    for p, _ in cases:
        for q in fours:
            for a, b in ((p, q), (q, p)):
                with pytest.raises(SizeMismatchError):
                    a.is_finer_or_equal(b)
                with pytest.raises(SizeMismatchError):
                    a.same_blocks(b)


def test_join_size_mismatch():
    with pytest.raises(SizeMismatchError):
        partition_join(P([0, 1]), P([0, 1], [2]))


def _random_partition(rng, n):
    """A partition of [0, n) into random classes, with class ids in the
    order of random labels rather than of smallest members."""
    labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    return OrderedPartition(np.unique(labels, return_inverse=True)[1])


def test_join_and_closure_match_the_reference_union_find():
    rng = np.random.default_rng(28)
    for _ in range(300):
        n = int(rng.integers(1, 61))
        gens = []
        for _ in range(int(rng.integers(0, 5))):
            # The identity, a permutation of a random subset, or of all.
            moved = rng.permutation(n)[: int(rng.integers(0, n + 1))]
            image = np.arange(n)
            image[moved] = rng.permutation(moved)
            gens.append(Permutation(image))
        pairs = [(v, w) for p in gens for v, w in enumerate(p.image.tolist())]
        assert closure_orbits(n, gens) == reference_join_pairs(n, pairs)
        p, q = _random_partition(rng, n), _random_partition(rng, n)
        firsts = [part.first_members()[part.class_of].tolist() for part in (p, q)]
        pairs = [(a, v) for first in firsts for v, a in enumerate(first)]
        assert partition_join(p, q) == reference_join_pairs(n, pairs)


def test_join_pairs_finishes_on_long_chains():
    # Propagating least labels without hooking roots takes a round per
    # step of the longest chain: tens of seconds on these inputs.
    rng = np.random.default_rng(100)
    n = 100_000
    label = rng.permutation(n)
    cases = {
        "cycle": (label, np.roll(label, 1)),
        "path": (label[:-1], label[1:]),
        "permutation-1": (np.arange(n), rng.permutation(n)),
        "permutation-2": (np.arange(n), rng.permutation(n)),
    }
    for name, (a, b) in cases.items():
        start = time.perf_counter()
        joined = join_pairs(n, a, b)
        seconds = time.perf_counter() - start
        assert seconds < 2, f"{name}: join_pairs took {seconds:.1f} s"
        assert joined == reference_join_pairs(n, zip(a.tolist(), b.tolist())), name
