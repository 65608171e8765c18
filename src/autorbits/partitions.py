"""Ordered vertex partitions, their lattice join, and generators' orbits."""

from __future__ import annotations

import numpy as np

from .errors import InvalidPartitionError, SizeMismatchError
from .graphs import covers_once, int_array


def _int_array(values):
    try:
        return int_array(values)
    except ValueError as exc:
        raise InvalidPartitionError(str(exc)) from None


class OrderedPartition:
    """A partition of [0, n) whose classes carry explicit, meaningful ids.

    The class map ``class_of`` is the partition; ``classes`` is derived from
    it. Class ids are dense in [0, class_count), in the order the producer
    chose: refinement sorts them by signature and joins by smallest member.
    """

    __slots__ = ("n", "class_of", "class_count")

    def __init__(self, class_of):
        arr = _int_array(class_of)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidPartitionError("class map must be a non-empty vector")
        if arr.min() < 0 or arr.max() >= arr.size or not np.bincount(arr).all():
            raise InvalidPartitionError("class ids must be dense in [0, class_count)")
        arr.setflags(write=False)
        self.n = int(arr.size)
        self.class_of = arr
        self.class_count = int(arr.max()) + 1

    @classmethod
    def from_classes(cls, classes, n=None):
        classes = [list(c) for c in classes]
        sizes = [len(c) for c in classes]
        members = _int_array([v for c in classes for v in c])
        n = members.size if n is None else n
        if 0 in sizes or not covers_once(members, n):
            raise InvalidPartitionError("classes must disjointly cover [0, n)")
        class_of = np.empty(n, dtype=np.int64)
        class_of[members] = np.repeat(np.arange(len(sizes)), sizes)
        return cls(class_of)

    @classmethod
    def singletons(cls, n):
        return cls(np.arange(n))

    @property
    def classes(self):
        """Members of each class, by class id, each in increasing order."""
        members = np.argsort(self.class_of, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.class_of)).tolist()
        return tuple(tuple(members[start:end]) for start, end in zip([0] + ends, ends))

    def first_members(self):
        """Smallest member of each class, by class id, as an int64 array."""
        return np.unique(self.class_of, return_index=True)[1]

    def is_discrete(self):
        return self.class_count == self.n

    def is_finer_or_equal(self, other):
        """True iff every class of self lies inside one class of other."""
        if self.n != other.n:
            raise SizeMismatchError("partition sizes differ")
        # Some member's other-class for each own class; finer iff every
        # member agrees with it.
        target = np.empty(self.class_count, dtype=np.int64)
        target[self.class_of] = other.class_of
        return bool(np.array_equal(target[self.class_of], other.class_of))

    def same_blocks(self, other):
        """Equality as unordered set partitions, ignoring class-id order."""
        return self.is_finer_or_equal(other) and self.class_count == other.class_count

    def __eq__(self, other):
        if not isinstance(other, OrderedPartition):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.class_of, other.class_of)

    def __hash__(self):
        return hash(self.class_of.tobytes())

    def __repr__(self):
        body = " | ".join(",".join(map(str, c)) for c in self.classes)
        return f"OrderedPartition({body})"


def partition_join(p, q):
    """Finest partition coarser than both p and q (the lattice join).

    Two vertices end up together iff they are linked by a chain of
    overlapping p- and q-classes, i.e. iff they are connected by the pairs
    linking each vertex to its class's first member (see join_pairs).
    """
    if p.n != q.n:
        raise SizeMismatchError("partition sizes differ")
    firsts = [part.first_members()[part.class_of] for part in (p, q)]
    return join_pairs(p.n, np.concatenate(firsts), np.tile(np.arange(p.n), 2))


def join_pairs(n, a, b):
    """Partition of [0, n) into the connected components of the pairs
    (a[i], b[i]) of two int64 index arrays, by an array union-find
    (Shiloach-Vishkin): each round hooks the root of each pair's larger end
    onto the least smaller root offered, then every label jumps to its root.
    Labels only decrease, so roots and class ids follow smallest members.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(root[root], root):
            root = root[root]
    # A class id is the number of roots below its root.
    ids = np.cumsum(root == np.arange(n)) - 1
    return OrderedPartition(ids[root])


def closure_orbits(n, gens):
    """Orbit partition of the group generated by gens.

    Computed by joining each vertex to its generator images (join_pairs);
    the group itself is never enumerated. Class ids follow smallest members.
    """
    gens = list(gens)
    if any(p.n != n for p in gens):
        raise SizeMismatchError("generator size does not match n")
    images = np.array([p.image for p in gens], dtype=np.int64).reshape(-1)
    return join_pairs(n, np.tile(np.arange(n), len(gens)), images)
