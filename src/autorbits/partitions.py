"""Ordered vertex partitions and the lattice join used to accumulate orbits."""

from __future__ import annotations

import numpy as np

from .errors import InvalidPartitionError, SizeMismatchError


class OrderedPartition:
    """A partition of [0, n) whose classes carry explicit, meaningful ids.

    Class ids must be dense in [0, class_count). The id order is whatever the
    producer chose: refinement emits signature-sorted ids and joins emit
    min-element order.
    """

    __slots__ = ("n", "class_of", "classes")

    def __init__(self, class_of):
        arr = np.asarray(class_of, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidPartitionError("class map must be a non-empty vector")
        k = int(arr.max()) + 1
        if arr.min() < 0 or not np.array_equal(np.unique(arr), np.arange(k)):
            raise InvalidPartitionError("class ids must be dense in [0, class_count)")
        arr = arr.copy()
        arr.setflags(write=False)
        self.n = int(arr.size)
        self.class_of = arr
        members = [[] for _ in range(k)]
        for v, c in enumerate(arr):
            members[c].append(v)
        self.classes = tuple(tuple(m) for m in members)

    @classmethod
    def from_classes(cls, classes, n=None):
        flat = [v for c in classes for v in c]
        if n is None:
            n = len(flat)
        class_of = np.full(n, -1, dtype=np.int64)
        for cid, members in enumerate(classes):
            if not members:
                raise InvalidPartitionError("empty class")
            for v in members:
                if not (0 <= v < n) or class_of[v] != -1:
                    raise InvalidPartitionError("classes must disjointly cover [0, n)")
                class_of[v] = cid
        if (class_of == -1).any():
            raise InvalidPartitionError("classes must cover every vertex")
        return cls(class_of)

    @classmethod
    def singletons(cls, n):
        return cls(np.arange(n))

    @classmethod
    def single_class(cls, n):
        return cls(np.zeros(n, dtype=np.int64))

    @property
    def class_count(self):
        return len(self.classes)

    def is_discrete(self):
        return len(self.classes) == self.n

    def is_finer_or_equal(self, other):
        """True iff every class of self lies inside one class of other."""
        if self.n != other.n:
            raise SizeMismatchError("partition sizes differ")
        for members in self.classes:
            target = other.class_of[members[0]]
            if any(other.class_of[v] != target for v in members[1:]):
                return False
        return True

    def same_blocks(self, other):
        """Equality as unordered set partitions, ignoring class-id order."""
        if self.n != other.n:
            raise SizeMismatchError("partition sizes differ")
        return sorted(self.classes) == sorted(other.classes)

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
    linking each class to its first member.
    """
    if p.n != q.n:
        raise SizeMismatchError("partition sizes differ")
    return join_pairs(
        p.n, ((m[0], v) for part in (p, q) for m in part.classes for v in m[1:])
    )


def join_pairs(n, pairs):
    """Partition of [0, n) into the connected components of the vertex pairs.

    A disjoint-set union with path halving; output class ids follow
    smallest members.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    roots = {}
    class_of = np.empty(n, dtype=np.int64)
    for v in range(n):
        r = find(v)
        if r not in roots:
            roots[r] = len(roots)
        class_of[v] = roots[r]
    return OrderedPartition(class_of)
