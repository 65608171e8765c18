"""Edge-colored digraph model: a graph is a total color assignment on V x V.

The matrix entry ``colors[u, v]`` is the color of the ordered pair (u, v);
diagonal entries act as vertex colors. Color ids are kept as given, so two
graphs are equal only when their matrices are, and ``color_count`` is the
largest id + 1. Input ids must lie in [0, 2**62); the fresh ids derived
from a graph's (individualization, the tag of a disjoint union) may pass
that bound and still fit in int64.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeMismatchError

COLOR_LIMIT = 1 << 62


def int_array(values):
    """values as a new int64 array; ValueError unless every entry is an
    integer or a bool (numpy would truncate floats and parse strings)."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "biu":
        raise ValueError("entries must be integers in the int64 range")
    return arr.astype(np.int64)


def is_integer(value):
    """True iff value is an int or a numpy integer (a bool counts)."""
    return isinstance(value, (int, np.integer))


def covers_once(values, n):
    """True iff n >= 1 and the int64 vector values holds each of 0 .. n-1 once."""
    return bool(values.size == n > 0 and values.min() >= 0 and values.max() < n
                and np.bincount(values, minlength=n).all())


class EdgeColoredGraph:
    """Immutable dense color matrix over ordered vertex pairs."""

    __slots__ = ("colors", "n", "color_count")

    def __init__(self, colors):
        mat = int_array(colors)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("color matrix must be square")
        if mat.size == 0:
            raise ValueError("graph needs at least one vertex")
        if mat.min() < 0 or mat.max() >= COLOR_LIMIT:
            raise ValueError("color ids must lie in [0, 2**62)")
        self._freeze(mat)

    @classmethod
    def derived(cls, mat):
        """Graph over mat, a fresh int64 matrix whose ids the library made:
        a relabeling or union of graphs, fresh individualization ids, or the
        fixed ids of ``from_adjacency``. It is frozen in place, neither
        copied nor range-checked.
        """
        g = cls.__new__(cls)
        g._freeze(mat)
        return g

    def _freeze(self, mat):
        mat.setflags(write=False)
        self.colors = mat
        self.n = int(mat.shape[0])
        self.color_count = int(mat.max()) + 1

    def __eq__(self, other):
        if not isinstance(other, EdgeColoredGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.colors, other.colors)

    def __hash__(self):
        return hash((self.n, self.colors.tobytes()))

    def __repr__(self):
        return f"EdgeColoredGraph(n={self.n}, colors={self.color_count})"


class Permutation:
    """A bijection on vertex indices, stored as an image array."""

    __slots__ = ("image",)

    def __init__(self, image):
        img = int_array(image)
        if img.ndim != 1:
            raise ValueError("permutation image must be one-dimensional")
        if not covers_once(img, img.size):
            raise ValueError("image is not a bijection on [0, n)")
        img.setflags(write=False)
        self.image = img

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n))

    @property
    def n(self):
        return int(self.image.size)

    def __call__(self, v):
        return int(self.image[v])

    def compose(self, other):
        """self after other: (self.compose(other))(v) == self(other(v))."""
        if self.n != other.n:
            raise SizeMismatchError("permutation sizes differ")
        return Permutation(self.image[other.image])

    def inverse(self):
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.image] = np.arange(self.n)
        return Permutation(inv)

    def is_identity(self):
        return bool(np.array_equal(self.image, np.arange(self.n)))

    def as_list(self):
        return [int(x) for x in self.image]

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.image, other.image)

    def __hash__(self):
        return hash(self.image.tobytes())

    def __repr__(self):
        return f"Permutation({self.as_list()})"


def apply_permutation(g, perm):
    """Relabel g by perm: result[perm(u), perm(v)] == g[u, v]."""
    if perm.n != g.n:
        raise SizeMismatchError("permutation size does not match graph order")
    inv = perm.inverse().image
    return EdgeColoredGraph.derived(g.colors[np.ix_(inv, inv)])


def is_automorphism(g, perm):
    """True iff perm preserves every pair color of g."""
    if perm.n != g.n:
        raise SizeMismatchError("permutation size does not match graph order")
    p = perm.image
    return bool(np.array_equal(g.colors[np.ix_(p, p)], g.colors))


def from_adjacency(adj):
    """Simple undirected graph as a 3-color matrix (loop / edge / non-edge).

    ``adj`` is a boolean n x n matrix; a pair is an edge when either of its
    two entries is set, and the diagonal is ignored. Ids are kept, so the
    complete graph uses {0, 1} and the empty graph {0, 2}.
    """
    adj = np.asarray(adj, dtype=bool)
    mat = np.subtract(2, adj | adj.T, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    return EdgeColoredGraph.derived(mat)


def from_undirected_edges(n, edges):
    """``from_adjacency`` of an edge list on vertices [0, n). ValueError
    unless n is an integer >= 1 (a bool counts)."""
    if not (is_integer(n) and n >= 1):
        raise ValueError(f"graph order must be an integer >= 1, got {n!r}")
    adj = np.zeros((int(n), int(n)), dtype=bool)
    for u, v in int_array(list(edges)).tolist():
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        adj[u, v] = True
    return from_adjacency(adj)


def complete_graph(n):
    return from_undirected_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n):
    return from_undirected_edges(n, [])


def cycle_graph(n):
    return from_undirected_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return from_undirected_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return from_undirected_edges(10, outer + inner + spokes)


def disjoint_union(g1, g2):
    """Side-by-side union; all cross-side pairs get one fresh tag color.

    The fresh tag makes "same side" a color-definable relation, so every
    automorphism of the union either preserves the two sides or swaps them
    wholesale.
    """
    n1, n2 = g1.n, g2.n
    tag = max(g1.color_count, g2.color_count)
    mat = np.full((n1 + n2, n1 + n2), tag, dtype=np.int64)
    mat[:n1, :n1] = g1.colors
    mat[n1:, n1:] = g2.colors
    return EdgeColoredGraph.derived(mat)
