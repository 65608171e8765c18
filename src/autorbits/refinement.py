"""Color refinement on V, V^2 and V^3, plus vertex individualization.

Each refinement round replaces a cell's color by its old color together with
a hash of the multiset of colors it sees through every other vertex, then
reassigns dense ids by ranking the rows (old id, S_1, ..., S_P)
lexicographically. The multiset hash is a sum of products: with h_j, s_j
(and t_j at k=3) fixed 20-bit hashes of a class id, j = 1..P, P = 3,

- k=1: S_j(u) = sum_w a_j(c(u,w), c(w,u)) * h_j(id(w)), where a_j hashes
  the raw color pair (see "k=1 pair terms" below);
- k=2: S_j(u,v) = sum_w h_j(id(u,w)) * s_j(id(w,v)), one float64 BLAS
  product H_j @ S'_j;
- k=3: S_j(u,v,w) = sum_x h_j(id(x,v,w)) * s_j(id(u,x,w)) * t_j(id(u,v,x)),
  an einsum over x in wrapping uint64.

At k=1 and k=2 every sum is an exact integer in float64 while n * 2^40 <
2^53, that is for n <= 8192; a larger order raises ``ResourceLimitError``.
At k=3 the sums are exact for n <= 16 and wrap modulo 2^64 above.

Signatures are built only from raw pair colors and previous ids, so the
id assignment commutes with vertex relabeling: the class order is
canonical, and ``trace_digest`` is an isomorphism invariant. While the
sums are exact, two distinct multisets get equal hashes in all P fields
with probability at most (d/2^20)^3 (Schwartz-Zippel; d = 2 at k=1 and
k=2, so about 2^-57, and d = 3 at k=3), so "stable" means stable up to
hash collisions. A collision can only merge two classes that exact
refinement would split, which keeps every use of a coloring sound: a
stable class still contains every orbit, so lower <= orbits <= upper
holds; unequal traces still prove non-isomorphism; and every witness is
verified entrywise anyway.

One loop serves every dimension k, and one rule builds every k's atoms
(the first round's rows); a dimension only supplies its sums, how a
cell's row sums over the other cells.
Each later round's rows lead with the old id, so classes only split and
the class count rises strictly until it stops changing, and a refine ends
within n^k rounds. Atoms rank the diagonal cells (v, ..., v) last, so
their ids form the top block of every round's ids, and the vertex classes
are those ids shifted down to 0.

k=1 pair terms. The w = u term of S_j(u), a_j(c(u,u), c(u,u)) * h_j(id(u)),
takes n pair hashes of the individualized diagonal, the only entries in
which a stage differs from its base graph. The w != u part reads only
off-diagonal colors, so it is the same for a graph and every
individualization of it. ``build_k1_terms`` builds it from the base graph,
which alone chooses its form, and the terms hold that graph: ``refine``
reads them for it alone. An engine run at k=1 builds them once and passes
them to the refine of each of its stages; a direct refine, and the k=1
pass of a k >= 2 run, builds its own and frees them on return. So no k=1
terms are held during a refine at k >= 2. The terms take one of two forms.

- Indicators, when the graph they are built from has at least
  _INDICATOR_ORDER vertices, color ids below 16 and at most two distinct
  off-diagonal pair codes b <= p, codes being (c(u,w), c(w,u)), as a
  simple graph or a tournament has: the 0/1 float64 matrix M of code p.
  Then S_j = a_j(b) * (sum_{w != u} h_j) + (a_j(p) - a_j(b)) * (M h_j)
  + the w = u term, in wrapping uint64. The product M h_j is an exact
  float64 integer below n * 2^20 <= 2^33 and the true sum is a
  non-negative integer below 2^53, so arithmetic modulo 2^64, a negative
  difference a_j(p) - a_j(b) included, gives it exactly. Memory: 8 bytes
  per vertex pair, and a round is one (P, n) @ (n, n) BLAS product.
- Hashed fields, otherwise: a_j of every off-diagonal pair as a (P, n, n)
  float64 array with a zero diagonal, 24 bytes per vertex pair, and a round
  is one batched matrix-vector product.

Both forms give the same sums, so the same ids and traces. Below
_INDICATOR_ORDER the indicator form's extra numpy calls per round cost
more than the memory traffic it saves.

A run also hashes its *trace* into ``trace_digest``: k, n and the color
count, then the class count, sorted rows and multiplicities of the atoms
and of every round that splits, and the sorted rows of the stable round
that does not split (they pin what each class sees, such as the degree at
k=1; a discrete coloring ends before that round). Two refinement runs with
equal digests have id-for-id comparable colorings, which is what lets the
engine compare colorings across different individualizations of the same
graph.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .graphs import EdgeColoredGraph, int_array, is_integer
from .partitions import OrderedPartition

# Hash fields per round, bits per field, and the largest order whose k=1
# and k=2 sums (n terms below 2^40 each) stay exact in float64.
_FIELDS = 3
_BITS = 20
_EXACT_ORDER = 1 << (53 - 2 * _BITS)


@dataclass(frozen=True)
class RefinementConfig:
    """Stabilization dimension k.

    k=3 walks V^3 and costs n^4 work per round; it is off the default path
    and intended for desk-scale experiments only.
    """

    k: int = 2

    def __post_init__(self):
        if not (is_integer(self.k) and self.k in _DIMENSIONS):
            raise ValueError(f"k must be one of {tuple(_DIMENSIONS)}")


@dataclass(frozen=True)
class StableColoring:
    """A refinement fixed point: one further round produces no split (up to
    hash collisions, see the module docstring)."""

    vertex_partition: OrderedPartition
    rounds_used: int
    trace_digest: bytes

    def is_discrete(self):
        return self.vertex_partition.is_discrete()


def _pack(*ints):
    return struct.pack(f">{len(ints)}q", *ints)


def _unique_rows(rows):
    """Dense ids of distinct rows, in lexicographic row order.

    Rows are int64 with non-negative entries, or uint64; the big-endian
    unsigned byte view makes memcmp order coincide with numeric
    lexicographic order, which is much faster than a structured-dtype sort.
    Returns (unique row bytes, ids, count).
    """
    packed = np.ascontiguousarray(rows).astype(">u8").view(f"V{rows.shape[1] * 8}")
    uniq, inverse = np.unique(packed.ravel(), return_inverse=True)
    return uniq.tobytes(), inverse.reshape(-1).astype(np.int64), int(uniq.size)


def _mix(x, tmp):
    """splitmix64's finalizer, in place on the uint64 array x (wrapping
    arithmetic); tmp is scratch of x's shape."""
    x += np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 1)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        x ^= tmp
        x *= np.uint64(factor)
    return x


def _fields(x, salt):
    """P independent 20-bit hashes of each value of x, as a (P, *x.shape)
    float64 array: disjoint bit ranges of one salted mix of x.

    x is a uint64 array of already mixed values, overwritten here. Values
    are mixed first and salted after: salting before the mix would make two
    salted hashes shifts of one another (h(a) = s(a ^ s1 ^ s2)).
    """
    x ^= np.uint64(salt)
    tmp = np.empty_like(x)
    _mix(x, tmp)
    out = np.empty((_FIELDS,) + x.shape)
    for j, field in enumerate(out):
        np.right_shift(x, np.uint64(64 - _BITS * (j + 1)), out=tmp)
        tmp &= np.uint64((1 << _BITS) - 1)
        field[...] = tmp
    return out


# Salts of the id hashes h, s and t and of the k=1 color-pair hash a:
# fractional digits of pi.
_H, _S, _T, _A = 0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89

# The id hashes are a pure function of the id, so one table serves every
# refine: it grows on demand (doubling) up to this many ids; larger rounds
# (n^k cells with k >= 2 and n in the hundreds) hash their ids afresh.
_MEMO_IDS = 1 << 16
_memo = np.empty((3 * _FIELDS, 0))


def _id_hashes(count):
    """(3P, >= count) float64 table: h_j, s_j and t_j of every id < count."""
    global _memo
    table = _memo  # read once: another thread may replace it
    if table.shape[1] < count:
        ids = np.arange(max(count, 2 * table.shape[1]), dtype=np.uint64)
        mixed = _mix(ids, np.empty_like(ids))
        table = np.concatenate([_fields(mixed.copy(), salt) for salt in (_H, _S, _T)])
        if table.shape[1] <= _MEMO_IDS:
            _memo = table
    return table


def refine(g, cfg=None, fixes=(), k1_terms=None):
    """Stable coloring of g with fixes individualized, under the configured
    stabilization dimension.

    The result is that of ``refine(individualize_sequence(g, fixes), cfg)``,
    class map, rounds and trace digest alike. No individualized graph is
    built: at every k only its diagonal is read. k1_terms, when given, are
    ``build_k1_terms(g)``, read at k=1 in place of terms of the refine's
    own. Raises ValueError when they were built from another graph or when
    fixes are not distinct vertices of g, and ResourceLimitError at k=1 or
    k=2 when g has more than 8192 vertices, where the float64 round sums
    stop being exact.
    """
    cfg = cfg or RefinementConfig()
    fixes = fix_sequence(fixes, g.n)
    if k1_terms is not None and k1_terms.graph is not g:
        raise ValueError("k1_terms were built from another graph")
    if cfg.k < 3 and g.n > _EXACT_ORDER:
        raise ResourceLimitError(
            f"order {g.n} exceeds {_EXACT_ORDER}, the largest whose k={cfg.k} "
            "refinement sums are exact in float64"
        )
    diagonal = g.colors.diagonal().copy()
    for i, v in enumerate(fixes):
        diagonal[v] = g.color_count + i
    rows, sums = _atoms(g, diagonal, cfg.k), _DIMENSIONS[cfg.k](g, diagonal, k1_terms)
    # The header packs the individualized graph's color count.
    trace = hashlib.blake2b(b"T" + _pack(cfg.k, g.n, g.color_count + len(fixes)), digest_size=16)
    # The atoms are round 0; rounds_used counts the rounds after them.
    class_count, rounds = 0, -1
    while True:
        row_bytes, ids, count = _unique_rows(rows)
        if count == class_count:
            # No split: the ids, so their count and multiplicities, are the
            # previous round's; only the rows are new.
            trace.update(row_bytes)
            break
        class_count, rounds = count, rounds + 1
        for chunk in (_pack(count), row_bytes, np.bincount(ids).tobytes()):
            trace.update(chunk)
        if count == ids.size:
            break
        rows = np.column_stack((ids.astype(np.uint64), sums(ids, _id_hashes(count))))
    # Cell (v, ..., v) sits at index v * (1 + n + ... + n^(k-1)).
    vertex_ids = ids[:: sum(g.n**i for i in range(cfg.k))]
    return StableColoring(
        vertex_partition=OrderedPartition(vertex_ids - vertex_ids.min()),
        rounds_used=rounds,
        trace_digest=trace.digest(),
    )


def _atoms(g, diagonal, k):
    """First-round rows of the n^k cells (x_1, ..., x_k) of V^k, in C order.

    A cell's row is its atomic type: whether x_i = x_j for each position
    pair i < j, the color c(x_i, x_j) for each ordered pair i != j, and the
    vertex colors c(x_i, x_i). Only the diagonal cells (v, ..., v) have
    every equality set, so they rank last. Every vertex color is read from
    the given diagonal: where x_i = x_j, the pair color c(x_i, x_j) is
    overwritten with it, unless the diagonal is g's own, when the pair
    color already holds it.
    """
    n = g.n

    def along(a, *axes):
        # a's axes laid along the given axes of the cell array, as a view.
        return a.reshape([n if i in axes else 1 for i in range(k)])

    x = np.arange(n)
    columns = [along(x, i) == along(x, j) for i, j in itertools.combinations(range(k), 2)]
    columns += [along(g.colors if i < j else g.colors.T, i, j)
                for i, j in itertools.permutations(range(k), 2)]
    columns += [along(diagonal, i) for i in range(k)]
    rows = np.empty((n,) * k + (len(columns),), dtype=np.int64)
    for col, values in enumerate(columns):
        rows[..., col] = values
    if not np.array_equal(diagonal, g.colors.diagonal()):
        for col, (i, j) in enumerate(itertools.permutations(range(k), 2), start=k * (k - 1) // 2):
            np.copyto(rows[..., col], along(diagonal, i), where=along(x, i) == along(x, j))
    return rows.reshape(n**k, -1)


# Gates of the k=1 indicator form (see the module docstring). Pair codes
# are _CODE_BASE c(u,w) + c(w,u) in uint8, so only graphs whose color ids
# lie below _CODE_BASE are coded. Hashed fields are built in row blocks of
# about _BLOCK cells.
_INDICATOR_ORDER = 256
_CODE_BASE = 16
_BLOCK = 1 << 16


def _pair_fields(to, back):
    """a_j of the raw pairs (to, back) = (c(u,w), c(w,u)), from int64 arrays
    of one shape, as a (P, *shape) float64 array: mix(to) ^ back tells the
    pairs apart, and _fields mixes it."""
    code = to.astype(np.uint64)
    _mix(code, np.empty_like(code))
    code ^= back.view(np.uint64)
    return _fields(code, _A)


class _PairFields:
    """Hashed form of the off-diagonal k=1 terms: a_j(c(u,w), c(w,u)) for
    every pair, as a (P, n, n) float64 array with a zero diagonal."""

    def __init__(self, g):
        n, colors = g.n, g.colors
        self.fields = np.empty((_FIELDS, n, n))
        step = max(1, _BLOCK // n)
        for lo in range(0, n, step):
            block = slice(lo, lo + step)
            self.fields[:, block] = _pair_fields(colors[block], colors[:, block].T)
        self.fields[:, np.arange(n), np.arange(n)] = 0

    def sums(self, diagonal):
        def sums(ids, table):
            h = table[:_FIELDS, ids]
            out = np.matmul(self.fields, h[..., None])[..., 0]
            out += diagonal * h
            return out.T.astype(np.uint64)

        return sums


class _PairIndicators:
    """Indicator form of the off-diagonal k=1 terms, for a graph whose
    off-diagonal pairs take the codes b <= p only: a_j(b), the 0/1 matrix
    M[w, u] = [code(u, w) = p] with a zero diagonal, and a_j(p) - a_j(b) in
    wrapping uint64 (zero when b = p is the only code)."""

    def __init__(self, code, b, p):
        a = _pair_fields(*np.divmod(np.array([b, p]), _CODE_BASE)).astype(np.uint64)
        self.base = a[:, :1]
        self.delta = a[:, 1:] - self.base
        self.mat = np.empty(code.shape)
        np.equal(code, p, out=self.mat)
        np.fill_diagonal(self.mat, 0)

    def sums(self, diagonal):
        diagonal = diagonal.astype(np.uint64)

        def sums(ids, table):
            # The product is an exact float64 integer below 2^33 and the
            # true sum is below 2^53, so wrapping uint64 gives it exactly.
            h = table[:_FIELDS, ids]
            hu = h.astype(np.uint64)
            out = self.base * (hu.sum(axis=1, keepdims=True) - hu)
            out += self.delta * (h @ self.mat).astype(np.uint64)
            out += diagonal * hu
            return out.T

        return sums


def _pair_codes(g):
    """(code, b, p): g's uint8 pair codes code[w, u] = 16 c(u,w) + c(w,u)
    and the least and the greatest code off the diagonal; None when more
    than two codes occur there."""
    n, colors = g.n, g.colors
    # The pairs of vertex 0 alone often show that g has too many codes.
    if np.unique(colors[0, 1:] * _CODE_BASE + colors[1:, 0]).size > 2:
        return None
    colors = colors.astype(np.uint8)
    code = np.ascontiguousarray(colors.T)
    code *= _CODE_BASE
    code |= colors
    # Diagonal cells take the code of an off-diagonal cell, so that only
    # off-diagonal codes are found (at n = 1 there is none).
    np.fill_diagonal(code, code[0, 1 % n])
    b, p = int(code.min()), int(code.max())
    if p - b > 1:
        # Subtracting b + 1 (wrapping) maps b to 255 and every greater code
        # v to v - b - 1, so a code between b and p shows as a smaller min.
        if int((code - np.uint8(b + 1)).min()) < p - b - 1:
            return None
    return code, b, p


def build_k1_terms(g):
    """Off-diagonal k=1 pair terms of g, for ``refine(g, ..., k1_terms=)``:
    in the indicator form when g is large and has at most two pair codes,
    and in the hashed form otherwise. They hold g as ``graph``, and refine
    reads them for g alone."""
    codes = g.n >= _INDICATOR_ORDER and g.color_count <= _CODE_BASE and _pair_codes(g)
    terms = _PairIndicators(*codes) if codes else _PairFields(g)
    terms.graph = g
    return terms


def _setup_k1(g, diagonal, k1_terms):
    # Only the w = u term is hashed on every refine (see build_k1_terms).
    return (k1_terms or build_k1_terms(g)).sums(_pair_fields(diagonal, diagonal))


def _setup_k2(g, diagonal, k1_terms):
    def sums(ids, table):
        # H_j[u, w] = h_j(id(u, w)) and S'_j[w, v] = s_j(id(w, v)).
        h, s = table[: 2 * _FIELDS, ids].reshape(2, _FIELDS, g.n, g.n)
        return np.matmul(h, s).reshape(_FIELDS, -1).T.astype(np.uint64)

    return sums


def _setup_k3(g, diagonal, k1_terms):
    def sums(ids, table):
        # Substitute x into each of the three positions of (u, v, w).
        h, s, t = table[:, ids].astype(np.uint64).reshape(3, _FIELDS, g.n, g.n, g.n)
        return np.einsum("jxvw,juxw,juvx->juvw", h, s, t).reshape(_FIELDS, -1).T

    return sums


# Each setup takes refine's graph, the individualized diagonal and the k=1
# terms or None, and returns sums(ids, table): each cell's P hashed
# multiset sums as uint64 columns, from the id hash table of _id_hashes.
_DIMENSIONS = {1: _setup_k1, 2: _setup_k2, 3: _setup_k3}


def fix_sequence(fixes, n):
    """fixes as a tuple of ints; ValueError unless they are distinct vertices
    of a graph of order n. A bool counts as an integer, a float or a string
    does not (see ``graphs.int_array``)."""
    # A tuple of ints, as the engine passes, is taken as it is.
    if type(fixes) is not tuple or not all(type(v) is int for v in fixes):
        values = int_array(list(fixes))
        fixes = tuple(values.tolist()) if values.ndim == 1 else None
    if fixes is None or not all(0 <= v < n for v in fixes) or len(set(fixes)) < len(fixes):
        raise ValueError(f"fixes are not distinct vertices of a graph of order {n}")
    return fixes


def individualize_sequence(g, fixes):
    """Give each fix vertex, in order, its own fresh diagonal color.

    The i-th fix gets color_count + i. Fresh ids always land above every
    existing id and construction keeps ids as given, so the result does
    not depend on folding one-vertex steps. A fresh id may pass the
    constructor's 2**62 bound on input ids, and still fits in int64.
    Fixes must be distinct vertices of g. ``refine(g, cfg, fixes)`` gives
    the result's stable coloring without building the result.
    """
    fixes = fix_sequence(fixes, g.n)
    if not fixes:
        return g
    mat = g.colors.copy()
    for i, v in enumerate(fixes):
        mat[v, v] = g.color_count + i
    return EdgeColoredGraph.derived(mat)
