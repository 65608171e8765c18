"""Color refinement on V, V^2 and V^3, plus vertex individualization.

Each refinement round replaces a cell's color by its old color together with
a multiset of colors seen through every other vertex, then reassigns dense
ordinals by sorting the resulting signature rows lexicographically
(np.unique does both at once). Because signatures are built only from raw
pair colors and previous ordinals, the ordinal assignment commutes with
vertex relabeling: the class order is canonical.

One loop serves every dimension k; a dimension only supplies its atoms
(the first round's rows) and how a cell's row sees the other cells. Each
later round's rows lead with the old id, so the class count rises strictly
until it stops changing, and a refine ends within n^k rounds. Atoms rank
the diagonal cells (v, ..., v) last, so their ids form the top block of
every round's ids, and the vertex classes are those ids shifted down to 0.

A run also hashes its *trace* into ``trace_digest``: k, n and the color
count, then the class count, sorted signature rows and multiplicities of
the atoms and of every round that splits. Two refinement runs with equal
digests have ordinal-for-ordinal comparable colorings, which is what lets
the engine compare colorings across different individualizations of the
same graph.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .graphs import EdgeColoredGraph
from .partitions import OrderedPartition


@dataclass(frozen=True)
class RefinementConfig:
    """Stabilization dimension k.

    k=3 walks V^3 and costs n^4 work per round; it is off the default path
    and intended for desk-scale experiments only.
    """

    k: int = 2

    def __post_init__(self):
        if self.k not in _DIMENSIONS:
            raise ValueError(f"k must be one of {tuple(_DIMENSIONS)}")


@dataclass(frozen=True)
class StableColoring:
    """A refinement fixed point: one further round produces no split."""

    vertex_partition: OrderedPartition
    rounds_used: int
    trace_digest: bytes

    def is_discrete(self):
        return self.vertex_partition.is_discrete()


def _pack(*ints):
    return struct.pack(f">{len(ints)}q", *ints)


def _unique_rows(rows):
    """Dense ids of distinct rows, in lexicographic row order.

    Rows must be non-negative int64; the big-endian byte view makes memcmp
    order coincide with numeric lexicographic order, which is much faster
    than a structured-dtype sort. Returns (unique row bytes, ids, count).
    """
    packed = np.ascontiguousarray(rows).astype(">i8").view(f"V{rows.shape[1] * 8}")
    uniq, inverse = np.unique(packed.ravel(), return_inverse=True)
    return uniq.tobytes(), inverse.reshape(-1).astype(np.int64), int(uniq.size)


def refine(g, cfg=None):
    """Stable coloring of g under the configured stabilization dimension."""
    cfg = cfg or RefinementConfig()
    rows, neighbours = _DIMENSIONS[cfg.k](g)
    trace = hashlib.blake2b(b"T" + _pack(cfg.k, g.n, g.color_count), digest_size=16)
    # The atoms are round 0; rounds_used counts the rounds after them.
    class_count, rounds = 0, -1
    while True:
        row_bytes, ids, count = _unique_rows(rows)
        if count == class_count:
            # No split: the ids are the previous round's.
            break
        class_count, rounds = count, rounds + 1
        for chunk in (_pack(count), row_bytes, np.bincount(ids).tobytes()):
            trace.update(chunk)
        if count == ids.size:
            break
        enc = neighbours(ids, np.int64(count))
        enc.sort(axis=1)
        rows = np.concatenate((ids[:, None], enc), axis=1)
    # Cell (v, ..., v) sits at index v * (1 + n + ... + n^(k-1)).
    diagonal = ids[:: sum(g.n**i for i in range(cfg.k))]
    return StableColoring(
        vertex_partition=OrderedPartition(diagonal - diagonal.min()),
        rounds_used=rounds,
        trace_digest=trace.digest(),
    )


def _setup_k1(g):
    n = g.n
    # One int encodes the triple (color to w, color from w, ordinal of w),
    # over color ranks so that the radix stays small.
    palette, rank = np.unique(g.colors, return_inverse=True)
    rank = rank.reshape(n, n).astype(np.int64)
    base = (rank * palette.size + rank.T) * np.int64(n + 1)

    def neighbours(ords, scale):
        return base + ords[None, :]

    return g.colors.diagonal()[:, None], neighbours


def _setup_k2(g):
    n = g.n
    colors = g.colors
    diag = colors.diagonal()
    # Atomic pair type: equality pattern plus the induced 2x2 color data.
    atoms = np.stack(
        (
            np.eye(n, dtype=np.int64),
            colors,
            colors.T,
            np.broadcast_to(diag[:, None], (n, n)),
            np.broadcast_to(diag[None, :], (n, n)),
        ),
        axis=-1,
    ).reshape(n * n, 5)

    def neighbours(pair, scale):
        mat = pair.reshape(n, n)
        # enc[u, v, w] = (color of (u, w), color of (w, v)) packed into one int.
        return (mat[:, None, :] * scale + mat.T[None, :, :]).reshape(n * n, n)

    return atoms, neighbours


def _setup_k3(g):
    n = g.n
    colors = g.colors
    idx = np.arange(n)
    u = idx[:, None, None]
    v = idx[None, :, None]
    w = idx[None, None, :]
    parts = [
        np.broadcast_to(u == v, (n, n, n)).astype(np.int64),
        np.broadcast_to(u == w, (n, n, n)).astype(np.int64),
        np.broadcast_to(v == w, (n, n, n)).astype(np.int64),
    ]
    for a, b in ((u, v), (u, w), (v, u), (v, w), (w, u), (w, v)):
        parts.append(np.broadcast_to(colors[a, b], (n, n, n)).astype(np.int64))
    for d in (u, v, w):
        parts.append(np.broadcast_to(colors[d, d], (n, n, n)).astype(np.int64))
    atoms = np.stack(parts, axis=-1).reshape(n**3, len(parts))

    def neighbours(trip, scale):
        cube = trip.reshape(n, n, n)
        # Substitute x into each of the three positions of (u, v, w).
        c0 = np.moveaxis(cube, 0, 2)[None, :, :, :]
        c1 = np.moveaxis(cube, 1, 2)[:, None, :, :]
        c2 = cube[:, :, None, :]
        return ((c0 * scale + c1) * scale + c2).reshape(n**3, n)

    return atoms, neighbours


# Each setup returns the atom rows (one per cell of V^k, the diagonal cells
# ranking last) and a neighbours(ids, scale) giving each cell's n packed
# views of other cells (scale exceeds every id).
_DIMENSIONS = {1: _setup_k1, 2: _setup_k2, 3: _setup_k3}


def individualize_sequence(g, fixes):
    """Give each fix vertex, in order, its own fresh diagonal color.

    The i-th fix gets color_count + i. Fresh ids always land above every
    existing id and construction keeps ids as given, so the result does
    not depend on folding one-vertex steps. A fresh id may pass the
    constructor's 2**62 bound on input ids, and still fits in int64.
    Fixes must be distinct vertices of g.
    """
    seen = set()
    for v in fixes:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for order {g.n}")
        if v in seen:
            raise ValueError(f"duplicate fix vertex {v}")
        seen.add(v)
    if not fixes:
        return g
    mat = g.colors.copy()
    for i, v in enumerate(fixes):
        mat[v, v] = g.color_count + i
    return EdgeColoredGraph.derived(mat)
