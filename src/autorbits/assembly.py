"""Window-set assembly checking.

A *window set* of width k is a set of 2xk integer matrices (a top and a
bottom tuple). It is *assembled* when its k+1 elements are exactly the k+1
cyclic k-wide column windows of a single 2x(k+1) matrix with distinct
entries per row; the checker reconstructs that matrix when it exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import int_array, is_integer


@dataclass(frozen=True)
class WindowSet:
    """A set of equal-width tuple-pair windows."""

    k: int
    elements: frozenset

    @classmethod
    def from_elements(cls, k, elements):
        if not (is_integer(k) and k >= 1):
            raise ValueError("window width must be an integer >= 1")
        normalized = set()
        for top, bottom in elements:
            top = tuple(int_array(top).tolist())
            bottom = tuple(int_array(bottom).tolist())
            if len(top) != k or len(bottom) != k:
                raise ValueError(f"element width differs from k={k}")
            for row in (top, bottom):
                if len(set(row)) != len(row):
                    raise ValueError(f"row with repeated entries: {row}")
                if any(x < 0 for x in row):
                    raise ValueError("vertex ids must be non-negative")
            normalized.add((top, bottom))
        return cls(k, frozenset(normalized))


def windows_of_matrix(top, bottom):
    """All cyclic k-wide column windows of a 2x(k+1) matrix, k = width - 1."""
    width = len(top)
    if width < 2 or len(bottom) != width:
        raise ValueError("matrix must be 2 x (k+1) with k >= 1")
    k = width - 1
    out = set()
    for start in range(width):
        cols = [(start + off) % width for off in range(k)]
        out.add((tuple(top[c] for c in cols), tuple(bottom[c] for c in cols)))
    return frozenset(out)


def is_assembled(ws):
    """Decide assembly; on success also return a witness matrix (top, bottom).

    Any element may serve as the first window of the witness, since cyclic
    column rotations of a matrix produce the same window set; the smallest
    element is anchored for determinism and the remaining column is solved
    from the element overlapping it by k-1 columns.
    """
    k = ws.k
    if len(ws.elements) != k + 1:
        return False, None
    elements = sorted(ws.elements)
    anchor = elements[0]
    top = list(anchor[0])
    bottom = list(anchor[1])
    for cand_top, cand_bottom in elements:
        if cand_top[: k - 1] != tuple(top[1:k]) or cand_bottom[: k - 1] != tuple(bottom[1:k]):
            continue
        wit_top = tuple(top + [cand_top[k - 1]])
        wit_bottom = tuple(bottom + [cand_bottom[k - 1]])
        if len(set(wit_top)) != k + 1 or len(set(wit_bottom)) != k + 1:
            continue
        if windows_of_matrix(wit_top, wit_bottom) == ws.elements:
            return True, (wit_top, wit_bottom)
    return False, None


def project_to_vertices(ws):
    """The set of single columns occurring in any element, as (top, bottom)."""
    out = set()
    for top, bottom in ws.elements:
        for a, b in zip(top, bottom):
            out.add((a, b))
    return frozenset(out)
