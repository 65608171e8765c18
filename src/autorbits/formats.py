"""Input ingestion: graph6, DIMACS edge lists, the native CDG matrix text,
and the window-set text format.

CDG is the only format expressing arbitrary pair colorings (directed edges,
loop colors); graph6 and DIMACS cover simple undirected graphs and map to
the loop/edge/non-edge coloring.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .assembly import WindowSet
from .errors import ParseError, ResourceLimitError
from .graphs import COLOR_LIMIT, EdgeColoredGraph, from_adjacency

_G6_HEADER = ">>graph6<<"
# A graph6 line is all printable characters 63..126 ('?' to '~').
_G6_LINE = re.compile(r"[?-~]*")


@dataclass(frozen=True)
class InputDocument:
    format: str
    payload: bytes


def sniff_format(payload):
    """Guess the format from the leading content."""
    text = payload.decode("ascii", errors="replace")
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        token = line.split()[0]
        if token == "cdg":
            return "cdg"
        if token == "ws":
            return "ws"
        if token in ("p", "c", "e"):
            return "dimacs"
        if line.startswith(_G6_HEADER) or _G6_LINE.fullmatch(line):
            return "graph6"
        break
    raise ParseError("cannot determine input format; use an explicit format override")


def load_document(path, forced_format=None):
    with open(path, "rb") as fh:
        payload = fh.read()
    if forced_format is not None:
        if forced_format not in FORMATS:
            raise ParseError(f"unknown format {forced_format!r}")
        return InputDocument(forced_format, payload)
    return InputDocument(sniff_format(payload), payload)


def parse_graph(doc):
    """Parse a graph document into an EdgeColoredGraph."""
    parser = _GRAPH_PARSERS.get(doc.format)
    if parser is None:
        raise ParseError(f"format {doc.format!r} does not describe a graph")
    return parser(doc.payload)


def parse_window_set(doc):
    if doc.format != "ws":
        raise ParseError(f"format {doc.format!r} does not describe a window set")
    return _parse_ws(doc.payload)


def _decode_text(payload):
    try:
        return payload.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not ASCII text: {exc}") from None


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_order(n):
    """Refuse an order whose n x n int64 matrix exceeds physical memory."""
    if n * n * np.dtype(np.int64).itemsize > _physical_memory():
        raise ResourceLimitError(f"order {n} is too large for an n x n matrix in memory")


def _records(payload):
    """(line number, fields) for each non-blank line."""
    for lineno, raw in enumerate(_decode_text(payload).splitlines(), start=1):
        fields = raw.split()
        if fields:
            yield lineno, fields


def _header(records, form):
    """The two integers of the first record, which must read like ``form``."""
    magic = form.split()[0]
    lineno, fields = next(records, (None, None))
    if lineno is None:
        raise ParseError(f"empty {magic} input")
    if len(fields) != 3 or fields[0] != magic:
        raise ParseError(f"expected header {form!r}", line=lineno)
    try:
        return lineno, int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError(f"non-numeric {magic} header", line=lineno) from None


def _rows(records, count, width, bound=None):
    """The next ``count`` records as rows of ``width`` integers.

    With ``bound``, every entry must lie in [0, bound).
    """
    rows = []
    for lineno, fields in records:
        if len(fields) != width:
            raise ParseError(f"expected {width} entries, found {len(fields)}", line=lineno)
        row = []
        for col, tok in enumerate(fields, start=1):
            try:
                value = int(tok)
            except ValueError:
                raise ParseError(f"non-numeric entry {tok!r}", line=lineno, col=col) from None
            if bound is not None and not 0 <= value < bound:
                raise ParseError(f"entry {value} outside [0, {bound})", line=lineno, col=col)
            row.append(value)
        rows.append(row)
        if len(rows) == count:
            break
    if len(rows) != count:
        raise ParseError(f"expected {count} rows, found {len(rows)}")
    return rows


def _parse_graph6(payload):
    text = _decode_text(payload).strip()
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):].lstrip()
    line = text.splitlines()[0].strip() if text else ""
    if not line:
        raise ParseError("empty graph6 input")
    data = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - np.uint8(63)
    if (data > 63).any():
        raise ParseError("graph6 character out of range", line=1)
    if data[0] != 63:
        size, pos = data[:1], 1
    elif len(data) >= 4 and data[1] != 63:
        size, pos = data[1:4], 4
    elif len(data) >= 8:
        size, pos = data[2:8], 8
    else:
        raise ParseError("truncated graph6 size field", line=1)
    n = 0
    for d in size.tolist():
        n = (n << 6) | d
    if n < 1:
        raise ParseError("graph6 order must be positive", line=1)
    need = n * (n - 1) // 2
    if (len(data) - pos) * 6 < need:
        raise ParseError("graph6 payload shorter than the declared order", line=1)
    _check_order(n)
    # Six bits per byte, most significant first, in the row-major order of
    # the strict lower triangle: (1, 0), (2, 0), (2, 1), (3, 0), ...
    bits = np.unpackbits(data[pos:, None], axis=1)[:, 2:].ravel()[:need]
    adj = np.zeros((n, n), dtype=bool)
    adj[np.tri(n, k=-1, dtype=bool)] = bits.view(bool)
    return from_adjacency(adj)


def _parse_dimacs(payload):
    n = declared_m = None
    edges = []
    for lineno, fields in _records(payload):
        if fields[0].startswith("c"):
            continue
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("expected 'p edge N M'", line=lineno)
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("non-numeric problem line", line=lineno) from None
            if n < 1 or declared_m < 0:
                raise ParseError("problem line out of range", line=lineno)
            _check_order(n)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", line=lineno)
            if len(fields) != 3:
                raise ParseError("expected 'e U V'", line=lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("non-numeric edge endpoints", line=lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range 1..{n}", line=lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", line=lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown record {fields[0]!r}", line=lineno)
    if n is None:
        raise ParseError("missing problem line")
    if len(edges) != declared_m:
        raise ParseError(f"declared {declared_m} edges but found {len(edges)}")
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    adj = np.zeros((n, n), dtype=bool)
    adj[ends[:, 0], ends[:, 1]] = True
    return from_adjacency(adj)


def _parse_cdg(payload):
    records = _records(payload)
    lineno, n, c = _header(records, "cdg N C")
    if n < 1 or c < 1:
        raise ParseError("cdg header out of range", line=lineno)
    _check_order(n)
    # A color at or beyond the graph's id limit is refused like any color
    # outside [0, C).
    return EdgeColoredGraph(_rows(records, n, n, bound=min(c, COLOR_LIMIT)))


def _parse_ws(payload):
    records = _records(payload)
    lineno, k, m = _header(records, "ws K M")
    if k < 1 or m < 0:
        raise ParseError("ws header out of range", line=lineno)
    rows = _rows(records, m, 2 * k)
    try:
        return WindowSet.from_elements(k, [(row[:k], row[k:]) for row in rows])
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_GRAPH_PARSERS = {"graph6": _parse_graph6, "dimacs": _parse_dimacs, "cdg": _parse_cdg}
FORMATS = (*_GRAPH_PARSERS, "ws")


def emit_cdg(g):
    """Canonical CDG text: header line then the matrix, single-spaced."""
    lines = [f"cdg {g.n} {g.color_count}"]
    for row in g.colors:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"
