"""Input ingestion: graph6, DIMACS edge lists, the native CDG matrix text,
and the window-set text format.

CDG is the only format expressing arbitrary pair colorings (directed edges,
loop colors); graph6 and DIMACS cover simple undirected graphs and map to
the loop/edge/non-edge coloring.

The three line formats (DIMACS, CDG, WS) are cut into tokens once, by
numpy over the whole payload (``_Tokens``): tokens fall where
``str.split`` puts them and lines are numbered as ``str.splitlines``
numbers them. A number is a token of ASCII decimal digits, so ``+1``,
``-1`` and ``1_0`` are refused. Each parser checks its grammar over the
token arrays and reports the first error in file order, with its line
and, for a matrix or window entry, its column. CDG and WS refuse a
non-blank line after the declared rows, and a graph6 input holds exactly
one graph.
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
_G6_CHARS = bytes(range(63, 127))
# The ASCII line breaks of str.splitlines, and a run of the whitespace of
# str.split (the breaks, "\t", "\x1f" and " ").
_BREAKS = b"\n\v\f\r\x1c\x1d\x1e"
_BLANK = re.compile(rb"[\t-\r\x1c- ]*")
# The first tokens that name a line format.
_KEYWORDS = {"cdg": "cdg", "ws": "ws", "p": "dimacs", "c": "dimacs", "e": "dimacs"}
# Longer digit tokens are read by int(), their value capped at COLOR_LIMIT.
_DIGITS = 18


@dataclass(frozen=True)
class InputDocument:
    format: str
    payload: bytes


def sniff_format(payload):
    """Guess the format from the first non-blank line, reading no further."""
    start = _BLANK.match(payload).end()
    ends = [end for end in (payload.find(c, start) for c in _BREAKS) if end >= 0]
    line = payload[start:min(ends, default=len(payload))].rstrip(b"\t\x1f ")
    if line:
        # Every keyword is shorter than four characters, so a longer first
        # token is none of them.
        token = line[:4].decode("ascii", errors="replace").split()[0]
        if token in _KEYWORDS:
            return _KEYWORDS[token]
        if line.startswith(_G6_HEADER.encode()) or not line.translate(None, _G6_CHARS):
            return "graph6"
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


class _Tokens:
    """The tokens of ASCII text as ``str.split`` cuts it, numbered by line
    as ``str.splitlines`` numbers lines.

    Per token: its byte span ``start:end``, whether it is all ASCII digits
    (``numeric``) and, if so, its ``value``; values of more than 18 digits
    are capped at COLOR_LIMIT, at or above every bound a parser checks.
    Per non-blank line: its first token (``heads``), its number of tokens
    (``widths``) and its 1-based line number (``lines``), from which
    ``error`` places a token by line and column. Arrays over the bytes are
    bool or uint8; only those over tokens or lines are int64.
    """

    def __init__(self, payload):
        if not payload.isascii():
            _decode_text(payload)
        self.payload = payload
        b = np.frombuffer(payload, dtype=np.uint8)
        # Whitespace is 9..13 and 28..32; of it, 10..13 and 28..30 break lines.
        word = (b - np.uint8(9) > 4) & (b - np.uint8(28) > 4)
        # Where word bytes begin and end, paired as (start, end).
        self.start, self.end = np.flatnonzero(np.diff(word, prepend=False, append=False)).reshape(-1, 2).T
        # Line breaks and token starts, in byte order. A start that follows a
        # break, or none, heads a line, after as many breaks as its event
        # index exceeds its token index.
        events = (b - np.uint8(10) < 4) | (b - np.uint8(28) < 3)
        events[1:] &= (b[:-1] != 13) | (b[1:] != 10)  # "\r\n" is one break
        events[self.start] = True
        starts = word[np.flatnonzero(events)]
        head = starts & np.diff(starts, prepend=False)
        self.heads = np.flatnonzero(head[starts])
        self.lines = np.flatnonzero(head) - self.heads + 1
        self.widths = np.diff(self.heads, append=self.start.size)
        del word, events, starts, head
        length = self.end - self.start
        self.value, self.numeric = np.zeros(length.size, dtype=np.int64), length <= _DIGITS
        for size in range(1, min(int(length.max(initial=0)), _DIGITS) + 1):
            group = np.flatnonzero(length == size)
            value, numeric = np.zeros(group.size, dtype=np.int64), np.ones(group.size, dtype=bool)
            for at in range(size):
                digit = b[self.start[group] + at] - np.uint8(48)  # wraps below "0"
                numeric &= digit < 10
                value = value * 10 + digit  # may wrap on a non-numeric token
            self.value[group], self.numeric[group] = value, numeric
        for t in np.flatnonzero(length > _DIGITS).tolist():
            if (digits := payload[self.start[t]:self.end[t]]).isdigit():
                self.numeric[t], self.value[t] = True, min(int(digits), COLOR_LIMIT)

    def text(self, t):
        return self.payload[self.start[t]:self.end[t]].decode("ascii")

    def error(self, message, t, col=False):
        """ParseError at token t's line and, with ``col``, its column."""
        r = int(np.searchsorted(self.heads, t, side="right")) - 1
        return ParseError(message, line=int(self.lines[r]), col=int(t - self.heads[r]) + 1 if col else None)


def _first(mask):
    """Index of the first true entry of a bool array, or None."""
    return int(mask.argmax()) if mask.any() else None


def _headed(payload, form):
    """Tokens of a file led by the header ``form`` ('magic A B'), the
    header's line and its two values."""
    tokens = _Tokens(payload)
    magic = form.split()[0]
    if not tokens.heads.size:
        raise ParseError(f"empty {magic} input")
    if tokens.widths[0] != 3 or tokens.text(0) != magic:
        raise tokens.error(f"expected header {form!r}", 0)
    if not tokens.numeric[1:3].all():
        raise tokens.error(f"non-numeric {magic} header", 0)
    return tokens, int(tokens.lines[0]), int(tokens.text(1)), int(tokens.text(2))


def _table(tokens, count, width, bound=np.inf):
    """Check that the lines after the header are ``count`` rows of
    ``width`` numbers, each below ``bound``; returns the index of the
    first entry. Errors come in file order: a row's width before its
    entries, and a line past the last row after them all."""
    rows = tokens.heads[1:]
    first, stop = np.append(rows, tokens.start.size)[[0, min(rows.size, count)]]
    bad = ~tokens.numeric[first:stop] | (tokens.value[first:stop] >= bound)
    entry, short = _first(bad), _first(tokens.widths[1:count + 1] != width)
    if short is not None and (entry is None or rows[short] <= first + entry):
        raise tokens.error(f"expected {width} entries, found {tokens.widths[1 + short]}", rows[short])
    if entry is not None:
        t = first + entry
        tok = tokens.text(t)
        message = f"entry {int(tok)} outside [0, {bound})" if tokens.numeric[t] else f"non-numeric entry {tok!r}"
        raise tokens.error(message, t, col=True)
    if rows.size < count:
        raise ParseError(f"expected {count} rows, found {rows.size}")
    if rows.size > count:
        raise tokens.error(f"expected {count} rows, found more", rows[count])
    return first


def _parse_graph6(payload):
    text = _decode_text(payload)
    # The header may stand alone on its line or lead the graph's.
    if text.lstrip().startswith(_G6_HEADER):
        text = text.replace(_G6_HEADER, "", 1)
    lines = [(i, line) for i, raw in enumerate(text.splitlines(), start=1) if (line := raw.strip())]
    if not lines:
        raise ParseError("empty graph6 input")
    number, line = lines[0]
    data = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - np.uint8(63)
    if (data > 63).any():
        raise ParseError("graph6 character out of range", line=number)
    if data[0] != 63:
        size, pos = data[:1], 1
    elif len(data) >= 4 and data[1] != 63:
        size, pos = data[1:4], 4
    elif len(data) >= 8:
        size, pos = data[2:8], 8
    else:
        raise ParseError("truncated graph6 size field", line=number)
    n = 0
    for d in size.tolist():
        n = (n << 6) | d
    if n < 1:
        raise ParseError("graph6 order must be positive", line=number)
    need = n * (n - 1) // 2
    if len(data) - pos != -(-need // 6):
        side = "shorter" if (len(data) - pos) * 6 < need else "longer"
        raise ParseError(f"graph6 payload {side} than the declared order", line=number)
    _check_order(n)
    if len(lines) > 1:
        raise ParseError("expected one graph6 line, found more", line=lines[1][0])
    # Six bits per byte, most significant first, in the row-major order of
    # the strict lower triangle: (1, 0), (2, 0), (2, 1), (3, 0), ...
    bits = np.unpackbits(data[pos:, None], axis=1)[:, 2:].ravel()[:need]
    adj = np.zeros((n, n), dtype=bool)
    adj[np.tri(n, k=-1, dtype=bool)] = bits.view(bool)
    return from_adjacency(adj)


def _parse_dimacs(payload):
    # The tokens are freed before the n x n matrix is built.
    return from_adjacency(_dimacs_adjacency(payload))


def _dimacs_adjacency(payload):
    tokens = _Tokens(payload)
    heads, widths = tokens.heads, tokens.widths
    lead = np.frombuffer(payload, dtype=np.uint8)[tokens.start[heads]]
    single = tokens.end[heads] - tokens.start[heads] == 1
    comment, problem, edge = lead == ord("c"), single & (lead == ord("p")), single & (lead == ord("e"))
    first = _first(~comment)
    if first is None:
        raise ParseError("missing problem line")
    at = heads[first]
    if not problem[first]:
        message = "edge before problem line" if edge[first] else f"unknown record {tokens.text(at)!r}"
        raise tokens.error(message, at)
    if widths[first] != 4 or tokens.text(at + 1) != "edge":
        raise tokens.error("expected 'p edge N M'", at)
    if not tokens.numeric[at + 2:at + 4].all():
        raise tokens.error("non-numeric problem line", at)
    n, declared_m = int(tokens.text(at + 2)), int(tokens.text(at + 3))
    if n < 1:
        raise tokens.error("problem line out of range", at)
    _check_order(n)
    # Every later line is a comment or 'e U V' with U != V in 1..n; a
    # line's first failing rule names its error.
    ends = np.minimum(heads[:, None] + np.array([1, 2]), tokens.start.size - 1)
    u, v = tokens.value[ends].T
    rules = [problem, ~edge, widths != 3, ~tokens.numeric[ends].all(axis=1),
             (np.minimum(u, v) < 1) | (np.maximum(u, v) > n), u == v]
    broken = np.select([comment, *rules], range(len(rules) + 1))
    broken[:first + 1] = 0
    wrong = _first(broken > 0)
    if wrong is not None:
        message = ("duplicate problem line", "unknown record {head!r}", "expected 'e U V'",
                   "non-numeric edge endpoints", "endpoint out of range 1..{n}",
                   "self-loop at vertex {u}")[broken[wrong] - 1]
        raise tokens.error(message.format(head=tokens.text(heads[wrong]), n=n, u=u[wrong]), heads[wrong])
    if np.count_nonzero(edge) != declared_m:
        raise ParseError(f"declared {declared_m} edges but found {np.count_nonzero(edge)}")
    adj = np.zeros((n, n), dtype=bool)
    adj[u[edge] - 1, v[edge] - 1] = True
    return adj


def _parse_cdg(payload):
    tokens, lineno, n, c = _headed(payload, "cdg N C")
    if n < 1 or c < 1:
        raise ParseError("cdg header out of range", line=lineno)
    _check_order(n)
    # A color at or beyond the graph's id limit is refused like any color
    # outside [0, C).
    first = _table(tokens, n, n, bound=min(c, COLOR_LIMIT))
    return EdgeColoredGraph(tokens.value[first:].reshape(n, n))


def _parse_ws(payload):
    tokens, lineno, k, m = _headed(payload, "ws K M")
    if k < 1:
        raise ParseError("ws header out of range", line=lineno)
    first = _table(tokens, m, 2 * k)
    # A capped entry is read again from its text.
    flat = [x if x < COLOR_LIMIT else int(tokens.text(t))
            for t, x in enumerate(tokens.value[first:].tolist(), start=first)]
    elements = [(flat[i:i + k], flat[i + k:i + 2 * k]) for i in range(0, len(flat), 2 * k)]
    try:
        return WindowSet.from_elements(k, elements)
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
