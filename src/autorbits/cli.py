"""Command-line interface with deterministic JSON and text reporting.

Exit codes: 0 success (or isomorphic), 1 non-isomorphic, 2 inconclusive or
lower_bound where certification was requested (iso / verify), 3 parse error
or unreadable input file, 4 usage error (a flag the command does not take
included), 5 internal invariant violation or any other unexpected error,
6 resource limit (out of memory, recursion depth, or an input order too
large for memory).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
import traceback
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from .assembly import is_assembled, project_to_vertices
from .engine import (
    CERTIFIED,
    INCONCLUSIVE,
    ISOMORPHIC,
    NON_ISOMORPHIC,
    RunStats,
    compute_orbits,
    iso_test,
)
from .errors import (
    AutorbitsError,
    InternalInvariantError,
    ParseError,
    ResourceLimitError,
    SizeLimitError,
)
from .oracle import brute_aut, brute_orbits
from .refinement import RefinementConfig, refine
from .formats import load_document, parse_graph, parse_window_set

EXIT_OK = 0
EXIT_NON_ISOMORPHIC = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARSE = 3
EXIT_USAGE = 4
EXIT_INTERNAL = 5
EXIT_RESOURCE = 6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _sorted_classes(partition):
    return sorted((list(c) for c in partition.classes), key=lambda c: c[0])


def _non_negative_int(text):
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _orbit_fields(system):
    return {
        "orbits": _sorted_classes(system.partition),
        "generators": [w.as_list() for w in system.generators],
        "status": system.status,
    }


# Handlers take the parsed arguments and the loaded inputs and return
# (report fields, RunStats or None, exit code). They reach the library
# through this module's globals, looked up at call time.


def _orbits(args, g):
    system = compute_orbits(g, RefinementConfig(k=args.k))
    return _orbit_fields(system), system.stats, EXIT_OK


def _iso(args, g1, g2):
    result = iso_test(g1, g2, RefinementConfig(k=args.k), args.budget)
    fields = {
        "verdict": result.verdict,
        "witness": result.witness.as_list() if result.witness else None,
    }
    code = {
        ISOMORPHIC: EXIT_OK,
        NON_ISOMORPHIC: EXIT_NON_ISOMORPHIC,
        INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[result.verdict]
    return fields, result.stats, code


def _refine(args, g):
    coloring = refine(g, RefinementConfig(k=args.k))
    fields = {
        "classes": _sorted_classes(coloring.vertex_partition),
        "rounds": coloring.rounds_used,
        "discrete": coloring.is_discrete(),
    }
    return fields, RunStats(refine_calls=1), EXIT_OK


def _oracle_orbits(args, g):
    return {"orbits": _sorted_classes(brute_orbits(g, args.max_n))}, None, EXIT_OK


def _oracle_aut(args, g):
    auts = brute_aut(g, args.max_n)
    return {"automorphisms": [p.as_list() for p in auts], "order": len(auts)}, None, EXIT_OK


def _verify(args, g):
    system = compute_orbits(g, RefinementConfig(k=args.k))
    oracle_partition = brute_orbits(g, args.max_n)
    match = system.partition.same_blocks(oracle_partition)
    if system.status == CERTIFIED and not match:
        raise InternalInvariantError("certified partition disagrees with the oracle")
    fields = _orbit_fields(system)
    fields.update(oracle_orbits=_sorted_classes(oracle_partition), match=match)
    return fields, system.stats, EXIT_OK if system.status == CERTIFIED else EXIT_INCONCLUSIVE


def _assembly(args, ws):
    assembled, witness = is_assembled(ws)
    projection = sorted(project_to_vertices(ws))
    notes = []
    seen = set(projection)
    if any((b, a) in seen for a, b in projection if (a, b) != (b, a)):
        notes.append("projection contains reversed duplicates of other columns")
    fields = {
        "k": ws.k,
        "element_count": len(ws.elements),
        "assembled": assembled,
        "witness": [list(witness[0]), list(witness[1])] if witness else None,
        "projection": [[a, b] for a, b in projection],
        "notes": notes,
    }
    return fields, None, EXIT_OK


GRAPH, PAIR, WINDOWS = "graph", "pair", "windows"


class Command(NamedTuple):
    """A subcommand: help text, inputs, the flags it reads, and its handler."""

    help: str
    inputs: str  # GRAPH, PAIR or WINDOWS
    flags: tuple
    handler: Callable


COMMANDS = {
    "orbits": Command("orbit partition and generators of a graph", GRAPH, ("--k",), _orbits),
    "auts": Command("automorphism generators found by the engine", GRAPH, ("--k",), _orbits),
    "iso": Command("test two graphs for isomorphism", PAIR, ("--k", "--budget"), _iso),
    "refine": Command("stable coloring of a graph", GRAPH, ("--k",), _refine),
    "oracle-orbits": Command("brute-force orbit partition (small n)", GRAPH,
                             ("--max-n",), _oracle_orbits),
    "oracle-aut": Command("brute-force automorphism list (small n)", GRAPH,
                          ("--max-n",), _oracle_aut),
    "verify": Command("compare engine orbits against the brute-force oracle", GRAPH,
                      ("--k", "--max-n"), _verify),
    "assembly": Command("check a window set for assembly", WINDOWS, (), _assembly),
}

_FLAGS = {
    "--k": dict(type=int, choices=(1, 2, 3), default=2, help="refinement dimension (default 2)"),
    "--budget": dict(type=_non_negative_int, default=None,
                     help="at least 0; descent node cap, two per stage pair (default: 128 n)"),
    "--max-n": dict(type=_non_negative_int, default=8,
                    help="at least 0; brute-force size cap (default 8)"),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = _Parser(
        prog="autorbits",
        description="Orbits and generators of edge-colored digraph automorphism groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("file", help="input file")
        if command.inputs == PAIR:
            p.add_argument("file2", help="second input file")
        for flag in command.flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if command.inputs != WINDOWS:
            p.add_argument("--format", choices=("graph6", "dimacs", "cdg"),
                           default=None, help="override input format sniffing")
    return parser


def _indented_json(value, indent=""):
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, with
    indent after each line break. Strings, ints, floats, booleans, None,
    lists, tuples and str-keyed dicts are written here, and a list of ints
    with one join, since reports hold long lists of int lists; anything
    else is left to json.dumps, whose lines then take the indent."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, (bool, float)):
        return json.dumps(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        brackets = "[]"
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        elif set(map(type, value)) == {list} and set(map(type, itertools.chain.from_iterable(value))) <= {int}:
            start, comma, end = f"[\n{inner}  ", f",\n{inner}  ", f"\n{inner}]"
            items = [start + comma.join(map(int.__repr__, v)) + end if v else "[]" for v in value]
        else:
            items = [_indented_json(v, inner) for v in value]
    elif isinstance(value, dict) and all(isinstance(k, str) for k in value):
        if not value:
            return "{}"
        brackets = "{}"
        items = [f"{encode_basestring_ascii(k)}: {_indented_json(v, inner)}" for k, v in sorted(value.items())]
    else:
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def emit_report(payload, json_mode):
    """Render a result payload deterministically. The JSON report is the
    bytes of json.dumps(payload, sort_keys=True, indent=2), written without
    its pure-Python indenting encoder."""
    if json_mode:
        return _indented_json(payload) + "\n"
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            inner = " ".join(f"{k}={v}" for k, v in sorted(value.items()))
            lines.append(f"{key}: {inner}")
        elif isinstance(value, list):
            lines.append(f"{key}:")
            for item in value:
                lines.append(f"  {item}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _dispatch(args):
    """Load the inputs, time the handler, and assemble the report.

    Resource exhaustion anywhere becomes a typed error.
    """
    command = COMMANDS[args.command]
    try:
        if command.inputs == WINDOWS:
            inputs = [parse_window_set(load_document(args.file))]
        else:
            files = [args.file, args.file2] if command.inputs == PAIR else [args.file]
            inputs = [parse_graph(load_document(f, args.format)) for f in files]
        t0 = time.perf_counter()
        fields, stats, code = command.handler(args, *inputs)
        elapsed = time.perf_counter() - t0
    except MemoryError as exc:
        raise ResourceLimitError("out of memory") from exc
    except RecursionError as exc:
        raise ResourceLimitError(str(exc)) from exc
    payload = {"command": args.command}
    if command.inputs != WINDOWS:
        payload["n"] = inputs[0].n
    payload.update(fields)
    payload["stats"] = (stats or RunStats()).as_dict()
    payload["runtime_ms"] = int(elapsed * 1000)
    return payload, code


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        payload, code = _dispatch(args)
    except (ParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimitError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InternalInvariantError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except AutorbitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    sys.stdout.write(emit_report(payload, args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
