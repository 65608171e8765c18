"""Command-line interface with deterministic JSON and text reporting.

Exit codes: 0 success (or isomorphic), 1 non-isomorphic, 2 inconclusive or
lower_bound where certification was requested (iso / verify), 3 parse error,
4 usage error, 5 internal invariant violation or any other unexpected error,
6 resource limit (out of memory or recursion depth).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

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
from .oracle import OracleLimit, brute_aut, brute_orbits
from .refine import RefinementConfig, refine
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


def _stats_payload(stats):
    return (stats or RunStats()).as_dict()


def _non_negative_int(text):
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser():
    parser = _Parser(
        prog="autorbits",
        description="Orbits and generators of edge-colored digraph automorphism groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, files=1):
        p = sub.add_parser(name, help=help_text)
        if files >= 1:
            p.add_argument("file", help="input file")
        if files == 2:
            p.add_argument("file2", help="second input file")
        p.add_argument("--k", type=int, choices=(1, 2, 3), default=2,
                       help="refinement dimension (default 2)")
        p.add_argument("--budget", type=_non_negative_int, default=None,
                       help="at least 0; orbits/verify: iteration cap "
                            "(default: n - 1); iso: descent node cap, two per "
                            "stage pair (default: 128 n)")
        p.add_argument("--max-n", type=int, default=None,
                       help="brute-force size cap override")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--format", choices=("graph6", "dimacs", "cdg", "ws"),
                       default=None, help="override input format sniffing")
        return p

    add("orbits", "orbit partition and generators of a graph")
    add("auts", "automorphism generators found by the engine")
    add("iso", "test two graphs for isomorphism", files=2)
    add("refine", "stable coloring of a graph")
    add("oracle-orbits", "brute-force orbit partition (small n)")
    add("oracle-aut", "brute-force automorphism list (small n)")
    add("verify", "compare engine orbits against the brute-force oracle")
    add("assembly", "check a window set for assembly")
    return parser


def _graph_from(args, which="file"):
    doc = load_document(getattr(args, which), args.format)
    return parse_graph(doc)


def _cfg(args):
    return RefinementConfig(k=args.k)


def _oracle_kwargs(args):
    if args.max_n is None:
        return {}
    return {"limit": OracleLimit(max_n=args.max_n), "force": False}


def _cmd_orbits(args, command):
    g = _graph_from(args)
    t0 = time.perf_counter()
    system = compute_orbits(g, _cfg(args), args.budget)
    elapsed = time.perf_counter() - t0
    payload = {
        "command": command,
        "n": g.n,
        "orbits": _sorted_classes(system.partition),
        "generators": [w.as_list() for w in system.generators],
        "status": system.status,
        "stats": _stats_payload(system.stats),
        "runtime_ms": int(elapsed * 1000),
    }
    return payload, EXIT_OK


def _cmd_iso(args):
    g1 = _graph_from(args, "file")
    g2 = _graph_from(args, "file2")
    t0 = time.perf_counter()
    result = iso_test(g1, g2, _cfg(args), args.budget)
    elapsed = time.perf_counter() - t0
    payload = {
        "command": "iso",
        "n": g1.n,
        "verdict": result.verdict,
        "witness": result.witness.as_list() if result.witness else None,
        "stats": _stats_payload(result.stats),
        "runtime_ms": int(elapsed * 1000),
    }
    code = {
        ISOMORPHIC: EXIT_OK,
        NON_ISOMORPHIC: EXIT_NON_ISOMORPHIC,
        INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[result.verdict]
    return payload, code


def _cmd_refine(args):
    g = _graph_from(args)
    t0 = time.perf_counter()
    coloring = refine(g, _cfg(args))
    elapsed = time.perf_counter() - t0
    stats = RunStats(refine_calls=1)
    payload = {
        "command": "refine",
        "n": g.n,
        "classes": _sorted_classes(coloring.vertex_partition),
        "rounds": coloring.rounds_used,
        "discrete": coloring.is_discrete(),
        "stats": _stats_payload(stats),
        "runtime_ms": int(elapsed * 1000),
    }
    return payload, EXIT_OK


def _cmd_oracle_orbits(args):
    g = _graph_from(args)
    t0 = time.perf_counter()
    partition = brute_orbits(g, **_oracle_kwargs(args))
    elapsed = time.perf_counter() - t0
    payload = {
        "command": "oracle-orbits",
        "n": g.n,
        "orbits": _sorted_classes(partition),
        "stats": _stats_payload(None),
        "runtime_ms": int(elapsed * 1000),
    }
    return payload, EXIT_OK


def _cmd_oracle_aut(args):
    g = _graph_from(args)
    t0 = time.perf_counter()
    auts = brute_aut(g, **_oracle_kwargs(args))
    elapsed = time.perf_counter() - t0
    payload = {
        "command": "oracle-aut",
        "n": g.n,
        "automorphisms": [p.as_list() for p in auts],
        "order": len(auts),
        "stats": _stats_payload(None),
        "runtime_ms": int(elapsed * 1000),
    }
    return payload, EXIT_OK


def _cmd_verify(args):
    g = _graph_from(args)
    t0 = time.perf_counter()
    system = compute_orbits(g, _cfg(args), args.budget)
    oracle_partition = brute_orbits(g, **_oracle_kwargs(args))
    elapsed = time.perf_counter() - t0
    match = system.partition.same_blocks(oracle_partition)
    payload = {
        "command": "verify",
        "n": g.n,
        "orbits": _sorted_classes(system.partition),
        "oracle_orbits": _sorted_classes(oracle_partition),
        "generators": [w.as_list() for w in system.generators],
        "status": system.status,
        "match": match,
        "stats": _stats_payload(system.stats),
        "runtime_ms": int(elapsed * 1000),
    }
    if system.status == CERTIFIED and not match:
        raise InternalInvariantError("certified partition disagrees with the oracle")
    code = EXIT_OK if system.status == CERTIFIED else EXIT_INCONCLUSIVE
    return payload, code


def _cmd_assembly(args):
    doc = load_document(args.file, args.format)
    ws = parse_window_set(doc)
    t0 = time.perf_counter()
    assembled, witness = is_assembled(ws)
    projection = sorted(project_to_vertices(ws))
    elapsed = time.perf_counter() - t0
    notes = []
    seen = set(projection)
    if any((b, a) in seen for a, b in projection if (a, b) != (b, a)):
        notes.append("projection contains reversed duplicates of other columns")
    payload = {
        "command": "assembly",
        "k": ws.k,
        "element_count": len(ws.elements),
        "assembled": assembled,
        "witness": [list(witness[0]), list(witness[1])] if witness else None,
        "projection": [[a, b] for a, b in projection],
        "notes": notes,
        "stats": _stats_payload(None),
        "runtime_ms": int(elapsed * 1000),
    }
    return payload, EXIT_OK


def emit_report(payload, json_mode):
    """Render a result payload deterministically."""
    if json_mode:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
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
    """Run one parsed command; resource exhaustion becomes a typed error."""
    try:
        if args.command in ("orbits", "auts"):
            return _cmd_orbits(args, args.command)
        if args.command == "iso":
            return _cmd_iso(args)
        if args.command == "refine":
            return _cmd_refine(args)
        if args.command == "oracle-orbits":
            return _cmd_oracle_orbits(args)
        if args.command == "oracle-aut":
            return _cmd_oracle_aut(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_assembly(args)
    except MemoryError as exc:
        raise ResourceLimitError("out of memory") from exc
    except RecursionError as exc:
        raise ResourceLimitError(str(exc)) from exc


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        payload, code = _dispatch(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
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
