"""Outside-in tracing of one benchmark pass.

``Tracer.install`` swaps the package functions that ``autorbits.engine`` and
``autorbits.cli`` reach through their module globals for wrappers that
record spans in memory: name, start, end, parent span, op id and a few
per-call facts (refine dimension, order and rounds; parse input size; merge
and extraction success). ``uninstall`` puts the originals back. Nothing
under ``src/`` changes; the package sees the wrappers only while installed.

``layer_metrics`` turns the spans of one pass into the per-layer numbers.
A layer's ``.s`` is its inclusive time and ``.self_s`` its time minus the
time of its traced children; both leave out the tracer's own bookkeeping
(``trace.*`` spans), which the self-time sum still accounts for.
"""

from __future__ import annotations

import functools
import hashlib
from time import perf_counter

# Module-global name -> span name. ``refine`` is named per dimension at call
# time (``refine.k1`` .. ``refine.k3``).
REFINE = "refine"
ENGINE_LAYERS = {
    "refine": REFINE,
    "individualize_sequence": "refine.individualize_sequence",
    "apply_permutation": "graphs.apply_permutation",
    "disjoint_union": "graphs.disjoint_union",
    "is_automorphism": "graphs.is_automorphism",
    "closure_orbits": "oracle.closure_orbits",
    "partition_join": "partitions.partition_join",
    "compute_orbits": "engine.compute_orbits",
    "find_regular_stage": "engine.find_regular_stage",
    "stage_orbits": "engine.stage_orbits",
    "verify_merge": "engine.verify_merge",
    "canonical_form_discrete": "engine.canonical_form_discrete",
    "extract_isomorphism": "engine.extract_isomorphism",
    "iso_test": "engine.iso_test",
}
CLI_LAYERS = {
    "main": "cli.main",
    "emit_report": "cli.emit_report",
    "load_document": "formats.load_document",
    "parse_graph": "formats.parse_graph",
    "compute_orbits": "engine.compute_orbits",
    "iso_test": "engine.iso_test",
    "refine": REFINE,
}
STATS_FIELDS = (
    "refine_calls",
    "verify_tree_nodes",
    "verify_tree_depth_max",
    "depth_budget_hits",
)
ENTRY_POINTS = ("engine.compute_orbits", "engine.iso_test")

NAME, START, END, PARENT, OP, INFO = range(6)


def _refine_k(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    return 2 if cfg is None else cfg.k


class Tracer:
    """Span recorder for the wrapped package functions.

    Spans are lists ``[name, start, end, parent, op, info]``; ``op`` is
    whatever the caller last assigned to ``tracer.op``.
    """

    def __init__(self, engine, cli):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []
        self._targets = ((engine, ENGINE_LAYERS), (cli, CLI_LAYERS))

    def install(self):
        for module, layers in self._targets:
            for attr, name in layers.items():
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self):
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def _open(self, name):
        spans = self.spans
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(spans))
        spans.append(rec)
        return rec

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                rec[START] = perf_counter()
                if name == REFINE:
                    rec[NAME] = f"refine.k{_refine_k(args, kwargs)}"
                    rec[INFO] = {"n": args[0].n, "input": self._digest(args[0])}
                out = fn(*args, **kwargs)
                rec[END] = perf_counter()
            finally:
                self._stack.pop()
            _annotate(rec, args, out)
            return out

        return traced

    def _digest(self, g):
        """Input fingerprint for the distinct-input ratio, in its own span."""
        rec = self._open("trace.digest")
        try:
            rec[START] = perf_counter()
            digest = hashlib.blake2b(g.colors.data, digest_size=16).digest()
            rec[END] = perf_counter()
        finally:
            self._stack.pop()
        return digest


def _annotate(rec, args, out):
    name = rec[NAME]
    if name.startswith("refine.k"):
        rec[INFO]["rounds"] = out.rounds_used
    elif name == "formats.parse_graph":
        rec[INFO] = {"bytes": len(args[0].payload)}
    elif name in ("engine.verify_merge", "engine.extract_isomorphism"):
        rec[INFO] = {"ok": out is not None}
    elif name in ENTRY_POINTS:
        system = out if name == "engine.compute_orbits" else out.orbit_system
        emitted = len(system.generators) if system is not None else 0
        if name == "engine.iso_test" and out.witness is not None:
            emitted += 1
        rec[INFO] = {"stats": [getattr(out.stats, f) for f in STATS_FIELDS],
                     "emitted": emitted}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer numbers of one traced pass (counts per pass, seconds)."""
    count = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * count
    bookkeeping = [0.0] * count
    for i in range(count - 1, -1, -1):
        parent = spans[i][PARENT]
        if parent >= 0:
            child[parent] += dur[i]
            own = dur[i] if spans[i][NAME].startswith("trace.") else 0.0
            bookkeeping[parent] += bookkeeping[i] + own

    calls, incl, self_s = {}, {}, {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[i] - bookkeeping[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]

    m = {}
    for name in (
        "refine.individualize_sequence",
        "engine.verify_merge",
        "engine.canonical_form_discrete",
        "engine.extract_isomorphism",
        "graphs.is_automorphism",
        "graphs.apply_permutation",
        "partitions.partition_join",
        "oracle.closure_orbits",
    ):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = incl.get(name, 0.0)
    for name in (
        "engine.compute_orbits",
        "engine.find_regular_stage",
        "engine.stage_orbits",
        "engine.verify_merge",
        "engine.iso_test",
        "cli.main",
    ):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["formats.parse_graph.s"] = incl.get("formats.parse_graph", 0.0)
    m["cli.emit_report.s"] = incl.get("cli.emit_report", 0.0)

    rounds = {1: 0, 2: 0, 3: 0}
    computed_bytes = 0
    inputs_by_op = {}
    parse_bytes = 0
    ok = {"engine.verify_merge": 0, "engine.extract_isomorphism": 0}
    precheck = 0.0
    stats = [0] * len(STATS_FIELDS)
    emitted = 0
    for i, s in enumerate(spans):
        name, info = s[NAME], s[INFO]
        if name.startswith("refine.k"):
            k = int(name[-1])
            rounds[k] += info["rounds"]
            if k == 2:
                computed_bytes += (info["rounds"] + 1) * info["n"] ** 3 * 8
            inputs_by_op.setdefault(s[OP], set()).add(info["input"])
        elif name == "formats.parse_graph":
            parse_bytes += info["bytes"]
        elif name in ok:
            ok[name] += info["ok"]
        parent = s[PARENT]
        parent_name = spans[parent][NAME] if parent >= 0 else ""
        if (parent_name == "engine.iso_test" and name != "engine.compute_orbits"
                and not name.startswith("trace.")):
            precheck += dur[i] - bookkeeping[i]
        if name in ENTRY_POINTS and not parent_name.startswith("engine."):
            top = info["stats"]
            for j, field in enumerate(STATS_FIELDS):
                stats[j] = max(stats[j], top[j]) if field.endswith("_max") else stats[j] + top[j]
            emitted += info["emitted"]

    for k in (1, 2, 3):
        m[f"refine.k{k}.calls"] = calls.get(f"refine.k{k}", 0)
        m[f"refine.k{k}.s"] = incl.get(f"refine.k{k}", 0.0)
        m[f"refine.k{k}.rounds"] = rounds[k]
    m["refine.k2.computed_gb"] = computed_bytes / 1e9
    distinct = sum(len(v) for v in inputs_by_op.values())
    refine_total = sum(m[f"refine.k{k}.calls"] for k in (1, 2, 3))
    m["refine.distinct_ratio"] = _ratio(distinct, refine_total)
    m["engine.verify_merge.success_ratio"] = _ratio(
        ok["engine.verify_merge"], calls.get("engine.verify_merge", 0))
    m["engine.extract_isomorphism.hit_ratio"] = _ratio(
        ok["engine.extract_isomorphism"], calls.get("engine.extract_isomorphism", 0))
    m["engine.iso_test.precheck_s"] = precheck
    for field, value in zip(STATS_FIELDS, stats):
        m[f"engine.{field}"] = value
    # Soundness guard: every emitted generator or witness is verified at least once.
    m["graphs.verifications_per_emitted"] = _ratio(
        calls.get("graphs.is_automorphism", 0) + calls.get("graphs.apply_permutation", 0),
        emitted)
    m["formats.parse_graph.mb_per_s"] = _ratio(parse_bytes / 1e6, m["formats.parse_graph.s"])
    m["trace.self_s_total"] = sum(dur[i] - child[i] for i in range(count))
    return m
