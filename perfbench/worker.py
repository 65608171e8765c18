"""The workload process, started by ``run.py``; not meant to be run by hand.

``worker.py setup --workload W ...`` times one set-up: importing
``autorbits`` (numpy included) and finishing one untimed warm-up op of the
workload. It prints ``{"setup_s": ...}``.

``worker.py run --workload W --seed S --seconds T --trace 0|1 --work DIR
--work-root DIR`` builds the seeded corpus, then runs passes over it in one closed loop with
one client: each op starts when the previous one has returned. Passes
continue while the next one is expected to end within T seconds, with a
workload-specific minimum. After every pass, outside the timed region, each
answer goes through the outside soundness checks and its deterministic
counters are compared with the first pass. With ``--trace 1`` untraced and
traced passes alternate and the traced ones also yield per-layer numbers.
The last stdout line is one JSON object for ``run.py``.

The modules that import numpy (``corpus``, ``checks``) are imported only
after set-up, so that set-up time includes numpy's import.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

from spans import Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Latency quantiles use a level and kernel width fixed per workload by its
# minimum pass count, so the same ops of the corpus sit under them however
# many passes fit in a run.
MIN_PASSES = {"orbits-symmetric": 4, "iso-pairs": 2, "rigid-cli": 4}
TAIL_BEYOND = 10
SELF_SUM_TOLERANCE = 0.1

WARMUP_CDG = "cdg 5 3\n0 1 2 2 1\n1 0 1 2 2\n2 1 0 1 2\n2 2 1 0 1\n1 2 2 1 0\n"


def _import_autorbits():
    sys.path.insert(0, SRC)
    import autorbits
    import autorbits.cli

    if not os.path.abspath(autorbits.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"autorbits imported from {autorbits.__file__}, not {SRC}")
    return autorbits


def _run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def set_up(workload, work):
    """Import the package and finish one warm-up op; returns (pkg, seconds)."""
    warm = os.path.join(work, "warmup.cdg")
    if workload == "rigid-cli":
        with open(warm, "w") as fh:
            fh.write(WARMUP_CDG)
    t0 = perf_counter()
    pkg = _import_autorbits()
    if workload == "orbits-symmetric":
        pkg.compute_orbits(pkg.petersen_graph(), pkg.RefinementConfig(k=2))
    elif workload == "iso-pairs":
        g = pkg.petersen_graph()
        pkg.iso_test(g, g, pkg.RefinementConfig(k=1))
    else:
        code, _ = _run_cli(pkg.cli, ["orbits", warm, "--k", "2", "--json"])
        if code != 0:
            raise RuntimeError(f"warm-up CLI op exited {code}")
    return pkg, perf_counter() - t0


class Inputs:
    """Package-side inputs of one op, built before any timing."""

    def __init__(self, pkg, op, work):
        self.cfg = pkg.RefinementConfig(k=op.k)
        self.graphs = [pkg.EdgeColoredGraph(m) for m in op.graphs]
        self.argv = None
        if op.path is not None:
            path = os.path.join(work, op.path)
            self.argv = ["orbits", path, "--k", str(op.k), "--json"]


def call(pkg, op, inp):
    """The timed op. Goes through module attributes so a tracer sees it."""
    if op.kind == "orbits":
        return pkg.engine.compute_orbits(inp.graphs[0], inp.cfg)
    if op.kind == "iso":
        return pkg.engine.iso_test(inp.graphs[0], inp.graphs[1], inp.cfg)
    return _run_cli(pkg.cli, inp.argv)


def _stats(stats):
    # as_dict() leaves depth_budget_hits out, so read it directly.
    return {**stats.as_dict(), "depth_budget_hits": stats.depth_budget_hits}


def answer(op, raw):
    """Plain-data answer of an op, plus its deterministic counters."""
    if op.kind == "orbits":
        ans = {
            "status": raw.status,
            "orbits": [list(c) for c in raw.partition.classes],
            "generators": [w.image.tolist() for w in raw.generators],
            "stats": _stats(raw.stats),
        }
    elif op.kind == "iso":
        ans = {
            "verdict": raw.verdict,
            "witness": None if raw.witness is None else raw.witness.image.tolist(),
            "stats": _stats(raw.stats),
        }
    else:
        code, out = raw
        ans = {"exit_code": code}
        if code == 0:
            doc = json.loads(out)
            # The CLI report has no depth_budget_hits; its stats are kept as printed.
            ans.update(n=doc["n"], status=doc["status"], orbits=doc["orbits"],
                       generators=doc["generators"], stats=doc["stats"])
    outcome = ans.get("verdict", ans.get("status"))
    ans["counters"] = {
        "outcome": outcome,
        "classes": len(ans.get("orbits", ())),
        "generators": len(ans.get("generators", ())),
        **ans.get("stats", {}),
    }
    return ans


def kernel_quantile(sorted_values, level, n_ref):
    """Harrell-Davis quantile estimate with the kernel width of n_ref samples.

    The empirical quantile function is averaged under a Beta((n_ref+1)q,
    (n_ref+1)(1-q)) density; with n_ref equal to the sample count this is
    the Harrell-Davis estimator. Latencies cluster by op, so one order
    statistic jumps from op to op as noise reorders them, while the weighted
    mean moves smoothly. Fixing n_ref to the workload's minimum run keeps the
    width, and so the estimate, the same however many passes fit in a run.
    Needs (n_ref+1)q > 1 and (n_ref+1)(1-q) > 1, which every level used here
    meets.
    """
    import numpy as np

    n = len(sorted_values)
    a, b = level * (n_ref + 1), (1 - level) * (n_ref + 1)
    steps = 64
    x = np.linspace(0.0, 1.0, steps * n + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ np.asarray(sorted_values))


def _source_digest():
    h = hashlib.blake2b(digest_size=8)
    pkg_dir = os.path.join(SRC, "autorbits")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()


def _compare_with_earlier_runs(work, workload, seed, snapshot):
    """Counters of this seed must equal those of earlier runs of the same
    source; the first run of a (source, workload, seed) records them."""
    folder = os.path.join(work, "counters")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{_source_digest()}-{workload}-{seed}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        return [name for name, c in snapshot.items() if earlier.get(name) != c]
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(snapshot, fh, sort_keys=True)
    os.replace(tmp, path)
    return []


class Measurement:
    """Results of the passes of one run, gathered outside the timed region."""

    def __init__(self):
        self.untraced_lat = []  # per untraced pass: latency of each op
        self.traced_wall = []  # per traced pass: summed op latency
        self.layers = []  # per traced pass: layer_metrics()
        self.snapshot = {}  # op name -> counters of its first answer
        self.attempted = self.failed = self.decided = self.correct_untraced = 0
        self.problems = []

    def record(self, ops, raws, lat, index, traced):
        for op, raw in zip(ops, raws):
            self.attempted += 1
            if isinstance(raw, str):
                bad = [f"raised: {raw.strip().splitlines()[-1]}"]
            else:
                try:
                    ans = answer(op, raw)
                except (ValueError, KeyError) as exc:  # an unreadable CLI report
                    bad = [f"unreadable answer: {exc!r}"]
                else:
                    bad = self._judge(op, ans, index)
            if bad:
                self.failed += 1
                self.problems.append({"op": op.name, "pass": index, "problems": bad})
            elif not traced:
                self.correct_untraced += 1
        if traced:
            self.traced_wall.append(sum(lat))
        else:
            self.untraced_lat.append(lat)

    def _judge(self, op, ans, index):
        import checks

        bad = checks.check(op, ans)
        first = self.snapshot.setdefault(op.name, ans["counters"])
        if first != ans["counters"]:
            bad.append(f"counters {ans['counters']} differ from {first}")
        if index == 0:
            self.decided += checks.decided(op, ans)
        return bad


def measure(pkg, ops, inputs, seconds, trace, min_passes):
    """Closed loop over whole passes; with trace, odd passes are traced."""
    tracer = Tracer(pkg.engine, pkg.cli) if trace else None
    result = Measurement()
    last = {}  # traced? -> duration of the latest such pass
    start = perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        lat, raws = [], []
        pass_start = perf_counter()
        for j, (op, inp) in enumerate(zip(ops, inputs)):
            if traced:
                tracer.op = j
            t_op = perf_counter()
            try:
                raw = call(pkg, op, inp)
            except Exception:  # noqa: BLE001 - a raising op is a counted failure
                raw = traceback.format_exc(limit=3)
            lat.append(perf_counter() - t_op)
            raws.append(raw)
        last[traced] = perf_counter() - pass_start
        if traced:
            tracer.uninstall()
            result.layers.append(layer_metrics(tracer.take()))
        result.record(ops, raws, lat, index, traced)
        index += 1
        upcoming = trace and index % 2 == 1
        expected = last.get(upcoming, last[traced])
        if index >= min_passes and perf_counter() - start + expected > seconds:
            return result, index, perf_counter() - start


def run(args):
    pkg, own_setup_s = set_up(args.workload, args.work)
    import numpy as np

    import corpus

    t0 = perf_counter()
    ops = corpus.build(args.workload, args.seed)
    for op in ops:
        if op.path is not None:
            with open(os.path.join(args.work, op.path), "wb") as fh:
                fh.write(corpus.file_bytes(op))
    inputs = [Inputs(pkg, op, args.work) for op in ops]
    corpus_s = perf_counter() - t0

    trace = bool(args.trace)
    min_passes = 2 if trace else MIN_PASSES[args.workload]
    m, passes, measured_s = measure(pkg, ops, inputs, args.seconds, trace, min_passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for name in _compare_with_earlier_runs(args.work_root, args.workload, args.seed, m.snapshot):
        m.failed += 1
        m.problems.append({"op": name, "problems": ["counters differ from an earlier run"]})

    samples = sorted(x for lat in m.untraced_lat for x in lat)
    n_ref = MIN_PASSES[args.workload] * len(ops)
    level = 1 - TAIL_BEYOND / n_ref
    untraced_wall = sum(samples)
    out = {
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems[:20],
        "passes": passes,
        "untraced_passes": len(m.untraced_lat),
        "ops_per_pass": len(ops),
        "measured_s": measured_s,
        "corpus_s": corpus_s,
        "own_setup_s": own_setup_s,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "counters_digest": hashlib.blake2b(
            json.dumps(m.snapshot, sort_keys=True).encode(), digest_size=8).hexdigest(),
        "decided_per_pass": m.decided,
        "tail": {
            "level": level,
            "samples": len(samples),
            "beyond": len(samples) - math.ceil(level * len(samples)),
        },
        "per_op_ms": {
            op.name: [round(1000 * lat[j], 3) for lat in m.untraced_lat]
            for j, op in enumerate(ops)
        },
        "metrics": {
            "ops_per_s": m.correct_untraced / untraced_wall,
            "op_p50_ms": 1000 * kernel_quantile(samples, 0.5, n_ref),
            "op_tail_ms": 1000 * kernel_quantile(samples, level, n_ref),
            "peak_rss_mb": peak_rss_mb,
            "decided_share": m.decided / len(ops),
            "correct_share": 1 - m.failed / m.attempted,
        },
    }
    if trace:
        per_layer = {name: statistics.median(x[name] for x in m.layers) for name in m.layers[0]}
        traced_ops_per_s = len(ops) * len(m.traced_wall) / sum(m.traced_wall)
        untraced_ops_per_s = len(samples) / untraced_wall
        per_layer["trace.ops_per_s_traced"] = traced_ops_per_s
        per_layer["trace.ops_per_s_untraced"] = untraced_ops_per_s
        per_layer["trace.overhead_ratio"] = traced_ops_per_s / untraced_ops_per_s
        share = sum(x["trace.self_s_total"] for x in m.layers) / sum(m.traced_wall)
        per_layer["trace.self_sum_share"] = share
        out["per_layer"] = per_layer
        # Self times must account for the traced ops' wall time.
        out["trace_accounted"] = abs(share - 1) <= SELF_SUM_TOLERANCE
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="working folder of this run")
    parser.add_argument("--work-root", required=True, help="folder kept across runs")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _, seconds = set_up(args.workload, args.work)
        result = {"setup_s": seconds}
    else:
        result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
