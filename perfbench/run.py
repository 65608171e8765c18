"""Seeded, closed-loop benchmark of autorbits: orbits, iso tests and the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload orbits-symmetric --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``orbits-symmetric``: ``compute_orbits`` on structured symmetric families
  at k=1, 2 and 3, in their natural labeling.
* ``iso-pairs``: ``iso_test`` on relabel pairs and known non-isomorphic pairs.
* ``rigid-cli``: ``autorbits.cli.main([... "--json"])`` in process, on
  graph6, DIMACS and CDG files of rigid random graphs written at set-up.

One process per workload (``worker.py run``) builds the corpus from the seed,
then runs passes over it serially with one client, checks every answer
outside the timed region and compares each op's deterministic counters with
the first pass and with earlier runs of the same seed and source. Set-up is
timed in seven fresh processes (``worker.py setup``) and reported as their
median.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s``: import ``autorbits`` and finish one warm-up op (median of 7).
* ``ops_per_s``: correct ops per second of timed wall time.
* ``op_p50_ms``: median op latency.
* ``op_tail_ms``: op latency at a level fixed per workload, the highest one
  with at least ten samples beyond it in a run of the workload's minimum
  pass count; the report gives the level, sample count and samples beyond.
  Both latency quantiles are Harrell-Davis estimates with a kernel width
  fixed per workload (see ``worker.kernel_quantile``).
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process.
* ``decided_share``: ops with a final answer (``certified``; ``isomorphic``
  or ``non_isomorphic``) per op of a pass.
* ``correct_share``: 1 - error rate, where an error is an op that raised,
  answered wrongly, failed the outside soundness check or changed a counter.

With ``--trace 1`` untraced and traced passes alternate; the last line
carries the per-layer metrics of ``BENCHMARK.json``, from spans recorded by
``spans.py`` around the package functions that ``engine`` and ``cli`` call.
Counts are per pass, times are seconds per pass (median over traced passes).
A traced run counts as incorrect unless the spans' self times add up to
within 10% of the traced ops' wall time; ``trace.overhead_ratio`` is traced
over untraced ops per second.

Every line before the last is a JSON report: run environment (git SHA,
Python and numpy versions, usable CPUs, load average at start), pass and
sample counts, corpus time, per-op median latencies and any problems.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 7
RUN_TIMEOUT_S = 140
PROBE_TIMEOUT_S = 5


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _worker(args, mode, work, timeout):
    cmd = [
        sys.executable, WORKER, mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--work-root", WORK_ROOT,
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="autorbits benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("orbits-symmetric", "iso-pairs", "rigid-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "autorbits", "__init__.py")):
        print(f"no autorbits sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        result = _worker(args, "run", work, RUN_TIMEOUT_S)
        setup = []
        if not args.trace:
            setup = [_worker(args, "setup", work, PROBE_TIMEOUT_S)["setup_s"]
                     for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        produced = result["per_layer"]
        units = _declared("per_layer")
    else:
        produced = dict(result["metrics"], setup_s=statistics.median(setup))
        units = _declared("end_to_end")
    missing = sorted(set(units) - set(produced))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_sha": _git_sha(),
            "python": result["python"],
            "numpy": result["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_at_start": load_at_start,
        },
        "setup_s_samples": setup,
        **{k: v for k, v in result.items()
           if k not in ("metrics", "per_layer", "python", "numpy")},
    }
    if args.trace:
        report["end_to_end_untraced"] = result["metrics"]
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and result.get("trace_accounted", True),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": produced[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
