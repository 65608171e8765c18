"""Outside soundness checks, run after each pass and never timed.

Every check uses the benchmark's own matrices and numpy code, not the
package's ``is_automorphism`` or ``closure_orbits``. Each function takes an
``Op`` from ``corpus`` and a plain answer dict made by ``worker.answer`` and
returns a list of problems; an empty list means the answer is sound and
matches what the input's construction implies.
"""

from __future__ import annotations

import numpy as np

# Per op kind: the answer field that carries the outcome, and the final ones.
DECIDED = {
    "orbits": ("status", {"certified"}),
    "cli": ("status", {"certified"}),
    "iso": ("verdict", {"isomorphic", "non_isomorphic"}),
}


def _is_permutation(img, n):
    return img.shape == (n,) and np.array_equal(np.sort(img), np.arange(n))


def _classes(n, pairs):
    """Blocks of the finest partition of [0, n) joining each pair (u, v)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return [frozenset(g) for g in groups.values()]


def _generator_closure(n, images):
    return set(_classes(n, ((v, int(img[v])) for img in images for v in range(n))))


def _component_size_classes(mat):
    """Vertices grouped by the size of their connected component."""
    u, v = np.nonzero(mat == 1)
    by_size = {}
    for comp in _classes(mat.shape[0], zip(u.tolist(), v.tolist())):
        by_size.setdefault(len(comp), set()).update(comp)
    return {frozenset(g) for g in by_size.values()}


def check_orbits(op, ans):
    mat = op.graphs[0]
    n = mat.shape[0]
    problems = []
    images = [np.asarray(img, dtype=np.int64) for img in ans["generators"]]
    for i, img in enumerate(images):
        if not _is_permutation(img, n):
            problems.append(f"generator {i} is not a permutation")
        elif not np.array_equal(mat[np.ix_(img, img)], mat):
            problems.append(f"generator {i} is not an automorphism")
    if problems:
        return problems
    classes = {frozenset(c) for c in ans["orbits"]}
    if sum(len(c) for c in classes) != n or set().union(*classes) != set(range(n)):
        return ["orbits do not partition the vertex set"]
    if classes != _generator_closure(n, images):
        problems.append("orbits differ from the closure of the generators")
    expect = op.expect
    if "status" in expect and ans["status"] != expect["status"]:
        problems.append(f"status {ans['status']}, expected {expect['status']}")
    if "orbits" in expect and len(classes) != expect["orbits"]:
        problems.append(f"{len(classes)} orbits, expected {expect['orbits']}")
    if expect.get("by_component_size") and classes != _component_size_classes(mat):
        problems.append("orbits are not one class per cycle length")
    if expect.get("rigid") and (len(classes) != n or images):
        problems.append("rigid input got a non-discrete partition or generators")
    return problems


def check_iso(op, ans):
    g1, g2 = op.graphs
    verdict = ans["verdict"]
    problems = []
    if verdict == "isomorphic":
        w = ans["witness"]
        w = None if w is None else np.asarray(w, dtype=np.int64)
        if w is None or not _is_permutation(w, g1.shape[0]):
            problems.append("isomorphic verdict without a valid witness")
        elif not np.array_equal(g2[np.ix_(w, w)], g1):
            problems.append("witness does not map the first graph onto the second")
    elif ans["witness"] is not None:
        problems.append(f"{verdict} verdict carries a witness")
    expect = op.expect
    if "verdict" in expect and verdict != expect["verdict"]:
        problems.append(f"verdict {verdict}, expected {expect['verdict']}")
    if verdict == expect.get("not_verdict"):
        problems.append(f"verdict {verdict} on a known non-isomorphic pair")
    return problems


def check_cli(op, ans):
    if ans["exit_code"] != 0:
        return [f"exit code {ans['exit_code']}"]
    problems = []
    if ans["n"] != op.graphs[0].shape[0]:
        problems.append(f"reported n={ans['n']}")
    return problems + check_orbits(op, ans)


CHECKS = {"orbits": check_orbits, "iso": check_iso, "cli": check_cli}


def check(op, ans):
    return CHECKS[op.kind](op, ans)


def decided(op, ans):
    key, final = DECIDED[op.kind]
    return ans[key] in final
