import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autorbits import complete_graph, cycle_graph, emit_cdg, path_graph
from util import cycle_union, rigid6

DATA = Path(__file__).parent / "data"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "autorbits", *args],
        capture_output=True,
        text=True,
    )
    return proc


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(emit_cdg(g))
    return str(path)


def test_orbits_k4(tmp_path):
    path = write_graph(tmp_path, "k4.cdg", complete_graph(4))
    proc = run_cli("orbits", path, "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "orbits"
    assert payload["orbits"] == [[0, 1, 2, 3]]
    assert payload["status"] == "certified"
    assert set(payload["stats"]) == {
        "refine_calls",
        "verify_tree_nodes",
        "verify_tree_depth_max",
        "depth_budget_hits",
    }


def test_orbits_rigid_graph(tmp_path):
    path = write_graph(tmp_path, "rigid.cdg", rigid6())
    payload = json.loads(run_cli("orbits", path, "--json").stdout)
    assert payload["orbits"] == [[0], [1], [2], [3], [4], [5]]
    assert payload["generators"] == []


def test_auts_reports_generators(tmp_path):
    path = write_graph(tmp_path, "p3.cdg", path_graph(3))
    payload = json.loads(run_cli("auts", path, "--json").stdout)
    assert payload["command"] == "auts"
    assert [2, 1, 0] in payload["generators"]


def test_iso_exit_codes(tmp_path):
    a = write_graph(tmp_path, "a.cdg", cycle_graph(5))
    b = write_graph(tmp_path, "b.cdg", cycle_graph(5))
    c = write_graph(tmp_path, "c.cdg", path_graph(5))
    ok = run_cli("iso", a, b, "--json")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["verdict"] == "isomorphic"
    non = run_cli("iso", a, c, "--json")
    assert non.returncode == 1
    assert json.loads(non.stdout)["verdict"] == "non_isomorphic"


def test_refine_command(tmp_path):
    path = write_graph(tmp_path, "p3.cdg", path_graph(3))
    payload = json.loads(run_cli("refine", path, "--k", "1", "--json").stdout)
    assert payload["classes"] == [[0, 2], [1]]
    assert payload["discrete"] is False


def test_oracle_commands(tmp_path):
    path = write_graph(tmp_path, "p3.cdg", path_graph(3))
    orbits = json.loads(run_cli("oracle-orbits", path, "--json").stdout)
    assert orbits["orbits"] == [[0, 2], [1]]
    auts = json.loads(run_cli("oracle-aut", path, "--json").stdout)
    assert auts["automorphisms"] == [[0, 1, 2], [2, 1, 0]]
    assert auts["order"] == 2


def test_oracle_size_cap(tmp_path):
    path = write_graph(tmp_path, "k9.cdg", complete_graph(9))
    proc = run_cli("oracle-orbits", path, "--json")
    assert proc.returncode == 4
    ok = run_cli("oracle-orbits", path, "--max-n", "9", "--json")
    assert ok.returncode == 0


def test_verify_command(tmp_path):
    path = write_graph(tmp_path, "c5.cdg", cycle_graph(5))
    proc = run_cli("verify", path, "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["match"] is True
    assert payload["status"] == "certified"


def test_assembly_command():
    good = run_cli("assembly", str(DATA / "assembled2.ws"), "--json")
    assert good.returncode == 0
    payload = json.loads(good.stdout)
    assert payload["assembled"] is True
    assert payload["witness"] == [[1, 2, 3], [4, 5, 6]]
    bad = json.loads(run_cli("assembly", str(DATA / "broken2.ws"), "--json").stdout)
    assert bad["assembled"] is False
    assert bad["witness"] is None
    assert bad["notes"]


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.cdg"
    path.write_text("cdg 2 2\n0 9\n1 0\n")
    proc = run_cli("orbits", str(path))
    assert proc.returncode == 3
    assert "parse error" in proc.stderr


def test_missing_file_exit_code():
    assert run_cli("orbits", "/nonexistent.cdg").returncode == 3


def test_directory_input_is_a_parse_error(tmp_path, capsys):
    from autorbits import cli as cli_module

    assert cli_module.main(["orbits", str(tmp_path), "--json"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("parse error:") and out.err.count("\n") == 1


def test_graph6_complete_graph_is_not_the_empty_graph(tmp_path, capsys):
    from autorbits import cli as cli_module

    k5, e5 = tmp_path / "k5.g6", tmp_path / "e5.g6"
    k5.write_text("D~{\n")
    e5.write_text("D??\n")
    assert cli_module.main(["iso", str(k5), str(e5), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "non_isomorphic"


def test_usage_error_exit_code():
    assert run_cli("orbits").returncode == 4
    assert run_cli("frobnicate", "x").returncode == 4


def test_format_override(tmp_path):
    path = tmp_path / "odd.name"
    path.write_text("cdg 3 2\n0 1 1\n1 0 1\n1 1 0\n")
    proc = run_cli("orbits", str(path), "--format", "cdg", "--json")
    assert proc.returncode == 0


def test_text_mode_output(tmp_path):
    path = write_graph(tmp_path, "k3.cdg", complete_graph(3))
    proc = run_cli("orbits", path)
    assert proc.returncode == 0
    assert "status: certified" in proc.stdout


def test_json_deterministic_across_runs(tmp_path):
    path = write_graph(tmp_path, "c5.cdg", cycle_graph(5))
    outputs = set()
    for _ in range(3):
        payload = json.loads(run_cli("orbits", path, "--json").stdout)
        payload["runtime_ms"] = 0
        outputs.add(json.dumps(payload, sort_keys=True))
    assert len(outputs) == 1


def test_seed_flag_rejected(tmp_path):
    path = write_graph(tmp_path, "k3.cdg", complete_graph(3))
    assert run_cli("orbits", path, "--seed", "7", "--json").returncode == 4


def test_strategy_flag_rejected(tmp_path):
    path = write_graph(tmp_path, "k3.cdg", complete_graph(3))
    assert run_cli("orbits", path, "--strategy", "first", "--json").returncode == 4


@pytest.mark.parametrize("command", ["iso"])
def test_negative_budget_is_a_usage_error(tmp_path, capsys, command):
    from autorbits import cli as cli_module

    path = write_graph(tmp_path, "k3.cdg", complete_graph(3))
    assert cli_module.main([command, path, path, "--budget", "-1", "--json"]) == 4
    out = capsys.readouterr()
    assert out.out == "" and "--budget" in out.err


def test_one_parser_serves_every_call(tmp_path, capsys):
    from autorbits import cli as cli_module

    assert cli_module.build_parser() is cli_module.build_parser()
    path = write_graph(tmp_path, "k3.cdg", complete_graph(3))
    errors = []
    for argv in (["orbits", path, "--max-n", "3"], ["refine", path, "--json"],
                 ["orbits", path, "--max-n", "3"]):
        code = cli_module.main(argv)
        errors.append((code, capsys.readouterr().err))
    assert errors[0] == errors[2] and errors[0][0] == 4 and "--max-n" in errors[0][1]
    assert errors[1] == (0, "")


@pytest.mark.parametrize("value", ["-1", "+3", " 3"])
@pytest.mark.parametrize("command", ["oracle-orbits", "oracle-aut", "verify"])
def test_bad_oracle_cap_is_a_usage_error(tmp_path, capsys, command, value):
    from autorbits import cli as cli_module

    path = write_graph(tmp_path, "k3.cdg", complete_graph(3))
    assert cli_module.main([command, path, "--max-n", value, "--json"]) == 4
    out = capsys.readouterr()
    assert out.out == "" and "--max-n" in out.err


def test_dimacs_order_beyond_addressable_is_a_resource_limit(tmp_path, capsys):
    from autorbits import cli as cli_module

    # The header alone: the order is refused before anything is allocated.
    path = tmp_path / "huge.dimacs"
    path.write_text("p edge 10000000000 0\n")
    assert cli_module.main(["orbits", str(path), "--json"]) == 6
    err = capsys.readouterr().err
    assert "resource limit" in err
    assert "Traceback" not in err


def test_verify_lower_bound_exit_code(tmp_path):
    from autorbits import from_undirected_edges

    # triangle and square as components of one simple graph: every vertex has
    # degree 2, so k=1 refinement keeps a single class the engine cannot reach
    g = from_undirected_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    path = write_graph(tmp_path, "c34.cdg", g)
    proc = run_cli("verify", path, "--k", "1", "--json")
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["status"] == "lower_bound"
    assert payload["match"] is True  # partition still equals the oracle's


def test_iso_inconclusive_exit_code(tmp_path):
    from util import rook_graph_4x4, shrikhande_graph

    # exhausting this pair's descent at k=1 takes 226 nodes
    a = write_graph(tmp_path, "rook.cdg", rook_graph_4x4())
    b = write_graph(tmp_path, "shrik.cdg", shrikhande_graph())
    proc = run_cli("iso", a, b, "--k", "1", "--budget", "100", "--json")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["verdict"] == "inconclusive"


def test_iso_default_budget_separates_hard_pair(tmp_path):
    from util import rook_graph_4x4, shrikhande_graph

    a = write_graph(tmp_path, "rook.cdg", rook_graph_4x4())
    b = write_graph(tmp_path, "shrik.cdg", shrikhande_graph())
    proc = run_cli("iso", a, b, "--k", "1", "--json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "non_isomorphic"
    assert payload["witness"] is None
    assert set(payload) == {"command", "n", "verdict", "witness", "stats", "runtime_ms"}


def test_internal_invariant_exit_code(tmp_path, monkeypatch, capsys):
    from autorbits import InternalInvariantError
    from autorbits import cli as cli_module

    path = write_graph(tmp_path, "k3.cdg", complete_graph(3))

    def explode(*args, **kwargs):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli_module, "compute_orbits", explode)
    code = cli_module.main(["orbits", path])
    assert code == 5
    assert "internal invariant violation" in capsys.readouterr().err


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_limit_exit_code(tmp_path, monkeypatch, capsys, error):
    from autorbits import cli as cli_module

    path = write_graph(tmp_path, "k3.cdg", complete_graph(3))

    def exhaust(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli_module, "compute_orbits", exhaust)
    code = cli_module.main(["orbits", path])
    assert code == 6
    err = capsys.readouterr().err
    assert "resource limit" in err
    assert "Traceback" not in err


def test_unexpected_error_exit_code(tmp_path, monkeypatch, capsys):
    from autorbits import cli as cli_module

    path = write_graph(tmp_path, "k3.cdg", complete_graph(3))

    def broken(*args, **kwargs):
        raise KeyError("synthetic")

    monkeypatch.setattr(cli_module, "compute_orbits", broken)
    code = cli_module.main(["orbits", path])
    assert code == 5
    assert "internal error: KeyError" in capsys.readouterr().err


def test_determinism_independent_of_hash_seed(tmp_path):
    import os

    path = write_graph(tmp_path, "c6.cdg", cycle_graph(6))
    outputs = set()
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "autorbits", "orbits", str(path), "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        payload = json.loads(proc.stdout)
        payload["runtime_ms"] = 0
        outputs.add(json.dumps(payload, sort_keys=True))
    assert len(outputs) == 1


# Flags a command does not read, which it used to accept.
UNREAD_FLAGS = [
    ("orbits", "--budget", "5"),
    ("auts", "--budget", "5"),
    ("verify", "--budget", "5"),
    ("orbits", "--max-n", "9"),
    ("auts", "--max-n", "9"),
    ("iso", "--max-n", "9"),
    ("refine", "--budget", "5"),
    ("refine", "--max-n", "9"),
    ("oracle-orbits", "--k", "1"),
    ("oracle-orbits", "--budget", "5"),
    ("oracle-aut", "--k", "3"),
    ("oracle-aut", "--budget", "5"),
    ("assembly", "--k", "2"),
    ("assembly", "--budget", "5"),
    ("assembly", "--max-n", "9"),
    ("assembly", "--format", "ws"),
    ("orbits", "--format", "ws"),
]


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS)
def test_flag_the_command_does_not_take_is_a_usage_error(tmp_path, capsys, command, flag, value):
    from autorbits import cli as cli_module

    path = write_graph(tmp_path, "k3.cdg", complete_graph(3))
    files = {"iso": [path, path], "assembly": [str(DATA / "assembled2.ws")]}.get(command, [path])
    assert cli_module.main([command, *files, flag, value, "--json"]) == 4
    out = capsys.readouterr()
    assert out.out == "" and flag in out.err


@pytest.mark.parametrize("name,text", [
    ("order.dimacs", "p edge 1000 0\n"),
    ("order.cdg", "cdg 400 1\n"),
    # graph6 of the empty graph on 400 vertices: size field, then zero bits
    ("order.g6", "~?EO" + "?" * (400 * 399 // 2 // 6) + "\n"),
])
def test_order_beyond_memory_is_a_resource_limit(tmp_path, monkeypatch, capsys, name, text):
    from autorbits import cli as cli_module
    from autorbits import formats

    # 400 x 400 int64 entries need 1.28 MB, more than this memory.
    monkeypatch.setattr(formats, "_physical_memory", lambda: 10**6)
    path = tmp_path / name
    path.write_text(text)
    assert cli_module.main(["orbits", str(path), "--json"]) == 6
    out = capsys.readouterr()
    assert out.out == ""
    assert "resource limit" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("command", ["refine", "orbits"])
def test_order_above_exact_refinement_is_a_resource_limit(tmp_path, monkeypatch, capsys, command):
    from autorbits import cli as cli_module
    from autorbits import refinement

    monkeypatch.setattr(refinement, "_EXACT_ORDER", 4)
    path = tmp_path / "empty5.dimacs"
    path.write_text("p edge 5 0\n")
    assert cli_module.main([command, str(path), "--k", "1", "--json"]) == 6
    out = capsys.readouterr()
    assert out.out == ""
    assert "resource limit" in out.err and "Traceback" not in out.err


def _report_cases(tmp_path):
    c5 = write_graph(tmp_path, "c5.cdg", cycle_graph(5))
    p5 = write_graph(tmp_path, "p5.cdg", path_graph(5))
    rigid = write_graph(tmp_path, "rigid.cdg", rigid6())
    c3_c4 = write_graph(tmp_path, "c3+c4.cdg", cycle_union(3, 4))
    return [
        ["orbits", c5], ["orbits", rigid, "--k", "1"], ["auts", p5], ["iso", c5, c5], ["iso", c5, p5],
        ["refine", p5, "--k", "1"], ["oracle-orbits", p5], ["oracle-aut", c5], ["verify", c5],
        ["verify", c3_c4, "--k", "1"], ["assembly", str(DATA / "assembled2.ws")],
        ["assembly", str(DATA / "broken2.ws")],
    ]


def test_json_report_is_the_bytes_of_indented_json_dumps(tmp_path, monkeypatch, capsys):
    from autorbits import cli as cli_module

    payloads = []
    real = cli_module.emit_report

    def spy(payload, json_mode):
        payloads.append(payload)
        return real(payload, json_mode)

    monkeypatch.setattr(cli_module, "emit_report", spy)
    cases = _report_cases(tmp_path)
    assert {argv[0] for argv in cases} == set(cli_module.COMMANDS)
    for argv in cases:
        cli_module.main(argv + ["--json"])
        assert capsys.readouterr().out == json.dumps(payloads[-1], sort_keys=True, indent=2) + "\n"
    assert len(payloads) == len(cases)


_scalars = (
    st.text() | st.integers() | st.floats() | st.booleans() | st.none()
    | st.sampled_from(["", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "é ß 漢字 🙂"])
)
_reports = st.recursive(
    _scalars | st.lists(st.lists(st.integers())),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.integers(), inner)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_reports)
def test_json_report_of_nested_values_is_the_bytes_of_indented_json_dumps(value):
    from autorbits.cli import emit_report

    assert emit_report({"value": value}, True) == json.dumps({"value": value}, sort_keys=True, indent=2) + "\n"
    if isinstance(value, dict):
        assert emit_report(value, True) == json.dumps(value, sort_keys=True, indent=2) + "\n"
