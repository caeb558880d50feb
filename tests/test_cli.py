import hashlib
import importlib
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import zigzagalg
from zigzagalg import analysis, cli, quiver, zigzag
from zigzagalg.analysis import CHECK_KEYS, NA, PASS, Report, analyze_graph
from zigzagalg.cli import main
from zigzagalg.exactlin import RATIONALS, parse_field
from zigzagalg.quiver import Graph, path_graph, random_tree, serialize_graph, star_graph

EDGE_FILE = "vertices 2\nedge 1 2\n"
PATH3_FILE = "vertices 3\nedge 1 2\nedge 2 3\n"
TRIANGLE_FILE = "vertices 3\nedge 1 2\nedge 2 3\nedge 1 3\n"


def write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_analyze_single_edge_passes(tmp_path, capsys):
    assert main(["analyze", write(tmp_path, EDGE_FILE)]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert re.search(r"dim derivations\s+4\b", out)


def test_analyze_json_round_trip(tmp_path, capsys):
    assert main(["analyze", write(tmp_path, EDGE_FILE), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = Report.from_dict(doc)
    assert report.to_dict() == doc
    assert (report.n, report.dim_algebra, report.dim_der) == (2, 6, 4)
    assert (report.dim_inner, report.hh0, report.hh1) == (3, 3, 1)
    assert report.dim_jordan == 4
    assert set(doc["formula_checks"]) == set(CHECK_KEYS)
    assert all(v == PASS for v in doc["formula_checks"].values())
    assert "timings_ms" in doc
    timings = doc["timings_ms"]
    assert "checks" in timings
    assert sum(v for k, v in timings.items() if k != "total") <= timings["total"]


def test_analyze_non_tree_gates_tree_checks(tmp_path, capsys):
    assert main(["analyze", write(tmp_path, TRIANGLE_FILE), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    checks = doc["formula_checks"]
    assert checks["dim_algebra_formula"] == PASS
    for key in CHECK_KEYS:
        if key != "dim_algebra_formula":
            assert checks[key] == NA
    assert doc["is_tree"] is False
    assert doc["hh1"] == 2


def test_analyze_skip_jordan_flag(tmp_path, capsys):
    assert main(["analyze", write(tmp_path, EDGE_FILE), "--json", "--skip-jordan"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_jordan"] is None
    assert doc["formula_checks"]["jordan_eq_der"] == NA


def test_analyze_gf2_skips_jordan_with_warning(tmp_path, capsys):
    assert main(["analyze", write(tmp_path, PATH3_FILE), "--field", "gf:2", "--json"]) == 0
    captured = capsys.readouterr()
    assert "jordan flavor skipped automatically" in captured.err
    doc = json.loads(captured.out)
    assert doc["field"] == "gf:2"
    assert doc["dim_jordan"] is None
    assert all(v == NA for v in doc["formula_checks"].values())
    assert (doc["dim_der"], doc["dim_inner"], doc["hh1"]) == (7, 6, 1)


def test_analyze_graph_skips_jordan_in_characteristic_2():
    # the rule lives in analyze_graph, so a library caller over GF(2) gets
    # the report --skip-jordan gives, not a CharacteristicTwoError
    gf2 = parse_field("gf:2")
    default, skipped = (analyze_graph(path_graph(3), gf2, *flag) for flag in ((), (True,)))
    assert default[0].to_dict(include_timings=False) == skipped[0].to_dict(include_timings=False)
    assert default[1] == skipped[1] and default[0].dim_jordan is None


def test_analyze_gf5_runs_clean(tmp_path, capsys):
    assert main(["analyze", write(tmp_path, PATH3_FILE), "--field", "gf:5"]) == 0
    captured = capsys.readouterr()
    assert "result: PASS" in captured.out
    assert captured.err == ""  # tree formulas agree mod 5, no warnings


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("vertices 2\nedge 1 1\n", "loop"),
        ("vertices 2\nedge 1 3\n", "range"),
        ("vertices 0\n", "empty"),
        ("vertices 1\n", "single-vertex"),
        ("vertices 4\nedge 1 2\nedge 3 4\n", "connected"),
        ("vertices x\n", "vertex count"),
    ],
)
def test_analyze_rejects_unusable_input(tmp_path, capsys, text, fragment):
    assert main(["analyze", write(tmp_path, text)]) == 1
    assert fragment in capsys.readouterr().err


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/graph.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_bad_field(tmp_path, capsys):
    assert main(["analyze", write(tmp_path, EDGE_FILE), "--field", "gf:9"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_flags_exit_one(tmp_path, capsys):
    assert main(["analyze", write(tmp_path, EDGE_FILE), "--bogus"]) == 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


SWEEP_ARGS = ["sweep", "--seed", "3", "--count", "6", "--n-min", "2", "--n-max", "4"]


def test_sweep_passes_and_is_deterministic(capsys):
    assert main(SWEEP_ARGS + ["--json"]) == 0
    first = capsys.readouterr().out
    assert main(SWEEP_ARGS + ["--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["all_pass"] is True
    assert doc["pass_count"] == 6
    assert [r["n"] for r in doc["results"]] == [2, 3, 4, 2, 3, 4]
    assert all("timings_ms" not in r for r in doc["results"])


def test_sweep_table_output(capsys):
    assert main(SWEEP_ARGS) == 0
    out = capsys.readouterr().out
    assert "sweep: 6/6 pass" in out


def test_sweep_single_smallest_tree(capsys):
    assert main(["sweep", "--count", "1", "--n-min", "2", "--n-max", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (result,) = doc["results"]
    assert (result["n"], result["dim_der"], result["dim_inner"]) == (2, 4, 3)


def test_sweep_rejects_bad_ranges(capsys):
    assert main(["sweep", "--count", "0"]) == 1
    assert main(["sweep", "--n-min", "5", "--n-max", "3"]) == 1
    assert main(["sweep", "--n-min", "1"]) == 1
    capsys.readouterr()


def test_dump_tree_uses_parameter_presentation(tmp_path, capsys):
    assert main(["dump-derivations", write(tmp_path, EDGE_FILE)]) == 0
    out = capsys.readouterr().out
    assert "parameter presentation" in out
    assert "4 maps" in out
    assert "D(" in out


def test_dump_json_structure(tmp_path, capsys):
    assert main(["dump-derivations", write(tmp_path, EDGE_FILE), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["presentation"] == "parameters"
    assert len(doc["maps"]) == 4
    for entry in doc["maps"]:
        assert entry["params"] is not None
        assert len(entry["matrix"]) == 6
        assert all(len(row) == 6 for row in entry["matrix"])


def test_dump_non_tree_falls_back_to_solver(tmp_path, capsys):
    assert main(["dump-derivations", write(tmp_path, TRIANGLE_FILE), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["presentation"] == "solver"
    assert len(doc["maps"]) == 10
    assert all(entry["params"] is None for entry in doc["maps"])


def test_dump_rejects_unusable_graph(tmp_path, capsys):
    assert main(["dump-derivations", write(tmp_path, "vertices 1\n")]) == 1
    assert main(["dump-derivations", write(tmp_path, "vertices 0\n")]) == 1
    capsys.readouterr()


# sha256 of stdout, pinned so that a refactor must keep the output byte for byte
PINNED_OUTPUTS = {
    "sweep": (
        None,
        ["sweep", "--seed", "42", "--count", "12", "--n-min", "2", "--n-max", "7", "--json"],
        "ada89605d722968b84a417e19e781dbaaf3a52a1c95d3d0c63800ca3bbf451a6",
    ),
    "dump-path3": (
        PATH3_FILE,
        ["dump-derivations", "--json"],
        "31f04f85e1944f817c99c03b2643640a222fce301607194cd40e036ce273da7e",
    ),
    "dump-triangle": (
        TRIANGLE_FILE,
        ["dump-derivations", "--json"],
        "596798cb08c205864f6bab021f92488ac043573c1bd5f10e453b111b1d2458a4",
    ),
    "dump-path3-text-rat": (
        PATH3_FILE,
        ["dump-derivations"],
        "28f766024e669f1402e63ad060f8c30662ac86f1b00e7e71fdd0a4200f8668d1",
    ),
    "dump-path3-text-gf3": (
        PATH3_FILE,
        ["dump-derivations", "--field", "gf:3"],
        "1fddf5444363c648209093f19e87158ee57e1f28b63df5afcfadb85b055faf3a",
    ),
    "dump-triangle-text-rat": (
        TRIANGLE_FILE,
        ["dump-derivations"],
        "b0b207f9fccdc11d48fbfcb69ad76e56ad25423f029b579252569d500d38df95",
    ),
    "dump-triangle-text-gf3": (
        TRIANGLE_FILE,
        ["dump-derivations", "--field", "gf:3"],
        "f9acd71d5a055cd636f072c634e5e12ff9f85729877bd71d45aee9ed2300550d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_output_matches_pinned_digest(tmp_path, capsys, name):
    graph, argv, digest = PINNED_OUTPUTS[name]
    if graph is not None:
        argv = argv + [write(tmp_path, graph)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# the analyses behind `analyze` beyond the pinned sweep: gf:p reports, gf:2
# without jordan, and graphs with cycles, where the tree checks are
# not-applicable; digests of the reports and warnings of all six graphs
ANALYZE_GRAPHS = [
    Graph(2, frozenset({(1, 2)})),
    path_graph(3),
    star_graph(5),
    random_tree(7, 707),
    Graph(3, frozenset({(1, 2), (2, 3), (1, 3)})),
    Graph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})),
]
PINNED_ANALYSES = {
    ("rat", False): "2a6794419f764f0e7b60345448a4d06a4c6ae06807cff21424ca1f1d6b093e69",
    ("gf:3", False): "74e90031e21aeaa32b12f000dbc90dcc81bf61734528947691524b116278728b",
    ("gf:2", True): "96559e256d84cdc751962205580da4f7a79e9b8904684419fe2fdbc735ad3e59",
}


@pytest.mark.parametrize("spec, skip_jordan", sorted(PINNED_ANALYSES), ids=str)
def test_analyses_match_pinned_digest(spec, skip_jordan):
    digest = hashlib.sha256()
    for g in ANALYZE_GRAPHS:
        report, warnings = analyze_graph(g, parse_field(spec), skip_jordan)
        digest.update(json.dumps(report.to_dict(include_timings=False), sort_keys=True).encode())
        digest.update(json.dumps(warnings).encode())
    assert digest.hexdigest() == PINNED_ANALYSES[(spec, skip_jordan)]


def test_analyze_graph_walks_the_graph_once(monkeypatch):
    # build_algebra's connectivity check is the only breadth-first search of
    # one analysis, and a disconnected input still fails there
    calls = []

    def counting(g):
        calls.append(g)
        return quiver.validate(g)

    for mod in (analysis, zigzag):
        monkeypatch.setattr(mod, "validate", counting, raising=False)
    for g, is_tree in ((random_tree(6, 606), True), (Graph(3, frozenset({(1, 2), (2, 3), (1, 3)})), False)):
        calls.clear()
        report, _ = analyze_graph(g)
        assert calls == [g] and report.is_tree == is_tree
    # the second graph has n - 1 edges, so only the walk tells it from a tree
    for edges in ({(1, 2), (3, 4)}, {(1, 2), (2, 3), (1, 3)}):
        calls.clear()
        with pytest.raises(ValueError, match="^graph on 4 vertices is not connected$"):
            analyze_graph(Graph(4, frozenset(edges)))
        assert len(calls) == 1


def test_dump_derivations_walks_the_graph_once(monkeypatch, tmp_path, capsys):
    # the presentation follows the algebra's is_tree, so build_algebra's
    # connectivity check is the only breadth-first search of one dump
    calls = []

    def counting(g):
        calls.append(g)
        return quiver.validate(g)

    for mod in (cli, zigzag):
        monkeypatch.setattr(mod, "validate", counting, raising=False)
    for text, presentation in ((serialize_graph(random_tree(6, 606)), "parameters"), (TRIANGLE_FILE, "solver")):
        calls.clear()
        assert main(["dump-derivations", write(tmp_path, text), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["presentation"] == presentation
        assert len(calls) == 1


def test_sweep_calls_analyze_graph_through_the_cli_module(monkeypatch, capsys):
    # timing harnesses swap cli.analyze_graph to time each analysis of a sweep
    assert cli.analyze_graph is analysis.analyze_graph is zigzagalg.analyze_graph
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return analysis.analyze_graph(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze_graph", counting)
    assert main(["sweep", "--count", "3", "--n-max", "4", "--quiet"]) == 0
    assert len(calls) == 3


def test_sweep_timings_file_leaves_stdout_unchanged(tmp_path, capsys):
    _, argv, digest = PINNED_OUTPUTS["sweep"]
    path = tmp_path / "timings.jsonl"
    assert main(argv + ["--timings", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    results = json.loads(out)["results"]
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [(r["index"], r["tree_seed"], r["n"]) for r in records] == [
        (r["index"], r["tree_seed"], r["n"]) for r in results
    ]
    for r in records:
        stages = r["timings_ms"]
        # stage bounds come off one microsecond clock, so compare in whole microseconds
        total = round(stages.pop("total") * 1000)
        assert set(stages) >= {"build", "derivation", "checks"}
        assert sum(round(v * 1000) for v in stages.values()) <= total


def test_sweep_timings_file_that_cannot_be_opened_exits_1(tmp_path, capsys):
    assert main(["sweep", "--count", "1", "--timings", str(tmp_path / "missing" / "t.jsonl")]) == 1
    assert "error" in capsys.readouterr().err


def test_console_script_installed(tmp_path):
    exe = shutil.which("zigzagalg")
    if exe is None:
        pytest.skip("console script not on PATH")
    g = write(tmp_path, EDGE_FILE)
    proc = subprocess.run([exe, "analyze", g], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout


def test_console_script_entry_point_runs(tmp_path, fresh_python):
    # the entry point pyproject.toml declares, called as the installed
    # script calls it, so it is checked without installing the package
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["zigzagalg"]
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))
    script = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = fresh_python("-c", script, "analyze", write(tmp_path, EDGE_FILE))
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout


def test_module_entry_point_exit_codes(tmp_path, fresh_python):
    proc = fresh_python("-m", "zigzagalg", "analyze", write(tmp_path, EDGE_FILE))
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout
    proc = fresh_python("-m", "zigzagalg", "analyze", str(tmp_path / "missing.txt"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_huge_edgeless_input_exits_1_without_running_out_of_memory(tmp_path, fresh_python):
    # under a 1 GB cap, work per vertex would end in MemoryError instead
    graph = write(tmp_path, "vertices 1000000000\n")
    proc = fresh_python("-m", "zigzagalg", "analyze", graph, max_bytes=2**30)
    assert proc.returncode == 1, proc.stderr
    assert "not connected" in proc.stderr


def test_paper_claims_hold_on_a_200_vertex_tree():
    # every check, jordan = der and structured = solver included, on a tree
    # with 636,804 Theta coefficients
    report, warnings = analyze_graph(random_tree(200, 12345), RATIONALS)
    assert report.formula_checks == {k: PASS for k in CHECK_KEYS}
    assert (report.dim_der, report.dim_jordan, report.dim_anti, report.hh1) == (598, 598, 0, 1)
    assert warnings == []
