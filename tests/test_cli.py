import errno
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import TIME_LIMIT_S, TimeLimitExceeded
import zigzagalg
from zigzagalg import analysis, cli, exactlin, linmaps, quiver, zigzag
from zigzagalg.analysis import CHECK_KEYS, FAIL, NA, PASS, Report, analyze_graph
from zigzagalg.cli import main
from zigzagalg.exactlin import RATIONALS, parse_field
from zigzagalg.linmaps import InternalInvariantError, MapSpace
from zigzagalg.quiver import Graph, Xorshift64Star, parse_graph, path_graph, random_tree, serialize_graph, star_graph
from zigzagalg.zigzag import build_algebra

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
    report = Report(**doc)
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


# the exact bytes of analyze --json on the 3-path, each stage time masked as MS
PATH3_JSON = """{
  "n": 3,
  "edges": [
    [
      1,
      2
    ],
    [
      2,
      3
    ]
  ],
  "is_tree": true,
  "field": "rat",
  "dim_algebra": 10,
  "dim_center": 4,
  "dim_der": 7,
  "dim_jordan": 7,
  "dim_anti": 0,
  "dim_inner": 6,
  "hh0": 4,
  "hh1": 1,
  "formula_checks": {
    "dim_algebra_formula": "pass",
    "center_formula": "pass",
    "der_formula": "pass",
    "inner_formula": "pass",
    "hh1_is_one": "pass",
    "jordan_eq_der": "pass",
    "anti_is_zero": "pass",
    "structured_eq_solver": "pass"
  },
  "timings_ms": {
    "build": MS,
    "associativity": MS,
    "center": MS,
    "jordan": MS,
    "derivation": MS,
    "anti": MS,
    "structured": MS,
    "inner": MS,
    "checks": MS,
    "total": MS
  }
}
"""


def test_analyze_json_bytes_are_pinned(tmp_path, capsys):
    assert main(["analyze", write(tmp_path, PATH3_FILE), "--json"]) == 0
    head, sep, tail = capsys.readouterr().out.partition('"timings_ms": {')
    assert head + sep + re.sub(r": [0-9.e+-]+", ": MS", tail) == PATH3_JSON


def test_stage_timings_are_bounded_by_the_clock_around_the_analysis():
    # every stage is read off one clock in whole microseconds: none is
    # negative, together they fit in the total, and the total is no more
    # than a reading taken around the whole call (plus 1 us of rounding)
    g = random_tree(30, 7)
    t0 = time.perf_counter()
    report, _ = analyze_graph(g)
    outside_us = (time.perf_counter() - t0) * 1e6
    us = {k: round(v * 1000) for k, v in report.timings_ms.items()}
    total = us.pop("total")
    assert all(v >= 0 for v in us.values()) and sum(us.values()) <= total, report.timings_ms
    assert 0 < total <= outside_us + 1, (total, outside_us)


# the text report of analyze on the 3-path, with the stage times masked as MS
PATH3_REPORTS = {
    "rat": """graph: n=3 edges=[(1,2), (2,3)] tree=yes field=rat
  dim algebra        10
  dim center         4
  dim derivations    7
  dim jordan         7
  dim anti           0
  dim inner          6
  hh0                4
  hh1                1
  check dim_algebra_formula      pass
  check center_formula           pass
  check der_formula              pass
  check inner_formula            pass
  check hh1_is_one               pass
  check jordan_eq_der            pass
  check anti_is_zero             pass
  check structured_eq_solver     pass
  timings_ms: build=MS associativity=MS center=MS jordan=MS derivation=MS anti=MS structured=MS inner=MS checks=MS total=MS
result: PASS
""",
    "gf:2": """graph: n=3 edges=[(1,2), (2,3)] tree=yes field=gf:2
  dim algebra        10
  dim center         4
  dim derivations    7
  dim jordan         skipped
  dim anti           0
  dim inner          6
  hh0                4
  hh1                1
  check dim_algebra_formula      not-applicable
  check center_formula           not-applicable
  check der_formula              not-applicable
  check inner_formula            not-applicable
  check hh1_is_one               not-applicable
  check jordan_eq_der            not-applicable
  check anti_is_zero             not-applicable
  check structured_eq_solver     not-applicable
  timings_ms: build=MS associativity=MS center=MS derivation=MS anti=MS inner=MS checks=MS total=MS
result: PASS
""",
}


@pytest.mark.parametrize("spec", PATH3_REPORTS)
def test_analyze_text_report_is_pinned(tmp_path, capsys, spec):
    assert main(["analyze", write(tmp_path, PATH3_FILE), "--field", spec]) == 0
    head, sep, tail = capsys.readouterr().out.partition("  timings_ms:")
    assert head + sep + re.sub(r"=[0-9.e+-]+", "=MS", tail) == PATH3_REPORTS[spec]


def test_stage_timings_are_milliseconds(monkeypatch):
    # a clock whose k-th read is k * 1.5 ms: each stage, checks included, spans
    # one tick, and the total the 19 ticks from the first read to the last
    ticks = itertools.count(1)
    monkeypatch.setattr(analysis, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks) * 0.0015))
    timings = analyze_graph(path_graph(3))[0].timings_ms
    assert timings == dict.fromkeys(
        ("build", "associativity", "center", "jordan", "derivation", "anti", "structured", "inner", "checks"), 1.5
    ) | {"total": 28.5}


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


def test_jordan_flag_is_retired(tmp_path, capsys):
    # the field alone decides whether jordan is solved: --skip-jordan is
    # an unrecognized argument on both subcommands
    for argv in (["analyze", write(tmp_path, EDGE_FILE)], ["sweep", "--count", "1"]):
        assert main(argv + ["--skip-jordan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --skip-jordan" in captured.err


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
    # a report without jordan, not a CharacteristicTwoError
    report, warnings = analyze_graph(path_graph(3), parse_field("gf:2"))
    assert report.dim_jordan is None and "jordan" not in report.timings_ms
    assert report.formula_checks["jordan_eq_der"] == NA
    assert (report.dim_der, report.hh1, warnings) == (7, 1, [])


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
    # argparse's usage and error lines, whose wording differs across CPython
    # versions, so only their shape is checked
    for argv in ([], ["frobnicate"], ["analyze"], ["analyze", write(tmp_path, EDGE_FILE), "--bogus"], ["sweep", "--count", "x"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: zigzagalg"), argv
        assert re.match(r"^zigzagalg( [a-z-]+)?: error: ", lines[-1]), argv


def test_one_parser_serves_a_usage_error_and_then_a_sweep(monkeypatch, capsys):
    # main builds its parser on the first call and keeps it: a usage error and
    # then a sweep print what each prints with a parser built for it alone
    usage, sweep = ["sweep", "--count", "x"], PINNED_OUTPUTS["sweep"][1]

    def run(argv, fresh):
        if fresh:
            cli._parser.cache_clear()
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = [run(usage, True), run(sweep, True)]
    cli._parser.cache_clear()
    assert [run(usage, False), run(sweep, False)] == alone
    assert cli._parser.cache_info().misses == 1
    (code, out, err), (sweep_code, sweep_out, sweep_err) = alone
    # argparse's wording differs across CPython versions: its shape is checked
    assert (code, out) == (1, "") and err.startswith("usage: zigzagalg sweep")
    assert err.splitlines()[-1].startswith("zigzagalg sweep: error: argument --count")
    assert (sweep_code, sweep_err) == (0, "")
    assert hashlib.sha256(sweep_out.encode("utf-8")).hexdigest() == PINNED_OUTPUTS["sweep"][2]
    # the kept parser names each command by its function, looked up on each call
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: 2)
    assert main(["sweep", "--count", "1"]) == 2


def test_import_generates_no_code(fresh_python):
    # the record types are plain classes, so importing the package loads
    # none of the modules that generate their methods, and the CLI reads its
    # files with open, so none of pathlib's imports; under -S a bare
    # interpreter has not loaded them either
    script = (
        "import sys; before = set(sys.modules); import zigzagalg.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib', 'urllib.parse', 'ipaddress'}"
        " & (set(sys.modules) - before)))"
    )
    proc = fresh_python("-S", "-c", script)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["analyze", "sweep", "dump-derivations"])
def test_subcommand_help_exits_zero(capsys, command):
    assert main([command, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: zigzagalg {command}") and captured.err == ""


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


# sha256 of the stdout of sweep with every numeric option at its default
# (--count 50, --n-min 2, --n-max 12, --seed 0): the table depends on the
# tree sizes only, the JSON also on the seed and each tree's seed
DEFAULT_SWEEP_DIGESTS = {
    "table": "4830ff2202da70e4a698a1797ae95ca02c082c7f87339dbc41509dba303bff80",
    "json": "cd8fed76799797bd5b93adbd66f6f8e6ae5612f1ff8f1848fee113307674e0e2",
}


@pytest.mark.parametrize("output", sorted(DEFAULT_SWEEP_DIGESTS))
def test_default_sweep_output_is_pinned(capsys, output):
    assert main(["sweep"] + (["--json"] if output == "json" else [])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_SWEEP_DIGESTS[output]


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


def test_elements_print_each_coefficient_other_than_plus_or_minus_one():
    # the pinned rat dumps hold only +-1 coefficients
    a = build_algebra(path_graph(2))
    element = {0: Fraction(2), 1: Fraction(1, 2), 2: Fraction(-2), 3: Fraction(-1), 4: Fraction(1)}
    assert cli._format_element(a, element) == "2*e1 + 1/2*e2 - 2*a(1->2) - a(2->1) + c1"
    assert cli._format_element(a, {2: Fraction(-1, 3), 5: Fraction(3)}) == "-1/3*a(1->2) + 3*c2"


def test_dump_rejects_unusable_graph(tmp_path, capsys):
    assert main(["dump-derivations", write(tmp_path, "vertices 1\n")]) == 1
    assert main(["dump-derivations", write(tmp_path, "vertices 0\n")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, flags, fragment",
    [
        (None, [], "No such file"),
        (EDGE_FILE, ["--field", "gf:9"], "9 is not prime"),
        ("vertices 2\nedge 1 two\n", [], "line 2"),
    ],
    ids=["missing-file", "bad-field", "unparsable"],
)
def test_dump_input_errors_exit_1(tmp_path, capsys, text, flags, fragment):
    path = str(tmp_path / "missing.txt") if text is None else write(tmp_path, text)
    assert main(["dump-derivations", path, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert fragment in captured.err


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
    "rat": "2a6794419f764f0e7b60345448a4d06a4c6ae06807cff21424ca1f1d6b093e69",
    "gf:3": "74e90031e21aeaa32b12f000dbc90dcc81bf61734528947691524b116278728b",
    "gf:2": "96559e256d84cdc751962205580da4f7a79e9b8904684419fe2fdbc735ad3e59",
}


@pytest.mark.parametrize("spec", sorted(PINNED_ANALYSES))
def test_analyses_match_pinned_digest(spec):
    digest = hashlib.sha256()
    for g in ANALYZE_GRAPHS:
        report, warnings = analyze_graph(g, parse_field(spec))
        digest.update(json.dumps(report.to_dict(include_timings=False), sort_keys=True).encode())
        digest.update(json.dumps(warnings).encode())
    assert digest.hexdigest() == PINNED_ANALYSES[spec]


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


PUBLIC_NAMES = [
    "CharacteristicTwoError", "FieldMismatchError", "Graph", "GraphParseError",
    "InternalInvariantError", "MapSpace", "PrimeField", "RATIONALS", "Rationals", "Report",
    "Xorshift64Star", "ZigzagAlgebra", "ad_map", "analyze_graph", "build_algebra", "center",
    "check_associativity", "inner_space", "leibniz_system", "materialize", "multiply", "nullspace_basis",
    "parse_field", "parse_graph", "path_graph", "random_tree", "rref", "serialize_graph", "solve",
    "span_dim", "span_equal", "star_graph", "structured_parameter_basis", "structured_space", "validate",
    "verify_map", "with_patched_table",
]  # fmt: skip


def test_public_surface_is_pinned():
    # an export added or removed shows as an edit of this list
    assert sorted(zigzagalg.__all__) == PUBLIC_NAMES


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


def sweep_tree(seed, k, n_min, n_max):
    """Tree #k of a sweep, drawn as README documents: one next_u64 per tree
    from a generator seeded with the master seed, in order."""
    rng = Xorshift64Star(seed)
    tree_seed = [rng.next_u64() for _ in range(k + 1)][k]
    return random_tree(n_min + k % (n_max - n_min + 1), tree_seed)


REPLAY_SWEEP = ["sweep", "--seed", "7", "--count", "5", "--n-min", "3", "--n-max", "6"]


def test_sweep_prints_a_replayable_graph_when_an_invariant_fails(monkeypatch, capsys):
    seen = []

    def analyze(g, *args):
        if len(seen) == 3:
            raise InternalInvariantError("planted")
        seen.append(g)
        return analysis.analyze_graph(g, *args)

    monkeypatch.setattr(cli, "analyze_graph", analyze)
    assert main(REPLAY_SWEEP) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    head, text = captured.err.split("\n", 1)
    assert head == "internal invariant failed on tree #3: planted"
    assert parse_graph(text) == sweep_tree(7, 3, 3, 6)
    assert seen == [sweep_tree(7, k, 3, 6) for k in range(3)]


def test_sweep_prints_each_failing_tree_and_its_warnings(monkeypatch, capsys):
    def analyze(g, *args):
        report, warnings = analysis.analyze_graph(g, *args)
        if g == sweep_tree(7, 1, 3, 6):
            warnings = warnings + ["planted warning"]
        if g == sweep_tree(7, 2, 3, 6):
            report.formula_checks["hh1_is_one"] = FAIL
        return report, warnings

    monkeypatch.setattr(cli, "analyze_graph", analyze)
    assert main(REPLAY_SWEEP) == 2
    captured = capsys.readouterr()
    assert "sweep: 4/5 pass" in captured.out
    assert re.search(r"^ +2 +5 .* FAIL$", captured.out, re.M)
    expected = "warning: tree #1: planted warning\nfailing tree #2:\n"
    assert captured.err == expected + serialize_graph(sweep_tree(7, 2, 3, 6))


def test_analyze_reports_internal_invariants_and_warnings(monkeypatch, tmp_path, capsys):
    path = write(tmp_path, PATH3_FILE)

    def broken(*args):
        raise InternalInvariantError("planted")

    monkeypatch.setattr(cli, "analyze_graph", broken)
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal invariant failed: planted\n")

    def warning(*args):
        report, _ = analysis.analyze_graph(*args)
        return report, ["planted warning"]

    monkeypatch.setattr(cli, "analyze_graph", warning)
    assert main(["analyze", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: planted warning\n"
    assert "result: PASS" in captured.out


@pytest.mark.parametrize(
    "name, broken, message",
    [
        ("check_associativity", lambda a: False, "the basis products are not associative"),
        # one more center row than the solved center has
        ("center", lambda a: MapSpace("center", a.field, zigzag.center(a).ints + [{0: 1}]), "inner dimension 6 != dim algebra 10 - dim center 5"),
    ],
    ids=["associativity", "center"],
)
def test_analyze_graph_internal_invariants(monkeypatch, tmp_path, capsys, name, broken, message):
    monkeypatch.setattr(analysis, name, broken)
    with pytest.raises(InternalInvariantError, match=message):
        analyze_graph(path_graph(3))
    assert main(["analyze", write(tmp_path, PATH3_FILE)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"internal invariant failed: {message}\n")


def test_analyze_fails_a_center_span_that_differs_at_equal_dimension(monkeypatch, tmp_path, capsys):
    # the last cycle's row swapped for the first arrow's: equal dimension, not central
    def swapped(a):
        return MapSpace("center", a.field, zigzag.center(a).ints[:-1] + [{a.a_at[a.arrows[0]]: 1}])

    monkeypatch.setattr(analysis, "center", swapped)
    report, _ = analyze_graph(path_graph(3))
    assert {k for k, v in report.formula_checks.items() if v != PASS} == {"center_formula"}
    assert report.formula_checks["center_formula"] == FAIL
    assert main(["analyze", write(tmp_path, PATH3_FILE)]) == 2
    assert "result: FAIL" in capsys.readouterr().out


def larger_derivation_space(a, jordan):
    """Der with the identity map, which is no derivation, added to its basis."""
    der = linmaps.derivation_space(a, jordan)
    identity = {p * a.dim + p: 1 for p in range(a.dim)}
    return MapSpace("derivation", a.field, exactlin._canonical(a.field, exactlin._eliminate(a.field, der.ints + [identity])))


def test_tree_formula_mismatches_are_warnings_over_gf_p(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(analysis, "derivation_space", larger_derivation_space)
    report, warnings = analyze_graph(path_graph(3), parse_field("gf:3"))
    assert (report.dim_der, report.hh1) == (8, 2)
    assert all(v == NA for v in report.formula_checks.values())
    assert main(["analyze", write(tmp_path, PATH3_FILE), "--field", "gf:3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: informational (gf:3): derivation dimension is 8, rational-baseline formula gives 7\n"
        "warning: informational (gf:3): hh1 is 2, rational-baseline formula gives 1\n"
    )
    assert [f"warning: {w}" for w in warnings] == captured.err.splitlines()
    assert "result: PASS" in captured.out
    # over the rationals the same mismatches fail their checks
    report, warnings = analyze_graph(path_graph(3))
    assert warnings == [] and report.formula_checks["der_formula"] == report.formula_checks["hh1_is_one"] == FAIL


@pytest.mark.parametrize("text, name", [(PATH3_FILE, "materialize"), (TRIANGLE_FILE, "solve")])
def test_dump_derivations_reports_internal_invariants(monkeypatch, tmp_path, capsys, text, name):
    # a tree is dumped through materialize, a graph with cycles through solve
    def broken(*args):
        raise InternalInvariantError("planted")

    monkeypatch.setattr(cli, name, broken)
    assert main(["dump-derivations", write(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal invariant failed: planted\n")


def test_sweep_rejects_a_field_that_is_not_prime(capsys):
    assert main(["sweep", "--count", "1", "--field", "gf:4"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: 4 is not prime\n")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_sweep_rejects_a_seed_outside_64_bits(capsys, seed):
    assert main(["sweep", "--count", "1", "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: need 0 <= seed < 2**64, got {seed}\n")


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


class FullDevice(io.RawIOBase):
    """A sink whose every write fails as on a full disk."""

    def writable(self):
        return True

    def write(self, b):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("sink", ["dev-full", "patched-open"])
def test_sweep_timings_sink_that_fails_exits_1(monkeypatch, capsys, sink):
    # the records are buffered, so the write fails when the file is closed
    argv = ["sweep", "--count", "2", "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        path = "/dev/full"
    else:
        opened = []

        def full_open(*args, **kwargs):
            opened.append(io.TextIOWrapper(io.BufferedWriter(FullDevice()), encoding="utf-8"))
            return opened[0]

        monkeypatch.setattr(cli, "open", full_open, raising=False)
        path = "timings.jsonl"
    assert main(argv + ["--timings", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    if sink == "patched-open":
        assert opened[0].closed


@pytest.mark.parametrize("flags", [["--field", "gf:4"], ["--count", "0"], ["--n-min", "3", "--n-max", "2"], ["--seed", "-1"]])
def test_a_rejected_sweep_leaves_an_existing_timings_file_unchanged(tmp_path, capsys, flags):
    # the file is opened only after the field, range and seed checks pass
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"kept": true}\n')
    assert main(["sweep", "--count", "1", *flags, "--timings", str(path)]) == 1
    assert path.read_bytes() == b'{"kept": true}\n'
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_console_script_installed(tmp_path):
    exe = shutil.which("zigzagalg")
    if exe is None:
        pytest.skip("console script not on PATH")
    g = write(tmp_path, EDGE_FILE)
    proc = subprocess.run([exe, "analyze", g], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout
    # the installed script keeps main's exit codes: a usage error and a missing file exit 1
    proc = subprocess.run([exe, "frobnicate"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("usage: zigzagalg")
    proc = subprocess.run([exe, "analyze", str(tmp_path / "missing.txt")], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_out_of_memory_exits_1_with_one_error_line(monkeypatch, tmp_path, capsys, command):
    def exhausted(g, field):
        raise MemoryError

    monkeypatch.setattr(cli, "analyze_graph", exhausted)
    argv = ["analyze", write(tmp_path, PATH3_FILE)] if command == "analyze" else ["sweep", "--count", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: out of memory")


def test_a_path_too_large_for_the_memory_cap_exits_1_with_one_error_line(tmp_path, fresh_python):
    # 6 * 10^4 vertices under a 256 MB address-space cap run out of memory
    # inside the analysis, with no traceback
    n = 60_000
    graph = write(tmp_path, f"vertices {n}\n" + "".join(f"edge {i} {i + 1}\n" for i in range(1, n)))
    proc = fresh_python("-m", "zigzagalg", "analyze", graph, max_bytes=2**28)
    assert proc.returncode == 1, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: out of memory"), proc.stderr


def test_each_test_runs_under_a_time_limit():
    # armed by conftest before the test, the alarm's handler fails the test
    if not hasattr(signal, "setitimer"):
        pytest.skip("no setitimer here: tests run without a time limit")
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TIME_LIMIT_S
    with pytest.raises(TimeLimitExceeded, match=f"past its {TIME_LIMIT_S} s limit"):
        signal.getsignal(signal.SIGALRM)(signal.SIGALRM, None)


def test_paper_claims_hold_on_a_200_vertex_tree():
    # every check, jordan = der and structured = solver included, on a tree
    # with 636,804 Theta coefficients
    report, warnings = analyze_graph(random_tree(200, 12345), RATIONALS)
    assert report.formula_checks == {k: PASS for k in CHECK_KEYS}
    assert (report.dim_der, report.dim_jordan, report.dim_anti, report.hh1) == (598, 598, 0, 1)
    assert warnings == []


# analyze_graph runs with the cyclic collector paused: it must hand the
# collector back as it found it on every way out, and the pause is only free
# if the pipeline builds no reference cycle for a collection to find
DISCONNECTED = Graph(4, frozenset({(1, 2), (3, 4)}))
PAUSE_GRAPHS = [random_tree(n, 7000 + n) for n in range(2, 13)] + [
    star_graph(7),
    path_graph(6),
    Graph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})),
    Graph(4, frozenset((i, j) for i in range(1, 5) for j in range(i + 1, 5))),
    # three paths of lengths 1, 2 and 3 between vertices 1 and 2
    Graph(5, frozenset({(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (2, 5)})),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_analyze_graph_leaves_the_collector_as_found(monkeypatch, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        analyze_graph(path_graph(3))
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="connected"):
            analyze_graph(DISCONNECTED)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(linmaps, "verify_map", lambda *args: False)
        with pytest.raises(InternalInvariantError):
            analyze_graph(path_graph(3))
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_analyze_graph_solves_with_the_collector_paused(monkeypatch):
    seen = []

    def recording(*args):
        seen.append(gc.isenabled())
        return linmaps.solve(*args)

    monkeypatch.setattr(analysis, "solve", recording)
    analyze_graph(path_graph(3))
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("spec", ["rat", "gf:2", "gf:3", "gf:101"])
def test_a_paused_analysis_leaves_no_cycle_to_collect(spec):
    field = parse_field(spec)
    gc.collect()
    gc.disable()
    try:
        for g in PAUSE_GRAPHS:
            analyze_graph(g, field)
            assert gc.collect() == 0, g
        with pytest.raises(ValueError, match="connected"):
            analyze_graph(DISCONNECTED, field)
        assert gc.collect() == 0
    finally:
        gc.enable()
