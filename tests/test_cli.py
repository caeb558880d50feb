import json
import re
import shutil
import subprocess

import pytest

from zigzagalg.cli import CHECK_KEYS, NA, PASS, Report, main

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


def test_console_script_installed(tmp_path):
    exe = shutil.which("zigzagalg")
    if exe is None:
        pytest.skip("console script not on PATH")
    g = write(tmp_path, EDGE_FILE)
    proc = subprocess.run([exe, "analyze", g], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout
