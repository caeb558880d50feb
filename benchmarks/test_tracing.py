"""Checks of the benchmark's tracing, on graphs small enough to run in seconds.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

SMALL = {
    "trees-rat": {"kind": "trees", "n": 5, "field": "rat", "corpus": 2},
    "trees-gf": {"kind": "trees", "n": 7, "field": "gf:101", "corpus": 2},
    "sweep": {"kind": "sweep", "n_min": 2, "n_max": 5, "count": 4, "field": "rat", "corpus": 1},
}


def traced_run(spec: dict, seed: int):
    zz = run.import_package()
    inputs = run.make_inputs(zz, spec, seed)
    result = run.Run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_units(zz, spec, seed, inputs, 0, result, tracer=tracer)
    finally:
        tracer.restore()
    return zz, tracer, result


@pytest.mark.parametrize("name", sorted(SMALL))
def test_two_runs_give_identical_counters(name):
    spec = SMALL[name]
    _, t1, r1 = traced_run(spec, 3)
    _, t2, r2 = traced_run(spec, 3)
    units = list(range(len(r1.unit_walls)))
    c1, c2 = run.counted_totals(t1, units), run.counted_totals(t2, units)
    assert r1.failed == r2.failed == 0 and not r1.problems
    assert c1 == c2
    assert c1["linmaps.verify_map.calls"] > 0 and c1["exactlin.dense_entries_in"] > 0
    assert run.per_layer(t1, units, c1).keys() == run.per_layer(t2, units, c2).keys()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_add_up_to_unit_wall(name):
    _, tracer, result = traced_run(SMALL[name], 5)
    units = list(range(len(result.unit_walls)))
    assert run.identity_problems(tracer, units, result) == []
    for u in units:
        spans = tracer.unit_spans(u)
        roots = [s for s in spans if s.parent is None and s.name != tracing.HOOK_SPAN]
        assert [s.name for s in roots] == ["cli.main" if SMALL[name]["kind"] == "sweep" else "cli.analyze_graph"]
        assert sum(tracing.self_times(spans).values()) == pytest.approx(roots[0].duration, rel=1e-9)


def test_shims_cover_from_imports_and_are_restored():
    zz = run.import_package()
    originals = {m: dict(vars(sys.modules[f"zigzagalg.{m}"])) for m in ("cli", "linmaps", "exactlin")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # cli and linmaps import these by name; every binding must be the shim
        assert zz.cli.solve is zz.linmaps.solve
        assert zz.cli.solve is not originals["linmaps"]["solve"]
        assert zz.linmaps.span_canonical_basis is zz.exactlin.span_canonical_basis
        assert zz.exactlin.rref.__wrapped__ is originals["exactlin"]["rref"]
        assert zz.zigzag.multiply is zz.multiply and not hasattr(zz.multiply, "__wrapped__")
    finally:
        tracer.restore()
    for m, attrs in originals.items():
        assert dict(vars(sys.modules[f"zigzagalg.{m}"])) == attrs


def test_wrong_answer_counts_as_failure():
    zz = run.import_package()
    g = zz.random_tree(4, 1)
    report, _ = zz.cli.analyze_graph(g, zz.RATIONALS)
    d = report.to_dict(include_timings=False)
    assert run.report_problems(d, g, "rat") == []
    d["hh1"] = 2
    assert run.report_problems(d, g, "rat") == ["hh1 is 2, expected 1"]
