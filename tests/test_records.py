"""The package's two record types keep the behaviour of the dataclasses
they replace: constructors, equality, hashing, immutability and reprs,
pinned as ``dataclasses`` prints them."""

import copy

import pytest

from zigzagalg import Graph, Report, analyze_graph, path_graph

EDGE = frozenset({(1, 2)})


def small_report(**changes):
    fields = dict(
        n=2, edges=[(1, 2)], is_tree=True, field="rat", dim_algebra=6, dim_center=3, dim_der=4, dim_jordan=None,
        dim_anti=0, dim_inner=3, hh0=3, hh1=1, formula_checks={"hh1_is_one": "pass"},
    )  # fmt: skip
    return Report(**(fields | changes))


def test_graph_is_a_frozen_value():
    g = Graph(2, EDGE)
    assert g == Graph(n=2, edges=frozenset([(1, 2)])) and g != Graph(3, EDGE)
    assert g != (2, EDGE) and (2, EDGE) != g
    assert hash(g) == hash(Graph(2, EDGE)) == hash((2, EDGE)) and len({g, Graph(2, EDGE)}) == 1
    assert repr(g) == "Graph(n=2, edges=frozenset({(1, 2)}))"
    for name in ("n", "edges", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(g, name, 3)
    with pytest.raises(AttributeError, match="cannot delete field 'n'"):
        del g.n
    assert (g.n, g.edges) == (2, EDGE)
    assert copy.copy(g) == copy.deepcopy(g) == g


def test_report_is_a_mutable_value_with_its_own_timings():
    r = small_report()
    assert r == small_report() and r != small_report(hh1=2)
    assert r != tuple(vars(r).values())
    first, second = small_report(), small_report()
    first.timings_ms["total"] = 1.0
    assert second.timings_ms == {} and first != second
    r.hh1 = 5
    assert r.hh1 == 5
    with pytest.raises(TypeError, match="unhashable"):
        hash(r)
    assert repr(small_report(timings_ms={"total": 0.5})) == (
        "Report(n=2, edges=[(1, 2)], is_tree=True, field='rat', dim_algebra=6, dim_center=3, dim_der=4, "
        "dim_jordan=None, dim_anti=0, dim_inner=3, hh0=3, hh1=1, formula_checks={'hh1_is_one': 'pass'}, "
        "timings_ms={'total': 0.5})"
    )


def test_report_from_a_json_document():
    doc = analyze_graph(path_graph(3))[0].to_dict()
    assert list(doc) == list(vars(small_report()))  # the key order of --json
    assert Report(**doc).to_dict() == doc
    with pytest.raises(TypeError, match="bogus"):
        Report(**doc, bogus=1)

