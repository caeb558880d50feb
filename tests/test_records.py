"""The package's five record types keep the behaviour of the dataclasses and
NamedTuples they replace: constructors, equality, hashing, immutability and
reprs, pinned as ``dataclasses`` and ``typing.NamedTuple`` print them."""

import copy
from fractions import Fraction

import pytest

from zigzagalg import RATIONALS, DerivationParams, Graph, Matrix, Report, analyze_graph, path_graph, rref
from zigzagalg.exactlin import RrefResult

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


def test_matrix_is_a_frozen_unhashable_value():
    m = Matrix.from_sparse(RATIONALS, 1, 2, [{0: Fraction(1, 2)}])
    assert m == Matrix(RATIONALS, 1, 2, ({0: Fraction(1, 2)},)) and m != Matrix(RATIONALS, 1, 3, m.rows)
    assert m != (RATIONALS, 1, 2, m.rows)
    assert repr(m) == "Matrix(field=Rationals(), nrows=1, ncols=2, rows=({0: Fraction(1, 2)},))"
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        m.rows = ()
    with pytest.raises(AttributeError, match="cannot delete field 'nrows'"):
        del m.nrows
    with pytest.raises(TypeError, match="unhashable"):
        hash(m)


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


def test_derivation_params_is_a_mutable_value():
    p = DerivationParams(t={(1, 2): Fraction(1, 2)}, d={})
    assert p == DerivationParams({(1, 2): Fraction(1, 2)}, {}) and p != DerivationParams({}, {})
    assert p != (p.t, p.d)
    assert repr(p) == "DerivationParams(t={(1, 2): Fraction(1, 2)}, d={})"
    p.d = {(2, 1): 1}
    assert p.d == {(2, 1): 1}
    with pytest.raises(TypeError, match="unhashable"):
        hash(p)


def test_rref_result_is_a_named_triple():
    r = rref(Matrix.from_sparse(RATIONALS, 2, 2, [{0: 2, 1: 4}, {0: 1, 1: 2}]))
    reduced, pivot_cols, rank = r
    assert (reduced, pivot_cols, rank) == (r.reduced, r.pivot_cols, r.rank) == (r[0], r[1], r[2])
    assert (pivot_cols, rank, len(r)) == ((0,), 1, 3)
    assert r == RrefResult(reduced=reduced, pivot_cols=(0,), rank=1) == (reduced, (0,), 1)
    assert repr(RrefResult(None, (), 0)) == "RrefResult(reduced=None, pivot_cols=(), rank=0)"
    assert copy.copy(r) == copy.deepcopy(r) == r
    with pytest.raises(AttributeError):
        r.rank = 2
