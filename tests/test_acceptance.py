"""Acceptance gate: ten criteria, one printed verdict line each.

The corpus (paths n=2..10, stars n=3..10, 50 seeded random trees with n
cycling 2..12) is computed once in a session fixture; stage timings are
bucketed there so the two runtime criteria measure only their own work.
Verdict lines print immediately (visible under -s) and are repeated in the
terminal summary by conftest so captured runs show them too.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

import pytest

from bruteforce import check_structure, edge_derivation_family, identity_element, sparse_vectors
from conftest import ACCEPTANCE_VERDICTS
from zigzagalg.cli import main
from zigzagalg.exactlin import RATIONALS, span_dim, span_equal
from zigzagalg.linmaps import inner_space, solve, structured_space
from zigzagalg.quiver import Graph, Xorshift64Star, path_graph, random_tree, star_graph
from zigzagalg.zigzag import (
    build_algebra,
    check_associativity,
    multiply,
    center as center_of,
    with_patched_table,
)

F = RATIONALS


@contextmanager
def report_criterion(num: int, label: str):
    def emit(verdict):
        line = f"criterion {num:>2} ({label}): {verdict}"
        ACCEPTANCE_VERDICTS.append(line)
        print(line, flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


@dataclass
class Entry:
    graph: object
    algebra: object
    center: object
    der: object
    jordan: object
    anti: object
    structured: object
    inner: object


@dataclass
class Corpus:
    paths_stars: list = dc_field(default_factory=list)
    random_trees: list = dc_field(default_factory=list)
    timings: dict = dc_field(default_factory=dict)

    @property
    def entries(self):
        return self.paths_stars + self.random_trees


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    c = Corpus()
    graphs_ps = [path_graph(n) for n in range(2, 11)]
    graphs_ps += [star_graph(n) for n in range(3, 11)]

    # same seeding scheme as the sweep subcommand with --seed 42
    rng = Xorshift64Star(42)
    graphs_rt = [random_tree(2 + k % 11, rng.next_u64()) for k in range(50)]

    t0 = time.perf_counter()
    algebras_ps = [build_algebra(g) for g in graphs_ps]
    centers_ps = [center_of(a) for a in algebras_ps]
    c.timings["build_center_paths_stars"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    algebras_rt = [build_algebra(g) for g in graphs_rt]
    c.timings["build_random_trees"] = time.perf_counter() - t0

    algebras = algebras_ps + algebras_rt
    t0 = time.perf_counter()
    ders = [solve(a, "derivation") for a in algebras]
    c.timings["derivation_all"] = time.perf_counter() - t0

    centers = centers_ps + [center_of(a) for a in algebras_rt]
    graphs = graphs_ps + graphs_rt
    entries = [
        Entry(
            graph=g,
            algebra=a,
            center=cen,
            der=der,
            jordan=solve(a, "jordan"),
            anti=solve(a, "anti"),
            structured=structured_space(a),
            inner=inner_space(a),
        )
        for g, a, cen, der in zip(graphs, algebras, centers, ders)
    ]
    c.paths_stars = entries[: len(graphs_ps)]
    c.random_trees = entries[len(graphs_ps) :]
    return c


def test_criterion_01_algebra_and_center_dimensions(corpus):
    with report_criterion(1, "algebra and center dimensions on paths and stars"):
        for e in corpus.paths_stars:
            a, n = e.algebra, e.graph.n
            assert a.dim == 2 * n + 2 * (n - 1)
            assert e.center.dimension == n + 1
            expected = [identity_element(a)]
            expected += [{a.c_at[i]: F.one} for i in range(1, n + 1)]
            assert span_equal(e.center.rows, expected, F)
        elapsed = corpus.timings["build_center_paths_stars"]
        assert elapsed < 1.0, f"build+center took {elapsed:.3f}s, budget 1s"


def test_criterion_02_derivation_dimension(corpus):
    with report_criterion(2, "derivation dimension 3n-2 across the corpus"):
        for e in corpus.entries:
            assert e.der.dimension == 3 * e.graph.n - 2
        elapsed = (
            corpus.timings["build_center_paths_stars"]
            + corpus.timings["build_random_trees"]
            + corpus.timings["derivation_all"]
        )
        assert elapsed < 60.0, f"build+solve took {elapsed:.1f}s, budget 60s"


def test_criterion_03_single_edge_against_brute_force():
    with report_criterion(3, "single-edge solver matches independent brute force"):
        a = build_algebra(Graph(2, frozenset({(1, 2)})))
        space = solve(a, "derivation")
        assert space.dimension == 4
        family = edge_derivation_family()
        assert len(family) == 4
        assert span_equal(space.rows, sparse_vectors(family), F)
        assert all(check_structure(a, m) for m in space.rows)


def test_criterion_04_inner_derivation_dimension(corpus):
    with report_criterion(4, "inner dimension n+|arrows|-1 and dim-center"):
        for e in corpus.entries:
            n = e.graph.n
            assert e.inner.dimension == n + 2 * (n - 1) - 1
            assert e.inner.dimension == e.algebra.dim - e.center.dimension


def test_criterion_05_first_hochschild_is_one(corpus):
    with report_criterion(5, "hh1 equals 1 with inner contained in derivations"):
        for e in corpus.entries:
            assert e.der.dimension - e.inner.dimension == 1
            assert span_dim(e.der.rows + e.inner.rows, F) == e.der.dimension


def test_criterion_06_jordan_span_equals_derivation_span(corpus):
    with report_criterion(6, "jordan flavor spans exactly the derivations"):
        for e in corpus.entries:
            assert e.jordan.dimension == e.der.dimension
            assert span_equal(e.jordan.rows, e.der.rows, F)


def test_criterion_07_anti_flavor_vanishes(corpus):
    with report_criterion(7, "anti flavor is zero"):
        for e in corpus.entries:
            assert e.anti.dimension == 0


def test_criterion_08_structured_equals_solver(corpus):
    with report_criterion(8, "parameter family spans exactly the solver kernel"):
        for e in corpus.entries:
            assert e.structured.dimension == e.der.dimension
            assert span_equal(e.structured.rows, e.der.rows, F)


def test_criterion_09_algebra_well_formedness(corpus):
    with report_criterion(9, "associativity, identity, orthogonal idempotents"):
        for e in corpus.entries:
            a = e.algebra
            assert check_associativity(a)
            one = identity_element(a)
            for p in range(a.dim):
                v = {p: F.one}
                assert multiply(a, one, v) == v
                assert multiply(a, v, one) == v
            n = e.graph.n
            for i in range(1, n + 1):
                ei = {a.e_at[i]: F.one}
                assert multiply(a, ei, ei) == ei
                for j in range(1, n + 1):
                    if i != j:
                        ej = {a.e_at[j]: F.one}
                        assert multiply(a, ei, ej) == {}
        # the check must be able to fail: break one product and watch it
        a = build_algebra(Graph(2, frozenset({(1, 2)})))
        bad = with_patched_table(a, a.a_at[(1, 2)], a.a_at[(2, 1)], a.e_at[1])
        assert not check_associativity(bad)


def test_criterion_10_sweep_is_byte_deterministic(capsys):
    with report_criterion(10, "seeded sweep emits byte-identical reports"):
        assert main(["sweep", "--seed", "42", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "--seed", "42", "--json"]) == 0
        second = capsys.readouterr().out
        assert first.encode("utf-8") == second.encode("utf-8")
        assert '"all_pass": true' in first
