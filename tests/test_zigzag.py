from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from bruteforce import EDGE_TABLE, associative_literal, dense_table, identity_element
from zigzagalg.exactlin import RATIONALS, PrimeField, span_equal
from zigzagalg.quiver import Graph, path_graph, random_tree, star_graph
from zigzagalg.zigzag import ZigzagAlgebra, build_algebra, center, check_associativity, multiply, with_patched_table


@pytest.fixture(scope="module")
def edge_algebra():
    return build_algebra(Graph(2, frozenset({(1, 2)})))


def test_single_edge_basis_and_dim(edge_algebra):
    a = edge_algebra
    assert a.dim == 6
    assert a.basis == ("e1", "e2", "a(1->2)", "a(2->1)", "c1", "c2")


def test_repr_names_the_graph_size_dimension_and_field():
    assert repr(build_algebra(path_graph(3), PrimeField(5))) == "ZigzagAlgebra(n=3, dim=10, field=gf:5)"
    assert repr(build_algebra(Graph(2, frozenset({(1, 2)})))) == "ZigzagAlgebra(n=2, dim=6, field=rat)"


def test_dims_match_graph_size():
    assert build_algebra(path_graph(3)).dim == 10
    assert build_algebra(star_graph(4)).dim == 14  # one center, three leaves
    tri = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    assert build_algebra(tri).dim == 12


def one_at(a, k):
    return {k: a.field.one}


def basis_product(a, p, q):
    return multiply(a, one_at(a, p), one_at(a, q))


def sparse_sum(x, y):
    return {k: v for k in x.keys() | y.keys() if (v := x.get(k, 0) + y.get(k, 0))}


def random_element(a, draw):
    """A sparse element whose coefficients are drawn in basis order, zeros dropped."""
    return {p: v for p in range(a.dim) if (v := draw())}


def test_product_rules_on_path():
    a = build_algebra(path_graph(3))
    e, ar, c = a.e_at, a.a_at, a.c_at
    z = {}

    assert basis_product(a, ar[1, 2], ar[2, 1]) == one_at(a, c[1])
    assert basis_product(a, ar[1, 2], ar[2, 3]) == z  # not a cycle
    assert basis_product(a, c[1], c[1]) == z
    assert basis_product(a, c[1], ar[1, 2]) == z
    assert basis_product(a, e[1], ar[1, 2]) == one_at(a, ar[1, 2])
    assert basis_product(a, ar[1, 2], e[2]) == one_at(a, ar[1, 2])
    assert basis_product(a, ar[1, 2], e[1]) == z
    assert basis_product(a, e[2], c[2]) == one_at(a, c[2])


def test_identity_element(edge_algebra):
    a = edge_algebra
    rng = random.Random(3)
    one = identity_element(a)
    for _ in range(10):
        x = random_element(a, lambda: Fraction(rng.randint(-3, 3)))
        assert multiply(a, one, x) == x
        assert multiply(a, x, one) == x


def test_multiply_is_bilinear(edge_algebra):
    a = edge_algebra
    rng = random.Random(5)
    for _ in range(10):
        x = random_element(a, lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        y = random_element(a, lambda: Fraction(rng.randint(-3, 3)))
        zv = random_element(a, lambda: Fraction(rng.randint(-3, 3)))
        xy = multiply(a, x, y)
        xz = multiply(a, x, zv)
        both = multiply(a, x, sparse_sum(y, zv))
        assert both == sparse_sum(xy, xz)


def test_multiply_reduces_each_coefficient_mod_p():
    a = build_algebra(path_graph(2), PrimeField(3))
    assert multiply(a, {0: 2}, {0: 1}) == {0: 2}  # e1 e1 = e1, and 2 * 1 is 2 in GF(3)
    assert multiply(a, {0: 2}, {0: 2}) == {0: 1}


def test_multiply_rejects_indices_outside_the_basis(edge_algebra):
    # a negative index would otherwise read table[-1], the last basis row
    a = edge_algebra
    one = a.field.one
    for bad in (-1, a.dim):
        with pytest.raises(ValueError, match=f"basis index {bad} out of range"):
            multiply(a, {bad: one}, {0: one})
        with pytest.raises(ValueError, match=f"basis index {bad} out of range"):
            multiply(a, {0: one}, {bad: one})


def test_build_rejects_unusable_graphs():
    with pytest.raises(ValueError, match="single-vertex"):
        build_algebra(Graph(1, frozenset()))
    with pytest.raises(ValueError, match="not connected"):
        build_algebra(Graph(4, frozenset({(1, 2), (3, 4)})))
    with pytest.raises(ValueError, match="empty"):
        build_algebra(Graph(0, frozenset()))
    # the constructor checks too, so no algebra without products exists
    with pytest.raises(ValueError, match="^graph on 4 vertices is not connected$"):
        ZigzagAlgebra(Graph(4, frozenset({(1, 2), (2, 3), (1, 3)})), RATIONALS)


def test_associativity_exhaustive():
    for g in (path_graph(2), path_graph(4), star_graph(5), random_tree(7, 99)):
        assert check_associativity(build_algebra(g))
    tri = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    assert check_associativity(build_algebra(tri))


def test_associativity_detects_a_patched_table(edge_algebra):
    a = edge_algebra
    # redefine a12 * a21 := e1 instead of c1; the exhaustive scan must notice
    bad = with_patched_table(a, a.a_at[(1, 2)], a.a_at[(2, 1)], a.e_at[1])
    assert not check_associativity(bad)


TRIANGLE = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))


@pytest.mark.parametrize("graph", [path_graph(3), TRIANGLE], ids=["path3", "triangle"])
def test_associativity_agrees_with_brute_force_on_every_patch(graph):
    # every table entry set to -1 and to each other basis index in turn
    a = build_algebra(graph)
    verdicts = []
    for p, q in product(range(a.dim), repeat=2):
        for r in range(-1, a.dim):
            if r == a.products.get((p, q), -1):
                continue
            bad = with_patched_table(a, p, q, r)
            ok = check_associativity(bad)
            assert ok == associative_literal(dense_table(bad)), (p, q, r)
            verdicts.append(ok)
    assert len(verdicts) == a.dim**3
    assert True in verdicts and False in verdicts


def test_products_are_row_major_and_patches_change_one_entry(edge_algebra):
    assert dense_table(edge_algebra) == EDGE_TABLE  # the hand-written table
    a = build_algebra(path_graph(3))
    assert list(a.products) == sorted(a.products)
    assert len(a.products) == 9 * 3 - 6  # 9n - 6 on a tree
    e1, a12, c1 = a.e_at[1], a.a_at[(1, 2)], a.c_at[1]
    before = dict(a.products)
    # set a vanishing entry, clear a nonzero one, move a nonzero one
    for p, q, r in ((a12, e1, c1), (e1, a12, -1), (e1, e1, c1)):
        patched = with_patched_table(a, p, q, r)
        assert list(patched.products) == sorted(patched.products)
        expected = {k: v for k, v in before.items() if k != (p, q)}
        if r >= 0:
            expected[p, q] = r
        assert patched.products == expected
        table = dense_table(patched)
        assert patched.left_products == [
            [(y, table[u][y]) for y in range(a.dim) if table[u][y] >= 0] for u in range(a.dim)
        ]
        assert patched.right_products == [
            [(x, table[x][u]) for x in range(a.dim) if table[x][u] >= 0] for u in range(a.dim)
        ]
        assert patched.factors == [[k for k, v in sorted(expected.items()) if v == s] for s in range(a.dim)]
    assert a.products == before


def test_patches_out_of_range_are_rejected(edge_algebra):
    a = edge_algebra
    for patch in ((-1, 0, 0), (0, -1, 0), (a.dim, 0, 0), (0, a.dim, 0), (0, 0, a.dim), (0, 0, -2)):
        with pytest.raises(ValueError, match="out of range"):
            with_patched_table(a, *patch)
    assert with_patched_table(a, a.dim - 1, a.dim - 1, -1).dim == a.dim


def test_center_single_edge(edge_algebra):
    a = edge_algebra
    cen = center(a)
    assert cen.dimension == 3
    expected = [identity_element(a), one_at(a, a.c_at[1]), one_at(a, a.c_at[2])]
    assert span_equal(cen.rows, expected)


def test_center_path_five():
    a = build_algebra(path_graph(5))
    assert center(a).dimension == 6


def test_center_of_a_cycle_graph_still_n_plus_one():
    tri = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    a = build_algebra(tri)
    assert center(a).dimension == 4


def test_center_elements_commute(edge_algebra):
    a = edge_algebra
    for v in center(a).rows:
        for k in range(a.dim):
            b = {k: a.field.one}
            assert multiply(a, v, b) == multiply(a, b, v)


def test_center_mod_p():
    a = build_algebra(path_graph(4), PrimeField(3))
    assert center(a).dimension == 5


# multi-entry patches (x, y, s) whose one non-associative triple (p, q, r)
# has b_p b_q nonzero, (b_p b_q) b_r = 0 with b_r no partner of b_p b_q, and
# b_p (b_q b_r) nonzero, so only the partners of b_q reach it (found by a
# seeded search over chained patches)
REACHED_ONLY_THROUGH_Q = [
    (Graph(2, frozenset({(1, 2)})), [(0, 4, -1), (1, 3, -1), (2, 3, -1), (3, 0, -1), (3, 2, -1), (4, 0, 3)]),
    (Graph(2, frozenset({(1, 2)})), [(0, 4, -1), (1, 1, -1), (1, 3, 4), (1, 5, -1), (2, 1, -1), (2, 3, -1), (4, 0, -1), (5, 1, -1)]),
    (
        path_graph(3),
        [(0, 7, -1), (1, 1, -1), (1, 4, -1), (1, 5, -1), (1, 8, -1), (3, 1, -1), (3, 4, -1), (6, 1, -1), (7, 0, -1), (7, 2, 1), (8, 1, -1)],
    ),
]


@pytest.mark.parametrize("case", range(len(REACHED_ONLY_THROUGH_Q)))
def test_associativity_reaches_triples_only_through_the_middle_factor(case):
    graph, patches = REACHED_ONLY_THROUGH_Q[case]
    a = build_algebra(graph)
    for patch in patches:
        a = with_patched_table(a, *patch)
    assert not associative_literal(dense_table(a))
    assert not check_associativity(a)


class CountingProducts(dict):
    """A product table that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_a_hub_costs_check_associativity_no_more_lookups():
    # the product lookups on star_graph(400) stay within twice those on a
    # random tree of the same size (a hub once made them O(nnz * degree))
    work = {}
    for graph, g in (("star", star_graph(400)), ("tree", random_tree(400, 12345))):
        a = build_algebra(g)
        a.products = CountingProducts(a.products)
        assert check_associativity(a)
        work[graph] = a.products.lookups
    assert 0 < work["star"] <= 2 * work["tree"], work


K4 = Graph(4, frozenset((i, j) for i in range(1, 5) for j in range(i + 1, 5)))


@pytest.mark.parametrize("graph", [path_graph(5), star_graph(6), K4, "K4-patched"], ids=["path5", "star6", "K4", "K4-patched"])
def test_layout_maps_agree_with_the_basis(graph):
    # the algebra's own index maps point at the elements the basis names,
    # on a patched table too
    a = with_patched_table(build_algebra(K4), 4, 5, -1) if graph == "K4-patched" else build_algebra(graph)
    n = a.graph.n
    assert all(type(name) is str for name in a.basis)
    assert sorted(a.e_at) == sorted(a.c_at) == list(range(1, n + 1))
    assert all(a.basis[a.e_at[i]] == f"e{i}" for i in range(1, n + 1))
    assert all(a.basis[a.c_at[i]] == f"c{i}" for i in range(1, n + 1))
    assert all(a.basis[a.a_at[(u, v)]] == f"a({u}->{v})" for u, v in a.arrows)
    assert set(a.a_at) == set(a.arrows)
    assert sorted([*a.e_at.values(), *a.a_at.values(), *a.c_at.values()]) == list(range(a.dim))
    assert list(a.arrows) == sorted(a.arrows)
    # the neighbor lists are the graph's edges, each vertex's in increasing order
    edges = a.graph.edges
    assert a.nbrs == {i: sorted({j for j in range(1, n + 1) if (i, j) in edges or (j, i) in edges}) for i in range(1, n + 1)}
    assert a.is_tree == (len(edges) == n - 1)


N2000_SCRIPT = """
import resource
from zigzagalg.linmaps import inner_space, structured_space
from zigzagalg.quiver import random_tree
from zigzagalg.zigzag import build_algebra, center, check_associativity
a = build_algebra(random_tree(2000, 12345))
print(check_associativity(a), center(a).dimension, inner_space(a).dimension, structured_space(a).dimension)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""


def test_layers_outside_the_literal_route_stay_small_on_a_2000_vertex_tree(fresh_python):
    # dim 7998, so anything of size dim^2 (64M entries) would blow the bound;
    # a fresh interpreter, so the peak RSS is this run's alone
    proc = fresh_python("-c", N2000_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    dims, rss_mb = proc.stdout.splitlines()
    assert dims == "True 2001 5997 5998"
    assert int(rss_mb) < 200
