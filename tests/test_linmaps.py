from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bruteforce import edge_derivation_family
from zigzagalg.exactlin import (
    RATIONALS,
    PrimeField,
    nullspace_basis,
    span_canonical_basis,
    span_dim,
    span_equal,
)
from zigzagalg.linmaps import (
    CharacteristicTwoError,
    DerivationParams,
    LinearMap,
    ad_map,
    check_structure,
    hh_dims,
    inner_space,
    leibniz_system,
    materialize,
    solve,
    structured_parameter_basis,
    structured_space,
    verify_map,
)
from zigzagalg.quiver import Graph, path_graph, random_tree, star_graph
from zigzagalg.zigzag import arrow, build_algebra, center, cycle, idem

EDGE = Graph(2, frozenset({(1, 2)}))


@pytest.fixture(scope="module")
def edge_algebra():
    return build_algebra(EDGE)


def flat(space, field):
    return space.flat_basis(field)


def test_leibniz_system_shape_single_edge(edge_algebra):
    m = leibniz_system(edge_algebra, "derivation")
    assert m.ncols == 36
    assert m.nrows > 0
    assert all(r for r in m.rows)  # no zero rows survive
    keys = [tuple(sorted(r.items())) for r in m.rows]
    assert len(keys) == len(set(keys))  # no duplicate rows survive


def test_solver_matches_brute_force_on_single_edge(edge_algebra):
    a = edge_algebra
    family = edge_derivation_family()
    assert len(family) == 4
    space = solve(a, "derivation")
    assert space.dimension == 4
    assert span_equal(flat(space, a.field), list(family))
    assert all(check_structure(a, m) for m in space.basis)


def test_anti_flavor_is_zero_on_single_edge(edge_algebra):
    assert solve(edge_algebra, "anti").dimension == 0


def test_jordan_equals_derivation_on_path_three():
    a = build_algebra(path_graph(3))
    der = solve(a, "derivation")
    jor = solve(a, "jordan")
    assert der.dimension == 7
    assert jor.dimension == 7
    assert span_equal(flat(jor, a.field), flat(der, a.field))


def test_derivation_dims_small_cases():
    for g, want in ((path_graph(4), 10), (star_graph(4), 10)):
        a = build_algebra(g)
        assert solve(a, "derivation").dimension == want


def test_jordan_refuses_characteristic_two():
    a = build_algebra(EDGE, PrimeField(2))
    with pytest.raises(CharacteristicTwoError):
        leibniz_system(a, "jordan")
    with pytest.raises(CharacteristicTwoError):
        solve(a, "jordan")


def test_unknown_flavor_rejected(edge_algebra):
    with pytest.raises(ValueError, match="flavor"):
        leibniz_system(edge_algebra, "antiderivation")


def as_entries(a, lin):
    field = a.field
    out = {}
    for q, col in enumerate(lin.columns):
        for p, v in enumerate(col):
            if v != field.zero:
                out[(str(a.basis[p]), str(a.basis[q]))] = v
    return out


def test_materialize_e_part_frozen_example(edge_algebra):
    a = edge_algebra
    one = Fraction(1)
    lin = materialize(a, DerivationParams(t={(2, 1): one}, d={}))
    assert as_entries(a, lin) == {
        ("a(2->1)", "e1"): one,       # image of e1 is a(2->1)
        ("a(2->1)", "e2"): -one,      # image of e2 is -a(2->1)
        ("c1", "a(1->2)"): -one,      # image of a(1->2) is -c1 + c2
        ("c2", "a(1->2)"): one,
    }
    assert verify_map(a, lin, "derivation")
    assert check_structure(a, lin)


def test_materialize_diagonal_part_frozen_example(edge_algebra):
    a = edge_algebra
    one = Fraction(1)
    lin = materialize(a, DerivationParams(t={}, d={(1, 2): one}))
    assert as_entries(a, lin) == {
        ("a(1->2)", "a(1->2)"): one,  # image of a(1->2) is itself
        ("c1", "c1"): one,            # both cycles scale by d(1->2) + d(2->1) = 1
        ("c2", "c2"): one,
    }
    assert verify_map(a, lin, "derivation")


def test_materialize_rejects_non_arrows(edge_algebra):
    with pytest.raises(ValueError, match="non-arrow"):
        materialize(edge_algebra, DerivationParams(t={(1, 3): Fraction(1)}, d={}))


def test_materialize_rejects_inconsistent_cycle_sums():
    a = build_algebra(path_graph(3))
    # vertex 2 sees both edges: sums d(2,1)+d(1,2)=1 vs d(2,3)+d(3,2)=0 clash
    params = DerivationParams(t={}, d={(2, 1): Fraction(1)})
    with pytest.raises(ValueError, match="inconsistent"):
        materialize(a, params)


def test_parameter_count_single_edge(edge_algebra):
    params = structured_parameter_basis(edge_algebra)
    assert len(params) == 4  # 2 + 2 free parameters, no consistency constraints


def test_parameter_count_path_three():
    a = build_algebra(path_graph(3))
    assert len(structured_parameter_basis(a)) == 7  # 4 + 4 - 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
def test_parameter_count_on_random_trees(n):
    a = build_algebra(random_tree(n, 1000 + n))
    assert len(structured_parameter_basis(a)) == 3 * n - 2


def test_every_materialized_parameter_is_a_derivation():
    a = build_algebra(random_tree(6, 17))
    for p in structured_parameter_basis(a):
        lin = materialize(a, p)
        assert verify_map(a, lin, "derivation")
        assert check_structure(a, lin)


def test_structured_space_equals_solver_on_path_three():
    a = build_algebra(path_graph(3))
    st = structured_space(a)
    der = solve(a, "derivation")
    assert st.dimension == der.dimension == 7
    assert span_equal(flat(st, a.field), flat(der, a.field))


def test_inner_space_dimensions():
    a = build_algebra(EDGE)
    assert inner_space(a).dimension == 3
    a3 = build_algebra(path_graph(3))
    assert inner_space(a3).dimension == 6


def test_ad_generator_span_dim_path_three():
    a = build_algebra(path_graph(3))
    gens = [ad_map(a, k).flatten(a.field) for k in range(a.dim)]
    assert span_dim(gens, a.field) == 6


def test_central_elements_have_zero_ad():
    a = build_algebra(path_graph(4))
    for i in range(1, 5):
        assert ad_map(a, a.index(cycle(i))).is_zero(a.field)
    # ad of the identity: sum of the idempotent ads vanishes
    field = a.field
    total = None
    for i in range(1, 5):
        m = ad_map(a, a.index(idem(i))).flatten(field)
        total = m if total is None else tuple(field.add(x, y) for x, y in zip(total, m))
    assert all(v == field.zero for v in total)


def test_inner_maps_are_derivations_inside_solver_span():
    a = build_algebra(random_tree(5, 23))
    der = solve(a, "derivation")
    inner = inner_space(a)
    for lin in inner.basis:
        assert verify_map(a, lin, "derivation")
    assert span_dim(flat(der, a.field) + flat(inner, a.field), a.field) == der.dimension


def test_inner_dim_agrees_with_center_complement():
    for g in (EDGE, path_graph(4), star_graph(5), random_tree(7, 5)):
        a = build_algebra(g)
        assert inner_space(a).dimension == a.dim - center(a).dimension


def test_hh_dims_frozen_cases():
    assert hh_dims(build_algebra(EDGE)) == (3, 1)
    assert hh_dims(build_algebra(path_graph(7))) == (8, 1)


def test_hh_dims_on_a_cycle_graph_reports_without_tree_formulas():
    tri = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    hh0, hh1 = hh_dims(build_algebra(tri))
    assert hh0 == 4  # center is still 1 plus the cycles
    assert hh1 == 2  # larger than the tree value; reported, not asserted


def test_check_structure_rejects_bad_support(edge_algebra):
    a = edge_algebra
    field = a.field
    cols = [[field.zero] * a.dim for _ in range(a.dim)]
    cols[a.index(idem(1))][a.index(cycle(1))] = field.one  # e1 -> c1 is not allowed
    bad = LinearMap(a.dim, tuple(tuple(c) for c in cols))
    assert not check_structure(a, bad)


def test_solver_works_mod_p():
    for p in (3, 5):
        field = PrimeField(p)
        a = build_algebra(path_graph(4), field)
        der = solve(a, "derivation")
        inner = inner_space(a)
        assert inner.dimension == a.dim - center(a).dimension
        assert span_dim(flat(der, field) + flat(inner, field), field) == der.dimension
        assert all(verify_map(a, m, "derivation") for m in der.basis)


def relabeled(g: Graph, perm: dict) -> Graph:
    return Graph(g.n, frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))


def test_dimensions_are_relabeling_invariant():
    rng = random.Random(8)
    for n in (4, 6, 8):
        g = random_tree(n, 300 + n)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        perm = {i + 1: labels[i] for i in range(n)}
        h = relabeled(g, perm)
        a, b = build_algebra(g), build_algebra(h)
        assert solve(a, "derivation").dimension == solve(b, "derivation").dimension
        assert center(a).dimension == center(b).dimension
        assert inner_space(a).dimension == inner_space(b).dimension
        assert hh_dims(a) == hh_dims(b)


REFERENCE_GRAPHS = {
    "tree3": random_tree(3, 503),
    "tree5": random_tree(5, 505),
    "tree8": random_tree(8, 508),
    "cycle4": Graph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})),
}


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(101), PrimeField(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_sparse_solver_matches_dense_reference(name, field):
    # the dense route: dense kernel vectors, canonicalized as dense tuples
    a = build_algebra(REFERENCE_GRAPHS[name], field)
    for flavor in ("derivation", "jordan", "anti"):
        reference = span_canonical_basis(nullspace_basis(leibniz_system(a, flavor)), field)
        assert solve(a, flavor).flat_basis(field) == reference


def test_containment_rejects_a_non_derivation():
    a = build_algebra(random_tree(5, 505))
    field = a.field
    der = solve(a, "derivation")
    assert der.contains(inner_space(a).rows)
    e1 = a.index(idem(1))
    outside = {e1 * a.dim + e1: field.one}  # e1 -> e1 is no derivation
    dense = LinearMap.from_entries(field, a.dim, outside).flatten(field)
    assert span_dim(der.flat_basis(field) + [dense], field) == der.dimension + 1
    assert not der.contains([outside])
    assert not der.contains(inner_space(a).rows + [outside])
