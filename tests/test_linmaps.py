from __future__ import annotations

import ast
import copy
import hashlib
import inspect
import random
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from bruteforce import (
    center_literal,
    check_structure,
    commutator_literal,
    dense_nullspace,
    dense_rref,
    dense_table,
    edge_derivation_family,
    leibniz_rows,
    sparse_leibniz_system,
    sparse_vectors,
    verify_literal,
)
from zigzagalg import analysis, exactlin, linmaps
from zigzagalg.analysis import analyze_graph
from zigzagalg.exactlin import (
    RATIONALS,
    FieldMismatchError,
    PrimeField,
    nullspace_basis,
    parse_field,
    span_canonical_basis,
    span_dim,
    span_equal,
)
from zigzagalg.linmaps import (
    FLAVORS,
    CharacteristicTwoError,
    InternalInvariantError,
    MapSpace,
    _leibniz_equations,
    ad_map,
    anti_space,
    derivation_space,
    inner_space,
    leibniz_system,
    materialize,
    solve,
    structured_generators,
    structured_parameter_basis,
    structured_space,
    verify_map,
)
from zigzagalg.quiver import Graph, path_graph, random_tree, star_graph
from zigzagalg.zigzag import build_algebra, center, multiply, with_patched_table

EDGE = Graph(2, frozenset({(1, 2)}))


@pytest.fixture(scope="module")
def edge_algebra():
    return build_algebra(EDGE)


def oracle_system(a, flavor):
    """The full system as the independent oracle writes it from ``a.dim``,
    ``a.products`` and the characteristic alone."""
    return sparse_leibniz_system(a.dim, a.products, flavor, a.field.characteristic)


def test_leibniz_system_shape_single_edge(edge_algebra):
    m = leibniz_system(edge_algebra, "derivation")
    assert type(m) is list and m
    exactlin._int_rows(edge_algebra.field, m, 36)  # field elements, none zero, columns in range
    assert all(r for r in m)  # no zero rows survive
    keys = [tuple(sorted(r.items())) for r in m]
    assert len(keys) == len(set(keys))  # no duplicate rows survive


def test_solver_matches_brute_force_on_single_edge(edge_algebra):
    a = edge_algebra
    family = edge_derivation_family()
    assert len(family) == 4
    space = solve(a, "derivation")
    assert space.dimension == 4
    assert span_equal(space.rows, sparse_vectors(family))
    assert all(check_structure(a, m) for m in space.rows)


def test_anti_flavor_is_zero_on_single_edge(edge_algebra):
    assert solve(edge_algebra, "anti").dimension == 0


def test_jordan_equals_derivation_on_path_three():
    a = build_algebra(path_graph(3))
    der = solve(a, "derivation")
    jor = solve(a, "jordan")
    assert der.dimension == 7
    assert jor.dimension == 7
    assert span_equal(jor.rows, der.rows)


def test_verify_map_checks_jordan_squares_over_gf2():
    # solve refuses jordan over GF(2), but the audit still walks it: at (q, q)
    # it checks D(x^2) = D(x)x + xD(x), not the doubled sum, which is 0 there;
    # e1 -> c1 fails at (e1, e1), as D(e1) = c1 while D(e1)e1 + e1D(e1) = 2c1
    a = build_algebra(EDGE, PrimeField(2))
    assert verify_map(a, {a.c_at[1] * a.dim + a.e_at[1]: 1}, "jordan") is False


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
    with pytest.raises(ValueError, match="unknown flavor 'jordon'"):
        verify_map(edge_algebra, {}, "jordon")


def test_map_space_repr_names_flavor_and_dimension(edge_algebra):
    assert repr(solve(edge_algebra, "derivation")) == "MapSpace('derivation', dim=4)"
    assert repr(MapSpace("anti", edge_algebra.field, [])) == "MapSpace('anti', dim=0)"


def test_verify_map_and_ad_map_reject_indices_outside_the_basis(edge_algebra):
    # a negative key or k would otherwise wrap to the last basis element, and
    # a key past dim^2 would raise a bare IndexError
    a = edge_algebra
    one = a.field.one
    for key in (-1, -a.dim, a.dim * a.dim, a.dim * a.dim + a.dim):
        for flavor in FLAVORS:
            with pytest.raises(ValueError, match=f"map key {key} out of range"):
                verify_map(a, {0: one, key: one}, flavor)
    for k in (-1, a.dim):
        with pytest.raises(ValueError, match=f"basis index {k} out of range"):
            ad_map(a, k)
    assert verify_map(a, {a.dim * a.dim - 1: one}, "derivation") is False  # c2 -> c2 alone
    assert ad_map(a, a.dim - 1) == {}  # c2 is central


def as_entries(a, lin):
    out = {}
    for j, v in lin.items():
        p, q = divmod(j, a.dim)
        out[(a.basis[p], a.basis[q])] = v
    return out


def test_materialize_e_part_frozen_example(edge_algebra):
    a = edge_algebra
    one = Fraction(1)
    lin = materialize(a, {(2, 1): one}, {})
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
    lin = materialize(a, {}, {(1, 2): one})
    assert as_entries(a, lin) == {
        ("a(1->2)", "a(1->2)"): one,  # image of a(1->2) is itself
        ("c1", "c1"): one,            # both cycles scale by d(1->2) + d(2->1) = 1
        ("c2", "c2"): one,
    }
    assert verify_map(a, lin, "derivation")


def test_materialize_rejects_non_arrows(edge_algebra):
    with pytest.raises(ValueError, match="non-arrow"):
        materialize(edge_algebra, {(1, 3): Fraction(1)}, {})


def test_materialize_rejects_inconsistent_cycle_sums():
    a = build_algebra(path_graph(3))
    # vertex 2 sees both edges: sums d(2,1)+d(1,2)=1 vs d(2,3)+d(3,2)=0 clash
    with pytest.raises(ValueError, match="inconsistent"):
        materialize(a, {}, {(2, 1): Fraction(1)})


def test_materialize_checks_a_hub_whose_edges_are_all_touched():
    # every edge at the hub carries d, so no untouched edge adds a zero sum
    a = build_algebra(star_graph(4))
    one = Fraction(1)
    lin = materialize(a, {}, {(1, 2): one, (3, 1): one, (1, 4): one})
    assert as_entries(a, lin)[("c1", "c1")] == one
    assert verify_map(a, lin, "derivation")
    with pytest.raises(ValueError, match="inconsistent parameters: cycle coefficients at vertex 1 "):
        materialize(a, {}, {(1, 2): one, (3, 1): one, (1, 4): 2 * one})


def test_materialize_converts_parameters_into_the_field():
    params = {(1, 2): 4}, {(1, 2): 4, (2, 1): 2}
    gf3 = build_algebra(path_graph(2), PrimeField(3))
    assert materialize(gf3, *params) == materialize(gf3, {(1, 2): 1}, {(1, 2): 1, (2, 1): 2})
    lin = materialize(build_algebra(path_graph(2)), *params)
    assert lin and all(type(v) is Fraction for v in lin.values())
    with pytest.raises(ValueError, match="floating point"):
        materialize(gf3, {(1, 2): 0.5}, {})


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


PARAMETER_GRAPHS = {
    **{f"tree{n}": random_tree(n, 4000 + n) for n in range(2, 13)},
    **{f"star{n}": star_graph(n) for n in (3, 5, 8)},
    **{f"path{n}": path_graph(n) for n in (2, 4, 7)},
    **{f"cycle{n}": Graph(n, frozenset({(i, i + 1) for i in range(1, n)} | {(1, n)})) for n in range(3, 9)},
    "K5": Graph(5, frozenset((i, j) for i in range(1, 6) for j in range(i + 1, 6))),
}


@pytest.mark.parametrize("spec", ["rat", "gf:2", "gf:3", "gf:101"])
def test_parameter_basis_is_the_closed_form(spec):
    # structured_parameter_basis writes the paper's parametrisation in
    # closed form, as ints: it must span exactly the kernel of the
    # per-vertex cycle-consistency conditions, which the oracle eliminates
    # densely in the field, and equal the literal closed form, in order
    field = parse_field(spec)
    p = field.characteristic
    for name, g in PARAMETER_GRAPHS.items():
        a = build_algebra(g, field)
        got = structured_parameter_basis(a)
        assert got == bruteforce.parameter_basis_literal(a.arrows, p), name
        assert all(type(v) is int for t, d in got for v in (*t.values(), *d.values())), name
        kernel = bruteforce.cycle_consistency_kernel(a.arrows, a.nbrs, p)
        vectors = [[t.get(ar, 0) for ar in a.arrows] + [d.get(ar, 0) for ar in a.arrows] for t, d in got]
        assert len(vectors) == len(kernel), name  # equal dimension
        assert len(dense_rref(vectors, p)[1]) == len(vectors), name  # independent
        assert len(dense_rref(kernel + vectors, p)[1]) == len(kernel), name  # every vector inside the kernel


def test_every_materialized_parameter_is_a_derivation():
    a = build_algebra(random_tree(6, 17))
    for t, d in structured_parameter_basis(a):
        lin = materialize(a, t, d)
        assert verify_map(a, lin, "derivation")
        assert check_structure(a, lin)


def test_structured_space_equals_solver_on_path_three():
    a = build_algebra(path_graph(3))
    st = structured_space(a)
    der = solve(a, "derivation")
    assert st.dimension == der.dimension == 7
    assert span_equal(st.rows, der.rows)


def test_inner_space_dimensions():
    a = build_algebra(EDGE)
    assert inner_space(a).dimension == 3
    a3 = build_algebra(path_graph(3))
    assert inner_space(a3).dimension == 6


def test_ad_generator_span_dim_path_three():
    a = build_algebra(path_graph(3))
    gens = [ad_map(a, k) for k in range(a.dim)]
    assert span_dim(gens, a.field) == 6


def test_central_elements_have_zero_ad():
    a = build_algebra(path_graph(4))
    for i in range(1, 5):
        assert ad_map(a, a.c_at[i]) == {}
    # ad of the identity: sum of the idempotent ads vanishes
    field = a.field
    total = {}
    for i in range(1, 5):
        for j, v in ad_map(a, a.e_at[i]).items():
            total[j] = total.get(j, field.zero) + v
    assert all(v == field.zero for v in total.values())


def test_inner_maps_are_derivations_inside_solver_span():
    a = build_algebra(random_tree(5, 23))
    der = solve(a, "derivation")
    inner = inner_space(a)
    for lin in inner.rows:
        assert verify_map(a, lin, "derivation")
    assert span_dim(der.rows + inner.rows, a.field) == der.dimension


def test_inner_dim_agrees_with_center_complement():
    for g in (EDGE, path_graph(4), star_graph(5), random_tree(7, 5)):
        a = build_algebra(g)
        assert inner_space(a).dimension == a.dim - center(a).dimension


def hh_dims(g: Graph) -> tuple:
    report, _ = analyze_graph(g)
    return report.hh0, report.hh1


def test_hh_dims_frozen_cases():
    assert hh_dims(EDGE) == (3, 1)
    assert hh_dims(path_graph(7)) == (8, 1)


def test_hh_dims_on_a_cycle_graph_reports_without_tree_formulas():
    tri = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    hh0, hh1 = hh_dims(tri)
    assert hh0 == 4  # center is still 1 plus the cycles
    assert hh1 == 2  # larger than the tree value; reported, not asserted


def test_check_structure_rejects_bad_support(edge_algebra):
    a = edge_algebra
    bad = {a.c_at[1] * a.dim + a.e_at[1]: a.field.one}  # e1 -> c1 is not allowed
    assert not check_structure(a, bad)


def test_solver_works_mod_p():
    for p in (3, 5):
        field = PrimeField(p)
        a = build_algebra(path_graph(4), field)
        der = solve(a, "derivation")
        inner = inner_space(a)
        assert inner.dimension == a.dim - center(a).dimension
        assert span_dim(der.rows + inner.rows, field) == der.dimension
        assert all(verify_map(a, m, "derivation") for m in der.rows)


def relabeled(g: Graph, perm: dict) -> Graph:
    return Graph(g.n, frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))


DIM_KEYS = ("dim_algebra", "dim_center", "dim_der", "dim_jordan", "dim_anti", "dim_inner", "hh0", "hh1")


def test_dimensions_are_relabeling_invariant():
    # differential: on 22 seeded trees and four graphs off trees, a seeded
    # vertex relabelling changes no dimension and no rat check, and gf:101
    # gives the rat dimensions
    rng = random.Random(8)
    graphs = [random_tree(n, 300 + n + 1000 * s) for n in range(2, 13) for s in range(2)]
    graphs += [OFF_TREE_GRAPHS[name] for name in ("cycle5", "K4", "K5", "star6")]
    for g in graphs:
        labels = rng.sample(range(1, g.n + 1), g.n)
        h = relabeled(g, {i + 1: labels[i] for i in range(g.n)})
        (r, _), (s, _), (t, _) = analyze_graph(g), analyze_graph(h), analyze_graph(g, parse_field("gf:101"))
        dims = {k: getattr(r, k) for k in DIM_KEYS}
        assert r.all_pass(), (g, r.formula_checks)
        assert {k: getattr(s, k) for k in DIM_KEYS} == dims, (g, h)
        assert s.formula_checks == r.formula_checks, (g, h)
        assert {k: getattr(t, k) for k in DIM_KEYS} == dims, g


REFERENCE_GRAPHS = {
    "tree3": random_tree(3, 503),
    "tree5": random_tree(5, 505),
    "tree8": random_tree(8, 508),
    "cycle4": Graph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})),
}


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(101), PrimeField(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_sparse_solver_matches_dense_reference(name, field):
    # the reference route: the kernel of the full dim^2 system, canonicalized
    a = build_algebra(REFERENCE_GRAPHS[name], field)
    for flavor in ("derivation", "jordan", "anti"):
        reference = span_canonical_basis(nullspace_basis(oracle_system(a, flavor), a.dim * a.dim, field), field)
        assert solve(a, flavor).rows == reference


def test_containment_rejects_a_non_derivation():
    a = build_algebra(random_tree(5, 505))
    field = a.field
    der = solve(a, "derivation")
    assert der.contains(inner_space(a).rows)
    e1 = a.e_at[1]
    outside = {e1 * a.dim + e1: field.one}  # e1 -> e1 is no derivation
    assert span_dim(der.rows + [outside], field) == der.dimension + 1
    assert not der.contains([outside])
    assert not der.contains(inner_space(a).rows + [outside])


@pytest.mark.parametrize("spec", ["rat", "gf:3"])
def test_verify_map_and_contains_reject_values_outside_the_field(spec):
    # a non-int map is scaled to ints by the lcm of its denominators; over
    # GF(3) a denominator 3 made that lcm 0 and wiped a stray entry, so a
    # non-derivation passed, and a float or a string raised no field error
    a = build_algebra(path_graph(3), parse_field(spec))
    der = solve(a, "derivation")
    row = der.ints[-1]
    e1 = a.e_at[1]
    stray = {e1 * a.dim + e1: 1}  # e1 -> e1 is no derivation
    planted = {"float": {j: float(v) for j, v in row.items()}, "non-number": {j: str(v) for j, v in row.items()}}
    if spec == "gf:3":
        planted["third"] = {j: Fraction(v, 3) for j, v in row.items()} | stray
    for name, lin in planted.items():
        with pytest.raises(FieldMismatchError):
            verify_map(a, lin, "derivation")
        with pytest.raises(FieldMismatchError):
            der.contains([lin])
    # values in the field still scale: halves, with or without the stray entry
    halves = {j: Fraction(v, 2) for j, v in row.items()}
    assert verify_map(a, halves, "derivation") and der.contains([halves])
    assert not verify_map(a, halves | stray, "derivation") and not der.contains([halves | stray])
    with pytest.raises(FieldMismatchError, match="0.5 is not an element"):  # the one bad entry is named
        verify_map(a, {0: 0.5}, "derivation")


ORACLE_GRAPHS = {
    "edge": EDGE,
    "path3": path_graph(3),
    "triangle": Graph(3, frozenset({(1, 2), (2, 3), (1, 3)})),
}


@pytest.mark.parametrize("flavor", ["derivation", "jordan", "anti"])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_solver_matches_literal_identity_oracle(name, flavor):
    # the oracle sees only the plain product table, and writes each identity out
    a = build_algebra(ORACLE_GRAPHS[name])
    family = dense_nullspace(leibniz_rows(dense_table(a), flavor), a.dim * a.dim)
    assert solve(a, flavor).rows == span_canonical_basis(sparse_vectors(family), RATIONALS)


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_gf2_system_stores_no_zero_coefficients(name):
    # coefficients of +-2 vanish in GF(2) and must not be stored
    field = PrimeField(2)
    a = build_algebra(REFERENCE_GRAPHS[name], field)
    for flavor in ("derivation", "anti"):
        assert all(v != field.zero for row in leibniz_system(a, flavor) for v in row.values())
        reference = span_canonical_basis(nullspace_basis(oracle_system(a, flavor), a.dim * a.dim, field), field)
        assert solve(a, flavor).rows == reference


VERIFY_GRAPHS = {**ORACLE_GRAPHS, "cycle4": REFERENCE_GRAPHS["cycle4"]}


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("name", sorted(VERIFY_GRAPHS))
def test_verify_map_agrees_with_literal_identity(name, field):
    # solved basis maps, each with one entry bumped, and Theta(c1) = c1, which
    # fails only on pairs whose product lands on c1 (e.g. a(1->2) a(2->1))
    a = build_algebra(VERIFY_GRAPHS[name], field)
    table = dense_table(a)
    rng = random.Random(name)
    c1 = a.c_at[1]
    c1_to_c1 = {c1 * a.dim + c1: field.one}
    verdicts = []
    for flavor in FLAVORS:
        maps = [c1_to_c1]
        for row in solve(a, flavor).rows:
            j = rng.randrange(a.dim * a.dim)
            bumped = dict(row)
            bumped[j] = field.convert(bumped.get(j, field.zero) + field.one)
            if bumped[j] == field.zero:
                del bumped[j]
            maps += [row, bumped]
        for m in maps:
            ok = verify_map(a, m, flavor)
            assert ok == verify_literal(table, m, flavor, field.characteristic), (flavor, m)
            verdicts.append(ok)
        assert not verify_map(a, c1_to_c1, flavor)
    assert True in verdicts and False in verdicts


DIGEST_GRAPHS = {f"tree{n}-{s}": random_tree(n, s * 100 + n) for n in range(2, 9) for s in (1, 2)}
DIGEST_GRAPHS["cycle3"] = ORACLE_GRAPHS["triangle"]
DIGEST_GRAPHS["cycle4"] = REFERENCE_GRAPHS["cycle4"]

# sha256 over every system (as the oracle writes it, and leibniz_system must
# give it in value, type and order) and solved canonical basis, each row
# hashed as its sorted items in row order, pinned so that a change to
# generation or elimination must keep both identical
PINNED_SOLVE_DIGESTS = {
    "rat": "4879f9ad3331dcd9a4ce0eb90656248aad44a03f1129e6abfda97125663db813",
    "gf:101": "e0f1fd9639c928cf3094558317a6fc045ba909832afca6c6aa722edde2da04e2",
    "gf:3": "c482218a69d065e5de9522de2f28233a0df0dd742ef57bf101a5ec9a88b5178a",
    "gf:2": "1520437e3a6c3e1cd7b069086d50e60b4b3f8c65b0a0736e3254b17ee4e88523",
}


@pytest.mark.parametrize("spec", sorted(PINNED_SOLVE_DIGESTS))
def test_systems_and_solutions_match_pinned_digest(spec):
    field = parse_field(spec)
    h = hashlib.sha256()
    for name in sorted(DIGEST_GRAPHS):
        a = build_algebra(DIGEST_GRAPHS[name], field)
        for flavor in FLAVORS:
            if flavor == "jordan" and field.characteristic == 2:
                continue
            system = oracle_system(a, flavor)
            assert repr(leibniz_system(a, flavor)) == repr(system), (name, flavor)
            h.update(f"{name} {flavor} {len(system)} {a.dim * a.dim}\n".encode())
            for rows in (system, solve(a, flavor).rows):
                for row in rows:
                    h.update(f"{sorted(row.items())}\n".encode())
                h.update(b"--\n")
    assert h.hexdigest() == PINNED_SOLVE_DIGESTS[spec]


WIDE_GRAPHS = {f"tree{n}-{s}": random_tree(n, 1000 * s + n) for n in range(2, 17) for s in (1, 2)}
WIDE_GRAPHS.update(
    {f"cycle{k}": Graph(k, frozenset({(i, i + 1) for i in range(1, k)} | {(1, k)})) for k in range(3, 7)}
)
WIDE_GRAPHS["K5"] = Graph(5, frozenset((i, j) for i in range(1, 6) for j in range(i + 1, 6)))
WIDE_GRAPHS["star12"] = star_graph(12)

# sha256 over every output space: each row hashed as its sorted items (their
# repr, so a Fraction and an int differ), in row order, pinned so that a
# change to any route must keep every output byte-identical
PINNED_OUTPUT_DIGESTS = {
    "rat": "bd5e790fe92c1c9e3c054347bf2e59646aad6b238c919f3e14d25631c38456c5",
    "gf:2": "fb271f4d7822f96452b94b80090bbd8b008cc5bcf0212726d762e500ab787f9e",
    "gf:3": "cf1c27eafd885c21733e1f5d20aea175aef6e0299a469a4a44d83f2371ca0231",
    "gf:101": "820a11e14200ef5412c278b9ac99e81f554ea766145e06de26a391120dedc573",
}


@pytest.mark.parametrize("spec", sorted(PINNED_OUTPUT_DIGESTS))
def test_outputs_match_pinned_wide_digest(spec):
    field = parse_field(spec)
    h = hashlib.sha256()
    for name in sorted(WIDE_GRAPHS):
        a = build_algebra(WIDE_GRAPHS[name], field)
        spaces = [(f, solve(a, f).rows) for f in FLAVORS if f != "jordan" or field.characteristic != 2]
        spaces += [("center", center(a).rows), ("inner", inner_space(a).rows)]
        if a.is_tree and not field.characteristic:
            spaces.append(("structured", structured_space(a).rows))
        for label, rows in spaces:
            h.update(f"{name} {label} {len(rows)}\n".encode())
            for row in rows:
                h.update(f"{sorted(row.items())}\n".encode())
    assert h.hexdigest() == PINNED_OUTPUT_DIGESTS[spec]


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("graph", [star_graph(5), random_tree(7, 707)], ids=["star5", "tree7"])
def test_verify_map_agrees_with_literal_identity_on_larger_graphs(graph, field):
    # sampled derivations, each also with one random entry bumped, audited
    # under every flavor: the audit visits only the pairs a term can reach
    a = build_algebra(graph, field)
    table = dense_table(a)
    rng = random.Random(a.dim)
    maps = []
    for row in rng.sample(solve(a, "derivation").rows, 4):
        j = rng.randrange(a.dim * a.dim)
        bumped = dict(row)
        bumped[j] = field.convert(bumped.get(j, field.zero) + field.one)
        if bumped[j] == field.zero:
            del bumped[j]
        maps += [row, bumped]
    verdicts = set()
    for flavor in FLAVORS:
        for m in maps:
            ok = verify_map(a, m, flavor)
            assert ok == verify_literal(table, m, flavor, field.characteristic), (flavor, m)
            verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS) + ["edge-patched"])
def test_verify_map_agrees_with_literal_identity_on_single_entry_maps(name):
    # no map Theta(b_q) = b_p satisfies any flavor, but many fail on only a
    # few pairs (those where b_p has a nonzero product with the other basis
    # element in one order), so the audit must reach one of those.  With
    # a(1->2) a(2->1) = 0, Theta(e2) = a(1->2) and Theta(e2) = a(2->1) each
    # fail derivation only on pairs (b_w, e2) or only on pairs (e2, b_w), and
    # anti only on the other order: the partner loop needs both its orders
    patched = name.endswith("-patched")
    a = build_algebra(ORACLE_GRAPHS[name.removesuffix("-patched")])
    if patched:
        a = with_patched_table(a, a.a_at[(1, 2)], a.a_at[(2, 1)], -1)
    table = dense_table(a)
    verdicts = set()
    for flavor in FLAVORS:
        for j in range(a.dim * a.dim):
            m = {j: RATIONALS.one}
            ok = verify_literal(table, m, flavor)
            assert verify_map(a, m, flavor) == ok, (flavor, divmod(j, a.dim))
            verdicts.add(ok)
    assert verdicts == ({True, False} if patched else {False})


def seeded_patches(a, count, seed):
    """``count`` single-entry patches (x, y, s) of the table, setting
    b_x b_y = b_s (s = -1: zero).  The first two make a product land on a b_p
    that another pair already gives, once in a column (b_u b_y = b_p for two
    u) and once in a row (b_y b_u = b_p for two u); the rest are random."""
    rng = random.Random(seed)
    products = [(p, q, r) for (p, q), r in a.products.items()]
    u, y, p = rng.choice(products)
    u2 = rng.choice([w for w in range(a.dim) if (w, y) not in a.products])
    x, w, s = rng.choice(products)
    w2 = rng.choice([v for v in range(a.dim) if (x, v) not in a.products])
    patches = [(u2, y, p), (x, w2, s)]
    while len(patches) < count:
        patches.append((rng.randrange(a.dim), rng.randrange(a.dim), rng.randrange(-1, a.dim)))
    return patches


PATCHES = {
    name: seeded_patches(build_algebra(ORACLE_GRAPHS[name]), count, name)
    for name, count in (("edge", 6), ("path3", 4))
}


def patched_table(name, patch):
    return dense_table(with_patched_table(build_algebra(ORACLE_GRAPHS[name]), *patch))


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("name", sorted(PATCHES))
def test_generator_matches_literal_oracle_on_patched_tables(name, flavor):
    # the oracle writes each identity out from the plain patched table; both
    # the reduced solve and the full system must give its kernel
    a = build_algebra(ORACLE_GRAPHS[name])
    for patch in PATCHES[name]:
        b = with_patched_table(a, *patch)
        rows = leibniz_rows(patched_table(name, patch), flavor)
        reference = span_canonical_basis(sparse_vectors(dense_nullspace(rows, b.dim * b.dim)), RATIONALS)
        assert solve(b, flavor).rows == reference, patch
        full = span_canonical_basis(nullspace_basis(leibniz_system(b, flavor), b.dim * b.dim), RATIONALS)
        assert full == reference, patch


def test_verify_map_agrees_with_literal_identity_on_jordan_maps_that_are_no_derivations():
    # on patched edge tables some maps of the literal jordan kernel are no
    # derivations, so the jordan audit must sum the identity at (q, r) and
    # (r, q) into one equation, not check each as a derivation equation
    a = build_algebra(ORACLE_GRAPHS["edge"])
    no_derivations = 0
    for patch in PATCHES["edge"]:
        b = with_patched_table(a, *patch)
        table = patched_table("edge", patch)
        for m in sparse_vectors(dense_nullspace(leibniz_rows(table, "jordan"), b.dim * b.dim)):
            for flavor in FLAVORS:
                assert verify_map(b, m, flavor) == verify_literal(table, m, flavor), (patch, flavor, m)
            no_derivations += not verify_literal(table, m, "derivation")
    assert no_derivations


PREMISE_CASES = {
    **{f"{name}-{k}": (ORACLE_GRAPHS[name], patch) for name, patches in PATCHES.items() for k, patch in enumerate(patches)},
    **{name: (g, None) for name, g in WIDE_GRAPHS.items()},
    **{f"tree{n}-12345": (random_tree(n, 12345), None) for n in (20, 24)},
}


@pytest.mark.parametrize("spec", ["rat", "gf:3", "gf:101"])
def test_derivations_lie_in_the_jordan_space_and_are_read_off_it(spec):
    # Der inside JDer holds for any bilinear product, the patched tables'
    # non-associative ones too; derivation_space takes JDer's canonical
    # rows exactly where every JDer map passes the derivation audit, which
    # some patched edge tables' JDer maps fail, and solves Der otherwise
    field = parse_field(spec)
    solved = set()
    for name, (g, patch) in PREMISE_CASES.items():
        a = build_algebra(g, field)
        b = a if patch is None else with_patched_table(a, *patch)
        jordan, der = solve(b, "jordan"), solve(b, "derivation")
        assert jordan.contains(der.ints), name
        space = derivation_space(b, jordan)
        assert (space.flavor, space.ints) == ("derivation", der.ints), name
        if space.ints is not jordan.ints:
            assert jordan.dimension > der.dimension, name
            solved.add(name)
    assert all(name.startswith(tuple(PATCHES)) for name in solved), solved
    assert any(name.startswith("edge-") for name in solved)


def count_solves_and_audits(monkeypatch, solve_modules):
    """Counters of the flavors ``solve``, patched in each of
    ``solve_modules``, and ``linmaps.verify_map`` are called with."""
    solves, audits = Counter(), Counter()

    def counting_solve(a, flavor):
        solves[flavor] += 1
        return solve(a, flavor)

    def counting_verify(a, lin, flavor):
        audits[flavor] += 1
        return verify_map(a, lin, flavor)

    for module in solve_modules:
        monkeypatch.setattr(module, "solve", counting_solve)
    monkeypatch.setattr(linmaps, "verify_map", counting_verify)
    return solves, audits


@pytest.mark.parametrize("spec", ["rat", "gf:3", "gf:101", "gf:2"])
def test_analyze_graph_solves_derivations_only_without_jordan(monkeypatch, spec):
    # with JDer solved, Der and Anti come from its audited basis: no literal
    # derivation or anti solve, and each basis map of every reported space walked
    # once, under an identity at least as strong as its flavor's (JDer's
    # under the derivation one, which implies the jordan one)
    solves, audits = count_solves_and_audits(monkeypatch, (linmaps, analysis))
    literal = spec == "gf:2"
    graphs = [random_tree(9, 909), random_tree(6, 3), path_graph(4), WIDE_GRAPHS["cycle3"]]
    graphs += [OFF_TREE_GRAPHS[name] for name in ("cycle5", "K4", "K5")]
    for g in graphs:
        solves.clear()
        audits.clear()
        report, _ = analyze_graph(g, parse_field(spec))
        assert solves == Counter(derivation=int(literal), jordan=int(not literal), anti=int(literal)), g
        assert audits["jordan"] == 0, g
        walked = report.dim_der if literal else report.dim_jordan
        assert audits == Counter(derivation=walked, anti=report.dim_anti), g


def test_patched_tables_give_multi_entry_outer_rows():
    # a product b_p hit by two u in a column (b_u b_y = b_p) or in a row
    # (b_y b_u = b_p) gives a multi-entry outer row right[y][p] or left[y][p]
    # of the generator, which a built algebra never has
    column_hits = row_hits = 0
    for name, patches in PATCHES.items():
        for patch in patches:
            products = with_patched_table(build_algebra(ORACLE_GRAPHS[name]), *patch).products
            column_hits += max(Counter((y, p) for (_, y), p in products.items()).values()) > 1
            row_hits += max(Counter((y, p) for (y, _), p in products.items()).values()) > 1
    assert column_hits and row_hits


OFF_TREE_GRAPHS = {
    "cycle5": Graph(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})),
    "K4": Graph(4, frozenset((i, j) for i in range(1, 5) for j in range(i + 1, 5))),
    "K5": Graph(5, frozenset((i, j) for i in range(1, 6) for j in range(i + 1, 6))),
    # three paths of lengths 1, 2 and 3 between vertices 1 and 2
    "theta": Graph(5, frozenset({(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (2, 5)})),
    "star6": star_graph(6),
}


@pytest.mark.parametrize("spec", ["rat", "gf:2", "gf:3", "gf:101"])
@pytest.mark.parametrize("name", sorted(OFF_TREE_GRAPHS))
def test_reduced_solve_equals_full_system_kernel_off_trees(name, spec):
    # solve eliminates only the columns no single-entry row forces; its rows
    # must be the canonical kernel of the full dim^2 system, which
    # leibniz_system must give in value, type and order
    field = parse_field(spec)
    a = build_algebra(OFF_TREE_GRAPHS[name], field)
    for flavor in FLAVORS:
        if flavor == "jordan" and field.characteristic == 2:
            continue
        system = oracle_system(a, flavor)
        assert repr(leibniz_system(a, flavor)) == repr(system), flavor
        full = nullspace_basis(system, a.dim * a.dim, field)
        assert solve(a, flavor).rows == span_canonical_basis(full, field), flavor


def chained_patches(a, seed):
    """A seeded chain of patches on ``a``: every product of one element u
    vanishes, every product landing on one element s is moved to -1 or to
    another element, then two random patches follow."""
    rng = random.Random(seed)
    u, s = rng.randrange(a.dim), rng.randrange(a.dim)
    for x, y in list(a.products):
        if u in (x, y):
            a = with_patched_table(a, x, y, -1)
    for (x, y), p in list(a.products.items()):
        if p == s:
            a = with_patched_table(a, x, y, rng.choice([-1, (s + 1) % a.dim]))
    for _ in range(2):
        a = with_patched_table(a, rng.randrange(a.dim), rng.randrange(a.dim), rng.randrange(-1, a.dim))
    return a


CHAINED = {name: [f"{name}-{k}" for k in range(5)] for name in ("edge", "path3")}


def assert_live_columns_match_full_system(a, flavor):
    # the pool, less the columns with a {j: 1} row in the full system, is
    # every column without one, and the reduced solve gives the full
    # system's kernel
    system = oracle_system(a, flavor)
    forced = {j for row in system for j in row if row == {j: a.field.one}}
    pool, _ = _leibniz_equations(a, flavor)
    live = [j for j in pool if j not in forced]
    assert live == [j for j in range(a.dim * a.dim) if j not in forced], flavor
    full = nullspace_basis(system, a.dim * a.dim, a.field)
    assert solve(a, flavor).rows == span_canonical_basis(full, a.field), flavor


POOL_TREES = {f"tree{n}-{s}": random_tree(n, 2000 * s + n) for n in range(2, 12) for s in range(1, 5)}


@pytest.mark.parametrize("spec", ["rat", "gf:3"])
def test_the_jordan_pool_keeps_no_more_forced_columns_than_derivation(spec):
    # a one-entry outer row of jordan meets itself at (y, y, p), doubled, and
    # with no inner term there forces its column, so the pool drops it: the
    # columns with a {j: 1} row in the full system that jordan's pool keeps
    # are no more than derivation's
    field = parse_field(spec)
    excess = {}
    for name, g in {**POOL_TREES, **OFF_TREE_GRAPHS}.items():
        a = build_algebra(g, field)
        for flavor in ("derivation", "jordan"):
            rows = sparse_leibniz_system(a.dim, a.products, flavor, field.characteristic)
            forced = {j for row in rows for j in row if row == {j: field.one}}
            excess[name, flavor] = len(forced.intersection(_leibniz_equations(a, flavor)[0]))
        assert excess[name, "jordan"] <= excess[name, "derivation"], (name, excess)


@pytest.mark.parametrize("spec", ["rat", "gf:3"])
@pytest.mark.parametrize("name", sorted(CHAINED))
def test_live_columns_match_full_system_on_patched_tables(name, spec):
    base = build_algebra(ORACLE_GRAPHS[name], parse_field(spec))
    cases = [with_patched_table(base, *patch) for patch in PATCHES[name]]
    cases += [chained_patches(base, seed) for seed in CHAINED[name]]
    for a in cases:
        for flavor in FLAVORS:
            assert_live_columns_match_full_system(a, flavor)


def test_chained_patches_reach_both_fallbacks():
    # read off the plain derivation table: an element in no one-entry outer
    # row (right[y][p] = {u: b_u b_y = b_p}, left[y][p] = {u: b_y b_u = b_p})
    # keeps every column of its row of X, and an element that is no product
    # (no single inner term) every row of its column
    no_row = no_col = 0
    for name, seeds in CHAINED.items():
        for seed in seeds:
            table = dense_table(chained_patches(build_algebra(ORACLE_GRAPHS[name]), seed))
            dim = len(table)
            singles = set()
            for y in range(dim):
                for p in range(dim):
                    for us in ([u for u in range(dim) if table[u][y] == p], [u for u in range(dim) if table[y][u] == p]):
                        if len(us) == 1:
                            singles.update(us)
            no_row += len(singles) < dim
            no_col += len({s for row in table for s in row} - {-1}) < dim
    assert no_row and no_col


@pytest.mark.parametrize("spec", ["rat", "gf:2", "gf:3", "gf:101"])
@pytest.mark.parametrize("name", sorted(OFF_TREE_GRAPHS))
def test_live_columns_match_full_system_off_trees(name, spec):
    a = build_algebra(OFF_TREE_GRAPHS[name], parse_field(spec))
    for flavor in FLAVORS:
        if flavor != "jordan" or a.field.characteristic != 2:
            assert_live_columns_match_full_system(a, flavor)


CROSS_GRAPHS = {"tree6": random_tree(6, 7), "cycle4": REFERENCE_GRAPHS["cycle4"], "star5": star_graph(5)}


@pytest.mark.parametrize("spec", ["rat", "gf:3", "gf:2"])
@pytest.mark.parametrize("name", sorted(CROSS_GRAPHS))
def test_solve_and_leibniz_system_match_the_oracle_on_patched_tables(name, spec):
    # the literal dense oracle reaches only the edge and the 3-path; here the
    # sparse oracle, written from the products alone, checks the pool's
    # single-entry families and the generated rows on larger patched tables
    base = build_algebra(CROSS_GRAPHS[name], parse_field(spec))
    cases = [with_patched_table(base, *patch) for patch in seeded_patches(base, 3, name)]
    cases += [chained_patches(base, f"{name}-{k}") for k in range(2)]
    for b in cases:
        for flavor in FLAVORS:
            if flavor == "jordan" and b.field.characteristic == 2:
                continue
            system = oracle_system(b, flavor)
            assert leibniz_system(b, flavor) == system, flavor
            assert solve(b, flavor).rows == span_canonical_basis(nullspace_basis(system, b.dim * b.dim, b.field), b.field), flavor


@pytest.mark.parametrize("spec", ["rat", "gf:2", "gf:3", "gf:101"])
def test_center_is_canonical_and_matches_the_literal_commutator_kernel(spec):
    # the wide-digest algebras, then patched ones, most of whose centers are
    # not span{1, c_i}: over the rationals the rows are the dense oracle's
    # kernel, canonicalised; in every field the ints are canonical and central
    field = parse_field(spec)
    cases = [build_algebra(g, field) for g in WIDE_GRAPHS.values()]
    for name, g in {**ORACLE_GRAPHS, **CROSS_GRAPHS, **OFF_TREE_GRAPHS}.items():
        base = build_algebra(g, field)
        cases += [with_patched_table(base, *patch) for patch in seeded_patches(base, 3, name)]
        cases += [chained_patches(base, f"{name}-{k}") for k in range(2)]
    other = 0
    for b in cases:
        cen = center(b)
        assert (cen.flavor, cen.dimension) == ("center", len(cen.ints))
        assert cen.ints == exactlin._canonical(field, exactlin._eliminate(field, exactlin._int_rows(field, cen.ints)))
        for row in cen.ints:
            assert all(multiply(b, row, {k: 1}) == multiply(b, {k: 1}, row) for k in range(b.dim))
        if not field.characteristic:
            literal = sparse_vectors(center_literal(dense_table(b)))
            assert cen.rows == span_canonical_basis(literal, RATIONALS)
        other += cen.ints != [dict.fromkeys(range(b.graph.n), 1)] + [{c: 1} for c in b.c_at.values()]
    assert other >= 20


@pytest.mark.parametrize("name", sorted(CHAINED))
def test_inner_space_matches_literal_commutators_on_patched_tables(name):
    base = build_algebra(ORACLE_GRAPHS[name])
    cases = [with_patched_table(base, *patch) for patch in PATCHES[name]]
    cases += [chained_patches(base, seed) for seed in CHAINED[name]]
    for a in cases:
        table = dense_table(a)
        literal = [{j: Fraction(c) for j, c in commutator_literal(table, k).items()} for k in range(a.dim)]
        for k, entries in enumerate(literal):
            assert ad_map(a, k) == entries, k
        assert inner_space(a).rows == span_canonical_basis(literal, RATIONALS)


AUDIT_GRAPHS = {"path3": path_graph(3), "star5": star_graph(5), "cycle4": REFERENCE_GRAPHS["cycle4"]}


@pytest.mark.parametrize("name", sorted(AUDIT_GRAPHS))
def test_integer_audit_agrees_with_literal_identity_on_mixed_denominators(name):
    # the audit clears denominators before it sums; the maps mix 1/2, 1/3 and
    # 1/6, and each is audited under every flavor
    a = build_algebra(AUDIT_GRAPHS[name])
    table = dense_table(a)
    rng = random.Random(name)
    rows = solve(a, "derivation").rows
    third, half, sixth = Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)
    maps = [{j: v * third for j, v in row.items()} for row in rows]
    for _ in range(4):
        r1, r2 = rng.sample(rows, 2)
        mixed = {j: r1.get(j, 0) * half + r2.get(j, 0) * third for j in {*r1, *r2}}
        mixed = {j: v for j, v in mixed.items() if v}
        bumped = dict(mixed)
        j = rng.choice([rng.randrange(a.dim * a.dim), *mixed])
        bumped[j] = bumped.get(j, 0) + sixth
        maps += [mixed, {j: v for j, v in bumped.items() if v}]
    assert any(len({v.denominator for v in m.values()}) > 1 for m in maps)
    verdicts = set()
    for flavor in FLAVORS:
        for m in maps:
            ok = verify_map(a, m, flavor)
            assert ok == verify_literal(table, m, flavor), (flavor, m)
            verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("name", sorted(AUDIT_GRAPHS))
def test_integer_audit_reduces_mod_p(name, p):
    # over GF(p) the audit sums residues as plain ints; a map whose identity
    # holds mod p but not over the integers makes some coordinate reach a
    # nonzero multiple of p, which must still count as zero
    field = PrimeField(p)
    a = build_algebra(AUDIT_GRAPHS[name], field)
    table = dense_table(a)
    rng = random.Random(f"{name}-{p}")
    rows = solve(a, "derivation").rows
    maps = [{j: field.convert(v * (p - 1)) for j, v in row.items()} for row in rows]
    for _ in range(6):
        r1, r2 = rng.sample(rows, 2)
        c1, c2 = rng.randrange(1, p), rng.randrange(1, p)
        mixed = {j: field.convert(c1 * r1.get(j, 0) + c2 * r2.get(j, 0)) for j in {*r1, *r2}}
        maps.append({j: v for j, v in mixed.items() if v})
        bumped = dict(maps[-1])
        j = rng.randrange(a.dim * a.dim)
        bumped[j] = field.convert(bumped.get(j, 0) + 1)
        maps.append({j: v for j, v in bumped.items() if v})
    wraps = verdicts = 0
    for flavor in FLAVORS:
        for m in maps:
            ok = verify_map(a, m, flavor)
            assert ok == verify_literal(table, m, flavor, p), (flavor, m)
            wraps += ok and not verify_literal(table, m, flavor)
            verdicts += ok
    assert wraps and verdicts < 3 * len(maps)


def test_a_hub_costs_no_more_row_work_than_a_random_tree(monkeypatch):
    # row work as a count that does not depend on wall time: the pivot-row
    # entries each stage's reductions apply on star_graph(400) stay within
    # twice those on a random tree of the same size (a hub once made them
    # O(degree^2)); the derivation rows fed twice each in emission order, as
    # solve feeds them and the eliminator keeps no dedupe pass, stay within
    # that bound too.  The spans need their rows sorted by support here
    # (taken as generated, inner_space's 399 entries on the star become
    # 238,602), the kernels of the emitted systems do not
    calls = Counter()
    reduce = exactlin._reduce

    def counting(row, c, pivot, p):
        calls["entries"] += len(pivot) - 1
        reduce(row, c, pivot, p)

    monkeypatch.setattr(exactlin, "_reduce", counting)
    stages = {
        "center": center,
        "derivation": lambda a: solve(a, "derivation"),
        "jordan": lambda a: solve(a, "jordan"),
        "structured": structured_space,
        "inner": inner_space,
        "derivation rows twice": lambda a: exactlin._eliminate(
            a.field, [dict(r) for r in _leibniz_equations(a, "derivation")[1] for _ in range(2)], by_support=False
        ),
    }
    work = {}
    for graph, g in (("star", star_graph(400)), ("tree", random_tree(400, 12345))):
        a = build_algebra(g)
        for stage, run in stages.items():
            before = calls["entries"]
            run(a)
            work[graph, stage] = calls["entries"] - before
    for stage in stages:
        assert 0 < work["star", stage] <= 2 * work["tree", stage], (stage, work)


class CountingSet:
    """A read-only set (or dict keys) that counts each element visited,
    by iteration or by a membership test."""

    def __init__(self, items, calls):
        self.items, self.calls = items, calls

    def __len__(self):
        return len(self.items)

    def __contains__(self, k):
        self.calls["visits"] += 1
        return k in self.items

    def __iter__(self):
        for k in self.items:
            self.calls["visits"] += 1
            yield k


def test_common_is_the_intersection_of_the_family_unions():
    # an unknown stays in the pool only if it is an exception of every one
    # of its families: _common must give the plain intersection of each
    # family's union, in whatever order the families come
    rng = random.Random(23)
    assert linmaps._common([]) is None
    for _ in range(200):
        fams = [tuple({rng.randrange(12) for _ in range(rng.randrange(6))} for _ in "ef") for _ in range(rng.randrange(1, 5))]
        assert linmaps._common(fams) == set.intersection(*({*e, *f} for e, f in fams)), fams


def test_a_hub_costs_the_family_intersection_no_more_visits(monkeypatch):
    # the elements the single-entry families' intersection visits on
    # star_graph(400) stay within twice those on a random tree of the same
    # size, per flavor; a union per family would make them O(degree^2)
    calls = Counter()
    common = linmaps._common
    monkeypatch.setattr(
        linmaps, "_common", lambda fams: common([tuple(CountingSet(s, calls) for s in f) for f in fams])
    )
    work = {}
    for flavor in FLAVORS:
        for graph, g in (("star", star_graph(400)), ("tree", random_tree(400, 12345))):
            a = build_algebra(g)
            before = calls["visits"]
            linmaps._leibniz_equations(a, flavor)
            work[flavor, graph] = calls["visits"] - before
        assert 0 < work[flavor, "star"] <= 2 * work[flavor, "tree"], (flavor, work)
    # jordan's families of (q, r) and (r, q) are one, read once
    for graph in ("star", "tree"):
        assert work["jordan", graph] <= 1.5 * work["derivation", graph], (graph, work)


class CountingDict(dict):
    """A dict that counts its lookups by ``get``, ``[]`` and ``in``."""

    def __init__(self, items, calls):
        super().__init__(items)
        self.calls = calls

    def get(self, k, default=None):
        self.calls["lookups"] += 1
        return super().get(k, default)

    def __getitem__(self, k):
        self.calls["lookups"] += 1
        return super().__getitem__(k)

    def __contains__(self, k):
        self.calls["lookups"] += 1
        return super().__contains__(k)


def test_a_hub_costs_the_structured_route_no_more_additions(monkeypatch):
    # structured_space and inner_space span int maps, so over the rationals
    # they make no Fraction (1,086 and 390 on this tree when structured_space
    # materialized Fraction parameters and both canonicalized in the field)
    a = build_algebra(random_tree(40, 12345))
    with counting_fractions() as made:
        structured_space(a)
        inner_space(a)
    assert made["fractions"] == 0, made
    # the d parameters the cycle-consistency sums of structured_space look
    # up on star_graph(400), each term of each sum, stay within twice those
    # on a random tree of the same size; the check once walked every
    # neighbor of each vertex a map touches
    calls = Counter()
    basis = linmaps.structured_parameter_basis
    monkeypatch.setattr(
        linmaps, "structured_parameter_basis", lambda b: [(t, CountingDict(d, calls)) for t, d in basis(b)]
    )
    work = {}
    for graph, g in (("star", star_graph(400)), ("tree", random_tree(400, 12345))):
        before = calls["lookups"]
        structured_space(build_algebra(g))
        work[graph] = calls["lookups"] - before
    assert 0 < work["star"] <= 2 * work["tree"], work


@pytest.mark.parametrize("spec", ["rat", "gf:3"])
def test_center_and_the_parameter_basis_eliminate_their_own_int_rows(monkeypatch, spec):
    # their rows are ints already, so like solve they go straight to the
    # elimination: no _int_rows to validate them, no rescaling by _int_row;
    # so do the structured and inner spans, whose int maps the package builds
    calls = Counter()
    int_rows, int_row = exactlin._int_rows, exactlin._int_row

    def counting_int_rows(*args):
        calls["_int_rows"] += 1
        return int_rows(*args)

    def counting_int_row(row):
        calls["_int_row"] += 1
        return int_row(row)

    monkeypatch.setattr(exactlin, "_int_rows", counting_int_rows)
    for module in (exactlin, linmaps):
        monkeypatch.setattr(module, "_int_row", counting_int_row)
    for g in (random_tree(40, 12345), star_graph(40)):
        a = build_algebra(g, parse_field(spec))
        assert center(a).dimension == g.n + 1
        assert len(structured_parameter_basis(a)) == 3 * g.n - 2
        assert structured_space(a).dimension == 3 * g.n - 2
        assert inner_space(a).dimension == 3 * g.n - 3
    assert not calls, calls


def test_solve_makes_at_most_one_fraction_per_kernel_entry(monkeypatch):
    # the kernel is read off the integer pivot rows: exactlin constructs a
    # Fraction only for a returned off-pivot entry, none for a pivot entry
    # or a negation (reading them off the RREF made 820 for 546 entries)
    made = Counter()

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            made["fractions"] += 1
            return super().__new__(cls, *args)

    monkeypatch.setattr(exactlin, "Fraction", CountingFraction)
    a = build_algebra(random_tree(40, 12345))
    for flavor in FLAVORS:
        made.clear()
        entries = sum(map(len, solve(a, flavor).rows))
        assert made["fractions"] <= entries, (flavor, made, entries)


@contextmanager
def counting_fractions():
    """Counts every ``Fraction`` constructed inside the block, anywhere."""
    made = Counter()
    new = vars(Fraction)["__new__"]

    def counting(cls, *args, **kwargs):
        made["fractions"] += 1
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield made
    finally:
        Fraction.__new__ = new


def test_solve_and_the_relation_checks_make_no_fraction():
    # the kernels, Der's membership test and the three relations of
    # analyze_graph stay in ints; Fractions are made when rows is read,
    # with the values, types and dict order of the canonical RREF rows
    a = build_algebra(random_tree(12, 5))
    structured = [materialize(a, t, d) for t, d in structured_parameter_basis(a)]
    inner = [ad_map(a, k) for k in range(a.dim)]
    with counting_fractions() as made:
        spaces = {flavor: solve(a, flavor) for flavor in FLAVORS}
        der = spaces["derivation"]
        assert spaces["jordan"].ints == der.ints
        assert span_dim(structured) == der.dimension and der.contains(structured)
        assert der.contains(inner)
    assert made["fractions"] == 0
    for space in spaces.values():
        rows = space.rows
        assert rows == span_canonical_basis(rows)
        for row in rows:
            lead = min(row)
            assert list(row) == [lead, *sorted(set(row) - {lead}, reverse=True)]
            assert row[lead] == 1 and all(type(x) is Fraction for x in row.values())
    for space, maps in ((structured_space(a), structured), (inner_space(a), inner)):
        basis = span_canonical_basis(maps)
        assert [list(r.items()) for r in space.rows] == [list(r.items()) for r in basis]
        assert all(type(x) is Fraction for r in space.rows for x in r.values())
    # analyze makes no Fraction at all (39 with the center's Fraction rows,
    # 737 with Fraction generators, 891 with field.neg and field.add, 2,843
    # with Fraction canonical bases)
    with counting_fractions() as made:
        analyze_graph(random_tree(40, 12345))
    assert made["fractions"] == 0, made


INT_ROUTE_GRAPHS = {**{f"tree{n}": random_tree(n, 3000 + n) for n in range(2, 13)}, "star7": star_graph(7)}


def int_values(maps, field) -> bool:
    """Whether every value is an int, in 1..p-1 over GF(p)."""
    p = field.characteristic
    return all(type(v) is int and (0 < v < p if p else v) for m in maps for v in m.values())


@pytest.mark.parametrize("spec", ["rat", "gf:3", "gf:101"])
def test_int_structured_generators_span_the_materialized_parameter_basis(spec):
    # each int generator is a nonzero multiple of the map materialize makes
    # of the parameter vector in its place, so the two span one space
    field = parse_field(spec)
    p = field.characteristic
    for name, g in INT_ROUTE_GRAPHS.items():
        a = build_algebra(g, field)
        ints = structured_generators(a)
        maps = [materialize(a, t, d) for t, d in structured_parameter_basis(a)]
        assert len(ints) == len(maps) == 3 * g.n - 2 and int_values(ints, field), name
        for m, f in zip(ints, maps):
            j = min(f)
            c = m[j] * pow(f[j], -1, p) % p if p else m[j] / f[j]
            assert m == {i: c * v % p if p else c * v for i, v in f.items()}, name
        assert span_canonical_basis(ints, field) == span_canonical_basis(maps, field), name


def int_route_tables(field) -> dict:
    """The algebras of ``INT_ROUTE_GRAPHS``, C4 and K4, and the PATCHES and
    CHAINED tables, over ``field``."""
    graphs = {**INT_ROUTE_GRAPHS, "cycle4": REFERENCE_GRAPHS["cycle4"], "K4": OFF_TREE_GRAPHS["K4"]}
    cases = {name: build_algebra(g, field) for name, g in graphs.items()}
    for name in CHAINED:
        base = build_algebra(ORACLE_GRAPHS[name], field)
        cases |= {f"{name}-patch{k}": with_patched_table(base, *patch) for k, patch in enumerate(PATCHES[name])}
        cases |= {seed: chained_patches(base, seed) for seed in CHAINED[name]}
    return cases


@pytest.mark.parametrize("spec", ["rat", "gf:3", "gf:101"])
def test_int_ad_maps_span_the_field_valued_commutators(spec):
    # ad_map's ints are the literal commutator's coefficients converted into
    # the field, entry for entry, so they span what the field values span
    field = parse_field(spec)
    for name, a in int_route_tables(field).items():
        table = dense_table(a)
        literal = [{j: c for j, v in commutator_literal(table, k).items() if (c := field.convert(v))} for k in range(a.dim)]
        ints = [ad_map(a, k) for k in range(a.dim)]
        assert ints == literal and int_values(ints, field), name
        assert span_canonical_basis(ints, field) == span_canonical_basis(literal, field), name


@pytest.mark.parametrize("relation", ["jordan", "structured", "inner"])
def test_a_relation_is_more_than_a_dimension(monkeypatch, relation):
    # the relation's maps go through v -> v + v[j] E, E a coordinate that
    # no derivation and none of the maps uses: injective, so their span keeps
    # its dimension, and it leaves Der; analyze_graph must see that
    a = build_algebra(random_tree(6, 3))
    e = a.e_at[1]
    E = e * a.dim + e
    real = {"solve": analysis.solve, "structured_generators": linmaps.structured_generators, "ad_map": analysis.ad_map}
    maps = {
        "jordan": real["solve"](a, "derivation").ints,
        "structured": real["structured_generators"](a),
        "inner": [real["ad_map"](a, k) for k in range(a.dim)],
    }[relation]
    j = min(j for m in maps for j in m)
    assert all(E not in m for m in maps) and not solve(a, "derivation").contains([{E: 1}])

    def skew(m):
        return m | {E: m[j]} if j in m else m

    assert span_dim([skew(m) for m in maps]) == span_dim(maps)
    if relation == "jordan":
        skewed = exactlin._canonical(a.field, exactlin._eliminate(a.field, [skew(m) for m in maps]))
        monkeypatch.setattr(
            analysis, "solve", lambda b, f: MapSpace(f, b.field, skewed) if f == "jordan" else real["solve"](b, f)
        )
        report, _ = analyze_graph(random_tree(6, 3))
        assert report.dim_jordan == report.dim_der and report.formula_checks["jordan_eq_der"] == "fail"
    elif relation == "structured":
        monkeypatch.setattr(linmaps, "structured_generators", lambda b: [skew(m) for m in real["structured_generators"](b)])
        report, _ = analyze_graph(random_tree(6, 3))
        assert report.formula_checks["structured_eq_solver"] == "fail"
    else:
        monkeypatch.setattr(analysis, "ad_map", lambda b, k: skew(real["ad_map"](b, k)))
        with pytest.raises(InternalInvariantError, match="inside"):
            analyze_graph(random_tree(6, 3))


class CountingList(list):
    """A list that counts the entries its iterations walk."""

    def __init__(self, items, calls):
        super().__init__(items)
        self.calls = calls

    def __iter__(self):
        for item in super().__iter__():
            self.calls["entries"] += 1
            yield item


def audit_walks(a, rows, flavor):
    """The entries of ``factors``, ``left_products`` and ``right_products``
    that auditing ``rows`` under ``flavor`` walks, all audits passing."""
    calls = Counter()
    counted = copy.copy(a)
    for name in ("factors", "left_products", "right_products"):
        setattr(counted, name, [CountingList(g, calls) for g in getattr(a, name)])
    assert all(verify_map(counted, row, flavor) for row in rows)
    return calls["entries"]


@pytest.mark.parametrize("graph", ["tree", "star"])
def test_the_jordan_audit_visits_each_pair_once(graph):
    # jordan's equations at (q, r) and (r, q) are the same, so its audit
    # folds each key to (min, max) and walks what the derivation audit does
    # (visiting both orders once cost it twice the derivation audit)
    g = random_tree(40, 12345) if graph == "tree" else star_graph(40)
    a = build_algebra(g)
    rows = solve(a, "derivation").rows
    walks = {flavor: audit_walks(a, rows, flavor) for flavor in ("derivation", "jordan")}
    assert 0 < walks["jordan"] <= 1.25 * walks["derivation"], walks


def test_a_hub_costs_the_audit_no_more_entries():
    # the entries the derivation audit walks on star_graph(400) stay within
    # twice those on a random tree of the same size: each map entry walks
    # only the products its own basis elements meet
    work = {}
    for graph, g in (("star", star_graph(400)), ("tree", random_tree(400, 12345))):
        a = build_algebra(g)
        work[graph] = audit_walks(a, solve(a, "derivation").rows, "derivation")
    assert 0 < work["star"] <= 2 * work["tree"], work


@pytest.mark.parametrize("flavor", FLAVORS)
def test_the_audit_catches_a_dropped_equation(monkeypatch, flavor):
    # a generator that loses one equation: every drop that enlarges the
    # kernel, seen with the audit stubbed out, makes solve raise, since the
    # audit reads the identity off the product groupings, not the equations
    a = build_algebra(random_tree(6, 7))
    pool, eqs = _leibniz_equations(a, flavor)
    dimension = solve(a, flavor).dimension
    verify = linmaps.verify_map
    enlarging = 0
    for k in range(len(eqs)):
        monkeypatch.setattr(linmaps, "_leibniz_equations", lambda *_: (pool, eqs[:k] + eqs[k + 1 :]))
        monkeypatch.setattr(linmaps, "verify_map", lambda *_: True)
        if solve(a, flavor).dimension > dimension:
            enlarging += 1
            monkeypatch.setattr(linmaps, "verify_map", verify)
            with pytest.raises(InternalInvariantError):
                solve(a, flavor)
    assert enlarging > 0, flavor


# an edge table with an anti map that is no derivation
ANTI_CHAIN = ((1, 5, -1), (3, 0, 1))
# (graph, patches): the built oracle graphs, the PATCHES and ANTI_CHAIN
# tables, and the CHAINED ones, named by their seed
PATCHES_TABLES = [(name, (patch,)) for name, patches in PATCHES.items() for patch in patches]
LEMMA_TABLES = [(name, ()) for name in ORACLE_GRAPHS] + PATCHES_TABLES + [("edge", ANTI_CHAIN)]
LEMMA_TABLES += [(name, seed) for name, seeds in CHAINED.items() for seed in seeds]
LEMMA_SPECS = ["rat", "gf:3", "gf:101"]


@lru_cache(maxsize=None)
def lemma_table(name, patches, spec):
    """The algebra of a LEMMA_TABLES entry over ``spec``, and the solved int
    rows of each flavor on it."""
    a = build_algebra(ORACLE_GRAPHS[name], parse_field(spec))
    if isinstance(patches, str):
        a = chained_patches(a, patches)
    else:
        for patch in patches:
            a = with_patched_table(a, *patch)
    return a, {flavor: solve(a, flavor).ints for flavor in FLAVORS}


COEFFICIENTS = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def lemma_maps(draw):
    """A LEMMA_TABLES algebra and a sparse map on it with int and Fraction
    entries in its field (over GF(p) no denominator p divides): a
    combination of one flavor's solved rows plus a few random entries, so
    that each walk passes on some draws and fails on others."""
    a, spaces = lemma_table(*draw(st.sampled_from(LEMMA_TABLES)), draw(st.sampled_from(LEMMA_SPECS)))
    p = a.field.characteristic
    coefficients = COEFFICIENTS.filter(lambda x: x.denominator % p) if p else COEFFICIENTS
    lin = defaultdict(int)
    for row in spaces[draw(st.sampled_from(FLAVORS))]:
        c = draw(coefficients)
        for j, v in row.items():
            lin[j] += c * v
    for j, v in draw(st.dictionaries(st.integers(0, a.dim * a.dim - 1), coefficients, max_size=2)).items():
        lin[j] += v
    return a, {j: v for j, v in lin.items() if v}


@settings(max_examples=300, deadline=None)
@given(lemma_maps())
def test_a_map_passing_the_derivation_or_anti_walk_passes_the_jordan_one(case):
    # each folded jordan sum of verify_map at (q, r, p) is the derivation
    # (and the anti) sum there plus the one at (r, q, p), and at (q, q) that
    # sum itself, so solve may walk a jordan row as a derivation alone
    a, lin = case
    jordan = verify_map(a, lin, "jordan")
    for flavor in ("derivation", "anti"):
        assert jordan or not verify_map(a, lin, flavor), flavor


@pytest.mark.parametrize("spec", LEMMA_SPECS)
def test_the_jordan_walk_is_strictly_weaker(spec):
    # the implications above are no equivalences: some PATCHES JDer map and
    # the ANTI_CHAIN anti map pass the jordan walk but not the derivation one
    witnesses = set()
    for name, patches in LEMMA_TABLES:
        a, spaces = lemma_table(name, patches, spec)
        for flavor in ("jordan", "anti"):
            for row in spaces[flavor]:
                if verify_map(a, row, "jordan") and not verify_map(a, row, "derivation"):
                    witnesses.add((flavor, "PATCHES" if (name, patches) in PATCHES_TABLES else patches))
    assert ("jordan", "PATCHES") in witnesses and ("anti", ANTI_CHAIN) in witnesses, witnesses


@pytest.mark.parametrize("spec", LEMMA_SPECS)
def test_a_jordan_map_that_is_no_derivation_gets_one_more_walk(monkeypatch, spec):
    # on the PATCHES and CHAINED tables whose JDer maps fail the derivation
    # walk, solve walks each failing row once more, as a jordan map, and
    # records the failure; derivation_space then solves Der from its own
    # system without walking JDer again, as it does for a JDer space that
    # solve did not audit, whose maps it never walks
    solves, audits = count_solves_and_audits(monkeypatch, (linmaps,))
    field = parse_field(spec)
    tables = [with_patched_table(build_algebra(EDGE, field), *patch) for patch in PATCHES["edge"]]
    tables += [chained_patches(build_algebra(ORACLE_GRAPHS[name], field), seed) for name, seeds in CHAINED.items() for seed in seeds]
    failing_tables = 0
    for b in tables:
        audits.clear()
        jordan = solve(b, "jordan")  # the unpatched name, whose audit is counted
        failing = [k for k, row in enumerate(jordan.ints) if not verify_map(b, row, "derivation")]
        assert audits == Counter(derivation=jordan.dimension, jordan=len(failing))
        assert jordan.derivations is (not failing)
        der = solve(b, "derivation")
        unaudited = MapSpace("jordan", field, jordan.ints)
        assert not der.derivations and not unaudited.derivations
        for space in (jordan, unaudited):
            audits.clear()
            solves.clear()
            got = derivation_space(b, space)
            if failing or space is unaudited:
                assert solves == Counter(derivation=1) and got.ints == der.ints
                assert audits == Counter(derivation=der.dimension)
            else:
                assert not solves and got.ints is jordan.ints
                assert not audits
        failing_tables += bool(failing)
    assert failing_tables == 3, failing_tables


def random_patched(a, seed):
    """``a`` with one to three seeded random patches of its table."""
    rng = random.Random(seed)
    for _ in range(rng.randrange(1, 4)):
        a = with_patched_table(a, rng.randrange(a.dim), rng.randrange(a.dim), rng.randrange(-1, a.dim))
    return a


def anti_route_cases(field):
    """The algebras of the POOL_TREES, OFF_TREE_GRAPHS and ORACLE_GRAPHS over
    ``field``, their PATCHES and CHAINED tables, and four seeded random
    patches of each table up to dimension 30."""
    for name, g in {**POOL_TREES, **OFF_TREE_GRAPHS, **ORACLE_GRAPHS}.items():
        a = build_algebra(g, field)
        yield a
        yield from (with_patched_table(a, *patch) for patch in PATCHES.get(name, ()))
        yield from (chained_patches(a, seed) for seed in CHAINED.get(name, ()))
        if a.dim <= 30:
            yield from (random_patched(a, f"{name}-{k}") for k in range(4))


def mixed_basis(rows):
    """Another basis of the span of ``rows`` outside characteristic 2: twice
    each row plus the next, last first."""
    out = []
    for row, after in zip(rows, rows[1:] + [{}]):
        mixed = Counter({j: 2 * v for j, v in row.items()})
        mixed.update(after)
        out.append({j: v for j, v in mixed.items() if v})
    return out[::-1]


@pytest.mark.parametrize("spec", LEMMA_SPECS)
def test_anti_is_read_off_the_jordan_space(monkeypatch, spec):
    # where JDer's basis passed the derivation walk, JDer = Der and Anti is
    # the JDer maps killing every commutator: solve's canonical rows with no
    # anti solve, each basis map walked once as an anti map; elsewhere the
    # literal solve.  Some CHAINED and random tables read a nonzero Anti off
    # JDer, so the kernel's maps are combined, and canonicalised: JDer given
    # by another basis gives the same rows.
    solves, audits = count_solves_and_audits(monkeypatch, (linmaps,))
    seen = Counter()
    for b in anti_route_cases(parse_field(spec)):
        jordan, want = solve(b, "jordan"), solve(b, "anti")  # the unpatched name
        solves.clear()
        audits.clear()
        got = anti_space(b, jordan)
        assert (got.flavor, got.ints) == ("anti", want.ints)
        assert solves == Counter(anti=int(not jordan.derivations)) and audits == Counter(anti=want.dimension)
        seen["read" if jordan.derivations else "solved", bool(want.dimension)] += 1
        if jordan.derivations and want.dimension:
            mixed = MapSpace("jordan", b.field, mixed_basis(jordan.ints))
            mixed.derivations = True
            assert anti_space(b, mixed).ints == want.ints
    assert seen["read", True] and seen["read", False] and seen["solved", False], seen


def test_anti_is_solved_literally_without_jordan(monkeypatch):
    # over GF(2) there is no JDer to read Anti off
    solves, _ = count_solves_and_audits(monkeypatch, (linmaps,))
    for g in (random_tree(9, 909), *OFF_TREE_GRAPHS.values()):
        b = build_algebra(g, PrimeField(2))
        solves.clear()
        got = anti_space(b, None)
        assert solves == Counter(anti=1) and got.ints == solve(b, "anti").ints


def kills_commutators(a, lin):
    """Whether the int map ``lin`` vanishes on every b_q b_r - b_r b_q, in
    the field, read off the plain table."""
    table, dim, mod = dense_table(a), a.dim, a.field.characteristic
    for q in range(dim):
        for r in range(dim):
            for u in range(dim):
                v = sum(sign * lin.get(u * dim + s, 0) for s, sign in ((table[q][r], 1), (table[r][q], -1)) if s >= 0)
                if v % mod if mod else v:
                    return False
    return True


@st.composite
def lemma_derivations(draw):
    """A LEMMA_TABLES algebra and an int combination of its solved Der rows,
    or of those anti rows that are derivations."""
    a, spaces = lemma_table(*draw(st.sampled_from(LEMMA_TABLES)), draw(st.sampled_from(LEMMA_SPECS)))
    rows = spaces["derivation"]
    if draw(st.booleans()):
        rows = [row for row in spaces["anti"] if verify_map(a, row, "derivation")]
    lin = defaultdict(int)
    for row in rows:
        c = draw(st.integers(-3, 3))
        for j, v in row.items():
            lin[j] += c * v
    return a, {j: v for j, v in lin.items() if v}


@settings(max_examples=200, deadline=None)
@given(lemma_derivations())
def test_a_derivation_is_anti_iff_it_kills_every_commutator(case):
    # D(xy) - yD(x) - D(y)x = D(xy - yx) for a derivation D, any product
    a, lin = case
    assert verify_map(a, lin, "anti") == kills_commutators(a, lin)


def test_nonzero_derivations_kill_every_commutator_on_chained_tables():
    # the lemma's True side is reached by nonzero maps, not only by D = 0
    hits = [
        (name, patches, spec)
        for name, patches in LEMMA_TABLES
        for spec in LEMMA_SPECS
        for a, spaces in [lemma_table(name, patches, spec)]
        if any(verify_map(a, row, "derivation") and kills_commutators(a, row) for row in spaces["anti"])
    ]
    assert any(isinstance(patches, str) for _, patches, _ in hits), hits


def up_to_sign(row, mod):
    """The int row and its negative, mod ``mod`` if nonzero, as the lesser of
    their sorted nonzero items."""
    return min(tuple(sorted((i, c) for i, v in row.items() if (c := sign * v % mod if mod else sign * v))) for sign in (1, -1))


@pytest.mark.parametrize("spec", ["rat", "gf:3"])
def test_the_anti_route_lists_each_commutator_once(monkeypatch, spec):
    # the route emits, up to sign, coordinate u of D(b_q b_r - b_r b_q) over
    # the JDer rows D, once per nonzero commutator and per output u some JDer
    # row writes at either product: the pair (r, q) gives the same equation
    # negated, and on a tree b_a = e_u a = a e_v is one commutator of two
    # pairs for each arrow a: u -> v (summed twice, it would read 2 D(b_a))
    eliminate, emitted = exactlin._eliminate, []

    def recording(field, rows, **order):
        emitted.append(list(rows))
        return eliminate(field, emitted[-1], **order)

    for g in (random_tree(9, 909), OFF_TREE_GRAPHS["K4"], OFF_TREE_GRAPHS["theta"]):
        a = build_algebra(g, parse_field(spec))
        jordan = solve(a, "jordan")
        emitted.clear()
        monkeypatch.setattr(exactlin, "_eliminate", recording)
        anti_space(a, jordan)
        monkeypatch.undo()
        table, dim, outputs = dense_table(a), a.dim, defaultdict(set)
        for row in jordan.ints:
            for j in row:
                outputs[j % dim].add(j // dim)
        # b_q b_r - b_r b_q = b_p - b_t up to sign, b_-1 = 0
        commutators = {frozenset((table[q][r], table[r][q])) for q in range(dim) for r in range(q) if table[q][r] != table[r][q]}
        want = [
            {i: row.get(u * dim + p, 0) - (row.get(u * dim + t, 0) if t >= 0 else 0) for i, row in enumerate(jordan.ints)}
            for t, p in map(sorted, commutators)
            for u in outputs[p] | outputs[t]
        ]
        mod = a.field.characteristic
        assert sorted(up_to_sign(row, mod) for row in emitted[0]) == sorted(up_to_sign(row, mod) for row in want), g


def test_the_anti_audit_catches_a_dropped_pivot(monkeypatch):
    # the route's elimination losing any one pivot row: the kernel gains a
    # JDer map that is no anti map on a tree, and the audit must raise
    a = build_algebra(random_tree(6, 7))
    jordan = solve(a, "jordan")
    assert jordan.derivations and jordan.dimension and not anti_space(a, jordan).dimension
    kernel = linmaps._kernel
    for drop in range(jordan.dimension):
        monkeypatch.setattr(linmaps, "_kernel", lambda f, pivots, n: kernel(f, {c: r for c, r in pivots.items() if c != drop}, n))
        with pytest.raises(InternalInvariantError, match="anti"):
            anti_space(a, jordan)


@pytest.mark.parametrize("spec", ["rat", "gf:3"])
def test_solve_eliminates_once_per_call(monkeypatch, spec):
    # the kernel read off with the live columns in decreasing order is already
    # canonical, so no second elimination runs
    calls = []
    eliminate = exactlin._eliminate

    def counting(field, rows, **order):
        calls.append(field)
        return eliminate(field, rows, **order)

    monkeypatch.setattr(exactlin, "_eliminate", counting)
    for g in (random_tree(9, 909), OFF_TREE_GRAPHS["K4"]):
        a = build_algebra(g, parse_field(spec))
        for flavor in FLAVORS:
            calls.clear()
            solve(a, flavor)
            assert len(calls) == 1, flavor


def names_in(node) -> set:
    """Every name, attribute and string constant under an AST node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def test_the_oracle_and_the_audit_share_no_code_with_generation():
    # the sparse oracle imports nothing from the package, and generation
    # reads none of the product groupings the post-hoc audit reads
    oracle = ast.parse(inspect.getsource(bruteforce))
    imports = [n for n in ast.walk(oracle) if isinstance(n, (ast.Import, ast.ImportFrom))]
    modules = [a.name for n in imports if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in imports if isinstance(n, ast.ImportFrom)]
    assert modules and not any(m.split(".")[0] == "zigzagalg" for m in modules), modules
    assert all(n.level == 0 for n in imports if isinstance(n, ast.ImportFrom))
    assert "zigzagalg" not in names_in(oracle)
    functions = {n.name: n for n in ast.parse(inspect.getsource(linmaps)).body if isinstance(n, ast.FunctionDef)}
    audit_reads = {"factors", "left_products", "right_products"}
    assert audit_reads <= names_in(functions["verify_map"])
    assert not audit_reads & names_in(functions["_leibniz_equations"])
