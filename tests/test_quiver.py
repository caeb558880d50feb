from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zigzagalg.quiver import (
    Graph,
    GraphParseError,
    Xorshift64Star,
    parse_graph,
    path_graph,
    random_tree,
    serialize_graph,
    star_graph,
    validate,
)
from zigzagalg.zigzag import build_algebra

EDGE_TEXT = "vertices 2\nedge 1 2\n"


def test_parse_basic():
    g = parse_graph(EDGE_TEXT)
    assert g.n == 2
    assert g.edges == frozenset({(1, 2)})


def test_parse_accepts_comments_blanks_and_bytes():
    text = "# a comment\n\nvertices 3\nedge 2 1\n# another\nedge 2 3"
    g = parse_graph(text)
    assert g.n == 3
    assert sorted(g.edges) == [(1, 2), (2, 3)]
    assert parse_graph(text.encode("utf-8")) == g
    # one leading byte-order mark is dropped, as text and as bytes
    for bom in ("\ufeff" + text, b"\xef\xbb\xbf" + text.encode("utf-8")):
        assert parse_graph(bom) == g


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("edge 1 2\n", 1, "header"),
        ("vertices two\n", 1, "not an integer"),
        ("vertices x\n", 1, "vertex count 'x' is not an integer"),
        ("vertices 3\nedge 1\n", 2, "expected 'edge"),
        ("vertices 3\nedge 1 x\n", 2, "not integers"),
        ("vertices 3\nedge 0 2\n", 2, "out of range"),
        ("vertices 3\nedge 1 4\n", 2, "out of range"),
        ("vertices 3\nedge 1 0\n", 2, "edge (1, 0) out of range 1..3"),
        ("vertices 3\nedge 2 2\n", 2, "loop"),
        ("vertices 3\nedge 1 2\nedge 2 1\n", 3, "duplicate"),
        ("# only a comment\n", 1, "missing"),
        ("", 1, "missing"),
        ("\ufeff\ufeffvertices 3\n", 1, "header"),
        ("vertices 3\n\ufeffedge 1 2\n", 2, "expected 'edge"),
        ("vertices 3\nedge 1 2\ufeff\n", 2, "not integers"),
        ("# header next\nvertices -2\n", 2, "vertex count -2 is negative"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_serialize_round_trip():
    g = Graph(4, frozenset({(1, 2), (2, 3), (2, 4)}))
    assert parse_graph(serialize_graph(g)) == g


def test_validate():
    assert validate(path_graph(5)) is True
    tri = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    assert validate(tri) is True
    forest = Graph(4, frozenset({(1, 2), (3, 4)}))
    assert validate(forest) is False
    assert validate(Graph(1, frozenset())) is True
    n_minus_1_edges = Graph(5, frozenset({(1, 2), (2, 3), (1, 3), (4, 5)}))
    assert validate(n_minus_1_edges) is False


def test_validate_answers_at_once_with_too_few_edges(fresh_python):
    # under a 1 GB cap, work per vertex would end in MemoryError instead
    code = (
        "import time\n"
        "from zigzagalg.quiver import Graph, validate\n"
        "t0 = time.perf_counter()\n"
        "assert validate(Graph(10**9, frozenset())) is False\n"
        "assert time.perf_counter() - t0 < 0.1\n"
    )
    proc = fresh_python("-c", code, max_bytes=2**30)
    assert proc.returncode == 0, proc.stderr


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) out of range"):
        Graph(3, frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="vertex count -1 is negative"):
        Graph(-1, frozenset())


def test_graph_edges_must_be_a_frozenset():
    # a list kept a repeated edge, which failed only in the algebra's table,
    # and left the frozen graph unhashable
    with pytest.raises(TypeError, match="edges is a list, not a frozenset"):
        Graph(3, [(1, 2), (1, 2), (2, 3)])
    with pytest.raises(TypeError, match="edges is a list, not a frozenset"):
        Graph(3, [(1, 2), (2, 3)])
    g = Graph(3, frozenset({(1, 2), (2, 3)}))
    assert hash(g) == hash(Graph(3, frozenset({(2, 3), (1, 2)})))


def test_double_quiver_order():
    assert build_algebra(path_graph(3)).arrows == ((1, 2), (2, 1), (2, 3), (3, 2))


def test_star_and_path_shapes():
    s = star_graph(4)
    assert sorted(s.edges) == [(1, 2), (1, 3), (1, 4)]
    assert sorted(path_graph(2).edges) == [(1, 2)]


def test_random_tree_two_vertices_any_seed():
    for seed in (0, 1, 7, 2**63):
        assert random_tree(2, seed).edges == frozenset({(1, 2)})


def test_random_tree_frozen_example():
    t = random_tree(5, 7)
    assert sorted(t.edges) == [(1, 3), (2, 4), (3, 5), (4, 5)]
    assert validate(t) is True


def test_random_tree_deterministic():
    assert random_tree(8, 123).edges == random_tree(8, 123).edges


def test_random_tree_rejects_tiny():
    with pytest.raises(ValueError):
        random_tree(1, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**64 - 1))
def test_random_tree_always_a_tree(n, seed):
    t = random_tree(n, seed)
    assert t.n == n
    assert len(t.edges) == n - 1
    assert validate(t) is True


def test_random_tree_covers_all_labeled_trees_on_four_vertices():
    # 4^(4-2) = 16 labeled trees; 200 seeds of the fixed stream hit them all
    seen = {frozenset(random_tree(4, s).edges) for s in range(200)}
    assert len(seen) == 16


def test_xorshift_contract():
    r = Xorshift64Star(0)
    assert r.state != 0  # zero seed is remapped
    a = Xorshift64Star(42)
    b = Xorshift64Star(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    c = Xorshift64Star(9)
    assert all(0 <= c.below(10) < 10 for _ in range(100))
    # nothing to draw from when n < 1; above 2**64 rejection would never end
    for n in (0, -3, 2**64 + 1):
        with pytest.raises(ValueError, match=f"got {n}$"):
            Xorshift64Star(5).below(n)
    assert Xorshift64Star(5).below(2**64) == Xorshift64Star(5).next_u64()
    assert Xorshift64Star(5).below(1) == 0


def test_xorshift_below_rejects_exactly_the_draws_past_the_last_whole_multiple():
    # for n = 3 * 2**62 the draws below n are kept and those at or above it
    # rejected: seed 2's first draw lies in [2**63, n), seed 3's in [n, 2**64)
    n = 3 << 62
    first = Xorshift64Star(2).next_u64()
    assert 1 << 63 <= first < n and Xorshift64Star(2).below(n) == first
    rng = Xorshift64Star(3)
    assert rng.next_u64() >= n
    assert Xorshift64Star(3).below(n) == rng.next_u64() % n


def test_xorshift_rejects_a_seed_outside_64_bits():
    # masking would run seed 2**64 - 1's stream for -1 and seed 0's for 2**64
    for seed in (-1, 2**64, 2**64 + 7):
        with pytest.raises(ValueError, match=f"got {seed}$"):
            Xorshift64Star(seed)
    top = Xorshift64Star(2**64 - 1)
    assert top.state == 2**64 - 1 and top.next_u64() != Xorshift64Star(0).next_u64()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
def test_serialize_parse_round_trip_on_random_trees(n, seed):
    t = random_tree(n, seed)
    assert parse_graph(serialize_graph(t)) == t
