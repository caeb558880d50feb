"""Zigzag algebras of simple connected graphs.

The zigzag algebra of a graph is the quotient of the path algebra of the
doubled quiver in which paths of length three or more vanish, length-two
paths that are not cycles vanish, and the two-step cycles based at a vertex
are identified into a single element.  A canonical basis is

    trivial paths e(i), one per vertex
    arrows a(i->j), one per orientation of each edge
    cycles c(i), one per vertex

so the dimension is 2n + (number of arrows).  All structure constants are 0
or 1, so the algebra is its nonzero basis products, which is what makes the
exhaustive checks downstream cheap.

The basis layout is decided here alone: other modules read the index maps
of a :class:`ZigzagAlgebra` instead of building basis elements to look up.

Elements are sparse dicts basis index -> nonzero scalar, against
``algebra.basis``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple

from .exactlin import RATIONALS, _nullspace
from .quiver import Graph, validate

IDEM = "e"
ARROW = "a"
CYCLE = "c"


@dataclass(frozen=True)
class BasisElement:
    """One canonical basis vector: kind 'e' / 'a' / 'c' plus its vertices."""

    kind: str
    at: int
    to: int = 0  # arrow target; 0 for trivial paths and cycles

    def __str__(self) -> str:
        if self.kind == ARROW:
            return f"a({self.at}->{self.to})"
        return f"{self.kind}{self.at}"


def idem(i: int) -> BasisElement:
    return BasisElement(IDEM, i)


def arrow(i: int, j: int) -> BasisElement:
    return BasisElement(ARROW, i, j)


def cycle(i: int) -> BasisElement:
    return BasisElement(CYCLE, i)


class ZigzagAlgebra:
    """The zigzag algebra of a graph, as its basis layout and its nonzero
    basis products.

    The constructor reads the layout off the graph: trivial paths by vertex,
    the ``arrows`` (i, j) by (source, target), cycles by vertex.
    ``e_at[i]``, ``a_at[(i, j)]`` and ``c_at[i]`` are the basis indices of
    e(i), a(i->j) and c(i), ``nbrs[i]`` the neighbors of i, increasing, and
    ``is_tree`` whether the graph has n - 1 edges (on the connected graphs
    :func:`build_algebra` accepts, a tree).  The products come after.

    ``products`` maps (p, q) to r with b_p b_q = b_r, in row-major order; a
    missing pair is a vanishing product.  That is about 9 entries per vertex
    on a tree, against dim^2 pairs.  Derived from it, in row-major order,
    ``factors[s]`` holds the (p, q) with b_p b_q = b_s, ``left_products[u]``
    the (y, p) with b_u b_y = b_p and ``right_products[u]`` the (x, p) with
    b_x b_u = b_p.  Treat instances as immutable.
    """

    def __init__(self, graph: Graph, field) -> None:
        self.graph = graph
        self.field = field
        n = graph.n
        self.arrows = tuple(sorted([(u, v) for u, v in graph.edges] + [(v, u) for u, v in graph.edges]))
        self.e_at = {i: i - 1 for i in range(1, n + 1)}
        self.a_at = {ar: n + k for k, ar in enumerate(self.arrows)}
        self.c_at = {i: n + len(self.arrows) + i - 1 for i in range(1, n + 1)}
        self.nbrs: dict = {i: [] for i in range(1, n + 1)}
        for u, v in self.arrows:
            self.nbrs[u].append(v)
        self.is_tree = len(graph.edges) == n - 1
        self.basis = (
            *(idem(i) for i in self.e_at),
            *(arrow(u, v) for u, v in self.arrows),
            *(cycle(i) for i in self.c_at),
        )
        self.dim = len(self.basis)
        self._pos = {b: k for k, b in enumerate(self.basis)}

    def _set_products(self, products: dict) -> None:
        """Store the nonzero products and the indices read off them."""
        self.products = dict(sorted(products.items()))
        self.factors, self.left_products, self.right_products = ([[] for _ in self.basis] for _ in range(3))
        for (p, q), r in self.products.items():
            self.factors[r].append((p, q))
            self.left_products[p].append((q, r))
            self.right_products[q].append((p, r))

    def index(self, b: BasisElement) -> int:
        return self._pos[b]

    def identity(self) -> dict:
        """Sum of the trivial paths, the first n basis elements."""
        return dict.fromkeys(range(self.graph.n), self.field.one)

    def __repr__(self) -> str:
        return f"ZigzagAlgebra(n={self.graph.n}, dim={self.dim}, field={self.field.name})"


def build_algebra(g: Graph, field=RATIONALS) -> ZigzagAlgebra:
    """Construct the zigzag algebra of a connected simple graph on >= 2 vertices.

    Raises ValueError for a single-vertex or disconnected input.
    """
    if g.n == 1:
        raise ValueError("single-vertex graph has no zigzag algebra here: need at least one edge")
    if g.n < 1:
        raise ValueError("empty graph: need at least 2 vertices")
    connected, _ = validate(g)
    if not connected:
        raise ValueError(f"graph on {g.n} vertices is not connected")

    a = ZigzagAlgebra(g, field)
    e_at, a_at, c_at = a.e_at, a.a_at, a.c_at
    products: dict = {}

    def put(p: int, q: int, r: int) -> None:
        if (p, q) in products:
            raise AssertionError(f"product ({p}, {q}) set twice")
        products[p, q] = r

    for i in a.e_at:
        put(e_at[i], e_at[i], e_at[i])
        put(e_at[i], c_at[i], c_at[i])
        put(c_at[i], e_at[i], c_at[i])
    for (u, v), k in a_at.items():
        put(e_at[u], k, k)
        put(k, e_at[v], k)
        put(k, a_at[(v, u)], c_at[u])

    a._set_products(products)
    return a


def multiply(a: ZigzagAlgebra, x: dict, y: dict) -> dict:
    """Bilinear extension of the basis products to sparse elements.

    Raises ValueError for an index outside 0..dim-1, which would otherwise
    miss every product and silently count as zero.
    """
    for p in (*x, *y):
        if not 0 <= p < a.dim:
            raise ValueError(f"basis index {p} out of range for dimension {a.dim}")
    field = a.field
    mod = field.characteristic
    out: dict = {}
    times = a.products.get
    for p, xv in x.items():
        for q, yv in y.items():
            r = times((p, q))
            if r is not None:
                out[r] = out.get(r, field.zero) + xv * yv
    return {r: c for r, v in out.items() if (c := v % mod if mod else v)}


def check_associativity(a: ZigzagAlgebra) -> bool:
    """Check (bp bq) br == bp (bq br) over all basis triples.

    Exhaustive, but visits only the triples where one side is a product of
    two nonzero products (when both vanish, they agree): (bp bq) br = b_s br
    for each factorization b_p b_q of each left factor b_s of a nonzero
    product, and bp (bq br) likewise on the right.  That is one visit per
    nonzero product and factorization, whatever the degrees.
    """
    prod = a.products
    # a zero product is None, and no key holds None
    for (s, r), sr in prod.items():
        for p, q in a.factors[s]:
            if sr != prod.get((p, prod.get((q, r)))):
                return False
    for (p, s), ps in prod.items():
        for q, r in a.factors[s]:
            if ps != prod.get((prod.get((p, q)), r)):
                return False
    return True


def with_patched_table(a: ZigzagAlgebra, p: int, q: int, r: int) -> ZigzagAlgebra:
    """Copy of the algebra with b_p b_q := b_r, or 0 for r = -1 (for negative
    tests).  Raises ValueError unless 0 <= p, q < dim and -1 <= r < dim."""
    if not (0 <= p < a.dim and 0 <= q < a.dim and -1 <= r < a.dim):
        raise ValueError(f"patch ({p}, {q}) -> {r} out of range for dimension {a.dim}")
    products = dict(a.products)
    products.pop((p, q), None)
    if r >= 0:
        products[p, q] = r
    patched = copy.copy(a)  # the layout is the graph's, so it is shared
    patched._set_products(products)
    return patched


class CenterResult(NamedTuple):
    rows: list  # the canonical basis, sparse
    dimension: int


def center(a: ZigzagAlgebra) -> CenterResult:
    """Canonical basis of the center, via the kernel of all commutator maps.

    Unknowns are the coordinates of x; for every basis element b_k and output
    coordinate p this imposes (x b_k)_p - (b_k x)_p = 0.
    """
    eqs = {}  # the +-1 coefficients sum as ints; the elimination drops zeros
    for (u, k), r in a.products.items():  # b_u b_k = b_r: x_u enters (x b_k)_r
        row = eqs.setdefault((k, r), {})
        row[u] = row.get(u, 0) + 1
    for (k, u), r in a.products.items():  # b_k b_u = b_r: x_u enters (b_k x)_r
        row = eqs.setdefault((k, r), {})
        row[u] = row.get(u, 0) - 1
    vecs = _nullspace(a.field, eqs.values(), a.dim)
    return CenterResult(vecs, len(vecs))
