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

The basis layout and the products are decided here alone, in the
:class:`ZigzagAlgebra` constructor, which also checks the paper's hypotheses
on the graph: at least 2 vertices and connected.  ``algebra.basis`` names the
elements, and the index maps are the one way to an index.

Elements are sparse dicts basis index -> nonzero scalar, against
``algebra.basis``.
"""

from __future__ import annotations

import copy

from .exactlin import RATIONALS, _canonical_kernel
from .linmaps import MapSpace
from .quiver import Graph, validate


class ZigzagAlgebra:
    """The zigzag algebra of a connected graph on at least 2 vertices, as its
    basis layout and its nonzero basis products.

    The constructor raises ValueError for a single-vertex, empty or
    disconnected graph.  It reads the layout off the graph: trivial paths by
    vertex, the ``arrows`` (i, j) by (source, target), cycles by vertex.
    ``e_at[i]``, ``a_at[(i, j)]`` and ``c_at[i]`` are the basis indices of
    e(i), a(i->j) and c(i), ``nbrs[i]`` the neighbors of i, increasing, and
    ``is_tree`` whether the graph, connected, has n - 1 edges.
    ``basis[k]`` names element k: ``e{i}``, ``a({i}->{j})`` or ``c{i}``.
    Then it writes the products.

    ``products`` maps (p, q) to r with b_p b_q = b_r, in row-major order; a
    missing pair is a vanishing product.  That is about 9 entries per vertex
    on a tree, against dim^2 pairs.  Derived from it, in row-major order,
    ``factors[s]`` holds the (p, q) with b_p b_q = b_s, ``left_products[u]``
    the (y, p) with b_u b_y = b_p and ``right_products[u]`` the (x, p) with
    b_x b_u = b_p.  Treat instances as immutable.
    """

    def __init__(self, graph: Graph, field) -> None:
        n = graph.n
        if n == 1:
            raise ValueError("single-vertex graph has no zigzag algebra here: need at least one edge")
        if n < 1:
            raise ValueError("empty graph: need at least 2 vertices")
        if not validate(graph):
            raise ValueError(f"graph on {n} vertices is not connected")
        self.graph = graph
        self.field = field
        self.arrows = tuple(sorted([(u, v) for u, v in graph.edges] + [(v, u) for u, v in graph.edges]))
        self.e_at = e_at = {i: i - 1 for i in range(1, n + 1)}
        self.a_at = a_at = {ar: n + k for k, ar in enumerate(self.arrows)}
        self.c_at = c_at = {i: n + len(self.arrows) + i - 1 for i in range(1, n + 1)}
        self.nbrs: dict = {i: [] for i in range(1, n + 1)}
        for u, v in self.arrows:
            self.nbrs[u].append(v)
        self.is_tree = len(graph.edges) == n - 1
        self.basis = (
            *(f"e{i}" for i in e_at),
            *(f"a({u}->{v})" for u, v in self.arrows),
            *(f"c{i}" for i in c_at),
        )
        self.dim = len(self.basis)
        products: dict = {}
        for i in e_at:
            products[e_at[i], e_at[i]] = e_at[i]
            products[e_at[i], c_at[i]] = c_at[i]
            products[c_at[i], e_at[i]] = c_at[i]
        for (u, v), k in a_at.items():
            products[e_at[u], k] = k
            products[k, e_at[v]] = k
            products[k, a_at[(v, u)]] = c_at[u]
        if len(products) != 3 * (n + len(self.arrows)):  # three writes per vertex and per arrow
            raise AssertionError("a basis product was set twice")
        self._set_products(products)

    def _set_products(self, products: dict) -> None:
        """Store the nonzero products and the indices read off them."""
        self.products = dict(sorted(products.items()))
        self.factors, self.left_products, self.right_products = ([[] for _ in self.basis] for _ in range(3))
        for (p, q), r in self.products.items():
            self.factors[r].append((p, q))
            self.left_products[p].append((q, r))
            self.right_products[q].append((p, r))

    def __repr__(self) -> str:
        return f"ZigzagAlgebra(n={self.graph.n}, dim={self.dim}, field={self.field.name})"


def build_algebra(g: Graph, field=RATIONALS) -> ZigzagAlgebra:
    """The zigzag algebra of g over field; see :class:`ZigzagAlgebra`."""
    return ZigzagAlgebra(g, field)


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


def center(a: ZigzagAlgebra) -> MapSpace:
    """The center, as the canonical ``MapSpace`` labelled ``"center"``: its
    rows are elements of the algebra, the kernel of all commutator maps.

    Unknowns are the coordinates of x; for every basis element b_k and output
    coordinate p this imposes (x b_k)_p - (b_k x)_p = 0, with x_u labelled
    dim - 1 - u, as :func:`linmaps.solve` labels its pool, for one elimination.
    """
    top = a.dim - 1
    eqs = {}  # the +-1 coefficients sum as ints; the elimination drops zeros
    for (u, v), r in a.products.items():  # b_u b_v = b_r: x_u enters (x b_v)_r, x_v enters (b_u x)_r
        row = eqs.setdefault((v, r), {})
        row[j] = row.get(j := top - u, 0) + 1
        row = eqs.setdefault((u, r), {})
        row[j] = row.get(j := top - v, 0) - 1
    return MapSpace("center", a.field, _canonical_kernel(a.field, eqs.values(), range(a.dim)))
