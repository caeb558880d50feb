"""Derivation-type linear maps on a zigzag algebra.

Three flavors of one identity, each a linear condition on a map Theta
written against the canonical basis: Theta(x * y) = Theta(x) . y + x . Theta(y)
for an inner product * and an outer product . (:data:`FLAVOR_PRODUCTS`):

    derivation   * = xy,       . = xy        Theta(xy) = Theta(x) y + x Theta(y)
    jordan       * = xy + yx,  . = xy + yx   the derivation identity for x o y = xy + yx
    anti         * = xy,       . = yx        Theta(xy) = y Theta(x) + Theta(y) x

Two independent routes produce derivation spaces and are kept independent on
purpose: :func:`solve` takes the kernel of the Leibniz constraint system over
the dim^2 matrix coefficients of Theta, while :func:`structured_space`
materializes the closed parametric form (one ``t`` and one ``d`` parameter
per arrow, tied by antisymmetry and per-vertex consistency).  Agreement
between the two is checked by callers, never assumed here.

The outer terms of the identity are precomputed per basis element, and most
pairs (q, r) only shift them.  :func:`solve` eliminates just the unknowns that
no single-entry equation forces to zero; :func:`leibniz_system` is the full
system, kept for the oracles.

Maps are kept sparse: a map is a dict from the flat index p*dim + q to the
nonzero coefficient of b_p in Theta(b_q).  Systems, kernels, canonical bases,
span checks and the audit all work on these dicts.  :class:`LinearMap` is the
dense column-wise form (``columns[q]`` is the coefficient vector of
Theta(b_q)), built only at the edges, for callers that print or inspect maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .exactlin import Matrix, in_rref_span, normalize_row, nullspace_basis, span_canonical_basis
from .zigzag import ARROW, IDEM, ZigzagAlgebra, arrow, center, cycle, idem

# flavor -> (inner, outer): the orders (xy, yx) of the algebra's product that
# each of the two products of the flavor identity sums
XY, YX = 0, 1
FLAVOR_PRODUCTS = {
    "derivation": ((XY,), (XY,)),
    "jordan": ((XY, YX), (XY, YX)),
    "anti": ((XY,), (YX,)),
}
FLAVORS = tuple(FLAVOR_PRODUCTS)


class CharacteristicTwoError(ValueError):
    """The jordan flavor is meaningless in characteristic 2 (x o x = 2x^2 = 0)."""


class InternalInvariantError(RuntimeError):
    """A cross-check that must hold for any correct run failed; this is a bug."""


def _flat(entries: dict, dim: int, field) -> tuple:
    """Dense flattened form (length dim^2) of a sparse flat-index map."""
    out = [field.zero] * (dim * dim)
    for j, v in entries.items():
        out[j] = v
    return tuple(out)


@dataclass(frozen=True)
class LinearMap:
    """A linear endomorphism of the algebra in dense form, column q = image of basis q."""

    dim: int
    columns: tuple

    @classmethod
    def from_entries(cls, field, dim: int, entries: dict) -> "LinearMap":
        """Dense form of a sparse flat-index map."""
        cols = [[field.zero] * dim for _ in range(dim)]
        for j, v in entries.items():
            p, q = divmod(j, dim)
            cols[q][p] = v
        return cls(dim, tuple(tuple(c) for c in cols))

    def entries(self, field) -> dict:
        """Sparse flat-index form: p*dim + q -> nonzero coefficient."""
        zero = field.zero
        dim = self.dim
        return {
            p * dim + q: v
            for q, col in enumerate(self.columns)
            for p, v in enumerate(col)
            if v != zero
        }

    def flatten(self, field) -> tuple:
        return _flat(self.entries(field), self.dim, field)

    def is_zero(self, field) -> bool:
        return not self.entries(field)


class MapSpace:
    """A subspace of maps of one flavor, stored as its canonical basis.

    ``rows`` are the nonzero rows of the RREF of the span of whatever
    generators were supplied, as sparse flat-index maps in pivot order, so
    equal spaces have equal ``rows``.
    """

    def __init__(self, flavor: str, field, dim: int, rows: list) -> None:
        self.flavor = flavor
        self.field = field
        self.dim = dim
        self.rows = rows
        self.dimension = len(rows)

    @classmethod
    def from_generators(cls, flavor: str, algebra: ZigzagAlgebra, generators: list) -> "MapSpace":
        """Canonical space spanned by sparse flat-index maps."""
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        field = algebra.field
        return cls(flavor, field, algebra.dim, span_canonical_basis(generators, field))

    @cached_property
    def basis(self) -> tuple:
        """The canonical basis as dense LinearMaps."""
        return tuple(LinearMap.from_entries(self.field, self.dim, r) for r in self.rows)

    def flat_basis(self, field) -> list:
        """The canonical basis as dense flattened tuples (index p*dim + q)."""
        return [_flat(r, self.dim, field) for r in self.rows]

    def contains(self, maps) -> bool:
        """Whether every sparse flat-index map in ``maps`` lies in this space."""
        return in_rref_span(self.rows, maps, self.field)

    def __repr__(self) -> str:
        return f"MapSpace({self.flavor!r}, dim={self.dimension})"


def _leibniz_equations(a: ZigzagAlgebra, flavor: str):
    """(forced columns, canonical longer rows) of the flavor's equations over
    the dim^2 coefficients x[p, q] of Theta: one per basis pair (q, r) and
    output p, from :data:`FLAVOR_PRODUCTS` in small-int coefficients.  A row
    is kept as the sorted (column, int) pairs of its :func:`normalize_row`.
    A pair with no inner term whose outer terms reach disjoint outputs has
    exactly their precomputed equations, shifted by q and by r.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    field = a.field
    if flavor == "jordan" and field.characteristic == 2:
        raise CharacteristicTwoError(
            "jordan flavor degenerates in characteristic 2: the symmetrized product is not usable"
        )
    inner, outer = FLAVOR_PRODUCTS[flavor]
    # with both products symmetric (xy + yx) the equations at (q, r) and at
    # (r, q) are the same, so each unordered pair is generated once
    symmetric = set(inner) == set(outer) == {XY, YX}
    dim = a.dim
    # a coefficient sums at most len(inner) terms +1 and 2 * len(outer) terms -1;
    # zero is tested on the int, against the coefficients that survive
    # conversion into the field (-2 vanishes in GF(2))
    scalar = {c: field.convert(c) for c in range(-2 * len(outer), len(inner) + 1)}
    nonzero = {c for c, v in scalar.items() if v != field.zero}

    def split(rows):  # -> (forced columns, canonical longer rows)
        singles, longs = [], []
        for row in rows:
            clean = {j: scalar[c] for j, c in row.items() if c in nonzero}
            if len(clean) > 1:
                longs.append(tuple(sorted([(j, int(v)) for j, v in normalize_row(field, clean).items()])))
            else:
                singles.extend(clean)
        return singles, longs

    # Theta(b_q) . b_y (right[y]) and b_y . Theta(b_r) (left[y]), as
    # p -> {u*dim: coefficient} of x[u, q] and of x[u, r]
    right, left = [{} for _ in range(dim)], [{} for _ in range(dim)]
    for x, y, p in a.products:  # b_x b_y = b_p
        for o in outer:
            # in order YX, Theta(b_q) . b_x is b_x Theta(b_q), and
            # b_y . Theta(b_r) is Theta(b_r) b_y
            terms = ((right, y, x), (left, x, y)) if o == XY else ((right, x, y), (left, y, x))
            for side, at, u in terms:
                row = side[at].setdefault(p, {})
                row[u * dim] = row.get(u * dim, 0) - 1
    right_parts = [split(m.values()) for m in right]
    left_parts = [split(m.values()) for m in left]
    # inner_at[q][r]: s -> count of the terms Theta(b_s) of the pair (q, r)
    inner_at = [{} for _ in range(dim)]
    for x, y, s in a.products:
        for o in inner:
            q, r = (x, y) if o == XY else (y, x)
            at = inner_at[q].setdefault(r, {})
            at[s] = at.get(s, 0) + 1

    forced = set()
    longer = set()
    for q in range(dim):
        left_q, inner_q = left[q], inner_at[q]
        lsingles, llongs = left_parts[q]
        for r in range(q if symmetric else 0, dim):
            right_r = right[r]
            inner_terms = inner_q.get(r)
            if inner_terms is None and right_r.keys().isdisjoint(left_q):
                rsingles, rlongs = right_parts[r]
                forced.update([b + q for b in rsingles])
                forced.update([b + r for b in lsingles])
                if rlongs:
                    longer.update([tuple([(j + q, c) for j, c in key]) for key in rlongs])
                if llongs:
                    longer.update([tuple([(j + r, c) for j, c in key]) for key in llongs])
                continue
            # eqs[p][col]: integer coefficient of unknown col in coordinate p
            # of Theta(b_q * b_r) - Theta(b_q) . b_r - b_q . Theta(b_r)
            eqs = {p: {j + q: c for j, c in row.items()} for p, row in right_r.items()}
            for p, row in left_q.items():
                eq = eqs.setdefault(p, {})
                for j, c in row.items():
                    eq[j + r] = eq.get(j + r, 0) + c
            if inner_terms:
                # coordinates with no outer term see only Theta(b_s), at p*dim + s
                rest = [p * dim for p in range(dim) if p not in eqs]
                isingles, ilongs = split([inner_terms])
                forced.update([s + o for s in isingles for o in rest])
                longer.update([tuple([(j + o, c) for j, c in key]) for key in ilongs for o in rest])
                for p, eq in eqs.items():
                    for s, k in inner_terms.items():
                        eq[p * dim + s] = eq.get(p * dim + s, 0) + k
            singles, longs = split(eqs.values())
            forced.update(singles)
            longer.update(longs)
    return forced, longer


def leibniz_system(a: ZigzagAlgebra, flavor: str) -> Matrix:
    """Constraint matrix over the dim^2 coefficients x[p, q] of Theta: the
    equations of :func:`_leibniz_equations`, one ``{col: 1}`` row per forced
    column, sorted by canonical key.  Its kernel is the flavor's solution
    space; :func:`solve` finds it without this matrix, which oracles use."""
    forced, longer = _leibniz_equations(a, flavor)
    field = a.field
    keys = sorted(longer.union([((j, 1),) for j in forced]))
    rows = [{j: field.convert(c) for j, c in key} for key in keys]
    return Matrix.from_sparse(field, len(rows), a.dim * a.dim, rows)


def verify_map(a: ZigzagAlgebra, lin: dict | LinearMap, flavor: str) -> bool:
    """Check the flavor identity for one map on every ordered basis pair.

    ``lin`` is a sparse flat-index map or a LinearMap.  This is the post-hoc
    audit of solver output; by bilinearity, holding on basis pairs is holding
    everywhere.  Every term of the identity at (b_q, b_r) is Theta of b_q b_r
    or b_r b_q, or a product, in either order, of b_q with Theta(b_r) or of
    b_r with Theta(b_q).  So the pair can fail only if b_q b_r or b_r b_q is a
    support column of the map, or if one of q, r is a support column c and
    the other has a nonzero product with some b_u, u in the support of column
    c.  Only those pairs are visited (read off ``a.products``); the verdict is
    that of a walk over all dim^2 pairs.
    """
    field = a.field
    zero = field.zero
    add, sub = field.add, field.sub
    table = a.table
    dim = a.dim
    entries = lin if isinstance(lin, dict) else lin.entries(field)
    cols_nz = [[] for _ in range(dim)]
    for j, v in entries.items():
        p, q = divmod(j, dim)
        cols_nz[q].append((p, v))

    # partners[u]: the w with b_u b_w or b_w b_u nonzero
    partners = [set() for _ in range(dim)]
    pairs = set()  # flat indices q*dim + r of the pairs to visit
    for q, r, s in a.products:
        partners[q].add(r)
        partners[r].add(q)
        if cols_nz[s]:
            pairs.add(q * dim + r)
            pairs.add(r * dim + q)
    for c, col in enumerate(cols_nz):
        for u, _ in col:
            for w in partners[u]:
                pairs.add(c * dim + w)
                pairs.add(w * dim + c)

    def plus_col(acc, s):
        for p, v in cols_nz[s]:
            acc[p] = add(acc.get(p, zero), v)

    def minus_rmul(acc, src, r):
        # Theta(b_src) * b_r
        for u, x in cols_nz[src]:
            p = table[u][r]
            if p >= 0:
                acc[p] = sub(acc.get(p, zero), x)

    def minus_lmul(acc, q, src):
        # b_q * Theta(b_src)
        row = table[q]
        for u, x in cols_nz[src]:
            p = row[u]
            if p >= 0:
                acc[p] = sub(acc.get(p, zero), x)

    for k in pairs:
        q, r = divmod(k, dim)
        acc: dict = {}
        if flavor == "derivation":
            s = table[q][r]
            if s >= 0:
                plus_col(acc, s)
            minus_rmul(acc, q, r)
            minus_lmul(acc, q, r)
        elif flavor == "anti":
            s = table[q][r]
            if s >= 0:
                plus_col(acc, s)
            minus_rmul(acc, r, q)
            minus_lmul(acc, r, q)
        else:  # jordan
            s1, s2 = table[q][r], table[r][q]
            if s1 >= 0:
                plus_col(acc, s1)
            if s2 >= 0:
                plus_col(acc, s2)
            minus_rmul(acc, q, r)
            minus_lmul(acc, r, q)
            minus_lmul(acc, q, r)
            minus_rmul(acc, r, q)
        if any(v != zero for v in acc.values()):
            return False
    return True


def solve(a: ZigzagAlgebra, flavor: str) -> MapSpace:
    """Kernel of the flavor's constraint system, as a canonical MapSpace.

    Forced columns are pivots, so only the others are eliminated, relabelled
    in increasing order, and the kernel mapped back is that of
    :func:`leibniz_system`.  Every basis map of the result is re-verified
    against the defining identity on all basis pairs; a failure there is a
    solver bug, reported as InternalInvariantError rather than a wrong answer.
    """
    forced, longer = _leibniz_equations(a, flavor)
    field = a.field
    live = [j for j in range(a.dim * a.dim) if j not in forced]
    label = {j: k for k, j in enumerate(live)}
    rows = []
    for key in longer:
        row = {label[j]: field.convert(c) for j, c in key if j in label}
        if row:
            rows.append(row)
    system = Matrix.from_sparse(field, len(rows), len(live), rows)
    kernel = [{live[k]: v for k, v in vec.items()} for vec in nullspace_basis(system, sparse=True)]
    space = MapSpace.from_generators(flavor, a, kernel)
    for row in space.rows:
        if not verify_map(a, row, flavor):
            raise InternalInvariantError(f"solved {flavor} basis map fails the defining identity")
    return space


@dataclass
class DerivationParams:
    """Closed-form derivation data: per arrow (u, v), an ``e``-part coefficient
    t[(u, v)] (the coefficient of a(u->v) in the image of e(v); its negative
    appears in the image of e(u)) and a diagonal coefficient d[(u, v)] (the
    coefficient of a(u->v) in its own image).

    Images of cycles are forced: c(i) maps to (d[(i, j)] + d[(j, i)]) c(i)
    for any neighbor j, so those sums must agree across the neighbors of i.
    """

    t: dict
    d: dict


def _arrow_layout(a: ZigzagAlgebra):
    """(a_at, e_at, c_at, nbrs): the basis index of each arrow, in quiver
    order, of each trivial path and of each cycle, and each vertex's
    neighbors in increasing order."""
    n = a.graph.n
    a_at = {(ar.source, ar.target): a.index(arrow(ar.source, ar.target)) for ar in a.quiver.arrows}
    e_at = {i: a.index(idem(i)) for i in range(1, n + 1)}
    c_at = {i: a.index(cycle(i)) for i in range(1, n + 1)}
    nbrs: dict = {i: [] for i in range(1, n + 1)}
    for u, v in a_at:  # sorted by (source, target)
        nbrs[u].append(v)
    return a_at, e_at, c_at, nbrs


def _parameter_entries(a: ZigzagAlgebra, params: DerivationParams, layout=None) -> dict:
    """The sparse flat-index map the parameters describe, built from their
    nonzeros (``layout`` is :func:`_arrow_layout`, computed if not given).
    Raises ValueError if the parameters mention a non-arrow or violate
    per-vertex consistency."""
    field = a.field
    zero = field.zero
    a_at, e_at, c_at, nbrs = layout or _arrow_layout(a)
    for key in list(params.t) + list(params.d):
        if key not in a_at:
            raise ValueError(f"parameter for non-arrow {key}")
    t = {ar: v for ar, v in params.t.items() if v != zero}
    d = {ar: v for ar, v in params.d.items() if v != zero}

    dim = a.dim
    out: dict = {}

    def put(p: int, q: int, v) -> None:
        j = p * dim + q
        x = field.add(out.get(j, zero), v)
        if x == zero:
            out.pop(j, None)
        else:
            out[j] = x

    for (u, v), tv in t.items():
        row = a_at[(u, v)]
        put(row, e_at[v], tv)
        put(row, e_at[u], field.neg(tv))
        # a(v->u) maps to -t[(u, v)] c(v) + t[(u, v)] c(u)
        put(c_at[v], a_at[(v, u)], field.neg(tv))
        put(c_at[u], a_at[(v, u)], tv)
    for ar, dv in d.items():
        put(a_at[ar], a_at[ar], dv)
    # c(i) maps to (d[(i, j)] + d[(j, i)]) c(i), the same for every neighbor j
    for i in sorted({x for ar in d for x in ar}):
        sums = {field.add(d.get((i, j), zero), d.get((j, i), zero)) for j in nbrs[i]}
        if len(sums) > 1:
            raise ValueError(
                f"inconsistent parameters: cycle coefficients at vertex {i} disagree across neighbors"
            )
        sm = sums.pop()
        if sm != zero:
            put(c_at[i], c_at[i], sm)
    return out


def materialize(a: ZigzagAlgebra, params: DerivationParams) -> LinearMap:
    """Build the map the parameters describe.  Raises ValueError if the
    parameters mention a non-arrow or violate per-vertex consistency."""
    return LinearMap.from_entries(a.field, a.dim, _parameter_entries(a, params))


def structured_parameter_basis(a: ZigzagAlgebra) -> list:
    """Canonical basis of the parameter space (t_a, d_a) modulo consistency.

    Free coordinates: one t per arrow, one d per arrow, in quiver arrow
    order; the per-vertex cycle-consistency conditions are solved exactly.
    """
    field = a.field
    a_at, _, _, nbrs = _arrow_layout(a)
    arrows = list(a_at)
    m = len(arrows)
    pos = {ar: k for k, ar in enumerate(arrows)}
    one = field.one
    rows = []
    for i, nb in nbrs.items():
        if len(nb) < 2:
            continue
        j0 = nb[0]
        for j in nb[1:]:
            row = {
                m + pos[(i, j0)]: one,
                m + pos[(j0, i)]: one,
                m + pos[(i, j)]: field.neg(one),
                m + pos[(j, i)]: field.neg(one),
            }
            rows.append(row)
    system = Matrix.from_sparse(field, len(rows), 2 * m, rows)
    out = []
    for vec in nullspace_basis(system, sparse=True):
        coords = sorted(vec.items())
        t = {arrows[k]: v for k, v in coords if k < m}
        d = {arrows[k - m]: v for k, v in coords if k >= m}
        out.append(DerivationParams(t=t, d=d))
    return out


def structured_space(a: ZigzagAlgebra) -> MapSpace:
    """Span of the materialized parameter basis, as a canonical MapSpace."""
    layout = _arrow_layout(a)
    maps = [_parameter_entries(a, p, layout) for p in structured_parameter_basis(a)]
    return MapSpace.from_generators("derivation", a, maps)


def _ad_entries(a: ZigzagAlgebra, k: int) -> dict:
    """The commutator map [b_k, -] as a sparse flat-index map."""
    field = a.field
    one, neg_one = field.one, field.neg(field.one)
    dim = a.dim
    table = a.table
    out = {}
    for q in range(dim):
        p, p2 = table[k][q], table[q][k]
        if p == p2:  # b_k b_q = b_q b_k: the column vanishes
            continue
        if p >= 0:
            out[p * dim + q] = one
        if p2 >= 0:
            out[p2 * dim + q] = neg_one
    return out


def ad_map(a: ZigzagAlgebra, k: int) -> LinearMap:
    """The commutator map [b_k, -]."""
    return LinearMap.from_entries(a.field, a.dim, _ad_entries(a, k))


def inner_space(a: ZigzagAlgebra) -> MapSpace:
    """Span of all commutator maps [b_k, -], as a canonical MapSpace."""
    return MapSpace.from_generators("derivation", a, [_ad_entries(a, k) for k in range(a.dim)])


class HochschildDims(NamedTuple):
    hh0: int
    hh1: int


def _hochschild_dims(a: ZigzagAlgebra, cen, der: MapSpace, inner: MapSpace) -> HochschildDims:
    """HH^0 and HH^1 from the center, Der and Inner, after the cross-checks
    that must hold in any field, and whose failure means a bug, not a
    property of the input: the inner dimension computed as an ad-span rank
    must equal dim A - dim center, and the inner span must sit inside the
    solved derivation span."""
    if inner.dimension != a.dim - cen.dimension:
        raise InternalInvariantError(
            f"inner dimension {inner.dimension} != dim algebra {a.dim} - dim center {cen.dimension}"
        )
    if not der.contains(inner.rows):
        raise InternalInvariantError("inner derivations do not sit inside the solved derivation space")
    return HochschildDims(cen.dimension, der.dimension - inner.dimension)


def hh_dims(a: ZigzagAlgebra) -> HochschildDims:
    """Dimensions of the center and of (derivations mod inner derivations)."""
    return _hochschild_dims(a, center(a), solve(a, "derivation"), inner_space(a))


def check_structure(a: ZigzagAlgebra, lin: LinearMap) -> bool:
    """Zero-pattern audit for derivation maps.

    Image of e(i) only on arrows incident to i; image of a(i->j) only on
    a(i->j), c(i), c(j); image of c(i) only on c(i).
    """
    field = a.field
    zero = field.zero
    for q, b in enumerate(a.basis):
        col = lin.columns[q]
        support = {p for p, v in enumerate(col) if v != zero}
        if b.kind == IDEM:
            allowed = {
                p
                for p, bb in enumerate(a.basis)
                if bb.kind == ARROW and b.at in (bb.at, bb.to)
            }
        elif b.kind == ARROW:
            allowed = {q, a.index(cycle(b.at)), a.index(cycle(b.to))}
        else:
            allowed = {q}
        if not support <= allowed:
            return False
    return True
