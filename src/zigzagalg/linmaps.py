"""Derivation-type linear maps on a zigzag algebra.

Three flavors of the same game, each a linear condition on a map Theta
written against the canonical basis:

    derivation   Theta(xy) = Theta(x) y + x Theta(y)
    jordan       the same for the symmetrized product x o y = xy + yx
    anti         Theta(xy) = Theta(y) x + y Theta(x)

Two independent routes produce derivation spaces and are kept independent on
purpose: :func:`solve` builds the full Leibniz constraint system over the
dim^2 matrix coefficients of Theta and takes its kernel, while
:func:`structured_space` materializes the closed parametric form (one ``t``
and one ``d`` parameter per arrow, tied by antisymmetry and per-vertex
consistency).  Agreement between the two is checked by callers, never
assumed here.

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

FLAVORS = ("derivation", "jordan", "anti")


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


def _producer_tables(a: ZigzagAlgebra):
    """left[r] lists (u, p) with b_u b_r = b_p; right[q] lists (u, p) with b_q b_u = b_p."""
    dim = a.dim
    table = a.table
    left = [[] for _ in range(dim)]
    right = [[] for _ in range(dim)]
    for u in range(dim):
        row = table[u]
        for v in range(dim):
            p = row[v]
            if p >= 0:
                left[v].append((u, p))
                right[u].append((v, p))
    return left, right


def leibniz_system(a: ZigzagAlgebra, flavor: str) -> Matrix:
    """Constraint matrix over the dim^2 coefficients x[p, q] of Theta.

    One equation per basis pair (q, r) and output coordinate p; zero rows are
    dropped and duplicate rows (after canonical rescaling) removed.  The
    kernel of the result is exactly the flavor's solution space.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    field = a.field
    if flavor == "jordan" and field.characteristic == 2:
        raise CharacteristicTwoError(
            "jordan flavor degenerates in characteristic 2: the symmetrized product is not usable"
        )
    one = field.one
    dim = a.dim
    table = a.table
    left, right = _producer_tables(a)

    def bump(eqs: dict, p: int, col: int, delta) -> None:
        row = eqs.setdefault(p, {})
        row[col] = field.add(row.get(col, field.zero), delta)

    rows = []
    neg_one = field.neg(one)
    for q in range(dim):
        for r in range(dim):
            eqs: dict = {}
            if flavor == "derivation":
                s = table[q][r]
                if s >= 0:
                    for p in range(dim):
                        bump(eqs, p, p * dim + s, one)
                for u, p in left[r]:
                    bump(eqs, p, u * dim + q, neg_one)
                for u, p in right[q]:
                    bump(eqs, p, u * dim + r, neg_one)
            elif flavor == "anti":
                s = table[q][r]
                if s >= 0:
                    for p in range(dim):
                        bump(eqs, p, p * dim + s, one)
                for u, p in left[q]:
                    bump(eqs, p, u * dim + r, neg_one)
                for u, p in right[r]:
                    bump(eqs, p, u * dim + q, neg_one)
            else:  # jordan
                for s in (table[q][r], table[r][q]):
                    if s >= 0:
                        for p in range(dim):
                            bump(eqs, p, p * dim + s, one)
                for u, p in left[r]:
                    bump(eqs, p, u * dim + q, neg_one)
                for u, p in right[r]:
                    bump(eqs, p, u * dim + q, neg_one)
                for u, p in left[q]:
                    bump(eqs, p, u * dim + r, neg_one)
                for u, p in right[q]:
                    bump(eqs, p, u * dim + r, neg_one)
            for row in eqs.values():
                clean = {j: v for j, v in row.items() if v != field.zero}
                if clean:
                    rows.append(clean)

    seen = {}
    for row in rows:
        nr = normalize_row(field, row)
        seen.setdefault(tuple(sorted(nr.items())), nr)
    ordered = [seen[k] for k in sorted(seen)]
    return Matrix.from_sparse(field, len(ordered), dim * dim, ordered)


def verify_map(a: ZigzagAlgebra, lin: dict | LinearMap, flavor: str) -> bool:
    """Check the flavor identity for one map on every ordered basis pair.

    ``lin`` is a sparse flat-index map or a LinearMap.  This is the post-hoc
    audit of solver output; by bilinearity, holding on basis pairs is holding
    everywhere.  Works on the sparse support of the map, so auditing a whole
    basis stays cheap even at dim^2 pairs.
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

    for q in range(dim):
        empty_q = not cols_nz[q]
        rowq = table[q]
        for r in range(dim):
            acc: dict = {}
            if flavor == "derivation":
                s = rowq[r]
                if s < 0 and empty_q and not cols_nz[r]:
                    continue
                if s >= 0:
                    plus_col(acc, s)
                minus_rmul(acc, q, r)
                minus_lmul(acc, q, r)
            elif flavor == "anti":
                s = rowq[r]
                if s < 0 and empty_q and not cols_nz[r]:
                    continue
                if s >= 0:
                    plus_col(acc, s)
                minus_rmul(acc, r, q)
                minus_lmul(acc, r, q)
            else:  # jordan
                s1, s2 = rowq[r], table[r][q]
                if s1 < 0 and s2 < 0 and empty_q and not cols_nz[r]:
                    continue
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

    Every basis map of the result is re-verified against the defining
    identity on all basis pairs; a failure there is a solver bug, reported as
    InternalInvariantError rather than a wrong answer.
    """
    system = leibniz_system(a, flavor)
    kernel = nullspace_basis(system, sparse=True)
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


def _consistency_sums(a: ZigzagAlgebra, d: dict) -> dict:
    sums = {}
    for i in range(1, a.graph.n + 1):
        vals = []
        for j in a.graph.neighbors(i):
            vals.append(a.field.add(d[(i, j)], d[(j, i)]))
        if not vals:
            continue
        if any(v != vals[0] for v in vals[1:]):
            raise ValueError(
                f"inconsistent parameters: cycle coefficients at vertex {i} disagree across neighbors"
            )
        sums[i] = vals[0]
    return sums


def _parameter_entries(a: ZigzagAlgebra, params: DerivationParams) -> dict:
    """The sparse flat-index map the parameters describe.  Raises ValueError
    if the parameters mention a non-arrow or violate per-vertex consistency."""
    field = a.field
    zero = field.zero
    arrows = [(ar.source, ar.target) for ar in a.quiver.arrows]
    arrow_set = set(arrows)
    for key in list(params.t) + list(params.d):
        if key not in arrow_set:
            raise ValueError(f"parameter for non-arrow {key}")
    t = {ar: params.t.get(ar, zero) for ar in arrows}
    d = {ar: params.d.get(ar, zero) for ar in arrows}
    sums = _consistency_sums(a, d)

    dim = a.dim
    out: dict = {}

    def put(p: int, q: int, v) -> None:
        j = p * dim + q
        x = field.add(out.get(j, zero), v)
        if x == zero:
            out.pop(j, None)
        else:
            out[j] = x

    e_at = {i: a.index(idem(i)) for i in range(1, a.graph.n + 1)}
    c_at = {i: a.index(cycle(i)) for i in range(1, a.graph.n + 1)}
    a_at = {(u, v): a.index(arrow(u, v)) for (u, v) in arrows}

    for (u, v), tv in t.items():
        if tv != zero:
            row = a_at[(u, v)]
            put(row, e_at[v], tv)
            put(row, e_at[u], field.neg(tv))
    for (u, v), dv in d.items():
        if dv != zero:
            put(a_at[(u, v)], a_at[(u, v)], dv)
    for (u, v) in arrows:
        rv = t[(v, u)]
        if rv != zero:
            put(c_at[u], a_at[(u, v)], field.neg(rv))
            put(c_at[v], a_at[(u, v)], rv)
    for i, sm in sums.items():
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
    arrows = [(ar.source, ar.target) for ar in a.quiver.arrows]
    m = len(arrows)
    pos = {ar: k for k, ar in enumerate(arrows)}
    one = field.one
    rows = []
    for i in range(1, a.graph.n + 1):
        nbrs = a.graph.neighbors(i)
        if len(nbrs) < 2:
            continue
        j0 = nbrs[0]
        for j in nbrs[1:]:
            row = {
                m + pos[(i, j0)]: one,
                m + pos[(j0, i)]: one,
                m + pos[(i, j)]: field.neg(one),
                m + pos[(j, i)]: field.neg(one),
            }
            rows.append(row)
    system = Matrix.from_sparse(field, len(rows), 2 * m, rows)
    out = []
    for vec in nullspace_basis(system):
        t = {ar: vec[pos[ar]] for ar in arrows if vec[pos[ar]] != field.zero}
        d = {ar: vec[m + pos[ar]] for ar in arrows if vec[m + pos[ar]] != field.zero}
        out.append(DerivationParams(t=t, d=d))
    return out


def structured_space(a: ZigzagAlgebra) -> MapSpace:
    """Span of the materialized parameter basis, as a canonical MapSpace."""
    maps = [_parameter_entries(a, p) for p in structured_parameter_basis(a)]
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


def hh_dims(a: ZigzagAlgebra) -> HochschildDims:
    """Dimensions of the center and of (derivations mod inner derivations).

    Cross-checks that must hold in any field, and whose failure means a bug,
    not a property of the input: the inner dimension computed as an ad-span
    rank must equal dim A - dim center, and the inner span must sit inside
    the solved derivation span.
    """
    cen = center(a)
    der = solve(a, "derivation")
    inner = inner_space(a)
    if inner.dimension != a.dim - cen.dimension:
        raise InternalInvariantError(
            f"inner dimension {inner.dimension} != dim algebra {a.dim} - dim center {cen.dimension}"
        )
    if not der.contains(inner.rows):
        raise InternalInvariantError("inner derivations do not sit inside the solved derivation space")
    return HochschildDims(cen.dimension, der.dimension - inner.dimension)


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
