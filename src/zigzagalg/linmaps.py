"""Derivation-type linear maps on a zigzag algebra.

Three flavors of one identity, each a linear condition on a map Theta
written against the canonical basis: Theta(x * y) = Theta(x) . y + x . Theta(y)
for an inner product * and an outer product . (:data:`FLAVOR_PRODUCTS`):

    derivation   * = xy,       . = xy        Theta(xy) = Theta(x) y + x Theta(y)
    jordan       * = xy + yx,  . = xy + yx   the derivation identity for x o y = xy + yx
    anti         * = xy,       . = yx        Theta(xy) = y Theta(x) + Theta(y) x

Two independent routes produce derivation spaces and are kept independent on
purpose: :func:`solve` takes the kernel of the Leibniz constraint system over
the dim^2 matrix coefficients of Theta, while :func:`structured_space` spans
the paper's closed form, written down with no solve (a ``t`` and a ``d`` per
arrow, every edge sum of ``d`` equal).  Agreement between the two, and
HH^0 / HH^1, are left to :mod:`zigzagalg.analysis`, never assumed here.

:func:`solve` emits, column by column, the equations over a pool of
unknowns (those no single-entry family forces to zero, nor, for jordan, a
one-entry outer row doubled on the diagonal), each restricted to the pool,
and eliminates them once, so its cost follows the pool, jordan's from one
side (one outer table, each pair q <= r and each family read once);
:func:`leibniz_system` is the same emission over every column.
:func:`verify_map` audits in integers, off the product groupings of the
algebra, which generation never reads; :func:`solve` walks jordan maps as
derivations first; if all pass, :func:`derivation_space` takes Der = JDer and
:func:`anti_space` Anti as the JDer maps that vanish on commutators.

A map is a sparse dict from the flat index p*dim + q to the nonzero
coefficient of b_p in Theta(b_q).  Systems, kernels, canonical bases, span
checks and the audit all work on these dicts.  :func:`structured_space` and
:func:`inner_space` eliminate the int maps :func:`structured_generators` and
:func:`ad_map` build (residues mod p over GF(p)) as they come: no validation
and no ``Fraction``.  ``a`` is a ``ZigzagAlgebra``, not imported here.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property

from . import exactlin
from .exactlin import _canonical, _canonical_kernel, _in_span, _int_row, _kernel, field_rows, normalize_row
from .exactlin import span_canonical_basis  # not called here: benchmarks/test_tracing.py asserts this binding

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


class MapSpace:
    """A subspace, stored as its canonical basis: the maps of one flavor, or,
    labelled ``"center"``, elements of the algebra (:func:`zigzag.center`).

    ``ints`` are its canonical int rows (see :mod:`exactlin`), sparse maps
    or elements in pivot order, so equal spaces have equal ``ints``;
    ``rows``, the RREF rows in the field, are built on first read;
    ``derivations``, set by :func:`solve` on jordan spaces only, whether
    every basis map passed the derivation audit.
    """

    def __init__(self, flavor: str, field, ints: list) -> None:
        self.derivations = False
        self.flavor = flavor
        self.field = field
        self.ints = ints
        self.dimension = len(ints)

    @cached_property
    def rows(self) -> list:
        return field_rows(self.field, self.ints)

    def contains(self, maps) -> bool:
        """Whether every sparse flat-index map in ``maps`` lies in this space."""
        return _in_span(self.ints, maps, self.field)

    def __repr__(self) -> str:
        return f"MapSpace({self.flavor!r}, dim={self.dimension})"


def _size(fam) -> int:
    return len(fam[0]) + len(fam[1])


def _common(fams) -> set | None:
    """The indices in the exceptions (the union of the pair) of every family,
    None for no family: the smallest family's (``fams`` put first in place
    if there are several), filtered by each other one, as a union per family
    would cost O(degree) each at a hub."""
    if not fams:
        return None
    if len(fams) > 2:
        fams.sort(key=_size)
    elif len(fams) == 2 and _size(fams[0]) > _size(fams[1]):
        fams.reverse()
    keep = {*fams[0][0], *fams[0][1]}
    for e, f in fams[1:]:
        keep = {k for k in keep if k in e or k in f}
    return keep


def _leibniz_equations(a: ZigzagAlgebra, flavor: str, pool=None):
    """(pool, eqs): the flavor's equations over the dim^2 coefficients
    x[u, q] of Theta (column u*dim + q), from ``a.products`` and
    :data:`FLAVOR_PRODUCTS`.  The equation at (q, r, p) is coordinate p of
    Theta(b_q * b_r) - Theta(b_q) . b_r - b_q . Theta(b_r), its small-int
    coefficients summed as ints, zeros in the field (-2 in GF(2)) kept.
    ``pool`` lists, increasing, the columns no single-entry family forces to
    zero, unless given, less for jordan the x[u, y] of each outer row of b_y
    whose one entry c x[u, y] makes its equation at (y, y) 2c x[u, y]; ``eqs``
    are the equations restricted to it, emitted column by column, with
    pool[k] labelled len(pool) - 1 - k, one row per coordinate (q, r, p)
    (jordan: q <= r), so no two rows are one equation.  One pass over the
    products builds every index; none outlives the call.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor == "jordan" and a.field.characteristic == 2:
        raise CharacteristicTwoError(
            "jordan flavor degenerates in characteristic 2: the symmetrized product is not usable"
        )
    inner, outer = FLAVOR_PRODUCTS[flavor]
    # with both products xy + yx the equations at (q, r) and (r, q) are the
    # same, so a pair is kept in the order q <= r, and the two outer sides
    # are one table, built, indexed and read once
    symmetric = set(inner) == set(outer) == {XY, YX}
    sides = 1 if symmetric else 2
    dim = a.dim

    # One pass over the products writes every index.  Per side, right / left:
    # S[y]: p -> u if coordinate p of Theta(b_q) . b_y / of b_y . Theta(b_r)
    # holds one unknown, x[u, q] / x[u, r], and -1 if it holds more; by[u]:
    # the (y, p) of each -1 term of x[u, .], once per product that writes
    # it; ys[p]: the y with p in S[y].  inner_at[q]: r -> s if the pair
    # (q, r) has the one inner term Theta(b_s), and -1 if more; inner_by[s]:
    # the (q, r) of each +1 term (if symmetric, q <= r); inner_qs[r]: the q
    # with an inner term at (q, r).
    indices = [([{} for _ in range(dim)], [[] for _ in range(dim)], [set() for _ in range(dim)]) for _ in range(sides)]
    (right, right_by, right_ys), (left, left_by, left_ys) = indices[0], indices[-1]
    inner_at, inner_by, inner_qs = [{} for _ in range(dim)], [[] for _ in range(dim)], [set() for _ in range(dim)]
    # b_x b_y = b_p puts x[x, .] in the right side at y in order XY, where
    # Theta(b_q) . b_y is Theta(b_q) b_y, and x[y, .] in the left side at x;
    # in order YX, Theta(b_q) . b_x is b_x Theta(b_q), and the two swap.  If
    # symmetric, the left side of one order is the right side of the other.
    writes = [(*indices[k], (o == XY) == (k == 0)) for o in outer for k in range(sides)]
    for (x, y), p in a.products.items():
        for side, by, ys, at_y in writes:
            at, u = (y, x) if at_y else (x, y)
            if side[at].setdefault(p, u) != u:
                side[at][p] = -1
            by[u].append((at, p))
            ys[p].add(at)
        for o in inner:
            q, r = (x, y) if o == XY else (y, x)
            if inner_at[q].setdefault(r, p) != p:
                inner_at[q][r] = -1
            inner_qs[r].add(q)
            if q <= r or not symmetric:
                inner_by[p].append((q, r))

    # A one-entry right[r][p] = u forces x[u, q] for every q with no inner
    # term at (q, r) and p not in left[q]; a one-entry left[q][p] = u forces
    # x[u, r] likewise; a single inner term s at (q, r) forces x[p, s] for
    # every p in neither right[r] nor left[q] (the coefficient c of a one
    # entry is -1, or -2 where two products write it, nonzero where the
    # flavor is defined).  A family is the pair of sets its exceptions lie
    # in; row u and column s of X keep the exceptions common to all their
    # families, or every index (None) if they have none.  If symmetric, the
    # families of (q, r) and (r, q) are one, and a one-entry right[r][p] = u
    # forces x[u, r] too if b_r b_r has no inner term: (r, r, p) is 2c x[u, r].
    if pool is None:
        row_fams, col_fams = ([[] for _ in range(dim)] for _ in range(2))
        diagonal = set()
        for y in range(dim):
            for side, fams, ys in ((right, inner_qs[y], left_ys), (left, inner_at[y], right_ys))[:sides]:
                for p, u in side[y].items():
                    if u >= 0:
                        row_fams[u].append((fams, ys[p]))
                        if symmetric and y not in inner_at[y]:
                            diagonal.add(u * dim + y)
            for r, s in inner_at[y].items():
                if s >= 0 and (y <= r or not symmetric):
                    col_fams[s].append((right[r], left[y]))
        cols_ok = [_common(f) for f in col_fams]
        pool = [
            u * dim + q
            for u, ok in enumerate(map(_common, row_fams))
            for q in (range(dim) if ok is None else sorted(ok))
            if (cols_ok[q] is None or u in cols_ok[q]) and u * dim + q not in diagonal
        ]
    # x[u, c] enters (c, y, p) by right terms, (y, c, p) by left and (q, r, u)
    # by inner ones, each term once per product that writes it, so a term two
    # products write sums to -2 here; if symmetric, q <= r, and a right term
    # at (c, y) with y < c is the left one at (y, c), while at y = c it is
    # both
    eqs = {}
    get = eqs.get
    top = len(pool) - 1
    for k, j in enumerate(pool):
        u, c = divmod(j, dim)
        label = top - k
        for y, p in right_by[u]:
            key = (y, c, p) if symmetric and y < c else (c, y, p)
            d = -2 if symmetric and y == c else -1
            if (row := get(key)) is None:
                eqs[key] = {label: d}
            else:
                row[label] = row.get(label, 0) + d
        for y, p in () if symmetric else left_by[u]:
            if (row := get(key := (y, c, p))) is None:
                eqs[key] = {label: -1}
            else:
                row[label] = row.get(label, 0) - 1
        for q, r in inner_by[c]:
            if (row := get(key := (q, r, u))) is None:
                eqs[key] = {label: 1}
            else:
                row[label] = row.get(label, 0) + 1
    return pool, list(eqs.values())


def leibniz_system(a: ZigzagAlgebra, flavor: str) -> list:
    """Constraint rows over the dim^2 coefficients x[p, q] of Theta: the
    equations :func:`_leibniz_equations` emits over every column, those
    nonzero in the field normalized, deduplicated and sorted here (the
    eliminator does neither), each a sparse row of field elements, so the
    tests can compare them row for row with their oracle's full system.
    Their kernel is the flavor's solution space."""
    n = a.dim * a.dim
    _, eqs = _leibniz_equations(a, flavor, range(n - 1, -1, -1))  # each column labels itself
    field = a.field
    mod = field.characteristic
    keys = set()
    for row in eqs:
        if row := {j: c for j, c in row.items() if (c % mod if mod else c)}:
            keys.add(tuple(sorted(normalize_row(field, row).items())))
    return [{j: field.convert(c) for j, c in key} for key in sorted(keys)]


def verify_map(a: ZigzagAlgebra, lin: dict, flavor: str) -> bool:
    """Check the flavor identity for one sparse flat-index map on every
    ordered basis pair, in integers.

    This is the post-hoc audit of solver output; by bilinearity, holding on basis
    pairs is holding everywhere.  A non-int map is scaled by the lcm of its
    denominators (the identity is homogeneous; a value outside the field raises
    FieldMismatchError).  Each entry x[u, c] = v (b_u in Theta(b_c)) is added
    into the equations it meets, keyed (q, r, p) for coordinate p at (b_q, b_r):

    * +v at (q, r, u) for each (q, r) in ``a.factors[c]``;
    * -v at (c, r, p) for each b_u b_r = b_p (``a.left_products[u]``) and at
      (q, c, p) for each b_q b_u = b_p (``a.right_products[u]``); anti swaps
      the two: (c, r, p) for b_r b_u = b_p, (q, c, p) for b_u b_q = b_p;
    * jordan then adds each finished sum at (q, r, p), q > r, into the one
      at (r, q, p): its equations at (q, r) and (r, q) are the same.

    The map passes iff every sum is zero (mod p over GF(p)), the verdict of
    a walk over all dim^2 pairs.  A folded jordan sum at (q, r, p), q < r,
    is the derivation sum there plus the one at (r, q, p), and likewise for
    the anti sums; at (q, q) it is the derivation (and anti) one, half the
    doubled x o x sum.  So a map passing the derivation or the anti walk
    passes jordan's, and jordan's verdict at (q, q) is the derivation one
    outside characteristic 2, and over GF(2), where :func:`solve` refuses
    jordan, D(x^2) = D(x)x + xD(x) instead of a vacuous check.  Raises
    ValueError for an unknown flavor or a key outside 0..dim^2-1.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    mod = a.field.characteristic
    dim = a.dim
    try:
        lin = lin if type(sum(lin.values())) is int else _int_row(lin, mod)  # a Fraction or a float makes the sum one
    except TypeError:  # a value that is no number
        lin = _int_row(lin, mod)
    # the products by which Theta(b_c) meets the pairs (c, r) and (q, c)
    at_left, at_right = (a.right_products, a.left_products) if flavor == "anti" else (a.left_products, a.right_products)
    acc = {}
    get = acc.get  # each sum's key is built once, bound by := for the store
    for j, v in lin.items():
        u, c = divmod(j, dim)
        if not 0 <= u < dim:  # c is in range whatever j is
            raise ValueError(f"map key {j} out of range for dimension {dim}")
        for q, r in a.factors[c]:
            acc[k] = get(k := (q, r, u), 0) + v
        for r, p in at_left[u]:
            acc[k] = get(k := (c, r, p), 0) - v
        for q, p in at_right[u]:
            acc[k] = get(k := (q, c, p), 0) - v
    if flavor == "jordan":
        for q, r, p in [key for key in acc if key[0] > key[1]]:
            acc[k] = get(k := (r, q, p), 0) + acc.pop((q, r, p))
    return not any(v % mod for v in acc.values()) if mod else not any(acc.values())


def solve(a: ZigzagAlgebra, flavor: str) -> MapSpace:
    """Kernel of the flavor's constraint system, as a canonical MapSpace, from
    one pass over the pool's columns and one elimination.

    Columns off the pool are zero on the kernel, and the elimination makes
    each single-entry row a pivot ``{c: 1}``, so the kernel mapped back is
    that of :func:`leibniz_system`.  Labelled in decreasing order, the pool
    makes the int kernel read off the pivot rows canonical, read backwards
    (see :mod:`exactlin`), so no second elimination, RREF or ``Fraction``
    is needed.  Every basis map is re-verified on all basis pairs, jordan's
    as derivations and, only where that fails, as jordan maps; a failure is
    a solver bug, reported as InternalInvariantError, not a wrong answer.
    """
    pool, eqs = _leibniz_equations(a, flavor)
    space = MapSpace(flavor, a.field, _canonical_kernel(a.field, eqs, pool))
    walk = "derivation" if flavor == "jordan" else flavor
    failed = [row for row in space.ints if not verify_map(a, row, walk)]
    if any(walk == flavor or not verify_map(a, row, flavor) for row in failed):
        raise InternalInvariantError(f"solved {flavor} basis map fails the defining identity")
    space.derivations = flavor == "jordan" and not failed
    return space


def derivation_space(a: ZigzagAlgebra, jordan: MapSpace | None) -> MapSpace:
    """Der as :func:`solve` gives it, but read off ``jordan`` when :func:`solve`
    recorded that its basis passed the derivation audit: Der lies in JDer, as
    D(x o y) = D(x) o y + x o D(y), so Der = JDer."""
    if jordan is not None and jordan.derivations:
        return MapSpace("derivation", a.field, jordan.ints)
    return solve(a, "derivation")


def anti_space(a: ZigzagAlgebra, jordan: MapSpace | None) -> MapSpace:
    """Anti as :func:`solve` gives it, read off ``jordan`` if its record says
    JDer = Der: Anti lies in JDer, and a derivation D has the anti defect
    D(xy) - yD(x) - D(y)x = D(xy - yx).  Audited as :func:`solve`'s rows."""
    if jordan is None or not jordan.derivations:
        return solve(a, "anti")
    at = defaultdict(list)  # c -> the (i, u, v) of each term v b_u of D_i(b_c), D_i JDer's row i
    for i, row in enumerate(jordan.ints):
        for s, v in row.items():
            at[s % a.dim].append((i, s // a.dim, v))
    eqs, done = defaultdict(dict), set()  # (p, t, u): coordinate u of D(b_p - b_t), b_None = 0
    for (q, r), p in a.products.items():
        if (t := a.products.get((r, q))) != p and (t is None or q < r) and (p, t) not in done:
            done.add((p, t))  # each nonzero commutator b_q b_r - b_r b_q = b_p - b_t once
            for s, sign in ((p, 1), (t, -1)):
                for i, u, v in at[s]:
                    row = eqs[p, t, u]
                    row[i] = row.get(i, 0) + sign * v
    kernel = _kernel(a.field, exactlin._eliminate(a.field, eqs.values(), by_support=False), jordan.dimension)
    maps = [Counter() for _ in kernel]
    for m, vec in zip(maps, kernel.values()):
        for i, w in vec.items():
            m.update({s: w * v for s, v in jordan.ints[i].items()})
    space = MapSpace("anti", a.field, _canonical(a.field, exactlin._eliminate(a.field, maps)))
    if not all(verify_map(a, row, "anti") for row in space.ints):
        raise InternalInvariantError("anti basis map read off JDer fails the defining identity")
    return space


def materialize(a: ZigzagAlgebra, t: dict, d: dict) -> dict:
    """The sparse flat-index map of the closed-form derivation parameters,
    built from their nonzeros, each converted into the field.  Per arrow
    (u, v): t[(u, v)] is the coefficient of a(u->v) in the image of e(v) (its
    negative appears in the image of e(u)), and d[(u, v)] the coefficient of
    a(u->v) in its own image.  Images of cycles are forced: c(i) maps to
    (d[(i, j)] + d[(j, i)]) c(i) for any neighbor j, so those sums must agree
    across the neighbors of i.  Raises ValueError if the parameters mention a
    non-arrow or violate that per-vertex consistency."""
    for key in list(t) + list(d):
        if key not in a.a_at:
            raise ValueError(f"parameter for non-arrow {key}")
    t = {ar: c for ar, v in t.items() if (c := a.field.convert(v))}
    d = {ar: c for ar, v in d.items() if (c := a.field.convert(v))}
    return _materialize(a, t, d)


def _materialize(a: ZigzagAlgebra, t: dict, d: dict) -> dict:
    """:func:`materialize` of nonzero arrow parameters ``t`` and ``d`` taken as
    they are: field elements, or ints (residues over GF(p)) for an int map."""
    mod = a.field.characteristic
    a_at, e_at, c_at = a.a_at, a.e_at, a.c_at
    # no two terms below share a coordinate, so each entry is stored as is
    dim = a.dim
    out: dict = {}
    for (u, v), tv in t.items():
        row = a_at[(u, v)]
        out[row * dim + e_at[v]] = tv
        out[row * dim + e_at[u]] = minus = -tv % mod if mod else -tv
        # a(v->u) maps to -t[(u, v)] c(v) + t[(u, v)] c(u)
        out[c_at[v] * dim + a_at[(v, u)]] = minus
        out[c_at[u] * dim + a_at[(v, u)]] = tv
    for ar, dv in d.items():
        out[a_at[ar] * dim + a_at[ar]] = dv
    # c(i) maps to (d[(i, j)] + d[(j, i)]) c(i), the same for every neighbor
    # j; each edge d touches gives its sum at both ends
    sums: dict = {}
    for u, v in {(min(ar), max(ar)) for ar in d}:
        s = d.get((u, v), 0) + d.get((v, u), 0)
        s = s % mod if mod else s
        for i in (u, v):
            sums.setdefault(i, []).append(s)
    for i, at_i in sorted(sums.items()):
        if len(at_i) < len(a.nbrs[i]):  # an edge d does not touch gives zero
            at_i.append(0)
        if len(set(at_i)) > 1:
            raise ValueError(
                f"inconsistent parameters: cycle coefficients at vertex {i} disagree across neighbors"
            )
        if at_i[0]:
            out[c_at[i] * dim + c_at[i]] = at_i[0]
    return out


def structured_parameter_basis(a: ZigzagAlgebra) -> list:
    """Canonical basis of the parameter space (t_a, d_a) modulo consistency,
    as the (t, d) dict pairs :func:`materialize` takes: the paper's closed
    form, in ints (-1 is p - 1 over GF(p)).  A unit t per arrow, in
    ``a.arrows`` order; then, per arrow (u, v) in order, d = 1 on it and on
    the first arrow (min, max) of every other edge if (u, v) is an arrow of
    the last edge, else, if u > v, d = -1 on (v, u) and 1 on (u, v): the
    kernel of per-vertex consistency, all edge sums d(u->v) + d(v->u) equal."""
    minus_one = a.field.characteristic - 1  # -1 over the rationals
    last = max(ar for ar in a.arrows if ar[0] < ar[1])
    out = [({ar: 1}, {}) for ar in a.arrows]
    for u, v in a.arrows:
        if last in ((u, v), (v, u)):
            out.append(({}, {ar: 1 for ar in a.arrows if ar == (u, v) or ar[0] < ar[1] and ar != last}))
        elif u > v:
            out.append(({}, {(v, u): minus_one, (u, v): 1}))
    return out


def structured_generators(a: ZigzagAlgebra) -> list:
    """Int maps spanning the structured space: :func:`materialize`'s
    arithmetic on the int parameter basis, no value converted."""
    return [_materialize(a, t, d) for t, d in structured_parameter_basis(a)]


def structured_space(a: ZigzagAlgebra) -> MapSpace:
    """Span of the materialized parameter basis, as a canonical MapSpace."""
    field = a.field
    return MapSpace("derivation", field, _canonical(field, exactlin._eliminate(field, structured_generators(a))))


def ad_map(a: ZigzagAlgebra, k: int) -> dict:
    """The commutator map [b_k, -] as a sparse flat-index map of ints: 1 and
    -1 over the rationals, 1 and p - 1 over GF(p).  Raises ValueError for k
    outside 0..dim-1."""
    if not 0 <= k < a.dim:
        raise ValueError(f"basis index {k} out of range for dimension {a.dim}")
    minus_one = a.field.characteristic - 1  # -1 over the rationals
    dim = a.dim
    out = {p * dim + q: 1 for q, p in a.left_products[k]}  # b_k b_q = b_p
    for q, p in a.right_products[k]:  # b_q b_k = b_p
        if out.pop(p * dim + q, None) is None:  # else b_k b_q = b_q b_k: it cancels
            out[p * dim + q] = minus_one
    return out


def inner_space(a: ZigzagAlgebra) -> MapSpace:
    """Span of all commutator maps [b_k, -], as a canonical MapSpace."""
    maps = [ad_map(a, k) for k in range(a.dim)]
    return MapSpace("derivation", a.field, _canonical(a.field, exactlin._eliminate(a.field, maps)))

