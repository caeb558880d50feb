"""Exact linear algebra over the rationals or a prime field.

Everything in this package that looks like linear algebra goes through this
module: reduced row-echelon forms, kernels, and span comparisons, all with
exact arithmetic and no floating point.  It works on ints (fraction-free
over the rationals, residues mod p), scaling ``Fraction`` rows where they
enter (an int row is taken as it is) and making ``Fraction``s only for a
returned result; spans compare by canonical int rows (:func:`_canonical`).
Every kernel is one :func:`_eliminate` then :func:`_kernel`, of rows
:func:`_int_rows` validated or of the package's own int rows, taken as they
come: repeated or rescaled rows reduce to zero like any other dependent row,
and only the results are scaled, canonical rows to primitive ints and kernel
vectors at their free column.  The elimination sorts rows by support for
a span of generators and for rows from outside, as a hub needs, and takes
the package's own equation systems in the order they were emitted (see
:func:`_eliminate`).  A field only converts values into itself
(``convert``); arithmetic on its elements is plain Python, mod p in GF(p).

Matrices are stored as sparse rows (dict column -> nonzero scalar), as the
Leibniz systems downstream need: many rows, a few nonzero entries each.

Canonical conventions, relied on by callers and tests:

* ``rref`` returns (reduced, pivot_cols, rank), ``reduced`` the unique reduced
  row-echelon form (leading 1s, pivot columns cleared, rows ordered by pivot
  column), a row per input row, the zero rows ``{}`` at the bottom.
* ``nullspace_basis`` returns one vector per free column, ordered by the free
  column index, with the free variable set to 1, then the pivot coordinates
  in increasing order: entry v at f of the int pivot row of c, pivot value
  d, gives -v/d.  Every other coordinate of the vector of free column f is a
  pivot column below f; read with the column order reversed, the vectors
  are the kernel's own RREF, which :func:`_canonical_kernel` reads off.
* ``span_dim`` / ``span_equal`` do not depend on generator order or scaling.

A vector is a sparse dict index -> nonzero scalar in the field (dim^2
coordinates, a few nonzero).  Kernels, canonical bases and span checks take
and return this form; :func:`_int_rows` validates rows from outside.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm


class FieldMismatchError(ValueError):
    """An entry or operand does not belong to the expected coefficient field."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981  # the least strong pseudoprime to all of _MR_BASES


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND (about 3.3 * 10^24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of arbitrary-precision rationals. Elements are ``Fraction``s."""

    characteristic = 0
    name = "rat"
    zero = Fraction(0)
    one = Fraction(1)

    def convert(self, x) -> Fraction:
        if isinstance(x, float):
            raise FieldMismatchError(f"floating point entry {x!r} rejected: exact arithmetic only")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise FieldMismatchError(f"cannot interpret {x!r} as a rational")

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("rat")

    def __repr__(self) -> str:
        return "Rationals()"


class PrimeField:
    """GF(p) for a prime p. Elements are ints in [0, p)."""

    def __init__(self, p: int) -> None:
        if p >= PRIME_BOUND:
            raise ValueError(f"{p} >= {PRIME_BOUND}: primality cannot be certified there")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"gf:{p}"
        self.zero = 0
        self.one = 1 % p

    def convert(self, x) -> int:
        if isinstance(x, float):
            raise FieldMismatchError(f"floating point entry {x!r} rejected: exact arithmetic only")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldMismatchError(f"{x} has no image in GF({self.p})")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise FieldMismatchError(f"cannot interpret {x!r} as an element of GF({self.p})")

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("gf", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


RATIONALS = Rationals()


def parse_field(spec: str):
    """Parse a field tag: ``rat`` or ``gf:<p>``."""
    if spec == "rat":
        return RATIONALS
    if spec.startswith("gf:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}: expected gf:<prime>") from None
        return PrimeField(p)
    raise ValueError(f"bad field spec {spec!r}: expected 'rat' or 'gf:<p>'")


def _int_row(row: dict, p: int = 0) -> dict:
    """``row``, its values in the field (GF(p) for p > 0), times the lcm of
    its denominators: ints, a copy if they are."""
    if all(type(x) is int for x in row.values()):
        return dict(row)
    if bad := [x for x in row.values() if not isinstance(x, (int, Fraction)) or p and x.denominator % p == 0]:
        raise FieldMismatchError(f"{bad[0]!r} is not an element of {f'GF({p})' if p else 'the rationals'}")
    L = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (L // x.denominator) for j, x in row.items()}


def _int_rows(field, rows: Sequence[dict], ncols: int | None = None) -> Sequence[dict]:
    """Sparse ``rows`` from outside, validated, as int rows for
    :func:`_eliminate`, which does not mutate them: over the rationals a row
    holding a ``Fraction`` scaled by :func:`_int_row`, any other as it is.
    ``ncols`` defaults to one more than the largest column.

    Raises TypeError for a row that is not a dict, ValueError for a column
    out of range or a stored entry that is zero in the field (in GF(p),
    any multiple of p), and FieldMismatchError for any other entry that is
    not an element of the field: an ``int`` or ``Fraction`` over the
    rationals, an ``int`` in 1..p-1 in GF(p).
    """
    for i, r in enumerate(rows):  # before the largest column is taken off them
        if not isinstance(r, dict):
            raise TypeError(f"row {i} is a {type(r).__name__}, not a dict column -> scalar")
    if ncols is None:
        ncols = 1 + max((j for r in rows for j in r), default=-1)
    p = field.characteristic
    scalars = int if p else (int, Fraction)
    for i, r in enumerate(rows):
        for j, v in r.items():
            if not 0 <= j < ncols:
                raise ValueError(f"column index {j} out of range for {ncols} columns")
            if not (isinstance(v, scalars) and (0 < v < p if p else v)):
                if isinstance(v, (int, Fraction)) and not (v % p if p else v):
                    raise ValueError(f"row {i}, column {j}: stored entry is zero in {field.name}")
                raise FieldMismatchError(f"row {i}, column {j}: {v!r} is not an element of {field.name}")
    if p:
        return rows
    return [r if all(type(x) is int for x in r.values()) else _int_row(r) for r in rows]


def normalize_row(field, row: dict) -> dict:
    """Canonical scaling of a sparse int row, no entry zero in the field.

    Rational mode: divide by the gcd, make the leading (smallest-column)
    entry positive, so equal rows have equal dicts and integer growth stays
    bounded.  Prime mode: scale the leading entry to 1, mod p.
    """
    lead = min(row)
    if field.characteristic == 0:
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        return row if g == 1 else {j: v // g for j, v in row.items()}
    inv = pow(row[lead], -1, field.p)
    return {j: v * inv % field.p for j, v in row.items()}


def _reduce(row: dict, c: int, pivot: dict, p: int) -> None:
    """Clear column c of the int ``row`` in place with ``pivot``, the pivot
    row of c, one step per entry of ``pivot`` off c.  Over GF(p) (pivots lead
    with 1): row -= row[c] * pivot, mod p.  Over the rationals (p = 0),
    fraction-free: row := a*row - b*pivot, b/a = row[c]/pivot[c] in lowest
    terms with a > 0, then divided by its content if a != 1."""
    v = row.pop(c)
    if p:
        for k, w in pivot.items():
            if k != c:
                if nv := (row.get(k, 0) - v * w) % p:
                    row[k] = nv
                else:
                    del row[k]
        return
    g = gcd(v, pivot[c]) if pivot[c] > 0 else -gcd(v, pivot[c])
    a, b = pivot[c] // g, v // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, w in pivot.items():
        if k != c:
            if nv := row.get(k, 0) - b * w:
                row[k] = nv
            else:
                del row[k]
    if a != 1 and (g := gcd(*row.values())) > 1:
        for k in row:
            row[k] //= g


def _eliminate(field, rows: Iterable[dict], by_support: bool = True) -> dict:
    """Forward elimination into a pivot-column-keyed echelon dict.

    Entries are ints (any residues mod p); those zero in the field (-2 in
    GF(2)) are dropped as rows are scanned.  A single-entry row is the pivot
    row ``{c: 1}`` of its column: these are installed first, and their columns
    are dropped from every other row before it is used; a row left empty goes.
    The others, residues reduced mod p, are processed in one of two orders.
    ``by_support`` (spans of generators, and rows from outside) takes them
    shortest-first, which keeps fill-in negligible; rows of one length go
    in decreasing order of their sorted columns, ties in input order (two
    stable sorts).  That matters at a hub: rows x_h - x_j sharing column h,
    taken with j increasing, each reduce through the chain of all earlier
    ones (x_j1 - x_j, then x_j2 - x_j, ...), O(degree^2) steps; taken with j
    decreasing, each meets one earlier pivot and stops.  Without it they go
    in input order, which the package's own equation systems take (the
    kernels of :func:`_canonical_kernel` and anti's commutator equations):
    they cost the same reductions either way on stars, paths, cycles and
    complete graphs, and within 3% on random trees and graphs, so for them
    the sort is only overhead.  Rows are neither rescaled nor deduplicated
    first: a repeat of a row, in any scaling, reduces to zero against the
    pivot the first copy made, and the generated systems key every equation
    by its coordinate, so they hold no repeats.  The reduced row space is
    order-independent anyway: the RREF is unique.  Rows are reduced as ints
    (:func:`_reduce`); the pivot row of c is its RREF row times row[c].
    """
    p = field.characteristic
    pivots: dict = {}
    longer = []
    for r in rows:
        if len(r) > 1:
            longer.append(r)
        elif r:
            [(c, v)] = r.items()
            if v % p if p else v:
                pivots[c] = {c: 1}

    cands = [row for r in longer if (row := {j: w for j, v in r.items() if j not in pivots and (w := v % p if p else v)})]
    if by_support:
        cands.sort(key=sorted, reverse=True)
        cands.sort(key=len)

    for row in cands:
        while row:
            c = min(row)
            if c in pivots:
                _reduce(row, c, pivots[c], p)
                continue
            lead = row.pop(c)
            if p and lead != 1:
                inv = pow(lead, -1, p)
                row = {k: v * inv % p for k, v in row.items()}
            row[c] = 1 if p else lead
            pivots[c] = row
            break

    # back-substitution, descending pivot order: each row only ever pulls in
    # rows that are already fully reduced, so work stays proportional to the
    # actual nonzeros; a row holding no pivot column but its own has nothing
    # to clear
    for c in sorted(pivots, reverse=True):
        if len(held := (row := pivots[c]).keys() & pivots.keys()) > 1:
            for k in sorted(held)[1:]:  # c, the least column of its row, first
                _reduce(row, k, pivots[k], p)
    return pivots


def _canonical(field, pivots: dict) -> list:
    """The RREF rows of the pivot dict, over the rationals each scaled to the
    primitive int row with a positive leading entry: unique per span."""
    rows = [pivots[c] for c in sorted(pivots)]
    return rows if field.characteristic else [normalize_row(field, r) for r in rows]


def field_rows(field, rows: Sequence[dict]) -> list:
    """The RREF rows of canonical int ``rows``, in the field."""
    if field.characteristic:
        return list(rows)
    return [{j: Fraction(v, d) for j, v in r.items()} for r in rows for d in (r[min(r)],)]


def rref(rows: Sequence[dict], field=RATIONALS) -> tuple:
    """Unique reduced row-echelon form of sparse ``rows``, validated by
    :func:`_int_rows`: (reduced, pivot_cols, rank), ``reduced`` as many rows
    as ``rows``, the zero rows ``{}`` at the bottom."""
    pivots = _eliminate(field, _int_rows(field, rows))
    reduced = field_rows(field, _canonical(field, pivots))
    rank = len(reduced)
    return reduced + [{} for _ in range(len(rows) - rank)], tuple(sorted(pivots)), rank


def _kernel(field, pivots: dict, ncols: int) -> dict:
    """Free column f -> its :func:`nullspace_basis` vector in ints: over the
    rationals times the lcm D of the pivot values, then divided by its
    content, so primitive with a positive entry at f."""
    p = field.characteristic
    D = 1 if p else lcm(*(row[c] for c, row in pivots.items()))
    vecs = {f: {f: D} for f in range(ncols) if f not in pivots}
    for c in sorted(pivots):
        row = pivots[c]
        s = D // row[c]
        for j, v in row.items():
            if j != c:
                vecs[j][c] = -v % p if p else -v * s
    if D > 1:
        for vec in vecs.values():
            if (g := gcd(*vec.values())) > 1:
                for k in vec:
                    vec[k] //= g
    return vecs


def _canonical_kernel(field, rows: Iterable[dict], pool: Sequence) -> list:
    """Canonical int rows of the kernel of int ``rows`` (any residues mod p)
    that label column pool[k] len(pool) - 1 - k: its vectors read backwards."""
    kernel = _kernel(field, _eliminate(field, rows, by_support=False), len(pool))
    return [{pool[~k]: v for k, v in vec.items()} for vec in reversed(kernel.values())]  # pool[~k] = pool[len(pool) - 1 - k]


def nullspace_basis(rows: Sequence[dict], ncols: int, field=RATIONALS) -> list:
    """Canonical kernel basis of sparse ``rows`` over ``ncols`` columns,
    validated by :func:`_int_rows`: one vector per free column, free
    variable 1, each a dict column -> nonzero scalar."""
    kernel = _kernel(field, _eliminate(field, _int_rows(field, rows, ncols)), ncols)
    if field.characteristic:
        return list(kernel.values())
    return [{f: field.one} | {j: Fraction(v, vec[f]) for j, v in vec.items() if j != f} for f, vec in kernel.items()]


def span_dim(vectors: Sequence, field=RATIONALS) -> int:
    """Dimension of the span of sparse ``vectors``."""
    return len(_eliminate(field, _int_rows(field, vectors)))


def span_canonical_basis(vectors: Sequence, field=RATIONALS) -> list:
    """Canonical basis of the span of sparse ``vectors``: the nonzero rows
    of its RREF, in pivot order."""
    return field_rows(field, _canonical(field, _eliminate(field, _int_rows(field, vectors))))


def span_equal(a: Sequence, b: Sequence, field=RATIONALS) -> bool:
    """Whether two sets of sparse vectors span the same subspace.

    Compares the canonical int rows of the two spans, so it is an exact
    equivalence, not a mutual-containment heuristic.
    """
    return _canonical(field, _eliminate(field, _int_rows(field, a))) == _canonical(field, _eliminate(field, _int_rows(field, b)))


def _in_span(rows: Sequence[dict], vectors: Iterable[dict], field) -> bool:
    """Whether every sparse vector lies in the span of the int ``rows``, each
    zero at the others' leading columns (RREF rows, scaled): L*v - v[c]*row,
    L = row[c], clears c and no other."""
    p = field.characteristic
    by_pivot = {min(r): r for r in rows}
    for v in vectors:
        rest = _int_row(v, p)
        for c in v:
            if c in by_pivot:
                x = rest[c]
                row = by_pivot[c]
                if (L := row[c]) != 1:
                    for j in rest:
                        rest[j] *= L
                for j, y in row.items():
                    rest[j] = rest.get(j, 0) - x * y
        if any(x % p for x in rest.values()) if p else any(rest.values()):
            return False
    return True
