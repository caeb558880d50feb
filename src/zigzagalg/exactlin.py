"""Exact linear algebra over the rationals or a prime field.

Everything in this package that looks like linear algebra goes through this
module: reduced row-echelon forms, kernels, and span comparisons, all with
exact arithmetic (``fractions.Fraction`` in characteristic 0, integers mod p
otherwise).  No floating point is used anywhere.

Matrices are stored as sparse rows (dict column -> nonzero scalar), which is
what the Leibniz constraint systems downstream need: tens of thousands of
generated rows, a handful of nonzero entries each.

Canonical conventions, relied on by callers and tests:

* ``rref`` returns the unique reduced row-echelon form (leading 1s, pivot
  columns cleared, rows ordered by pivot column, zero rows at the bottom).
* ``nullspace_basis`` returns one vector per free column, ordered by the free
  column index, with the free variable set to 1 and the pivot coordinates
  read off the RREF.
* ``span_dim`` / ``span_equal`` canonicalize via RREF, so their results do not
  depend on generator order or scaling.

Vectors come in two forms.  A dense vector is a sequence of scalars of one
common length; its entries are converted into the field.  A sparse vector is
a dict index -> nonzero scalar already in the field, which is what the
derivation pipeline passes around (dim^2 coordinates, a few nonzero).  The
``span_*`` functions accept either form per argument and answer in the form
they were given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence


class FieldMismatchError(ValueError):
    """An entry or operand does not belong to the expected coefficient field."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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

    def __init__(self) -> None:
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def convert(self, x) -> Fraction:
        if isinstance(x, float):
            raise FieldMismatchError(f"floating point entry {x!r} rejected: exact arithmetic only")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise FieldMismatchError(f"cannot interpret {x!r} as a rational")

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def addmul(a, f, b):
        """a + f*b in one call; the elimination inner loop lives on this."""
        return a + f * b

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("rat")

    def __repr__(self) -> str:
        return "Rationals()"


class PrimeField:
    """GF(p) for a prime p. Elements are ints in [0, p)."""

    def __init__(self, p: int) -> None:
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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return a * pow(b, -1, self.p) % self.p

    def neg(self, a):
        return -a % self.p

    def addmul(self, a, f, b):
        return (a + f * b) % self.p

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


@dataclass(frozen=True)
class Matrix:
    """Immutable sparse matrix: ``rows[i]`` maps column -> nonzero scalar."""

    field: object
    nrows: int
    ncols: int
    rows: tuple

    @classmethod
    def from_rows(cls, field, rows: Iterable[Iterable]) -> "Matrix":
        """Build from dense rows; entries are converted into ``field``.

        Raises FieldMismatchError for entries the field cannot hold (floats,
        fractions with denominator divisible by p, ...), ValueError for ragged
        input.
        """
        dense = [list(r) for r in rows]
        ncols = len(dense[0]) if dense else 0
        sparse = []
        for r in dense:
            if len(r) != ncols:
                raise ValueError(f"ragged rows: expected {ncols} columns, got {len(r)}")
            row = {}
            for j, x in enumerate(r):
                v = field.convert(x)
                if v != field.zero:
                    row[j] = v
            sparse.append(row)
        return cls(field, len(dense), ncols, tuple(sparse))

    @classmethod
    def from_sparse(cls, field, nrows: int, ncols: int, rows: Sequence[dict]) -> "Matrix":
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        for r in rows:
            for j in r:
                if not 0 <= j < ncols:
                    raise ValueError(f"column index {j} out of range for {ncols} columns")
        return cls(field, nrows, ncols, tuple(dict(r) for r in rows))

    def dense_rows(self) -> list:
        zero = self.field.zero
        return [[r.get(j, zero) for j in range(self.ncols)] for r in self.rows]

    def mul_vector(self, v: Sequence) -> tuple:
        """Matrix-vector product; ``v`` must already live in the field."""
        if len(v) != self.ncols:
            raise ValueError(f"length mismatch: {self.ncols} columns vs vector of length {len(v)}")
        zero = self.field.zero
        add, mul = self.field.add, self.field.mul
        out = []
        for r in self.rows:
            acc = zero
            for j, a in r.items():
                acc = add(acc, mul(a, v[j]))
            out.append(acc)
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )


class RrefResult(NamedTuple):
    reduced: Matrix
    pivot_cols: tuple
    rank: int


def normalize_row(field, row: dict) -> dict:
    """Canonical scaling of a sparse row (unchanged span).

    Rational mode: clear denominators, divide by the gcd, make the leading
    (smallest-column) coefficient positive, so equal rows have equal dicts and
    integer growth stays bounded.  Prime mode: scale the leading coefficient
    to 1.
    """
    if not row:
        return row
    lead = min(row)
    if field.characteristic == 0:
        denom_lcm = 1
        for v in row.values():
            d = v.denominator
            denom_lcm = denom_lcm // gcd(denom_lcm, d) * d
        nums = {j: v.numerator * (denom_lcm // v.denominator) for j, v in row.items()}
        g = 0
        for v in nums.values():
            g = gcd(g, v)
        if nums[lead] < 0:
            g = -g
        return {j: Fraction(v // g) for j, v in nums.items()}
    inv = field.div(field.one, row[lead])
    return {j: field.mul(v, inv) for j, v in row.items()}


def _eliminate(field, rows: Iterable[dict]) -> dict:
    """Forward elimination into a pivot-column-keyed echelon dict.

    Candidate rows are deduplicated (after canonical scaling) and processed
    shortest-first, which keeps fill-in negligible on the near-diagonal
    systems this package generates.  The resulting reduced row space is
    order-independent anyway: the RREF is unique.
    """
    zero = field.zero
    addmul = field.addmul
    div = field.div
    mul = field.mul
    one = field.one

    seen = set()
    cands = []
    for r in rows:
        if not r:
            continue
        nr = normalize_row(field, r)
        key = tuple(sorted(nr.items()))
        if key in seen:
            continue
        seen.add(key)
        cands.append((len(nr), key, nr))
    cands.sort(key=lambda t: t[:2])

    pivots: dict = {}
    for _, _, row in cands:
        row = dict(row)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                lead = row.pop(c)
                if lead != one:
                    inv = div(one, lead)
                    row = {k: mul(v, inv) for k, v in row.items()}
                row[c] = one
                pivots[c] = row
                break
            f = row.pop(c)
            nf = field.neg(f)
            for k, pv in prow.items():
                if k == c:
                    continue
                nv = addmul(row.get(k, zero), nf, pv)
                if nv == zero:
                    row.pop(k, None)
                else:
                    row[k] = nv

    # back-substitution, descending pivot order: each row only ever pulls in
    # rows that are already fully reduced, so work stays proportional to the
    # actual nonzeros
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        hits = [k for k in row if k != c and k in pivots]
        for k in sorted(hits):
            f = row.pop(k)
            nf = field.neg(f)
            prow = pivots[k]
            for k2, pv in prow.items():
                if k2 == k:
                    continue
                nv = addmul(row.get(k2, zero), nf, pv)
                if nv == zero:
                    row.pop(k2, None)
                else:
                    row[k2] = nv
    return pivots


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row-echelon form of ``m``, with pivot columns and rank."""
    pivots = _eliminate(m.field, m.rows)
    pivot_cols = tuple(sorted(pivots))
    reduced_rows = [pivots[c] for c in pivot_cols]
    reduced_rows.extend({} for _ in range(m.nrows - len(reduced_rows)))
    reduced = Matrix(m.field, m.nrows, m.ncols, tuple(reduced_rows))
    return RrefResult(reduced, pivot_cols, len(pivot_cols))


def nullspace_basis(m: Matrix, sparse: bool = False) -> list:
    """Canonical kernel basis: one vector per free column, free variable 1.

    Dense tuples by default; with ``sparse`` the same vectors as dicts
    column -> nonzero scalar.
    """
    red, pivot_cols, rank = rref(m)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    one, neg = m.field.one, m.field.neg
    vecs = {f: {f: one} for f in free_cols}
    for c, row in zip(pivot_cols, red.rows):
        for j, a in row.items():
            if j != c and j in vecs:
                vecs[j][c] = neg(a)
    out = [vecs[f] for f in free_cols]
    if sparse:
        return out
    zero = m.field.zero
    return [tuple(v.get(j, zero) for j in range(m.ncols)) for v in out]


def _stack(vectors: Sequence[Sequence], field) -> Matrix:
    if not vectors:
        return Matrix(field, 0, 0, ())
    n = len(vectors[0])
    rows = []
    for v in vectors:
        if len(v) != n:
            raise ValueError(f"length mismatch: vectors of length {n} and {len(v)}")
        row = {}
        for j, x in enumerate(v):
            x = field.convert(x)
            if x != field.zero:
                row[j] = x
        rows.append(row)
    return Matrix(field, len(rows), n, tuple(rows))


def _as_matrix(vectors: Sequence, field) -> Matrix:
    """Non-empty ``vectors`` as matrix rows: dense ones converted into
    ``field``, sparse ones as they are.  Mixing the two forms is an error."""
    kinds = {isinstance(v, dict) for v in vectors}
    if len(kinds) > 1:
        raise ValueError("mixed dense and sparse vectors in one argument")
    if not kinds.pop():
        return _stack(vectors, field)
    ncols = 1 + max((j for v in vectors for j in v), default=-1)
    return Matrix(field, len(vectors), ncols, tuple(vectors))


def span_dim(vectors: Sequence, field=RATIONALS) -> int:
    """Dimension of the span of ``vectors`` (dense or sparse)."""
    if not vectors:
        return 0
    return rref(_as_matrix(vectors, field)).rank


def span_canonical_basis(vectors: Sequence, field=RATIONALS) -> list:
    """Canonical basis of the span: the nonzero rows of its RREF, in pivot
    order.  Dense tuples for dense input, sparse dicts for sparse input."""
    if not vectors:
        return []
    m = _as_matrix(vectors, field)
    pivots = _eliminate(field, m.rows)
    rows = [pivots[c] for c in sorted(pivots)]
    if isinstance(vectors[0], dict):
        return rows
    zero = field.zero
    return [tuple(row.get(j, zero) for j in range(m.ncols)) for row in rows]


def span_equal(a: Sequence, b: Sequence, field=RATIONALS) -> bool:
    """Whether two generating sets (each dense or sparse) span the same subspace.

    Compares the canonical (RREF) bases of the two spans, so it is an exact
    equivalence, not a mutual-containment heuristic.
    """
    if not a and not b:
        return True
    dense = a and b and not isinstance(a[0], dict) and not isinstance(b[0], dict)
    if dense and len(a[0]) != len(b[0]):
        raise ValueError(f"length mismatch: vectors of length {len(a[0])} and {len(b[0])}")
    ra = _eliminate(field, _as_matrix(a, field).rows) if a else {}
    rb = _eliminate(field, _as_matrix(b, field).rows) if b else {}
    return ra == rb


def in_rref_span(rref_rows: Sequence[dict], vectors: Iterable[dict], field) -> bool:
    """Whether every sparse vector lies in the span of ``rref_rows``.

    ``rref_rows`` must be the nonzero rows of a reduced row-echelon form
    (leading 1 at the pivot, 0 in every other pivot column), as
    :func:`span_canonical_basis` returns them.  Then a vector v lies in their
    span exactly when v - sum over pivots c of v[c] * row_c is zero, so one
    pass per vector decides it, with no elimination.
    """
    zero = field.zero
    addmul, neg = field.addmul, field.neg
    by_pivot = {min(r): r for r in rref_rows}
    for v in vectors:
        rest = dict(v)
        for c, x in v.items():
            row = by_pivot.get(c)
            if row is None:
                continue
            nx = neg(x)
            for j, y in row.items():
                rest[j] = addmul(rest.get(j, zero), nx, y)
        if any(x != zero for x in rest.values()):
            return False
    return True
