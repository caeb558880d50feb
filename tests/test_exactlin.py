from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import dense_nullspace, dense_rref, sparse_vectors
from zigzagalg import exactlin
from zigzagalg.exactlin import (
    RATIONALS,
    FieldMismatchError,
    PrimeField,
    Rationals,
    normalize_row,
    nullspace_basis,
    parse_field,
    rref,
    span_canonical_basis,
    span_dim,
    span_equal,
)
from zigzagalg.linmaps import MapSpace


def qq(rows, field=RATIONALS):
    """Dense test rows, converted into ``field``, as sparse rows."""
    return [{j: v for j, x in enumerate(r) if (v := field.convert(x)) != field.zero} for r in rows]


def dense_rows(vectors, ncols, field=RATIONALS):
    return [[v.get(j, field.zero) for j in range(ncols)] for v in vectors]


def test_rref_identity_is_fixed():
    m = qq([[1, 0], [0, 1]])
    red, pivots, rank = rref(m)
    assert red == m
    assert pivots == (0, 1)
    assert rank == 2


def test_rref_proportional_rows():
    # a plain triple, the zero rows {} at the bottom of as many rows as came in
    r = rref(qq([[1, 2], [2, 4]]))
    assert type(r) is tuple and r == ([{0: 1, 1: 2}, {}], (0,), 1)
    assert dense_rows(r[0], 2) == [[1, 2], [0, 0]]


# the 6x6 coefficient pattern of the two-vertex derivation family, at
# t1_12=1, t1_21=2, t12_12=3, t21_21=4, t2_21=5; its rank was worked out by
# hand (eliminate col 0 with row 2, pivots land at 0, 2, 3, 4) before rref
# existed, and the independent dense elimination rechecks it here
HAND_MATRIX = [
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [1, -1, 3, 0, 0, 0],
    [2, -2, 0, 4, 0, 0],
    [0, 0, 5, -2, 7, 0],
    [0, 0, 0, 2, 0, 7],
]


def test_rref_six_by_six_hand_elimination():
    red, pivots, rank = rref(qq(HAND_MATRIX))
    assert rank == 4
    assert pivots == (0, 2, 3, 4)
    reference, reference_pivots = dense_rref(HAND_MATRIX)
    nonzero = [row for row in reference if any(row)]
    assert dense_rows(red, 6)[:4] == nonzero
    assert list(pivots) == reference_pivots


def test_nullspace_one_row():
    vecs = nullspace_basis(qq([[1, 1]]), 2)
    assert vecs == [{0: Fraction(-1), 1: Fraction(1)}]


def test_nullspace_free_variable_convention():
    # x0 + 2 x2 = 0, x1 - x2 = 0; single free column 2
    vecs = nullspace_basis(qq([[1, 0, 2], [0, 1, -1]]), 3)
    assert vecs == [{0: Fraction(-2), 1: Fraction(1), 2: Fraction(1)}]


def test_nullspace_of_full_rank_matrix_is_empty():
    assert nullspace_basis(qq([[1, 0], [0, 1]]), 2) == []


def test_zero_rows_and_duplicates_do_not_change_anything():
    a = qq([[1, 2, 3], [0, 0, 0], [1, 2, 3], [2, 4, 6]])
    b = qq([[1, 2, 3]])
    (reduced_a, _, rank_a), (reduced_b, _, rank_b) = rref(a), rref(b)
    assert rank_a == rank_b == 1
    assert reduced_a[0] == reduced_b[0]


def test_rref_row_order_invariance():
    rng = random.Random(11)
    base = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(6)]
    ref = rref(qq(base))
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert rref(qq(shuffled)) == ref


small_matrices = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rref_is_idempotent(rows):
    once = rref(qq(rows))[0]
    twice = rref(once)[0]
    assert once == twice


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity_and_exact_kernel(rows):
    m, ncols = qq(rows), len(rows[0])
    _, _, rank = rref(m)
    kernel = nullspace_basis(m, ncols)
    assert rank + len(kernel) == ncols
    for v in kernel:
        assert all(sum(a * v.get(j, 0) for j, a in row.items()) == 0 for row in m)
    if kernel:
        assert span_dim(kernel) == len(kernel)


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_rational_and_large_prime_agree_on_rank(rows):
    # a big prime sees the same rank as the rationals for these tiny entries
    gf = PrimeField(1000003)
    assert rref(qq(rows))[2] == rref(qq(rows, gf), gf)[2]


def kernel_from_rref(rows, ncols, field):
    """The kernel as read off ``rref(rows)``: free columns in order, then
    minus each pivot row's entry there, pivots in increasing order."""
    red, pivot_cols, _ = rref(rows, field)
    vecs = {f: {f: field.one} for f in range(ncols) if f not in pivot_cols}
    for c, row in zip(pivot_cols, red):
        for j, x in row.items():
            if j != c:
                vecs[j][c] = field.convert(-x)
    return list(vecs.values())


@st.composite
def sparse_systems(draw, field):
    """(rows, ncols): a drawn sparse system with fewer rows than columns: over
    rat, Fraction entries with negative and non-unit leads; over GF(p), their
    images, zeros dropped."""
    ncols = draw(st.integers(2, 8))
    entry = st.builds(Fraction, st.sampled_from([-6, -3, -2, -1, 1, 2, 4, 5]), st.sampled_from([1, 2, 3, 5]))
    rows = []
    for _ in range(draw(st.integers(1, ncols - 1))):
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=4, unique=True))
        row = {j: draw(entry) for j in cols}
        if field.characteristic:
            row = {j: x for j, v in row.items() if v.denominator % field.characteristic if (x := field.convert(v))}
        rows.append(row)
    return rows, ncols


@pytest.mark.parametrize("spec", ["rat", "gf:101", "gf:3", "gf:2"])
def test_nullspace_basis_is_the_kernel_read_off_the_rref(spec):
    # read off the integer pivot rows, the kernel has the values, types and
    # dict order of the one read off the RREF
    field = parse_field(spec)

    @settings(max_examples=60, deadline=None)
    @given(sparse_systems(field))
    def check(system):
        got, want = nullspace_basis(*system, field), kernel_from_rref(*system, field)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
        assert [type(x) for v in got for x in v.values()] == [type(x) for v in want for x in v.values()]

    check()


@pytest.mark.parametrize("spec", ["rat", "gf:101", "gf:3", "gf:2"])
def test_in_rref_span_agrees_with_a_rank_oracle(spec):
    # RREF rows with non-integral entries, so the int rows scale by L > 1;
    # a vector lies in their span exactly when adding it keeps the rank
    field = parse_field(spec)
    rng = random.Random(spec)
    values = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
    p = field.characteristic

    def vector(ncols):
        v = {j: rng.choice(values) for j in rng.sample(range(ncols), rng.randint(1, ncols))}
        return {j: c for j, x in v.items() if (c := field.convert(x) if not p or x.denominator % p else 0)}

    verdicts = []
    for _ in range(120):
        ncols = rng.randint(1, 7)
        rows = span_canonical_basis([v for _ in range(rng.randint(1, 4)) if (v := vector(ncols))], field)
        for _ in range(4):
            v = vector(ncols) if rng.random() < 0.5 else {}
            for r in rng.sample(rows, min(len(rows), 2)):  # often in the span
                c = field.convert(rng.choice(values[:4]))
                v = {j: x for j in {*v, *r} if (x := field.convert(v.get(j, 0) + c * r.get(j, 0)))}
            if not v:
                continue
            want = span_dim(rows + [v], field) == len(rows)
            assert in_span(rows, [v], field) == want, (rows, v)
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def in_span(rref_rows, vectors, field):
    """Whether every sparse vector lies in the span of the RREF rows, by
    ``_in_span`` on those rows scaled to ints."""
    return exactlin._in_span([exactlin._int_row(r) for r in rref_rows], vectors, field)


def vecs(*dense_vectors):
    return sparse_vectors([[Fraction(x) for x in v] for v in dense_vectors])


def test_span_dim_examples():
    assert span_dim([]) == 0
    assert span_dim(vecs((0, 0))) == 0
    assert span_dim(vecs((1, 0), (0, 1), (1, 1))) == 2


def test_span_equal_is_an_equivalence_up_to_generators():
    a = vecs((1, 2, 0), (0, 1, 1))
    doubled = vecs((2, 4, 0), (0, 1, 1), (1, 3, 1))
    assert span_equal(a, a)
    assert span_equal(a, doubled)
    assert span_equal(doubled, a)
    assert not span_equal(a, vecs((1, 0, 0)))
    assert span_equal([], [])
    assert span_equal(vecs((0, 0)), [])


def test_span_canonical_basis_is_canonical():
    b1 = span_canonical_basis(vecs((2, 4), (1, 3)))
    b2 = span_canonical_basis(vecs((1, 3), (3, 7), (2, 4)))
    assert b1 == b2
    assert b1 == [{0: Fraction(1)}, {1: Fraction(1)}]


def test_span_functions_answer_sparse_input_in_sparse_form():
    q = Fraction
    sparse = [{0: q(2), 1: q(4)}, {0: q(1), 1: q(3), 2: q(1)}]
    canon = span_canonical_basis(sparse)
    assert canon == [{0: 1, 2: -2}, {1: 1, 2: 1}]
    assert [[r.get(j, 0) for j in range(3)] for r in canon] == dense_rref([(2, 4, 0), (1, 3, 1)])[0]
    assert span_dim(sparse) == 2
    assert span_equal(sparse, canon) and not span_equal(sparse, [{2: q(1)}])
    assert in_span(canon, [{0: q(1), 1: q(2)}], RATIONALS)
    assert not in_span(canon, [{0: q(1)}], RATIONALS)
    assert nullspace_basis(qq([[1, 0, 2], [0, 1, -1]]), 3) == [{2: 1, 0: -2, 1: 1}]


def test_rows_from_outside_have_their_columns_checked():
    # against ncols where it is given, else against one more than the largest
    for j in (-1, 2):
        with pytest.raises(ValueError, match=f"column index {j} out of range for 2 columns"):
            nullspace_basis([{j: 1}], 2, PrimeField(5))
    for entry in (rref, span_dim, span_canonical_basis, lambda rows: span_equal([{0: 1}], rows)):
        with pytest.raises(ValueError, match="column index -1 out of range for 3 columns"):
            entry([{2: 1}, {-1: 1}])


def test_dense_vectors_are_rejected():
    # a dense tuple is no sparse row: rejected by name, not read as a dict
    q = Fraction
    with pytest.raises(TypeError, match="row 0 is a tuple, not a dict"):
        nullspace_basis([(q(1), q(0))], 2)
    # nor is a scalar or None, named before any column is read off the rows
    for bad, named in (
        ([(q(1), q(0))], "row 0 is a tuple"),
        ([{0: q(1)}, (q(1), q(0))], "row 1 is a tuple"),
        ([5], "row 0 is a int"),
        ([None], "row 0 is a NoneType"),
        ([{0: 1}, 7], "row 1 is a int"),
    ):
        for entry in (rref, span_dim, span_canonical_basis, lambda rows: span_equal([{0: q(1)}], rows)):
            with pytest.raises(TypeError, match=f"{named}, not a dict"):
                entry(bad)


def test_float_entries_are_rejected():
    with pytest.raises(FieldMismatchError):
        RATIONALS.convert(0.5)
    with pytest.raises(FieldMismatchError):
        PrimeField(5).convert(1.0)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)], ids=lambda f: f.name)
def test_strings_and_other_non_numbers_are_rejected(field):
    # both fields take ints and Fractions only, so '1/0' cannot escape as a
    # bare ZeroDivisionError
    for x in ("3", "1/0", None, [1]):
        with pytest.raises(FieldMismatchError, match="cannot interpret"):
            field.convert(x)


def test_fraction_with_bad_denominator_rejected_mod_p():
    gf5 = PrimeField(5)
    with pytest.raises(FieldMismatchError):
        gf5.convert(Fraction(1, 5))
    assert gf5.convert(Fraction(1, 3)) == 2  # 3 * 2 = 6 = 1 mod 5


def test_prime_field_arithmetic():
    # a field converts into itself; arithmetic on its elements is plain Python
    gf7 = PrimeField(7)
    assert gf7.convert(5 + 4) == 2
    assert gf7.convert(3 * 5) == 1
    assert gf7.convert(-2) == 5
    for field in (RATIONALS, PrimeField(3)):
        assert not [op for op in ("add", "mul", "neg") if hasattr(field, op)]
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_parse_field():
    assert parse_field("rat") == Rationals()
    assert parse_field("gf:11") == PrimeField(11)
    with pytest.raises(ValueError):
        parse_field("gf:four")
    with pytest.raises(ValueError):
        parse_field("real")


def test_primes_are_certified_only_below_the_miller_rabin_bound():
    # 318665857834031151167461 = 399165290221 * 798330580441 is a strong
    # pseudoprime to every prime base up to 37; base 41 exposes it
    with pytest.raises(ValueError, match="not prime"):
        parse_field("gf:318665857834031151167461")
    # the least strong pseudoprime to every prime base up to 41, and the
    # prime 2^89 - 1 above it: no primality claim there can be certified
    for p in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError, match="cannot be certified"):
            parse_field(f"gf:{p}")
        with pytest.raises(ValueError, match="cannot be certified"):
            PrimeField(p)
    assert parse_field(f"gf:{2**61 - 1}").p == 2**61 - 1


def test_fields_hash_by_value_and_show_their_constructor():
    # equal fields are interchangeable dict keys, and a repr rebuilds the field
    keyed = {RATIONALS: "rat", PrimeField(3): "gf:3", PrimeField(101): "gf:101"}
    for spec in ("rat", "gf:3", "gf:101"):
        field = parse_field(spec)
        assert hash(field) == hash(eval(repr(field))) and keyed[field] == spec
    assert len({Rationals(), RATIONALS, PrimeField(5), PrimeField(5), PrimeField(7)}) == 3
    assert (repr(RATIONALS), repr(PrimeField(7))) == ("Rationals()", "PrimeField(7)")


def test_normalize_row_is_primitive_integer_over_rationals():
    # rows come in as ints (fraction-free over the rationals, any residues mod p)
    assert normalize_row(RATIONALS, {0: -2, 2: 4}) == {0: 1, 2: -2}
    assert normalize_row(RATIONALS, {1: 3, 4: -5}) == {1: 3, 4: -5}
    gf5 = PrimeField(5)
    assert normalize_row(gf5, {1: 3, 4: 2}) == {1: 1, 4: 4}
    assert normalize_row(gf5, {1: 8, 4: -3}) == {1: 1, 4: 4}


def test_scalar_invariants_hold_after_ops():
    # rationals stay reduced with positive denominators by construction
    x = Fraction(2, 4)
    assert (x.numerator, x.denominator) == (1, 2)
    gf11 = PrimeField(11)
    vals = [gf11.convert(k) for k in range(-5, 30, 7)]
    for a in vals:
        for b in vals:
            for res in (gf11.convert(a + b), gf11.convert(a * b), gf11.convert(-a)):
                assert 0 <= res < 11


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(5)], ids=lambda f: f.name)
def test_explicit_zero_entries_in_sparse_input_are_rejected(field):
    # a stored zero is not an equation: before, {0: 0} read as x0 = 0 and
    # {0: 0, 1: 1} failed with ZeroDivisionError
    zero_rows = [{0: Fraction(0)}, {0: 0, 1: 1}]
    if field.characteristic:
        zero_rows.append({0: 1, 1: field.characteristic})  # p is zero in GF(p)
    for row in zero_rows:
        with pytest.raises(ValueError, match=r"row 0, column \d+: stored entry is zero"):
            nullspace_basis([row], 2, field)
        with pytest.raises(ValueError, match=r"row 0, column \d+: stored entry is zero"):
            span_canonical_basis([row], field)
    with pytest.raises(ValueError, match="row 1, column 0"):
        span_dim([{1: field.one}, {0: field.zero}], field)


def test_entries_outside_the_field_are_rejected():
    gf5 = PrimeField(5)
    cases = [(RATIONALS, {0: 1, 1: 0.5}), (RATIONALS, {0: 1, 1: "2"}), (gf5, {0: 7, 1: 4}),
             (gf5, {0: 1, 1: -1}), (gf5, {0: 1, 1: Fraction(1, 2)}), (gf5, {0: 1, 1: 2.0})]
    for field, row in cases:
        with pytest.raises(FieldMismatchError, match=r"row 0, column \d+: .* is not an element of"):
            nullspace_basis([row], 2, field)
        with pytest.raises(FieldMismatchError, match=r"row 0, column \d+"):
            span_canonical_basis([row], field)
    # elements of the field pass: ints and Fractions over Q, 1..p-1 in GF(p)
    assert span_canonical_basis([{0: 2, 1: Fraction(1, 2)}]) == [{0: 1, 1: Fraction(1, 4)}]
    assert rref([{0: 1, 1: 4}], gf5) == ([{0: 1, 1: 4}], (0,), 1)


def test_int_rows_scale_only_the_rows_holding_a_fraction():
    # an int row, and any row in GF(p), goes to the elimination as it is
    ints, fractions = {0: 2, 1: -3}, {0: Fraction(1, 2), 2: Fraction(-2, 3)}
    got = exactlin._int_rows(RATIONALS, [ints, fractions, {1: Fraction(3)}])
    assert got[0] is ints and got[1:] == [{0: 3, 2: -4}, {1: 3}]
    rows = [{0: 1, 1: 4}, {1: 2}]
    assert all(a is b for a, b in zip(exactlin._int_rows(PrimeField(5), rows, 2), rows))


def singleton_heavy_rows(rng, ncols):
    """Sparse rows over Q, most of them single entries (values other than 1
    and duplicated columns among them), plus rows that vanish, and rows that
    shrink to one entry, once the singleton columns are dropped."""
    values = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 5) for d in (1, 2, 7)]
    singles = rng.sample(range(ncols), rng.randint(2, ncols - 2))
    others = [c for c in range(ncols) if c not in singles]

    def row(support):
        return {c: rng.choice(values) for c in support}

    rows = [row([c]) for c in singles]
    rows += [row([c]) for c in rng.choices(singles, k=2)]
    rows += [row(rng.sample(singles, rng.randint(2, len(singles)))) for _ in range(2)]
    rows += [row(rng.sample(singles, rng.randint(1, len(singles))) + [rng.choice(others)]) for _ in range(2)]
    rows += [row(rng.sample(range(ncols), rng.randint(2, min(4, ncols)))) for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    return rows


def test_singleton_heavy_elimination_matches_dense_reference():
    rng = random.Random(2024)
    for _ in range(150):
        ncols = rng.randint(4, 9)
        rows = singleton_heavy_rows(rng, ncols)
        reduced, pivots = dense_rref(dense_rows(rows, ncols))
        got_reduced, got_pivots, _ = rref(rows)
        assert dense_rows(got_reduced, ncols) == reduced
        assert list(got_pivots) == pivots
        kernel = dense_nullspace(dense_rows(rows, ncols), ncols)
        assert [tuple(v.get(j, 0) for j in range(ncols)) for v in nullspace_basis(rows, ncols)] == kernel


def textbook_rref(rows, ncols, p):
    """Dense Gauss-Jordan, independent of the package: Fractions over Q
    (p = 0), ints mod p otherwise.  Returns (pivot columns, nonzero rows as
    sparse dicts)."""
    mat = [[x % p for x in r] if p else [Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        src = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if src is None:
            continue
        mat[rank], mat[src] = mat[src], mat[rank]
        inv = pow(mat[rank][col], -1, p) if p else 1 / mat[rank][col]
        mat[rank] = [x * inv % p if p else x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
    return pivots, [{j: x for j, x in enumerate(r) if x} for r in mat[: len(pivots)]]


def random_system(rng, field):
    """Dense rows of a seeded sparse system: leads +-2 and +-3, fractional
    entries, duplicate and scaled rows; some are rank 0, some full rank."""
    p = field.characteristic
    values = [1, -1, 2, -3, 5, Fraction(1, 2), Fraction(2, 3), Fraction(-5, 3)]
    ncols = rng.randint(1, 8)
    kind = rng.choice(["sparse", "sparse", "zero", "full"])

    def row(cols):
        r = [0] * ncols
        for j in cols:
            r[j] = rng.choice(values)
        r[min(cols)] = rng.choice([2, -2, 3, -3])
        return r

    if kind == "zero":
        rows = [[0] * ncols for _ in range(rng.randint(0, 3))]
    elif kind == "full":  # triangular with leads nonzero in the field
        leads = [v for v in (2, -2, 3, -3) if v % p] if p else [2, -2, 3, -3]
        rows = []
        for c in range(ncols):
            rows.append(row([c] + rng.sample(range(c + 1, ncols), rng.randint(0, ncols - c - 1))))
            rows[-1][c] = rng.choice(leads)
    else:
        rows = [row(rng.sample(range(ncols), rng.randint(1, min(4, ncols)))) for _ in range(rng.randint(1, 9))]
    for _ in range(rng.randint(0, 3) if rows else 0):
        rows.append(list(rng.choice(rows)))  # duplicate
        scale = rng.choice([-1, 2, Fraction(-3, 2)])
        rows.append([x * scale for x in rng.choice(rows)])  # scaled
    rng.shuffle(rows)
    if p:  # into GF(p); an entry with no image there becomes 0
        rows = [[field.convert(x) if Fraction(x).denominator % p else 0 for x in r] for r in rows]
    return rows, ncols, kind


@pytest.mark.parametrize("spec", ["rat", "gf:2", "gf:3", "gf:101"])
def test_rref_matches_a_textbook_gauss_jordan(spec):
    field = parse_field(spec)
    p = field.characteristic
    rng = random.Random(13)
    kinds = set()
    for _ in range(200):
        rows, ncols, kind = random_system(rng, field)
        sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
        got, got_pivots, rank = rref(sparse, field)
        pivots, reduced = textbook_rref(rows, ncols, p)
        assert list(got_pivots) == pivots, rows
        assert len(got) == len(rows) and got[:rank] == reduced, rows
        assert not any(got[rank:])
        for r in got:
            for x in r.values():
                assert type(x) is Fraction if not p else type(x) is int and 0 < x < p
        kinds.add((kind, rank == ncols, rank == 0))
    # every kind of system came up, and with it both rank extremes
    assert {("zero", False, True), ("full", True, False)} <= kinds
    assert any(k[0] == "sparse" for k in kinds)


def canonical(vectors, field):
    """The canonical int rows of the span of sparse ``vectors``."""
    return exactlin._canonical(field, exactlin._eliminate(field, exactlin._int_rows(field, vectors)))


@st.composite
def generators_and_copies(draw, field):
    """(ncols, a, b): sparse vectors ``a`` in the field, and ``b`` built from
    ``a`` by rescaling and recombining them, sometimes with a vector drawn
    apart added, so the spans are often but not always equal."""
    p = field.characteristic
    ncols = draw(st.integers(1, 6))
    values = [-3, -2, -1, 1, 2, 5, Fraction(1, 2), Fraction(-2, 3)]
    entry = st.sampled_from([v for v in values if not p or Fraction(v).denominator % p])

    def vector():
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=3, unique=True))
        return {j: x for j in cols if (x := field.convert(draw(entry)))}

    def combine(u, v, c):  # u + c v
        return {j: x for j in {*u, *v} if (x := field.convert(u.get(j, 0) + c * v.get(j, 0)))}

    a = [v for _ in range(draw(st.integers(1, 4))) if (v := vector())]
    b = []
    for v in a:
        if (c := field.convert(draw(entry))) and draw(st.booleans()):
            v = {j: field.convert(c * x) for j, x in v.items()}  # rescaled
        for u in draw(st.lists(st.sampled_from(a), max_size=2)):
            v = combine(v, u, field.convert(draw(entry)))  # recombined
        b.append(v)
    b = [v for v in b if v]
    if draw(st.integers(0, 3)) == 0:
        b.append(vector())
    draw(st.randoms(use_true_random=False)).shuffle(b)
    return ncols, a, [v for v in b if v]


@pytest.mark.parametrize("spec", ["rat", "gf:101", "gf:3", "gf:2"])
def test_int_canonical_rows_decide_span_equality(spec):
    # rows equal iff the spans are (a textbook RREF decides that apart);
    # each row is primitive with a positive lead over Q, leads 1 in GF(p);
    # both routes to them agree in order, and the rows a MapSpace builds
    # from them are span_canonical_basis's in value, type and order
    field = parse_field(spec)
    p = field.characteristic
    verdicts = set()

    @settings(max_examples=80, deadline=None)
    @given(generators_and_copies(field))
    def check(drawn):
        ncols, a, b = drawn
        ca, cb = canonical(a, field), canonical(b, field)
        ta = textbook_rref(dense_rows(a, ncols, field), ncols, p)[1]
        tb = textbook_rref(dense_rows(b, ncols, field), ncols, p)[1]
        assert (ca == cb) == (ta == tb) == span_equal(a, b, field)
        verdicts.add(ca == cb)
        for r in ca:
            lead = r[min(r)]
            assert lead == 1 and all(0 < x < p for x in r.values()) if p else lead > 0 and gcd(*r.values()) == 1
        basis = span_canonical_basis(a, field)
        assert [list(r.items()) for r in ca] == [list(exactlin._int_row(r).items()) for r in basis]
        rows = MapSpace("derivation", field, ca).rows
        assert [list(r.items()) for r in rows] == [list(r.items()) for r in basis]
        assert [type(x) for r in rows for x in r.values()] == [type(x) for r in basis for x in r.values()]

    check()
    assert verdicts == {True, False}


@pytest.mark.parametrize("spec", ["rat", "gf:101", "gf:3", "gf:2"])
def test_int_kernel_is_primitive(spec):
    # each int kernel vector is the returned one scaled to a primitive int
    # vector, positive at its free column (1 there in GF(p))
    field = parse_field(spec)

    @settings(max_examples=60, deadline=None)
    @given(sparse_systems(field))
    def check(system):
        rows, ncols = system
        kernel = exactlin._kernel(field, exactlin._eliminate(field, exactlin._int_rows(field, rows, ncols)), ncols)
        assert list(kernel.values()) == [exactlin._int_row(v) for v in nullspace_basis(rows, ncols, field)]
        assert all(vec[f] > 0 and list(vec)[0] == f for f, vec in kernel.items())

    check()


@pytest.mark.parametrize("spec", ["rat", "gf:101", "gf:3", "gf:2"])
def test_eliminate_drops_entries_that_vanish_in_the_field(spec):
    # raw int rows: zeros, negatives, entries >= p and entries zero only in
    # the field (+-2 in GF(2), +-3 in GF(3)); rows that shrink to one entry
    # or none.  In either order of the elimination they give the pivots and
    # kernel of their reduced, zero-free counterparts.
    field = parse_field(spec)
    p = field.characteristic
    values = [0, 0, 1, -1, 2, -2, 3, -3, 5, 101, -101, 102, 202]
    shrunk = set()

    def reduced(row):
        return {j: v % p for j, v in row.items() if v % p} if p else {j: v for j, v in row.items() if v}

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        ncols = data.draw(st.integers(1, 7))
        rows = data.draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), st.sampled_from(values), max_size=4), max_size=8))
        clean = [r for r in map(reduced, rows) if r]
        shrunk.update(len(reduced(r)) for r in rows if len(reduced(r)) < min(len(r), 2))
        want = exactlin._eliminate(field, clean)
        for by_support in (True, False):
            got = exactlin._eliminate(field, rows, by_support=by_support)
            assert sorted(got) == sorted(want)
            assert exactlin._canonical(field, got) == exactlin._canonical(field, want)
            assert exactlin._kernel(field, got, ncols) == exactlin._kernel(field, want, ncols)
            if p:
                assert all(0 < x < p for r in got.values() for x in r.values())

    check()
    assert shrunk == {0, 1}


@pytest.mark.parametrize("spec", ["rat", "gf:101", "gf:3", "gf:2"])
def test_eliminate_is_blind_to_repeated_rescaled_and_reordered_rows(spec):
    # the eliminator keeps no dedupe pass: each row repeated, every copy
    # scaled by a unit of the field (a nonzero int over Q, an unreduced
    # residue prime to p in GF(p)) and the copies shuffled give, in either
    # order of the elimination, the pivot columns, canonical rows and kernel
    # of the rows taken once each
    field = parse_field(spec)
    p = field.characteristic
    units = st.integers(-2 * p, 2 * p).filter(lambda k: k % p) if p else st.integers(-6, 6).filter(bool)

    @settings(max_examples=80, deadline=None)
    @given(sparse_systems(field), st.data())
    def check(system, data):
        rows, ncols = system
        rows = exactlin._int_rows(field, rows, ncols)
        fed = [{j: k * v for j, v in r.items()} for r in rows for k in data.draw(st.lists(units, min_size=1, max_size=3))]
        data.draw(st.randoms(use_true_random=False)).shuffle(fed)
        want = exactlin._eliminate(field, [dict(r) for r in rows])
        for by_support in (True, False):
            got = exactlin._eliminate(field, fed, by_support=by_support)
            assert sorted(got) == sorted(want)
            assert exactlin._canonical(field, got) == exactlin._canonical(field, want)
            assert exactlin._kernel(field, got, ncols) == exactlin._kernel(field, want, ncols)

    check()


def old_key(row):
    """The eliminator's former candidate key: length, then the sorted
    columns negated, so rows of one length go in decreasing column order."""
    return (len(row), [-j for j in sorted(row)])


def eliminate_by_old_key(field, rows):
    """Forward elimination and back-substitution as :func:`exactlin._eliminate`
    did with :func:`old_key`: emptied rows sorted along, every pivot row
    back-substituted, single-entry ones included."""
    p = field.characteristic
    pivots = {}
    for r in rows:
        if len(r) == 1:
            [(c, v)] = r.items()
            if v % p if p else v:
                pivots[c] = {c: 1}
    longer = [r for r in rows if len(r) > 1]
    cands = sorted([{j: w for j, v in r.items() if j not in pivots and (w := v % p if p else v)} for r in longer], key=old_key)
    for row in cands:
        while row:
            c = min(row)
            if c in pivots:
                exactlin._reduce(row, c, pivots[c], p)
                continue
            lead = row.pop(c)
            if p and lead != 1:
                inv = pow(lead, -1, p)
                row = {k: v * inv % p for k, v in row.items()}
            row[c] = 1 if p else lead
            pivots[c] = row
            break
    for c in sorted(pivots, reverse=True):
        for k in sorted(k for k in pivots[c] if k != c and k in pivots):
            exactlin._reduce(pivots[c], k, pivots[k], p)
    return pivots


@pytest.mark.parametrize("spec", ["rat", "gf:2", "gf:3", "gf:101"])
def test_two_stable_sorts_keep_the_old_candidate_order_and_pivots(spec):
    # a sort by the sorted columns reversed, then a stable one by length,
    # orders rows as the old key did, ties (rows of one support) in input
    # order; the pivot dict, rows and their dict order included, is the one
    # the old key gave, emptied rows dropped or not
    field = parse_field(spec)
    p = field.characteristic
    values = [0, 1, -1, 2, -2, 3, 4, 101, -202]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        ncols = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), st.sampled_from(values), max_size=4), max_size=10))
        cands = [{j: v % p if p else v for j, v in r.items()} for r in rows]
        new = list(cands)
        new.sort(key=sorted, reverse=True)
        new.sort(key=len)
        assert new == sorted(cands, key=old_key)
        got = exactlin._eliminate(field, [dict(r) for r in rows])
        want = eliminate_by_old_key(field, [dict(r) for r in rows])
        assert [(c, list(r.items())) for c, r in got.items()] == [(c, list(r.items())) for c, r in want.items()]

    check()


@pytest.mark.parametrize("spec", ["rat", "gf:2", "gf:3", "gf:101"])
def test_eliminations_leave_their_input_rows_as_they_were(spec):
    # analyze_graph hands span_dim the commutator maps and reads them again
    # in der.contains, so no entry point may change a row it is given, in
    # value or in dict order: the elimination in both its orders on raw int
    # rows (zeros, multiples of p, singleton columns), and rref,
    # nullspace_basis and the span_* functions on rows in the field
    field = parse_field(spec)
    p = field.characteristic
    raw = st.sampled_from([0, 1, -1, 2, -2, 3, 5, 101, -202, 303])
    valid = st.integers(1, p - 1) if p else st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    singletons = set()

    def rows_of(values, ncols):
        return st.lists(st.dictionaries(st.integers(0, ncols - 1), values, max_size=4), max_size=8)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        ncols = data.draw(st.integers(1, 6))
        ints, rows, others = (data.draw(rows_of(values, ncols)) for values in (raw, valid, valid))
        singletons.update(len(r) == 1 for r in ints + rows)
        calls = [
            (lambda: exactlin._eliminate(field, ints), ints),
            (lambda: exactlin._eliminate(field, ints, by_support=False), ints),
            (lambda: rref(rows, field), rows),
            (lambda: nullspace_basis(rows, ncols, field), rows),
            (lambda: span_dim(rows, field), rows),
            (lambda: span_canonical_basis(rows, field), rows),
            (lambda: span_equal(rows, others, field), rows + others),
        ]
        for call, given_rows in calls:
            before = [list(r.items()) for r in given_rows]
            call()
            assert [list(r.items()) for r in given_rows] == before

    check()
    assert singletons == {True, False}
