from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import dense_rref
from zigzagalg.exactlin import (
    RATIONALS,
    FieldMismatchError,
    Matrix,
    PrimeField,
    Rationals,
    in_rref_span,
    normalize_row,
    nullspace_basis,
    parse_field,
    rref,
    span_canonical_basis,
    span_dim,
    span_equal,
)


def qq(rows):
    return Matrix.from_rows(RATIONALS, rows)


def test_rref_identity_is_fixed():
    m = qq([[1, 0], [0, 1]])
    red, pivots, rank = rref(m)
    assert red == m
    assert pivots == (0, 1)
    assert rank == 2


def test_rref_proportional_rows():
    red, pivots, rank = rref(qq([[1, 2], [2, 4]]))
    assert red.dense_rows() == [[1, 2], [0, 0]]
    assert pivots == (0,)
    assert rank == 1


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
    dense, dense_pivots = dense_rref(HAND_MATRIX)
    nonzero = [row for row in dense if any(row)]
    assert red.dense_rows()[:4] == nonzero
    assert list(pivots) == dense_pivots


def test_nullspace_one_row():
    vecs = nullspace_basis(qq([[1, 1]]))
    assert vecs == [(Fraction(-1), Fraction(1))]


def test_nullspace_free_variable_convention():
    # x0 + 2 x2 = 0, x1 - x2 = 0; single free column 2
    vecs = nullspace_basis(qq([[1, 0, 2], [0, 1, -1]]))
    assert vecs == [(Fraction(-2), Fraction(1), Fraction(1))]


def test_nullspace_of_full_rank_matrix_is_empty():
    assert nullspace_basis(qq([[1, 0], [0, 1]])) == []


def test_zero_rows_and_duplicates_do_not_change_anything():
    a = qq([[1, 2, 3], [0, 0, 0], [1, 2, 3], [2, 4, 6]])
    b = qq([[1, 2, 3]])
    ra = rref(a)
    rb = rref(b)
    assert ra.rank == rb.rank == 1
    assert ra.reduced.dense_rows()[0] == rb.reduced.dense_rows()[0]


def test_rref_row_order_invariance():
    rng = random.Random(11)
    base = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(6)]
    ref = rref(qq(base))
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        got = rref(qq(shuffled))
        assert got.reduced.rows == ref.reduced.rows
        assert got.pivot_cols == ref.pivot_cols


small_matrices = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rref_is_idempotent(rows):
    m = qq(rows)
    once = rref(m).reduced
    twice = rref(once).reduced
    assert once.rows == twice.rows


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity_and_exact_kernel(rows):
    m = qq(rows)
    _, _, rank = rref(m)
    kernel = nullspace_basis(m)
    assert rank + len(kernel) == m.ncols
    zero = tuple(Fraction(0) for _ in range(m.nrows))
    for v in kernel:
        assert m.mul_vector(v) == zero
    if kernel:
        assert span_dim(kernel) == len(kernel)


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_rational_and_large_prime_agree_on_rank(rows):
    # a big prime sees the same rank as the rationals for these tiny entries
    gf = PrimeField(1000003)
    assert rref(qq(rows)).rank == rref(Matrix.from_rows(gf, rows)).rank


def test_span_dim_examples():
    assert span_dim([]) == 0
    assert span_dim([(0, 0)]) == 0
    assert span_dim([(1, 0), (0, 1), (1, 1)]) == 2


def test_span_equal_is_an_equivalence_up_to_generators():
    a = [(1, 2, 0), (0, 1, 1)]
    doubled = [(2, 4, 0), (0, 1, 1), (1, 3, 1)]
    assert span_equal(a, a)
    assert span_equal(a, doubled)
    assert span_equal(doubled, a)
    assert not span_equal(a, [(1, 0, 0)])
    assert span_equal([], [])
    assert span_equal([(0, 0)], [])


def test_span_canonical_basis_is_canonical():
    b1 = span_canonical_basis([(2, 4), (1, 3)])
    b2 = span_canonical_basis([(1, 3), (3, 7), (2, 4)])
    assert b1 == b2
    assert b1 == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_span_functions_answer_sparse_input_in_sparse_form():
    q = Fraction
    dense = [(2, 4, 0), (1, 3, 1)]
    sparse = [{0: q(2), 1: q(4)}, {0: q(1), 1: q(3), 2: q(1)}]
    canon = span_canonical_basis(sparse)
    assert canon == [{0: 1, 2: -2}, {1: 1, 2: 1}]
    assert [tuple(r.get(j, 0) for j in range(3)) for r in canon] == span_canonical_basis(dense)
    assert span_dim(sparse) == 2
    assert span_equal(sparse, dense) and not span_equal(sparse, [{2: q(1)}])
    assert in_rref_span(canon, [{0: q(1), 1: q(2)}], RATIONALS)
    assert not in_rref_span(canon, [{0: q(1)}], RATIONALS)
    with pytest.raises(ValueError, match="mixed"):
        span_dim([{0: q(1)}, (1, 0)])
    assert nullspace_basis(qq([[1, 0, 2], [0, 1, -1]]), sparse=True) == [{2: 1, 0: -2, 1: 1}]


def test_span_length_mismatch_raises():
    with pytest.raises(ValueError, match="length mismatch"):
        span_equal([(1, 0)], [(1, 0, 0)])
    with pytest.raises(ValueError, match="length mismatch"):
        span_dim([(1, 0), (1, 0, 0)])


def test_float_entries_are_rejected():
    with pytest.raises(FieldMismatchError):
        qq([[0.5]])
    with pytest.raises(FieldMismatchError):
        Matrix.from_rows(PrimeField(5), [[1.0]])


def test_fraction_with_bad_denominator_rejected_mod_p():
    gf5 = PrimeField(5)
    with pytest.raises(FieldMismatchError):
        Matrix.from_rows(gf5, [[Fraction(1, 5)]])
    assert gf5.convert(Fraction(1, 3)) == 2  # 3 * 2 = 6 = 1 mod 5


def test_prime_field_arithmetic():
    gf7 = PrimeField(7)
    assert gf7.add(5, 4) == 2
    assert gf7.mul(3, 5) == 1
    assert gf7.div(1, 3) == 5
    assert gf7.neg(2) == 5
    with pytest.raises(ZeroDivisionError):
        gf7.div(1, 7)
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


def test_normalize_row_is_primitive_integer_over_rationals():
    row = {0: Fraction(-2, 3), 2: Fraction(4, 3)}
    assert normalize_row(RATIONALS, row) == {0: Fraction(1), 2: Fraction(-2)}
    gf5 = PrimeField(5)
    assert normalize_row(gf5, {1: 3, 4: 2}) == {1: 1, 4: 4}


def test_matrix_equality_includes_field():
    a = qq([[1, 2]])
    b = Matrix.from_rows(PrimeField(5), [[1, 2]])
    assert a != b


def test_scalar_invariants_hold_after_ops():
    # rationals stay reduced with positive denominators by construction
    x = Fraction(2, 4)
    assert (x.numerator, x.denominator) == (1, 2)
    gf11 = PrimeField(11)
    vals = [gf11.convert(k) for k in range(-5, 30, 7)]
    for a in vals:
        for b in vals:
            for res in (gf11.add(a, b), gf11.mul(a, b), gf11.sub(a, b)):
                assert 0 <= res < 11
