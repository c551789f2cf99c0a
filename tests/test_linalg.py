import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdet.linalg import (
    DetCof,
    bareiss_detcof,
    identity,
    mat_mul,
    mat_scale,
    mat_vec,
    transpose,
)
from reference import (
    SingularMatrixError,
    cof_sum,
    cof_sum_minors,
    det_cofactor_expansion,
    mat_mul_naive,
    mat_vec_naive,
    rat_det,
    rat_inverse,
)

square_int_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def det(m):
    return bareiss_detcof(m).det


def test_bareiss_known_values():
    assert det([[5]]) == 5
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [3, 4]]) == -2
    # distance matrix of the 5-cycle
    d5 = [[min(abs(i - j), 5 - abs(i - j)) for j in range(5)] for i in range(5)]
    assert det(d5) == 6


def test_bareiss_pivoting_and_singular():
    assert det([[0, 1], [2, 3]]) == -2
    assert det([[0, 0], [0, 0]]) == 0
    assert det([[1, 2], [2, 4]]) == 0


def test_bareiss_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


@settings(deadline=None)
@given(square_int_matrix)
def test_bareiss_matches_cofactor_expansion(m):
    assert det(m) == det_cofactor_expansion(m)


@settings(deadline=None)
@given(square_int_matrix)
def test_bareiss_matches_rational_elimination(m):
    assert Fraction(det(m)) == rat_det(m)


def test_cof_sum_of_1x1():
    assert cof_sum([[5]]) == 1
    assert cof_sum_minors([[5]]) == 1


def test_cof_sum_needs_entries():
    with pytest.raises(ValueError):
        cof_sum([])
    with pytest.raises(ValueError):
        cof_sum_minors([])


@settings(deadline=None)
@given(square_int_matrix)
def test_cof_sum_matches_minor_enumeration(m):
    assert cof_sum(m) == cof_sum_minors(m)


@settings(deadline=None)
@given(square_int_matrix, st.sampled_from([-3, 1, 7]))
def test_rank_one_shift_identity(m, x):
    # det(A + xJ) = det(A) + x * cof(A)
    n = len(m)
    shifted = [[m[i][j] + x for j in range(n)] for i in range(n)]
    assert det(shifted) == det(m) + x * cof_sum(m)


@st.composite
def detcof_matrix(draw):
    """Integer matrices up to 8 x 8 with small entries, so many are singular;
    a zeroed column leaves the border row as that column's only usable pivot."""
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["any", "zero column", "repeated row"]))
    if shape == "zero column":
        column = draw(st.integers(0, n - 1))
        for row in m:
            row[column] = 0
    elif shape == "repeated row" and n > 1:
        m[-1] = list(m[0])
    return m


@settings(deadline=None, max_examples=300)
@given(detcof_matrix())
def test_bordered_pass_matches_references(m):
    assert bareiss_detcof(m) == (rat_det(m), cof_sum(m))


def test_bordered_pass_known_values():
    assert bareiss_detcof([[0]]) == DetCof(0, 1)  # the only pivot is in the border row
    assert bareiss_detcof([[0, 0], [0, 0]]) == DetCof(0, 0)
    assert bareiss_detcof([[0, 1], [1, 0]]) == DetCof(-1, -2)
    assert bareiss_detcof([[0, 0], [0, 5]]) == DetCof(0, 5)
    with pytest.raises(ValueError):
        bareiss_detcof([])
    with pytest.raises(ValueError):
        bareiss_detcof([[1, 2]])


def test_expansion_guards_large_input():
    big = identity(9)
    with pytest.raises(ValueError):
        det_cofactor_expansion(big)
    with pytest.raises(ValueError):
        cof_sum_minors(big)


def test_rat_inverse_round_trip():
    rng = random.Random(42)
    found = 0
    while found < 20:
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det(m) == 0:
            continue
        found += 1
        assert mat_mul(m, rat_inverse(m)) == identity(n)


def test_rat_inverse_singular():
    d4 = [[min(abs(i - j), 4 - abs(i - j)) for j in range(4)] for i in range(4)]
    assert det(d4) == 0
    with pytest.raises(SingularMatrixError):
        rat_inverse(d4)


def test_rat_det_singular_is_zero():
    assert rat_det([[1, 2], [2, 4]]) == 0


def test_matrix_helpers():
    a = [[1, 2], [3, 4]]
    assert transpose(a) == [[1, 3], [2, 4]]
    assert mat_mul(a, identity(2)) == a
    assert mat_scale(2, a) == [[2, 4], [6, 8]]
    assert mat_vec(a, [1, 1]) == [3, 7]


@st.composite
def product_operands(draw):
    """a (p x q), b (q x r) and v (q) whose entries are all int or all Fraction."""
    entries = draw(
        st.sampled_from([st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=7)])
    )
    p, q, r = (draw(st.integers(1, 5)) for _ in range(3))

    def matrix(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    return matrix(p, q), matrix(q, r), draw(st.lists(entries, min_size=q, max_size=q))


@settings(deadline=None)
@given(product_operands())
def test_products_match_naive_loops(operands):
    a, b, v = operands
    product, image = mat_mul(a, b), mat_vec(a, v)
    assert product == mat_mul_naive(a, b)
    assert image == mat_vec_naive(a, v)
    if all(type(x) is int for row in a for x in row):
        assert all(type(x) is int for row in product for x in row) and all(type(x) is int for x in image)


def test_matrix_helpers_reject_shape_mismatch():
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(ValueError):
        mat_vec([[1, 2]], [1])
