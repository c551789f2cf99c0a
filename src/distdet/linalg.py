"""Exact integer matrix arithmetic.

Matrices are plain lists of row lists of Python ints (arbitrary precision).
There is deliberately no floating point anywhere: determinants of distance
matrices must come out bit-exact.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

IntMatrix = list[list[int]]

class DetCof(NamedTuple):
    """Determinant and cofactor sum of a square matrix, both exact."""

    det: int
    cof: int


def _square_size(a: Sequence[Sequence]) -> int:
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError(f"matrix not square: {n} rows but a row of length {len(row)}")
    return n


def identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_sub(a, b):
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        raise ValueError("matrix shapes differ")
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    """Matrix product, exact in whatever numeric type the entries carry."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    if a and len(a[0]) != len(v):
        raise ValueError("dimension mismatch")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def bareiss_det(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix, fraction-free Bareiss elimination.

    Pivots on the first nonzero entry in each column with row-swap sign
    tracking; every interior division in the recurrence is exact. The empty
    0x0 matrix has determinant 1.
    """
    n = _square_size(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k][k + 1 :]
        for i in range(k + 1, n):
            row_i = m[i]
            f = row_i[k]
            if f:
                row_i[k + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row_i[k + 1 :], row_k)]
            else:
                row_i[k + 1 :] = [(x * pivot) // prev for x in row_i[k + 1 :]]
        prev = pivot
    return sign * m[n - 1][n - 1]


def bareiss_detcof(a: Sequence[Sequence[int]]) -> DetCof:
    """(det A, cof A) from one fraction-free Bareiss pass over the bordered
    matrix M = [[A, 1], [1^T, 0]].

    The n-th pivot is the leading n x n minor of M, which is det A, and
    det M = -cof A, so the final entry gives the cofactor sum. Pivots for the
    first n columns are sought in the rows of A first; when the only usable
    pivot lies in the border row, A is singular and det A = 0, and the pass
    carries on for det M.
    """
    n = _square_size(a)
    if n == 0:
        raise ValueError("cofactor sum needs at least a 1x1 matrix")
    m = [list(row) + [1] for row in a]
    m.append([1] * n + [0])
    sign = 1
    prev = 1
    det = None
    for k in range(n + 1):
        if m[k][k] == 0:
            for i in range(k + 1, n + 1):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    if i == n:
                        det = 0
                    break
            else:
                # column k is zero from row k down: M is singular, and A too if k < n
                return DetCof(0 if det is None else det, 0)
        if k == n - 1 and det is None:
            det = sign * m[k][k]
        pivot = m[k][k]
        row_k = m[k][k + 1 :]
        for i in range(k + 1, n + 1):
            row_i = m[i]
            f = row_i[k]
            if f:
                row_i[k + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row_i[k + 1 :], row_k)]
            else:
                row_i[k + 1 :] = [(x * pivot) // prev for x in row_i[k + 1 :]]
        prev = pivot
    return DetCof(det, -sign * m[n][n])
