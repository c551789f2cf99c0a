"""Rational Gaussian elimination over Fraction, kept as a test reference.

The package computes in integers only; these slow, obviously correct routines
check its determinants and its closed-form inverses from outside.
"""

from fractions import Fraction


class SingularMatrixError(ValueError):
    """Raised when an exact inverse of a singular matrix is requested."""


def _square_size(a) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix not square")
    return n


def rat_det(a) -> Fraction:
    """Determinant by rational Gaussian elimination; accepts int or Fraction entries."""
    n = _square_size(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def rat_inverse(a) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over Fraction."""
    n = _square_size(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot = m[k][k]
        m[k] = [x / pivot for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]
