"""Slow, obviously correct references that the tests check the package against.

The package computes determinants and cofactor sums by fraction-free
elimination in integers only. These routines check it from outside: rational
Gaussian elimination and Gauss-Jordan inversion over Fraction, first-row
cofactor expansion, and the cofactor sum both as det(A + J) - det(A) and
straight from its definition.
"""

from fractions import Fraction
from typing import Sequence

from distdet.linalg import bareiss_det

# cost guard for the factorial-time cross-check routines
_MINOR_LIMIT = 8


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


def det_cofactor_expansion(a: Sequence[Sequence[int]]) -> int:
    """First-row cofactor expansion, as an independent cross-check oracle."""
    n = _square_size(a)
    if n > _MINOR_LIMIT:
        raise ValueError(f"cofactor expansion limited to n <= {_MINOR_LIMIT}")
    return _det_expand([list(row) for row in a])


def _det_expand(m) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += sign * m[0][j] * _det_expand(minor)
        sign = -sign
    return total


def cof_sum(a: Sequence[Sequence[int]]) -> int:
    """Sum of all n^2 signed cofactors, via cof(A) = det(A + J) - det(A)."""
    n = _square_size(a)
    if n == 0:
        raise ValueError("cofactor sum needs at least a 1x1 matrix")
    shifted = [[x + 1 for x in row] for row in a]
    return bareiss_det(shifted) - bareiss_det(a)


def cof_sum_minors(a: Sequence[Sequence[int]]) -> int:
    """Cofactor sum straight from the definition, one signed minor per entry."""
    n = _square_size(a)
    if n == 0:
        raise ValueError("cofactor sum needs at least a 1x1 matrix")
    if n > _MINOR_LIMIT:
        raise ValueError(f"minor enumeration limited to n <= {_MINOR_LIMIT}")
    total = 0
    for i in range(n):
        rows = [a[r] for r in range(n) if r != i]
        for j in range(n):
            minor = [[row[c] for c in range(n) if c != j] for row in rows]
            total += (-1) ** (i + j) * _det_expand(minor)
    return total
