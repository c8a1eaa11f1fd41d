"""Sylvester's criterion, for drawing random positive-definite forms in the
tests: a symmetric matrix is positive definite exactly when every leading
principal minor is positive. Plain elimination over Fraction."""

from fractions import Fraction


def _det(mat):
    m = [list(map(Fraction, row)) for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def is_positive_definite(quad):
    return all(_det([row[:k] for row in quad[:k]]) > 0 for k in range(1, len(quad) + 1))
