"""Reference rank for the sparse rank tests: plain dense Gauss-Jordan
elimination over Fraction, no peeling, no pivot heuristics.  The sparse rank
takes integer rows only; `integer_rows` scales rational rows to those."""

from fractions import Fraction
from math import lcm


def dense_rank(rows):
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    m = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def integer_rows(rows):
    """Each row times the lcm of its denominators: the same rank, int entries."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row.values()))
        out.append({c: int(v * den) for c, v in row.items()})
    return out
