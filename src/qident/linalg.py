"""Sparse exact rank computation over Q.

Rows are dicts column->coefficient, with int or `Fraction` values.  A row
with a single nonzero entry pivots its column outright; the other rows, with
those columns deleted, are scaled to primitive integer rows and go through
fraction-free integer elimination (the Bareiss step on sparse rows), which
is exact over Q.  Jet rows are all-int, so scaling them takes no lcm of
denominators, only the division by a gcd that is not 1.  This is the only
rank path; there is no modular or floating-point shortcut.  The jet Hilbert
series never builds the monomial multiples of single-term relations (it
drops the columns they kill instead), so the single-term rows that reach
this function are multi-term rows that lost their other terms to those
columns.
"""

from __future__ import annotations

from math import gcd, lcm


def rank_of_rows(rows):
    """Rank of the span of the given sparse rows.

    Every row with exactly one nonzero entry pivots its column, so the rank
    is the number of distinct such columns plus the rank of the other rows
    with those columns removed.  Removing columns can leave new single-term
    rows, so peeling repeats until none is left.  Zero-valued entries are not
    terms.  The rows left are scaled by nonzero rationals to primitive
    integer rows, which keeps the rank.
    """
    work = [{c: v for c, v in row.items() if v} for row in rows]
    rank = 0
    while True:
        peeled = {c for row in work if len(row) == 1 for c in row}
        if not peeled:
            break
        rank += len(peeled)
        work = [{c: v for c, v in row.items() if c not in peeled}
                for row in work if len(row) > 1]
    return rank + _eliminate([_primitive(row) for row in work if row])


def _primitive(row):
    """The integer multiple of a nonempty row with coprime entries; an
    all-int row with coprime entries comes back as it is."""
    if not all(type(v) is int for v in row.values()):
        den = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(work):
    """Rank of integer rows by fraction-free elimination, consuming rows
    shortest-first.

    Reducing a row against the pivot row of a column it hits replaces it by
    `p*row - f*pivot`, where `p` and `f` are the two rows' entries in that
    column divided by their gcd, and then divides it by the gcd of its
    entries; pivot rows are kept as they are.  Pivot columns are chosen by
    (column support size, column index), support counted once up front.
    Deterministic.  Rows are reduced in place.
    """
    support = {}
    for row in work:
        for c in row:
            support[c] = support.get(c, 0) + 1
    work.sort(key=lambda r: (len(r), sorted(r)))
    pivots = {}
    for row in work:
        # reduce against existing pivots until stable
        while True:
            hit = next((c for c in row if c in pivots), None)
            if hit is None:
                break
            pivot = pivots[hit]
            p, f = pivot[hit], row[hit]
            g = gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                for c in row:
                    row[c] *= p
            for c, v in pivot.items():
                nv = row.get(c, 0) - f * v
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
        if row:
            pivots[min(row, key=lambda c: (support[c], c))] = row
    return len(pivots)
