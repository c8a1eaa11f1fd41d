"""Sparse exact rank of integer rows.

Rows are dicts column->coefficient whose values are nonzero ints: the rows
the jet Hilbert series builds, and the only ones this module accepts.  The
rows passed in are not modified.  A row with a single entry pivots its
column outright; the other rows, with those columns deleted, go through
fraction-free integer elimination (the Bareiss step on sparse rows), which
is exact over Q.  This is the only rank path; there is no modular or
floating-point shortcut.  The jet Hilbert series never builds the monomial
multiples of single-term relations (it drops the columns they kill
instead), so the single-term rows that reach this function are multi-term
rows that lost their other terms to those columns.
"""

from __future__ import annotations

from math import gcd


def rank_of_rows(rows):
    """Rank over Q of the span of the given rows, each a nonempty dict of
    nonzero int entries; the rows are not modified.

    Every row with exactly one entry pivots its column, so the rank is the
    number of distinct such columns plus the rank of the other rows with
    those columns removed.  Removing columns can leave new single-term rows,
    so peeling repeats until none is left.  Only the rows that reach
    elimination are copied.
    """
    rank = 0
    while True:
        peeled = {c for row in rows if len(row) == 1 for c in row}
        if not peeled:
            break
        rank += len(peeled)
        rows = [row if peeled.isdisjoint(row) else
                {c: v for c, v in row.items() if c not in peeled}
                for row in rows if len(row) > 1]
    return rank + _eliminate([dict(row) for row in rows if row])


def _eliminate(work):
    """Rank of integer rows by fraction-free elimination, consuming rows
    shortest-first.

    Each row is divided by the gcd of its entries before every pivot lookup.
    Reducing it against the pivot row of a column it hits replaces it by
    `p*row - f*pivot`, where `p` and `f` are the two rows' entries in that
    column divided by their gcd; pivot rows are kept as they are.  Pivot
    columns are chosen by (column support size, column index), support
    counted once up front.  Deterministic.  Rows are reduced in place.
    """
    support = {}
    for row in work:
        for c in row:
            support[c] = support.get(c, 0) + 1
    work.sort(key=len)
    pivots = {}
    for row in work:
        # reduce against existing pivots until stable
        while True:
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
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
        if row:
            pivots[min(row, key=lambda c: (support[c], c))] = row
    return len(pivots)
