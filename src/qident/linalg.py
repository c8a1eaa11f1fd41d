"""Sparse exact rank computation over Q.

Rows are dicts column->coefficient.  A row with a single nonzero entry pivots
its column outright; the other rows, with those columns deleted, go through
exact `Fraction` elimination.  This is the only rank path; there is no
modular or floating-point shortcut.  The jet Hilbert series never builds the
monomial multiples of single-term relations (it drops the columns they kill
instead), so the single-term rows that reach this function are multi-term
rows that lost their other terms to those columns.
"""

from __future__ import annotations

from fractions import Fraction


def rank_of_rows(rows):
    """Rank of the span of the given sparse rows.

    Every row with exactly one nonzero entry pivots its column, so the rank
    is the number of distinct such columns plus the rank of the other rows
    with those columns removed.  Removing columns can leave new single-term
    rows, so peeling repeats until none is left.  Zero-valued entries are not
    terms.
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
    return rank + _eliminate([{c: Fraction(v) for c, v in row.items()}
                              for row in work if row])


def _eliminate(work):
    """Rank by exact elimination, consuming rows shortest-first.

    Pivot columns are chosen by (column support size, column index), support
    counted once up front.  Deterministic.  Rows are reduced in place.
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
            factor = row[hit]
            for c, v in pivots[hit].items():
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
        if row:
            pc = min(row, key=lambda c: (support[c], c))
            inv = 1 / row[pc]
            pivots[pc] = {c: v * inv for c, v in row.items()}
    return len(pivots)
