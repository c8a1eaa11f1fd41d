"""Per-rep references for the quiver level sum: rows built one representation
at a time from enumerate_reps and codim, and the level sum's step count
taken from prefixes of multiplicities with codim alone, and both sides of
the charged generating identity (quiver_generating_series)."""

import itertools

from qident import quiver
from qident.halfint import twice_of
from qident.nahm import evaluate
from qident.series import QSeries


def dimension_vector(rank, rep):
    """k_v = sum of multiplicities of segments containing v."""
    k = [0] * rank
    for (a, b), m in rep.items():
        if m:
            for v in range(a, b + 1):
                k[v - 1] += m
    return tuple(k)


def per_rep_rows(qv, kmax, length, total=None):
    """{k: dense sum of q^codim / prod (q)_{m_seg} over enumerate_reps(qv, k),
    through exponent length-1} for every k <= kmax with sum(k) <= total."""
    rows = {}
    memo = {}
    for k in itertools.product(*(range(b + 1) for b in kmax)):
        if total is not None and sum(k) > total:
            continue
        row = rows[k] = [0] * length
        for rep in quiver.enumerate_reps(qv, k):
            c = quiver.codim(qv, rep)
            for e, x in enumerate(quiver._inv_denominator(rep.values(), length, memo)):
                if c + e < length:
                    row[c + e] += x
    return rows


def dense_rows(rows, length):
    """_level_rows' rows {k: (first, 2, S)} as dense lists through exponent
    length-1, as per_rep_rows gives them."""
    dense = {}
    for k, (first, _step, coeffs) in rows.items():
        row = dense[k] = [0] * length
        for i, c in enumerate(coeffs):
            if first // 2 + i < length:
                row[first // 2 + i] += c
    return dense


def level_steps(qv, kmax, length, total=None):
    """The (state, m) steps of the level sum over the box k <= kmax.

    Before segment d a prefix of multiplicities has the state (its dimension
    vector, and for each segment j >= d the codimension that one copy of j
    adds to it).  A step is a distinct (d, state, m) with m within the caps
    for which some prefix of that state reaches codimension below length."""
    segs = quiver.segments(qv.rank)
    seen = set()

    def rec(d, rep):
        if d == len(segs):
            return
        base = quiver.codim(qv, rep)
        k = dimension_vector(qv.rank, rep)
        state = (d, k, tuple(quiver.codim(qv, {**rep, s: 1}) - base - quiver.codim(qv, {s: 1})
                             for s in segs[d:]))
        a, b = segs[d]
        m = 0
        while (all(k[v - 1] + m <= kmax[v - 1] for v in range(a, b + 1))
               and (total is None or sum(k) + m * (b - a + 1) <= total)):
            ext = {**rep, segs[d]: m}
            if quiver.codim(qv, ext) < length:
                seen.add((state, m))
                rec(d + 1, ext)
            m += 1

    rec(0, {})
    return len(seen)


def quiver_generating_series(qv, kmax, order):
    """Both sides of the charged generating identity over the box k <= kmax.

    lhs: sum over k in the box of x^k / prod (q)_{k_i};
    rhs: sum over reps with dimension vector in the box of
         q^codim(rep) x^dim(rep) / prod (q)_{m_seg}.
    """
    order2 = twice_of(order)
    length = (order2 + 1) // 2
    memo = {}
    lhs = QSeries.from_rows(order2, qv.rank, (
        (k, (0, 2, quiver._inv_denominator(k, length, memo)))
        for k in itertools.product(*(range(b + 1) for b in kmax))))
    return lhs, evaluate(quiver.codim_form(qv), order, charge_box=tuple(kmax))
