"""A-type quiver representations by segment multiplicities.

A representation is exactly a multiplicity function on segments [a,b]
(Gabriel), so enumeration is integer combinatorics; codimension is the
strand-pair sum, sensitive to the arrow orientation.  It is a quadratic form
in the multiplicities, so the box walk carries it from a table of pair
weights instead of rescanning the pairs of every representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

from . import kernels
from .halfint import twice_of
from .nahm import BudgetExceeded
from .series import QSeries, CompareResult, inv_pochhammer_dense, series_eq


@dataclass(frozen=True)
class QuiverA:
    rank: int
    orientation: tuple   # 'R'/'L' per arrow a_1..a_{rank-1}

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if len(self.orientation) != self.rank - 1:
            raise ValueError("need one orientation letter per arrow")
        if any(c not in ("R", "L") for c in self.orientation):
            raise ValueError("orientation letters must be R or L")

    @classmethod
    def from_string(cls, rank, letters):
        return cls(rank, tuple(letters))

    @classmethod
    def equioriented(cls, rank):
        return cls(rank, ("R",) * (rank - 1))


def segments(rank):
    return [(a, b) for a in range(1, rank + 1) for b in range(a, rank + 1)]


def dimension_vector(rank, rep):
    """k_v = sum of multiplicities of segments containing v."""
    k = [0] * rank
    for (a, b), m in rep.items():
        if m:
            for v in range(a, b + 1):
                k[v - 1] += m
    return tuple(k)


def enumerate_reps(quiver: QuiverA, k):
    """All multiplicity functions with dimension vector k, in lexicographic
    segment order; complete and duplicate-free."""
    segs = segments(quiver.rank)
    out = []
    rep = {}

    def rec(idx, remaining):
        if idx == len(segs):
            if all(r == 0 for r in remaining):
                out.append(dict(rep))
            return
        a, b = segs[idx]
        cap = min(remaining[v - 1] for v in range(a, b + 1))
        # pruning: a vertex whose remaining demand can no longer be covered
        # by the segments still ahead kills the branch
        for m in range(cap + 1):
            nxt = list(remaining)
            feasible = True
            for v in range(a, b + 1):
                nxt[v - 1] -= m
            for v in range(1, quiver.rank + 1):
                if nxt[v - 1] and not _still_coverable(segs, idx + 1, v):
                    feasible = False
                    break
            if feasible:
                if m:
                    rep[(a, b)] = m
                rec(idx + 1, nxt)
                if m:
                    del rep[(a, b)]
        return

    rec(0, list(k))
    return out


def _still_coverable(segs, start, v):
    for i in range(start, len(segs)):
        a, b = segs[i]
        if a <= v <= b:
            return True
    return False


def codim(quiver: QuiverA, rep) -> int:
    """Orbit codimension: sum m_I*m_J over ordered strand pairs that touch
    end-to-start (1), overlap with equioriented break arrows (2), or nest with
    opposed break arrows (3).

    This pair scan is the oracle: the per-k check calls it for every rep, and
    the box walk reads it only to build its table of pair weights
    (_pair_weights), from which it carries the codimension instead."""
    orient = quiver.orientation
    items = [(seg, m) for seg, m in rep.items() if m]
    total = 0
    for (ia, ib), mi in items:
        for (ja, jb), mj in items:
            # (1) I=[w,x-1], J=[x,z]: J starts right after I ends
            if ja == ib + 1:
                total += mi * mj
            # (2) I=[w,y], J=[x,z], w<x<=y<z, arrows a_{x-1}, a_y same direction
            if ia < ja <= ib < jb:
                if orient[ja - 2] == orient[ib - 1]:
                    total += mi * mj
            # (3) I=[x,y], J=[w,z], w<x<=y<z, arrows a_{x-1}, a_y differ
            if ja < ia <= ib < jb:
                if orient[ia - 2] != orient[ib - 1]:
                    total += mi * mj
    return total


def _inv_denominator(mults, length, memo):
    """Dense 1/prod (q)_m over the multiplicities m, through exponent
    length-1 (shorter when every m is 0), memoized in memo by (sorted nonzero
    multiplicities, length)."""
    mults = tuple(sorted(filter(None, mults)))
    hit = memo.get((mults, length))
    if hit is None:
        hit = [1]
        for m in mults:
            hit = kernels.conv_trunc(hit, inv_pochhammer_dense(m, length), length)
        memo[(mults, length)] = hit
    return hit


def _pair_weights(quiver: QuiverA, segs):
    """W with codim(rep) = sum_s (W[s][s] m_s^2 + sum_{t<s} W[s][t] m_s m_t)
    over the multiplicities m_s of segs[s]: codim is a quadratic form in the
    multiplicities, so W is read off codim on one- and two-segment reps.
    W[s][t] counts the rules that fire for segs[s] and segs[t], either way
    round; row s holds t = 0..s."""
    diag = [codim(quiver, {seg: 1}) for seg in segs]
    return [[codim(quiver, {segs[s]: 1, segs[t]: 1}) - diag[s] - diag[t]
             for t in range(s)] + [diag[s]]
            for s in range(len(segs))]


def _add_rep(row, c, mults, memo):
    """row += q^c / prod (q)_m over the multiplicities m, truncated to
    len(row)."""
    if c < len(row):
        den = _inv_denominator(mults, len(row), memo)
        end = c + len(den)
        row[c:end] = map(add, row[c:end], den)


def verify_theorem51(quiver: QuiverA, k, order) -> CompareResult:
    """1/prod (q)_{k_i} against sum over reps of q^codim / prod (q)_{m_seg}."""
    length = (twice_of(order) + 1) // 2
    row = [0] * length
    memo = {}
    for rep in enumerate_reps(quiver, k):
        _add_rep(row, codim(quiver, rep), rep.values(), memo)
    return series_eq(QSeries.from_dense(_inv_denominator(k, length, memo), order),
                     QSeries.from_dense(row, order))


def _reps_in_box(quiver: QuiverA, kmax, budget=None, total=None):
    """Yield (dimension vector, rep, codim(quiver, rep)) for every
    multiplicity function whose dimension vector fits under kmax, and sums to
    at most total when total is given, in lexicographic segment order (so the
    reps of one dimension vector come in enumerate_reps order).  The rep dict
    is reused between yields; copy it to keep it.  budget caps the reps.

    The walk is an odometer over the segment multiplicities, last segment
    fastest, and carries the codimension from the _pair_weights table:
    setting segment idx to multiplicity m adds
    m * sum_{t<idx} W[idx][t] m_t + W[idx][idx] m^2 to that of the segments
    before it."""
    segs = segments(quiver.rank)
    weights = _pair_weights(quiver, segs)
    n = len(segs)
    rep = {}
    mults = [0] * n
    caps = [0] * n
    lins = [0] * n             # lins[i] = sum_{t<i} W[i][t] m_t
    codims = [0] * (n + 1)     # codims[i]: codimension of the segments before i
    used = [0] * quiver.rank
    size = 0
    count = 0
    idx = 0
    while True:
        # open segments idx.. at multiplicity 0
        for i in range(idx, n):
            a, b = segs[i]
            cap = min(kmax[v - 1] - used[v - 1] for v in range(a, b + 1))
            if total is not None:
                cap = min(cap, (total - size) // (b - a + 1))
            caps[i] = cap
            lins[i] = sum(w * m for w, m in zip(weights[i], mults[:i]))
            codims[i + 1] = codims[i]
        count += 1
        if budget is not None and count > budget:
            raise BudgetExceeded("quiver representations", budget)
        yield tuple(used), rep, codims[n]
        # close the segments already at their cap, then raise the last open one
        idx = n - 1
        while idx >= 0 and mults[idx] >= caps[idx]:
            m = mults[idx]
            if m:
                a, b = segs[idx]
                del rep[(a, b)]
                mults[idx] = 0
                for v in range(a, b + 1):
                    used[v - 1] -= m
                size -= m * (b - a + 1)
            idx -= 1
        if idx < 0:
            return
        a, b = segs[idx]
        m = mults[idx] = rep[(a, b)] = mults[idx] + 1
        for v in range(a, b + 1):
            used[v - 1] += 1
        size += b - a + 1
        codims[idx + 1] = codims[idx] + m * lins[idx] + weights[idx][idx] * m * m
        idx += 1


def _box_rows(quiver, kmax, length, memo, budget=None, on_rep=None, total=None):
    """{k: dense sum of q^codim / prod (q)_{m_seg} over the reps of dimension
    vector k} for every k <= kmax (with sum(k) <= total when total is given),
    from one walk over the box; on_rep(k, rep) sees each rep as it is walked.
    The codimension is the one the walk carries; codim is not called per
    rep."""
    rows = {}
    for k, rep, c in _reps_in_box(quiver, kmax, budget, total):
        if on_rep is not None:
            on_rep(k, rep)
        row = rows.get(k)
        if row is None:
            row = rows[k] = [0] * length
        _add_rep(row, c, rep.values(), memo)
    return rows


def verify_theorem51_box(quiver: QuiverA, kmax, order, budget=None, on_rep=None,
                         total=None):
    """verify_theorem51 for every k <= kmax, from one walk over the box.

    Yields (k, CompareResult) for each k in itertools.product order, from the
    same two series verify_theorem51(quiver, k, order) compares.  When total
    is given, only the k with sum(k) <= total are walked and compared.  The
    walk runs before the first result; on_rep(k, rep) sees each rep during it
    and budget caps the reps walked (BudgetExceeded).
    """
    length = (twice_of(order) + 1) // 2
    memo = {}
    rows = _box_rows(quiver, kmax, length, memo, budget, on_rep, total)
    for k in itertools.product(*(range(b + 1) for b in kmax)):
        if total is None or sum(k) <= total:
            yield k, series_eq(QSeries.from_dense(_inv_denominator(k, length, memo), order),
                               QSeries.from_dense(rows[k], order))


def quiver_generating_series(quiver: QuiverA, kmax, order):
    """Both sides of the charged generating identity over the box k <= kmax.

    lhs: sum over k in the box of x^k / prod (q)_{k_i};
    rhs: sum over reps with dimension vector in the box of
         q^codim(rep) x^dim(rep) / prod (q)_{m_seg}.
    """
    order2 = twice_of(order)
    length = (order2 + 1) // 2
    rank = quiver.rank

    memo = {}
    lhs_terms = {}
    for k in itertools.product(*(range(b + 1) for b in kmax)):
        for e, c in enumerate(_inv_denominator(k, length, memo)):
            if c:
                lhs_terms[(2 * e, k)] = c
    rhs_terms = {(2 * e, dim): c
                 for dim, row in _box_rows(quiver, kmax, length, memo).items()
                 for e, c in enumerate(row) if c}
    lhs = QSeries._raw(order2, rank, lhs_terms)
    rhs = QSeries._raw(order2, rank, rhs_terms)
    return lhs, rhs


def bridge_theorem54(n, kmax, order) -> CompareResult:
    """Equivalence bridge between the charged quiver identity and the primed
    lattice form for the equioriented quiver of rank n-1.

    Under m_[i,j] <-> m_{i,j+1} the codimension satisfies
    codim = B'(m) - (1/2) k^T A k, so the charge-k component of the quiver
    side matches the primed evaluation after multiplying by q^((1/2) k^T A k);
    that normalized comparison is performed here.
    """
    from . import nahm

    rank = n - 1
    qv = QuiverA.equioriented(rank)
    _, rhs = quiver_generating_series(qv, kmax, order)
    ev = nahm.evaluate(nahm.build_Bprime_form(n), order, charges=True).restrict_charges(kmax)
    cartan = nahm.build_cartan_side(f"a{n}")
    shifted = {}                    # the shift depends on ch alone: keys stay distinct
    for (e2, ch), c in rhs.terms.items():
        e2n = e2 + cartan.exponent2(ch)
        if e2n < rhs.order2:
            shifted[(e2n, ch)] = c
    qs = QSeries._raw(rhs.order2, rank, shifted)
    return series_eq(qs, ev)


def render_rep(rep) -> str:
    if not any(rep.values()):
        return "(zero)"
    return " ".join(f"[{a},{b}]^{m}" for (a, b), m in sorted(rep.items()) if m)
