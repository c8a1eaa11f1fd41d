"""A-type quiver representations by segment multiplicities.

A representation is exactly a multiplicity function on segments [a,b]
(Gabriel), so enumeration is integer combinatorics; codimension is the
strand-pair sum, sensitive to the arrow orientation.  It is a quadratic form
in the multiplicities, so the box is summed one segment level at a time from
a table of pair weights, never one representation at a time.
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
    the level sum reads it only to build its table of pair weights
    (_pair_weights)."""
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


def verify_theorem51(quiver: QuiverA, k, order) -> CompareResult:
    """1/prod (q)_{k_i} against sum over reps of q^codim / prod (q)_{m_seg}."""
    length = (twice_of(order) + 1) // 2
    row = [0] * length
    memo = {}
    for rep in enumerate_reps(quiver, k):
        c = codim(quiver, rep)
        if c < length:
            den = _inv_denominator(rep.values(), length, memo)
            row[c:c + len(den)] = map(add, row[c:c + len(den)], den)
    return series_eq(QSeries.from_dense(_inv_denominator(k, length, memo), order),
                     QSeries.from_dense(row, order))


def _level_rows(quiver: QuiverA, kmax, length, budget=None, total=None):
    """{k: dense sum of q^codim / prod (q)_{m_seg} over the reps of dimension
    vector k, through exponent length-1} for every k <= kmax (with sum(k) <=
    total when total is given), one segment level at a time.

    With W the _pair_weights table, the codimension that segments d.. add
    depends on the multiplicities m_t before d only through the pair sums
    P_j = sum_{t<d} W[j][t] m_t, j >= d.  So level d maps each distinct
    state (P_d, ..., P_{n-1}, dimension vector so far) to (offset, S): the
    sum, over the prefixes that reach it, of q^codim / prod (q)_m, as
    q^offset * S cut below q^length.  Fixing m_d = m adds
    m*P_d + W[d][d]*m^2 to the exponent and sends S/(q)_m to the state
    P_j + m*W[j][d], dimension vector + m on the vertices of segment d.  The
    weights are >= 0, so the exponent never falls as m grows and the first m
    at the cut ends the loop; kmax, and total when given, cap m.  The last
    level holds one state per dimension vector.  budget caps the (state, m)
    steps (BudgetExceeded).
    """
    segs = segments(quiver.rank)
    weights = _pair_weights(quiver, segs)
    n = len(segs)
    geom_div = kernels.geom_div
    steps = 0
    seed = [0] * length
    seed[0] = 1
    level = {(0,) * (n + quiver.rank): (0, seed)}
    for d, (a, b) in enumerate(segs):
        w = weights[d][d]
        row = tuple(weights[j][d] for j in range(d + 1, n)) + tuple(
            int(a <= v <= b) for v in range(1, quiver.rank + 1))
        nxt = {}
        while level:
            state, (off, S) = level.popitem()
            used = state[n - d:]
            cap = min(kmax[v - 1] - used[v - 1] for v in range(a, b + 1))
            if total is not None:
                cap = min(cap, (total - sum(used)) // (b - a + 1))
            lin = state[0]
            child = state[1:]
            m = 0
            e = off
            while True:
                # S is the state's series over (q)_m, cut to the slots of e below q^length
                steps += 1
                if budget is not None and steps > budget:
                    raise BudgetExceeded("quiver level steps", budget)
                old = nxt.get(child)
                if old is None:
                    nxt[child] = (e, S[:])
                elif old[0] <= e:
                    T = old[1]
                    p = e - old[0]
                    T[p:] = map(add, T[p:], S)
                else:
                    p = old[0] - e
                    merged = S[:p]
                    merged += map(add, S[p:], old[1])
                    nxt[child] = (e, merged)
                m += 1
                e = off + m * lin + w * m * m
                if m > cap or e >= length:
                    break
                del S[length - e:]
                geom_div(S, m)
                child = tuple(map(add, child, row))
        level = nxt
    return {k: [0] * off + S for k, (off, S) in level.items()}


def verify_theorem51_box(quiver: QuiverA, kmax, order, budget=None, total=None):
    """verify_theorem51 for every k <= kmax, from one level sum (_level_rows).

    Yields (k, CompareResult) for each k in itertools.product order, from the
    same two series verify_theorem51(quiver, k, order) compares.  When total
    is given, only the k with sum(k) <= total are summed and compared.  The
    level sum runs before the first result; budget caps its steps
    (BudgetExceeded).
    """
    length = (twice_of(order) + 1) // 2
    memo = {}
    rows = _level_rows(quiver, kmax, length, budget, total)
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
                 for dim, row in _level_rows(quiver, kmax, length).items()
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
