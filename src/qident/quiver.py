"""A-type quiver representations by segment multiplicities.

A representation is exactly a multiplicity function on segments [a,b]
(Gabriel), so enumeration is integer combinatorics; codimension is the
strand-pair sum, sensitive to the arrow orientation.  It is a quadratic form
in the multiplicities with nonnegative coefficients (codim_form), so a box of
dimension vectors is one lattice sum under a box on its charges, summed one
segment level at a time by nahm._sum_levels, never one representation at a
time.
"""

from __future__ import annotations

import itertools
from operator import add

from . import kernels, nahm
from .halfint import twice_of
from .record import Record
from .series import QSeries, CompareResult, _trimmed, inv_pochhammer_dense, series_eq


class QuiverA(Record):
    # orientation: 'R'/'L' per arrow a_1..a_{rank-1}
    __slots__ = ("rank", "orientation")

    def __init__(self, rank, orientation):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if len(orientation) != rank - 1:
            raise ValueError("need one orientation letter per arrow")
        if any(c not in ("R", "L") for c in orientation):
            raise ValueError("orientation letters must be R or L")
        self._set(rank, orientation)

    @classmethod
    def from_string(cls, rank, letters):
        return cls(rank, tuple(letters))

    @classmethod
    def equioriented(cls, rank):
        return cls(rank, ("R",) * (rank - 1))


def segments(rank):
    return [(a, b) for a in range(1, rank + 1) for b in range(a, rank + 1)]


def enumerate_reps(quiver: QuiverA, k):
    """All multiplicity functions with dimension vector k, in lexicographic
    segment order; complete and duplicate-free.

    The segments are walked by start vertex a.  Those that start before a
    already cover a, so the last segment from a, [a, rank], takes exactly
    what a still needs."""
    rank = quiver.rank
    out = []
    rep = {}

    def rec(a, b, remaining):
        if a > rank:
            out.append(dict(rep))
            return
        cap = min(remaining[a - 1:b])
        lo = remaining[a - 1] if b == rank else 0      # lo > cap: no rep
        for m in range(lo, cap + 1):
            if m:
                rep[(a, b)] = m
            rec(*((a, b + 1) if b < rank else (a + 1, a + 1)),
                remaining[:a - 1] + [r - m for r in remaining[a - 1:b]] + remaining[b:])
            rep.pop((a, b), None)

    rec(1, 1, list(k))
    return out


def codim(quiver: QuiverA, rep) -> int:
    """Orbit codimension: sum m_I*m_J over ordered strand pairs that touch
    end-to-start (1), overlap with equioriented break arrows (2), or nest with
    opposed break arrows (3).

    This pair scan is the oracle: the per-k check calls it for every rep, and
    the level sum reads it only to build its lattice form (codim_form)."""
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
    multiplicities, length): 1/(q)_M of the largest part M, divided by
    (1 - q^j) for j = 1..m of every other part m."""
    mults = tuple(sorted(filter(None, mults)))
    hit = memo.get((mults, length))
    if hit is None:
        hit = inv_pochhammer_dense(mults[-1], length) if mults else [1]
        for m in mults[:-1]:
            for j in range(1, min(m + 1, length)):
                kernels.geom_div(hit, j)
        memo[(mults, length)] = hit
    return hit


def codim_form(quiver: QuiverA) -> nahm.NahmSumSpec:
    """codim as a lattice form over the multiplicities of segments(rank):
    codim(rep) = spec.exponent(m) with m_s the multiplicity of segment s.
    codim is a quadratic form in the multiplicities, so its coefficients are
    read off codim on one- and two-segment reps; they count the strand-pair
    rules that fire, so they are >= 0, and every diagonal entry is 0.  Charge
    row v is the segment-vertex incidence of vertex v, so the charge of m is
    its dimension vector."""
    segs = segments(quiver.rank)
    diag = [codim(quiver, {seg: 1}) for seg in segs]
    four, lin2 = nahm._symmetric_from_products(len(segs), [
        (s, t, codim(quiver, {segs[s]: 1, segs[t]: 1}) - diag[s] - diag[t] if s != t else diag[s])
        for s in range(len(segs)) for t in range(s + 1)])
    return nahm.NahmSumSpec._of_ints(
        [f"m[{a},{b}]" for a, b in segs], four, lin2,
        [tuple(int(a <= v <= b) for a, b in segs) for v in range(1, quiver.rank + 1)],
        "codim-" + "".join(quiver.orientation))


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
    """{k: row of the sum of q^codim / prod (q)_{m_seg} over the reps of
    dimension vector k, through exponent length-1} for every k <= kmax (with
    sum(k) <= total when total is given): the level sum of codim_form under
    the charge box kmax, by nahm.evaluate.  A row is (first, step, S) as
    QSeries.from_rows reads it.  total is one more charge row, the segment
    lengths, boxed at total and projected away.  budget caps the level sum's
    (state, m) steps (BudgetExceeded).
    """
    spec = codim_form(quiver)
    box = tuple(kmax)
    if total is not None:
        lengths = tuple(b - a + 1 for a, b in segments(quiver.rank))
        spec = nahm.NahmSumSpec._of_ints(spec.labels, spec.four, spec.lin2,
                                         spec.charges + (lengths,), spec.name)
        box += (total,)
    series = nahm.evaluate(spec, length, node_budget=budget, charge_box=box)
    return {u[:quiver.rank]: row for u, row in series.rows.items()}


def verify_theorem51_box(quiver: QuiverA, kmax, order, budget=None, total=None):
    """verify_theorem51 for every k <= kmax, from one level sum (_level_rows).

    Yields (k, CompareResult) for each k in itertools.product order, from the
    same two series verify_theorem51(quiver, k, order) compares.  When total
    is given, only the k with sum(k) <= total are summed and compared.  The
    level sum runs before the first result; budget caps its steps
    (BudgetExceeded).  Each left side is built once per multiset of k.
    """
    order2 = twice_of(order)
    length = (order2 + 1) // 2
    rows, lhs = _level_rows(quiver, kmax, length, budget, total), {}
    if order2 % 2:  # summed to the next integer order
        rows = _trimmed(rows.items(), order2)
    for k in itertools.product(*(range(b + 1) for b in kmax)):
        if total is None or sum(k) <= total:
            key = tuple(sorted(k))
            if key not in lhs:
                lhs[key] = QSeries.from_dense(_inv_denominator(k, length, {}), order)
            rhs = QSeries._canonical(order2, 0, {(): rows[k]} if k in rows else {})
            yield k, series_eq(lhs[key], rhs)


def bridge_theorem54(n, kmax, order) -> CompareResult:
    """Equivalence bridge between the charged quiver identity and the primed
    lattice form for the equioriented quiver of rank n-1.

    Under m_[i,j] <-> m_{i,j+1} the codimension satisfies
    codim = B'(m) - (1/2) k^T A k, so the charge-k component of the quiver
    side matches the primed evaluation after multiplying by q^((1/2) k^T A k);
    that normalized comparison is performed here.
    """
    rank = n - 1
    rhs = nahm.evaluate(codim_form(QuiverA.equioriented(rank)), order, charge_box=tuple(kmax))
    ev = nahm.evaluate(nahm.build_Bprime_form(n), order, charge_box=kmax)
    cartan = nahm.build_cartan_side(f"a{n}")
    qs = QSeries.from_rows(rhs.order2, rank, (
        (ch, (first + cartan.exponent2(ch), step, coeffs))
        for ch, (first, step, coeffs) in rhs.rows.items()))
    return series_eq(qs, ev)


def render_rep(rep) -> str:
    if not any(rep.values()):
        return "(zero)"
    return " ".join(f"[{a},{b}]^{m}" for (a, b), m in sorted(rep.items()) if m)
