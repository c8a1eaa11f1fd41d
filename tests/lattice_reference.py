"""References for the lattice level sum and its certification.

list_sum_levels is nahm._sum_levels as it was before its series became
packed-int rows, one Python list per state, merged slot by slot with
map(add) and divided by (1 - q^j) with kernels.geom_div.  Its last level is
the oracle of the packed sum, row for row: the same offsets, the same row
lengths (trailing zeros included) and the same dict order.

fraction_bound is the positive-definite branch of nahm.compute_bound as it
was before the elimination became fraction-free: a reverse LDL^T split of
spec.quad in Fractions, the diagonal of Q^-1 from it, and the table built
from those Fractions.  It is the oracle of the integer elimination, cap for
cap and table entry for table entry.

evaluate_bruteforce iterates the whole box and multiplies every term out
naively: the unpruned oracle of nahm.evaluate at small sizes.

form_difference_pure is kind(m) - (1/2) lambda(m)^T A lambda(m) in the m
variables alone, summed in Fractions off the public quad view: the oracle of
forms.expand_form_difference on lattice points.
"""

import itertools
import math
from fractions import Fraction
from operator import add

from qident import kernels
from qident.halfint import twice_of
from qident import nahm
from qident.nahm import BudgetExceeded, CoercivityError, EnumerationBound, _box_caps
from qident.poly import add_terms
from qident.series import QSeries, inv_pochhammer_dense


def _reverse_ldl(quad):
    """Exact reverse split x^T Q x = sum_k D_k (x_k + sum_{i<k} M_ki x_i)^2.

    Eliminates the last variable first and returns (D, M).  The pivots D_k
    are all positive exactly when quad is positive definite; the first one
    that is not raises CoercivityError.
    """
    l = len(quad)
    A = [list(row) for row in quad]
    D = [None] * l
    M = [[Fraction(0)] * l for _ in range(l)]
    for k in range(l - 1, -1, -1):
        D[k] = A[k][k]
        if D[k] <= 0:
            raise CoercivityError("matrix is not positive definite")
        for i in range(k):
            M[k][i] = A[k][i] / D[k]
        for i in range(k):
            for j in range(k):
                A[i][j] -= M[k][i] * A[k][j]
    return D, M


def _inverse_diagonal(D, M):
    """Diagonal of Q^-1 from the split of _reverse_ldl.

    Q = U^T diag(D) U with U unit lower triangular (U_ki = M_ki below the
    diagonal), so (Q^-1)_ii = sum_k (U^-1)_ik^2 / D_k.
    """
    l = len(D)
    V = [[Fraction(int(i == k)) for k in range(l)] for i in range(l)]
    for k in range(l):
        for i in range(k):
            V[k][i] = -sum(M[k][j] * V[j][i] for j in range(i, k))
    return [sum(V[i][k] ** 2 / D[k] for k in range(i + 1)) for i in range(l)]


def _max_v_strict(bound):
    """Largest integer v with v^2 < bound (0 if none)."""
    if bound <= 0:
        return 0
    fl = bound.numerator // bound.denominator
    v = math.isqrt(fl)
    while Fraction(v * v) >= bound:
        v -= 1
    while Fraction((v + 1) * (v + 1)) < bound:
        v += 1
    return max(v, 0)


def fraction_bound(spec, order, charge_box=None):
    """The positive-definite EnumerationBound of nahm.compute_bound, built in
    Fractions; CoercivityError when a pivot is not positive."""
    order2 = twice_of(order)
    caps = _box_caps(spec, charge_box)
    g = math.gcd(2, *spec.lin2, *(x // (1 + (i == j)) for i, row in enumerate(spec.four)
                                  for j, x in enumerate(row)))
    D, M = _reverse_ldl(spec.quad)
    per_var = [_max_v_strict(Fraction(order2, 2) * w) for w in _inverse_diagonal(D, M)]
    l = spec.nvars
    den = math.lcm(*(x.denominator for row in M for x in row))
    scaled = [2 * Dk / den ** 2 for Dk in D]
    G = math.lcm(*(x.denominator for x in scaled))
    W = [int(G * x) for x in scaled]
    R = [[int(den * M[j][d]) for j in range(l)] for d in range(l)]
    table = (G, g, [(w * den * den, 2 * w * den, w) for w in W], R, [0] * l)
    return EnumerationBound(tuple(v if c is None else min(v, c) for v, c in zip(per_var, caps)),
                            "positive_definite", table)


def list_sum_levels(spec, order2, rank, node_budget, bound, charge_box=None):
    """{u: (offset, S)} of nahm._sum_levels, each S a dense list."""
    l = spec.nvars
    G, g, levels, R, lin = bound.table
    top = bound.per_variable_max
    step = G * g
    cut = G * order2
    unit = 2 // g
    charges = spec.charges[:rank]
    definite = bound.strategy == "positive_definite"
    budget = math.inf if node_budget is None else node_budget
    cols = [[R[i][k] * (i < k) for i in range(l)] for k in range(l)] + list(charges)
    bias = [-sum(t * min(c, 0) for t, c in zip(top, col)) for col in cols]
    width = max([1] + [(b + sum(t * max(c, 0) for t, c in zip(top, col))).bit_length()
                       for b, col in zip(bias, cols)])
    mask = (1 << width) - 1
    steps = 0
    seed = [0] * -(-order2 // g)
    seed[0] = 1
    level = {sum(b << width * k for k, b in enumerate(bias)): (0, seed)}
    for d in range(l):
        a, beta, delta = levels[d]
        bd, lind = bias[d], lin[d]
        vtop = top[d]
        boxed = [] if charge_box is None else [
            (width * (l - d + i), cap + bias[l + i], ch[d])
            for i, (cap, ch) in enumerate(zip(charge_box, charges)) if ch[d] > 0]
        row = sum(R[d][k] << width * (k - d - 1) for k in range(d + 1, l)) + sum(
            ch[d] << width * (l - d - 1 + i) for i, ch in enumerate(charges))
        nxt = {}
        while level:
            state, (off, S) = level.popitem()
            sd = (state & mask) - bd
            b = beta * sd + lind
            e = off + delta * sd * sd
            vr = -((a + b) // (2 * a)) if definite else 0
            vmax = min(vtop, *[(cap - (state >> sh & mask)) // c
                               for sh, cap, c in boxed]) if boxed else vtop
            child = state >> width
            v = 0
            while True:
                if e < cut:
                    steps += 1
                    old = nxt.get(child)
                    if old is None:
                        nxt[child] = (e, S[:(cut - e - 1) // step + 1])
                    elif old[0] <= e:
                        T = old[1]
                        p = (e - old[0]) // step
                        T[p:] = map(add, T[p:], S)
                    else:
                        p = (old[0] - e) // step
                        merged = S[:p]
                        merged += map(add, S[p:], old[1])
                        nxt[child] = (e, merged)
                if v >= vmax:
                    break
                e += a * (2 * v + 1) + b
                v += 1
                if v >= vr:
                    if e >= cut:
                        break
                    del S[(cut - e - 1) // step + 1:]
                kernels.geom_div(S, unit * v)
                child += row
            if steps > budget:
                raise BudgetExceeded("level-sum steps", node_budget)
        level = nxt
    keys, columns = list(level), []
    for b in bias[l:]:
        columns.append([(key & mask) - b for key in keys])
        keys = [key >> width for key in keys]
    return dict(zip(zip(*columns) if columns else [()] * len(keys), level.values()))


def evaluate_bruteforce(spec, order, box, charges=True):
    """Unpruned oracle: iterate the whole box, multiply everything out naively.

    Independent of the level sum (no pruning, no shared states); used to
    cross-check evaluate() at small sizes.
    """
    order2 = twice_of(order)
    rank = spec.charge_rank if charges else 0
    int_len = (order2 + 1) // 2
    acc = {}
    for m in itertools.product(*(range(b + 1) for b in box)):
        e2 = spec.exponent2(m)
        if e2 >= order2:
            continue
        prod = [1]
        for mi in m:
            prod = kernels.conv_trunc(prod, inv_pochhammer_dense(mi, int_len), int_len)
        ch = spec.charge_of(m) if rank else ()
        add_terms(acc, (((e2 + 2 * k, ch), c) for k, c in enumerate(prod)
                        if e2 + 2 * k < order2))
    return QSeries._raw(order2, rank, acc)


def form_difference_pure(n, kind):
    """kind(m) - (1/2) lambda(m)^T A lambda(m), purely in the m variables.

    Built over the rank-(n+1) variable set so its monomials line up with the
    six-type bookkeeping of expand_form_difference(n, ...).  With k = C m
    for the charge matrix C, the subtracted form is C^T (A/2) C.
    """
    spec = {"B": nahm.build_B_form, "Bprime": nahm.build_Bprime_form}[kind](n + 1)
    A = nahm.cartan_matrix(f"a{n + 1}")
    C = spec.charges
    l = spec.nvars
    quad = tuple(tuple(spec.quad[a][b] - Fraction(sum(C[i][a] * A[i][j] * C[j][b]
                                                      for i in range(n) for j in range(n)), 2)
                       for b in range(l)) for a in range(l))
    return nahm.NahmSumSpec(spec.labels, quad, spec.linear, ())
