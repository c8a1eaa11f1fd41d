"""List reference for the lattice level sum: nahm._sum_levels as it was
before its series became packed-int rows, one Python list per state, merged
slot by slot with map(add) and divided by (1 - q^j) with kernels.geom_div.
Its last level is the oracle of the packed sum, row for row: the same
offsets, the same row lengths (trailing zeros included) and the same dict
order."""

import math
from operator import add

from qident import kernels
from qident.nahm import BudgetExceeded


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
