"""Dense-series kernels, pure Python over exact ints (no overflow anywhere).

Series are dense lists indexed by integer q-exponent.  Callers look the
kernels up through this module at call time, so a profiler can wrap them by
name.
"""

from __future__ import annotations

# perfbench/worker.py refuses to run unless this reads "pure".
BACKEND = "pure"


def conv_trunc(a, b, n):
    """Truncated Cauchy product: c[k] = sum(a[i]*b[k-i]) for k < n."""
    la, lb = len(a), len(b)
    out_len = min(n, la + lb - 1) if la and lb else 0
    c = [0] * out_len
    for i in range(min(la, out_len)):
        ai = a[i]
        if not ai:
            continue
        jmax = min(lb, out_len - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                c[i + j] += ai * bj
    return c


def geom_div(arr, step):
    """In-place division by (1 - q^step): arr[k] += arr[k-step], ascending."""
    for k in range(step, len(arr)):
        arr[k] += arr[k - step]


def geom_mul(arr, step):
    """In-place multiplication by (1 - q^step): descending pass."""
    for k in range(len(arr) - 1, step - 1, -1):
        arr[k] -= arr[k - step]


def binom_mul(arr, step, c):
    """In-place multiplication by (1 + c*q^step)."""
    for k in range(len(arr) - 1, step - 1, -1):
        arr[k] += c * arr[k - step]


def binom_div(arr, step, c):
    """In-place division by (1 + c*q^step): arr[k] -= c*arr[k-step], ascending."""
    for k in range(step, len(arr)):
        arr[k] -= c * arr[k - step]


def nahm_tail(res2, scratch, e2_base, diag2, c2, order2):
    """Innermost Nahm-sum variable loop (diag2 > 0, c2 of any sign).

    scratch holds the partial product over the already-fixed variables; it is
    consumed in place.  For multiplicity v the term contributes
    q^(e2_base + diag2*v^2 + c2*v) * scratch / (q)_v; contributions are added
    into res2 (doubled-exponent indexing).  A v whose exponent reaches order2
    is skipped before the vertex of that parabola and ends the loop past it.
    Returns the number of lattice points added.  No engine calls it any
    more; it stays until the next benchmark change, whose tracer patches it
    by name.
    """
    v = 0
    skipped = 0
    lp = len(scratch)
    while True:
        e2 = e2_base + diag2 * v * v + c2 * v
        if e2 < order2:
            kmax = (order2 - e2 + 1) // 2
            if kmax > lp:
                kmax = lp
            for k in range(kmax):
                sk = scratch[k]
                if sk:
                    res2[e2 + 2 * k] += sk
        elif 2 * diag2 * v + c2 + diag2 >= 0:
            break
        else:
            skipped += 1
        v += 1
        for k in range(v, lp):
            scratch[k] += scratch[k - v]
    return v - skipped
