# cython: language_level=3
"""Compiled dense-series kernels (semantics identical to _kernels_py).

Coefficients are Python ints held in lists; Cython removes the interpreter
loop overhead, which is where the Nahm enumerations spend their time.
"""


def conv_trunc(list a, list b, Py_ssize_t n):
    """Truncated Cauchy product: c[k] = sum(a[i]*b[k-i]) for k < n."""
    cdef Py_ssize_t la = len(a)
    cdef Py_ssize_t lb = len(b)
    cdef Py_ssize_t out_len
    if la == 0 or lb == 0:
        return []
    out_len = la + lb - 1
    if out_len > n:
        out_len = n
    cdef list c = [0] * out_len
    cdef Py_ssize_t i, j, jmax
    for i in range(min(la, out_len)):
        ai = a[i]
        if not ai:
            continue
        jmax = lb
        if jmax > out_len - i:
            jmax = out_len - i
        for j in range(jmax):
            bj = b[j]
            if bj:
                c[i + j] = c[i + j] + ai * bj
    return c


def geom_div(list arr, Py_ssize_t step):
    """In-place division by (1 - q^step)."""
    cdef Py_ssize_t k
    for k in range(step, len(arr)):
        arr[k] = arr[k] + arr[k - step]


def geom_mul(list arr, Py_ssize_t step):
    """In-place multiplication by (1 - q^step)."""
    cdef Py_ssize_t k
    for k in range(len(arr) - 1, step - 1, -1):
        arr[k] = arr[k] - arr[k - step]


def binom_mul(list arr, Py_ssize_t step, c):
    """In-place multiplication by (1 + c*q^step)."""
    cdef Py_ssize_t k
    for k in range(len(arr) - 1, step - 1, -1):
        arr[k] = arr[k] + c * arr[k - step]


def binom_div(list arr, Py_ssize_t step, c):
    """In-place division by (1 + c*q^step)."""
    cdef Py_ssize_t k
    for k in range(step, len(arr)):
        arr[k] = arr[k] - c * arr[k - step]


def nahm_tail(list res2, list scratch, long long e2_base, long long diag2,
              long long c2, long long order2):
    """Innermost Nahm-sum variable loop (diag2 > 0, c2 of any sign); see _kernels_py."""
    cdef long long v = 0
    cdef long long skipped = 0
    cdef long long e2
    cdef Py_ssize_t k, kmax
    cdef Py_ssize_t lp = len(scratch)
    while True:
        e2 = e2_base + diag2 * v * v + c2 * v
        if e2 < order2:
            kmax = <Py_ssize_t> ((order2 - e2 + 1) // 2)
            if kmax > lp:
                kmax = lp
            for k in range(kmax):
                sk = scratch[k]
                if sk:
                    res2[e2 + 2 * k] = res2[e2 + 2 * k] + sk
        elif 2 * diag2 * v + c2 + diag2 >= 0:
            break
        else:
            skipped += 1
        v += 1
        for k in range(<Py_ssize_t> v, lp):
            scratch[k] = scratch[k] + scratch[k - v]
    return v - skipped
