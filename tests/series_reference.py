"""Term-dict references for QSeries, which keeps one dense row per charge.

Each function reads the `.terms` views, {(doubled exponent, charges):
coefficient}, and works on them one term at a time: the product, the sum,
the text form and the first-violation walk of series_eq and series_leq.
The tests read a series through the same views: its truncation order, its
projection to charge 1 and its slice at one charge value.
"""

import operator
from fractions import Fraction

from qident.poly import add_terms, powers, render_terms
from qident.series import CompareResult, Mismatch, QSeries, _q_power


def reference_mul(a, b):
    """The term dict of a * b: every pair of terms below the common order."""
    order2 = min(a.order2, b.order2)
    out = {}
    for (e2a, cha), ca in a.terms.items():
        if e2a >= order2:
            continue
        rem = order2 - e2a
        for (e2b, chb), cb in b.terms.items():
            if e2b >= rem:
                continue
            key = (e2a + e2b, tuple(x + y for x, y in zip(cha, chb)))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def reference_add(a, b):
    """The term dict of a + b below the common order."""
    order2 = min(a.order2, b.order2)
    terms = {k: v for k, v in a.terms.items() if k[0] < order2}
    return add_terms(terms, (kv for kv in b.terms.items() if kv[0][0] < order2))


def reference_render(s):
    """Text of s: terms sorted by (q-exponent, charges)."""
    names = [f"y{i}" for i in range(1, s.charge_rank + 1)]
    return render_terms((c, _q_power(e2) + powers(names, charges))
                        for (e2, charges), c in sorted(s.terms.items()))


def reference_first_violation(a, b, violates) -> CompareResult:
    """Walk both sides up to min truncation in (q-exponent, lexicographic
    charges) order; report the first key where violates(ca, cb) holds."""
    order2 = min(a.order2, b.order2)
    keys = {k for k in a.terms if k[0] < order2}
    keys.update(k for k in b.terms if k[0] < order2)
    for key in sorted(keys):
        ca = a.terms.get(key, 0)
        cb = b.terms.get(key, 0)
        if violates(ca, cb):
            return CompareResult(False, order2,
                                 Mismatch(Fraction(key[0], 2), key[1], ca, cb))
    return CompareResult(True, order2)


def reference_eq(a, b):
    return reference_first_violation(a, b, operator.ne)


def reference_leq(a, b):
    return reference_first_violation(a, b, operator.gt)


def truncation_order(s) -> Fraction:
    """The exclusive truncation order of s, read back as a Fraction."""
    return Fraction(s.order2, 2)


def charges_dropped(s):
    """s with every charge variable set to 1: the terms of each exponent
    summed over their charges."""
    return QSeries._raw(s.order2, 0, add_terms({}, (((e2, ()), c) for (e2, _ch), c
                                                   in s.terms.items())))


def charge_slice(s, position, value=0):
    """The terms of s whose charge at `position` equals `value`, with that
    charge coordinate removed."""
    return QSeries._raw(s.order2, s.charge_rank - 1, {
        (e2, ch[:position] + ch[position + 1:]): c
        for (e2, ch), c in s.terms.items() if ch[position] == value})
