"""Reference expansion and comparison of dilogarithm products for the
product and comparison tests: every factor starts at the generous order
twice_of(qorder) + 2*xdeg^2 + 8, and the products are taken pair by pair
(reference_product), the oracle of each side of qweyl.pentagon_check and
qweyl.ordered_product_check, which are level sums.  reference_nc_eq
compares two elements through their LaurentQ view, coefficient by
coefficient with compare_upto: the oracle of qweyl.nc_eq on rows.
reference_product_form sums the exponent form of an ordered product in
its own Fraction matrix, word pair by word pair: the oracle of
qweyl.dilog_product_form and the integer tables under it.  dilog_inv is
1/phi, the inverse of qweyl.dilog.
laurent_terms, laurent_add, laurent_mul and laurent_shifted are the dict
rules of LaurentQ's arithmetic, on (terms, order2) pairs: the oracle of
LaurentQ on series rows."""

from fractions import Fraction

from qident import qweyl
from qident.halfint import twice_of
from qident.nahm import NahmSumSpec
from qident.poly import add_terms


def laurent_terms(terms, order2):
    """(terms, order2) of the Laurent polynomial known below order2: the
    nonzero coefficients below it, in ascending exponent order."""
    return {e: c for e, c in sorted(terms.items()) if c and e < order2}, order2


def laurent_add(a, b):
    """a + b, valid as far as the less valid side."""
    (ta, oa), (tb, ob) = a, b
    return laurent_terms(add_terms(dict(ta), tb.items()), min(oa, ob))


def laurent_mul(a, b):
    """a * b, b a Laurent polynomial or an int scalar.  The unknown tail of
    each side, from its order2 on, meets the other side's lowest exponent,
    taken at 0 when it is positive; with both sides zero the product is
    valid as far as the less valid side."""
    ta, oa = a
    if isinstance(b, int):
        return laurent_terms({e: b * c for e, c in ta.items()}, oa)
    tb, ob = b
    bounds = []
    if tb:
        bounds.append(oa + min(min(tb), 0))
    if ta:
        bounds.append(ob + min(min(ta), 0))
    order2 = min(bounds) if bounds else min(oa, ob)
    out = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            if e1 + e2 < order2:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return laurent_terms(out, order2)


def laurent_shifted(a, d2):
    """a times q^(d2/2): every exponent and the order move by d2."""
    ta, oa = a
    return laurent_terms({e + d2: c for e, c in ta.items()}, oa + d2)


def reference_product(a, b):
    """a * b one monomial pair at a time: each pair's LaurentQ product,
    shifted by its merge power, added into its monomial's coefficient.  Shares
    no code with NCElement.__mul__ beyond LaurentQ's own arithmetic."""
    alg = a.algebra
    xdeg = min(a.xdeg, b.xdeg)
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            if sum(ea) + sum(eb) >= xdeg:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            piece = (ca * cb).shifted(qweyl.monomial_merge_power2(alg, ea, eb))
            out[key] = out[key] + piece if key in out else piece
    return qweyl.NCElement(alg, xdeg, out)


def generous_expansion(alg, factors, xdeg, qorder):
    """The product of the factors, each started at the generous order,
    multiplied left to right by reference_product."""
    order2 = twice_of(qorder) + 2 * xdeg * xdeg + 8
    elems = [qweyl.dilog(alg, s, sh, w, xdeg, order2) for (s, sh, w) in factors]
    acc = elems[0]
    for elem in elems[1:]:
        acc = reference_product(acc, elem)
    return acc


def compare_upto(a, b, bound2):
    """The earliest exponent below bound2 where the LaurentQ coefficients a
    and b differ, or None if they agree there; ValidityError when either is
    not valid through bound2."""
    if min(a.order2, b.order2) < bound2:
        raise qweyl.ValidityError("coefficients not valid far enough for this comparison")
    for e in sorted(set(a.terms) | set(b.terms)):
        if e >= bound2:
            break
        if a.terms.get(e, 0) != b.terms.get(e, 0):
            return e
    return None


def _coefficient(elem, exps):
    """elem's LaurentQ at exps; a zero one valid through the least order2 of
    its coefficients where it has none."""
    hit = elem.terms.get(exps)
    if hit is not None:
        return hit
    return qweyl.LaurentQ.zero(min((c.order2 for c in elem.terms.values()), default=1 << 60))


def reference_nc_eq(a, b, qorder):
    """qweyl.nc_eq read off the terms views: monomials in (total degree,
    exponents) order, each pair of coefficients compared by compare_upto."""
    qorder2 = twice_of(qorder)
    xdeg = min(a.xdeg, b.xdeg)
    keys = {e for e in a.terms if sum(e) < xdeg} | {e for e in b.terms if sum(e) < xdeg}
    for exps in sorted(keys, key=lambda e: (sum(e), e)):
        ca, cb = _coefficient(a, exps), _coefficient(b, exps)
        e = compare_upto(ca, cb, qorder2)
        if e is not None:
            return qweyl.NCCompareResult(False, xdeg, qorder2, qweyl.NCMismatch(
                exps, Fraction(e, 2), ca.terms.get(e, 0), cb.terms.get(e, 0)))
    return qweyl.NCCompareResult(True, xdeg, qorder2)


def reference_product_form(algebra, factors, names):
    """qweyl.dilog_product_form summed in Fractions: for each factor
    (qshift, word, varname), m^2/2 + m (qshift - 1/2) plus word^m
    normal-ordered, m inv + (m^2 - m) crs/2, and word_cross with every
    later factor's word on m * m'."""
    half = Fraction(1, 2)
    at = [names.index(v) for _, _, v in factors]
    quad = [[Fraction(0)] * len(names) for _ in names]
    lin = [Fraction(0)] * len(names)
    for t, (shift, word, _v) in enumerate(factors):
        inv = qweyl.word_inversions(algebra, word)
        crs = qweyl.word_cross(algebra, word, word)
        quad[at[t]][at[t]] += half + Fraction(crs, 2)
        lin[at[t]] += shift - half + inv - Fraction(crs, 2)
        for u in range(t + 1, len(factors)):
            # the product m_t * m_u is split over the two symmetric entries
            c = Fraction(qweyl.word_cross(algebra, word, factors[u][1]), 2)
            quad[at[t]][at[u]] += c
            quad[at[u]][at[t]] += c
    return NahmSumSpec(tuple(names), tuple(map(tuple, quad)), tuple(lin), ())


def dilog_inv(algebra, prefactor_sign, qshift, word, xdeg, qorder2):
    """1/phi(z) = sum_n z^n / (q)_n, z = prefactor_sign * q^qshift * word: the
    n-th term is that of phi(z) without its (-1)^n q^(n(n-1)/2)."""
    return qweyl.NCElement(algebra, xdeg, {
        exps: qweyl._inv_poch_laurent(n, base2 - n * (n - 1), qorder2) * ((-1) ** n * sign)
        for exps, n, base2, sign
        in qweyl._dilog_terms(algebra, prefactor_sign, qshift, word, xdeg)})
