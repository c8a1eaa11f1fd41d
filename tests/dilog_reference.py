"""Reference expansion of dilogarithm products for the padding and budget
tests: every factor starts at the generous order twice_of(qorder) +
2*xdeg^2 + 8, the products are taken pair by pair (reference_product), and
their monomial pairs are counted by brute force.  bound_product is the
padding pass that NCElement.__mul__ runs over bound-only coefficients: with
bound_padding, the oracle of the order qweyl._plan_product gives and of the
validity order of every coefficient qweyl.expand_dilog_product builds."""

from qident import qweyl
from qident.halfint import twice_of


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
    """(product of the factors, monomial pairs its products visit)."""
    order2 = twice_of(qorder) + 2 * xdeg * xdeg + 8
    elems = [qweyl.dilog(alg, s, sh, w, xdeg, order2) for (s, sh, w) in factors]
    acc, pairs = elems[0], 0
    for elem in elems[1:]:
        pairs += sum(1 for ea in acc.terms for eb in elem.terms
                     if sum(ea) + sum(eb) < xdeg)
        acc = reference_product(acc, elem)
    return acc, pairs


class Bound:
    """Stand-in for a LaurentQ coefficient in bound_padding.

    low2 is a lower bound on the lowest exponent and order2 the validity
    order that LaurentQ's rules give, counted from the order the factors
    start at.  NCElement.__mul__ sums products of them with the order rule of
    LaurentQ.sum_of_products (qweyl._product_order2); a zero coefficient
    would only raise the real order, so every bound is treated as nonzero.
    """

    __slots__ = ("low2", "order2")

    def __init__(self, low2, order2):
        self.low2 = low2
        self.order2 = order2

    def is_zero(self):
        return False

    @classmethod
    def sum_of_products(cls, pairs):
        """The bound on the sum of q^(p2/2) * a * b over the (a, b, p2)."""
        return cls(min(a.low2 + b.low2 + p2 for a, b, p2 in pairs),
                   qweyl._product_order2(pairs))


def bound_product(alg, factors, xdeg):
    """(product, monomial pairs): the factors multiplied left to right by
    NCElement.__mul__ with Bound coefficients started at order 0, and the
    monomial pairs below xdeg that those products visit."""
    acc, pairs = None, 0
    for (s, sh, w) in factors:
        elem = qweyl.NCElement(alg, xdeg, {
            exps: Bound(base2, 0)
            for exps, _n, base2, _sign in qweyl._dilog_terms(alg, s, sh, w, xdeg)})
        if acc is not None:
            pairs += sum(1 for ea in acc.terms for eb in elem.terms
                         if sum(ea) + sum(eb) < xdeg)
            elem = acc * elem
        acc = elem
    return acc, pairs


def bound_padding(alg, factors, xdeg, qorder):
    """(padded order2, monomial pairs) of bound_product: the order the
    factors must start at for every bound to reach qorder."""
    acc, pairs = bound_product(alg, factors, xdeg)
    return twice_of(qorder) - min((c.order2 for c in acc.terms.values()), default=0), pairs
