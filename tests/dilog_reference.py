"""Reference expansion of dilogarithm products for the padding and budget
tests: every factor starts at the generous order twice_of(qorder) +
2*xdeg^2 + 8, the products are taken pair by pair (reference_product), and
their monomial pairs are counted by brute force."""

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
