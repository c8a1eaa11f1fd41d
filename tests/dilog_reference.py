"""Reference expansion of dilogarithm products for the padding and budget
tests: every factor starts at the generous order twice_of(qorder) +
2*xdeg^2 + 8, and the monomial pairs of the products are counted by brute
force."""

from qident import qweyl
from qident.halfint import twice_of


def generous_expansion(alg, factors, xdeg, qorder):
    """(product of the factors, monomial pairs its products visit)."""
    order2 = twice_of(qorder) + 2 * xdeg * xdeg + 8
    elems = [qweyl.dilog(alg, s, sh, w, xdeg, order2) for (s, sh, w) in factors]
    acc, pairs = elems[0], 0
    for elem in elems[1:]:
        pairs += sum(1 for ea in acc.terms for eb in elem.terms
                     if sum(ea) + sum(eb) < xdeg)
        acc = acc * elem
    return acc, pairs
