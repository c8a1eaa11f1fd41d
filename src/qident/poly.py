"""The term helpers every coefficient class shares.

Terms map keys (exponent vectors, or pairs of them) to nonzero coefficients.
`add_terms` is the one term-dict sum of QSeries and JetPoly; `powers` writes
the monomials of QSeries and of a product check's mismatch report, and
`render_terms` the signed terms of QSeries.  A quadratic form in the lattice
variables is not a polynomial here: it is one (labels, quad, linear) table,
a qident.nahm.NahmSumSpec.
"""


def add_terms(acc, items):
    """Add the (key, value) pairs into the dict acc, dropping every key whose
    sum is zero; returns acc."""
    for k, v in items:
        s = acc.get(k, 0) + v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


def powers(names, exps):
    """The factors `name` or `name^e` of a monomial, zero exponents left out."""
    return [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]


def render_terms(items):
    """Text of the (coefficient, factor list) pairs in order: the first term
    signed, later ones as `+ body` or `- body`; a unit coefficient is left out
    unless the term has no factors.  "0" for no terms."""
    parts = []
    for coeff, factors in items:
        mag = abs(coeff)
        body = "*".join(factors if factors and mag == 1 else [str(mag), *factors])
        if parts:
            parts.append(("+ " if coeff > 0 else "- ") + body)
        else:
            parts.append(body if coeff > 0 else "-" + body)
    return " ".join(parts) or "0"
