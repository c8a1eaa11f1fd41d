"""Exact sparse multivariate polynomials over the rationals, and the term
helpers every coefficient class shares.

SparsePoly does ring arithmetic, equality, coefficients and rendering, which
is all the symbolic quadratic-form bookkeeping needs: form differences, table
checks and normal-ordering exponents.  Terms map exponent vectors (tuples aligned
with the variable list) to Fraction coefficients; zero coefficients are never
stored.  `add_terms` is the one term-dict sum of QSeries, SparsePoly and
JetPoly; `powers` writes the monomials of QSeries, SparsePoly and NCElement,
and `render_terms` the signed terms of QSeries, LaurentQ and SparsePoly.
"""

from __future__ import annotations

from fractions import Fraction


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


class SparsePoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        items = [(tuple(exps), Fraction(c)) for exps, c in (terms or {}).items()]
        if any(c and len(exps) != len(self.variables) for exps, c in items):
            raise ValueError("exponent vector length does not match variables")
        self.terms = add_terms({}, items)

    @classmethod
    def _raw(cls, variables, terms):
        p = cls.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    @classmethod
    def zero(cls, variables):
        return cls._raw(tuple(variables), {})

    @classmethod
    def constant(cls, variables, value):
        value = Fraction(value)
        variables = tuple(variables)
        if not value:
            return cls._raw(variables, {})
        return cls._raw(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables, name, coeff=1):
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls._raw(variables, {exps: Fraction(coeff)})

    def _check_universe(self, other):
        if self.variables != other.variables:
            raise ValueError("polynomials live over different variable universes")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.variables, other)
        self._check_universe(other)
        return SparsePoly._raw(self.variables, add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._raw(self.variables, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.variables, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return SparsePoly._raw(self.variables, {})
            return SparsePoly._raw(self.variables,
                                   {k: c * v for k, v in self.terms.items()})
        self._check_universe(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(key, Fraction(0)) + ca * cb
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return SparsePoly._raw(self.variables, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def coeff(self, monomial) -> Fraction:
        """Coefficient of a monomial given as {name: exponent}."""
        exps = [0] * len(self.variables)
        index = {n: i for i, n in enumerate(self.variables)}
        for name, e in monomial.items():
            exps[index[name]] = e
        return self.terms.get(tuple(exps), Fraction(0))

    def render(self) -> str:
        """Terms by (total degree, exponent vector)."""
        return render_terms((c, powers(self.variables, exps)) for exps, c in
                            sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])))

    def __repr__(self):
        return f"SparsePoly({self.render()})"
