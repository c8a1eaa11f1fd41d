"""Exact sparse multivariate polynomials over the rationals.

Used for symbolic quadratic-form bookkeeping: form differences, table checks
and normal-ordering exponents.  Terms map exponent vectors (tuples aligned
with the variable list) to Fraction coefficients; zero coefficients are never
stored.
"""

from __future__ import annotations

from fractions import Fraction


class UnboundSymbol(ValueError):
    pass


class SparsePoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        self.terms = {}
        if terms:
            for exps, coeff in terms.items():
                c = Fraction(coeff)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != len(self.variables):
                    raise ValueError("exponent vector length does not match variables")
                self.terms[exps] = self.terms.get(exps, Fraction(0)) + c
            self.terms = {k: v for k, v in self.terms.items() if v}

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
        terms = dict(self.terms)
        for k, v in other.terms.items():
            s = terms.get(k, Fraction(0)) + v
            if s:
                terms[k] = s
            elif k in terms:
                del terms[k]
        return SparsePoly._raw(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._raw(self.variables, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = SparsePoly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def coeff(self, monomial) -> Fraction:
        """Coefficient of a monomial given as {name: exponent}."""
        exps = [0] * len(self.variables)
        index = {n: i for i, n in enumerate(self.variables)}
        for name, e in monomial.items():
            exps[index[name]] = e
        return self.terms.get(tuple(exps), Fraction(0))

    def substitute(self, bindings, require_full=False):
        """Simultaneous substitution name -> SparsePoly.

        All binding targets must share one variable universe; variables of
        self that are not bound are mapped to themselves when they exist in
        the target universe, otherwise this raises.  With require_full=True
        any surviving unbound variable is an error.
        """
        if not bindings:
            target_vars = self.variables
        else:
            target_vars = next(iter(bindings.values())).variables
            for p in bindings.values():
                if p.variables != target_vars:
                    raise ValueError("binding targets share no common variable universe")
        images = []
        for name in self.variables:
            if name in bindings:
                images.append(bindings[name])
            elif name in target_vars:
                if require_full:
                    raise UnboundSymbol(f"symbol {name!r} left unbound")
                images.append(SparsePoly.variable(target_vars, name))
            else:
                raise UnboundSymbol(f"symbol {name!r} has no binding and no target variable")
        result = SparsePoly.zero(target_vars)
        for exps, coeff in self.terms.items():
            term = SparsePoly.constant(target_vars, coeff)
            for img, e in zip(images, exps):
                if e:
                    term = term * img ** e
            result = result + term
        return result

    def monomial_degree(self, exps) -> int:
        return sum(exps)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in sorted(self.terms.items(),
                                  key=lambda kv: (self.monomial_degree(kv[0]), kv[0])):
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"SparsePoly({self.render()})"
