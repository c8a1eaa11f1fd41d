"""Exact truncated q-series with optional integer charge exponents.

A QSeries stores finitely many terms c * q^e * y1^a1 ... yr^ar with exact
integer coefficients, exponents e in (1/2)Z (kept as doubled ints, read back
as Fractions), and an exclusive truncation order.  Every arithmetic operation
truncates to the minimum of the operand orders, so precision can never
silently inflate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import kernels
from .halfint import twice_of
from .poly import add_terms, powers, render_terms


class ChargeRankMismatch(ValueError):
    pass


class TruncationError(ValueError):
    """Raised when a coefficient beyond the truncation order is requested."""


class QSeries:
    """Truncated q-series; immutable by convention (no mutating methods)."""

    __slots__ = ("order2", "charge_rank", "terms")

    def __init__(self, order, charge_rank=0, terms=None):
        self.order2 = twice_of(order)
        self.charge_rank = charge_rank
        self.terms = add_terms({}, self._checked(terms or {}))

    def _checked(self, terms):
        """The terms below the order, keyed (doubled exponent, charges); every
        key is checked, a zero coefficient's too (add_terms drops zeros)."""
        for (exp, charges), coeff in terms.items():
            exp2 = twice_of(exp)
            charges = tuple(charges)
            if len(charges) != self.charge_rank:
                raise ChargeRankMismatch(
                    f"term has {len(charges)} charges, series has rank {self.charge_rank}")
            if exp2 < 0:
                raise ValueError("negative q-exponent in a QSeries")
            if exp2 < self.order2:
                yield (exp2, charges), coeff

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _raw(cls, order2, charge_rank, terms):
        s = cls.__new__(cls)
        s.order2 = order2
        s.charge_rank = charge_rank
        s.terms = terms
        return s

    @classmethod
    def from_dense(cls, coeffs, order):
        """Uncharged series from a dense int list (index i sits at exponent i)."""
        order2 = twice_of(order)
        return cls._raw(order2, 0, {(2 * i, ()): c for i, c in enumerate(coeffs)
                                    if c and 2 * i < order2})

    # -- inspection ------------------------------------------------------------

    @property
    def truncation_order(self) -> Fraction:
        return Fraction(self.order2, 2)

    def coeff(self, qexp, charges=()):
        exp2 = twice_of(qexp)
        if exp2 >= self.order2:
            raise TruncationError(
                f"exponent {Fraction(exp2, 2)} is at or beyond truncation order "
                f"{Fraction(self.order2, 2)}")
        return self.terms.get((exp2, tuple(charges)), 0)

    def charges_dropped(self):
        """Project all charge variables to 1."""
        if self.charge_rank == 0:
            return self
        return QSeries._raw(self.order2, 0, add_terms(
            {}, (((e2, ()), c) for (e2, _charges), c in self.terms.items())))

    def charge_slice(self, position, value=0):
        """Terms whose charge at `position` equals `value`, with that charge
        coordinate removed."""
        out = {}
        for (e2, charges), c in self.terms.items():
            if charges[position] == value:
                rest = charges[:position] + charges[position + 1:]
                out[(e2, rest)] = c
        return QSeries._raw(self.order2, self.charge_rank - 1, out)

    def is_one(self):
        zero = (0,) * self.charge_rank
        return self.terms == {(0, zero): 1}

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.order2 == other.order2
                and self.charge_rank == other.charge_rank
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.order2, self.charge_rank, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------------

    def _check_rank(self, other):
        if self.charge_rank != other.charge_rank:
            raise ChargeRankMismatch(
                f"charge ranks differ: {self.charge_rank} vs {other.charge_rank}")

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_rank(other)
        order2 = min(self.order2, other.order2)
        terms = {k: v for k, v in self.terms.items() if k[0] < order2}
        return QSeries._raw(order2, self.charge_rank, add_terms(
            terms, (kv for kv in other.terms.items() if kv[0][0] < order2)))

    def __neg__(self):
        return QSeries._raw(self.order2, self.charge_rank,
                            {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return QSeries._raw(self.order2, self.charge_rank, {})
            return QSeries._raw(self.order2, self.charge_rank,
                                {k: other * v for k, v in self.terms.items()})
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_rank(other)
        order2 = min(self.order2, other.order2)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for (e2a, cha), ca in a.items():
            if e2a >= order2:
                continue
            rem = order2 - e2a
            for (e2b, chb), cb in b.items():
                if e2b >= rem:
                    continue
                key = (e2a + e2b, tuple(x + y for x, y in zip(cha, chb)))
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return QSeries._raw(order2, self.charge_rank, out)

    __rmul__ = __mul__

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms sorted by (q-exponent, charges)."""
        names = [f"y{i}" for i in range(1, self.charge_rank + 1)]
        return render_terms((c, _q_power(e2) + powers(names, charges))
                            for (e2, charges), c in sorted(self.terms.items()))

    def __repr__(self):
        return f"QSeries(order={Fraction(self.order2, 2)}, rank={self.charge_rank}, {self.render()})"


def _q_power(e2):
    """The factor q^(e2/2) of a rendered term; none for e2 = 0."""
    if not e2:
        return []
    return ["q" if e2 == 2 else f"q^{e2 // 2}" if e2 % 2 == 0 else f"q^({e2}/2)"]


# -- comparison verdicts ----------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    qexp: Fraction
    charges: tuple
    coeff_a: int
    coeff_b: int


@dataclass(frozen=True)
class CompareResult:
    equal: bool
    order2: int
    mismatch: Optional[Mismatch] = None

    def __bool__(self):
        return self.equal


def _first_violation(a: QSeries, b: QSeries, violates) -> CompareResult:
    """Walk both sides up to min truncation in (q-exponent, lexicographic
    charges) order; report the first key where violates(ca, cb) holds."""
    a._check_rank(b)
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


def series_eq(a: QSeries, b: QSeries) -> CompareResult:
    """Compare up to min truncation; report the earliest mismatch in
    (q-exponent, lexicographic charges) order."""
    a._check_rank(b)
    if a.terms == b.terms:
        return CompareResult(True, min(a.order2, b.order2))
    return _first_violation(a, b, operator.ne)


def series_leq(a: QSeries, b: QSeries) -> CompareResult:
    """Coefficientwise a <= b up to min truncation; earliest violation reported."""
    return _first_violation(a, b, operator.gt)


# -- classical q-objects -----------------------------------------------------------

def _int_order(order) -> int:
    order2 = twice_of(order)
    return (order2 + 1) // 2  # number of integer exponents below order


def pochhammer(n: int, order) -> QSeries:
    """(q)_n = (1-q)(1-q^2)...(1-q^n), truncated."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    length = _int_order(order)
    arr = [0] * max(length, 1)
    arr[0] = 1
    for i in range(1, n + 1):
        if i < len(arr):
            kernels.binom_mul(arr, i, -1)
    return QSeries.from_dense(arr, order)


def inv_pochhammer_dense(n: int, length: int):
    """Dense coefficients of 1/(q)_n through exponent length-1: a new list
    on every call."""
    arr = [0] * max(length, 1)
    arr[0] = 1
    for i in range(1, n + 1):
        if i < len(arr):
            kernels.geom_div(arr, i)
    return arr


def inv_pochhammer(n: int, order) -> QSeries:
    """1/(q)_n as a truncated series; all coefficients nonnegative."""
    if n < 0:
        raise ValueError("inv_pochhammer needs n >= 0")
    return QSeries.from_dense(inv_pochhammer_dense(n, _int_order(order)), order)


def euler_product(factors, order) -> QSeries:
    """Truncated product of factors (1 + sign*q^(s+k*t))^e over k >= 0.

    Each factor is a tuple (sign, s, t, e) with sign in {+1,-1}, shift s >= 1,
    step t >= 1 and integer exponent e (negative e means the series inverse),
    i.e. the Pochhammer-style product (-sign*q^s; q^t)_inf^e.
    """
    length = _int_order(order)
    arr = [0] * max(length, 1)
    arr[0] = 1
    for sign, s, t, e in factors:
        if sign not in (1, -1):
            raise ValueError("factor sign must be +1 or -1")
        if s <= 0:
            raise ValueError("divergent factor: shift s must be >= 1")
        if t <= 0:
            raise ValueError("factor step t must be >= 1")
        j = s
        while j < len(arr):
            for _ in range(abs(e)):
                if e > 0:
                    kernels.binom_mul(arr, j, sign)
                else:
                    kernels.binom_div(arr, j, sign)
            j += t
    return QSeries.from_dense(arr, order)
