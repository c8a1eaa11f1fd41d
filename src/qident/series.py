"""Exact truncated q-series with optional integer charge exponents.

A QSeries stores finitely many terms c * q^e * y1^a1 ... yr^ar with exact
integer coefficients, exponents e in (1/2)Z (kept as doubled ints), and an
exclusive truncation order.  Every arithmetic operation truncates to the
minimum of the operand orders, so precision can never silently inflate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from . import kernels
from .halfint import HalfInt, twice_of


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
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff:
                    continue
                exp, charges = key
                exp2 = twice_of(exp)
                charges = tuple(charges)
                if len(charges) != charge_rank:
                    raise ChargeRankMismatch(
                        f"term has {len(charges)} charges, series has rank {charge_rank}")
                if exp2 < 0:
                    raise ValueError("negative q-exponent in a QSeries")
                if exp2 >= self.order2:
                    continue
                self.terms[(exp2, charges)] = self.terms.get((exp2, charges), 0) + coeff
            self.terms = {k: v for k, v in self.terms.items() if v}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _raw(cls, order2, charge_rank, terms):
        s = cls.__new__(cls)
        s.order2 = order2
        s.charge_rank = charge_rank
        s.terms = terms
        return s

    @classmethod
    def one(cls, order, charge_rank=0):
        zero = (0,) * charge_rank
        return cls(order, charge_rank, {(0, zero): 1})

    @classmethod
    def from_dense(cls, coeffs, order, exp2_offset=0, stride2=2):
        """Uncharged series from a dense int list (index i sits at exponent
        (exp2_offset + stride2*i)/2)."""
        order2 = twice_of(order)
        terms = {}
        for i, c in enumerate(coeffs):
            e2 = exp2_offset + stride2 * i
            if c and e2 < order2:
                terms[(e2, ())] = c
        return cls._raw(order2, 0, terms)

    # -- inspection ------------------------------------------------------------

    @property
    def truncation_order(self) -> HalfInt:
        return HalfInt(self.order2)

    def coeff(self, qexp, charges=()):
        exp2 = twice_of(qexp)
        if exp2 >= self.order2:
            raise TruncationError(
                f"exponent {HalfInt(exp2)} is at or beyond truncation order {HalfInt(self.order2)}")
        return self.terms.get((exp2, tuple(charges)), 0)

    def charges_dropped(self):
        """Project all charge variables to 1."""
        if self.charge_rank == 0:
            return self
        out = {}
        for (e2, _charges), c in self.terms.items():
            key = (e2, ())
            out[key] = out.get(key, 0) + c
        return QSeries._raw(self.order2, 0, {k: v for k, v in out.items() if v})

    def charge_slice(self, position, value=0):
        """Terms whose charge at `position` equals `value`, with that charge
        coordinate removed."""
        out = {}
        for (e2, charges), c in self.terms.items():
            if charges[position] == value:
                rest = charges[:position] + charges[position + 1:]
                out[(e2, rest)] = c
        return QSeries._raw(self.order2, self.charge_rank - 1, out)

    def restrict_charges(self, box):
        """Keep terms whose charge vector is <= box componentwise."""
        out = {k: v for k, v in self.terms.items()
               if all(c <= b for c, b in zip(k[1], box))}
        return QSeries._raw(self.order2, self.charge_rank, out)

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
        for k, v in other.terms.items():
            if k[0] < order2:
                s = terms.get(k, 0) + v
                if s:
                    terms[k] = s
                elif k in terms:
                    del terms[k]
        return QSeries._raw(order2, self.charge_rank, terms)

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

    def shift(self, qexp, charges=None):
        """Multiply by q^qexp * y^charges."""
        d2 = twice_of(qexp)
        ch = tuple(charges) if charges is not None else (0,) * self.charge_rank
        out = {}
        for (e2, c), v in self.terms.items():
            e2n = e2 + d2
            if e2n < self.order2:
                out[(e2n, tuple(x + y for x, y in zip(c, ch)))] = v
        return QSeries._raw(self.order2, self.charge_rank, out)

    def truncated(self, order):
        order2 = min(self.order2, twice_of(order))
        return QSeries._raw(order2, self.charge_rank,
                            {k: v for k, v in self.terms.items() if k[0] < order2})

    # -- rendering ---------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def render(self) -> str:
        """Canonical text form: terms sorted by (q-exponent, charges)."""
        if not self.terms:
            return "0"
        parts = []
        for (e2, charges), coeff in self.sorted_terms():
            factors = []
            if e2 == 2:
                factors.append("q")
            elif e2 != 0:
                factors.append(f"q^{HalfInt(e2)}" if e2 % 2 == 0 else f"q^({HalfInt(e2)})")
            for i, a in enumerate(charges):
                if a == 1:
                    factors.append(f"y{i + 1}")
                elif a != 0:
                    factors.append(f"y{i + 1}^{a}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"QSeries(order={HalfInt(self.order2)}, rank={self.charge_rank}, {self.render()})"


# -- comparison verdicts ----------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    qexp: HalfInt
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
                                 Mismatch(HalfInt(key[0]), key[1], ca, cb))
    return CompareResult(True, order2)


def series_eq(a: QSeries, b: QSeries) -> CompareResult:
    """Compare up to min truncation; report the earliest mismatch in
    (q-exponent, lexicographic charges) order."""
    return _first_violation(a, b, operator.ne)


def series_leq(a: QSeries, b: QSeries) -> CompareResult:
    """Coefficientwise a <= b up to min truncation; earliest violation reported."""
    return _first_violation(a, b, operator.gt)


# -- classical q-objects -----------------------------------------------------------

_INV_POCH_CACHE = {}


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
            kernels.geom_mul(arr, i)
    return QSeries.from_dense(arr, order)


def inv_pochhammer_dense(n: int, length: int):
    """Dense coefficients of 1/(q)_n through exponent length-1 (cached)."""
    key = (n, length)
    hit = _INV_POCH_CACHE.get(key)
    if hit is None:
        arr = [0] * max(length, 1)
        arr[0] = 1
        for i in range(1, n + 1):
            if i < len(arr):
                kernels.geom_div(arr, i)
        _INV_POCH_CACHE[key] = arr
        hit = arr
    return hit


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
