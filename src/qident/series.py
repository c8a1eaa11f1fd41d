"""Exact truncated q-series with optional integer charge exponents.

A QSeries stores finitely many terms c * q^e * y1^a1 ... yr^ar with exact
integer coefficients, exponents e in (1/2)Z (kept as doubled ints, read back
as Fractions), and an exclusive truncation order.  Every arithmetic operation
truncates to the minimum of the operand orders, so precision can never
silently inflate.

The terms are kept as one dense row per charge: `rows` maps a charge tuple to
(first, step, coeffs), where coeffs[i] is the coefficient of
q^((first + i*step)/2).  A row is canonical: it lies below the truncation
order, its first and last coefficients are nonzero, and its step is 2 unless a
nonzero term sits at an odd doubled distance from the first (then it is 1).
Charges with no terms have no row.  So two series are equal exactly when their
orders, ranks and row dicts are, and `==`, `hash` and `series_eq` compare rows
directly.  Engines that sum dense rows (the lattice level sum, quiver boxes,
the Pochhammer products) hand them over through `from_rows`, trimmed once;
`terms`, the {(doubled exponent, charges): coefficient} view, is built only
when a caller reads it.
The same rows and row helpers also hold the dilogarithm coefficients of
qident.qweyl, whose first exponents may be negative.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from operator import add, gt, ne
from types import MappingProxyType
from typing import NamedTuple, Optional

from . import kernels
from .halfint import twice_of
from .poly import add_terms, powers, render_terms


class ChargeRankMismatch(ValueError):
    pass


class TruncationError(ValueError):
    """Raised when a coefficient beyond the truncation order is requested."""


# -- rows ---------------------------------------------------------------------------

def _trim(first, step, coeffs, order2):
    """The canonical row of coeffs[i] * q^((first + i*step)/2) below order2,
    or None when no term is left.  coeffs is kept, not copied, when it is
    already canonical."""
    n = len(coeffs)
    if first + (n - 1) * step >= order2:
        n = max((order2 - first - 1) // step + 1, 0)
    while n and not coeffs[n - 1]:
        n -= 1
    lo = 0
    while lo < n and not coeffs[lo]:
        lo += 1
    if lo == n:
        return None
    if lo or n < len(coeffs):
        coeffs = coeffs[lo:n]
        first += lo * step
    if step == 1 and not any(coeffs[1::2]):
        return first, 2, coeffs[::2]
    return first, step, coeffs


def _row_terms(row):
    """The (doubled exponent, coefficient) pairs of a row's nonzero terms, in
    ascending order."""
    first, step, coeffs = row
    return [(first + i * step, c) for i, c in enumerate(coeffs) if c]


def _on_grid(row, step):
    """A row's coefficients on a grid of the given step: its own, or 1."""
    coeffs = row[2]
    if row[1] == step:
        return coeffs
    spread = [0] * (2 * len(coeffs) - 1)
    spread[::2] = coeffs
    return spread


def _row_sum(x, y, order2):
    """The canonical row of x + y below order2 (None when it is empty); either
    row may be None, for zero.  No list of x or y is written into."""
    if x is None or y is None:
        z = x or y
        return z and _trim(*z, order2)
    if x[0] > y[0]:
        x, y = y, x
    step = 2 if x[1] == y[1] == 2 and (y[0] - x[0]) % 2 == 0 else 1
    out = list(_on_grid(x, step))
    ys = _on_grid(y, step)
    p = (y[0] - x[0]) // step
    out += [0] * (p + len(ys) - len(out))
    out[p:p + len(ys)] = map(add, out[p:p + len(ys)], ys)
    return _trim(x[0], step, out, order2)


def _add_row(rows, charges, row, order2):
    """rows[charges] += row below order2, kept canonical; a sum that cancels
    drops the charge.  No list already in rows is written into."""
    old = rows.get(charges)
    total = row if old is None else _row_sum(old, row, order2)
    if total is None:
        del rows[charges]
    else:
        rows[charges] = total


def _row_product(x, y, order2):
    """The canonical row of x * y below order2 (None when it is empty),
    through kernels.conv_trunc."""
    first = x[0] + y[0]
    step = 2 if x[1] == y[1] == 2 else 1
    n = (order2 - first - 1) // step + 1
    if n <= 0:
        return None
    return _trim(first, step, kernels.conv_trunc(_on_grid(x, step), _on_grid(y, step), n),
                 order2)


def _trimmed(rows, order2):
    """{charges: canonical row below order2} of (charges, (first, step,
    coeffs)) pairs, one per charge; rows with no term left are dropped."""
    out = {}
    for charges, (first, step, coeffs) in rows:
        row = _trim(first, step, coeffs, order2)
        if row is not None:
            out[charges] = row
    return out


def _grouped(terms):
    """(charges, (first, 1, coeffs)) pairs of a {(doubled exponent, charges):
    coefficient} dict whose exponents are >= 0."""
    by_charge = {}
    for (e2, charges), c in terms.items():
        by_charge.setdefault(charges, {})[e2] = c
    for charges, found in by_charge.items():
        first = min(found)
        coeffs = [0] * (max(found) - first + 1)
        for e2, c in found.items():
            coeffs[e2 - first] = c
        yield charges, (first, 1, coeffs)


def _term_dict(rows):
    """The {(doubled exponent, charges): coefficient} dict of the rows."""
    return {(e2, charges): c for charges, row in rows.items() for e2, c in _row_terms(row)}


class QSeries:
    """Truncated q-series; immutable by convention (no mutating methods, and
    no method writes into a row's coefficient list)."""

    __slots__ = ("order2", "charge_rank", "rows", "_terms")

    def __init__(self, order, charge_rank=0, terms=None):
        self.order2 = twice_of(order)
        self.charge_rank = charge_rank
        self.rows = _trimmed(_grouped(add_terms({}, self._checked(terms or {}))), self.order2)
        self._terms = None

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
    def _canonical(cls, order2, charge_rank, rows):
        """From rows that are already canonical (nothing is checked)."""
        s = cls.__new__(cls)
        s.order2 = order2
        s.charge_rank = charge_rank
        s.rows = rows
        s._terms = None
        return s

    @classmethod
    def _raw(cls, order2, charge_rank, terms):
        """From a term dict with doubled exponents >= 0 and charge tuples of
        length charge_rank (not checked); zero coefficients and terms at or
        past order2 are dropped."""
        return cls.from_rows(order2, charge_rank, _grouped(terms))

    @classmethod
    def from_rows(cls, order2, charge_rank, rows):
        """From (charges, (first, step, coeffs)) pairs, one per charge: coeffs[i]
        is the coefficient of q^((first + i*step)/2), first >= 0 and step 1 or
        2 (not checked).  Each row is trimmed once to its canonical form, and
        its list is kept when it already is; the caller must not write into
        it afterwards."""
        return cls._canonical(order2, charge_rank, _trimmed(rows, order2))

    @classmethod
    def from_dense(cls, coeffs, order):
        """Uncharged series from a dense int list (index i sits at exponent
        i); the list becomes the row as from_rows keeps it."""
        return cls.from_rows(twice_of(order), 0, [((), (0, 2, coeffs))])

    # -- inspection ------------------------------------------------------------

    @property
    def terms(self):
        """Read-only {(doubled exponent, charges): coefficient} view of the
        nonzero terms, built on first read."""
        if self._terms is None:
            self._terms = MappingProxyType(_term_dict(self.rows))
        return self._terms

    def coeff(self, qexp, charges=()):
        exp2 = twice_of(qexp)
        charges = tuple(charges)
        if len(charges) != self.charge_rank:
            raise ChargeRankMismatch(
                f"coefficient asked with {len(charges)} charges, series has rank "
                f"{self.charge_rank}")
        if exp2 >= self.order2:
            raise TruncationError(
                f"exponent {Fraction(exp2, 2)} is at or beyond truncation order "
                f"{Fraction(self.order2, 2)}")
        row = self.rows.get(charges)
        if row is None:
            return 0
        first, step, coeffs = row
        i, off = divmod(exp2 - first, step)
        return coeffs[i] if not off and 0 <= i < len(coeffs) else 0

    def is_one(self):
        return self.rows == {(0,) * self.charge_rank: (0, 2, [1])}

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.order2 == other.order2
                and self.charge_rank == other.charge_rank
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.order2, self.charge_rank,
                     frozenset((charges, first, step, tuple(coeffs))
                               for charges, (first, step, coeffs) in self.rows.items())))

    def _rows_below(self, order2):
        """The rows cut below order2 (<= self.order2)."""
        if order2 == self.order2:
            return self.rows
        return _trimmed(self.rows.items(), order2)

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
        rows = dict(self._rows_below(order2))
        for charges, row in other._rows_below(order2).items():
            _add_row(rows, charges, row, order2)
        return QSeries._canonical(order2, self.charge_rank, rows)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return QSeries._canonical(self.order2, self.charge_rank, {})
            return QSeries._canonical(self.order2, self.charge_rank, {
                charges: (first, step, [other * c for c in coeffs])
                for charges, (first, step, coeffs) in self.rows.items()})
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_rank(other)
        order2 = min(self.order2, other.order2)
        rows = {}
        for cha, x in self.rows.items():
            for chb, y in other.rows.items():
                prod = _row_product(x, y, order2)
                if prod is not None:
                    _add_row(rows, tuple(map(add, cha, chb)), prod, order2)
        return QSeries._canonical(order2, self.charge_rank, rows)

    __rmul__ = __mul__

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms sorted by (q-exponent, charges)."""
        names = [f"y{i}" for i in range(1, self.charge_rank + 1)]
        return render_terms((c, _q_power(e2) + powers(names, charges))
                            for e2, charges, c in sorted(
                                (e2, charges, c) for charges, row in self.rows.items()
                                for e2, c in _row_terms(row)))

    def __repr__(self):
        return f"QSeries(order={Fraction(self.order2, 2)}, rank={self.charge_rank}, {self.render()})"


def _q_power(e2):
    """The factor q^(e2/2) of a rendered term; none for e2 = 0."""
    if not e2:
        return []
    return ["q" if e2 == 2 else f"q^{e2 // 2}" if e2 % 2 == 0 else f"q^({e2}/2)"]


# -- comparison verdicts ----------------------------------------------------------


class Mismatch(NamedTuple):
    qexp: Fraction
    charges: tuple
    coeff_a: int
    coeff_b: int


class CompareResult(NamedTuple):
    equal: bool
    order2: int
    mismatch: Optional[Mismatch] = None

    def __bool__(self):
        return self.equal


def _first_difference(x, y, violates):
    """The least (doubled exponent, coefficient in x, coefficient in y) where
    violates(cx, cy) holds, or None; x and y are rows or None (zero), read on
    one grid from the lower first exponent."""
    rows = [r for r in (x, y) if r is not None]
    if not rows:
        return None
    first = min(r[0] for r in rows)
    step = 2 if all(r[1] == 2 and (r[0] - first) % 2 == 0 for r in rows) else 1
    xs, ys = ([0] * ((r[0] - first) // step) + _on_grid(r, step) if r else [] for r in (x, y))
    for i, (cx, cy) in enumerate(zip_longest(xs, ys, fillvalue=0)):
        if violates(cx, cy):
            return first + i * step, cx, cy
    return None


def _first_violation(a: QSeries, b: QSeries, violates) -> CompareResult:
    """Walk the rows of both sides below the common truncation and report the
    first (q-exponent, lexicographic charges) key where violates(ca, cb)
    holds.  Equal rows never violate, so only the differing rows are read."""
    a._check_rank(b)
    order2 = min(a.order2, b.order2)
    rows_a, rows_b = a._rows_below(order2), b._rows_below(order2)
    if rows_a == rows_b:
        return CompareResult(True, order2)
    found = []
    for charges in rows_a.keys() | rows_b.keys():
        x, y = rows_a.get(charges), rows_b.get(charges)
        hit = x != y and _first_difference(x, y, violates)
        if hit:
            found.append((hit[0], charges, *hit[1:]))
    if not found:
        return CompareResult(True, order2)
    e2, charges, ca, cb = min(found)
    return CompareResult(False, order2, Mismatch(Fraction(e2, 2), charges, ca, cb))


def series_eq(a: QSeries, b: QSeries) -> CompareResult:
    """Compare up to min truncation; report the earliest mismatch in
    (q-exponent, lexicographic charges) order."""
    return _first_violation(a, b, ne)


def series_leq(a: QSeries, b: QSeries) -> CompareResult:
    """Coefficientwise a <= b up to min truncation; earliest violation reported."""
    return _first_violation(a, b, gt)


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
