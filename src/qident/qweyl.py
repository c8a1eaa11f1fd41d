"""q-commuting variables, quantum dilogarithm products and the charge word.

Generators obey x_i x_j = q^(eps_ij) x_j x_i with an antisymmetric integer
matrix eps.  An NCElement maps normal-ordered monomials below total x-degree
xdeg to Laurent coefficients in q^(1/2), each a LaurentQ: one canonical
series row (the row format and kernels of qident.series) and a validity
order, so a comparison can certify exactly how far it is meaningful.  Its
one operation, the reference product, sums over the pairs of monomials each
pair's LaurentQ product shifted by its merge power; LaurentQ.__mul__,
shifted and __add__ alone set every coefficient's terms and validity order.

Inside, every q-exponent is a doubled int (order2, base2, e2).  Factor
shifts come in as ints or Fractions, normal-ordering powers are ints, and
mismatches give exponents back as Fractions.

The x^lam coefficient of an ordered product of dilogarithms phi(-q^h X^beta)
is the fermionic sum of q^(P(m)) / prod (q)_(m_t) over the m of charge lam
(Faddeev-Kashaev), P read in ints off the words' exponent vectors
(_product_tables), so each side of a product identity is one charged level
sum (product_side).  Both sides get the same G(lam) added, which makes the
left side the Cartan form and the shipped right sides all-nonnegative; the
rows, moved back down by G(lam), stay canonical and are compared by nc_eq,
as list slices where two rows share a grid and otherwise through the
first-difference scan of series_eq.  The A-type charge word's exponent
C(m) + E(m) is read off the same tables (_charge_word).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, ne
from types import MappingProxyType
from typing import NamedTuple, Optional

from . import nahm
from .halfint import twice_of
from .nahm import NahmSumSpec, a_pairs, build_Bprime_form, cartan_matrix
from .series import _first_difference, _row_product, _row_sum, _row_terms, _trim, inv_pochhammer_dense


class NCAlgebra:
    """generator_count generators; x_i x_j = q^(eps_ij) x_j x_i (1-based)."""

    def __init__(self, eps):
        g = len(eps)
        for i in range(g):
            for j in range(g):
                if eps[i][j] != -eps[j][i]:
                    raise ValueError("eps must be antisymmetric")
        self.eps = tuple(tuple(row) for row in eps)
        self.generator_count = g

    @classmethod
    def from_cartan(cls, name):
        """x_a x_b = q^(-C_ab) x_b x_a for a < b, C = cartan_matrix(name):
        each edge of the Dynkin diagram is one q-commuting pair."""
        C = cartan_matrix(name)
        rank = len(C)
        return cls([[C[a][b] * ((a > b) - (a < b)) for b in range(rank)]
                    for a in range(rank)])


# ---------------------------------------------------------------------------
# Laurent coefficients in q^(1/2)
# ---------------------------------------------------------------------------

class ValidityError(ArithmeticError):
    """A comparison reads a coefficient past its validity order.  The
    expansions pad their orders so that no input can cause this: it is a
    fault of the program, not of the input, so it is no ValueError."""


class LaurentQ:
    """Laurent polynomial in q^(1/2), known modulo q^(order2/2).

    Exponents are doubled ints of either sign; order2 is the exclusive bound
    below which the coefficients are exact.  row is one canonical series row
    below order2 (see series._trim), None for zero.  Multiplication shrinks
    the validity order when negative exponents are present, which is what
    keeps truncated normal-ordering computations honest.  terms is the
    read-only {exponent: coefficient} view of the row's nonzero terms.
    """

    __slots__ = ("row", "order2", "_terms")

    def __init__(self, terms, order2):
        kept = {e: c for e, c in terms.items() if c and e < order2}
        low2, high2 = min(kept, default=0), max(kept, default=-1)
        self.row = _trim(low2, 1, [kept.get(e, 0) for e in range(low2, high2 + 1)], order2)
        self.order2 = order2
        self._terms = None

    @classmethod
    def _canonical(cls, row, order2):
        """From a canonical row below order2, or None (nothing is checked)."""
        self = cls.__new__(cls)
        self.row = row
        self.order2 = order2
        self._terms = None
        return self

    @classmethod
    def zero(cls, order2):
        return cls._canonical(None, order2)

    @classmethod
    def _from_row(cls, low2, row, order2, step=1):
        """The coefficients row[i] at exponents low2 + step*i, cut below
        order2; the list is kept, not copied, when it is already canonical."""
        return cls._canonical(_trim(low2, step, row, order2), order2)

    @property
    def terms(self):
        if self._terms is None:
            self._terms = MappingProxyType(dict(_row_terms(self.row)) if self.row else {})
        return self._terms

    def __add__(self, other):
        order2 = min(self.order2, other.order2)
        return LaurentQ._canonical(_row_sum(self.row, other.row, order2), order2)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other or self.row is None:
                return LaurentQ.zero(self.order2)
            first, step, coeffs = self.row
            return LaurentQ._canonical((first, step, [other * c for c in coeffs]), self.order2)
        x, y = self.row, other.row
        # each side's unknown tail meets the other's lowest exponent (0 if positive)
        bounds = [o + min(r[0], 0) for o, r in ((self.order2, y), (other.order2, x)) if r]
        order2 = min(bounds or (self.order2, other.order2))
        return LaurentQ._canonical(x and y and _row_product(x, y, order2), order2)

    def shifted(self, d2):
        """Multiply by q^(d2/2)."""
        row = self.row and (self.row[0] + d2, self.row[1], self.row[2])
        return LaurentQ._canonical(row, self.order2 + d2)


# ---------------------------------------------------------------------------
# words and normal ordering
# ---------------------------------------------------------------------------

def word_cross(algebra, left, right):
    """Sum of eps over pairs (a in left, b in right) with a > b: the q-power
    created when a copy of `right` is pushed through a copy of `left`."""
    return sum(algebra.eps[a - 1][b - 1] for a in left for b in right if a > b)


def word_inversions(algebra, word):
    """Sum of eps over inverted letter pairs (the q-power of one bubble sort):
    each letter crossed with the letters after it."""
    return sum(word_cross(algebra, word[s:s + 1], word[s + 1:]) for s in range(len(word)))


def normal_order(algebra, word, power=1):
    """Normal-order word^power: returns (q-power, exponent vector).

    word^power = q^p * x1^e1 ... xg^eg with ascending generator index; the
    q-power p is an int, since eps is an integer matrix.
    """
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    m = power
    inv = word_inversions(algebra, word)
    crs = word_cross(algebra, word, word)
    p = m * inv + (m * (m - 1) // 2) * crs
    exps = [0] * algebra.generator_count
    for g in word:
        exps[g - 1] += m
    return p, tuple(exps)


def monomial_merge_power2(algebra, a_exps, b_exps):
    """Doubled q-power from concatenating normal monomials x^a * x^b: twice
    the cross power of the two monomials spelled as words."""
    def spelled(exps):
        return [g for g, e in enumerate(exps, 1) for _ in range(e)]
    return 2 * word_cross(algebra, spelled(a_exps), spelled(b_exps))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class NCElement:
    """Map from normal-ordered exponent vectors to coefficients.

    terms maps each exponent vector below x-degree xdeg to its nonzero
    LaurentQ coefficient, one canonical series row and its validity order;
    a monomial with no entry has a zero coefficient, valid through
    absent_order2."""

    __slots__ = ("algebra", "xdeg", "terms")

    def __init__(self, algebra, xdeg, terms=None):
        """From LaurentQ coefficients; those at or past x-degree xdeg and the
        zero ones are dropped."""
        self.algebra = algebra
        self.xdeg = xdeg
        self.terms = {tuple(exps): coeff for exps, coeff in (terms or {}).items()
                      if sum(exps) < xdeg and coeff.row}

    def absent_order2(self):
        """The validity order of a coefficient that has no entry: the least
        order2 of the coefficients."""
        return min((c.order2 for c in self.terms.values()), default=1 << 60)

    def __mul__(self, other):
        """Product below the smaller x-degree bound.  Each output monomial's
        coefficient is the sum, over the pairs of monomials that merge into it,
        of the pair's coefficient product shifted by its merge power."""
        if not isinstance(other, NCElement):
            return NotImplemented
        if self.algebra is not other.algebra:
            raise ValueError("algebra mismatch")
        alg = self.algebra
        xdeg = min(self.xdeg, other.xdeg)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                if sum(ea) + sum(eb) < xdeg:
                    key = tuple(map(add, ea, eb))
                    piece = (ca * cb).shifted(monomial_merge_power2(alg, ea, eb))
                    out[key] = out[key] + piece if key in out else piece
        return NCElement(alg, xdeg, out)


class NCMismatch(NamedTuple):
    exps: tuple
    qexp: Fraction
    coeff_a: int
    coeff_b: int

    @property
    def total_degree(self):
        return sum(self.exps)


class NCCompareResult(NamedTuple):
    equal: bool
    xdeg: int
    qorder2: int
    mismatch: Optional[NCMismatch] = None

    def __bool__(self):
        return self.equal


def nc_eq(a: NCElement, b: NCElement, qorder) -> NCCompareResult:
    """Monomial-by-monomial comparison up to min x-degree and the given q-order.

    Mismatches are reported at the smallest (total degree, exponent vector),
    then lowest q-power, so a failure localizes the first bad factor.  A
    monomial with no coefficient on one side has a zero one there, valid
    through that side's absent_order2; every coefficient compared must be
    valid through qorder (ValidityError).  Two coefficient rows on one grid
    agree when their slots below qorder do; only a pair that does not is cut
    below qorder and scanned by series._first_difference.
    """
    qorder2 = twice_of(qorder)
    xdeg = min(a.xdeg, b.xdeg)
    terms_a, terms_b = a.terms, b.terms
    absent_a, absent_b = a.absent_order2(), b.absent_order2()
    keys = {e for e in terms_a if sum(e) < xdeg} | {e for e in terms_b if sum(e) < xdeg}
    for exps in sorted(keys, key=lambda e: (sum(e), e)):
        ca, cb = terms_a.get(exps), terms_b.get(exps)
        if min(ca.order2 if ca else absent_a, cb.order2 if cb else absent_b) < qorder2:
            raise ValidityError("coefficients not valid far enough for this comparison")
        x, y = ca and ca.row, cb and cb.row
        if x and y and x[0] == y[0] and x[1] == y[1]:
            n = (qorder2 - x[0] + x[1] - 1) // x[1]     # slots below qorder
            if n <= 0 or x[2][:n] == y[2][:n]:
                continue
        hit = _first_difference(x and _trim(*x, qorder2), y and _trim(*y, qorder2), ne)
        if hit:
            e, cx, cy = hit
            return NCCompareResult(False, xdeg, qorder2, NCMismatch(exps, Fraction(e, 2), cx, cy))
    return NCCompareResult(True, xdeg, qorder2)


# ---------------------------------------------------------------------------
# quantum dilogarithm
# ---------------------------------------------------------------------------

def _inv_poch_laurent(n, base2, order2):
    """q^(base2/2) / (q)_n as a LaurentQ valid below order2."""
    return LaurentQ._from_row(base2, inv_pochhammer_dense(n, (order2 - base2 + 1) // 2), order2, 2)


def _dilog_terms(algebra, prefactor_sign, qshift, word, xdeg):
    """Terms (exps, n, base2, sign) of phi(prefactor_sign * q^qshift * word)
    below x-degree xdeg, the n-th being sign * q^(base2/2) x^exps / (q)_n.

    phi(z) = prod_{i>=0} (1 - q^i z) = sum_n (-1)^n q^(n(n-1)/2) z^n / (q)_n.
    """
    word = tuple(word)
    shift2 = twice_of(qshift)
    n = 0
    while n * len(word) < xdeg:
        p, exps = normal_order(algebra, word, n) if n else (0, (0,) * algebra.generator_count)
        yield exps, n, n * (n - 1) + n * shift2 + 2 * p, (-1) ** n * prefactor_sign ** n
        n += 1


def dilog(algebra, prefactor_sign, qshift, word, xdeg, qorder2) -> NCElement:
    """phi(prefactor_sign * q^qshift * word) as a truncated NCElement."""
    return NCElement(algebra, xdeg, {
        exps: _inv_poch_laurent(n, base2, qorder2) * sign
        for exps, n, base2, sign in _dilog_terms(algebra, prefactor_sign, qshift, word, xdeg)})


# -- products as lattice sums -------------------------------------------------

def _product_tables(algebra, factors):
    """(betas, four, lin2) of ordered (sign, qshift, w_t) factors: beta_t the
    exponent vector of w_t, 4P(m) = m^T four m + 2 lin2 . m, P as in
    dilog_product_form.  word_cross(w_t, w_u) = beta_t^T L beta_u, L the
    lower triangle of eps."""
    g = algebra.generator_count
    betas = [tuple(map(w.count, range(1, g + 1))) for _s, _sh, w in factors]
    # L beta_u, then beta_t^T L beta_u; row[:a] is row a of L
    lowered = [[sum(map(mul, row[:a], b)) for a, row in enumerate(algebra.eps)] for b in betas]
    cross = [[sum(map(mul, a, lb)) for lb in lowered] for a in betas]
    n = len(factors)
    four = [[2 * cross[min(t, u)][max(t, u)] + 2 * (t == u) for u in range(n)] for t in range(n)]
    lin2 = [twice_of(sh) - 1 + 2 * word_inversions(algebra, w) - cross[t][t]
            for t, (_s, sh, w) in enumerate(factors)]
    return betas, four, lin2


def dilog_product_form(algebra, factors, names) -> NahmSumSpec:
    """Total q-exponent of an ordered dilog product, as a form over names.

    factors is a list of (qshift, word, varname): expanding every
    phi(-q^shift w) with summation variable m and normal-ordering the product
    gives q^(P(m)) x^(lambda(m)) / prod (q)_m; this returns P, the
    _product_tables summed onto the names.
    """
    _betas, four, lin2 = _product_tables(algebra, [(-1, sh, w) for sh, w, _v in factors])
    at = [names.index(v) for _sh, _w, v in factors]
    quad4, lin = [[0] * len(names) for _ in names], [0] * len(names)
    for t, a in enumerate(at):
        lin[a] += lin2[t]
        for u, b in enumerate(at):
            quad4[a][b] += four[t][u]
    return NahmSumSpec._of_ints(names, quad4, lin)


def _lhs_shift(algebra, lhs, xdeg):
    """The shift G(lam) = (1/2) lam^T C lam - P_L(lam) of a comparison of
    products below x-degree xdeg, C = 2I - |eps| the Cartan matrix of the
    algebra and P_L the exponent form of lhs over the lam coordinates: lhs
    must hold one single-generator factor per generator (ValueError).

    Returns (quad4, lin4, twice): 4G(lam) = lam^T quad4 lam + lin4 . lam,
    and twice maps each lam >= 0 with sum(lam) < xdeg to 2G(lam), built one
    coordinate at a time: fixing lam_i = v adds v*(quad4[i][i]*v + pull),
    pull = lin4[i] + 2 sum_(j<i) quad4[i][j] lam_j."""
    g = algebra.generator_count
    if sorted(w for _s, _sh, w in lhs) != [(i,) for i in range(1, g + 1)]:
        raise ValueError("the left side needs one single-generator factor per generator")
    _betas, four, lin2 = _product_tables(algebra, lhs)
    at = sorted(range(g), key=lambda t: lhs[t][2])  # the factor of lam_i
    quad4 = [[4 * (i == j) - 2 * abs(algebra.eps[i][j]) - four[t][u] for j, u in enumerate(at)]
             for i, t in enumerate(at)]
    lin4 = [-2 * lin2[t] for t in at]
    level = {(): 0}
    for i, row in enumerate(quad4):
        level = {lam + (v,): four + v * (row[i] * v + pull)
                 for lam, four, pull in ((lam, four, lin4[i] + 2 * sum(map(mul, row, lam)))
                                         for lam, four in level.items())
                 for v in range(xdeg - sum(lam))}
    return quad4, lin4, {lam: four // 2 for lam, four in level.items()}


def _side_order2(shift, qorder):
    """The doubled order a side is summed at: 2*qorder plus the largest
    2G(lam) of the box, so every row, moved down by its G, is valid through
    qorder."""
    return twice_of(qorder) + max(shift[2].values(), default=0)


def product_side(algebra, factors, shift, xdeg, qorder, budget=None) -> NCElement:
    """An ordered product of (prefactor_sign, qshift, word) dilogarithm
    factors below x-degree xdeg, valid through qorder, as one charged level
    sum (nahm.evaluate; budget caps its steps).

    Its x^lam coefficient sums sign(m) q^(P(m)) / prod (q)_(m_t) over the m
    with lam = sum m_t beta_t, P the form of _product_tables and beta_t the
    exponent vector of word t.  The level sum runs on P + G(lam), G the
    shift of _lhs_shift, added as the integer tables B^T (4G) B, B the
    matrix of the beta_t; it is charged by the beta_t and the total
    x-degree, each boxed at xdeg - 1, and refuses a form that is not
    coercive (CoercivityError).  Each row then moves down by G(lam), still
    canonical.  A factor phi(+X) signs its n-th term (-1)^n, so sign(m) =
    (-1)^(c . lam) for a c with c . beta_t odd exactly for those factors;
    without one the sign is no function of lam (ValueError).
    """
    g = algebra.generator_count
    betas, four, lin2 = _product_tables(algebra, factors)
    odd = [int(s > 0) for s, _sh, _w in factors]
    parity = next((c for c in itertools.product((0, 1), repeat=g)
                   if all(sum(map(mul, c, b)) % 2 == o for b, o in zip(betas, odd))), None)
    if parity is None:
        raise ValueError("the factors' signs are not a function of the x-degree vector")
    quad4, lin4, twice = shift
    pulled = [[sum(map(mul, row, b)) for row in quad4] for b in betas]     # quad4 beta_t
    four = [[x + sum(map(mul, a, p)) for x, p in zip(row, pulled)] for row, a in zip(four, betas)]
    lin2 = [x + sum(map(mul, lin4, b)) // 2 for x, b in zip(lin2, betas)]
    spec = NahmSumSpec._of_ints([f"m{t}" for t in range(len(factors))], four, lin2,
                                (*zip(*betas), tuple(map(sum, betas))))
    order2 = _side_order2(shift, qorder)
    series = nahm.evaluate(spec, Fraction(order2, 2), node_budget=budget,
                           charge_box=(xdeg - 1,) * (g + 1))
    terms = {}
    for u, (first, step, coeffs) in series.rows.items():
        lam = u[:g]
        e2 = twice[lam]
        if sum(map(mul, parity, lam)) % 2:
            coeffs = [-x for x in coeffs]
        terms[lam] = LaurentQ._canonical((first - e2, step, coeffs), order2 - e2)
    return NCElement(algebra, xdeg, terms)


def _compare_products(algebra, lhs, rhs, xdeg, qorder, budget):
    """nc_eq of the two sides' product_side, under the shift of lhs."""
    shift = _lhs_shift(algebra, lhs, xdeg)
    return nc_eq(product_side(algebra, lhs, shift, xdeg, qorder, budget),
                 product_side(algebra, rhs, shift, xdeg, qorder, budget), qorder)


# -- pentagon ----------------------------------------------------------------

def pentagon_factors(variant="plain", drop_middle=False):
    """(LHS, RHS) factor lists over generators x=1, y=2 with x y = q y x."""
    if variant == "plain":
        lhs = [(1, 0, (2,)), (1, 0, (1,))]
        rhs = [(1, 0, (1,)), (-1, 0, (2, 1)), (1, 0, (2,))]
    elif variant == "shifted":
        h = Fraction(1, 2)
        lhs = [(-1, h, (2,)), (-1, h, (1,))]
        rhs = [(-1, h, (1,)), (-1, 1, (2, 1)), (-1, h, (2,))]
    else:
        raise ValueError(f"unknown pentagon variant {variant!r}")
    if drop_middle:
        rhs = [rhs[0], rhs[2]]
    return lhs, rhs


def pentagon_check(xdeg, qorder, variant="plain", drop_middle=False,
                   budget=None) -> NCCompareResult:
    """phi(y) phi(x) = phi(x) phi(-yx) phi(y) for xy = q yx.

    budget caps the level-sum steps of each side (see product_side)."""
    return _compare_products(NCAlgebra([[0, 1], [-1, 0]]), *pentagon_factors(variant, drop_middle),
                             xdeg, qorder, budget)


# -- ordered products --------------------------------------------------------

def ordered_product_factors(name):
    """(LHS, RHS) dilog factor lists of the type `name` (see cartan_matrix),
    RHS in the displayed order.

    LHS is phi(-q^(1/2) x_r) ... phi(-q^(1/2) x_1) over the r nodes.  Type
    a{n}: RHS blocks run g = 1..n-1, block g listing segment words
    x_g x_{g-1} ... x_i for i = 1..g with shift (g-i+1)/2.  Type d4 is the
    twelve-factor star product; the factor phi(-q^(5/2) x4x3x2x1x2) is
    deliberately not a segment word.
    """
    rank = len(cartan_matrix(name))
    half = Fraction(1, 2)
    lhs = [(-1, half, (g,)) for g in range(rank, 0, -1)]
    if name == "d4":
        rhs = [(-1, Fraction(k, 2), word) for k, word in (
            (1, (1,)),
            (2, (2, 1)),
            (3, (4, 2, 1)),
            (3, (3, 2, 1)),
            (1, (2,)),
            (5, (4, 3, 2, 1, 2)),
            (4, (4, 3, 2, 1)),
            (2, (4, 2)),
            (2, (3, 2)),
            (3, (4, 3, 2)),
            (1, (3,)),
            (1, (4,)),
        )]
    else:
        rhs = [(-1, Fraction(g - i + 1, 2), tuple(range(g, i - 1, -1)))
               for g in range(1, rank + 1) for i in range(1, g + 1)]
    return lhs, rhs


def ordered_product_check(name, xdeg, qorder, budget=None):
    """Verdict plus the RHS factor list (emitted in reports for auditing).

    budget caps the level-sum steps of each side (see product_side)."""
    lhs_f, rhs_f = ordered_product_factors(name)
    return _compare_products(NCAlgebra.from_cartan(name), lhs_f, rhs_f, xdeg, qorder,
                             budget), rhs_f


# ---------------------------------------------------------------------------
# the charge word F and its normal-ordering exponent E(m)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _charge_word(n) -> NahmSumSpec:
    """C(m) + E(m), the exponent of the charge word F, as a form over the
    labels m[i,j] of the primed form, charged by the segment roots.  F is
    the ordered product, for j = 2..n and i = 1..j-1 in turn, of the segment
    powers (x_i ... x_{j-1})^(m_ij), each normal-ordered as x_i^(m_ij) ...
    x_{j-1}^(m_ij): its _product_tables hold E(m) off the diagonal and C(m) =
    sum (2-(j-i)) m_ij^2 / 2 on it, as 2 + 2 beta^T L beta = 4 - 2(j-i).
    Built once per n and shared: a NahmSumSpec is immutable."""
    order = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    betas, four, _lin2 = _product_tables(NCAlgebra.from_cartan(f"a{n}"),
                                         [(-1, 0, tuple(range(i, j))) for i, j in order])
    at = [order.index(p) for p in a_pairs(n)]
    return NahmSumSpec._of_ints([f"m[{i},{j}]" for i, j in a_pairs(n)],
                                [[four[t][u] for u in at] for t in at], [0] * len(at),
                                tuple(zip(*(betas[t] for t in at))))


def extract_E(n, m):
    """Normal-order the charge word F: returns (E, exponent vector), E an int.

    Segment (i, j) of F adds m_ij to each of x_i .. x_{j-1}, so the exponent
    vector always equals the charge vector lambda(m).
    """
    vec = [m[p] for p in a_pairs(n)]
    return extract_E_form(n).exponent2(vec) // 2, _charge_word(n).charge_of(vec)


def extract_E_form(n) -> NahmSumSpec:
    """E(m) as an exact quadratic form over the labels m[i,j] of the primed
    form, in its variable order."""
    F = _charge_word(n)
    return NahmSumSpec._of_ints(F.labels, [[x * (t != u) for u, x in enumerate(row)]
                                           for t, row in enumerate(F.four)], F.lin2)


def charge_word_identity_holds(n, m, form=None) -> bool:
    """The normal-ordering identity tying the dilog product to the lattice form.

    Writing the ordered product exponent as C(m) + E(m) and matching it
    against the commuting-variable side gives, pointwise on the lattice,

        C(m) + E(m) + (1/2) sum_i lambda_i(m)^2  =  B'(m).

    Two bookkeeping subtleties, both verified symbolically for n <= 5: the
    quadratic normalizations of the two sides differ by the sum of squares
    (the q-commuting character side carries k_i^2/2 where the Cartan form
    carries k_i^2), and the displayed factor order produces the primed form
    exactly; it agrees with the unprimed form through n = 3, and at series
    level both forms sum to the same character for every n.
    """
    if form is None:
        form = build_Bprime_form(n)
    F = _charge_word(n)
    vec = [m[p] for p in a_pairs(n)]
    lam = form.charge_of(vec)
    return (F.charge_of(vec) == lam
            and F.exponent(vec) + Fraction(sum(k * k for k in lam), 2) == form.exponent(vec))
