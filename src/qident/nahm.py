"""Nahm-type lattice sums: build, bound, enumerate, and compare.

A NahmSumSpec describes one side of an identity

    sum over m in N^l of  q^(Q(m)) * y^(U m) / ((q)_{m_1} ... (q)_{m_l})

with Q(m) = m^T quad m + linear.m.  Enumeration refuses to run unless the
form is certifiably coercive (all-nonnegative with positive diagonal, or
positive definite by a fraction-free elimination of the doubled integer
table, whose integer cofactors give the ellipsoid's box), so truncated
output can never silently lose terms.  A box on the charges (charge_box) may
stand in for a zero diagonal entry of an all-nonnegative form: the quiver
codimension is such a form under its box of dimension vectors.  Every sum,
charged or not, runs as one dynamic program over the distinct running sums
and charges, one variable level at a time (see _sum_levels), pruned by an
exact integer bound on the completion of each prefix and by the box; one
certification of the form (see compute_bound) gives that bound's table.
Each state's series is one packed int row, a fixed number of bits per
coefficient (see _slot_bits), so the program merges, cuts and divides by
(1 - q^j) with a few big-int operations and unpacks only the last level
into lists, already the canonical rows of the QSeries that evaluate
returns; a charged sum whose slots fit in 64 bits packs them in 64-bit
lanes, so that each of its rows unpacks in one C-level call.
A form is stored only as its doubled integer tables, 4*quad and 2*linear;
quad and linear are Fraction views of them for the reports and JSON.
A spec's JSON form and the symbolic form differences are in qident.forms.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .halfint import twice_of
from .record import Record
# inv_pochhammer_dense is not called here; instrumentation patches it on this module
from .series import QSeries, CompareResult, _trim, inv_pochhammer_dense, series_eq


class CoercivityError(ValueError):
    """The quadratic form fits neither coercive pattern; enumeration refused."""


class BudgetExceeded(RuntimeError):
    def __init__(self, what, limit):
        super().__init__(f"budget exceeded: {what} limit {limit}")
        self.what = what
        self.limit = limit


class NahmSumSpec(Record):
    """One lattice form, stored as its doubled integer tables: four = 4*quad
    (symmetric int rows with an even diagonal) and lin2 = 2*linear, with
    labels and integer charge rows.  quad and linear are Fraction views of
    those tables; the level sum and every check read the tables.

    NahmSumSpec(labels, quad, linear, charges, name, notes) takes exact
    numbers (ints or Fractions) and converts each entry once.  It refuses,
    with ValueError, a repeated label, a shape that does not match the
    labels, an asymmetric quad, and entries whose exponents are not
    half-integers on the lattice: 2*quad[i][i], 2*linear[i] and
    4*quad[i][j] must be ints.  The builders hand their int tables over
    through _of_ints, which runs the same label, shape and symmetry checks.
    """

    # four: 4*quad, symmetric int rows with an even diagonal; lin2: 2*linear,
    # ints; charges: an integer matrix, one row per charge variable
    __slots__ = ("labels", "four", "lin2", "charges", "name", "notes")

    def __init__(self, labels, quad, linear, charges, name="", notes=()):
        _check_shape(labels, quad, linear, charges)
        l = len(labels)
        four, lin2 = [[0] * l for _ in range(l)], [0] * l
        for i, row in enumerate(quad):
            four[i][i] = 2 * _times(row[i], 2, "2*diagonal entries must be integers")
            lin2[i] = _times(linear[i], 2, "2*linear entries must be integers")
            for j in range(i + 1, l):
                four[i][j] = four[j][i] = _times(row[j], 4,
                                                 "4*off-diagonal entries must be integers")
        self._store(labels, four, lin2, charges, name, notes)

    @classmethod
    def _of_ints(cls, labels, four, lin2, charges=(), name="", notes=()):
        """The form of the int tables four (4*quad, even diagonal) and lin2
        (2*linear), taken as they are: the builders' entry."""
        _check_shape(labels, four, lin2, charges)
        spec = object.__new__(cls)
        spec._store(labels, four, lin2, charges, name, notes)
        return spec

    def _store(self, labels, four, lin2, charges, name, notes):
        self._set(tuple(labels), tuple(map(tuple, four)), tuple(lin2), tuple(charges), name,
                  tuple(notes))

    @property
    def quad(self):
        """The symmetric matrix four/4, as row tuples of Fractions."""
        return tuple(tuple(Fraction(x, 4) for x in row) for row in self.four)

    @property
    def linear(self):
        """The vector lin2/2, as a tuple of Fractions."""
        return tuple(Fraction(x, 2) for x in self.lin2)

    @property
    def nvars(self):
        return len(self.labels)

    @property
    def charge_rank(self):
        return len(self.charges)

    def exponent(self, m) -> Fraction:
        return Fraction(self.exponent2(m), 2)

    def exponent2(self, m) -> int:
        """2*exponent(m), read off the int tables four and lin2."""
        total = 0
        for i, (mi, row) in enumerate(zip(m, self.four)):
            if mi:
                total += (row[i] // 2 * mi + self.lin2[i] + sum(
                    c * mj for c, mj in zip(row[i + 1:], m[i + 1:]))) * mi
        return total

    def charge_of(self, m):
        return tuple(sum(row[i] * m[i] for i in range(self.nvars)) for row in self.charges)

    def permuted(self, perm):
        """Same form with variables reordered; evaluate() must be invariant."""
        return NahmSumSpec._of_ints(
            [self.labels[p] for p in perm], [[self.four[p][r] for r in perm] for p in perm],
            [self.lin2[p] for p in perm], [tuple(row[p] for p in perm) for row in self.charges],
            self.name, self.notes)


def _check_shape(labels, quad, linear, charges):
    """The checks both entries of NahmSumSpec share, on exact or int tables:
    no repeated label, shapes that match the labels, a symmetric quad."""
    l = len(labels)
    repeated = [lab for i, lab in enumerate(labels) if lab in labels[:i]]
    if repeated:
        raise ValueError(f"repeated label {repeated[0]!r}")
    if len(quad) != l or any(len(row) != l for row in quad):
        raise ValueError("quadratic matrix shape does not match variable count")
    if len(linear) != l:
        raise ValueError("linear vector length does not match variable count")
    if list(map(list, zip(*quad))) != list(map(list, quad)):
        raise ValueError("quadratic matrix must be symmetric")
    if any(len(row) != l for row in charges):
        raise ValueError("charge matrix row length does not match variable count")


def _times(x, k, message):
    """k*x for an int or Fraction x, when it is an int; ValueError(message)
    when it is not."""
    if k % x.denominator:
        raise ValueError(message)
    return k // x.denominator * x.numerator


def _symmetric_from_products(nvars, product_terms):
    """The tables (four, lin2) of the form summing coeff*m_a*m_b over the
    (a, b, coeff) product terms, with a zero linear part."""
    four = [[0] * nvars for _ in range(nvars)]
    for a, b, coeff in product_terms:
        four[a][b] += 2 * coeff
        four[b][a] += 2 * coeff
    return four, [0] * nvars


# ---------------------------------------------------------------------------
# root data: the Cartan matrices and positive roots of the shipped types,
# read by the lattice forms here, the jet presets and the q-commutation forms
# ---------------------------------------------------------------------------

def cartan_matrix(name):
    """Integer Cartan matrix of a Dynkin type string, the one parser of a type:
    a{N} (N >= 2) is sl_N, the path on N-1 nodes; d4 is the star with center
    node 2.  Any other name is a ValueError."""
    digits = name[1:]
    if name == "d4":
        size, edges = 4, [(1, 2), (2, 3), (2, 4)]
    elif name[:1] == "a" and digits.isascii() and digits.isdigit() and str(int(digits)) == digits:
        if int(digits) < 2:
            raise ValueError("type A needs n >= 2")
        size = int(digits) - 1
        edges = [(i, i + 1) for i in range(1, size)]
    else:
        raise ValueError(f"unknown Dynkin type {name!r}: need a{{N}} (N >= 2) or d4")
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        mat[i][i] = 2
    for a, b in edges:
        mat[a - 1][b - 1] = -1
        mat[b - 1][a - 1] = -1
    return mat


def a_pairs(n):
    """The pairs (i, j), 1 <= i < j <= n, of the positive roots of sl_n."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def a_root(i, j, n):
    """The positive root e_i - e_j = a_i + ... + a_{j-1} of sl_n (i < j), in
    simple-root coordinates."""
    return tuple(int(i <= v < j) for v in range(1, n))


# The twelve positive roots of so(8) in the simple roots a1 = e1-e2,
# a2 = e2-e3, a3 = e3-e4, a4 = e3+e4 (the star of cartan_matrix("d4")):
# W_ij = e_i+e_j and V_ij = e_i-e_j.  The jet generators of d4-d carry these
# names; the lattice variables n_ij and m_ij of build_d4_form stand for W_ij
# and V_ij.
D4_ROOTS = {
    "W12": (1, 2, 1, 1), "W13": (1, 1, 1, 1), "W14": (1, 1, 0, 1),
    "W23": (0, 1, 1, 1), "W24": (0, 1, 0, 1), "W34": (0, 0, 0, 1),
    "V12": (1, 0, 0, 0), "V13": (1, 1, 0, 0), "V14": (1, 1, 1, 0),
    "V23": (0, 1, 0, 0), "V24": (0, 1, 1, 0), "V34": (0, 0, 1, 0),
}


# ---------------------------------------------------------------------------
# form builders
# ---------------------------------------------------------------------------

TYPO_NOTE_THM1 = ("source display writes denominators (q)_{n_ij} while summing "
                  "over m; read as (q)_{m_ij}")


def _b_coeff(i1, j1, i2, j2):
    """Coefficient on m[i1,j1]*m[i2,j2] of the lattice form B: the number of
    its four families that hold."""
    return ((i1 < i2 and j1 < j2 and j1 > i2 + 1)       # strictly crossing with a gap
            + (i1 == i2 and j1 <= j2)                   # same left endpoint, squares included
            + (j1 == j2 and i1 < i2)                    # same right endpoint
            + (j1 == i1 + 1 and i2 < i1 < j2 - 1))      # nearest pair nested in a longer one


def _bprime_coeff(i1, j1, i2, j2):
    """Single family of the primed form: i1 <= i2, j1 <= j2, j1 > i2."""
    return int(i1 <= i2 and j1 <= j2 and j1 > i2)


def _mvar(i, j):
    return f"m[{i},{j}]"


def _pair_form(n, coeff, title, name):
    """Rank-n form over the m[i,j]; m[i,j] is charged by a_root(i, j, n)."""
    if n < 2:
        raise ValueError(f"{title} form needs n >= 2")
    pairs = a_pairs(n)
    four, lin2 = _symmetric_from_products(len(pairs), [
        (a, b, coeff(*p, *r)) for a, p in enumerate(pairs) for b, r in enumerate(pairs)])
    return NahmSumSpec._of_ints(
        [_mvar(i, j) for (i, j) in pairs], four, lin2,
        tuple(zip(*(a_root(i, j, n) for (i, j) in pairs))), f"{name}-a{n}", (TYPO_NOTE_THM1,))


def build_B_form(n) -> NahmSumSpec:
    return _pair_form(n, _b_coeff, "B", "B")


def build_Bprime_form(n) -> NahmSumSpec:
    return _pair_form(n, _bprime_coeff, "B'", "Bprime")


def build_cartan_side(name) -> NahmSumSpec:
    """Character side of the type `name` (see cartan_matrix): exponent
    (1/2) k^T A k over (q)_{k_1}...(q)_{k_r}."""
    A = cartan_matrix(name)
    size = len(A)
    charges = tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))
    return NahmSumSpec._of_ints([f"k{i+1}" for i in range(size)],
                                [[2 * x for x in row] for row in A], [0] * size, charges,
                                f"cartan-{name}")


def build_b2_char_form() -> NahmSumSpec:
    """Three-variable character form r1^2+(r2+r3)^2+r3^2-r1*(r2+2 r3)."""
    prods = [(0, 0, 1), (1, 1, 1), (2, 2, 2), (1, 2, 2), (0, 1, -1), (0, 2, -2)]
    return NahmSumSpec._of_ints(("r1", "r2", "r3"), *_symmetric_from_products(3, prods),
                                ((1, 0, 0), (0, 1, 2)), "b2-char")


def build_b2_quintuple_form() -> NahmSumSpec:
    """Five-variable form n1^2+n2^2+(n3+n5)^2+n4^2+n3^2+(2n3+n5)n1+n4(n1+n2)+n3n4."""
    prods = [
        (0, 0, 1), (1, 1, 1), (2, 2, 2), (3, 3, 1), (4, 4, 1),
        (2, 4, 2),            # (n3+n5)^2 cross part
        (0, 2, 2), (0, 4, 1),  # (2n3+n5)*n1
        (0, 3, 1), (1, 3, 1),  # n4*(n1+n2)
        (2, 3, 1),             # n3*n4
    ]
    return NahmSumSpec._of_ints(("n1", "n2", "n3", "n4", "n5"),
                                *_symmetric_from_products(5, prods),
                                ((1, 1, 0, 1, 0), (2, 0, 2, 1, 1)), "b2-quintuple")


# every product term of the twelve-variable D4 exponent, as displayed
_D4_TERMS = """
m12*m12 m12*m13 m12*m14 m12*n12 m12*n13 m12*n14
m13*m13 m13*m14 m13*m23 m13*m24 2:m13*n12 m13*n13 m13*n14 m13*n23 m13*n24
m14*m14 m14*m24 m14*m34 m14*n12 m14*n13 m14*n23
m23*m23 m23*m24 m23*n12 m23*n23 m23*n24
m24*m24 m24*m34 m24*n12 m24*n23
m34*m34 m34*n12 m34*n13 m34*n23
n12*n12 n12*n13 n12*n14 2:n12*n23 n12*n24 n12*n34
n13*n13 n13*n14 n13*n23 n13*n34
n14*n14 n14*n23 n14*n24 n14*n34
n23*n23 n23*n24 n23*n34
n24*n24 n24*n34
n34*n34
"""

def d4_labels():
    return tuple(f"{c}{i}{j}" for c in "mn" for (i, j) in a_pairs(4))


def build_d4_form(primed=False) -> NahmSumSpec:
    labels = d4_labels()
    idx = {lab: k for k, lab in enumerate(labels)}
    prods = []
    for token in _D4_TERMS.split():         # 'c:a*b', or 'a*b' with coefficient 1
        c, _, token = token.rpartition(":")
        a, b = token.split("*")
        prods.append((idx[a], idx[b], int(c or 1)))
    if primed:
        # B - B' = n12*n23 + n12*m13
        prods.append((idx["n12"], idx["n23"], -1))
        prods.append((idx["n12"], idx["m13"], -1))
    roots = [D4_ROOTS[{"m": "V", "n": "W"}[lab[0]] + lab[1:]] for lab in labels]
    return NahmSumSpec._of_ints(labels, *_symmetric_from_products(12, prods),
                                tuple(zip(*roots)), "d4-prime" if primed else "d4")


# ---------------------------------------------------------------------------
# enumeration bounds
# ---------------------------------------------------------------------------

class EnumerationBound(NamedTuple):
    per_variable_max: tuple
    strategy: str                        # "all_nonneg" | "positive_definite"
    table: tuple                         # (G, g, levels, R, lin) of _sum_levels


def _reverse_ldl(B):
    """Fraction-free (Bareiss) elimination of B = 4Q, last variable first,
    run Gauss-Jordan style on [B | I]: pivot k is the trailing principal
    minor delta[k] = det B[k:, k:] (delta[l] = 1), and each update T_ij <-
    (T_ij*delta[k] - T_ik*T_kj) / delta[k+1] divides exactly.  Returns
    (delta, T, adj), with T[k] row k left of its pivot, so that x^T Q x =
    sum_k D_k (x_k + sum_{i<k} M_ki x_i)^2 for M_ki = T[k][i] / delta[k] and
    D_k = delta[k] / (4*delta[k+1]), and adj[i] = cof_ii(B) off the right
    block, which ends as the adjugate.  The first pivot that is not positive
    (Q is not positive definite) raises CoercivityError.
    """
    l = len(B)
    A = [list(row) + [int(i == j) for j in range(l)] for i, row in enumerate(B)]
    delta = [1] * (l + 1)
    T = [None] * l
    for k in range(l - 1, -1, -1):
        pivot, prev = A[k], delta[k + 1]
        p = delta[k] = pivot[k]
        if p <= 0:
            raise CoercivityError("matrix is not positive definite")
        T[k] = pivot[:k]
        for i, row in enumerate(A):
            if i != k:
                f = row[k]
                A[i] = [(x * p - f * y) // prev for x, y in zip(row, pivot)]
    return delta, T, [row[l + i] for i, row in enumerate(A)]


def _box_caps(spec: NahmSumSpec, charge_box):
    """Per variable, the largest value the charge box allows it on its own:
    min(box_i // charges[i][d]) over the rows with a positive entry, or None
    when no row charges it (every variable when charge_box is None)."""
    if charge_box is None:
        return [None] * spec.nvars
    if len(charge_box) != spec.charge_rank or any(b < 0 for b in charge_box):
        raise ValueError("a charge box needs one nonnegative cap per charge row")
    if any(x < 0 for row in spec.charges for x in row):
        raise CoercivityError("a boxed charge row has a negative entry")
    return [min((b // row[d] for b, row in zip(charge_box, spec.charges) if row[d] > 0),
                default=None) for d in range(spec.nvars)]


def compute_bound(spec: NahmSumSpec, order, charge_box=None) -> EnumerationBound:
    """Certify the form once: its per-variable box below `order` and the
    integer per-level table (G, g, levels, R, lin) of _sum_levels.

    With s_d the running sum at level d (fixing x_i = v adds v*R[i][d] to
    s_d for every d > i), fixing x_d = v adds

        a*v^2 + (beta*s_d + lin[d])*v + delta*s_d^2,   (a, beta, delta) = levels[d]

    to the bound of the prefix.  The bound is G times the exact minimum of
    the doubled exponent over the completions of the prefix, and G times
    the doubled exponent itself once every variable is fixed, so it never
    falls as variables are fixed; g is the gcd of 2 and every doubled table
    entry of the form.

    Both patterns are read off the int tables spec.four and spec.lin2 with
    no Fraction arithmetic.  An all-nonnegative form with positive
    diagonal has G = 1, the doubled cross sums as running sums and its
    doubled linear part as lin: its nonnegative completions add nothing at
    x = 0, so the bound is the doubled exponent of the prefix, and x_i^2 *
    quad_ii <= order boxes each variable.  Any other form must have a zero
    linear part and positive pivots in the fraction-free reverse elimination
    of B = 4Q (_reverse_ldl), whose split x^T Q x = sum_k D_k (x_k +
    sum_{i<k} M_ki x_i)^2 has later squares that real values can all make
    zero (Fincke-Pohst); then lin is zero, s_k = den * sum_{i<k} M_ki x_i
    with den the lcm of the denominators of M, and G clears the denominators
    of 2*D_k/den^2.  x_i^2 < order * (Q^-1)_ii = 2*order2*cof_ii(B)/det B
    is the exact box of x_i on the ellipsoid x^T Q x < order.

    charge_box, one cap per charge row, keeps the charges u <= charge_box.
    Its rows must be nonnegative (CoercivityError), so u never falls, and
    box_i // charges[i][d] caps x_d in per_variable_max.  An all-nonnegative
    form may then have a zero diagonal entry where such a cap exists.

    per_variable_max also sizes _sum_levels' packed states: with x_i within
    it, the lowest and highest values of each running sum and charge give
    that field's bias and width.  It and the diagonal also bound every
    coefficient of the packed int rows, which sets their slot width (see
    _slot_bits).
    """
    order2 = twice_of(order)
    cross2, lin2 = spec.four, spec.lin2
    diag2 = [row[i] // 2 for i, row in enumerate(cross2)]
    caps = _box_caps(spec, charge_box)
    g = math.gcd(2, *diag2, *lin2, *(x for row in cross2 for x in row))
    if (all(x > 0 or (x == 0 and c is not None) for x, c in zip(diag2, caps))
            and all(x >= 0 for x in lin2) and all(x >= 0 for row in cross2 for x in row)):
        per_var = [math.isqrt(max(order2 // x, 0)) if x else c for x, c in zip(diag2, caps)]
        strategy, table = "all_nonneg", (1, g, [(x, 1, 0) for x in diag2], cross2, lin2)
    else:
        refusal = CoercivityError(
            "quadratic form is neither all-nonnegative with positive diagonal "
            "nor positive definite with a zero linear part; refusing to enumerate")
        if any(lin2):
            raise refusal
        try:
            delta, T, adj = _reverse_ldl(cross2)
        except CoercivityError:
            raise refusal from None
        per_var = [math.isqrt(max((2 * order2 * c - 1) // delta[0], 0)) for c in adj]
        l = spec.nvars
        den = math.lcm(*(delta[k] // math.gcd(x, delta[k]) for k in range(l) for x in T[k]))
        # 2*D_k/den^2 = delta[k] / over[k]; G clears their reduced denominators
        over = [2 * delta[k + 1] * den * den for k in range(l)]
        G = math.lcm(*(h // math.gcd(dk, h) for dk, h in zip(delta, over)))
        W = [G * dk // h for dk, h in zip(delta, over)]
        R = [[den * T[j][d] // delta[j] if d < j else 0 for j in range(l)] for d in range(l)]
        strategy = "positive_definite"
        table = (G, g, [(w * den * den, 2 * w * den, w) for w in W], R, [0] * l)
    return EnumerationBound(tuple(v if c is None else min(v, c) for v, c in zip(per_var, caps)),
                            strategy, table)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _slot_bits(spec: NahmSumSpec, bound: EnumerationBound, order2):
    """Bits per slot of the packed int rows of _sum_levels: every slot below
    the cut that they hold is below 2**bits (the rest are never read).

    Every term is +q^e / prod (q)_{x_i}, so a slot is a sum of nonnegative
    coefficients, one per prefix x in the box that reaches it: [q^j] of
    1/prod (q)_{x_i}, where a slot below the cut has 2*j + D(x) < order2.
    For an all-nonnegative table D(x) = sum diag2_i*x_i^2, since the bound
    of a prefix is at least that; for a positive-definite one D(x) = 0.
    Such a coefficient grows with j once some x_i > 0, so a slot is at most
    1 (the zero prefix) plus the coefficients of z^(order2 - 1) and
    z^(order2 - 2) in
        F(z) = prod_i sum_{v <= per_variable_max[i]} z^(c_i*v^2) / (z^2; z^2)_v,
    c_i = diag2_i or 0, and for every 0 < z < 1 those two are below
    z^(1 - order2) * F(z).  z = exp(-s) is taken near the saddle point (any
    z gives a bound; this one is 15 to 30 bits above the largest
    coefficient of the shipped forms), log F is summed in logs so that no
    float overflows, and the two guard bits cover the 1 and the rounding.
    """
    top = bound.per_variable_max
    shifts = ([row[i] // 2 for i, row in enumerate(spec.four)]
              if bound.strategy == "all_nonneg" else [0] * len(top))
    s = 0.35 * math.pi * math.sqrt(len(top) / (6 * ((order2 + 1) // 2)))
    log_bound = (order2 - 1) * s + math.log(2)
    # variables with the same (cap, diagonal) pair have the same factor of F: sum it once
    for (t, c), times in Counter(zip(top, shifts)).items():
        logs, p = [0.0], 0.0           # log of z^(c*v^2) / (z^2; z^2)_v for v = 0..t
        for v in range(1, t + 1):
            p -= math.log(-math.expm1(-2 * s * v))
            logs.append(p - c * v * v * s)
        m = max(logs)
        log_bound += times * (m + math.log(math.fsum(math.exp(x - m) for x in logs)))
    return math.ceil(log_bound / math.log(2)) + 2


def _sum_levels(spec: NahmSumSpec, order2, rank, node_budget, bound: EnumerationBound,
                charge_box=None):
    """Sum of a coercive form, one variable level at a time.

    With (G, g, levels, R, lin) = bound.table (see compute_bound), the sum
    over x_d..x_{l-1} depends on x_0..x_{d-1} only through the running sums
    s[d:] and the running charge u = sum_{i<d} x_i*charges[*][i], so level d
    maps each distinct state s[d:] + u to (offset, S): the sum, over the
    prefixes that reach it, of q^(prefix exponent) / prod (q)_{x_i}, as a
    packed int row.  Prefixes reaching one state differ in bound by G times
    their exponent difference, a multiple of G*g, so the offset is the
    lowest of their bounds and slot k of S stands for bound offset + k*G*g;
    integral forms carry no empty odd slots, and charges are not scaled.
    The bound never falls, so slots at or past the cut G*order2 are dropped:
    a state at offset e keeps n(e) = (G*order2 - e - 1) // (G*g) + 1 slots.
    Fixing x_d = v sends S/(q)_v at the bound e(v) of the table to the state
    s[d+1:] + v*R[d][d+1:], u + v*charges[*][d].  v stops at
    bound.per_variable_max[d] and, under charge_box, at min((box_i - u_i) //
    charges[i][d]) over the rows with a positive entry.  e(v) grows from vr
    on: before vr a v at or past the cut is skipped and S keeps its slots
    for the later v; from vr on the first v at the cut ends the loop, and
    S's division keeps only the slots of v.  vr is computed for
    positive-definite tables only: an all-nonnegative one has a, b >= 0, so
    vr <= 0 and every v is past it.

    A packed int row holds slot k in bits k*W .. k*W + W - 1, and only its
    low n(offset) slots mean anything: every operation moves bits up only
    (left shifts, additions whose carries run upward, a division whose
    slot k reads slots k and below), so what lies above them never reaches
    them, and the last level unpacks n(offset) slots.  W from _slot_bits
    bounds every slot below the cut, so none of them carries into the
    next.  A charged sum (rank > 0) with W <= 64 widens W to 64: its last
    level holds one row per charge, and each then unpacks as the masked
    row's bytes read as unsigned 64-bit words.  Any other sum keeps the
    tight W, whose rows unpack one slot at a time (an uncharged sum hands
    over one long row, and wider slots would slow every operation on it).
    A new child takes S itself, and a merge at another offset is
    one shift and one add.  Dividing by (1 - q^j) multiplies by
    (1 + q^j)(1 + q^2j)(1 + q^4j)...: S += S << j*W with j doubling while
    it is below the slot count, then one AND with the mask of those slots,
    the only cut.  A partial product never exceeds the quotient.

    A state is one packed int: the fields of s_d..s_{l-1} and then of u_0..,
    each `width` bits, lowest first.  Every x_i stays within
    bound.per_variable_max[i], so each s_k and u_i lies between the sums of
    those caps times the negative and the positive entries of its column (of
    R above the diagonal, or its charge row).  A field holds its value plus
    its bias, which is minus that lowest value, so it is never negative, and
    width is the bit length of the largest biased value.  Then s_d is the low field
    minus its bias, the child state is the state shifted down one field, and
    each next v adds the packed row of level d to it.  Only the last level's
    keys are unpacked into charge tuples, and only its rows into lists of
    n(offset) slots.  node_budget caps the
    (state, v) steps; it is checked once per state, and raises exactly when
    the steps exceed it.  Each state is popped as it is consumed and only
    two levels are alive at once.

    Returns the last level as {u: (first, step, coeffs)}, one state per
    charge u in the order the sum leaves them, each row canonical as
    series._trim leaves it.  The state's offset is G times the exact
    doubled exponent first, and slot k sits at first + k*g.  Slot 0 is
    never zero (the prefix at the offset adds 1 there), so a row with
    g = 2 and a nonzero last slot is (first, 2, slots) as it stands; any
    other row is trimmed.
    """
    l = spec.nvars
    G, g, levels, R, lin = bound.table
    top = bound.per_variable_max
    step = G * g
    cut = G * order2
    unit = 2 // g                       # q^1 in slots
    charges = spec.charges[:rank]
    definite = bound.strategy == "positive_definite"
    budget = math.inf if node_budget is None else node_budget
    W = _slot_bits(spec, bound, order2)
    if rank and W <= 64:
        W = 64                          # 64-bit lanes: the last level unpacks in one C call
    # masks[n]: the low n slots of a row
    masks = [(1 << n * W) - 1 for n in range((cut - 1) // step + 2)]
    # field k of the first level: s_k for k < l (the x_i with i < k feed it), u_{k-l} after
    cols = [[R[i][k] * (i < k) for i in range(l)] for k in range(l)] + list(charges)
    bias = [-sum(t * min(c, 0) for t, c in zip(top, col)) for col in cols]
    width = max([1] + [(b + sum(t * max(c, 0) for t, c in zip(top, col))).bit_length()
                       for b, col in zip(bias, cols)])
    mask = (1 << width) - 1
    steps = 0
    level = {sum(b << width * k for k, b in enumerate(bias)): (0, 1)}
    for d in range(l):
        a, beta, delta = levels[d]
        bd, lind = bias[d], lin[d]
        vtop = top[d]
        # (shift of u_i in the state, box_i + bias of u_i, charges[i][d]) for the rows that cap x_d
        boxed = [] if charge_box is None else [
            (width * (l - d + i), cap + bias[l + i], ch[d])
            for i, (cap, ch) in enumerate(zip(charge_box, charges)) if ch[d] > 0]
        row = sum(R[d][k] << width * (k - d - 1) for k in range(d + 1, l)) + sum(
            ch[d] << width * (l - d - 1 + i) for i, ch in enumerate(charges))
        nxt = {}
        while level:
            state, (off, S) = level.popitem()
            sd = (state & mask) - bd
            b = beta * sd + lind
            e = off + delta * sd * sd
            vr = -((a + b) // (2 * a)) if definite else 0
            vmax = vtop
            if boxed:
                for sh, cap, c in boxed:
                    x = (cap - (state >> sh & mask)) // c
                    if x < vmax:
                        vmax = x
            child = state >> width
            n = (cut - off - 1) // step + 1         # the slots a division of S keeps
            v = 0
            while True:
                # S is the state's series over (q)_v, exact in at least the slots of e below the cut
                if e < cut:
                    steps += 1
                    old = nxt.get(child)
                    if old is None:
                        nxt[child] = (e, S)
                    elif old[0] <= e:
                        nxt[child] = (old[0], old[1] + (S << (e - old[0]) // step * W))
                    else:
                        nxt[child] = (e, S + (old[1] << (old[0] - e) // step * W))
                if v >= vmax:
                    break
                e += a * (2 * v + 1) + b
                v += 1
                if v >= vr:
                    if e >= cut:
                        break
                    n = (cut - e - 1) // step + 1
                shift, end = unit * v * W, n * W
                while shift < end:
                    S += S << shift
                    shift += shift
                S &= masks[n]
                child += row
            if steps > budget:
                raise BudgetExceeded("level-sum steps", node_budget)
        level = nxt
    # hand each row over canonical (see series._trim), in order, and free each int as its list
    # is made.  Slot 0 holds the 1 of the prefix at the offset, so a step-2 row whose last
    # slot is nonzero is canonical as it stands; only the others are trimmed
    slot = masks[1]
    for key, (off, S) in level.items():
        n = (cut - off - 1) // step + 1
        if W == 64:
            row = memoryview((S & masks[n]).to_bytes(8 * n, sys.byteorder)).cast("Q").tolist()
        else:
            row = [0] * n
            for k in range(n):
                row[k] = S & slot
                S >>= W
        level[key] = ((off // G, 2, row) if g == 2 and row[-1]
                      else _trim(off // G, g, row, order2))
    # unpack the charge fields a column at a time; rank 0 keeps its one () row
    keys, columns = list(level), []
    for b in bias[l:]:
        columns.append([(key & mask) - b for key in keys])
        keys = [key >> width for key in keys]
    return dict(zip(zip(*columns) if columns else [()] * len(keys), level.values()))


def evaluate(spec: NahmSumSpec, order, charges=True, node_budget=None,
             charge_box=None) -> QSeries:
    """Exact truncated evaluation of the lattice sum.

    compute_bound certifies coercivity once and gives the table that drives
    the level sum of _sum_levels; node_budget caps its (state, v) steps.
    The box of compute_bound is what the tests' brute-force oracle
    (lattice_reference.evaluate_bruteforce) iterates.  With
    charges=False (or no charge rows) the charge monomials are never formed.
    charge_box, one cap per charge row, keeps only the terms with charge
    u <= charge_box, pruned as the sum runs (see compute_bound for the
    coercivity rule under a box); it needs charges=True (ValueError).
    The level sum's rows are canonical as it hands them over, so they
    become the result's rows with no second pass.
    """
    if charge_box is not None and not charges:
        raise ValueError("a charge box needs charges=True")
    bound = compute_bound(spec, order, charge_box)
    order2 = twice_of(order)
    rank = spec.charge_rank if charges else 0
    if order2 <= 0:
        return QSeries._raw(max(order2, 0), rank, {})
    return QSeries._canonical(order2, rank,
                              _sum_levels(spec, order2, rank, node_budget, bound, charge_box))


def verify_identity(lhs: NahmSumSpec, rhs: NahmSumSpec, order, with_charges=True,
                    node_budget=None) -> CompareResult:
    """Evaluate both sides and compare coefficientwise."""
    if with_charges and lhs.charge_rank != rhs.charge_rank:
        raise ValueError(f"charge ranks differ ({lhs.charge_rank} vs {rhs.charge_rank}); "
                         "compare the uncharged series instead")
    a = evaluate(lhs, order, charges=with_charges, node_budget=node_budget)
    b = evaluate(rhs, order, charges=with_charges, node_budget=node_budget)
    return series_eq(a, b)
