"""Nahm-type lattice sums: build, bound, enumerate, and compare.

A NahmSumSpec describes one side of an identity

    sum over m in N^l of  q^(Q(m)) * y^(U m) / ((q)_{m_1} ... (q)_{m_l})

with Q(m) = m^T quad m + linear.m.  Enumeration refuses to run unless the
form is certifiably coercive (all-nonnegative with positive diagonal, or
positive definite), so truncated output can never silently lose terms.
Every sum, charged or not, runs as one dynamic program over the distinct
running sums and charges, one variable level at a time (see _sum_levels),
pruned by an exact integer bound on the completion of each prefix (see
_level_table).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import kernels
from .halfint import twice_of
from .poly import SparsePoly
from .series import QSeries, CompareResult, inv_pochhammer_dense, series_eq


class CoercivityError(ValueError):
    """The quadratic form fits neither coercive pattern; enumeration refused."""


class BudgetExceeded(RuntimeError):
    def __init__(self, what, limit):
        super().__init__(f"budget exceeded: {what} limit {limit}")
        self.what = what
        self.limit = limit


@dataclass(frozen=True)
class NahmSumSpec:
    labels: tuple
    quad: tuple          # symmetric matrix of Fractions, row tuples
    linear: tuple        # Fractions
    charges: tuple       # integer matrix, one row per charge variable
    name: str = ""
    notes: tuple = ()

    @property
    def nvars(self):
        return len(self.labels)

    @property
    def charge_rank(self):
        return len(self.charges)

    def __post_init__(self):
        l = self.nvars
        if len(self.quad) != l or any(len(row) != l for row in self.quad):
            raise ValueError("quadratic matrix shape does not match variable count")
        if len(self.linear) != l:
            raise ValueError("linear vector length does not match variable count")
        for i in range(l):
            for j in range(l):
                if self.quad[i][j] != self.quad[j][i]:
                    raise ValueError("quadratic matrix must be symmetric")
        for row in self.charges:
            if len(row) != l:
                raise ValueError("charge matrix row length does not match variable count")
        # exponents must be half-integers on the lattice: see exponent2()
        for i in range(l):
            if (2 * self.quad[i][i]).denominator != 1:
                raise ValueError("2*diagonal entries must be integers")
            if (2 * self.linear[i]).denominator != 1:
                raise ValueError("2*linear entries must be integers")
            for j in range(i + 1, l):
                if (4 * self.quad[i][j]).denominator != 1:
                    raise ValueError("4*off-diagonal entries must be integers")

    # doubled-exponent tables used by the enumerator
    def _tables(self):
        l = self.nvars
        diag2 = [int(2 * self.quad[i][i]) for i in range(l)]
        lin2 = [int(2 * self.linear[i]) for i in range(l)]
        cross2 = [[int(4 * self.quad[i][j]) for j in range(l)] for i in range(l)]
        return diag2, lin2, cross2

    def exponent(self, m) -> Fraction:
        total = Fraction(0)
        for i, mi in enumerate(m):
            if not mi:
                continue
            total += self.quad[i][i] * mi * mi + self.linear[i] * mi
            for j in range(i + 1, self.nvars):
                if m[j]:
                    total += 2 * self.quad[i][j] * mi * m[j]
        return total

    def exponent2(self, m) -> int:
        e2 = 2 * self.exponent(m)
        if e2.denominator != 1:
            raise ValueError(f"exponent at {m} is not a half-integer")
        return e2.numerator

    def charge_of(self, m):
        return tuple(sum(row[i] * m[i] for i in range(self.nvars)) for row in self.charges)

    def permuted(self, perm):
        """Same form with variables reordered; evaluate() must be invariant."""
        l = self.nvars
        labels = tuple(self.labels[p] for p in perm)
        quad = tuple(tuple(self.quad[perm[i]][perm[j]] for j in range(l)) for i in range(l))
        linear = tuple(self.linear[p] for p in perm)
        charges = tuple(tuple(row[p] for p in perm) for row in self.charges)
        return NahmSumSpec(labels, quad, linear, charges, self.name, self.notes)

    def dropped_charges(self):
        return NahmSumSpec(self.labels, self.quad, self.linear, (), self.name, self.notes)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {
            "name": self.name,
            "labels": list(self.labels),
            "quadratic": [[str(x) for x in row] for row in self.quad],
            "linear": [str(x) for x in self.linear],
            "charges": [list(row) for row in self.charges],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of to_json_dict; a missing or malformed key is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError("form spec must be a JSON object")
        missing = [k for k in ("labels", "quadratic", "linear") if k not in data]
        if missing:
            raise ValueError("form spec lacks " + ", ".join(map(repr, missing)))

        def field(key, convert, matrix=False):
            value = data.get(key, [])
            try:
                if not isinstance(value, list) or (
                        matrix and not all(isinstance(r, list) for r in value)):
                    raise TypeError(key)
                return tuple(tuple(map(convert, r)) if matrix else convert(r) for r in value)
            except (TypeError, ValueError, ArithmeticError):
                shape = "a list of lists" if matrix else "a list"
                raise ValueError(f"form spec {key!r} must be {shape} of valid entries") from None

        return cls(
            labels=field("labels", lambda x: x),
            quad=field("quadratic", Fraction, matrix=True),
            linear=field("linear", Fraction),
            charges=field("charges", int, matrix=True),
            name=data.get("name", ""),
            notes=field("notes", lambda x: x),
        )

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(json.loads(text))


def _symmetric_from_products(nvars, product_terms, linear=None):
    """Assemble the quadratic matrix from coefficient-on-m_a*m_b terms."""
    quad = [[Fraction(0)] * nvars for _ in range(nvars)]
    for a, b, coeff in product_terms:
        c = Fraction(coeff)
        if a == b:
            quad[a][a] += c
        else:
            quad[a][b] += c / 2
            quad[b][a] += c / 2
    lin = tuple(Fraction(x) for x in (linear or [0] * nvars))
    return tuple(tuple(row) for row in quad), lin


# ---------------------------------------------------------------------------
# form builders
# ---------------------------------------------------------------------------

TYPO_NOTE_THM1 = ("source display writes denominators (q)_{n_ij} while summing "
                  "over m; read as (q)_{m_ij}")


def _pair_index(n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return pairs, {p: k for k, p in enumerate(pairs)}


def b_form_products(n):
    """The four coefficient families of the rank-n lattice form B, additively."""
    pairs, idx = _pair_index(n)
    out = []
    for (i1, j1) in pairs:
        for (i2, j2) in pairs:
            # strictly crossing with a gap: i1 < i2, j1 < j2, j1 > i2 + 1
            if i1 < i2 and j1 < j2 and j1 > i2 + 1:
                out.append((idx[(i1, j1)], idx[(i2, j2)], 1))
    for (i1, j1) in pairs:
        for (i2, j2) in pairs:
            if i1 == i2 and j1 <= j2:        # same left endpoint, squares included
                out.append((idx[(i1, j1)], idx[(i2, j2)], 1))
    for (i1, j1) in pairs:
        for (i2, j2) in pairs:
            if j1 == j2 and i1 < i2:         # same right endpoint
                out.append((idx[(i1, j1)], idx[(i2, j2)], 1))
    for (i, ip1) in pairs:
        if ip1 != i + 1:
            continue
        for (j, jp) in pairs:                # nearest pair nested in a longer one
            if j < i and i + 1 < jp:
                out.append((idx[(i, ip1)], idx[(j, jp)], 1))
    return out


def bprime_form_products(n):
    """Single family of the primed form: i1 <= i2, j1 <= j2, j1 > i2."""
    pairs, idx = _pair_index(n)
    out = []
    for (i1, j1) in pairs:
        for (i2, j2) in pairs:
            if i1 <= i2 and j1 <= j2 and j1 > i2:
                out.append((idx[(i1, j1)], idx[(i2, j2)], 1))
    return out


def _lambda_rows(n):
    """Charge row i collects every m_{s,l} with s <= i < l."""
    pairs, _ = _pair_index(n)
    return tuple(tuple(1 if (s <= i < l) else 0 for (s, l) in pairs)
                 for i in range(1, n))


def build_B_form(n) -> NahmSumSpec:
    if n < 2:
        raise ValueError("B form needs n >= 2")
    pairs, _ = _pair_index(n)
    quad, lin = _symmetric_from_products(len(pairs), b_form_products(n))
    return NahmSumSpec(
        labels=tuple(f"m[{i},{j}]" for (i, j) in pairs),
        quad=quad, linear=lin, charges=_lambda_rows(n),
        name=f"B-a{n}", notes=(TYPO_NOTE_THM1,))


def build_Bprime_form(n) -> NahmSumSpec:
    if n < 2:
        raise ValueError("B' form needs n >= 2")
    pairs, _ = _pair_index(n)
    quad, lin = _symmetric_from_products(len(pairs), bprime_form_products(n))
    return NahmSumSpec(
        labels=tuple(f"m[{i},{j}]" for (i, j) in pairs),
        quad=quad, linear=lin, charges=_lambda_rows(n),
        name=f"Bprime-a{n}", notes=(TYPO_NOTE_THM1,))


def cartan_matrix(kind, rank):
    """Integer Cartan matrix; kind 'A' is the path, kind 'D' (rank 4) the star
    with center node 2."""
    if kind == "A":
        size = rank
        edges = [(i, i + 1) for i in range(1, size)]
    elif kind == "D":
        if rank != 4:
            raise ValueError("only D4 is supported")
        size = 4
        edges = [(1, 2), (2, 3), (2, 4)]
    else:
        raise ValueError(f"unsupported Cartan type {kind!r}")
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        mat[i][i] = 2
    for a, b in edges:
        mat[a - 1][b - 1] = -1
        mat[b - 1][a - 1] = -1
    return mat


def build_cartan_side(kind, n) -> NahmSumSpec:
    """Character side: exponent (1/2) k^T A k over (q)_{k_1}...(q)_{k_r}.

    For kind 'A' the argument n is the rank of sl_n, so the sum has n-1
    variables; for kind 'D' it is the Cartan rank itself.
    """
    if kind == "A":
        if n < 2:
            raise ValueError("type A needs n >= 2")
        size = n - 1
        name = f"cartan-a{n}"
    elif kind == "D":
        size = n
        name = f"cartan-d{n}"
    else:
        raise ValueError(f"unsupported type {kind!r}")
    A = cartan_matrix(kind, n if kind == "D" else size)
    quad = tuple(tuple(Fraction(A[i][j], 2) for j in range(size)) for i in range(size))
    charges = tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))
    return NahmSumSpec(
        labels=tuple(f"k{i+1}" for i in range(size)),
        quad=quad, linear=(Fraction(0),) * size, charges=charges, name=name)


def build_b2_char_form() -> NahmSumSpec:
    """Three-variable character form r1^2+(r2+r3)^2+r3^2-r1*(r2+2 r3)."""
    prods = [(0, 0, 1), (1, 1, 1), (2, 2, 2), (1, 2, 2), (0, 1, -1), (0, 2, -2)]
    quad, lin = _symmetric_from_products(3, prods)
    return NahmSumSpec(
        labels=("r1", "r2", "r3"), quad=quad, linear=lin,
        charges=((1, 0, 0), (0, 1, 2)), name="b2-char")


def build_b2_quintuple_form() -> NahmSumSpec:
    """Five-variable form n1^2+n2^2+(n3+n5)^2+n4^2+n3^2+(2n3+n5)n1+n4(n1+n2)+n3n4."""
    prods = [
        (0, 0, 1), (1, 1, 1), (2, 2, 2), (3, 3, 1), (4, 4, 1),
        (2, 4, 2),            # (n3+n5)^2 cross part
        (0, 2, 2), (0, 4, 1),  # (2n3+n5)*n1
        (0, 3, 1), (1, 3, 1),  # n4*(n1+n2)
        (2, 3, 1),             # n3*n4
    ]
    quad, lin = _symmetric_from_products(5, prods)
    return NahmSumSpec(
        labels=("n1", "n2", "n3", "n4", "n5"), quad=quad, linear=lin,
        charges=((1, 1, 0, 1, 0), (2, 0, 2, 1, 1)), name="b2-quintuple")


_D4_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

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

_D4_LAMBDAS = {
    1: "m12 m13 m14 n14 n13 n12",
    2: "m23 m14 m13 m24 n24 n23 n13 2:n12 n14",
    3: "m34 m14 m24 n23 n13 n12",
    4: "n34 n14 n24 n23 n13 n12",
}

D4_WV_NOTE = ("relation list gives both the monomial W23*W23 and the chain "
              "W23*W23=W24*W24; the V-variant reading is available as an override")


def d4_labels():
    return tuple(f"m{i}{j}" for (i, j) in _D4_PAIRS) + tuple(f"n{i}{j}" for (i, j) in _D4_PAIRS)


def build_d4_form(primed=False) -> NahmSumSpec:
    labels = d4_labels()
    idx = {lab: k for k, lab in enumerate(labels)}
    prods = []
    for token in _D4_TERMS.split():
        coeff = 1
        if ":" in token:
            c, token = token.split(":")
            coeff = int(c)
        a, b = token.split("*")
        prods.append((idx[a], idx[b], coeff))
    if primed:
        # B - B' = n12*n23 + n12*m13
        prods.append((idx["n12"], idx["n23"], -1))
        prods.append((idx["n12"], idx["m13"], -1))
    quad, lin = _symmetric_from_products(12, prods)
    charges = []
    for i in (1, 2, 3, 4):
        row = [0] * 12
        for token in _D4_LAMBDAS[i].split():
            coeff = 1
            if ":" in token:
                c, token = token.split(":")
                coeff = int(c)
            row[idx[token]] = coeff
        charges.append(tuple(row))
    return NahmSumSpec(
        labels=labels, quad=quad, linear=lin, charges=tuple(charges),
        name="d4-prime" if primed else "d4")


# ---------------------------------------------------------------------------
# enumeration bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumerationBound:
    per_variable_max: tuple
    strategy: str                        # "all_nonneg" | "positive_definite"


def principal_minors(quad):
    """Leading principal minors, exact (fraction-free would also do; sizes are tiny)."""
    n = len(quad)
    minors = []
    for k in range(1, n + 1):
        minors.append(_det([row[:k] for row in quad[:k]]))
    return minors


def _det(mat):
    n = len(mat)
    m = [list(map(Fraction, row)) for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def is_positive_definite(quad) -> bool:
    return all(d > 0 for d in principal_minors(quad))


def _reverse_ldl(quad):
    """Exact reverse split x^T Q x = sum_k D_k (x_k + sum_{i<k} M_ki x_i)^2.

    Eliminates the last variable first and returns (D, M).  The pivots D_k
    are all positive exactly when quad is positive definite; the first one
    that is not raises CoercivityError.
    """
    l = len(quad)
    A = [list(row) for row in quad]
    D = [None] * l
    M = [[Fraction(0)] * l for _ in range(l)]
    for k in range(l - 1, -1, -1):
        D[k] = A[k][k]
        if D[k] <= 0:
            raise CoercivityError("matrix is not positive definite")
        for i in range(k):
            M[k][i] = A[k][i] / D[k]
        for i in range(k):
            for j in range(k):
                A[i][j] -= M[k][i] * A[k][j]
    return D, M


def _inverse_diagonal(D, M):
    """Diagonal of Q^-1 from the split of _reverse_ldl.

    Q = U^T diag(D) U with U unit lower triangular (U_ki = M_ki below the
    diagonal), so (Q^-1)_ii = sum_k (U^-1)_ik^2 / D_k.
    """
    l = len(D)
    V = [[Fraction(int(i == k)) for k in range(l)] for i in range(l)]
    for k in range(l):
        for i in range(k):
            V[k][i] = -sum(M[k][j] * V[j][i] for j in range(i, k))
    return [sum(V[i][k] ** 2 / D[k] for k in range(i + 1)) for i in range(l)]


def _max_v_strict(bound: Fraction) -> int:
    """Largest integer v with v^2 < bound (0 if none)."""
    if bound <= 0:
        return 0
    fl = bound.numerator // bound.denominator
    v = math.isqrt(fl)
    while Fraction(v * v) >= bound:
        v -= 1
    while Fraction((v + 1) * (v + 1)) < bound:
        v += 1
    return max(v, 0)


def compute_bound(spec: NahmSumSpec, order) -> EnumerationBound:
    """Certified per-variable enumeration box for exponents below `order`.

    For a positive-definite form the largest value of x_i on the ellipsoid
    x^T Q x < order is sqrt(order * (Q^-1)_ii), so the box is exact per
    variable; the positive pivots of the same elimination certify the form.
    """
    order_f = Fraction(twice_of(order), 2)
    l = spec.nvars
    diag = [spec.quad[i][i] for i in range(l)]
    nonneg = (all(spec.quad[i][j] >= 0 for i in range(l) for j in range(l))
              and all(d > 0 for d in diag)
              and all(x >= 0 for x in spec.linear))
    if nonneg:
        per_var = tuple(math.isqrt(max(int(order_f / diag[i]), 0)) for i in range(l))
        return EnumerationBound(per_var, "all_nonneg")
    if any(x != 0 for x in spec.linear):
        raise CoercivityError("positive-definite strategy requires a zero linear part")
    try:
        D, M = _reverse_ldl(spec.quad)
    except CoercivityError:
        raise CoercivityError(
            "quadratic form is neither all-nonnegative with positive diagonal "
            "nor positive definite; refusing to enumerate") from None
    per_var = tuple(_max_v_strict(order_f * w) for w in _inverse_diagonal(D, M))
    return EnumerationBound(per_var, "positive_definite")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _level_table(spec: NahmSumSpec, strategy):
    """Integer per-level bound table (G, levels, R, lin) of _sum_levels.

    With s_d the running sum at level d (fixing x_i = v adds v*R[i][d] to
    s_d for every d > i), fixing x_d = v adds

        a*v^2 + (beta*s_d + lin[d])*v + delta*s_d^2,   (a, beta, delta) = levels[d]

    to the bound of the prefix.  The bound is G times the exact minimum of
    the doubled exponent over the completions of the prefix, and G times
    the doubled exponent itself once every variable is fixed, so it never
    falls as variables are fixed.  An all-nonnegative form has G = 1, the
    doubled cross sums as running sums and its doubled linear part as lin:
    its nonnegative completions add nothing at x = 0, so the bound is the
    doubled exponent of the prefix.  A positive-definite form has a zero lin
    and the reverse LDL^T split x^T Q x = sum_k D_k (x_k + sum_{i<k}
    M_ki x_i)^2, whose later squares can all be made zero by real values
    (Fincke-Pohst); s_k = den * sum_{i<k} M_ki x_i with den the lcm of the
    denominators of M, and G clears the denominators of 2*D_k/den^2.
    """
    diag2, lin2, cross2 = spec._tables()
    if strategy == "all_nonneg":
        return 1, [(x, 1, 0) for x in diag2], cross2, lin2
    l = spec.nvars
    D, M = _reverse_ldl(spec.quad)
    den = math.lcm(*(x.denominator for row in M for x in row))
    scaled = [2 * Dk / den ** 2 for Dk in D]
    G = math.lcm(*(x.denominator for x in scaled))
    W = [int(G * x) for x in scaled]
    R = [[int(den * M[j][d]) for j in range(l)] for d in range(l)]
    return G, [(w * den * den, 2 * w * den, w) for w in W], R, [0] * l


def _sum_levels(spec: NahmSumSpec, order2, rank, node_budget, table):
    """Sum of a coercive form, one variable level at a time.

    With (G, levels, R, lin) = table (see _level_table), the sum over
    x_d..x_{l-1} depends on x_0..x_{d-1} only through the running sums s[d:]
    and the running charge u = sum_{i<d} x_i*charges[*][i], so level d maps
    each distinct state s[d:] + u to (offset, S): the sum, over the prefixes
    that reach it, of q^(prefix exponent) / prod (q)_{x_i}, as a dense
    series.  Prefixes reaching one state differ in bound by G times their
    exponent difference, a multiple of G*g with g the gcd of 2 and every
    doubled table entry of the form, so the offset is the lowest of their
    bounds and slot k of S stands for bound offset + k*G*g; integral forms
    carry no empty odd slots, and charges are not scaled.  The bound never
    falls, so slots at or past the cut G*order2 are dropped.  Fixing x_d = v
    sends S/(q)_v at the bound e(v) of _level_table to the state
    s[d+1:] + v*R[d][d+1:], u + v*charges[*][d].  e(v) grows from vr on:
    before vr a v at or past the cut is skipped and S keeps its slots for
    the later v; from vr on the first v at the cut ends the loop, and S is
    cut to the slots of v before its division.  All-nonnegative forms have
    vr <= 0.  The last level holds one state per charge u, whose offset is G
    times the exact doubled exponent.  Each state is popped as it is
    consumed and only two levels are alive at once.  node_budget caps the
    (state, v) steps.
    """
    l = spec.nvars
    G, levels, R, lin = table
    diag2, lin2, cross2 = spec._tables()
    g = math.gcd(2, *diag2, *lin2, *(x for row in cross2 for x in row))
    step = G * g
    cut = G * order2
    unit = 2 // g                       # q^1 in slots
    charges = spec.charges[:rank]
    geom_div = kernels.geom_div
    steps = 0
    seed = [0] * -(-order2 // g)
    seed[0] = 1
    level = {(0,) * (l + rank): (0, seed)}
    for d in range(l):
        a, beta, delta = levels[d]
        row = tuple(R[d][d + 1:]) + tuple(ch[d] for ch in charges)
        nxt = {}
        while level:
            state, (off, S) = level.popitem()
            sd = state[0]
            b = beta * sd + lin[d]
            base = off + delta * sd * sd
            vr = -((a + b) // (2 * a))
            child = state[1:]
            v = 0
            e = base
            while True:
                # S is the state's series over (q)_v, with at least the slots of e below the cut
                if e < cut:
                    steps += 1
                    if node_budget is not None and steps > node_budget:
                        raise BudgetExceeded("level-sum steps", node_budget)
                    old = nxt.get(child)
                    if old is None:
                        nxt[child] = (e, S[:(cut - e - 1) // step + 1])
                    elif old[0] <= e:
                        T = old[1]
                        p = (e - old[0]) // step
                        T[p:] = map(add, T[p:], S)
                    else:
                        p = (old[0] - e) // step
                        merged = S[:p]
                        merged += map(add, S[p:], old[1])
                        nxt[child] = (e, merged)
                v += 1
                e = base + a * v * v + b * v
                if v >= vr:
                    if e >= cut:
                        break
                    del S[(cut - e - 1) // step + 1:]
                geom_div(S, unit * v)
                child = tuple(map(add, child, row))
        level = nxt
    return QSeries._raw(order2, rank, {(off // G + k * g, u): c for u, (off, S) in level.items()
                                       for k, c in enumerate(S) if c})


def evaluate(spec: NahmSumSpec, order, charges=True, node_budget=None) -> QSeries:
    """Exact truncated evaluation of the lattice sum.

    compute_bound certifies coercivity and picks the strategy, whose
    _level_table drives the level sum of _sum_levels; node_budget caps its
    (state, v) steps.  The box of compute_bound is what evaluate_bruteforce
    iterates.  With charges=False (or no charge rows) the charge monomials
    are never formed.
    """
    strategy = compute_bound(spec, order).strategy
    order2 = twice_of(order)
    rank = spec.charge_rank if charges else 0
    if order2 <= 0:
        return QSeries._raw(max(order2, 0), rank, {})
    return _sum_levels(spec, order2, rank, node_budget, _level_table(spec, strategy))


def evaluate_bruteforce(spec: NahmSumSpec, order, box, charges=True) -> QSeries:
    """Unpruned oracle: iterate the whole box, multiply everything out naively.

    Independent of the level sum (no pruning, no shared states); used to
    cross-check evaluate() at small sizes.
    """
    import itertools

    order2 = twice_of(order)
    rank = spec.charge_rank if charges else 0
    int_len = (order2 + 1) // 2
    acc = {}
    for m in itertools.product(*(range(b + 1) for b in box)):
        e2 = spec.exponent2(m)
        if e2 >= order2:
            continue
        prod = [1]
        for mi in m:
            prod = kernels.conv_trunc(prod, inv_pochhammer_dense(mi, int_len), int_len)
        ch = spec.charge_of(m) if rank else ()
        for k, c in enumerate(prod):
            if c and e2 + 2 * k < order2:
                key = (e2 + 2 * k, ch)
                acc[key] = acc.get(key, 0) + c
    return QSeries._raw(order2, rank, {k: v for k, v in acc.items() if v})


def verify_identity(lhs: NahmSumSpec, rhs: NahmSumSpec, order, with_charges=True,
                    node_budget=None) -> CompareResult:
    """Evaluate both sides and compare coefficientwise."""
    if with_charges and lhs.charge_rank != rhs.charge_rank:
        raise ValueError("charge ranks differ; compare with with_charges=False instead")
    a = evaluate(lhs, order, charges=with_charges, node_budget=node_budget)
    b = evaluate(rhs, order, charges=with_charges, node_budget=node_budget)
    return series_eq(a, b)


# ---------------------------------------------------------------------------
# symbolic form differences (quadratic-form bookkeeping)
# ---------------------------------------------------------------------------

def _mvar(i, j):
    return f"m[{i},{j}]"


def form_poly(n, kind) -> SparsePoly:
    """B or B' of rank n as a polynomial in the m[i,j]."""
    pairs, _ = _pair_index(n)
    names = tuple(_mvar(i, j) for (i, j) in pairs)
    prods = b_form_products(n) if kind == "B" else bprime_form_products(n)
    terms = {}
    for a, b, coeff in prods:
        ea = [0] * len(pairs)
        ea[a] += 1
        ea[b] += 1
        key = tuple(ea)
        terms[key] = terms.get(key, 0) + coeff
    return SparsePoly(names, terms)


def lambda_poly(n, i, variables) -> SparsePoly:
    pairs, _ = _pair_index(n)
    out = SparsePoly.zero(variables)
    for (s, l) in pairs:
        if s <= i < l:
            out = out + SparsePoly.variable(variables, _mvar(s, l))
    return out


def cartan_half_poly(rank, variables) -> SparsePoly:
    """(1/2) k^T A k for type A path of given rank, over k1..krank."""
    out = SparsePoly.zero(variables)
    for i in range(1, rank + 1):
        out = out + SparsePoly.variable(variables, f"k{i}") ** 2
    for i in range(1, rank):
        out = out - (SparsePoly.variable(variables, f"k{i}")
                     * SparsePoly.variable(variables, f"k{i+1}"))
    return out


def form_difference_pure(n, kind) -> SparsePoly:
    """kind(m) - (1/2) lambda(m)^T A lambda(m), purely in the m variables.

    Built over the rank-(n+1) variable set so its monomials line up with the
    six-type bookkeeping of expand_form_difference(n, ...).
    """
    N = n + 1
    pairs, _ = _pair_index(N)
    names = tuple(_mvar(i, j) for (i, j) in pairs)
    diff = form_poly(N, kind)
    lambdas = [lambda_poly(N, i, names) for i in range(1, N)]
    for i in range(len(lambdas)):
        diff = diff - lambdas[i] * lambdas[i]
    for i in range(len(lambdas) - 1):
        diff = diff + lambdas[i] * lambdas[i + 1]
    return diff


def expand_form_difference(n, kind) -> SparsePoly:
    """kind(m) - (1/2) k^T A k in mixed coordinates.

    Variables are k1..kn together with the non-nearest m[i,j] (j >= i+2,
    j <= n+1); the nearest-neighbour m[i,i+1] are eliminated through
    lambda_i(m) = k_i.  This is the polynomial whose six coefficient families
    the table check reads off.
    """
    if n < 2:
        raise ValueError("expand_form_difference needs n >= 2")
    N = n + 1
    pairs, _ = _pair_index(N)
    all_names = tuple(_mvar(i, j) for (i, j) in pairs)
    mixed_names = tuple(f"k{i}" for i in range(1, N)) + tuple(
        _mvar(i, j) for (i, j) in pairs if j > i + 1)
    bindings = {}
    for i in range(1, N):
        expr = SparsePoly.variable(mixed_names, f"k{i}")
        for (s, l) in pairs:
            if (s, l) != (i, i + 1) and s <= i < l:
                expr = expr - SparsePoly.variable(mixed_names, _mvar(s, l))
        bindings[_mvar(i, i + 1)] = expr
    for (i, j) in pairs:
        if j > i + 1:
            bindings[_mvar(i, j)] = SparsePoly.variable(mixed_names, _mvar(i, j))
    mixed = form_poly(N, kind).substitute(bindings, require_full=True)
    return mixed - cartan_half_poly(n, mixed_names)


def six_type_table(n, kind="Bprime"):
    """Classify every mixed-coordinate monomial touching an m[i,n+1] variable.

    Returns a list of rows (type, description, coefficient, expected) covering
    all applicable index configurations; expected is None for kind='B' (the
    table is only pinned for the primed form).
    """
    N = n + 1
    poly = expand_form_difference(n, kind)
    names = poly.variables
    idx = {name: t for t, name in enumerate(names)}
    kvars = [f"k{i}" for i in range(1, N)]
    end_vars = [_mvar(c, N) for c in range(1, N - 1)]  # variables ending at n+1

    def expect(kind_row, params):
        if kind != "Bprime":
            return None
        if kind_row in ("I", "IV"):
            return Fraction(0)
        if kind_row == "II":
            b, c = params
            return Fraction(2 * (b - 1 - c) + 1)
        if kind_row == "III":
            a, b = params
            return Fraction(2 * (b - 1 - a))
        if kind_row == "V":
            i, c = params
            return Fraction(-1) if (i == c or i == n) else Fraction(-2)
        if kind_row == "VI":
            (c,) = params
            return Fraction(n - c)
        raise AssertionError(kind_row)

    rows = []
    mvars = [name for name in names if name.startswith("m[")]

    def parse(name):
        i, j = name[2:-1].split(",")
        return int(i), int(j)

    for u in mvars:
        a, b = parse(u)
        for w in end_vars:
            c, _ = parse(w)
            if u == w:
                coeff = poly.coeff({u: 2})
                rows.append(("VI", f"{u}^2", coeff, expect("VI", (c,))))
                continue
            coeff = poly.coeff({u: 1, w: 1})
            if b == N and u != w:
                # both factors end at n+1: reads as Type III with i1 < i2
                lo, hi = min(a, c), max(a, c)
                if a > c:
                    rows.append(("III", f"{u}*{w}", coeff, expect("III", (hi, N))))
                continue
            if b <= c:
                # gap (I) or the degenerate touching boundary, both vanish;
                # the overlap formula of row II does not extend to touching
                label = "I" if b < c else "I*"
                rows.append((label, f"{u}*{w}", coeff, expect("I", ())))
            elif a < c < b:
                rows.append(("II", f"{u}*{w}", coeff, expect("II", (b, c))))
            elif c <= a:
                rows.append(("III", f"{u}*{w}", coeff, expect("III", (a, b))))
    for kv in kvars:
        i = int(kv[1:])
        for w in end_vars:
            c, _ = parse(w)
            coeff = poly.coeff({kv: 1, w: 1})
            if c >= i + 1:
                rows.append(("IV", f"{kv}*{w}", coeff, expect("IV", ())))
            else:
                rows.append(("V", f"{kv}*{w}", coeff, expect("V", (i, c))))
    return rows


def cross_k_coefficients(n, kind="Bprime"):
    """Coefficients of k_i*k_j (j > i+1) in the mixed polynomial; all must vanish."""
    poly = expand_form_difference(n, kind)
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            out[(i, j)] = poly.coeff({f"k{i}": 1, f"k{j}": 1})
    return out
