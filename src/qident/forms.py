"""Form tooling outside the level sum: the JSON form of a lattice form, and
the symbolic form differences of forms expand-diff.

A form's JSON carries its exact quad and linear views as strings, so
`from_json(to_json(spec)) == spec`; reading it back goes through the exact
entry of NahmSumSpec and its refusals.  Each form difference is itself a
NahmSumSpec: one pair of int tables whose matrix is a congruence
M^T (4 quad) M (_congruent), and a monomial's coefficient is read straight
off them (_monomial_coeff).  The CLI imports this module only in the
commands that read or write form JSON or tabulate a form difference.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .nahm import NahmSumSpec, _mvar, build_B_form, build_Bprime_form, build_cartan_side


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def to_json_dict(spec: NahmSumSpec):
    return {
        "name": spec.name,
        "labels": list(spec.labels),
        "quadratic": [[str(x) for x in row] for row in spec.quad],
        "linear": [str(x) for x in spec.linear],
        "charges": [list(row) for row in spec.charges],
        "notes": list(spec.notes),
    }


def to_json(spec: NahmSumSpec) -> str:
    return json.dumps(to_json_dict(spec), indent=2, sort_keys=True)


def from_json_dict(data) -> NahmSumSpec:
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

    def number(x):
        if isinstance(x, bool):
            raise TypeError(x)
        return Fraction(x)

    def exact(kind):                    # an int is not a bool, float or string
        def check(x):
            if type(x) is not kind:
                raise TypeError(x)
            return x
        return check

    name = data.get("name", "")
    if type(name) is not str:
        raise ValueError("form spec 'name' must be a string")
    return NahmSumSpec(
        labels=field("labels", exact(str)),
        quad=field("quadratic", number, matrix=True),
        linear=field("linear", number),
        charges=field("charges", exact(int), matrix=True),
        name=name,
        notes=field("notes", exact(str)),
    )


def from_json(text: str) -> NahmSumSpec:
    return from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# symbolic form differences (quadratic-form bookkeeping)
# ---------------------------------------------------------------------------

_A_FORMS = {"B": build_B_form, "Bprime": build_Bprime_form}


def _congruent(quad, M):
    """M^T quad M, the matrix of x^T quad x under the change x = M y (M has
    one row per x and one column per y): two products that skip zeros."""
    cols = list(zip(*M))
    QM = [[sum(q * x for q, x in zip(row, col) if q) for col in cols] for row in quad]
    return [[sum(x * y for x, y in zip(a, b) if x) for b in zip(*QM)] for a in cols]


def expand_form_difference(n, kind) -> NahmSumSpec:
    """kind(m) - (1/2) k^T A k in mixed coordinates.

    Variables are k1..kn together with the non-nearest m[i,j] (j >= i+2,
    j <= n+1); the nearest-neighbour m[i,i+1] are eliminated through
    lambda_i(m) = k_i.  This is the table whose six coefficient families
    the table check reads off.  The change of variables m = M y is linear, so
    the form becomes M^T quad M, and (1/2) k^T A k sits on the k block.
    """
    if n < 2:
        raise ValueError("expand_form_difference needs n >= 2")
    spec = _A_FORMS[kind](n + 1)
    cartan = build_cartan_side(f"a{n + 1}")
    nearest = tuple(_mvar(i, i + 1) for i in range(1, n + 1))
    far = tuple(lab for lab in spec.labels if lab not in nearest)
    mixed_names = cartan.labels + far
    far_at = [spec.labels.index(lab) for lab in far]
    M = [[int(y == lab) for y in mixed_names] for lab in spec.labels]   # far: itself
    for i, (near, row) in enumerate(zip(nearest, spec.charges)):
        # lambda_i(m) = k_i, solved for its nearest m[i,i+1]
        M[spec.labels.index(near)] = [int(j == i) for j in range(n)] + [-row[a] for a in far_at]
    four = _congruent(spec.four, M)
    for i, row in enumerate(cartan.four):
        for j, a in enumerate(row):
            four[i][j] -= a
    return NahmSumSpec._of_ints(mixed_names, four,
                                [sum(x * y for x, y in zip(spec.lin2, col)) for col in zip(*M)])


def _monomial_coeff(form, u, w):
    """Coefficient of u*w in the form's quadratic part, a Fraction:
    quad[u][u] for a square, 2*quad[u][w] for two distinct labels."""
    a, b = form.labels.index(u), form.labels.index(w)
    return Fraction(form.four[a][b] * (1 + (a != b)), 4)


def six_type_table(form, n, kind):
    """Classify every monomial of form = expand_form_difference(n, kind)
    that touches an m[i,n+1] variable.

    Returns a list of rows (type, description, coefficient, expected) covering
    all applicable index configurations; expected is None for kind='B' (the
    table is only pinned for the primed form).
    """
    N = n + 1
    names = form.labels
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
                coeff = _monomial_coeff(form, u, u)
                rows.append(("VI", f"{u}^2", coeff, expect("VI", (c,))))
                continue
            coeff = _monomial_coeff(form, u, w)
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
            coeff = _monomial_coeff(form, kv, w)
            if c >= i + 1:
                rows.append(("IV", f"{kv}*{w}", coeff, expect("IV", ())))
            else:
                rows.append(("V", f"{kv}*{w}", coeff, expect("V", (i, c))))
    return rows


def cross_k_coefficients(form, n):
    """Coefficients of k_i*k_j (j > i+1) in form = expand_form_difference(n,
    kind); all must vanish."""
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            out[(i, j)] = _monomial_coeff(form, f"k{i}", f"k{j}")
    return out
