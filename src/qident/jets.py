"""Infinite jet algebras of presented graded rings, by weight truncation.

Generators get depth-indexed variables (g, d) of weight d >= 1 (depth d
standing for the mode x_{g,(-d)}); a presented relation f contributes
T^s f for every s, where T is the derivation T(x_{g,(-d)}) = -d x_{g,(-d-1)}.
The Hilbert series of the quotient is computed weight by weight.  A
single-term T^s f only removes the monomials it divides, so those are
dropped by a divisibility pass and build no rows; the multi-term ones give
the rows of an exact sparse rank over Q on the monomials that are left, with
the multigrading by charge splitting each weight block into many small ones.
This is the leading-term view of arc-space ideals (Bruschek-Mourtada-Schepers,
"Arc spaces and Rogers-Ramanujan identities").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .linalg import rank_of_rows
from .nahm import BudgetExceeded
from .series import QSeries, CompareResult, series_eq


@dataclass(frozen=True)
class WeightedRing:
    generators: tuple
    charges: tuple = None     # optional tuple of integer tuples, one per generator

    def __post_init__(self):
        if self.charges is not None:
            if len(self.charges) != len(self.generators):
                raise ValueError("need one charge vector per generator")
            ranks = {len(c) for c in self.charges}
            if len(ranks) > 1:
                raise ValueError("charge vectors must share a rank")

    @property
    def charge_rank(self):
        return len(self.charges[0]) if self.charges else 0

    def gen_index(self, name):
        return self.generators.index(name)


def mono_weight(mono):
    return sum(d for (_g, d) in mono)


class JetPoly:
    """Polynomial in the depth variables; terms map sorted ((g,d),...) tuples
    with repetition to Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                mono = tuple(sorted(mono))
                self.terms[mono] = self.terms.get(mono, Fraction(0)) + c
            self.terms = {m: c for m, c in self.terms.items() if c}

    @classmethod
    def from_gen_lists(cls, ring, parts):
        """parts: iterable of (coeff, [generator names]); depth-1 variables."""
        terms = {}
        for coeff, names in parts:
            mono = tuple(sorted((ring.gen_index(nm), 1) for nm in names))
            terms[mono] = terms.get(mono, 0) + coeff
        return cls(terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, Fraction(0)) + c
            if s:
                terms[m] = s
            elif m in terms:
                del terms[m]
        out = JetPoly.__new__(JetPoly)
        out.terms = terms
        return out

    def __neg__(self):
        out = JetPoly.__new__(JetPoly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return not self.terms

    def weight(self):
        """Weight of a homogeneous polynomial (None for 0)."""
        ws = {mono_weight(m) for m in self.terms}
        if not ws:
            return None
        if len(ws) != 1:
            raise ValueError("polynomial is not weight-homogeneous")
        return ws.pop()

    def charge(self, ring):
        chs = {_mono_charge(ring, m) for m in self.terms}
        if not chs:
            return None
        if len(chs) != 1:
            raise ValueError("polynomial is not charge-homogeneous")
        return chs.pop()

    def render(self, ring=None):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            facs = []
            for (g, d) in mono:
                nm = ring.generators[g] if ring else f"g{g}"
                facs.append(f"{nm}({-d})")
            body = "*".join(facs)
            if abs(c) != 1:
                body = f"{c if c > 0 else -c}*{body}"
            parts.append(("+ " if c > 0 else "- ") + body if parts else
                         (body if c > 0 else f"-{body}"))
        return " ".join(parts)


def _mono_charge(ring, mono):
    rank = ring.charge_rank
    out = [0] * rank
    for (g, d) in mono:
        for i, x in enumerate(ring.charges[g]):
            out[i] += x
    return tuple(out)


def apply_T(p: JetPoly) -> JetPoly:
    """Derivation with T(x_{g,(-d)}) = -d x_{g,(-d-1)}, extended by Leibniz;
    raises weight by exactly 1."""
    terms = {}
    for mono, c in p.terms.items():
        seen = set()
        for pos, (g, d) in enumerate(mono):
            if (g, d) in seen:
                continue
            seen.add((g, d))
            mult = sum(1 for v in mono if v == (g, d))
            new = list(mono)
            new[pos] = (g, d + 1)
            key = tuple(sorted(new))
            coeff = c * (-d) * mult
            s = terms.get(key, Fraction(0)) + coeff
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
    out = JetPoly.__new__(JetPoly)
    out.terms = terms
    return out


@dataclass(frozen=True)
class JetPreset:
    ring: WeightedRing
    relations: tuple
    name: str = ""
    notes: tuple = ()

    def __post_init__(self):
        for f in self.relations:
            w = f.weight()
            if w is None or w < 2:
                raise ValueError("relations must be homogeneous of weight >= 2")
            if self.ring.charges is not None:
                f.charge(self.ring)  # raises when not charge-homogeneous


def generate_ideal(preset: JetPreset, max_weight):
    """All T^s f with weight(f)+s <= max_weight, each homogeneous."""
    out = []
    for f in preset.relations:
        w = f.weight()
        cur = f
        s = 0
        while w + s <= max_weight:
            out.append(cur)
            cur = apply_T(cur)
            s += 1
    return out


def monomials_of_weight(ngens, w, cache=None):
    """Sorted monomials (multisets of (g, d)) of total weight w.

    With a cache dict, each (ngens, w) is enumerated once per cache; callers
    own the cache and must not mutate the lists it hands back."""
    key = (ngens, w)
    if cache is not None and key in cache:
        return cache[key]
    out = []

    def rec(remaining, g0, d0, acc):
        # variables are appended in non-decreasing order, starting at
        # (g0, d0), so the monomials come out sorted
        if remaining == 0:
            out.append(tuple(acc))
            return
        for g in range(g0, ngens):
            for d in range(d0 if g == g0 else 1, remaining + 1):
                acc.append((g, d))
                rec(remaining - d, g, d, acc)
                acc.pop()

    rec(w, 0, 1, [])
    if cache is not None:
        cache[key] = out
    return out


def hilbert_series(preset: JetPreset, weight, multigraded=False,
                   budget=None) -> QSeries:
    """Graded dimensions of the jet quotient through the given weight.

    dim at weight w (and charge, when graded) is #monomials minus the rank of
    the span of monomial multiples of the T-derivatives of the relations.
    The multiples of a single-term derivative m span exactly the coordinates
    of the monomials m divides, so those monomials are "killed": they are
    not columns and m builds no rows.  dim is then #surviving monomials
    minus the rank of the multi-term multiples restricted to the survivors,
    by exact elimination over Q block by block.  A killed multiplier kills
    every term of its row, so only surviving monomials are multipliers.  The
    budget caps the cells (rows x columns) of each of these reduced blocks
    before its rank is taken.
    """
    ring = preset.ring
    ngens = len(ring.generators)
    graded = ring.charges is not None
    rank_out = ring.charge_rank if (multigraded and graded) else 0
    if multigraded and not graded:
        raise ValueError("preset has no charge data for a multigraded series")
    singles_by_weight = {}
    multis_by_weight = {}
    for h in generate_ideal(preset, weight):
        if len(h.terms) == 1:
            (mono,) = h.terms
            singles_by_weight.setdefault(mono_weight(mono), []).append(mono)
        else:
            multis_by_weight.setdefault(h.weight(), []).append(h.terms)
    monomials = {}
    survivors = [[()]]      # surviving monomials, by weight
    # charge of every surviving monomial, built from its prefix, which
    # survives too (a relation dividing the prefix divides the monomial)
    charge = {(): (0,) * ring.charge_rank}
    terms = {(0, (0,) * rank_out): 1}
    for w in range(1, weight + 1):
        killed = {tuple(sorted(m + mult))
                  for u, singles in singles_by_weight.items() if u <= w
                  for mult in monomials_of_weight(ngens, w - u, monomials)
                  for m in singles}
        cols = [m for m in monomials_of_weight(ngens, w, monomials)
                if m not in killed]
        survivors.append(cols)
        blocks = {}
        col_pos = {}
        for mono in cols:
            if graded:
                ch = tuple(a + b for a, b in
                           zip(charge[mono[:-1]], ring.charges[mono[-1][0]]))
                charge[mono] = ch
            else:
                ch = ()
            block = blocks.setdefault(ch, [])
            col_pos[mono] = (ch, len(block))
            block.append(mono)
        rows_by_block = {}
        for u, polys in multis_by_weight.items():
            if u > w:
                continue
            for mult in survivors[w - u]:
                for poly in polys:
                    row = {}
                    for m, c in poly.items():
                        pos = col_pos.get(tuple(sorted(m + mult)))
                        if pos is not None:
                            ch, i = pos
                            row[i] = c
                    if row:
                        rows_by_block.setdefault(ch, []).append(row)
        for ch, block_cols in sorted(blocks.items()):
            rows = rows_by_block.get(ch, [])
            if budget is not None and len(rows) * len(block_cols) > budget:
                raise BudgetExceeded(f"matrix cells at weight {w}", budget)
            dim = len(block_cols) - rank_of_rows(rows)
            if dim:
                key = (2 * w, ch if rank_out else ())
                terms[key] = terms.get(key, 0) + dim
    return QSeries._raw(2 * (weight + 1), rank_out,
                        {k: v for k, v in terms.items() if v})


# ---------------------------------------------------------------------------
# relation parsing (also the user preset-file format)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*(?:\[\d+(?:,\d+)*\])?")


def parse_relation_line(ring: WeightedRing, line):
    """One relation per line; chains a = b = c expand to a-b and b-c.

    Terms look like `2*E[1,2]*E[2,3]` or `-W13*V24`; monomial factors are
    generator names, coefficients are integers.
    """
    sides = [s.strip() for s in line.split("=")]
    polys = [_parse_side(ring, s) for s in sides if s]
    out = []
    for a, b in zip(polys, polys[1:]):
        out.append(a - b)
    if len(polys) == 1:
        out.append(polys[0])
    return out


def _parse_side(ring, text):
    text = text.replace("-", "+-")
    parts = [p.strip() for p in text.split("+") if p.strip()]
    gen_parts = []
    for part in parts:
        sign = 1
        if part.startswith("-"):
            sign = -1
            part = part[1:].strip()
        coeff = sign
        names = []
        for factor in part.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if re.fullmatch(r"\d+", factor):
                coeff *= int(factor)
            elif _TOKEN.fullmatch(factor):
                names.append(factor)
            else:
                raise ValueError(f"bad factor {factor!r} in relation {text!r}")
        if not names:
            raise ValueError(f"term {part!r} has no generator factors")
        gen_parts.append((coeff, names))
    return JetPoly.from_gen_lists(ring, gen_parts)


def parse_relations(ring, lines):
    rels = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        rels.extend(parse_relation_line(ring, line))
    return tuple(rels)


def load_preset_file(path) -> JetPreset:
    """Plain-text preset: one relation per line, with optional header lines
    `generators: a b c` and `charges: (1,0) (0,1) ...`.

    Without a generators header the ring is inferred from the relation
    tokens, sorted by name (charges then stay unavailable)."""
    gens = None
    charges = None
    rel_lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("generators:"):
                gens = tuple(line.split(":", 1)[1].split())
            elif line.startswith("charges:"):
                vecs = re.findall(r"\(([-\d,\s]+)\)", line.split(":", 1)[1])
                charges = tuple(tuple(int(x) for x in v.split(",")) for v in vecs)
            else:
                rel_lines.append(line)
    if gens is None:
        seen = set()
        for line in rel_lines:
            for tok in _TOKEN.findall(line):
                seen.add(tok)
        gens = tuple(sorted(seen))
        if not gens:
            raise ValueError("preset file has no relations to infer generators from")
    ring = WeightedRing(gens, charges)
    return JetPreset(ring, parse_relations(ring, rel_lines), name=str(path))


# ---------------------------------------------------------------------------
# the shipped presentations
# ---------------------------------------------------------------------------

def _e_name(i, j):
    return f"E[{i},{j}]"


def _sln_ring(n):
    gens = []
    charges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(_e_name(i, j))
            charges.append(tuple(1 if i <= v < j else 0 for v in range(1, n)))
    return WeightedRing(tuple(gens), tuple(charges))


def _sln_quads(n):
    """Index quadruples (i1,j1,i2,j2): i1<=i2, j1<=j2, j1>i2, all pairs valid."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for (i1, j1) in pairs:
        for (i2, j2) in pairs:
            if i1 <= i2 and j1 <= j2 and j1 > i2:
                out.append((i1, j1, i2, j2))
    return out


def sln_A(n) -> JetPreset:
    """Symmetrized quadratic presentation E_{i1,j1}E_{i2,j2}+E_{i1,j2}E_{i2,j1}."""
    ring = _sln_ring(n)
    rels = []
    for (i1, j1, i2, j2) in _sln_quads(n):
        rels.append(JetPoly.from_gen_lists(ring, [
            (1, [_e_name(i1, j1), _e_name(i2, j2)]),
            (1, [_e_name(i1, j2), _e_name(i2, j1)]),
        ]))
    return JetPreset(ring, tuple(rels), name=f"sln-a{n}")


def sln_B(n) -> JetPreset:
    """Monomial presentation: overlapping-family monomials with the nested
    monomial taken at the j1 = i2+1 boundary."""
    ring = _sln_ring(n)
    rels = []
    for (i1, j1, i2, j2) in _sln_quads(n):
        if j1 == i2 + 1 and i1 < i2 and j1 < j2:
            rels.append(JetPoly.from_gen_lists(
                ring, [(1, [_e_name(i1, j2), _e_name(i2, j1)])]))
        else:
            rels.append(JetPoly.from_gen_lists(
                ring, [(1, [_e_name(i1, j1), _e_name(i2, j2)])]))
    return JetPreset(ring, tuple(rels), name=f"sln-b{n}")


def sln_H(n) -> JetPreset:
    """Monomial presentation keeping every overlapping monomial as written."""
    ring = _sln_ring(n)
    rels = []
    for (i1, j1, i2, j2) in _sln_quads(n):
        rels.append(JetPoly.from_gen_lists(
            ring, [(1, [_e_name(i1, j1), _e_name(i2, j2)])]))
    return JetPreset(ring, tuple(rels), name=f"sln-h{n}")


# W12 = x_{e1+e2}, V12 = x_{e1-e2}, X2 = x_{e2}, X1 = x_{e1};
# charges in the simple roots a1 = e1-e2 (long), a2 = e2 (short)
_B2_GENS = ("W12", "V12", "X2", "X1")
_B2_CHARGES = ((1, 2), (1, 0), (0, 1), (1, 1))

_B2_A_RELATIONS = """
W12*W12
V12*V12
X1*X1 - W12*V12
X2*W12
X1*V12
X1*W12
X2*X2*X2
X2*X2*X1
"""

_B2_B_RELATIONS = _B2_A_RELATIONS.replace("X1*X1 - W12*V12", "X1*X1")


def b2_A() -> JetPreset:
    ring = WeightedRing(_B2_GENS, _B2_CHARGES)
    return JetPreset(ring, parse_relations(ring, _B2_A_RELATIONS.splitlines()),
                     name="b2-a")


def b2_B() -> JetPreset:
    ring = WeightedRing(_B2_GENS, _B2_CHARGES)
    return JetPreset(ring, parse_relations(ring, _B2_B_RELATIONS.splitlines()),
                     name="b2-b")


# D4: W_ij = x_{eps_i+eps_j}, V_ij = x_{eps_i-eps_j}; charges in the simple
# roots a1=e1-e2, a2=e2-e3, a3=e3-e4, a4=e3+e4
_D4_GENS = ("W12", "W13", "W14", "W23", "W24", "W34",
            "V12", "V13", "V14", "V23", "V24", "V34")
_D4_CHARGES = (
    (1, 2, 1, 1),  # W12 = e1+e2
    (1, 1, 1, 1),  # W13
    (1, 1, 0, 1),  # W14
    (0, 1, 1, 1),  # W23
    (0, 1, 0, 1),  # W24
    (0, 0, 0, 1),  # W34
    (1, 0, 0, 0),  # V12 = e1-e2
    (1, 1, 0, 0),  # V13
    (1, 1, 1, 0),  # V14
    (0, 1, 0, 0),  # V23
    (0, 1, 1, 0),  # V24
    (0, 0, 1, 0),  # V34
)

_D4_RELATIONS = """
W12*W23
W12*W24
W13*W34
W23*W34
W12*W12
W12*W13
W12*W14
W23*W23
W23*W24
W24*W24
W34*W34
W13*W23
W14*W24
W14*W34
W24*W34
-W13*W24 = W23*W14 = W12*W34
W12*V23
W12*V24
W13*V34
W23*V34
W12*V13
W13*V12
W12*V14
W14*V12
W23*V24
W24*V23
W13*V14
W14*V13
W12*V12 = W13*V13 = W14*V14
{WV_CHAIN}
-W13*V24 = W23*V14 = W12*V34
-W14*V23 = W24*V13
V12*V12
V12*V13
V12*V14
V23*V23
V23*V24
V24*V24
V34*V34
V13*V23
V14*V24
V14*V34
V24*V34
-V13*V24 = V23*V14
W13*V23 + W23*V13 = W24*V14 + W14*V24
"""


_D4_OMITTED = "W13*W13\nW14*W14\nW13*W14\nV13*V13\nV14*V14\nV13*V14"

D4_READINGS = ("printed", "printed-v", "repaired")


def d4_D(reading="printed") -> JetPreset:
    """The so(8) presentation, in one of three readings of the source list.

    'printed': the relation list as printed.  Its chain W23^2 = W24^2 is a
    difference of two listed monomial generators, so it is dropped without
    changing the ideal (it is also inhomogeneous for the root grading, which
    is how the redundancy surfaces).
    'printed-v': same with the chain read as V23^2 = V24^2 (equally
    redundant, since both V squares are listed too).
    'repaired': restores the six quadratics the printed list skips
    (W13^2, W14^2, W13*W14 and the V mirrors; every analogous pair with
    pairing >= 1 is killed elsewhere in the list) and reads the chain as the
    unique charge-homogeneous candidate W23*V23 = W24*V24.  This is the only
    reading whose weight-2 dimension (36) matches the character side, and its
    jet Hilbert series then agrees with the twelve-variable form exactly as
    far as it has been computed.
    """
    if reading not in D4_READINGS:
        raise ValueError(f"unknown d4 reading {reading!r}")
    ring = WeightedRing(_D4_GENS, _D4_CHARGES)
    if reading == "repaired":
        text = _D4_RELATIONS.format(WV_CHAIN="W23*V23 = W24*V24") + _D4_OMITTED
        note = ("six omitted quadratics restored; chain read as W23*V23 = W24*V24 "
                "(the charge-homogeneous completion)")
    else:
        chain = "V23*V23 = V24*V24" if reading == "printed-v" else "W23*W23 = W24*W24"
        # the chain is a difference of listed monomial generators: dropped,
        # ideal unchanged
        text = _D4_RELATIONS.format(WV_CHAIN="")
        note = (f"inhomogeneous chain {chain} dropped as redundant "
                "(both squares are listed monomial generators)")
    suffix = {"printed": "", "printed-v": "-valt", "repaired": "-fix"}[reading]
    return JetPreset(ring, parse_relations(ring, text.splitlines()),
                     name="d4-d" + suffix, notes=(note,))


def power_preset(p) -> JetPreset:
    """One generator with the single relation x^p."""
    ring = WeightedRing(("x",), ((1,),))
    rel = JetPoly({(((0, 1),) * p): 1})
    return JetPreset(ring, (rel,), name=f"x^{p}")


def verify_classically_free(n, weight, budget=None) -> CompareResult:
    """Jet Hilbert series of the symmetrized presentation against the lattice
    form evaluation, through the given weight (inclusive).  The budget caps
    both the matrix cells of each rank block and the level-sum steps."""
    from . import nahm

    hs = hilbert_series(sln_A(n), weight, budget=budget)
    ev = nahm.evaluate(nahm.build_B_form(n), weight + 1, charges=False,
                       node_budget=budget)
    return series_eq(hs, ev)
