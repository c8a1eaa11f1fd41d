"""Infinite jet algebras of presented graded rings, by weight truncation.

Generators get depth-indexed variables (g, d) of weight d >= 1 (depth d
standing for the mode x_{g,(-d)}); a presented relation f contributes
T^s f for every s, where T is the derivation T(x_{g,(-d)}) = -d x_{g,(-d-1)}.
The Hilbert series of the quotient is computed weight by weight, on
monomials packed into one int each (`_Packing`).  A single-term T^s f only
removes the monomials it divides, so those are never enumerated and build no
rows; the multi-term ones give the integer rows of a sparse rank on the
monomials that are left, by fraction-free elimination (exact over Q), with
the multigrading by charge splitting each weight block into many small ones.
This is the leading-term view of arc-space ideals (Bruschek-Mourtada-Schepers,
"Arc spaces and Rogers-Ramanujan identities").
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .linalg import rank_of_rows
from .nahm import D4_ROOTS, BudgetExceeded, _bprime_coeff, a_pairs, a_root
from .poly import add_terms
from .series import QSeries, CompareResult, series_eq


@dataclass(frozen=True)
class WeightedRing:
    generators: tuple
    charges: tuple = None     # optional tuple of integer tuples, one per generator

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError(f"duplicate generator (generators: {' '.join(self.generators)})")
        if self.charges is not None:
            if len(self.charges) != len(self.generators):
                raise ValueError("need one charge vector per generator")
            if len({len(c) for c in self.charges}) > 1:
                raise ValueError("charge vectors must share a rank")

    @property
    def charge_rank(self):
        return len(self.charges[0]) if self.charges else 0

    def gen_index(self, name):
        try:
            return self.generators.index(name)
        except ValueError:
            raise ValueError(f"unknown generator {name!r} (generators: "
                             f"{' '.join(self.generators)})") from None


def mono_weight(mono):
    return sum(d for (_g, d) in mono)


class JetPoly:
    """Polynomial in the depth variables; terms map sorted ((g,d),...) tuples
    with repetition to int coefficients.  A coefficient that is not an
    integer is a ValueError."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = terms or {}
        for c in terms.values():
            if int(c) != c:
                raise ValueError(f"jet coefficient {c} is not an integer")
        self.terms = add_terms({}, ((tuple(sorted(m)), int(c)) for m, c in terms.items()))

    @classmethod
    def _raw(cls, terms):
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def from_gen_lists(cls, ring, parts):
        """parts: iterable of (coeff, [generator names]); depth-1 variables."""
        terms = {}
        for coeff, names in parts:
            mono = tuple(sorted((ring.gen_index(nm), 1) for nm in names))
            terms[mono] = terms.get(mono, 0) + coeff
        return cls(terms)

    def __add__(self, other):
        return JetPoly._raw(add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return JetPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return not self.terms

    def weight(self):
        """Weight of a homogeneous polynomial (None for 0)."""
        return _homogeneous({mono_weight(m) for m in self.terms}, "weight")

    def charge(self, ring):
        return _homogeneous({_mono_charge(ring, m) for m in self.terms}, "charge")


def _homogeneous(values, grading):
    """The one grade of a polynomial's terms (None for 0)."""
    if len(values) > 1:
        raise ValueError(f"polynomial is not {grading}-homogeneous")
    return values.pop() if values else None


def _mono_charge(ring, mono):
    return tuple(sum(ring.charges[g][i] for g, _d in mono)
                 for i in range(ring.charge_rank))


def apply_T(p: JetPoly) -> JetPoly:
    """Derivation with T(x_{g,(-d)}) = -d x_{g,(-d-1)}, extended by Leibniz;
    raises weight by exactly 1."""
    images = []
    for mono, c in p.terms.items():
        for pos, v in enumerate(mono):
            if pos and mono[pos - 1] == v:
                continue        # mono is sorted: a repeated variable is counted once
            new = mono[:pos] + ((v[0], v[1] + 1),) + mono[pos + 1:]
            images.append((tuple(sorted(new)), c * -v[1] * mono.count(v)))
    return JetPoly._raw(add_terms({}, images))


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
        for _s in range(max_weight - f.weight() + 1):
            out.append(f)
            f = apply_T(f)
    return out


class _Packing:
    """Monomials of weight <= `weight` in `ngens` generators as one int each:
    an exponent vector with a field of `weight.bit_length() + 1` bits for
    each variable (g, d), at slot (d-1)*ngens + g.  No exponent exceeds the
    weight, so the top bit of every field, its guard bit, stays clear; the
    key of a product is the sum of the keys, and s divides m exactly when
    no field of `(m | guards) - s` borrows from its guard bit."""

    def __init__(self, ngens, weight):
        self.ngens, self.width = ngens, weight.bit_length() + 1
        self.unit = [1 << self.width * slot for slot in range(ngens * weight)]
        self.guards = sum(self.unit) << self.width - 1

    def slot(self, v):
        return (v[1] - 1) * self.ngens + v[0]

    def pack(self, mono):
        return sum(self.unit[self.slot(v)] for v in mono)

    def unpack(self, key):
        """The sorted ((g, d), ...) tuple of a key."""
        mask = (1 << self.width) - 1
        return tuple(sorted((slot % self.ngens, slot // self.ngens + 1)
                            for slot in range(len(self.unit))
                            for _ in range(key >> self.width * slot & mask)))

    def divides(self, s, m):
        return ((m | self.guards) - s) & self.guards == self.guards


def surviving_monomials(ngens, weight, singles=()):
    """levels[w] for w <= weight: the (packed key, last slot) pairs of the
    monomials of weight w that no monomial in `singles` divides.

    A monomial survives only if its prefix (all but its variable v of largest
    slot) does, so each level extends the surviving prefixes by one variable
    in a slot >= the prefix's last.  A divisor of `prefix + v` that does not
    divide the prefix ends in v and divides the prefix with v removed, so
    singles are indexed by their last slot and stored as packed rests."""
    pk = _Packing(ngens, weight)
    by_last = {}
    for s in set(singles):
        if mono_weight(s) <= weight:    # a heavier single divides nothing here
            last = max(map(pk.slot, s))
            by_last.setdefault(last, []).append(pk.pack(s) - pk.unit[last])
    levels = [[(0, 0)]]
    for w in range(1, weight + 1):
        level = []
        for d in range(1, w + 1):
            top = d * ngens
            for key, last in levels[w - d]:
                for slot in range(max(last, top - ngens), top):
                    rests = by_last.get(slot)
                    if not rests or not any(pk.divides(r, key) for r in rests):
                        level.append((key + pk.unit[slot], slot))
        levels.append(level)
    return levels


def monomials_of_weight(ngens, w):
    """Sorted monomials (multisets of (g, d)) of total weight w."""
    pk = _Packing(ngens, w)
    return sorted(pk.unpack(key) for key, _ in surviving_monomials(ngens, w)[w])


def hilbert_series(preset: JetPreset, weight, multigraded=False,
                   budget=None) -> QSeries:
    """Graded dimensions of the jet quotient through the given weight.

    dim at weight w (and charge, when graded) is #monomials minus the rank of
    the span of monomial multiples of the T-derivatives of the relations.
    The multiples of a single-term derivative m span exactly the coordinates
    of the monomials m divides, so those monomials are "killed": they are
    never enumerated (`surviving_monomials`), they are not columns and m
    builds no rows.  dim is then #surviving monomials minus the rank of the
    multi-term multiples restricted to the survivors, by fraction-free
    integer elimination (exact over Q) block by block.  A killed multiplier
    kills every term of its row, so only surviving monomials are
    multipliers.  Monomials are `_Packing` keys, so the column of a term m of
    `mult * h` is looked up at `m + mult`.  The budget caps the cells
    (rows x columns) of each of these reduced blocks before its rank is taken.
    """
    ring = preset.ring
    ngens = len(ring.generators)
    graded = ring.charges is not None
    rank_out = ring.charge_rank if (multigraded and graded) else 0
    if multigraded and not graded:
        raise ValueError("preset has no charge data for a multigraded series")
    pk = _Packing(ngens, weight)
    singles = []
    multis_by_weight = {}
    for h in generate_ideal(preset, weight):
        if len(h.terms) == 1:
            singles.extend(h.terms)
        else:
            multis_by_weight.setdefault(h.weight(), []).append(
                [(pk.pack(m), c) for m, c in h.terms.items()])
    survivors = surviving_monomials(ngens, weight, singles)
    # charge of every surviving monomial, built from its prefix, which
    # survives too (a relation dividing the prefix divides the monomial)
    charge = {0: (0,) * ring.charge_rank}
    terms = {(0, (0,) * rank_out): 1}
    for w in range(1, weight + 1):
        blocks = {}   # charge -> its column count
        col_pos = {}
        for key, last in survivors[w]:
            ch = ()
            if graded:
                ch = charge[key] = tuple(map(sum, zip(charge[key - pk.unit[last]],
                                                      ring.charges[last % ngens])))
            n = blocks.get(ch, 0)
            col_pos[key] = (ch, n)
            blocks[ch] = n + 1
        rows_by_block = {}
        for u, polys in multis_by_weight.items():
            if u > w:
                continue
            for mult, _last in survivors[w - u]:
                for poly in polys:
                    row = {}
                    for m, c in poly:
                        pos = col_pos.get(m + mult)
                        if pos is not None:
                            ch, i = pos
                            row[i] = c
                    if row:
                        rows_by_block.setdefault(ch, []).append(row)
        for ch, ncols in sorted(blocks.items()):
            rows = rows_by_block.get(ch, [])
            if budget is not None and len(rows) * ncols > budget:
                raise BudgetExceeded(f"matrix cells at weight {w}", budget)
            dim = ncols - rank_of_rows(rows)
            if dim:
                key = (2 * w, ch if rank_out else ())
                terms[key] = terms.get(key, 0) + dim
    return QSeries._raw(2 * (weight + 1), rank_out, terms)   # every dim added is > 0


# ---------------------------------------------------------------------------
# relation parsing (also the user preset-file format)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*(?:\[\d+(?:,\d+)*\])?")


def parse_relation_line(ring: WeightedRing, line):
    """One relation per line; chains a = b = c expand to a-b and b-c.

    Terms look like `2*E[1,2]*E[2,3]` or `-W13*V24`; monomial factors are
    generator names, coefficients are integers.
    """
    polys = [_parse_side(ring, s) for s in map(str.strip, line.split("=")) if s]
    out = [a - b for a, b in zip(polys, polys[1:])] or polys
    if any(p.is_zero() for p in out):
        raise ValueError(f"relation {line!r} is zero")
    return out


def _parse_side(ring, text):
    text = text.replace("-", "+-")
    parts = [p.strip() for p in text.split("+") if p.strip()]
    gen_parts = []
    for part in parts:
        coeff = -1 if part.startswith("-") else 1
        part = part.removeprefix("-").strip()
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
        if line:
            rels.extend(parse_relation_line(ring, line))
    return tuple(rels)


def load_preset_file(path) -> JetPreset:
    """Plain-text preset: one relation per line, with optional header lines
    `generators: a b c` and `charges: (1,0) (0,1) ...`.

    Without a generators header the ring is inferred from the relation
    tokens, sorted by name (charges then stay unavailable)."""
    gens = charges = None
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
        gens = tuple(sorted({tok for line in rel_lines for tok in _TOKEN.findall(line)}))
        if not gens:
            raise ValueError("preset file has no relations to infer generators from")
    ring = WeightedRing(gens, charges)
    return JetPreset(ring, parse_relations(ring, rel_lines), name=str(path))


# ---------------------------------------------------------------------------
# the shipped presentations
# ---------------------------------------------------------------------------

def _e_name(i, j):
    return f"E[{i},{j}]"


def _sln_preset(n, letter, term):
    """sl_n preset over the E[i,j], charged by their roots: one relation
    term(i1, j1, i2, j2) -> [(coeff, [names])] per pair of overlapping roots
    (the single family of the primed lattice form)."""
    if n < 2:
        raise ValueError("sl_n jet presets need n >= 2")
    pairs = a_pairs(n)
    ring = WeightedRing(tuple(_e_name(*p) for p in pairs),
                        tuple(a_root(*p, n) for p in pairs))
    rels = tuple(JetPoly.from_gen_lists(ring, term(*p, *r))
                 for p in pairs for r in pairs if _bprime_coeff(*p, *r))
    return JetPreset(ring, rels, name=f"sln-{letter}{n}")


def sln_A(n) -> JetPreset:
    """Symmetrized quadratic presentation E_{i1,j1}E_{i2,j2}+E_{i1,j2}E_{i2,j1}."""
    return _sln_preset(n, "a", lambda i1, j1, i2, j2: [
        (1, [_e_name(i1, j1), _e_name(i2, j2)]), (1, [_e_name(i1, j2), _e_name(i2, j1)])])


def sln_B(n) -> JetPreset:
    """Monomial presentation: overlapping-family monomials with the nested
    monomial taken at the j1 = i2+1 boundary."""
    def term(i1, j1, i2, j2):
        if j1 == i2 + 1 and i1 < i2 and j1 < j2:
            return [(1, [_e_name(i1, j2), _e_name(i2, j1)])]
        return [(1, [_e_name(i1, j1), _e_name(i2, j2)])]
    return _sln_preset(n, "b", term)


def sln_H(n) -> JetPreset:
    """Monomial presentation keeping every overlapping monomial as written."""
    return _sln_preset(n, "h", lambda i1, j1, i2, j2: [
        (1, [_e_name(i1, j1), _e_name(i2, j2)])])


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


def _b2_preset(text, name):
    ring = WeightedRing(_B2_GENS, _B2_CHARGES)
    return JetPreset(ring, parse_relations(ring, text.splitlines()), name=name)


def b2_A() -> JetPreset:
    return _b2_preset(_B2_A_RELATIONS, "b2-a")


def b2_B() -> JetPreset:
    return _b2_preset(_B2_B_RELATIONS, "b2-b")


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
    ring = WeightedRing(tuple(D4_ROOTS), tuple(D4_ROOTS.values()))
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
