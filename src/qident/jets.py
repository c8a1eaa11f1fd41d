"""Infinite jet algebras of presented graded rings, by weight truncation.

Generators get depth-indexed variables (g, d) of weight d >= 1 (depth d
standing for the mode x_{g,(-d)}); a presented relation f contributes
T^s f for every s, where T is the derivation T(x_{g,(-d)}) = -d x_{g,(-d-1)}.
The Hilbert series of the quotient is computed weight by weight, on
monomials packed into one int each (`_Packing`), exponents below and charge
above, so a monomial's charge block is a shift of its key.  Each relation is
packed once and T acts on the keys.  A single-term T^s f only removes the
monomials it divides, so those are never enumerated (the survivors are
walked one level per weight, grouped by last slot) and build no rows; the
multi-term ones give the integer rows of a sparse rank on the monomials that
are left, by fraction-free elimination (exact over Q), one charge block at a
time.  A preset may declare signed generator permutations that map its ideal
onto itself (the sl_n diagram flip, d4 triality); they are checked when the
preset is built, and each orbit of blocks is found once and ranked once.
This is the leading-term view of arc-space ideals
(Bruschek-Mourtada-Schepers, "Arc spaces and Rogers-Ramanujan identities").
"""

from __future__ import annotations

import re
from math import prod

from .linalg import rank_of_rows
from .nahm import D4_ROOTS, BudgetExceeded, _bprime_coeff, a_pairs, a_root
from .poly import add_terms
from .record import Record
from .series import QSeries, CompareResult, series_eq


class WeightedRing(Record):
    # charges: None, or a tuple of integer tuples, one per generator
    __slots__ = ("generators", "charges")

    def __init__(self, generators, charges=None):
        if len(set(generators)) != len(generators):
            raise ValueError(f"duplicate generator (generators: {' '.join(generators)})")
        if charges is not None:
            if len(charges) != len(generators):
                raise ValueError("need one charge vector per generator")
            if len({len(c) for c in charges}) > 1:
                raise ValueError("charge vectors must share a rank")
        self._set(generators, charges)

    @property
    def charge_rank(self):
        return len(self.charges[0]) if self.charges else 0

    def signed_map(self, images):
        """A symmetry from the images of the generators, in generator order:
        whitespace-separated names, each optionally negated (`-V24`)."""
        return tuple((-1, self.gen_index(nm[1:])) if nm.startswith("-")
                     else (1, self.gen_index(nm)) for nm in images.split())

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


class JetPreset(Record):
    """A presented ring with its relations.  `symmetries` are signed
    generator permutations (`WeightedRing.signed_map`) that map the ideal
    onto itself; each is checked at construction (`_charge_permutation`,
    `_check_span`) and `hilbert_series` ranks one block per orbit of the
    group they generate."""
    __slots__ = ("ring", "relations", "name", "notes", "symmetries")

    def __init__(self, ring, relations, name="", notes=(), symmetries=()):
        for f in relations:
            w = f.weight()
            if w is None or w < 2:
                raise ValueError("relations must be homogeneous of weight >= 2")
            if ring.charges is not None:
                f.charge(ring)  # raises when not charge-homogeneous
        for sym in symmetries:
            _charge_permutation(ring, sym)
            _check_span(relations, sym)
        self._set(ring, relations, name, notes, symmetries)


def _charge_permutation(ring, sym):
    """The permutation p of the charge coordinates that `sym` induces:
    charge(image of g)[p[i]] == charge(g)[i] for every generator g.
    ValueError when `sym` is not a signed bijection of the generators or
    induces no such permutation."""
    n = len(ring.generators)
    if (len(sym) != n or sorted(g for _s, g in sym) != list(range(n))
            or any(s not in (1, -1) for s, _g in sym)):
        raise ValueError("symmetry is not a signed bijection of the generators")
    if ring.charges is None:
        return ()
    coords = list(zip(*ring.charges))
    images = list(zip(*(ring.charges[g] for _s, g in sym)))
    perm = []
    for coord in coords:
        j = next((j for j, im in enumerate(images) if im == coord and j not in perm), None)
        if j is None:
            raise ValueError("symmetry does not permute the charge coordinates")
        perm.append(j)
    return tuple(perm)


def _check_span(relations, sym):
    """ValueError unless `sym` maps the span of the relations of each weight
    into itself.  It commutes with T, so it then maps the ideal onto itself."""
    by_weight = {}
    for f in relations:
        by_weight.setdefault(f.weight(), []).append(f.terms)
    for polys in by_weight.values():
        col = {}

        def row(terms):
            return {col.setdefault(m, len(col)): c for m, c in terms.items()}

        images = [{tuple(sorted((sym[g][1], d) for g, d in m)):
                   c * prod(sym[g][0] for g, _d in m) for m, c in p.items()}
                  for p in polys]
        rows = [row(p) for p in polys]
        if rank_of_rows(rows + [row(p) for p in images]) > rank_of_rows(rows):
            raise ValueError("symmetry does not map the span of the relations "
                             "into itself")


def generate_ideal(preset: JetPreset, pk):
    """All T^s f with weight(f)+s <= pk.weight, each as (its weight,
    [(key, coeff), ...] on the keys of `pk`).  T moves one variable from slot
    s (depth d, exponent e) to slot s + ngens: by Leibniz the key gains
    `unit[s+ngens] - unit[s]` and the coefficient a factor -d*e.  Each term
    carries its set of slots, so every relation is packed once."""
    n, mask = pk.ngens, (1 << pk.width) - 1
    step = [pk.unit[s + n] - pk.unit[s] for s in range(len(pk.unit) - n)]
    out = []
    for f in preset.relations:
        u = f.weight()
        terms = [(pk.pack(m), c, {pk.slot(v) for v in m})
                 for m, c in f.terms.items()] if u <= pk.weight else ()
        while terms:
            out.append((u, [(key, c) for key, c, _slots in terms]))
            u += 1
            images = {}
            for key, c, slots in terms if u <= pk.weight else ():
                for s in slots:
                    e = key >> pk.width * s & mask
                    moved = (slots - {s} if e == 1 else slots) | {s + n}
                    image = images.setdefault(key + step[s], [0, moved])
                    image[0] -= (s // n + 1) * e * c
            terms = [(key, c, slots) for key, (c, slots) in images.items() if c]
    return out


class _Packing:
    """Monomials of weight <= `weight` in `ngens` generators as one int each.

    The low `shift` bits are an exponent vector with a field of
    `weight.bit_length() + 1` bits for each variable (g, d), at slot
    (d-1)*ngens + g.  No exponent exceeds the weight, so the top bit of every
    field, its guard bit, stays clear; the key of a product is the sum of the
    keys, and s divides m exactly when no field of `(m | guards) - s` borrows
    from its guard bit.  Above them sit one field per charge coordinate:
    variable (g, d) adds `charges[g][i] + bias*d`, where `bias` is minus the
    most negative charge entry (0 when there is none), so every sum is >= 0
    and at a fixed weight w the field is the charge plus bias*w.  A monomial's block
    (its charge) is `key >> shift`.  A divisor's charge fields never exceed
    the multiple's, and borrows only move upward, so the guard test reads
    the exponent fields alone."""

    def __init__(self, ngens, weight, charges=None):
        self.ngens, self.weight, self.width = ngens, weight, weight.bit_length() + 1
        self.shift = self.width * ngens * weight
        self.guards = sum(1 << self.width * slot for slot in range(ngens * weight)) \
            << self.width - 1
        charges = charges or ((),) * ngens
        entries = [c for ch in charges for c in ch]
        self.rank = len(charges[0]) if charges else 0
        self.bias = max([0] + [-c for c in entries])
        self.cwidth = ((max([0] + entries) + self.bias) * weight).bit_length()
        self.unit = [(1 << self.width * slot) + sum(
            (c + self.bias * (slot // ngens + 1)) << self.shift + self.cwidth * i
            for i, c in enumerate(charges[slot % ngens]))
            for slot in range(ngens * weight)]

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

    def charge(self, block, w):
        """The charge tuple of a block at weight w."""
        mask = (1 << self.cwidth) - 1
        return tuple((block >> self.cwidth * i & mask) - self.bias * w
                     for i in range(self.rank))

    def orbit(self, block, perms):
        """`block` and the blocks that the charge-coordinate permutations
        `perms` send it to; p sends coordinate i to coordinate p[i]."""
        if not perms:
            return {block}
        mask = (1 << self.cwidth) - 1
        fields = [block >> self.cwidth * i & mask for i in range(self.rank)]
        return {block} | {sum(f << self.cwidth * j for f, j in zip(fields, p))
                          for p in perms}


def surviving_monomials(ngens, weight, singles=(), charges=None):
    """levels[w] for w <= weight: the keys (`_Packing(ngens, weight,
    charges)`) of the monomials of weight w that no key in `singles` divides.

    A monomial survives only if its prefix (all but its variable v of largest
    slot) does, so each level extends the surviving prefixes, grouped by
    their last slot, by one variable in a slot >= it.  A divisor of
    `prefix + v` that does not divide the prefix ends in v and divides the
    prefix with v removed, so singles are indexed by their last slot (the top
    set bit of their exponent fields) and stored as packed rests."""
    pk = _Packing(ngens, weight, charges)
    low, guards = (1 << pk.shift) - 1, pk.guards
    by_last = {}
    for s in set(singles):
        last = ((s & low).bit_length() - 1) // pk.width
        by_last.setdefault(last, []).append(s - pk.unit[last])
    grouped = [{0: [0]}]
    for w in range(1, weight + 1):
        level = {}
        for d in range(1, w + 1):
            top = d * ngens
            for last, keys in grouped[w - d].items():
                for slot in range(max(last, top - ngens), top):
                    unit, rests = pk.unit[slot], by_last.get(slot)
                    out = level.setdefault(slot, [])
                    if not rests:
                        out.extend([key + unit for key in keys])
                        continue
                    for key in keys:
                        key_g = key | guards
                        for r in rests:
                            if (key_g - r) & guards == guards:
                                break       # r divides key: no borrow
                        else:
                            out.append(key + unit)
        grouped.append(level)
    return [[key for keys in level.values() for key in keys] for level in grouped]


def monomials_of_weight(ngens, w):
    """Sorted monomials (multisets of (g, d)) of total weight w."""
    pk = _Packing(ngens, w)
    return sorted(map(pk.unpack, surviving_monomials(ngens, w)[w]))


def _charge_moves(preset):
    """The charge-coordinate permutations, other than the identity, of the
    group the preset's symmetries generate."""
    gens = [_charge_permutation(preset.ring, s) for s in preset.symmetries]
    identity = tuple(range(preset.ring.charge_rank))
    group = {identity}
    todo = [identity]
    while todo:
        p = todo.pop()
        for s in gens:
            q = tuple(s[i] for i in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group - {identity}


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
    multipliers.

    Monomials are `_Packing` keys, which carry the charge above the
    exponents: a monomial's block is `key >> shift`, and the row `mult * h`
    lands in block `(mult >> shift) + (key of a term of h >> shift)`, known
    before the row is built.  The preset's symmetries commute with T and map
    the ideal onto itself, so they map each block of the quotient onto a
    block of the same dimension: each orbit is found once, from its least
    block with columns, and only its least block is ranked (if it has
    columns), its dimension copied to the rest of the orbit (without
    symmetries every block is its own orbit).  The `(mult, h)` pairs are
    grouped by block, and each block's rows are built, ranked and dropped in
    turn.  The budget caps the cells (rows x columns) of each reduced block
    that is ranked, before its rank is taken.
    """
    ring = preset.ring
    ngens = len(ring.generators)
    rank_out = ring.charge_rank if multigraded else 0
    if multigraded and ring.charges is None:
        raise ValueError("preset has no charge data for a multigraded series")
    pk = _Packing(ngens, weight, ring.charges)
    moves = _charge_moves(preset)
    singles = []
    multis = {}   # weight -> block of h -> the packed multi-term h there
    for u, poly in generate_ideal(preset, pk):
        if len(poly) == 1:
            singles.append(poly[0][0])
        else:
            multis.setdefault(u, {}).setdefault(poly[0][0] >> pk.shift, []).append(poly)
    survivors = surviving_monomials(ngens, weight, singles, ring.charges)
    terms = {(0, (0,) * rank_out): 1}
    for w in range(1, weight + 1):
        cols = {}
        for key in survivors[w]:
            cols.setdefault(key >> pk.shift, []).append(key)
        orbits, seen = {}, set()
        for block in sorted(cols):
            if block not in seen:
                orbit = pk.orbit(block, moves)
                seen |= orbit
                if block == min(orbit):
                    orbits[block] = orbit
        pairs = {block: [] for block in orbits}
        for u, by_block in multis.items():
            if u > w:
                continue
            for mult in survivors[w - u]:
                base = mult >> pk.shift
                for hb, polys in by_block.items():
                    dest = pairs.get(base + hb)
                    if dest is not None:
                        dest.append((mult, polys))
        for block, orbit in orbits.items():
            col = {key: i for i, key in enumerate(cols.pop(block))}
            rows = []
            for mult, polys in pairs.pop(block):
                for poly in polys:
                    row = {}
                    for m, c in poly:
                        i = col.get(m + mult)
                        if i is not None:
                            row[i] = c
                    if row:
                        rows.append(row)
            if budget is not None and len(rows) * len(col) > budget:
                raise BudgetExceeded(f"matrix cells at weight {w}", budget)
            dim = len(col) - rank_of_rows(rows)
            if dim:
                for image in orbit:
                    key = (2 * w, pk.charge(image, w) if rank_out else ())
                    terms[key] = terms.get(key, 0) + dim
    return QSeries._raw(2 * (weight + 1), rank_out, terms)   # every dim added is > 0


# ---------------------------------------------------------------------------
# relation parsing (also the user preset-file format)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*(?:\[\d+(?:,\d+)*\])?")


def parse_relation_line(ring: WeightedRing, line):
    """One relation per line; chains a = b = c expand to a-b and b-c.

    Terms look like `2*E[1,2]*E[2,3]` or `-W13*V24`; monomial factors are
    generator names, coefficients are integers.  An empty side of a chain
    is refused, not skipped.
    """
    sides = [s.strip() for s in line.split("=")]
    if not all(sides):
        raise ValueError(f"relation {line!r} has an empty side")
    polys = [_parse_side(ring, s) for s in sides]
    out = [a - b for a, b in zip(polys, polys[1:])] or polys
    if any(p.is_zero() for p in out):
        raise ValueError(f"relation {line!r} is zero")
    return out


def _parse_side(ring, text):
    """Terms joined by `+` and `-`.  The first term may carry a sign, and a
    term right after an operator a `-` (`a*b + -b*b`); an operator with no
    term after it is refused.  A factor is an optional `-` and an integer or
    a generator name, so a `-` right after `*` is a sign (`a*-2`)."""
    # an operator is a + or - whose last non-space character before it is not *
    pieces = [p.strip() for p in re.split(r"(?<![*\s])(\s*[+-])", text)]
    # the side's shape, T for each term, must be [sign] T (op [-] T)*
    if not re.fullmatch(r"[+-]?T([+-]-?T)*", "".join(p if p in "+-" else "T" for p in pieces if p)):
        raise ValueError(f"relation {text!r} has an operator with no term after it")
    gen_parts, coeff = [], 1
    for part in filter(None, pieces):
        if part in "+-":
            coeff = -coeff if part == "-" else coeff
            continue
        names = []
        for factor in part.split("*"):
            factor = factor.strip()
            sign, body = (-1, factor[1:].lstrip()) if factor.startswith("-") else (1, factor)
            if not body:
                raise ValueError(f"term {part!r} has an empty factor")
            coeff *= sign
            if re.fullmatch(r"\d+", body):
                coeff *= int(body)
            elif _TOKEN.fullmatch(body):
                names.append(body)
            else:
                raise ValueError(f"bad factor {factor!r} in relation {text!r}")
        if not names:
            raise ValueError(f"term {part!r} has no generator factors")
        gen_parts.append((coeff, names))
        coeff = 1
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
    (the single family of the primed lattice form).  The diagram flip
    E[i,j] -> E[n+1-j, n+1-i] is declared as a symmetry."""
    if n < 2:
        raise ValueError("sl_n jet presets need n >= 2")
    pairs = a_pairs(n)
    ring = WeightedRing(tuple(_e_name(*p) for p in pairs),
                        tuple(a_root(*p, n) for p in pairs))
    rels = tuple(JetPoly.from_gen_lists(ring, term(*p, *r))
                 for p in pairs for r in pairs if _bprime_coeff(*p, *r))
    flip = ring.signed_map(" ".join(_e_name(n + 1 - j, n + 1 - i) for i, j in pairs))
    return JetPreset(ring, rels, name=f"sln-{letter}{n}", symmetries=(flip,))


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

# Triality on the repaired reading, as images of W12 W13 W14 W23 W24 W34 V12
# V13 V14 V23 V24 V34: the swaps a3 <-> a4 (e4 -> -e4) and a1 <-> a3, which
# generate S3.  The second needs its signs; neither maps the printed
# readings' relation span into itself.
_D4_TRIALITY = ("W12 W13 V14 W23 V24 V34 V12 V13 W14 V23 W24 W34",
                "W12 W13 W23 W14 W24 W34 V34 -V24 V14 V23 -V13 V12")


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
    far as it has been computed.  It alone declares triality
    (`_D4_TRIALITY`) as its symmetries.
    """
    if reading not in D4_READINGS:
        raise ValueError(f"unknown d4 reading {reading!r}")
    ring = WeightedRing(tuple(D4_ROOTS), tuple(D4_ROOTS.values()))
    symmetries = ()
    if reading == "repaired":
        text = _D4_RELATIONS.format(WV_CHAIN="W23*V23 = W24*V24") + _D4_OMITTED
        symmetries = tuple(map(ring.signed_map, _D4_TRIALITY))
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
                     name="d4-d" + suffix, notes=(note,), symmetries=symmetries)


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
