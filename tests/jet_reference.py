"""Reference jet Hilbert series for the builder tests.

The T-derivatives are taken on sorted ((g, d), ...) tuples (`apply_T`).
Every monomial multiple of every T-derivative becomes a row, single-term ones
included, and each charge block is ranked whole: the definition of the
series, without the killed columns `hilbert_series` drops.  Monomials come
from a set-based enumeration and charges are summed directly, so this shares
no code with `qident.jets` beyond `JetPoly` and the rank."""

from qident.jets import JetPoly
from qident.linalg import rank_of_rows
from qident.poly import add_terms


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


def reference_ideal(preset, max_weight):
    """All T^s f with weight(f)+s <= max_weight, as JetPolys."""
    out = []
    for f in preset.relations:
        for _s in range(max_weight - f.weight() + 1):
            out.append(f)
            f = apply_T(f)
    return out


def monomial_levels(ngens, weight):
    """levels[w] = sorted multisets of variables (g, d), d >= 1, of total
    weight w: every monomial of lower weight times one more variable,
    deduplicated through a set."""
    levels = [[()]]
    for w in range(1, weight + 1):
        levels.append(sorted({tuple(sorted(m + ((g, d),)))
                              for d in range(1, w + 1) for g in range(ngens)
                              for m in levels[w - d]}))
    return levels


def _charge(ring, mono):
    if ring.charges is None:
        return ()
    return tuple(sum(ring.charges[g][i] for g, _d in mono)
                 for i in range(ring.charge_rank))


def reference_blocks(preset, weight):
    """(w, charge, columns, rows) for every block with columns, w >= 1."""
    ring = preset.ring
    ngens = len(ring.generators)
    ideal = reference_ideal(preset, weight)
    levels = monomial_levels(ngens, weight)
    for w in range(1, weight + 1):
        blocks = {}
        for mono in levels[w]:
            blocks.setdefault(_charge(ring, mono), []).append(mono)
        rows = {}
        for h in ideal:
            u = h.weight()
            if u > w:
                continue
            for mult in levels[w - u]:
                row = {tuple(sorted(m + mult)): c for m, c in h.terms.items()}
                rows.setdefault(_charge(ring, next(iter(row))), []).append(row)
        for ch, cols in sorted(blocks.items()):
            index = {m: i for i, m in enumerate(cols)}
            yield w, ch, cols, [{index[m]: c for m, c in row.items()}
                                for row in rows.get(ch, ())]


def reference_terms(preset, weight, multigraded=False):
    """The `terms` dict of the QSeries `hilbert_series` returns."""
    rank_out = preset.ring.charge_rank if multigraded else 0
    terms = {(0, (0,) * rank_out): 1}
    for w, ch, cols, rows in reference_blocks(preset, weight):
        dim = len(cols) - rank_of_rows(rows)
        if dim:
            key = (2 * w, ch if rank_out else ())
            terms[key] = terms.get(key, 0) + dim
    return terms
