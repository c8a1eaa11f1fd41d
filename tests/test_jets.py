import json
import random
from itertools import combinations_with_replacement
from math import prod
from pathlib import Path

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from dense_rank import dense_rank, integer_rows
from jet_reference import apply_T, reference_blocks, reference_ideal, reference_terms
from qident import jets, nahm, presets
from qident.jets import JetPoly, JetPreset, WeightedRing
from qident.linalg import rank_of_rows
from qident.nahm import BudgetExceeded
from qident.series import series_eq, series_leq
from series_reference import charges_dropped


def x(g, d):
    return (g, d)


class TestDerivation:
    def test_depth_one_rule(self):
        p = JetPoly({(x(0, 1),): 1})
        assert apply_T(p).terms == {(x(0, 2),): Fraction(-1)}
        assert all(type(c) is int for c in apply_T(p).terms.values())

    def test_leibniz_on_square(self):
        p = JetPoly({(x(0, 1), x(0, 1)): 1})
        assert apply_T(p).terms == {(x(0, 1), x(0, 2)): Fraction(-2)}

    def test_non_integer_coefficient_is_refused(self):
        with pytest.raises(ValueError, match="not an integer"):
            JetPoly({(x(0, 1),): Fraction(1, 2)})
        assert JetPoly({(x(0, 1),): Fraction(4, 2)}).terms == {(x(0, 1),): 2}

    def test_constants_die(self):
        assert apply_T(JetPoly({(): 3})).is_zero()

    def test_weight_raises_by_one(self):
        rng = random.Random(0)
        for _ in range(30):
            mono = tuple(sorted((rng.randint(0, 2), rng.randint(1, 3))
                                for _ in range(rng.randint(1, 4))))
            p = JetPoly({mono: rng.randint(1, 5)})
            q = apply_T(p)
            if not q.is_zero():
                assert q.weight() == p.weight() + 1

    def test_depth_coefficient(self):
        # T(x_(-2)) = -2 x_(-3)
        p = JetPoly({(x(0, 2),): 1})
        assert apply_T(p).terms == {(x(0, 3),): Fraction(-2)}


def _packed_ideal(pre, weight):
    """`generate_ideal` on the preset's own packing, each entry unpacked to
    (its weight, its JetPoly)."""
    pk = jets._Packing(len(pre.ring.generators), weight, pre.ring.charges)
    return [(u, JetPoly({pk.unpack(key): c for key, c in poly}))
            for u, poly in jets.generate_ideal(pre, pk)]


class TestIdeal:
    def test_x2_ideal_weights(self):
        gens = _packed_ideal(jets.power_preset(2), 4)
        assert [u for u, _g in gens] == [2, 3, 4]

    def test_all_outputs_homogeneous(self):
        for u, g in _packed_ideal(jets.sln_A(3), 6):
            assert g.weight() == u  # raises if inhomogeneous

    def test_cubic_relations_shift_range(self):
        gens = _packed_ideal(jets.power_preset(3), 5)
        assert [u for u, _g in gens] == [3, 4, 5]

    @pytest.mark.parametrize("name,reading", [
        ("sln-a3", "printed"), ("sln-b3", "printed"), ("sln-h3", "printed"),
        ("sln-a4", "printed"), ("sln-b4", "printed"), ("sln-h4", "printed"),
        ("b2-a", "printed"), ("b2-b", "printed"), ("d4-d", "printed"),
        ("d4-d", "printed-v"), ("d4-d", "repaired"), ("power-2", "printed"),
        ("power-3", "printed"), ("power-4", "printed"),
    ])
    def test_packed_closure_matches_reference(self, name, reading):
        """T on packed keys, unpacked, is the tuple T-closure term by term,
        in the same count and order."""
        pre = presets.jet_preset(name, reading)
        got = _packed_ideal(pre, 7)
        want = reference_ideal(pre, 7)
        assert len(got) == len(want)
        for (u, g), f in zip(got, want):
            assert (u, g.terms) == (f.weight(), f.terms)

    def test_hilbert_series_calls_generate_ideal_once(self, monkeypatch):
        # perfbench wraps jets.generate_ideal and counts the entries it
        # returns (its span and jets.ideal_gens): one call per series, one
        # entry per T^s f
        real, calls = jets.generate_ideal, []

        def counted(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(jets, "generate_ideal", counted)
        jets.hilbert_series(jets.d4_D("repaired"), 5)
        assert [len(ideal) for ideal in calls] == [216]


class TestPresets:
    def test_sl3_counts(self):
        pre = jets.sln_A(3)
        assert len(pre.ring.generators) == 3
        # five independent quadratics; the resulting weight-2 dimension (4)
        # is what the lattice side forces
        assert len(pre.relations) == 5
        hs = jets.hilbert_series(pre, 2)
        assert hs.coeff(2) == 4

    def test_sl4_relation_count_matches_listing(self):
        assert len(jets.sln_A(4).relations) == 15
        assert len(jets.sln_B(4).relations) == 15
        assert len(jets.sln_H(4).relations) == 15

    def test_sln_B_contains_nested_monomial(self):
        pre = jets.sln_B(4)
        ring = pre.ring
        nested = tuple(sorted([(ring.gen_index("E[1,4]"), 1),
                               (ring.gen_index("E[2,3]"), 1)]))
        assert any(set(rel.terms) == {nested} for rel in pre.relations)

    def test_b2_has_cubics(self):
        weights = sorted(rel.weight() for rel in jets.b2_A().relations)
        assert weights == [2, 2, 2, 2, 2, 2, 3, 3]

    def test_d4_reading_counts(self):
        assert len(jets.d4_D("printed").relations) == 47
        assert len(jets.d4_D("printed-v").relations) == 47
        assert len(jets.d4_D("repaired").relations) == 54
        assert len(jets.d4_D().ring.generators) == 12
        with pytest.raises(ValueError):
            jets.d4_D("bogus")

    def test_charge_homogeneity_enforced(self):
        ring = WeightedRing(("a", "b"), ((1, 0), (0, 1)))
        bad = JetPoly({(x(0, 1), x(0, 1)): 1, (x(1, 1), x(1, 1)): 1})
        with pytest.raises(ValueError):
            JetPreset(ring, (bad,))

    @pytest.mark.parametrize("generators,charges,message", [
        (("a", "b", "a"), None, r"duplicate generator \(generators: a b a\)"),
        (("a", "b"), ((1,),), "need one charge vector per generator"),
        (("a", "b"), ((1,), (1, 0)), "charge vectors must share a rank"),
    ], ids=["duplicate", "charge_count", "charge_rank"])
    def test_ring_refusal_messages(self, generators, charges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightedRing(generators, charges)

    @pytest.mark.parametrize("terms,message", [
        ({(x(0, 1),): 1}, "relations must be homogeneous of weight >= 2"),
        ({(x(0, 1), x(0, 1)): 1, (x(0, 3),): 1}, "polynomial is not weight-homogeneous"),
        ({(x(0, 1), x(0, 1)): 1, (x(1, 1), x(1, 1)): 1}, "polynomial is not charge-homogeneous"),
    ], ids=["weight_one", "weight", "charge"])
    def test_preset_refusal_messages(self, terms, message):
        ring = WeightedRing(("a", "b"), ((1, 0), (0, 1)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            JetPreset(ring, (JetPoly(terms),))


class TestParsing:
    def test_relation_line_with_chain(self):
        ring = WeightedRing(("a", "b", "c"))
        rels = jets.parse_relation_line(ring, "a*a = b*c = c*c")
        assert len(rels) == 2
        assert rels[0].terms == {(x(0, 1), x(0, 1)): 1, (x(1, 1), x(2, 1)): -1}

    def test_coefficients_and_signs(self):
        ring = WeightedRing(("E[1,2]", "E[2,3]"))
        (rel,) = jets.parse_relation_line(ring, "2*E[1,2]*E[2,3] - E[2,3]*E[2,3]")
        assert rel.terms == {(x(0, 1), x(1, 1)): 2, (x(1, 1), x(1, 1)): -1}
        # a - right after * is the sign of a factor, not an operator
        (rel,) = jets.parse_relation_line(WeightedRing(("a",)), "a*-2")
        assert rel.terms == {(x(0, 1),): -2}

    @pytest.mark.parametrize("side,signs", [
        ("-a*b", (-1,)), ("+ a*b", (1,)), ("a*b + -b*b", (1, -1)),
        ("a*b - -b*b", (1, 1)), ("- a*b - b*b", (-1, -1)),
        # a - right after * signs the factor
        ("a*b*-1 + b*b", (-1, 1)), ("a*-b - b*-b", (-1, 1)), ("a * - b", (-1,)),
    ])
    def test_leading_sign_and_sign_after_operator(self, side, signs):
        ring = WeightedRing(("a", "b"))
        (rel,) = jets.parse_relation_line(ring, side)
        terms = [(x(0, 1), x(1, 1)), (x(1, 1), x(1, 1))]
        assert rel.terms == dict(zip(terms, signs))

    def test_preset_file_round_trip(self, tmp_path):
        path = tmp_path / "preset.txt"
        path.write_text(
            "# one generator, x^2\n"
            "generators: x\n"
            "charges: (1)\n"
            "x*x\n",
            encoding="utf-8")
        pre = jets.load_preset_file(path)
        hs = jets.hilbert_series(pre, 7)
        want = jets.hilbert_series(jets.power_preset(2), 7)
        assert series_eq(hs, want).equal

    def test_bad_factor_rejected(self):
        ring = WeightedRing(("a",))
        with pytest.raises(ValueError):
            jets.parse_relation_line(ring, "a*(a)")


class TestHilbert:
    def test_x2_matches_rogers_ramanujan(self):
        hs = jets.hilbert_series(jets.power_preset(2), 7)
        assert [hs.coeff(w) for w in range(8)] == [1, 1, 1, 1, 2, 2, 3, 3]

    def test_x3_matches_two_variable_form(self):
        hs = jets.hilbert_series(jets.power_preset(3), 6)
        spec = nahm.NahmSumSpec(
            labels=("n3", "n5"),
            quad=((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))),
            linear=(Fraction(0), Fraction(0)), charges=())
        assert series_eq(hs, nahm.evaluate(spec, 7, charges=False)).equal

    def test_sl3_multigraded_matches_charged_character(self):
        hs = jets.hilbert_series(jets.sln_A(3), 6, multigraded=True)
        ev = nahm.evaluate(nahm.build_cartan_side("a3"), 7, charges=True)
        assert series_eq(hs, ev).equal

    def test_monotonicity_adding_relations(self):
        base = jets.power_preset(3)
        more = JetPreset(base.ring,
                         base.relations + (JetPoly({(x(0, 1), x(0, 1)): 1}),))
        a = jets.hilbert_series(more, 6)
        b = jets.hilbert_series(base, 6)
        assert series_leq(a, b).equal

    def test_multigraded_collapses_to_plain(self):
        hs2 = jets.hilbert_series(jets.sln_B(3), 5, multigraded=True)
        hs1 = jets.hilbert_series(jets.sln_B(3), 5)
        assert series_eq(charges_dropped(hs2), hs1).equal

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            jets.hilbert_series(jets.sln_A(3), 6, budget=10)

    def test_classically_free_small(self):
        assert jets.verify_classically_free(2, 8).equal
        assert jets.verify_classically_free(3, 6).equal

    def test_negative_control_dropped_relation(self):
        # deliberately omit the boundary binomial E[1,3]E[2,4]+E[1,4]E[2,3]
        # (the first rank with one is n=4): the Hilbert series must then
        # strictly exceed the lattice form, with the first excess low down
        full = jets.sln_A(4)
        ring = full.ring
        nested = tuple(sorted([(ring.gen_index("E[1,3]"), 1),
                               (ring.gen_index("E[2,4]"), 1)]))
        kept = tuple(r for r in full.relations if nested not in r.terms)
        assert len(kept) == len(full.relations) - 1
        hs = jets.hilbert_series(JetPreset(ring, kept), 5)
        ev = nahm.evaluate(nahm.build_B_form(4), 6, charges=False)
        assert series_leq(ev, hs).equal          # still an upper bound
        r = series_eq(hs, ev)
        assert not r.equal and r.mismatch.qexp <= 4


class TestRankBackend:
    def test_rank_small_example(self):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]
        assert rank_of_rows(rows) == 2
        assert dense_rank(rows) == 2

    def test_duplicate_single_term_rows_count_once(self):
        rows = [{3: 2}, {3: -5}, {3: 1}]
        assert rank_of_rows(rows) == 1

    def test_row_emptied_by_peeling_adds_nothing(self):
        rows = [{0: 1}, {1: 1}, {0: 2, 1: -7}]
        assert rank_of_rows(rows) == 2

    def test_row_single_term_after_peeling_counts(self):
        rows = [{0: 1}, {0: 4, 1: 3}, {1: 1, 2: 1}, {2: 5, 3: 1, 4: 1}]
        assert rank_of_rows(rows) == 4 == dense_rank(rows)

    def test_rank_independent_of_row_and_column_order(self):
        rng = random.Random(13)
        for _ in range(200):
            nrows = rng.randint(1, 8)
            ncols = rng.randint(1, 8)
            rows = []
            for _ in range(nrows):
                row = {c: rng.randint(-4, 4)
                       for c in rng.sample(range(ncols), rng.randint(0, ncols))}
                rows.append({c: v for c, v in row.items() if v})
            base = rank_of_rows(rows)
            perm = list(range(ncols))
            rng.shuffle(perm)
            shuffled = [{perm[c]: v for c, v in row.items()} for row in rows]
            rng.shuffle(shuffled)
            assert rank_of_rows(shuffled) == base

    def test_matches_dense_randomized(self):
        rng = random.Random(17)
        for _ in range(200):
            nrows = rng.randint(1, 7)
            ncols = rng.randint(1, 7)
            rows = []
            for _ in range(nrows):
                rows.append({c: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                             for c in rng.sample(range(ncols),
                                                 rng.randint(0, ncols))})
            rows = [{c: v for c, v in row.items() if v} for row in rows]
            assert rank_of_rows(integer_rows(rows)) == dense_rank(rows)

    def test_scalar_multiples_count_once(self):
        # the third row is 3 * (1/3, -2/3, 1)
        rows = [{0: 2, 1: -4, 2: 6}, {0: -1, 1: 2, 2: -3},
                {0: 1, 1: -2, 2: 3}, {1: 1, 2: 1}]
        assert rank_of_rows(rows) == 2 == dense_rank(rows)

    def test_mixed_denominators_match_dense(self):
        fractions = [{0: Fraction(1, 2), 1: Fraction(2, 3), 2: 5},
                     {0: Fraction(3, 4), 1: 1, 3: Fraction(-1, 6)},
                     {1: Fraction(7, 5), 2: Fraction(1, 10), 3: 2},
                     {0: Fraction(5, 4), 1: Fraction(5, 3), 2: 5, 3: Fraction(-1, 6)}]
        # each row times the lcm of its denominators: 6, 12, 10, 12
        rows = [{0: 3, 1: 4, 2: 30}, {0: 9, 1: 12, 3: -2},
                {1: 14, 2: 1, 3: 20}, {0: 15, 1: 20, 2: 60, 3: -2}]
        assert integer_rows(fractions) == rows
        assert rank_of_rows(rows) == dense_rank(fractions) == 3

    def test_rows_are_left_unchanged(self):
        # column 0 peels, the second row loses it and the last two rows reach
        # elimination untouched by the peel; every row is non-primitive or
        # gets reduced, so elimination in place would change them
        rows = [{0: 5}, {0: 4, 1: 6, 2: 2}, {1: 2, 2: 6}, {1: 4, 2: 10, 3: 8}]
        before = [dict(row) for row in rows]
        assert rank_of_rows(rows) == 4 == dense_rank(rows)
        assert rows == before

    def test_large_integer_entries_match_dense(self):
        # fraction-free updates multiply rows: entries up to 10^6 check that
        # growth is divided out exactly
        rng = random.Random(31)
        for full_rank in (True, False):
            rows = [{c: rng.randint(-10**6, 10**6) for c in range(12)}
                    for _ in range(12)]
            if not full_rank:
                rows[11] = {c: 3 * rows[0][c] - 7 * rows[5][c] for c in range(12)}
            assert rank_of_rows(rows) == dense_rank(rows) == 12 - (not full_rank)

    def test_monomial_enumeration_uses_no_shared_state(self):
        first = jets.monomials_of_weight(2, 3)
        first.clear()
        assert len(jets.monomials_of_weight(2, 3)) == 10

    def test_hilbert_independent_of_relation_order(self):
        pre = jets.sln_B(3)
        reordered = JetPreset(pre.ring, tuple(reversed(pre.relations)))
        a = jets.hilbert_series(pre, 6)
        b = jets.hilbert_series(reordered, 6)
        assert a == b


def _random_relations(rng, ring, count):
    """Quadratic and cubic relations in the depth-1 variables, each a
    monomial or, where another monomial shares its charge, a binomial."""
    ngens = len(ring.generators)
    rels = []
    for _ in range(count):
        monos = list(combinations_with_replacement(
            [(g, 1) for g in range(ngens)], rng.choice((2, 2, 3))))
        first = rng.choice(monos)
        mates = [m for m in monos if m != first
                 and jets._mono_charge(ring, m) == jets._mono_charge(ring, first)]
        terms = {first: rng.choice((1, 2))}
        if mates and rng.random() < 0.6:
            terms[rng.choice(mates)] = rng.choice((-2, -1, 1, 3))
        rels.append(JetPoly(terms))
    return rels


def _random_charged_preset(rng, low=0, high=1):
    """2-4 generators with charge entries in low..high and 1-4 random
    relations."""
    ngens = rng.randint(2, 4)
    rank = rng.randint(1, 2)
    charges = tuple(tuple(rng.randint(low, high) for _ in range(rank))
                    for _ in range(ngens))
    ring = WeightedRing(tuple(f"a{i}" for i in range(ngens)), charges)
    return JetPreset(ring, tuple(_random_relations(rng, ring, rng.randint(1, 4))))


def _image(sym, poly):
    """A signed generator permutation applied to a JetPoly."""
    return JetPoly({tuple(sorted((sym[g][1], d) for g, d in mono)):
                    c * prod(sym[g][0] for g, _d in mono)
                    for mono, c in poly.terms.items()})


def _random_symmetric_preset(rng):
    """A preset with one symmetry by construction: the generators come in
    cycles of a random permutation of the charge coordinates (charge entries
    in -2..2), each generator is sent to the next in its cycle with a random
    sign, and every random relation comes with all its images."""
    rank = rng.randint(1, 3)
    coords = list(range(rank))
    rng.shuffle(coords)
    charges, targets = [], []
    while len(charges) < 2 or (len(charges) < 5 and rng.random() < 0.5):
        c = tuple(rng.randint(-2, 2) for _ in range(rank))
        cycle = [c]
        while True:
            image = [0] * rank
            for i, j in enumerate(coords):
                image[j] = cycle[-1][i]
            if tuple(image) == c:
                break
            cycle.append(tuple(image))
        start = len(charges)
        charges.extend(cycle)
        targets.extend(start + (k + 1) % len(cycle) for k in range(len(cycle)))
    sym = tuple((rng.choice((1, -1)), t) for t in targets)
    ring = WeightedRing(tuple(f"a{i}" for i in range(len(charges))), tuple(charges))
    rels = []
    for f in _random_relations(rng, ring, rng.randint(1, 3)):
        orbit = [f]
        while (g := _image(sym, orbit[-1])).terms != f.terms:
            orbit.append(g)
        rels.extend(orbit)
    return JetPreset(ring, tuple(rels), symmetries=(sym,))


def _assert_matches_reference(pre, weight):
    """Plain and multigraded series against one reference pass."""
    graded = reference_terms(pre, weight, multigraded=True)
    plain = {}
    for (e2, _ch), c in graded.items():
        plain[(e2, ())] = plain.get((e2, ()), 0) + c
    assert jets.hilbert_series(pre, weight, multigraded=True).terms == graded
    assert jets.hilbert_series(pre, weight).terms == plain


def _multiset_divides(a, b):
    return all(a.count(v) <= b.count(v) for v in a)


def _guard_divides(pk, s, m):
    """The guard-bit test on keys: s divides m exactly when no exponent
    field of `(m | guards) - s` borrows from its guard bit."""
    return ((m | pk.guards) - s) & pk.guards == pk.guards


@st.composite
def _packing_cases(draw):
    """(ngens, weight, a, b, m): monomials of weight <= weight, with a*b too."""
    ngens, weight = draw(st.integers(1, 3)), draw(st.integers(1, 9))
    var = st.tuples(st.integers(0, ngens - 1), st.integers(1, weight))

    def mono(budget):
        out = []
        for g, d in draw(st.lists(var, max_size=weight)):
            if d <= budget:
                out.append((g, d))
                budget -= d
        return tuple(sorted(out))

    a = mono(weight)
    return ngens, weight, a, mono(weight - jets.mono_weight(a)), mono(weight)


@settings(max_examples=300, deadline=None)
@given(_packing_cases())
@example((1, 1, ((0, 1),), (), ((0, 1),)))
@example((1, 1, (), ((0, 1),), ()))
@example((2, 7, ((1, 1),) * 7, (), ((1, 1),) * 6))
@example((2, 8, ((0, 1),) * 4, ((0, 1),) * 4, ((0, 1),) * 8))
@example((3, 8, ((2, 8),), (), ((2, 1),) * 8))
def test_packing_matches_tuple_multisets(case):
    """Unpack inverts pack, the key of a product is the sum of the keys, and
    the guard-bit test is multiset divisibility; the examples fill a field
    (an exponent equal to the weight) and cover weight 1."""
    ngens, weight, a, b, m = case
    pk = jets._Packing(ngens, weight)
    ab = tuple(sorted(a + b))
    for mono in (a, b, m, ab):
        assert pk.unpack(pk.pack(mono)) == mono
    assert pk.pack(a) + pk.pack(b) == pk.pack(ab)
    for s in (a, b, m, ab):
        for t in (a, b, m, ab):
            assert _guard_divides(pk, pk.pack(s), pk.pack(t)) == _multiset_divides(s, t)


class TestBuilder:
    """`hilbert_series` kills the columns of single-term derivatives instead
    of building their rows; the reference builds every row."""

    @pytest.mark.parametrize("ngens,w", [(1, 6), (2, 5), (3, 4), (4, 3)])
    def test_monomials_match_bruteforce(self, ngens, w):
        variables = [(g, d) for g in range(ngens) for d in range(1, w + 1)]
        brute = sorted(mono for k in range(w + 1)
                       for mono in combinations_with_replacement(variables, k)
                       if sum(d for _g, d in mono) == w)
        assert jets.monomials_of_weight(ngens, w) == brute

    def test_surviving_levels_match_bruteforce(self):
        rng = random.Random(37)
        for _ in range(40):
            ngens, weight = rng.randint(1, 3), rng.randint(3, 7)
            variables = [(g, d) for g in range(ngens) for d in range(1, 3)]
            singles = [tuple(sorted(rng.choice(variables)
                                    for _ in range(rng.randint(1, 3))))
                       for _ in range(rng.randint(0, 5))]
            pk = jets._Packing(ngens, weight)
            # a single heavier than the weight divides nothing here, and is
            # not a key of this packing
            packed = [pk.pack(s) for s in singles if jets.mono_weight(s) <= weight]
            levels = jets.surviving_monomials(ngens, weight, packed)
            for w in range(weight + 1):
                want = [m for m in jets.monomials_of_weight(ngens, w)
                        if not any(_multiset_divides(s, m) for s in singles)]
                assert sorted(map(pk.unpack, levels[w])) == want
                assert all(type(key) is int for key in levels[w])

    @pytest.mark.parametrize("name,reading,weight", [
        ("sln-a2", "printed", 6), ("sln-b2", "printed", 6),
        ("sln-h2", "printed", 6), ("sln-a3", "printed", 5),
        ("sln-b3", "printed", 5), ("sln-h3", "printed", 5),
        ("sln-a4", "printed", 4), ("sln-b4", "printed", 4),
        ("sln-h4", "printed", 4), ("b2-a", "printed", 5),
        ("b2-b", "printed", 5), ("d4-d", "printed", 4),
        ("d4-d", "printed-v", 4), ("d4-d", "repaired", 4),
        ("power-2", "printed", 8), ("power-3", "printed", 8),
        # the symmetric presets further, where orbits are copied
        ("d4-d", "repaired", 5), ("sln-a3", "printed", 6),
        ("sln-b3", "printed", 6), ("sln-h3", "printed", 6),
        ("sln-a4", "printed", 6), ("sln-b4", "printed", 6),
        ("sln-h4", "printed", 6), ("sln-a5", "printed", 6),
        ("sln-b5", "printed", 6), ("sln-h5", "printed", 6),
    ])
    def test_matches_reference_on_shipped_presets(self, name, reading, weight):
        _assert_matches_reference(presets.jet_preset(name, reading), weight)

    def test_matches_reference_randomized(self):
        rng = random.Random(29)
        for _ in range(40):
            pre = _random_charged_preset(rng)
            for multigraded in (False, True):
                hs = jets.hilbert_series(pre, 6, multigraded=multigraded)
                assert hs.terms == reference_terms(pre, 6, multigraded)

    def test_budget_counts_reduced_block(self):
        # the budget caps the block that is ranked: killed columns (those of
        # single-term rows), single-term rows and rows with no surviving term
        # are not counted, and neither are blocks that are not least in
        # their orbit under the flip, which reverses the charge (the packed
        # charge is compared from its last coordinate)
        pre = jets.sln_B(3)
        full = reduced = 0
        for _w, ch, cols, rows in reference_blocks(pre, 6):
            killed = {c for row in rows if len(row) == 1 for c in row}
            kept = [row for row in rows if len(row) > 1 and set(row) - killed]
            full = max(full, len(rows) * len(cols))
            if ch[::-1] <= ch:
                reduced = max(reduced, len(kept) * (len(cols) - len(killed)))
        assert reduced == 77 < full
        want = jets.hilbert_series(pre, 6)
        assert jets.hilbert_series(pre, 6, budget=reduced) == want
        with pytest.raises(BudgetExceeded):
            jets.hilbert_series(pre, 6, budget=reduced - 1)

    def test_symmetric_random_presets_match_reference(self):
        rng = random.Random(41)
        moved = 0
        for _ in range(30):
            pre = _random_symmetric_preset(rng)
            moved += bool(jets._charge_moves(pre))
            _assert_matches_reference(pre, 5)
        assert moved >= 10

    def test_negative_charges_match_reference(self):
        rng = random.Random(43)
        for _ in range(40):
            _assert_matches_reference(_random_charged_preset(rng, -2, 2), 5)

    def test_ranks_one_block_per_orbit(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return rank_of_rows(rows)

        monkeypatch.setattr(jets, "rank_of_rows", counted)
        pre = jets.d4_D("repaired")
        plain = JetPreset(pre.ring, pre.relations, pre.name, pre.notes, symmetries=())
        del calls[:]
        want = jets.hilbert_series(plain, 5, multigraded=True)
        without = len(calls)
        del calls[:]
        assert jets.hilbert_series(pre, 5, multigraded=True) == want
        assert 0 < len(calls) < without / 2

    @pytest.mark.parametrize("name,reading", [
        ("sln-a3", "printed"), ("sln-b3", "printed"), ("sln-h3", "printed"),
        ("b2-a", "printed"), ("b2-b", "printed"), ("power-3", "printed"),
        ("d4-d", "printed"), ("d4-d", "printed-v"), ("d4-d", "repaired"),
    ])
    def test_rank_gets_nonzero_int_rows_and_keeps_them(self, monkeypatch,
                                                        name, reading):
        # rank_of_rows accepts only nonempty rows of nonzero ints and must
        # leave them as they were: pin both on every shipped jet preset
        calls = []

        def checked(rows):
            for row in rows:
                assert type(row) is dict and row
                assert all(type(v) is int and v for v in row.values())
            before = [dict(row) for row in rows]
            rank = rank_of_rows(rows)
            assert rows == before
            calls.append(len(rows))
            return rank

        monkeypatch.setattr(jets, "rank_of_rows", checked)
        pre = presets.jet_preset(name, reading)
        for multigraded in (False, True):
            jets.hilbert_series(pre, 5, multigraded=multigraded)
        assert sum(calls) > 0


class TestSymmetries:
    """Each declared symmetry is checked when the preset is built."""

    def test_shipped_symmetries(self):
        assert len(jets._charge_moves(jets.d4_D("repaired"))) == 5
        assert not jets.d4_D("printed").symmetries
        for make in (jets.sln_A, jets.sln_B, jets.sln_H):
            pre = make(4)
            (flip,) = pre.symmetries
            names = pre.ring.generators
            assert names[flip[names.index("E[1,3]")][1]] == "E[2,4]"
            assert jets._charge_moves(pre) == {(2, 1, 0)}

    def test_one_flipped_sign_is_refused(self):
        pre = jets.d4_D("repaired")
        for sym in pre.symmetries:
            for g in range(len(sym)):
                bad = tuple((-s, t) if i == g else (s, t) for i, (s, t) in enumerate(sym))
                with pytest.raises(ValueError, match="span"):
                    JetPreset(pre.ring, pre.relations, symmetries=(bad,))

    @pytest.mark.parametrize("reading", ["printed", "printed-v"])
    def test_triality_refused_on_printed_readings(self, reading):
        pre = jets.d4_D(reading)
        for sym in jets.d4_D("repaired").symmetries:
            with pytest.raises(ValueError, match="span"):
                JetPreset(pre.ring, pre.relations, symmetries=(sym,))

    def test_charges_must_be_permuted(self):
        pre = jets.sln_A(3)
        swap = pre.ring.signed_map("E[1,3] E[1,2] E[2,3]")
        with pytest.raises(ValueError, match="charge coordinates"):
            JetPreset(pre.ring, pre.relations, symmetries=(swap,))

    @pytest.mark.parametrize("sym", [
        ((1, 0), (1, 0), (1, 2)), ((1, 0), (1, 1)), ((1, 0), (2, 1), (1, 2))])
    def test_generator_map_must_be_a_signed_bijection(self, sym):
        pre = jets.sln_A(3)
        with pytest.raises(ValueError, match="bijection"):
            JetPreset(pre.ring, pre.relations, symmetries=(sym,))

    def test_unknown_generator_in_a_map(self):
        with pytest.raises(ValueError, match="unknown generator"):
            jets.sln_A(3).ring.signed_map("E[1,2] E[1,3] E[3,4]")


def test_packed_block_is_charge():
    """The charge fields above the exponents read back the charge of every
    monomial, negative entries included, and divisibility is unchanged."""
    rng = random.Random(47)
    for _ in range(200):
        ngens, weight, rank = rng.randint(1, 3), rng.randint(1, 8), rng.randint(1, 3)
        ring = WeightedRing(tuple(f"a{i}" for i in range(ngens)),
                            tuple(tuple(rng.randint(-2, 2) for _ in range(rank))
                                  for _ in range(ngens)))
        pk = jets._Packing(ngens, weight, ring.charges)
        w = rng.randint(0, weight)
        monos = jets.monomials_of_weight(ngens, w)
        mono = rng.choice(monos)
        key = pk.pack(mono)
        assert pk.charge(key >> pk.shift, w) == jets._mono_charge(ring, mono)
        assert pk.unpack(key) == mono
        other = rng.choice(jets.monomials_of_weight(ngens, rng.randint(0, w)))
        assert _guard_divides(pk, pk.pack(other), key) == _multiset_divides(other, mono)


GOLDENS = json.loads((Path(__file__).parent / "hilbert_goldens.json")
                     .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(GOLDENS))
def test_multigraded_golden(case):
    """Multigraded series recorded before the rank path and the row builder
    were rewritten."""
    g = GOLDENS[case]
    hs = jets.hilbert_series(presets.jet_preset(g["preset"], g["d4_reading"]),
                             g["weight"], multigraded=True)
    assert (hs.order2, hs.charge_rank) == (g["order2"], g["charge_rank"])
    assert hs.render() == g["series"]


@pytest.mark.parametrize("name,reading,form,weight", [
    ("d4-d", "repaired", "d4", 6),
    ("d4-d", "repaired", "d4", 8),
    ("b2-a", "printed", "b2-char", 8),
    ("b2-b", "printed", "b2-quintuple", 8),
    ("sln-b3", "printed", "B-a3", 9),
])
def test_multigraded_matches_charged_form(name, reading, form, weight):
    """The so(8), so(5) and sl(4) jet series equal their charged lattice
    forms charge by charge: consistent to this weight, not a proof."""
    hs = jets.hilbert_series(presets.jet_preset(name, reading), weight,
                             multigraded=True)
    ev = nahm.evaluate(presets.nahm_preset(form), weight + 1, charges=True)
    assert series_eq(hs, ev).equal
