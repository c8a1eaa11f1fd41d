import itertools
import json
import math
import random

import pytest
from fractions import Fraction

from qident import forms, nahm, presets, quiver, qweyl
from qident.series import QSeries, _trim, series_eq

from lattice_reference import (_inverse_diagonal, _reverse_ldl, evaluate_bruteforce,
                               form_difference_pure, fraction_bound, list_sum_levels)
from series_reference import charge_slice, charges_dropped
from sylvester import is_positive_definite


def F(*args):
    return Fraction(*args)


class TestBuilders:
    def test_b_form_n3_matches_rank2_identity(self):
        spec = nahm.build_B_form(3)
        assert spec.labels == ("m[1,2]", "m[1,3]", "m[2,3]")
        # B = m12^2 + m13^2 + m23^2 + m12*m13 + m13*m23
        assert spec.quad == (
            (F(1), F(1, 2), F(0)),
            (F(1, 2), F(1), F(1, 2)),
            (F(0), F(1, 2), F(1)),
        )
        assert spec.charges == ((1, 1, 0), (0, 1, 1))

    def test_b_form_n2_single_square(self):
        spec = nahm.build_B_form(2)
        assert spec.quad == ((F(1),),)
        assert spec.charges == ((1,),)

    def test_b_form_point_values(self):
        spec = nahm.build_B_form(3)
        assert spec.exponent((1, 0, 1)) == 2
        assert spec.exponent((1, 1, 0)) == 3

    def test_bprime_equals_b_at_n3(self):
        assert nahm.build_Bprime_form(3).quad == nahm.build_B_form(3).quad

    def test_first_divergence_at_n4(self):
        b = nahm.build_B_form(4)
        bp = nahm.build_Bprime_form(4)
        i13 = b.labels.index("m[1,3]")
        i24 = b.labels.index("m[2,4]")
        assert bp.quad[i13][i24] == F(1, 2)   # m13*m24 present in B'
        assert b.quad[i13][i24] == 0          # but not in B
        i14 = b.labels.index("m[1,4]")
        i23 = b.labels.index("m[2,3]")
        assert b.quad[i14][i23] == F(1, 2)    # nested pair only in B
        assert bp.quad[i14][i23] == 0

    def test_cartan_sides(self):
        a2 = nahm.build_cartan_side("a2")
        assert a2.quad == ((F(1),),)
        a3 = nahm.build_cartan_side("a3")
        assert a3.exponent((1, 1)) == 1      # k1^2 + k2^2 - k1k2
        d4 = nahm.build_cartan_side("d4")
        off = {(i, j) for i in range(4) for j in range(4)
               if i != j and d4.quad[i][j] != 0}
        assert off == {(0, 1), (1, 0), (1, 2), (2, 1), (1, 3), (3, 1)}
        assert all(d4.quad[i][j] == F(-1, 2) for (i, j) in off)
        with pytest.raises(ValueError):
            nahm.build_cartan_side("d5")

    def test_b2_char_form(self):
        spec = nahm.build_b2_char_form()
        assert spec.exponent((1, 0, 0)) == 1
        assert spec.charge_of((1, 0, 0)) == (1, 0)

    def test_b2_quintuple_form(self):
        spec = nahm.build_b2_quintuple_form()
        assert spec.exponent((0, 0, 1, 0, 0)) == 2
        assert spec.charge_of((0, 0, 1, 0, 0)) == (0, 2)

    def test_both_b2_sides_have_four_at_q1(self):
        for spec in (nahm.build_b2_char_form(), nahm.build_b2_quintuple_form()):
            s = nahm.evaluate(spec, 2, charges=False)
            assert s.coeff(1) == 4

    def test_d4_form(self):
        spec = nahm.build_d4_form()
        assert all(spec.quad[i][i] == 1 for i in range(12))
        i_m13 = spec.labels.index("m13")
        i_n12 = spec.labels.index("n12")
        assert 2 * spec.quad[i_m13][i_n12] == 2
        primed = nahm.build_d4_form(primed=True)
        diff = spec.exponent((0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0)) - \
            primed.exponent((0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0))
        assert diff == 1  # B - B' at n12 = n23 = 1

    def test_d4_difference_is_symbolic_exact(self):
        b = nahm.build_d4_form()
        bp = nahm.build_d4_form(primed=True)
        diff = [[x - y for x, y in zip(rb, rp)] for rb, rp in zip(b.quad, bp.quad)]
        assert diff == _product_table(b.labels, [("n12", "n23"), ("n12", "m13")])
        assert b.linear == bp.linear

    def test_integrality_validation(self):
        with pytest.raises(ValueError):
            nahm.NahmSumSpec(labels=("a",), quad=((F(1, 4),),),
                             linear=(F(0),), charges=())

    def test_repeated_label_refused(self):
        # a coefficient read by label would see only the first of the two
        with pytest.raises(ValueError, match="repeated label 'a'"):
            nahm.NahmSumSpec(labels=("a", "b", "a"), quad=((F(1),) * 3,) * 3,
                             linear=(F(0),) * 3, charges=())

    @pytest.mark.parametrize("labels,quad,linear,charges,message", [
        (("a", "b"), ((F(1), F(0)),), (F(0),) * 2, (),
         "quadratic matrix shape does not match variable count"),
        (("a", "b"), ((F(1), F(0)), (F(0),)), (F(0),) * 2, (),
         "quadratic matrix shape does not match variable count"),
        (("a", "b"), ((F(1), F(0)), (F(0), F(1))), (F(0),), (),
         "linear vector length does not match variable count"),
        (("a", "b"), ((F(1), F(1, 2)), (F(1, 4), F(1))), (F(0),) * 2, (),
         "quadratic matrix must be symmetric"),
        # symmetry is checked before the integrality of the entries
        (("a", "b"), ((F(1), F(1, 3)), (F(1, 5), F(1))), (F(0),) * 2, (),
         "quadratic matrix must be symmetric"),
        (("a", "b"), ((F(1), F(0)), (F(0), F(1))), (F(0),) * 2, ((1, 0), (1,)),
         "charge matrix row length does not match variable count"),
        (("a", "b"), ((F(1), F(0)), (F(0), F(1, 3))), (F(0),) * 2, (),
         r"2\*diagonal entries must be integers"),
        (("a",), ((F(1, 4),),), (F(0),), (), r"2\*diagonal entries must be integers"),
        (("a", "b"), ((F(1), F(0)), (F(0), F(1))), (F(0), F(3, 4)), (),
         r"2\*linear entries must be integers"),
        (("a", "b"), ((F(1), F(1, 8)), (F(1, 8), F(1))), (F(0),) * 2, (),
         r"4\*off-diagonal entries must be integers"),
        (("a", "b", "c"), ((F(1), F(0), F(0)), (F(0), F(1), F(1, 6)), (F(0), F(1, 6), F(1))),
         (F(0),) * 3, (), r"4\*off-diagonal entries must be integers"),
    ], ids=["rows", "row_length", "linear_length", "asymmetric",
            "asymmetric_non_quarter", "charge_row", "diagonal", "quarter_diagonal",
            "linear", "off_diagonal", "last_off_diagonal"])
    def test_refusal_messages(self, labels, quad, linear, charges, message):
        # the repeated label is pinned by test_repeated_label_refused
        with pytest.raises(ValueError, match=f"^{message}$"):
            nahm.NahmSumSpec(labels, quad, linear, charges)

    def test_integer_tables_are_the_stored_form(self):
        spec = nahm.build_b2_quintuple_form()
        assert (spec.four, spec.lin2) == (
            ((4, 0, 4, 2, 2), (0, 4, 0, 2, 0), (4, 0, 8, 2, 4), (2, 2, 2, 4, 0), (2, 0, 4, 0, 4)),
            (0,) * 5)
        assert all(type(x) is int for x in spec.lin2 + sum(spec.four, ()))
        assert spec.quad[2] == (F(1), F(0), F(2), F(1, 2), F(1))
        # halves and quarters keep their doubled values exactly
        half = nahm.NahmSumSpec(("x", "y"), ((F(3, 2), F(-3, 4)), (F(-3, 4), F(1, 2))),
                                (F(5, 2), F(-1)), ())
        assert (half.four, half.lin2) == (((6, -3), (-3, 2)), (5, -2))
        assert (half.quad, half.linear) == (((F(3, 2), F(-3, 4)), (F(-3, 4), F(1, 2))),
                                            (F(5, 2), F(-1)))
        # a frozen form: its tables are tuples and its fields cannot be rebound
        with pytest.raises(AttributeError):
            half.four = ((0, 0), (0, 0))


class TestBounds:
    def test_all_nonneg_box(self):
        b = nahm.compute_bound(nahm.build_B_form(3), 25)
        assert b.strategy == "all_nonneg"
        assert b.per_variable_max == (5, 5, 5)

    def test_positive_definite_box(self):
        # (Q^-1)_ii = 4/3, so the box is x_i^2 < 25 * 4/3: the exact maximum of
        # x_i on the ellipsoid Q(x) < 25, and attained here by a lattice point
        spec = nahm.build_cartan_side("a3")
        b = nahm.compute_bound(spec, 25)
        assert b.strategy == "positive_definite"
        assert b.per_variable_max == (5, 5)
        assert min(spec.exponent((5, y)) for y in range(12)) < 25
        assert min(spec.exponent((6, y)) for y in range(12)) >= 25

    def test_b2_char_accepted_via_pd(self):
        b = nahm.compute_bound(nahm.build_b2_char_form(), 25)
        assert b.strategy == "positive_definite"

    def test_noncoercive_form_refused(self):
        message = ("quadratic form is neither all-nonnegative with positive diagonal "
                   "nor positive definite with a zero linear part; refusing to enumerate")
        for quad, linear in (
                (((F(1), F(-2)), (F(-2), F(1))), (F(0), F(0))),        # indefinite
                # nonnegative, but a zero diagonal entry without a charge box
                (((F(0), F(0)), (F(0), F(1))), (F(1), F(0))),
                # positive definite, with a nonzero linear part
                (((F(1), F(-1, 2)), (F(-1, 2), F(1))), (F(1), F(0)))):
            bad = nahm.NahmSumSpec(labels=("a", "b"), quad=quad, linear=linear, charges=())
            with pytest.raises(nahm.CoercivityError, match=message):
                nahm.compute_bound(bad, 10)
            with pytest.raises(nahm.CoercivityError, match=message):
                nahm.evaluate(bad, 10)


RR_COUNTS = [1, 1, 1, 1, 2, 2, 3, 3]  # partitions with parts differing by >= 2


class TestOneCertification:
    @pytest.mark.parametrize("name,strategy", [
        ("cartan-a6", "positive_definite"), ("cartan-d4", "positive_definite"),
        ("b2-char", "positive_definite"), ("d4", "all_nonneg"), ("B-a3", "all_nonneg")])
    def test_one_elimination_and_one_table_build_per_evaluate(self, monkeypatch, name,
                                                              strategy):
        # the level table is built by compute_bound, once per evaluate
        spec = presets.nahm_preset(name)
        calls = {"ldl": 0, "tables": 0}
        ldl, tables = nahm._reverse_ldl, nahm.compute_bound

        def counted_ldl(quad):
            calls["ldl"] += 1
            return ldl(quad)

        def counted_tables(*args):
            calls["tables"] += 1
            return tables(*args)

        monkeypatch.setattr(nahm, "_reverse_ldl", counted_ldl)
        monkeypatch.setattr(nahm, "compute_bound", counted_tables)
        assert nahm.compute_bound(spec, 8).strategy == strategy
        for charges in (False, True):
            calls.update(ldl=0, tables=0)
            nahm.evaluate(spec, 8, charges=charges)
            assert calls == {"ldl": int(strategy == "positive_definite"), "tables": 1}


REFUSAL = ("quadratic form is neither all-nonnegative with positive diagonal "
           "nor positive definite with a zero linear part; refusing to enumerate")
CERTIFIED = [f"cartan-a{n}" for n in range(2, 9)] + ["cartan-d4", "b2-char"]


class TestIntegerCertification:
    """The fraction-free elimination of compute_bound against the Fraction
    split and table build of lattice_reference, which it replaced."""

    @pytest.mark.parametrize("name", CERTIFIED)
    def test_elimination_matches_the_fraction_split(self, name):
        spec = presets.nahm_preset(name)
        delta, T, adj = nahm._reverse_ldl(spec.four)
        D, M = _reverse_ldl(spec.quad)
        l = spec.nvars
        assert D == [F(delta[k], 4 * delta[k + 1]) for k in range(l)]
        assert M == [[F(T[k][i], delta[k]) if i < k else 0 for i in range(l)] for k in range(l)]
        assert _inverse_diagonal(D, M) == [F(4 * c, delta[0]) for c in adj]

    @pytest.mark.parametrize("name", CERTIFIED)
    def test_shipped_bounds_match_the_fraction_build(self, name):
        spec = presets.nahm_preset(name)
        for order in [*range(1, 121), F(1, 2), F(39, 2)]:
            bound = nahm.compute_bound(spec, order)
            if name == "cartan-a2":             # one variable, k^2: all-nonnegative
                assert bound.strategy == "all_nonneg"
            else:
                assert bound == fraction_bound(spec, order), order

    def test_random_forms_match_the_fraction_build(self):
        # half-integer diagonals and quarter-integer off-diagonals, odd quarters
        # included, under charge boxes or none; a form that is not positive
        # definite and has a negative entry is refused with the same message
        rng = random.Random(35)
        matched = refused = odd = boxed = 0
        while matched < 300 or refused < 100:
            l = rng.randint(1, 6)
            quad = [[F(0)] * l for _ in range(l)]
            for i in range(l):
                quad[i][i] = F(rng.randint(0, 8), 2)
                for j in range(i):
                    quad[i][j] = quad[j][i] = F(rng.randint(-5, 3), 4)
            charges = tuple(tuple(rng.randint(0, 2) for _ in range(l))
                            for _ in range(rng.randint(0, 2)))
            box = tuple(rng.randint(0, 5) for _ in charges) if rng.random() < 0.5 else None
            spec = nahm.NahmSumSpec(tuple(f"x{i}" for i in range(l)), tuple(map(tuple, quad)),
                                    (F(0),) * l, charges)
            order = F(rng.randint(-1, 80), 2)
            if is_positive_definite(quad):
                bound = nahm.compute_bound(spec, order, box)
                if bound.strategy == "positive_definite":
                    assert bound == fraction_bound(spec, order, box), (quad, charges, order, box)
                    matched += 1
                    odd += any(x.denominator == 4 for row in quad for x in row)
                    boxed += box is not None and bool(charges)
            elif any(x < 0 for row in quad for x in row):
                with pytest.raises(nahm.CoercivityError, match=REFUSAL):
                    nahm.compute_bound(spec, order, box)
                with pytest.raises(nahm.CoercivityError):
                    fraction_bound(spec, order, box)
                refused += 1
        assert odd > 150 and boxed > 50

    @pytest.mark.parametrize("quad", [
        ((F(1), F(-1)), (F(-1), F(1))),                     # semidefinite, det 0
        ((F(1), F(-1, 2), F(-1, 2)), (F(-1, 2), F(1), F(-1, 2)),
         (F(-1, 2), F(-1, 2), F(1))),                       # semidefinite, 3 x 3
        ((F(2), F(0), F(0)), (F(0), F(1), F(-1)),
         (F(0), F(-1), F(1))),                              # a zero pivot before the last
        ((F(-1), F(0)), (F(0), F(1))),                      # indefinite, last pivot negative
        ((F(1, 2), F(-3, 4)), (F(-3, 4), F(1, 2))),         # indefinite, odd quarters
    ])
    def test_forms_that_are_not_definite_refused(self, quad):
        spec = nahm.NahmSumSpec(tuple(f"x{i}" for i in range(len(quad))), quad,
                                (F(0),) * len(quad), ())
        with pytest.raises(nahm.CoercivityError, match=REFUSAL):
            nahm.compute_bound(spec, 10)
        with pytest.raises(nahm.CoercivityError):
            _reverse_ldl(quad)

    def test_b2_char_budget_boundary(self):
        # an uncharged positive-definite table with G = 4, pinned in CI too
        spec = presets.nahm_preset("b2-char")
        assert nahm.compute_bound(spec, 100).table[0] == 4
        assert _level_sum_steps(spec, 100) == 347
        nahm.evaluate(spec, 100, charges=False, node_budget=347)
        with pytest.raises(nahm.BudgetExceeded):
            nahm.evaluate(spec, 100, charges=False, node_budget=346)


class TestEvaluate:
    def test_sl2_cartan_side(self):
        s = nahm.evaluate(nahm.build_cartan_side("a2"), 8, charges=False)
        assert [s.coeff(k) for k in range(8)] == RR_COUNTS

    def test_b_form_n2_equals_cartan_n2(self):
        a = nahm.evaluate(nahm.build_B_form(2), 12, charges=False)
        b = nahm.evaluate(nahm.build_cartan_side("a2"), 12, charges=False)
        assert series_eq(a, b).equal

    def test_constant_term_one_and_nonnegative(self):
        for spec in (nahm.build_B_form(3), nahm.build_b2_char_form(),
                     nahm.build_b2_quintuple_form(), nahm.build_d4_form()):
            s = nahm.evaluate(spec, 8, charges=False)
            assert s.coeff(0) == 1
            assert all(c > 0 for c in s.terms.values())

    @pytest.mark.parametrize("build,order", [
        (lambda: nahm.build_B_form(2), 12),
        (lambda: nahm.build_B_form(3), 12),
        (lambda: nahm.build_B_form(4), 10),
        (lambda: nahm.build_Bprime_form(4), 10),
        (lambda: nahm.build_cartan_side("a3"), 12),
        (lambda: nahm.build_cartan_side("a4"), 12),
        (lambda: nahm.build_b2_char_form(), 10),
        (lambda: nahm.build_b2_quintuple_form(), 8),
    ])
    def test_oracle_equivalence(self, build, order):
        spec = build()
        bound = nahm.compute_bound(spec, order)
        box = bound.per_variable_max
        fast = nahm.evaluate(spec, order, charges=True)
        brute = evaluate_bruteforce(spec, order, box, charges=True)
        assert series_eq(fast, brute).equal

    def test_enumeration_order_independence(self):
        rng = random.Random(11)
        for build in (lambda: nahm.build_B_form(3),
                      lambda: nahm.build_b2_quintuple_form(),
                      lambda: nahm.build_cartan_side("a3")):
            spec = build()
            base = nahm.evaluate(spec, 12, charges=True)
            for _ in range(5):
                perm = list(range(spec.nvars))
                rng.shuffle(perm)
                other = nahm.evaluate(spec.permuted(perm), 12, charges=True)
                assert base == other

    def test_budget_enforced(self):
        with pytest.raises(nahm.BudgetExceeded):
            nahm.evaluate(nahm.build_B_form(3), 20, node_budget=5)

    def test_budget_counts_positive_definite_level_sum_steps(self):
        # a positive-definite form runs the level sum on the Fincke-Pohst
        # table: one unit per distinct (d, s[d:], charge, v) of a DFS point
        # below the cut
        spec = nahm.build_cartan_side("a6")
        for order, charges, steps in ((16, False, 157), (14, True, 2870)):
            assert _level_sum_steps(spec, order, charges=charges) == steps
            nahm.evaluate(spec, order, charges=charges, node_budget=steps)
            with pytest.raises(nahm.BudgetExceeded):
                nahm.evaluate(spec, order, charges=charges, node_budget=steps - 1)

    def test_budget_counts_level_sum_steps(self):
        # uncharged d4 runs the level sum, which spends one unit per distinct
        # (level d, cross sums s[d:], value v) that a DFS point reaches
        spec = nahm.build_d4_form()
        assert _level_sum_steps(spec, 10) == 852
        nahm.evaluate(spec, 10, charges=False, node_budget=852)
        with pytest.raises(nahm.BudgetExceeded):
            nahm.evaluate(spec, 10, charges=False, node_budget=851)

    @pytest.mark.parametrize("name,order,steps", [
        ("d4", 10, 2390), ("b2-quintuple", 20, 390), ("B-a3", 20, 74)])
    def test_budget_counts_charged_level_sum_steps(self, name, order, steps):
        # a charged all-nonnegative sum also runs the level sum, whose states
        # carry the running charge: one unit per distinct (d, s[d:], charge, v)
        spec = presets.nahm_preset(name)
        assert _level_sum_steps(spec, order, charges=True) == steps
        nahm.evaluate(spec, order, charges=True, node_budget=steps)
        with pytest.raises(nahm.BudgetExceeded):
            nahm.evaluate(spec, order, charges=True, node_budget=steps - 1)

    def test_random_all_nonneg_forms_match_bruteforce(self):
        # odd diag2/lin2/cross2 entries run the level sum in half-integer
        # units (g = 1), even ones in integer units (g = 2)
        rng = random.Random(31)
        units = set()
        checked = 0
        while checked < 40:
            l = rng.randint(1, 4)
            quad = [[F(0)] * l for _ in range(l)]
            for i in range(l):
                quad[i][i] = F(rng.randint(1, 4), 2)
                for j in range(i + 1, l):
                    quad[i][j] = quad[j][i] = F(rng.randint(0, 3), 4)
            spec = nahm.NahmSumSpec(
                tuple(f"x{i}" for i in range(l)), tuple(map(tuple, quad)),
                tuple(F(rng.randint(0, 3), 2) for _ in range(l)),
                tuple(tuple(rng.randint(-1, 2) for _ in range(l))
                      for _ in range(rng.randint(1, 2))))
            order = rng.randint(3, 9)
            bound = nahm.compute_bound(spec, order)
            box = bound.per_variable_max
            assert bound.strategy == "all_nonneg"
            if math.prod(b + 1 for b in box) > 1500:
                continue
            units.add(math.gcd(2, *spec.lin2, *(x // (1 + (i == j))
                                                for i, row in enumerate(spec.four)
                                                for j, x in enumerate(row))))
            plain = nahm.evaluate(spec, order, charges=False)
            assert plain == evaluate_bruteforce(spec, order, box, charges=False), \
                (quad, spec.linear, order)
            charged = nahm.evaluate(spec, order, charges=True)
            assert plain == charges_dropped(charged)
            assert charged == evaluate_bruteforce(spec, order, box, charges=True), \
                (quad, spec.linear, spec.charges, order)
            checked += 1
        assert units == {1, 2}

    def test_uncharged_enumeration_order_independence(self):
        rng = random.Random(17)
        for spec, order in ((nahm.build_d4_form(), 14), (nahm.build_B_form(4), 16),
                            (nahm.build_b2_quintuple_form(), 30),
                            (nahm.build_cartan_side("d4"), 18),
                            (nahm.build_cartan_side("a5"), 16),
                            (nahm.build_b2_char_form(), 30)):
            base = nahm.evaluate(spec, order, charges=False)
            for _ in range(5):
                perm = list(range(spec.nvars))
                rng.shuffle(perm)
                assert nahm.evaluate(spec.permuted(perm), order, charges=False) == base

    def test_charged_level_sum_order_independence(self):
        rng = random.Random(19)
        for spec, order in ((nahm.build_d4_form(), 10), (nahm.build_B_form(4), 14),
                            (nahm.build_cartan_side("d4"), 18),
                            (nahm.build_cartan_side("a5"), 16),
                            (nahm.build_b2_char_form(), 30)):
            base = nahm.evaluate(spec, order, charges=True)
            for _ in range(5):
                perm = list(range(spec.nvars))
                rng.shuffle(perm)
                assert nahm.evaluate(spec.permuted(perm), order, charges=True) == base

    def test_no_variables_is_one(self):
        spec = nahm.NahmSumSpec((), (), (), ((),))
        for charges in (False, True):
            s = nahm.evaluate(spec, 5, charges=charges)
            assert s == evaluate_bruteforce(spec, 5, (), charges=charges)
            assert s.terms == {(0, (0,) if charges else ()): 1}

    @pytest.mark.parametrize("spec", [nahm.build_d4_form(), nahm.build_cartan_side("a3")],
                             ids=["all_nonneg", "positive_definite"])
    def test_negative_order_is_empty(self, spec):
        for charges in (False, True):
            assert not nahm.evaluate(spec, -3, charges=charges).terms

    def test_random_positive_definite_forms_match_bruteforce(self):
        rng = random.Random(29)
        checked = 0
        while checked < 40:
            l = rng.randint(2, 4)
            quad = [[F(0)] * l for _ in range(l)]
            for i in range(l):
                quad[i][i] = F(rng.randint(1, 4), 2)
                for j in range(i + 1, l):
                    quad[i][j] = quad[j][i] = F(rng.randint(-3, 2), 4)
            if not is_positive_definite(quad):
                continue
            rank = rng.randint(0, 2)
            spec = nahm.NahmSumSpec(
                tuple(f"x{i}" for i in range(l)), tuple(map(tuple, quad)), (F(0),) * l,
                tuple(tuple(rng.randint(-1, 2) for _ in range(l)) for _ in range(rank)))
            order = rng.randint(3, 8)
            bound = nahm.compute_bound(spec, order)
            box = bound.per_variable_max
            if bound.strategy != "positive_definite" or math.prod(b + 1 for b in box) > 1500:
                continue
            for charges in (False, True):
                fast = nahm.evaluate(spec, order, charges=charges)
                brute = evaluate_bruteforce(spec, order, box, charges=charges)
                assert fast == brute, (quad, spec.charges, order, charges)
            checked += 1

    @pytest.mark.parametrize("quad,linear,charges,order,want", [
        # positive-definite, a negative charge entry (its field is biased)
        (((F(1), F(-1, 2)), (F(-1, 2), F(1))), (F(0), F(0)), ((1, -1), (0, 2)), 3,
         [((1, 0), (16, [1, 1])), ((0, 2), (16, [1, 2])), ((0, 0), (0, [1, 0, 0])),
          ((-1, 2), (16, [1, 1]))]),
        (((F(1), F(-1, 2)), (F(-1, 2), F(1))), (F(0), F(0)), (), 3,
         [((), (0, [1, 3, 4]))]),
        # all-nonnegative, charges down to -4
        (((F(1, 2), F(1, 4)), (F(1, 4), F(1))), (F(1, 2), F(0)), ((-2, 1),), 4,
         [((-4,), (6, [1, 0])), ((-2,), (2, [1, 0, 1, 0, 1, 0])), ((-1,), (5, [1, 0, 2])),
          ((0,), (0, [1, 0, 0, 0, 0, 0, 0, 0])), ((1,), (2, [1, 0, 1, 0, 1, 0]))]),
        (((F(1, 2), F(1, 4)), (F(1, 4), F(1))), (F(1, 2), F(0)), (), 4,
         [((), (0, [1, 0, 2, 0, 2, 1, 3, 2]))]),
    ])
    def test_last_level_rows_and_their_order(self, quad, linear, charges, order, want):
        # the last level's packed keys come back as charge tuples, row for row
        # and in the order the level sum leaves them; uncharged, one () row.
        # want holds (offset, slots) as the list reference leaves them, and
        # each row is handed over canonical: _trim(offset // G, g, slots)
        spec = nahm.NahmSumSpec(("x", "y"), quad, linear, charges)
        bound = nahm.compute_bound(spec, order)
        got = nahm._sum_levels(spec, 2 * order, len(charges), None, bound)
        want_rows = _canonical_levels(dict(want), bound, 2 * order)
        assert list(got.items()) == list(want_rows.items())
        assert list(list_sum_levels(spec, 2 * order, len(charges), None, bound).items()) == want

    def test_packed_fields_at_their_edges_match_bruteforce(self):
        # a level-sum state packs each running sum and charge into one field,
        # biased by the most negative value it reaches within per_variable_max
        # and as wide as the largest biased value: charge entries in -3..5,
        # positive-definite cross terms down to -3/4 (negative running sums),
        # charge boxes, and lone variables whose large charge entry is taken
        # at per_variable_max set those biases and widths.  Each sum, charged
        # and uncharged, also matches the list reference row for row: offsets,
        # lengths, trailing zeros and the order of the last level
        rng = random.Random(47)
        seen = set()
        checked = 0
        while checked < 60:
            l = rng.randint(1, 4)
            definite = rng.random() < 0.5
            quad = [[F(0)] * l for _ in range(l)]
            for i in range(l):
                quad[i][i] = F(rng.randint(1, 4), 2)
                for j in range(i + 1, l):
                    quad[i][j] = quad[j][i] = F(rng.randint(-3 if definite else 0, 2), 4)
            if definite and not is_positive_definite(quad):
                continue
            linear = (F(0),) * l if definite else tuple(F(rng.randint(0, 2), 2) for _ in range(l))
            boxed = rng.random() < 0.3
            charges = tuple(tuple(rng.randint(0 if boxed else -3, 5) for _ in range(l))
                            for _ in range(rng.randint(1, 2)))
            spec = nahm.NahmSumSpec(tuple(f"x{i}" for i in range(l)), tuple(map(tuple, quad)),
                                    linear, charges)
            order = rng.randint(3, 9)
            box = tuple(rng.randint(0, 8) for _ in charges) if boxed else None
            bound = nahm.compute_bound(spec, order, box)
            caps = bound.per_variable_max
            if math.prod(b + 1 for b in caps) > 1500:
                continue
            brute = evaluate_bruteforce(spec, order, caps)
            for rank in (len(charges), 0):
                cap = box if rank else None
                got = nahm._sum_levels(spec, 2 * order, rank, None, bound, cap)
                want = _canonical_levels(list_sum_levels(spec, 2 * order, rank, None, bound, cap),
                                         bound, 2 * order)
                assert list(got.items()) == list(want.items()), (quad, linear, charges, order, box)
            if bound.table[1] == 1:
                seen.add("half-integral")
            if boxed:
                assert nahm.evaluate(spec, order, charge_box=box) == _within(brute, box), \
                    (quad, linear, charges, order, box)
                seen.add("boxed")
            else:
                assert nahm.evaluate(spec, order) == brute, (quad, linear, charges, order)
                assert nahm.evaluate(spec, order, charges=False) == \
                    evaluate_bruteforce(spec, order, caps, charges=False)
            seen.add(bound.strategy)
            if any(x < 0 for row in bound.table[3] for x in row):
                seen.add("negative running sums")
            if any(c < 0 for row in charges for c in row):
                seen.add("negative charges")
            checked += 1
        assert seen == {"boxed", "all_nonneg", "positive_definite", "negative running sums",
                        "negative charges", "half-integral"}
        # one variable x with x^2 < order: x reaches top = per_variable_max, and
        # its charge c*top fills the field to the last bit (2^k - 1) or just
        # past it (2^k), above or below zero
        for top, c in ((3, 5), (7, 73), (5, 51), (4, -64), (6, -21), (1, 255), (1, -256)):
            spec = nahm.NahmSumSpec(("x",), ((F(1),),), (F(0),), ((c,), (1,)))
            order = top * top + 1
            assert nahm.compute_bound(spec, order).per_variable_max == (top,)
            got = nahm.evaluate(spec, order)
            assert got == evaluate_bruteforce(spec, order, (top,))
            assert (top * top * 2, (c * top, top)) in got.terms
            if c > 0:
                assert nahm.evaluate(spec, order, charge_box=(c * top, top - 1)) == \
                    _within(got, (c * top, top - 1))

    @pytest.mark.parametrize("quad,linear,strategy,G", [
        (((F(1), F(-3, 4)), (F(-3, 4), F(1))), (F(0), F(0)), "positive_definite", 128),
        (((F(1, 2), F(1, 4)), (F(1, 4), F(1))), (F(1, 2), F(0)), "all_nonneg", 1),
    ], ids=["positive_definite_G128", "half_integer"])
    def test_handed_over_rows_match_bruteforce(self, quad, linear, strategy, G):
        # one charge row x + y, so a charge holds terms at odd doubled
        # distances (step-1 rows) as well as integer ones (step-2 rows)
        spec = nahm.NahmSumSpec(("x", "y"), quad, linear, ((1, 1),))
        bound = nahm.compute_bound(spec, 8)
        # table[:2] = (G, g): slot k of a row sits at doubled exponent off // G + k * g
        assert (bound.strategy, bound.table[0], bound.table[1]) == (strategy, G, 1)
        for charges in (True, False):
            fast = nahm.evaluate(spec, 8, charges=charges)
            brute = evaluate_bruteforce(spec, 8, bound.per_variable_max, charges=charges)
            assert fast == brute and fast.terms == brute.terms
        assert {step for _first, step, _c in fast.rows.values()} == {1}
        assert {step for _first, step, _c in nahm.evaluate(spec, 8).rows.values()} == {1, 2}

    def test_charges_dropped_matches_projection(self):
        spec = nahm.build_B_form(3)
        charged = nahm.evaluate(spec, 14, charges=True)
        plain = nahm.evaluate(spec, 14, charges=False)
        assert series_eq(charges_dropped(charged), plain).equal


class TestPackedRows:
    # the level sum keeps each state's series as one packed int row, every
    # slot in nahm._slot_bits bits; these check that width against the
    # coefficients the shipped forms reach and against the list reference

    @pytest.mark.parametrize("name,order,charges", [
        ("b2-quintuple", 300, False), ("d4", 60, False), ("B-a6", 30, False), ("d4", 30, True)])
    def test_largest_coefficient_is_below_the_slot_width(self, name, order, charges):
        spec = presets.nahm_preset(name)
        bound = nahm.compute_bound(spec, order)
        got = nahm._sum_levels(spec, 2 * order, spec.charge_rank if charges else 0, None, bound)
        largest = max(c for _first, _step, row in got.values() for c in row)
        assert largest.bit_length() < nahm._slot_bits(spec, bound, 2 * order)

    @pytest.mark.parametrize("name,widths", [
        ("cartan-a5", (30, 44, 79, 134)), ("cartan-a6", (34, 52, 91, 154)),
        ("cartan-d4", (29, 45, 81, 136)), ("B-a5", (26, 41, 75, 130)),
        ("B-a6", (30, 49, 91, 158)), ("Bprime-a5", (26, 41, 75, 130)),
        ("Bprime-a6", (30, 49, 91, 158)), ("b2-char", (24, 37, 67, 114)),
        ("b2-quintuple", (19, 30, 53, 91)), ("d4", (28, 45, 82, 142)),
        ("d4-prime", (28, 45, 82, 142))])
    def test_slot_width_of_the_shipped_forms(self, name, widths):
        # _slot_bits at q^12, q^30, q^100 and q^300, pinned so that the width
        # (and which charged sums get 64-bit lanes) does not move
        spec = presets.nahm_preset(name)
        assert tuple(nahm._slot_bits(spec, nahm.compute_bound(spec, order), 2 * order)
                     for order in (12, 30, 100, 300)) == widths

    @pytest.mark.parametrize("name", [
        "cartan-a5", "cartan-d4", "B-a5", "Bprime-a5", "b2-char", "b2-quintuple", "d4", "d4-prime"])
    def test_shipped_forms_match_the_list_reference(self, name):
        spec = presets.nahm_preset(name)
        bound = nahm.compute_bound(spec, 12)
        for rank in (spec.charge_rank, 0):
            got = nahm._sum_levels(spec, 24, rank, None, bound)
            want = _canonical_levels(list_sum_levels(spec, 24, rank, None, bound), bound, 24)
            assert list(got.items()) == list(want.items())

    def test_a_width_short_of_the_largest_coefficient_is_seen(self, monkeypatch):
        # an overflowing slot carries into the next one: the rows then differ
        # from the list reference, so the comparisons above can see a width
        # that is too small.  Uncharged, so the level sum keeps the tight
        # width of _slot_bits
        spec = presets.nahm_preset("b2-quintuple")
        bound = nahm.compute_bound(spec, 60)
        want = list(_canonical_levels(list_sum_levels(spec, 120, 0, None, bound), bound,
                                      120).items())
        assert list(nahm._sum_levels(spec, 120, 0, None, bound).items()) == want
        needed = max(want[0][1][2]).bit_length()
        monkeypatch.setattr(nahm, "_slot_bits", lambda *_args: needed - 3)
        assert list(nahm._sum_levels(spec, 120, 0, None, bound).items()) != want

    @pytest.mark.parametrize("name,bits", [("b2-char", 67), ("b2-quintuple", 53)])
    def test_charged_rows_at_either_slot_width_match_the_list_reference(self, name, bits):
        # a charged sum packs its slots in 64-bit lanes when _slot_bits allows
        # (b2-quintuple at q^100) and keeps the tight width past that (b2-char)
        spec = presets.nahm_preset(name)
        bound = nahm.compute_bound(spec, 100)
        assert nahm._slot_bits(spec, bound, 200) == bits
        got = nahm._sum_levels(spec, 200, spec.charge_rank, None, bound)
        want = _canonical_levels(list_sum_levels(spec, 200, spec.charge_rank, None, bound),
                                 bound, 200)
        assert list(got.items()) == list(want.items())

    def test_every_handed_over_row_is_canonical(self, monkeypatch):
        # _sum_levels hands each row over as series._trim would leave it, and
        # evaluate keeps it as it is: the shipped forms, charged and not, a
        # boxed quiver codimension form, the product-side forms of two
        # dilogarithm checks, and half-integral (g = 1) forms
        seen = []
        sum_levels = nahm._sum_levels

        def spy(spec, order2, *args):
            level = sum_levels(spec, order2, *args)
            seen.append((order2, level))
            return level

        monkeypatch.setattr(nahm, "_sum_levels", spy)
        for name in ("cartan-a5", "cartan-d4", "B-a5", "Bprime-a5", "b2-char", "b2-quintuple",
                     "d4", "d4-prime"):
            for charges in (True, False):
                nahm.evaluate(presets.nahm_preset(name), 12, charges=charges)
        nahm.evaluate(quiver.codim_form(quiver.QuiverA.equioriented(3)), 9, charge_box=(3, 2, 3))
        assert qweyl.pentagon_check(6, 16).equal
        assert qweyl.ordered_product_check("a4", 4, 10)[0].equal
        rng = random.Random(61)
        half_integral = 0
        while half_integral < 20:
            l = rng.randint(1, 3)
            quad = [[F(rng.randint(0, 2), 4) for _ in range(l)] for _ in range(l)]
            for i in range(l):
                quad[i][i] = F(rng.randint(1, 4), 2)
                for j in range(i):
                    quad[i][j] = quad[j][i]
            spec = nahm.NahmSumSpec(tuple(f"x{i}" for i in range(l)), tuple(map(tuple, quad)),
                                    tuple(F(rng.randint(0, 3), 2) for _ in range(l)),
                                    (tuple(rng.randint(0, 2) for _ in range(l)),))
            order = rng.randint(3, 9)
            if nahm.compute_bound(spec, order).table[1] == 1:
                nahm.evaluate(spec, order, charges=rng.random() < 0.7)
                half_integral += 1
        assert len(seen) == 16 + 1 + 2 + 2 + 20
        for order2, level in seen:
            for first, step, coeffs in level.values():
                assert _trim(first, step, coeffs, order2) == (first, step, coeffs)


def _canonical_levels(levels, bound, order2):
    """The list reference's {u: (offset, slots)} as _sum_levels hands it
    over: each row trimmed to canonical, in the same key order."""
    G, g = bound.table[:2]
    return {u: _trim(off // G, g, S, order2) for u, (off, S) in levels.items()}


def _within(series, box):
    """The terms of a charged series whose charge is <= box componentwise."""
    return QSeries._raw(series.order2, series.charge_rank,
                        {key: c for key, c in series.terms.items()
                         if all(u <= b for u, b in zip(key[1], box))})


class TestChargeBox:
    @pytest.mark.parametrize("name,order,boxes", [
        ("cartan-a4", 14, [(2, 1, 3), (0, 4, 1), (5, 5, 5)]),
        ("B-a4", 10, [(2, 2, 1), (1, 0, 3)]),
        ("d4", 8, [(2, 3, 1, 2), (1, 1, 1, 1)]),
        ("b2-char", 12, [(2, 3), (0, 1), (4, 0)]),
    ])
    def test_box_prunes_what_the_filter_drops(self, name, order, boxes):
        spec = presets.nahm_preset(name)
        full = nahm.evaluate(spec, order)
        for box in boxes:
            got = nahm.evaluate(spec, order, charge_box=box)
            assert got == _within(full, box), box
            # the box caps every variable a boxed row charges
            caps = nahm.compute_bound(spec, order, box).per_variable_max
            assert all(c <= b // row[d] for d, c in enumerate(caps)
                       for b, row in zip(box, spec.charges) if row[d] > 0)

    @pytest.mark.parametrize("bits", ["RR", "RL", "LR", "LL"])
    def test_boxed_codim_form_matches_bruteforce(self, bits):
        # codim has a zero diagonal: only the box of dimension vectors bounds it
        spec = quiver.codim_form(quiver.QuiverA.from_string(3, bits))
        for kmax, order in (((2, 2, 2), 6), ((1, 3, 2), 9), ((0, 2, 1), 4)):
            bound = nahm.compute_bound(spec, order, kmax)
            assert bound.strategy == "all_nonneg"
            brute = evaluate_bruteforce(spec, order, bound.per_variable_max)
            assert nahm.evaluate(spec, order, charge_box=kmax) == _within(brute, kmax)

    def test_negative_boxed_row_refused(self):
        spec = nahm.build_cartan_side("a3")
        bad = nahm.NahmSumSpec(spec.labels, spec.quad, spec.linear, ((1, -1),))
        nahm.evaluate(bad, 8)                   # unboxed, the form alone is coercive
        with pytest.raises(nahm.CoercivityError, match="negative entry"):
            nahm.compute_bound(bad, 8, (3,))
        with pytest.raises(nahm.CoercivityError):
            nahm.evaluate(bad, 8, charge_box=(3,))

    def test_zero_diagonal_needs_a_boxed_row(self):
        quad = ((F(0), F(1, 2)), (F(1, 2), F(1)))
        uncapped = nahm.NahmSumSpec(("a", "b"), quad, (F(0), F(0)), ((0, 1),))
        with pytest.raises(nahm.CoercivityError):
            nahm.compute_bound(uncapped, 8, (3,))
        with pytest.raises(nahm.CoercivityError):
            nahm.compute_bound(uncapped, 8)
        capped = nahm.NahmSumSpec(("a", "b"), quad, (F(0), F(0)), ((1, 1),))
        bound = nahm.compute_bound(capped, 8, (3,))
        assert bound.per_variable_max == (3, 2)
        brute = evaluate_bruteforce(capped, 8, bound.per_variable_max)
        assert nahm.evaluate(capped, 8, charge_box=(3,)) == _within(brute, (3,))

    def test_box_needs_charges(self):
        spec = nahm.build_cartan_side("a3")
        with pytest.raises(ValueError, match="charges=True"):
            nahm.evaluate(spec, 8, charges=False, charge_box=(1, 1))
        with pytest.raises(ValueError, match="one nonnegative cap per charge row"):
            nahm.evaluate(spec, 8, charge_box=(1,))
        with pytest.raises(ValueError, match="one nonnegative cap per charge row"):
            nahm.evaluate(spec, 8, charge_box=(1, -1))


class TestIdentities:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_thm1_both_variants(self, n):
        rhs = nahm.build_cartan_side(f"a{n}")
        assert nahm.verify_identity(nahm.build_B_form(n), rhs, 16,
                                    with_charges=True).equal
        assert nahm.verify_identity(nahm.build_Bprime_form(n), rhs, 16,
                                    with_charges=True).equal

    def test_negative_control_perturbed_form(self):
        spec = nahm.build_B_form(3)
        quad = [list(row) for row in spec.quad]
        quad[0][2] += F(1, 2)   # add m12*m23
        quad[2][0] += F(1, 2)
        bad = nahm.NahmSumSpec(spec.labels, tuple(tuple(r) for r in quad),
                               spec.linear, spec.charges)
        r = nahm.verify_identity(bad, nahm.build_cartan_side("a3"), 12,
                                 with_charges=True)
        assert not r.equal
        assert r.mismatch.qexp <= 4

    def test_d4_charged_identity(self):
        # pins the four charge rows of the twelve-variable form against the
        # Cartan side, not just the charge-free projection
        r = nahm.verify_identity(nahm.build_d4_form(),
                                 nahm.build_cartan_side("d4"), 14,
                                 with_charges=True)
        assert r.equal

    def test_d4_uncharged_identity_q60(self):
        # the twelve-variable form against the Cartan side, both through the
        # level sum: on the exact cross sums and on the Fincke-Pohst table
        assert nahm.verify_identity(nahm.build_d4_form(), nahm.build_cartan_side("d4"),
                                    60, with_charges=False).equal

    def test_d4_primed_is_strictly_larger(self):
        # the primed form only upper-bounds the jet series; against the
        # character it must overshoot (first excess at q^3 uncharged)
        a = nahm.evaluate(nahm.build_d4_form(primed=True), 10, charges=False)
        b = nahm.evaluate(nahm.build_cartan_side("d4"), 10, charges=False)
        from qident.series import series_leq
        assert series_leq(b, a).equal
        r = series_eq(a, b)
        assert not r.equal and r.mismatch.qexp == 3

    def test_stability_slice(self):
        # killing the last column of variables reduces rank n to rank n-1
        for n in (3, 4):
            big = nahm.evaluate(nahm.build_B_form(n), 10, charges=True)
            sliced = charge_slice(big, n - 2, 0)
            small = nahm.evaluate(nahm.build_B_form(n - 1), 10, charges=True)
            assert series_eq(sliced, small).equal


class TestSerialization:
    def test_round_trip(self):
        spec = nahm.build_b2_quintuple_form()
        again = forms.from_json(forms.to_json(spec))
        assert again == spec

    def test_json_is_plain_data(self):
        data = json.loads(forms.to_json(nahm.build_B_form(2)))
        assert data["labels"] == ["m[1,2]"]
        assert data["quadratic"] == [["1"]]


    @pytest.mark.parametrize("key,value", [
        ("labels", "ab"),
        ("quadratic", [1]),
        ("linear", 0),
        ("linear", ["x"]),
        ("charges", [1]),
        ("notes", 3),
        ("quadratic", [["1/0"]]),
        ("quadratic", [[True]]),
        ("linear", [False]),
        ("charges", [[True]]),
        ("charges", [[1.0]]),
        ("charges", [[1.7]]),
        ("charges", [["1"]]),
        ("labels", [{}]),
        ("name", [1]),
        ("notes", [None]),
    ])
    def test_malformed_shape_names_key(self, key, value):
        data = {"labels": ["a"], "quadratic": [[1]], "linear": [0]}
        data[key] = value
        with pytest.raises(ValueError, match=repr(key)):
            forms.from_json_dict(data)


def _shipped_forms():
    """Every form the package builds: the cartan, B, B', b2 and d4 presets,
    codim_form of every orientation of ranks 1-5, the charge-word and
    form-difference tables, and both product sides of the pentagons and of
    the ordered products a2-a6 and d4, as product_side hands them to
    nahm.evaluate."""
    shipped = [nahm.build_cartan_side(t) for t in [f"a{n}" for n in range(2, 9)] + ["d4"]]
    shipped += [build(n) for n in range(2, 8) for build in (nahm.build_B_form,
                                                           nahm.build_Bprime_form)]
    shipped += [nahm.build_b2_char_form(), nahm.build_b2_quintuple_form(),
                nahm.build_d4_form(), nahm.build_d4_form(primed=True)]
    shipped += [quiver.codim_form(quiver.QuiverA(rank, letters)) for rank in range(1, 6)
                for letters in itertools.product("RL", repeat=rank - 1)]
    shipped += [qweyl.extract_E_form(n) for n in range(2, 6)]
    shipped += [forms.expand_form_difference(n, kind) for n in range(2, 6)
                for kind in ("B", "Bprime")]
    sides, evaluate = [], nahm.evaluate

    def captured(spec, *args, **kwargs):
        sides.append(spec)
        return evaluate(spec, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nahm, "evaluate", captured)
        for variant in ("plain", "shifted"):
            assert qweyl.pentagon_check(3, 4, variant).equal
        for name in [f"a{n}" for n in range(2, 7)] + ["d4"]:
            assert qweyl.ordered_product_check(name, 3, 4)[0].equal
    assert len(sides) == 16
    return shipped + sides


class TestEntries:
    """The exact-number entry NahmSumSpec(labels, quad, linear, ...) and the
    builders' int entry make the same form, and JSON carries it unchanged."""

    def test_shipped_forms_round_trip(self):
        shipped = _shipped_forms()
        for spec in shipped:
            again = nahm.NahmSumSpec(spec.labels, spec.quad, spec.linear, spec.charges,
                                     spec.name, spec.notes)
            assert again == spec, spec.name
            assert forms.from_json(forms.to_json(spec)) == spec, spec.name
        assert len(shipped) == 8 + 12 + 4 + 31 + 4 + 8 + 16

    def test_builder_tables_are_ints(self):
        for spec in _shipped_forms():
            entries = spec.lin2 + sum(spec.four, ())
            assert all(type(x) is int for x in entries), spec.name
            assert spec.four == tuple(zip(*spec.four)), spec.name
            assert all(row[i] % 2 == 0 for i, row in enumerate(spec.four)), spec.name

    def test_random_forms_round_trip(self):
        # half-integer diagonals and linear parts, quarter off-diagonals
        rng = random.Random(38)
        quarters = 0
        for _ in range(200):
            l = rng.randint(0, 6)
            quad = [[F(0)] * l for _ in range(l)]
            for i in range(l):
                quad[i][i] = F(rng.randint(-8, 8), 2)
                for j in range(i):
                    quad[i][j] = quad[j][i] = F(rng.randint(-9, 9), 4)
            linear = tuple(F(rng.randint(-6, 6), 2) for _ in range(l))
            charges = tuple(tuple(rng.randint(-2, 2) for _ in range(l))
                            for _ in range(rng.randint(0, 2)))
            spec = nahm.NahmSumSpec(tuple(f"x{i}" for i in range(l)), tuple(map(tuple, quad)),
                                    linear, charges, f"random-{l}", ("a note",))
            assert spec.quad == tuple(map(tuple, quad)) and spec.linear == linear
            assert (spec.four, spec.lin2) == (tuple(tuple(4 * x for x in row) for row in quad),
                                              tuple(2 * x for x in linear))
            again = nahm.NahmSumSpec(spec.labels, spec.quad, spec.linear, spec.charges,
                                     spec.name, spec.notes)
            assert again == spec
            assert forms.from_json(forms.to_json(spec)) == spec
            assert nahm.NahmSumSpec._of_ints(spec.labels, spec.four, spec.lin2, spec.charges,
                                             spec.name, spec.notes) == spec
            quarters += any(x.denominator == 4 for row in quad for x in row)
        assert quarters > 100

    @pytest.mark.parametrize("labels,four,lin2,message", [
        (("a", "a"), ((2, 0), (0, 2)), (0, 0), "repeated label 'a'"),
        (("a", "b"), ((2, 0),), (0, 0), "quadratic matrix shape does not match variable count"),
        (("a", "b"), ((2, 0), (0, 2)), (0,), "linear vector length does not match variable count"),
        (("a", "b"), ((2, 1), (0, 2)), (0, 0), "quadratic matrix must be symmetric"),
    ], ids=["repeated", "rows", "linear_length", "asymmetric"])
    def test_int_entry_refusals(self, labels, four, lin2, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            nahm.NahmSumSpec._of_ints(labels, four, lin2)


class TestFormDifference:
    def test_pure_difference_equals_codim_polynomial(self):
        for n in (2, 3, 4):
            N = n + 1
            diff = form_difference_pure(n, "Bprime")
            products = []
            for a in range(1, N + 1):
                for b in range(a + 1, N + 1):
                    for c in range(b + 1, N + 1):
                        products.append((f"m[{a},{b}]", f"m[{b},{c}]"))
                        for d in range(c + 1, N + 1):
                            products.append((f"m[{a},{c}]", f"m[{b},{d}]"))
            assert [list(row) for row in diff.quad] == _product_table(diff.labels, products)
            assert not any(diff.linear)

    def test_mixed_matches_pure_on_lattice_points(self):
        rng = random.Random(5)
        for n in (3, 4):
            N = n + 1
            pure = form_difference_pure(n, "Bprime")
            mixed = forms.expand_form_difference(n, "Bprime")
            pairs = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]
            for _ in range(50):
                m = {p: rng.randrange(4) for p in pairs}
                lam = [sum(v for (s, l), v in m.items() if s <= i < l)
                       for i in range(1, N)]
                vals_p = {f"m[{i},{j}]": m[(i, j)] for (i, j) in pairs}
                vals_m = {f"m[{i},{j}]": m[(i, j)] for (i, j) in pairs if j > i + 1}
                vals_m.update({f"k{i}": lam[i - 1] for i in range(1, N)})
                assert (pure.exponent([vals_p[lab] for lab in pure.labels])
                        == mixed.exponent([vals_m[lab] for lab in mixed.labels]))

    @pytest.mark.parametrize("kind", ["B", "Bprime"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_tables_match_the_form_minus_the_cartan_form(self, n, kind):
        # kind(m) - (1/2) lambda^T A lambda at random points, read off the
        # kind's own form and the integer Cartan matrix; in the mixed
        # coordinates k = lambda(m) and each far m is itself
        form = {"B": nahm.build_B_form, "Bprime": nahm.build_Bprime_form}[kind](n + 1)
        A = nahm.cartan_matrix(f"a{n + 1}")
        pure = form_difference_pure(n, kind)
        mixed = forms.expand_form_difference(n, kind)
        assert pure.labels == form.labels
        rng = random.Random(n)
        for _ in range(40):
            m = [rng.randint(0, 3) for _ in form.labels]
            lam = form.charge_of(m)
            want = form.exponent(m) - Fraction(
                sum(a * x * y for row, x in zip(A, lam) for a, y in zip(row, lam)), 2)
            values = dict(zip(form.labels, m))
            values.update((f"k{i}", x) for i, x in enumerate(lam, 1))
            assert pure.exponent(m) == want
            assert mixed.exponent([values[lab] for lab in mixed.labels]) == want

    @pytest.mark.parametrize("n", [3, 4])
    def test_six_type_table(self, n):
        rows = forms.six_type_table(forms.expand_form_difference(n, "Bprime"), n, "Bprime")
        assert rows, "table must not be empty"
        for (typ, desc, coeff, expected) in rows:
            assert expected is not None
            assert coeff == expected, f"type {typ} {desc}"

    def test_cross_k_terms_vanish(self):
        for n in (3, 4, 5):
            for kind in ("Bprime", "B"):
                poly = forms.expand_form_difference(n, kind)
                assert all(v == 0 for v in forms.cross_k_coefficients(poly, n).values())

    def test_congruent_table_matches_evaluation(self):
        # x^T Q x + l.x at x = M y equals y^T (M^T Q M) y + (M^T l).y
        rng = random.Random(11)

        def form(quad, linear, x):
            return (sum(quad[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))
                    + sum(a * b for a, b in zip(linear, x)))

        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            M = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(cols)] for _ in range(rows)]
            Q = [[Fraction(0)] * rows for _ in range(rows)]
            for i in range(rows):
                for j in range(i, rows):
                    Q[i][j] = Q[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            lin = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rows)]
            quad = forms._congruent(Q, M)
            lin_y = [sum(a * M[i][c] for i, a in enumerate(lin)) for c in range(cols)]
            assert all(quad[a][b] == quad[b][a] for a in range(cols) for b in range(cols))
            for _ in range(5):
                y = [rng.randint(-4, 4) for _ in range(cols)]
                x = [sum(a * b for a, b in zip(row, y)) for row in M]
                assert form(quad, lin_y, y) == form(Q, lin, x)


def _level_sum_steps(spec, order, charges=False):
    """Distinct (d, s[d:], u, v) over the points of a plain DFS over the box
    of compute_bound, pruned by the bound of its level table: the exact
    exponent for an all-nonnegative form, the Fincke-Pohst bound for a
    positive-definite one; u is the running charge when charges is set."""
    bound = nahm.compute_bound(spec, order)
    G, _g, levels, R, lin = bound.table
    rows = spec.charges if charges else ()
    seen = set()

    def rec(d, P, s, u):
        if d == spec.nvars:
            return
        a, beta, delta = levels[d]
        for v in range(bound.per_variable_max[d] + 1):
            e = P + a * v * v + (beta * s[d] + lin[d]) * v + delta * s[d] ** 2
            if e < 2 * G * order:
                seen.add((d, tuple(s[d:]), u, v))
                rec(d + 1, e, [x + v * c for x, c in zip(s, R[d])],
                    tuple(x + v * row[d] for x, row in zip(u, rows)))

    rec(0, 0, [0] * spec.nvars, (0,) * len(rows))
    return len(seen)


def _product_table(labels, products):
    """The symmetric matrix of the sum of the products u*w of distinct
    labels: 1/2 at (u, w) and at (w, u) for each."""
    at = {lab: t for t, lab in enumerate(labels)}
    table = [[Fraction(0)] * len(labels) for _ in labels]
    for u, w in products:
        table[at[u]][at[w]] += Fraction(1, 2)
        table[at[w]][at[u]] += Fraction(1, 2)
    return table
