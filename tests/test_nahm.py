import json
import math
import random

import pytest
from fractions import Fraction

from qident import nahm, presets
from qident.poly import SparsePoly
from qident.series import series_eq


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
        a2 = nahm.build_cartan_side("A", 2)
        assert a2.quad == ((F(1),),)
        a3 = nahm.build_cartan_side("A", 3)
        assert a3.exponent((1, 1)) == 1      # k1^2 + k2^2 - k1k2
        d4 = nahm.build_cartan_side("D", 4)
        off = {(i, j) for i in range(4) for j in range(4)
               if i != j and d4.quad[i][j] != 0}
        assert off == {(0, 1), (1, 0), (1, 2), (2, 1), (1, 3), (3, 1)}
        assert all(d4.quad[i][j] == F(-1, 2) for (i, j) in off)
        with pytest.raises(ValueError):
            nahm.build_cartan_side("D", 5)

    def test_b2_char_form(self):
        spec = nahm.build_b2_char_form()
        assert spec.exponent((1, 0, 0)) == 1
        assert spec.charge_of((1, 0, 0)) == (1, 0)
        assert nahm.principal_minors(spec.quad) == [F(1), F(3, 4), F(1, 2)]

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
        names = b.labels
        poly = SparsePoly.zero(names)
        for i in range(12):
            for j in range(12):
                c = b.quad[i][j] - bp.quad[i][j]
                if c:
                    poly = poly + (SparsePoly.variable(names, names[i])
                                   * SparsePoly.variable(names, names[j]) * c)
        want = (SparsePoly.variable(names, "n12") * SparsePoly.variable(names, "n23")
                + SparsePoly.variable(names, "n12") * SparsePoly.variable(names, "m13"))
        assert poly == want

    def test_integrality_validation(self):
        with pytest.raises(ValueError):
            nahm.NahmSumSpec(labels=("a",), quad=((F(1, 4),),),
                             linear=(F(0),), charges=())


class TestBounds:
    def test_all_nonneg_box(self):
        b = nahm.compute_bound(nahm.build_B_form(3), 25)
        assert b.strategy == "all_nonneg"
        assert b.per_variable_max == (5, 5, 5)

    def test_positive_definite_box(self):
        # (Q^-1)_ii = 4/3, so the box is x_i^2 < 25 * 4/3: the exact maximum of
        # x_i on the ellipsoid Q(x) < 25, and attained here by a lattice point
        spec = nahm.build_cartan_side("A", 3)
        b = nahm.compute_bound(spec, 25)
        assert b.strategy == "positive_definite"
        assert b.per_variable_max == (5, 5)
        assert min(spec.exponent((5, y)) for y in range(12)) < 25
        assert min(spec.exponent((6, y)) for y in range(12)) >= 25

    def test_b2_char_accepted_via_pd(self):
        b = nahm.compute_bound(nahm.build_b2_char_form(), 25)
        assert b.strategy == "positive_definite"

    def test_noncoercive_form_refused(self):
        bad = nahm.NahmSumSpec(
            labels=("a", "b"),
            quad=((F(1), F(-2)), (F(-2), F(1))),   # indefinite
            linear=(F(0), F(0)), charges=())
        with pytest.raises(nahm.CoercivityError):
            nahm.compute_bound(bad, 10)
        with pytest.raises(nahm.CoercivityError):
            nahm.evaluate(bad, 10)


RR_COUNTS = [1, 1, 1, 1, 2, 2, 3, 3]  # partitions with parts differing by >= 2


class TestEvaluate:
    def test_sl2_cartan_side(self):
        s = nahm.evaluate(nahm.build_cartan_side("A", 2), 8, charges=False)
        assert [s.coeff(k) for k in range(8)] == RR_COUNTS

    def test_b_form_n2_equals_cartan_n2(self):
        a = nahm.evaluate(nahm.build_B_form(2), 12, charges=False)
        b = nahm.evaluate(nahm.build_cartan_side("A", 2), 12, charges=False)
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
        (lambda: nahm.build_cartan_side("A", 3), 12),
        (lambda: nahm.build_cartan_side("A", 4), 12),
        (lambda: nahm.build_b2_char_form(), 10),
        (lambda: nahm.build_b2_quintuple_form(), 8),
    ])
    def test_oracle_equivalence(self, build, order):
        spec = build()
        bound = nahm.compute_bound(spec, order)
        box = bound.per_variable_max
        fast = nahm.evaluate(spec, order, charges=True)
        brute = nahm.evaluate_bruteforce(spec, order, box, charges=True)
        assert series_eq(fast, brute).equal

    def test_enumeration_order_independence(self):
        rng = random.Random(11)
        for build in (lambda: nahm.build_B_form(3),
                      lambda: nahm.build_b2_quintuple_form(),
                      lambda: nahm.build_cartan_side("A", 3)):
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
        spec = nahm.build_cartan_side("A", 6)
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
            diag2, lin2, cross2 = spec._tables()
            units.add(math.gcd(2, *diag2, *lin2, *(x for row in cross2 for x in row)))
            plain = nahm.evaluate(spec, order, charges=False)
            assert plain == nahm.evaluate_bruteforce(spec, order, box, charges=False), \
                (quad, spec.linear, order)
            charged = nahm.evaluate(spec, order, charges=True)
            assert plain == charged.charges_dropped()
            assert charged == nahm.evaluate_bruteforce(spec, order, box, charges=True), \
                (quad, spec.linear, spec.charges, order)
            checked += 1
        assert units == {1, 2}

    def test_uncharged_enumeration_order_independence(self):
        rng = random.Random(17)
        for spec, order in ((nahm.build_d4_form(), 14), (nahm.build_B_form(4), 16),
                            (nahm.build_b2_quintuple_form(), 30),
                            (nahm.build_cartan_side("D", 4), 18),
                            (nahm.build_cartan_side("A", 5), 16),
                            (nahm.build_b2_char_form(), 30)):
            base = nahm.evaluate(spec, order, charges=False)
            for _ in range(5):
                perm = list(range(spec.nvars))
                rng.shuffle(perm)
                assert nahm.evaluate(spec.permuted(perm), order, charges=False) == base

    def test_charged_level_sum_order_independence(self):
        rng = random.Random(19)
        for spec, order in ((nahm.build_d4_form(), 10), (nahm.build_B_form(4), 14),
                            (nahm.build_cartan_side("D", 4), 18),
                            (nahm.build_cartan_side("A", 5), 16),
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
            assert s == nahm.evaluate_bruteforce(spec, 5, (), charges=charges)
            assert s.terms == {(0, (0,) if charges else ()): 1}

    @pytest.mark.parametrize("spec", [nahm.build_d4_form(), nahm.build_cartan_side("A", 3)],
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
            if not nahm.is_positive_definite(quad):
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
                brute = nahm.evaluate_bruteforce(spec, order, box, charges=charges)
                assert fast == brute, (quad, spec.charges, order, charges)
            checked += 1

    def test_charges_dropped_matches_projection(self):
        spec = nahm.build_B_form(3)
        charged = nahm.evaluate(spec, 14, charges=True)
        plain = nahm.evaluate(spec, 14, charges=False)
        assert series_eq(charged.charges_dropped(), plain).equal


class TestIdentities:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_thm1_both_variants(self, n):
        rhs = nahm.build_cartan_side("A", n)
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
        r = nahm.verify_identity(bad, nahm.build_cartan_side("A", 3), 12,
                                 with_charges=True)
        assert not r.equal
        assert r.mismatch.qexp <= 4

    def test_d4_charged_identity(self):
        # pins the four charge rows of the twelve-variable form against the
        # Cartan side, not just the charge-free projection
        r = nahm.verify_identity(nahm.build_d4_form(),
                                 nahm.build_cartan_side("D", 4), 14,
                                 with_charges=True)
        assert r.equal

    def test_d4_uncharged_identity_q60(self):
        # the twelve-variable form against the Cartan side, both through the
        # level sum: on the exact cross sums and on the Fincke-Pohst table
        assert nahm.verify_identity(nahm.build_d4_form(), nahm.build_cartan_side("D", 4),
                                    60, with_charges=False).equal

    def test_d4_primed_is_strictly_larger(self):
        # the primed form only upper-bounds the jet series; against the
        # character it must overshoot (first excess at q^3 uncharged)
        a = nahm.evaluate(nahm.build_d4_form(primed=True), 10, charges=False)
        b = nahm.evaluate(nahm.build_cartan_side("D", 4), 10, charges=False)
        from qident.series import series_leq
        assert series_leq(b, a).equal
        r = series_eq(a, b)
        assert not r.equal and r.mismatch.qexp == 3

    def test_stability_slice(self):
        # killing the last column of variables reduces rank n to rank n-1
        for n in (3, 4):
            big = nahm.evaluate(nahm.build_B_form(n), 10, charges=True)
            sliced = big.charge_slice(n - 2, 0)
            small = nahm.evaluate(nahm.build_B_form(n - 1), 10, charges=True)
            assert series_eq(sliced, small).equal


class TestSerialization:
    def test_round_trip(self):
        spec = nahm.build_b2_quintuple_form()
        again = nahm.NahmSumSpec.from_json(spec.to_json())
        assert again == spec

    def test_json_is_plain_data(self):
        data = json.loads(nahm.build_B_form(2).to_json())
        assert data["labels"] == ["m[1,2]"]
        assert data["quadratic"] == [["1"]]


    @pytest.mark.parametrize("key,value", [
        ("labels", "ab"),
        ("quadratic", [1]),
        ("linear", 0),
        ("linear", ["x"]),
        ("charges", [1]),
        ("notes", 3),
    ])
    def test_malformed_shape_names_key(self, key, value):
        data = {"labels": ["a"], "quadratic": [[1]], "linear": [0]}
        data[key] = value
        with pytest.raises(ValueError, match=repr(key)):
            nahm.NahmSumSpec.from_json_dict(data)


class TestFormDifference:
    def test_pure_difference_equals_codim_polynomial(self):
        for n in (2, 3, 4):
            N = n + 1
            diff = nahm.form_difference_pure(n, "Bprime")
            names = diff.variables
            want = SparsePoly.zero(names)
            for a in range(1, N + 1):
                for b in range(a + 1, N + 1):
                    for c in range(b + 1, N + 1):
                        want = want + (SparsePoly.variable(names, f"m[{a},{b}]")
                                       * SparsePoly.variable(names, f"m[{b},{c}]"))
                        for d in range(c + 1, N + 1):
                            want = want + (SparsePoly.variable(names, f"m[{a},{c}]")
                                           * SparsePoly.variable(names, f"m[{b},{d}]"))
            assert diff == want

    def test_mixed_matches_pure_on_lattice_points(self):
        rng = random.Random(5)
        for n in (3, 4):
            N = n + 1
            pure = nahm.form_difference_pure(n, "Bprime")
            mixed = nahm.expand_form_difference(n, "Bprime")
            pairs = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]
            for _ in range(50):
                m = {p: rng.randrange(4) for p in pairs}
                lam = [sum(v for (s, l), v in m.items() if s <= i < l)
                       for i in range(1, N)]
                vals_p = {f"m[{i},{j}]": m[(i, j)] for (i, j) in pairs}
                vals_m = {f"m[{i},{j}]": m[(i, j)] for (i, j) in pairs if j > i + 1}
                vals_m.update({f"k{i}": lam[i - 1] for i in range(1, N)})
                assert _ev(pure, vals_p) == _ev(mixed, vals_m)

    @pytest.mark.parametrize("n", [3, 4])
    def test_six_type_table(self, n):
        rows = nahm.six_type_table(n, "Bprime")
        assert rows, "table must not be empty"
        for (typ, desc, coeff, expected) in rows:
            assert expected is not None
            assert coeff == expected, f"type {typ} {desc}"

    def test_cross_k_terms_vanish(self):
        for n in (3, 4, 5):
            assert all(v == 0 for v in nahm.cross_k_coefficients(n, "Bprime").values())
            assert all(v == 0 for v in nahm.cross_k_coefficients(n, "B").values())


def _level_sum_steps(spec, order, charges=False):
    """Distinct (d, s[d:], u, v) over the points of a plain DFS over the box
    of compute_bound, pruned by the bound of nahm._level_table: the exact
    exponent for an all-nonnegative form, the Fincke-Pohst bound for a
    positive-definite one; u is the running charge when charges is set."""
    bound = nahm.compute_bound(spec, order)
    G, levels, R, lin = nahm._level_table(spec, bound.strategy)
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


def _ev(poly, values):
    total = Fraction(0)
    for exps, c in poly.terms.items():
        t = c
        for name, e in zip(poly.variables, exps):
            if e:
                t *= Fraction(values[name]) ** e
        total += t
    return total
