import itertools
import math
import random

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from qident import forms, nahm, qweyl, series
from qident.halfint import twice_of
from qident.nahm import BudgetExceeded, CoercivityError
from qident.qweyl import LaurentQ, NCAlgebra, NCElement

from dilog_reference import (compare_upto, dilog_inv, generous_expansion, laurent_add,
                             laurent_mul, laurent_shifted, laurent_terms, reference_nc_eq,
                             reference_product, reference_product_form)


def a_type(nvars):
    return NCAlgebra.from_cartan(f"a{nvars + 1}")


class TestNormalOrder:
    def test_single_swap(self):
        p, exps = qweyl.normal_order(a_type(3), (2, 1))
        assert p == -1 and exps == (1, 1, 0)

    def test_segment_closed_form(self):
        # (x_{j-1}...x_i)^m = q^(-(j-i-1) m(m+1)/2) x_i^m ... x_{j-1}^m
        for n in (3, 4, 5):
            alg = a_type(n - 1)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    word = tuple(range(j - 1, i - 1, -1))
                    for m in range(6):
                        p, exps = qweyl.normal_order(alg, word, m)
                        assert 2 * p == -(j - i - 1) * m * (m + 1)
                        want = tuple(m if i <= g + 1 <= j - 1 else 0
                                     for g in range(n - 1))
                        assert exps == want

    def test_commuting_word_power_zero(self):
        alg = a_type(3)
        p, _ = qweyl.normal_order(alg, (3, 1, 3, 1))   # no adjacent indices
        assert p == 0

    def test_homomorphism_across_boundary(self):
        alg = a_type(3)
        u, v = (3, 1, 2), (2, 1)
        pu, eu = qweyl.normal_order(alg, u)
        pv, ev = qweyl.normal_order(alg, v)
        puv, _ = qweyl.normal_order(alg, u + v)
        cross = qweyl.word_cross(alg, u, v)
        assert puv == pu + pv + cross


class TestLaurent:
    def test_mul_validity_shrinks_with_negative_exponents(self):
        f = LaurentQ({-2: 1}, 10)        # q^{-1} known mod q^5
        g = LaurentQ({0: 1, 2: 1}, 10)
        h = f * g
        assert h.order2 == 8             # unknown tail of g enters at 10 + (-2)
        assert h.terms == {-2: 1, 0: 1}

    def test_compare_needs_validity(self):
        f = LaurentQ({0: 1}, 4)
        g = LaurentQ({0: 1}, 4)
        assert compare_upto(f, g, 4) is None
        with pytest.raises(qweyl.ValidityError):
            compare_upto(f, g, 6)


@st.composite
def _laurent(draw):
    """(terms, order2): exponents -6..9, all of one parity (a step-2 row)
    or of both, coefficients -3..3, order2 -4..14; zeros and terms past
    order2 make zero operands frequent."""
    if draw(st.booleans()):
        parity = draw(st.integers(0, 1))
        exps = st.integers(-3, 4).map(lambda k: 2 * k + parity)
    else:
        exps = st.integers(-6, 9)
    return draw(st.dictionaries(exps, st.integers(-3, 3), max_size=6)), draw(st.integers(-4, 14))


@st.composite
def _laurent_pairs(draw):
    """Two operands: the second is fresh, zero, the first negated (a sum
    that cancels), or the first negated with one term changed."""
    a = draw(_laurent())
    how = draw(st.sampled_from(("fresh", "fresh", "zero", "cancel", "near")))
    if how == "fresh":
        return a, draw(_laurent())
    order2 = draw(st.sampled_from((a[1], draw(st.integers(-4, 14)))))
    if how == "zero":
        return a, ({}, order2)
    terms = {e: -c for e, c in a[0].items()}
    if how == "near":
        terms[draw(st.integers(-6, 9))] = draw(st.integers(-3, 3))
    return a, (terms, order2)


class TestLaurentRows:
    """LaurentQ on series rows against the dict rules of
    dilog_reference: the same terms and the same order2 for products (an
    int scalar's too), sums and shifts, and every result's row canonical."""

    @staticmethod
    def _pair(c):
        assert c.row is None or series._trim(*c.row, c.order2) == c.row
        return dict(c.terms), c.order2

    @settings(max_examples=400, deadline=None)
    @given(_laurent_pairs(), st.integers(-3, 3), st.integers(-6, 6))
    # a step-2 row and a step-1 row whose sum cancels on the odd exponents
    @example((({0: 1, 2: 2}, 10), ({1: 1, 2: -2, 3: 1}, 9)), 2, -3)
    def test_agrees_with_dict_rules(self, pair, k, d2):
        refs = [laurent_terms(*t) for t in pair]
        (a, b), (ra, rb) = [LaurentQ(*t) for t in pair], refs
        for c, want in zip((a, b), refs):
            assert self._pair(c) == want
        for got, want in ((a * b, laurent_mul(ra, rb)), (b * a, laurent_mul(rb, ra)),
                          (a + b, laurent_add(ra, rb)), (b + a, laurent_add(rb, ra)),
                          (a * k, laurent_mul(ra, k)), (k * b, laurent_mul(rb, k)),
                          (-a, laurent_mul(ra, -1)), (a.shifted(d2), laurent_shifted(ra, d2))):
            assert self._pair(got) == want

    def test_cases(self):
        # x - x cancels to zero, valid through the lesser order
        s = LaurentQ({-1: 2, 4: 1}, 9) + LaurentQ({-1: -2, 4: -1}, 7)
        assert (s.row, s.terms, s.order2) == (None, {}, 7)
        # a zero side keeps the other's rule: 10 + min(-2, 0)
        p = LaurentQ.zero(6) * LaurentQ({-2: 1}, 10)
        assert (p.row, p.order2) == (None, 4)
        # both zero: the lesser order
        assert (LaurentQ.zero(6) * LaurentQ.zero(3)).order2 == 3
        # step 2 and step 1 mixed in one sum, step 1 kept only while an odd term is left
        s = LaurentQ({0: 1, 2: 2}, 10) + LaurentQ({1: 1, 2: 1}, 10)
        assert s.row == (0, 1, [1, 1, 3])
        assert (s + LaurentQ({1: -1}, 10)).row == (0, 2, [1, 3])


class TestNCElement:
    def test_single_swap_product(self):
        alg = a_type(2)
        x2 = NCElement(alg, 4, {(0, 1): LaurentQ({0: 1}, 20)})
        x1 = NCElement(alg, 4, {(1, 0): LaurentQ({0: 1}, 20)})
        p = x2 * x1
        assert p.terms[(1, 1)].terms == {-2: 1}   # q^{-1} x1 x2

    def test_commutator_of_one_plus_x(self):
        alg = a_type(2)
        order2 = 20
        one = NCElement.unit(alg, 4, order2)
        x1 = NCElement(alg, 4, {(1, 0): LaurentQ({0: 1}, order2)})
        x2 = NCElement(alg, 4, {(0, 1): LaurentQ({0: 1}, order2)})
        lhs = (one + x1) * (one + x2)
        rhs = (one + x2) * (one + x1)
        diff = lhs - rhs
        # (1 - q^{-1}) x1 x2
        assert set(diff.terms) == {(1, 1)}
        assert diff.terms[(1, 1)].terms == {0: 1, -2: -1}

    def test_unit_is_neutral(self):
        alg = a_type(3)
        order2 = 16
        one = NCElement.unit(alg, 5, order2)
        e = qweyl.dilog(alg, -1, Fraction(1, 2), (2, 1), 5, order2)
        assert qweyl.nc_eq(one * e, e, 5).equal
        assert qweyl.nc_eq(e * one, e, 5).equal

    def test_associativity_random(self):
        alg = a_type(3)
        rng = random.Random(3)
        order2 = 24

        def rand_elem():
            terms = {}
            for _ in range(4):
                exps = tuple(rng.randint(0, 2) for _ in range(3))
                if sum(exps) >= 4:
                    continue
                terms[exps] = LaurentQ({2 * rng.randint(-2, 3): rng.randint(-3, 3)},
                                       order2)
            return NCElement(alg, 4, terms)

        for _ in range(25):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            left = (a * b) * c
            right = a * (b * c)
            bound = min(x.order2 for e in (left, right)
                        for x in e.terms.values()) if left.terms or right.terms else 0
            assert qweyl.nc_eq(left, right, Fraction(bound, 2)).equal

    def test_render(self):
        alg = a_type(2)
        e = NCElement(alg, 5, {(2, 1): LaurentQ({-1: 1}, 10)})
        assert e.render() == "q^{-1/2}*x1^2*x2"
        e = NCElement(alg, 5, {(0, 0): LaurentQ({0: -1}, 10),
                               (1, 0): LaurentQ({-1: -1, 2: 1}, 10),
                               (0, 2): LaurentQ({2: -2}, 10),
                               (1, 1): LaurentQ({0: 1}, 10)})
        assert e.render() == "-1 + (-q^{-1/2} + q)*x1 - 2*q*x2^2 + x1*x2"
        assert NCElement(alg, 4).render() == "0"
        f = LaurentQ({-3: -1, -1: 2, 0: -1, 2: 1, 5: 3}, 10)
        assert f.render() == "-q^{-3/2} + 2*q^{-1/2} - 1 + q + 3*q^{5/2}"
        assert LaurentQ({-3: 1}, 10).render() == "q^{-3/2}"
        assert LaurentQ({}, 4).render() == "0"


class TestDilog:
    def test_constant_term_is_one(self):
        alg = a_type(2)
        for word in ((1,), (2, 1)):
            e = qweyl.dilog(alg, -1, Fraction(1, 2), word, 5, 30)
            zero = (0, 0)
            assert e.terms[zero].terms == {0: 1}

    def test_euler_expansion_shift_half(self):
        # phi(-q^(1/2) x) = sum q^(n^2/2) x^n / (q)_n
        alg = a_type(2)
        e = qweyl.dilog(alg, -1, Fraction(1, 2), (1,), 4, 40)
        from qident.series import inv_pochhammer_dense
        for n in range(4):
            coeff = e.terms[(n, 0)]
            base = n * n
            dense = inv_pochhammer_dense(n, (40 - base + 1) // 2)
            want = {base + 2 * k: c for k, c in enumerate(dense) if c and base + 2 * k < 40}
            assert coeff.terms == want

    def test_segment_collapse(self):
        # phi(-q^((j-i)/2) x_{j-1}..x_i) = sum q^((2-(j-i)) m^2/2) x_i^m..x_{j-1}^m/(q)_m
        alg = a_type(3)
        word = (3, 2, 1)
        e = qweyl.dilog(alg, -1, Fraction(3, 2), word, 7, 60)
        from qident.series import inv_pochhammer_dense
        for m in range(3):
            coeff = e.terms[(m, m, m)]
            base = (2 - 3) * m * m   # doubled: (2-(j-i)) m^2
            dense = inv_pochhammer_dense(m, 40)
            want = {base + 2 * k: c for k, c in enumerate(dense)
                    if c and base + 2 * k < coeff.order2}
            assert coeff.terms == want

    def test_dilog_times_inverse_is_one(self):
        alg = a_type(2)
        order2 = 30
        for sign, word in itertools.product((-1, 1), ((1,), (2,), (2, 1))):
            f = qweyl.dilog(alg, sign, Fraction(1, 2), word, 6, order2)
            g = dilog_inv(alg, sign, Fraction(1, 2), word, 6, order2)
            prod = f * g
            one = NCElement.unit(alg, 6, order2)
            assert qweyl.nc_eq(prod, one, 14).equal


class TestPentagon:
    def test_plain_small(self):
        assert qweyl.pentagon_check(2, 6).equal       # hand-expandable degree
        assert qweyl.pentagon_check(4, 12).equal

    def test_shifted_variant(self):
        assert qweyl.pentagon_check(4, 12, variant="shifted").equal

    def test_negative_control_fails_at_degree_two(self):
        r = qweyl.pentagon_check(4, 12, drop_middle=True)
        assert not r.equal
        assert r.mismatch.total_degree == 2
        assert r.mismatch.exps == (1, 1)

    def test_degree_one_reads_the_constant_term_alone(self):
        # below x-degree 1 each side is its constant term 1, a level sum over
        # the single box point lam = 0
        for variant, drop in (("plain", False), ("shifted", False), ("plain", True)):
            assert qweyl.pentagon_check(1, 5, variant=variant, drop_middle=drop).equal
            lhs, rhs = qweyl.pentagon_factors(variant, drop)
            for factors in (lhs, rhs):
                side = _side(_PLANE, lhs, factors, 1, 5)
                assert _coefficients(side) == {(0, 0): ({0: 1}, 10)}


class TestOrderedProduct:
    def test_a2_single_factor_each(self):
        v, factors = qweyl.ordered_product_check("a2", xdeg=4, qorder=10)
        assert v.equal
        assert len(factors) == 1

    def test_a3_is_pentagon_in_disguise(self):
        v, factors = qweyl.ordered_product_check("a3", xdeg=5, qorder=12)
        assert v.equal
        assert [w for (_s, _h, w) in factors] == [(1,), (2, 1), (2,)]

    def test_a4(self):
        v, _ = qweyl.ordered_product_check("a4", xdeg=4, qorder=10)
        assert v.equal

    def test_d4_has_twelve_factors_incl_nonsegment_word(self):
        v, factors = qweyl.ordered_product_check("d4", xdeg=5, qorder=15)
        assert v.equal
        assert len(factors) == 12
        assert (4, 3, 2, 1, 2) in [w for (_s, _h, w) in factors]


_PLANE = NCAlgebra([[0, 1], [-1, 0]])
_D4 = NCAlgebra.from_cartan("d4")


def _side(alg, lhs, factors, xdeg, qorder, budget=None):
    """product_side of factors under the shift of lhs."""
    return qweyl.product_side(alg, factors, qweyl._lhs_shift(alg, lhs, xdeg), xdeg, qorder,
                              budget)


class TestRefusals:
    """A product the level sum cannot decide is refused before any verdict."""

    @pytest.mark.parametrize("name", ["a4", "d4"])
    def test_reversed_rhs_is_not_coercive(self, name):
        alg = NCAlgebra.from_cartan(name)
        lhs, rhs = qweyl.ordered_product_factors(name)
        with pytest.raises(CoercivityError):
            qweyl._compare_products(alg, lhs, rhs[::-1], 5, 10, None)

    def test_sign_not_a_function_of_the_degree_vector(self):
        # phi(x1) signs its n-th term (-1)^n and phi(-x1) does not: both land
        # on x1^n, so no parity vector c gives the sign of a term
        lhs, _ = qweyl.pentagon_factors()
        with pytest.raises(ValueError, match="signs"):
            _side(_PLANE, lhs, [(1, 0, (1,)), (-1, 0, (1,))], 4, 6)

    @pytest.mark.parametrize("lhs", [
        [(1, 0, (1,))],                                     # x2 has no factor
        [(1, 0, (1,)), (1, 0, (1,))],                       # x1 twice
        [(1, 0, (1, 2)), (1, 0, (2,))],                     # a word of two letters
        [(1, 0, (1,)), (-1, 0, (2, 1)), (1, 0, (2,))],      # the pentagon's right side
    ])
    def test_lhs_needs_one_single_generator_factor_per_generator(self, lhs):
        _, rhs = qweyl.pentagon_factors()
        with pytest.raises(ValueError, match="single-generator"):
            qweyl._compare_products(_PLANE, lhs, rhs, 4, 6, None)


def _factor_cases(type_a_ranks):
    for variant, drop in (("plain", False), ("shifted", False), ("plain", True)):
        lhs, rhs = qweyl.pentagon_factors(variant, drop)
        yield f"pentagon-{variant}{'-control' if drop else ''}", _PLANE, lhs, rhs
    for n in type_a_ranks:
        lhs, rhs = qweyl.ordered_product_factors(f"a{n}")
        yield f"a{n}", NCAlgebra.from_cartan(f"a{n}"), lhs, rhs
    lhs, rhs = qweyl.ordered_product_factors("d4")
    yield "d4", _D4, lhs, rhs


PADDING_CASES = list(_factor_cases((3, 4, 5)))

# the level-sum steps of each side (lhs, rhs) at x-degree 4 and q^6
_SIDE_STEPS = {"pentagon-plain": (14, 23), "pentagon-shifted": (14, 23),
               "pentagon-plain-control": (14, 14), "a3": (14, 23), "a4": (34, 72),
               "a5": (69, 178), "d4": (69, 182)}


def _coefficients(elem):
    return {exps: (c.terms, c.order2) for exps, c in elem.terms.items()}


class TestPadding:
    """Each side is summed at qorder plus the largest G of the box, so that
    every coefficient, moved down by its own G, is valid through qorder."""

    @pytest.mark.parametrize("name,alg,lhs,rhs", PADDING_CASES,
                             ids=[c[0] for c in PADDING_CASES])
    def test_exact_padding_against_generous(self, name, alg, lhs, rhs):
        form = _lhs_form(alg, lhs)
        for xdeg, qorder in ((1, 3), (2, 5), (3, 4), (4, 9), (5, 6)):
            bound2 = twice_of(qorder)
            shift = qweyl._lhs_shift(alg, lhs, xdeg)
            twice = shift[2]
            # 2G(lam) at every point lam >= 0, sum(lam) < xdeg of the box
            assert len(twice) == math.comb(xdeg - 1 + alg.generator_count, xdeg - 1)
            for lam, e2 in twice.items():
                assert e2 == 2 * (_cartan_half(alg, lam) - form.exponent(lam)), (name, lam)
            padded = qweyl._side_order2(shift, qorder)
            assert padded == bound2 + max(twice.values())
            for factors in (lhs, rhs):
                want = generous_expansion(alg, factors, xdeg, qorder)
                got = qweyl.product_side(alg, factors, shift, xdeg, qorder)
                # each coefficient valid through the padded order less its G,
                # which is never below qorder
                for exps, c in got.terms.items():
                    assert c.order2 == padded - twice[exps] >= bound2, (name, exps)
                for exps in set(got.terms) | set(want.terms):
                    g, w = got.coefficient(exps), want.coefficient(exps)
                    assert compare_upto(g, w, bound2) is None, (name, xdeg, qorder, exps)

    @pytest.mark.parametrize("name,alg,lhs,rhs", PADDING_CASES,
                             ids=[c[0] for c in PADDING_CASES])
    def test_budget_counts_level_sum_steps(self, name, alg, lhs, rhs):
        xdeg, qorder = 4, 6
        for factors, steps in zip((lhs, rhs), _SIDE_STEPS[name]):
            _side(alg, lhs, factors, xdeg, qorder, budget=steps)
            with pytest.raises(BudgetExceeded, match="level-sum steps"):
                _side(alg, lhs, factors, xdeg, qorder, budget=steps - 1)


def _cartan_half(alg, lam):
    """(1/2) lam^T C lam, C = 2I - |eps|."""
    return Fraction(sum(x * y * (2 * (i == j) - abs(alg.eps[i][j]))
                        for i, x in enumerate(lam) for j, y in enumerate(lam)), 2)


def _lhs_form(alg, lhs):
    """The exponent form of the left side over the lam coordinates."""
    names = [f"l{i}" for i in range(alg.generator_count)]
    return reference_product_form(alg, [(sh, w, names[w[0] - 1]) for _s, sh, w in lhs], names)


PRODUCT_CASES = list(_factor_cases((2, 3, 4, 5, 6)))


def _assert_matches_reference(a, b):
    """a * b has the reference's monomials, terms and order2; returns it."""
    got, want = a * b, reference_product(a, b)
    assert got.xdeg == want.xdeg
    assert _coefficients(got) == _coefficients(want)
    return got


_COMMUTING = NCAlgebra([[0, 0], [0, 0]])
_ALGEBRAS = (_PLANE, _COMMUTING, NCAlgebra([[0, -2], [2, 0]]))
_COEFFS = st.builds(LaurentQ,
                    st.dictionaries(st.integers(-6, 9), st.integers(-2, 2), max_size=4),
                    st.integers(-4, 12))
_ELEMS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _COEFFS,
                         max_size=5)


class TestProductAgainstReference:
    """Each level-sum side against the dilog() factors multiplied by the
    pairwise reference product, term for term below qorder; and
    NCElement.__mul__ against that reference product, coefficient by
    coefficient, in terms and in order2."""

    @pytest.mark.parametrize("name,alg,lhs,rhs", PRODUCT_CASES,
                             ids=[c[0] for c in PRODUCT_CASES])
    def test_factor_lists(self, name, alg, lhs, rhs):
        for xdeg, qorder in ((1, 4), (2, 5), (4, 9), (5, 6), (8, 4)):
            bound2 = twice_of(qorder)
            shift = qweyl._lhs_shift(alg, lhs, xdeg)
            for factors in (lhs, rhs):
                order2 = bound2 + 2 * xdeg * xdeg + 8
                elems = [qweyl.dilog(alg, s, sh, w, xdeg, order2) for (s, sh, w) in factors]
                want = elems[0]
                for elem in elems[1:]:
                    want = (_assert_matches_reference(want, elem) if xdeg < 8
                            else reference_product(want, elem))
                got = qweyl.product_side(alg, factors, shift, xdeg, qorder)
                assert got.xdeg == xdeg
                for exps in set(got.terms) | set(want.terms):
                    assert compare_upto(got.coefficient(exps), want.coefficient(exps),
                                        bound2) is None, (name, xdeg, qorder, exps)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_ALGEBRAS), _ELEMS, _ELEMS, st.integers(1, 5))
    # (1,1) cancels to zero: x1*x2 - x2*x1 in commuting variables
    @example(_COMMUTING, {(1, 0): LaurentQ({0: 1}, 10), (0, 1): LaurentQ({0: 1}, 10)},
             {(0, 1): LaurentQ({0: 1}, 10), (1, 0): LaurentQ({0: -1}, 10)}, 3)
    # at (1,0) the piece q^3 * q^3 lies past the order q^4 that q^-1 * 1 sets
    @example(_COMMUTING, {(0, 0): LaurentQ({-2: 1}, 8), (1, 0): LaurentQ({6: 1}, 10)},
             {(1, 0): LaurentQ({0: 1}, 10), (0, 0): LaurentQ({6: 1}, 10)}, 3)
    # x1*x2 has one piece, q^(1/2) * q, and it is not below its order q^(3/2)
    @example(_PLANE, {(1, 0): LaurentQ({1: 1}, 3)}, {(0, 1): LaurentQ({2: 1}, 10)}, 3)
    def test_random_elements(self, alg, a_terms, b_terms, xdeg):
        a = NCElement(alg, xdeg, a_terms)
        b = NCElement(alg, xdeg, b_terms)
        _assert_matches_reference(a, b)

    def test_cancelling_and_past_order_pieces(self):
        a = NCElement(_COMMUTING, 3, {(1, 0): LaurentQ({0: 1}, 10), (0, 1): LaurentQ({0: 1}, 10)})
        b = NCElement(_COMMUTING, 3, {(0, 1): LaurentQ({0: 1}, 10), (1, 0): LaurentQ({0: -1}, 10)})
        got = _assert_matches_reference(a, b)
        assert (1, 1) not in got.terms and got.terms[(2, 0)].terms == {0: -1}
        a = NCElement(_COMMUTING, 3, {(0, 0): LaurentQ({-2: 1}, 8), (1, 0): LaurentQ({6: 1}, 10)})
        b = NCElement(_COMMUTING, 3, {(1, 0): LaurentQ({0: 1}, 10), (0, 0): LaurentQ({6: 1}, 10)})
        got = _assert_matches_reference(a, b)
        assert _coefficients(got)[(1, 0)] == ({-2: 1}, 8)
        a = NCElement(_PLANE, 3, {(1, 0): LaurentQ({1: 1}, 3)})
        b = NCElement(_PLANE, 3, {(0, 1): LaurentQ({2: 1}, 10)})
        assert _assert_matches_reference(a, b).terms == {}


# phi(q^(1/2) x1) phi(x1) = prod_j (1 - q^(j/2) x1): its x1 coefficient mixes parities
_MIXED = [(1, Fraction(1, 2), (1,)), (1, 0, (1,))]


class TestParityGrid:
    """A side's rows are on step 2 where every coefficient holds exponents
    of one parity, so that nc_eq compares two sides as list slices, and on
    step 1 where a coefficient mixes them."""

    def test_mixed_parities_fall_back_to_step_one(self):
        xdeg, qorder = 3, 4
        lhs, _ = qweyl.pentagon_factors()
        got = _side(_PLANE, lhs, _MIXED, xdeg, qorder)
        x1 = got.terms[(1, 0)]
        assert x1.row[1] == 1
        assert {e: c for e, c in x1.terms.items() if e < 8} == {e: -1 for e in range(8)}
        want = generous_expansion(_PLANE, _MIXED, xdeg, qorder)
        assert set(got.terms) == set(want.terms)
        for exps in want.terms:
            assert compare_upto(got.coefficient(exps), want.coefficient(exps),
                                twice_of(qorder)) is None

    @pytest.mark.parametrize("name,alg,lhs,rhs", PRODUCT_CASES,
                             ids=[c[0] for c in PRODUCT_CASES])
    def test_shipped_factor_lists_stay_on_step_two(self, name, alg, lhs, rhs):
        for xdeg, qorder in ((2, 5), (5, 12), (7, 20)):
            for factors in (lhs, rhs):
                got = _side(alg, lhs, factors, xdeg, qorder)
                assert {c.row[1] for c in got.terms.values()} == {2}, (name, xdeg, qorder)


class TestLhsClosedForm:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_descending_product_expands_to_character_sum(self, n):
        """phi(-q^(1/2)x_{n-1})...phi(-q^(1/2)x_1) has coefficient
        q^((1/2)sum k_i^2 - sum k_i k_{i+1}) / prod (q)_{k_i} at each normal
        monomial x^k: the displayed closed form for the chain algebra."""
        from qident import kernels
        from qident.series import inv_pochhammer_dense

        alg = NCAlgebra.from_cartan(f"a{n}")
        lhs_f, _ = qweyl.ordered_product_factors(f"a{n}")
        xdeg, qorder = 5, 12
        elem = _side(alg, lhs_f, lhs_f, xdeg, qorder)
        assert len(elem.terms) == math.comb(xdeg - 1 + n - 1, n - 1)
        for exps, coeff in elem.terms.items():
            base2 = sum(k * k for k in exps) \
                - 2 * sum(exps[i] * exps[i + 1] for i in range(len(exps) - 1))
            length = max((coeff.order2 - base2 + 1) // 2, 1)
            dense = [1]
            for k in exps:
                dense = kernels.conv_trunc(dense, inv_pochhammer_dense(k, length),
                                           length)
            want = {base2 + 2 * i: c for i, c in enumerate(dense)
                    if c and base2 + 2 * i < coeff.order2}
            assert coeff.terms == want, f"monomial {exps}"


class TestChargeWord:
    def test_zero_input(self):
        E, exps = qweyl.extract_E(3, {(1, 2): 0, (1, 3): 0, (2, 3): 0})
        assert E == 0 and exps == (0, 0)

    def test_exponents_equal_lambda_random(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(2, 5)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            m = {p: rng.randint(0, 3) for p in pairs}
            _E, exps = qweyl.extract_E(n, m)
            vec = tuple(m[p] for p in pairs)
            assert exps == nahm.build_B_form(n).charge_of(vec)

    def test_equals_normal_ordering_of_the_spelled_word(self):
        # F letter by letter: for j = 2..n and i = 1..j-1, x_i^(m_ij) ... x_{j-1}^(m_ij)
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(2, 6)
            m = {p: rng.randint(0, 3) for p in nahm.a_pairs(n)}
            word = [g for j in range(2, n + 1) for i in range(1, j)
                    for g in range(i, j) for _ in range(m[(i, j)])]
            if not word:
                continue
            alg = NCAlgebra.from_cartan(f"a{n}")
            assert qweyl.extract_E(n, m) == qweyl.normal_order(alg, word)

    def test_pointwise_identity_exhaustive_n3(self):
        for vals in itertools.product(range(4), repeat=3):
            m = dict(zip([(1, 2), (1, 3), (2, 3)], vals))
            assert qweyl.charge_word_identity_holds(3, m)

    def test_pointwise_identity_random_n5(self):
        rng = random.Random(11)
        pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
        form = nahm.build_Bprime_form(5)
        for _ in range(100):
            m = {p: rng.randint(0, 3) for p in pairs}
            assert qweyl.charge_word_identity_holds(5, m, form)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symbolic_identity(self, n):
        # C + E + (1/2) sum lambda_i^2 == B'  as tables
        E, form = qweyl.extract_E_form(n), nahm.build_Bprime_form(n)
        half = forms._congruent([[Fraction(i == j, 2) for j in range(n - 1)] for i in range(n - 1)],
                               form.charges)
        C = [Fraction(2 - (j - i), 2) for i, j in nahm.a_pairs(n)]
        total = [[e + h + (C[a] if a == b else 0) for b, (e, h) in enumerate(zip(re, rh))]
                 for a, (re, rh) in enumerate(zip(E.quad, half))]
        assert E.labels == form.labels
        assert total == [list(row) for row in form.quad]
        assert E.linear == form.linear

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_E_form_is_the_normal_ordering_of_the_spelled_word(self, n):
        # F letter by letter: for j = 2..n and i = 1..j-1, x_i^(m_ij) ... x_{j-1}^(m_ij)
        E = qweyl.extract_E_form(n)
        alg = NCAlgebra.from_cartan(f"a{n}")
        rng = random.Random(n)
        for _ in range(40):
            m = {p: rng.randint(0, 3) for p in nahm.a_pairs(n)}
            word = [g for j in range(2, n + 1) for i in range(1, j)
                    for g in range(i, j) for _ in range(m[(i, j)])]
            want = qweyl.normal_order(alg, word)[0] if word else 0
            assert E.exponent([m[p] for p in nahm.a_pairs(n)]) == want


class TestD4Transcription:
    def test_product_exponent_matches_displayed_form(self):
        """The 12-factor product exponent equals B(m,n) - (1/2) sum lambda^2
        under the root dictionary; validates both the factor list and the
        54-term form transcription at once."""
        alg = NCAlgebra.from_cartan("d4")
        _, rhs = qweyl.ordered_product_factors("d4")
        word_to_label = {
            (1,): "m12", (2, 1): "m13", (4, 2, 1): "n14", (3, 2, 1): "m14",
            (2,): "m23", (4, 3, 2, 1, 2): "n12", (4, 3, 2, 1): "n13",
            (4, 2): "n24", (3, 2): "m24", (4, 3, 2): "n23",
            (3,): "m34", (4,): "n34",
        }
        names = nahm.d4_labels()
        factors = [(sh, w, word_to_label[w]) for (_s, sh, w) in rhs]
        P = qweyl.dilog_product_form(alg, factors, names)
        spec = nahm.build_d4_form()
        half = forms._congruent([[Fraction(i == j, 2) for j in range(4)] for i in range(4)],
                               spec.charges)
        assert P.labels == spec.labels
        assert [list(row) for row in P.quad] == [[a - b for a, b in zip(ra, rb)]
                                                 for ra, rb in zip(spec.quad, half)]
        assert P.linear == spec.linear

    @pytest.mark.parametrize("name", ["a3", "a4", "a5", "d4"])
    def test_product_forms_match_the_spelled_product(self, name):
        # the exponent of prod phi(-q^(s_t) w_t) at m: sum m_t^2/2 + m_t (s_t - 1/2),
        # plus the normal-ordering power of the word w_1^(m_1) w_2^(m_2) ...
        alg = NCAlgebra.from_cartan(name)
        rng = random.Random(name)
        for side in qweyl.ordered_product_factors(name):
            names = [f"t{t}" for t in range(len(side))]
            P = qweyl.dilog_product_form(alg, [(s, w, v) for (_c, s, w), v in zip(side, names)],
                                         names)
            for _ in range(40):
                m = [rng.randint(0, 3) for _ in side]
                word = [g for (_c, _s, w), mt in zip(side, m) for _ in range(mt) for g in w]
                want = sum(Fraction(mt * mt, 2) + mt * (s - Fraction(1, 2))
                           for (_c, s, _w), mt in zip(side, m))
                assert P.exponent(m) == want + (qweyl.normal_order(alg, word)[0] if word else 0)


def _spelled_exponent2(alg, factors, m):
    """Twice the exponent of prod phi(-q^(s_t) w_t) at m: sum m_t^2 +
    m_t (2 s_t - 1), plus twice the normal-ordering power of the spelled
    word w_1^(m_1) w_2^(m_2) ..."""
    word = [g for (_c, _s, w), mt in zip(factors, m) for _ in range(mt) for g in w]
    return (sum(mt * mt + mt * (twice_of(s) - 1) for (_c, s, _w), mt in zip(factors, m))
            + 2 * (qweyl.normal_order(alg, word)[0] if word else 0))


def _spelled_ints(alg, factors):
    """The (four, lin2) tables of the product's exponent form, read off the
    spelled product at m = e_t, 2 e_t and e_t + e_u."""
    n = len(factors)

    def at(*ts):
        return _spelled_exponent2(alg, factors, [ts.count(t) for t in range(n)])

    one = [at(t) for t in range(n)]
    diag2 = [(at(t, t) - 2 * one[t]) // 2 for t in range(n)]
    cross2 = [[2 * diag2[t] if t == u else at(t, u) - one[t] - one[u] for u in range(n)]
              for t in range(n)]
    return tuple(map(tuple, cross2)), tuple(o - d for o, d in zip(one, diag2))


def _random_product(seed):
    """An antisymmetric eps over 2-4 generators and 1-6 factors with random
    signs, half-integer shifts and words of 1-5 letters, repeats allowed."""
    rng = random.Random(seed)
    g = rng.randint(2, 4)
    eps = [[0] * g for _ in range(g)]
    for a, b in itertools.combinations(range(g), 2):
        eps[a][b] = rng.randint(-2, 2)
        eps[b][a] = -eps[a][b]
    return NCAlgebra(eps), [(rng.choice((1, -1)), Fraction(rng.randint(-3, 5), 2),
                             tuple(rng.randint(1, g) for _ in range(rng.randint(1, 5))))
                            for _ in range(rng.randint(1, 6))]


TABLE_CASES = list(_factor_cases(range(2, 10)))


class TestProductTables:
    """The integer tables of every product form (qweyl._product_tables, and
    the four and lin2 of dilog_product_form over them) against the Fraction
    builder reference_product_form and against the spelled product, entry
    for entry."""

    @staticmethod
    def _check(alg, factors):
        names = [f"t{t}" for t in range(len(factors))]
        named = [(s, w, v) for (_c, s, w), v in zip(factors, names)]
        got = qweyl.dilog_product_form(alg, named, names)
        assert got == reference_product_form(alg, named, names)
        assert (got.four, got.lin2) == _spelled_ints(alg, factors)
        betas, four, lin2 = qweyl._product_tables(alg, factors)
        assert (tuple(map(tuple, four)), tuple(lin2)) == (got.four, got.lin2)
        assert betas == [qweyl.normal_order(alg, w)[1] for _c, _s, w in factors]
        # the same tables summed onto reversed names, and onto two shared names
        shared = [(s, w, f"v{t % 2}") for t, (_c, s, w) in enumerate(factors)]
        for named, names in ((named, names[::-1]), (shared, ["v0", "v1"])):
            assert (qweyl.dilog_product_form(alg, named, names)
                    == reference_product_form(alg, named, names))

    @pytest.mark.parametrize("name,alg,lhs,rhs", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
    def test_shipped_factor_lists(self, name, alg, lhs, rhs):
        for factors in (lhs, rhs):
            self._check(alg, factors)

    def test_d4_repeated_letter_word(self):
        # x2 twice in one word: its own cross power and its crossings with x2
        _, rhs = qweyl.ordered_product_factors("d4")
        word = [f for f in rhs if f[2] == (4, 3, 2, 1, 2)]
        assert len(word) == 1
        for factors in (word, word + [(-1, Fraction(1, 2), (2,))], [(-1, 0, (2,))] + word * 2):
            self._check(_D4, factors)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_words(self, seed):
        self._check(*_random_product(seed))


class TestCanonicalRows:
    """product_side hands each level-sum row over untrimmed: every
    coefficient is a canonical row below its order2, and that order reaches
    qorder."""

    @pytest.mark.parametrize("name,alg,lhs,rhs", PRODUCT_CASES,
                             ids=[c[0] for c in PRODUCT_CASES])
    def test_rows_are_canonical(self, name, alg, lhs, rhs):
        for xdeg, qorder in ((2, 5), (5, Fraction(23, 2)), (6, 16)):
            for factors in (lhs, rhs):
                got = _side(alg, lhs, factors, xdeg, qorder)
                assert got.terms
                for exps, c in got.terms.items():
                    assert series._trim(*c.row, c.order2) == c.row, (name, xdeg, exps)
                    assert c.order2 >= twice_of(qorder), (name, xdeg, exps)


# -- rows: the coefficient representation, its view and its comparison ---------

def _regrid(row, lower, spread, tail):
    """The same coefficient on another grid: its low2 moved down by lower
    slots, a step-2 row spread to step 1 when spread, tail zeros appended."""
    low2, step, coeffs, order2 = row
    if spread and step == 2:
        wide = [0] * (2 * len(coeffs))
        wide[::2] = coeffs
        coeffs, step = wide, 1
    coeffs = [0] * lower + coeffs + [0] * tail
    low2 -= lower * step
    return low2, step, coeffs, max(order2, low2 + step * len(coeffs))


@st.composite
def _rows(draw):
    """A row (low2, step, coeffs, order2), every slot below order2; zeros are
    frequent, so all-zero rows are too."""
    low2, step = draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2)))
    coeffs = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2)), min_size=1, max_size=6))
    return low2, step, coeffs, low2 + step * len(coeffs) + draw(st.integers(1 - step, 6))


_MONOMIALS = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def _row_pairs(draw):
    """(rows of a, rows of b, xdeg of a, xdeg of b, qorder): b's row at each
    monomial of a is a's, a's on another grid, a's list on the other step,
    a's with one slot changed, an all-zero row, a fresh row or none, and b
    may hold monomials a lacks."""
    rows_a = draw(st.dictionaries(_MONOMIALS, _rows(), min_size=1, max_size=5))
    rows_b = draw(st.dictionaries(_MONOMIALS, _rows(), max_size=2))
    for exps, row in rows_a.items():
        how = draw(st.sampled_from(("same", "regrid", "regrid", "restep", "changed", "changed",
                                    "zero", "fresh", "absent")))
        low2, step, coeffs, order2 = row
        if how == "same":
            rows_b[exps] = row
        elif how == "regrid":
            rows_b[exps] = _regrid(row, draw(st.integers(0, 2)), draw(st.booleans()),
                                   draw(st.integers(0, 2)))
        elif how == "restep":
            rows_b[exps] = low2, 3 - step, coeffs, max(order2, low2 + (3 - step) * len(coeffs))
        elif how == "changed" and coeffs:
            i = draw(st.integers(0, len(coeffs) - 1))
            changed = list(coeffs)
            changed[i] += draw(st.sampled_from((-1, 1, 3)))
            rows_b[exps] = low2, step, changed, order2
        elif how == "zero":
            rows_b[exps] = low2, step, [0] * len(coeffs), order2
        elif how == "fresh":
            rows_b[exps] = draw(_rows())
        else:
            rows_b.pop(exps, None)
    return (rows_a, rows_b, draw(st.integers(2, 6)), draw(st.integers(2, 6)),
            Fraction(draw(st.integers(-6, 20)), 2))


def _verdict(compare, a, b, qorder):
    try:
        return compare(a, b, qorder)
    except qweyl.ValidityError:
        return "ValidityError"


class TestRowCompare:
    """nc_eq on rows against reference_nc_eq on the LaurentQ view: the same
    verdict, the same first mismatch (monomial, q-exponent and both
    coefficients), and ValidityError in the same cases."""

    @staticmethod
    def _check(rows_a, rows_b, xdeg_a, xdeg_b, qorder):
        """nc_eq of the elements of these rows against reference_nc_eq of
        the elements of their LaurentQ coefficients; returns the verdict."""
        def laurent(row):
            low2, step, coeffs, order2 = row
            return LaurentQ({low2 + step * i: c for i, c in enumerate(coeffs)}, order2)

        got = _verdict(qweyl.nc_eq, *(
            NCElement(_PLANE, x, {e: LaurentQ._from_row(low2, coeffs, order2, step)
                                  for e, (low2, step, coeffs, order2) in rows.items()})
            for rows, x in ((rows_a, xdeg_a), (rows_b, xdeg_b))), qorder)
        want = _verdict(reference_nc_eq, *(
            NCElement(_PLANE, x, {e: laurent(r) for e, r in rows.items()})
            for rows, x in ((rows_a, xdeg_a), (rows_b, xdeg_b))), qorder)
        assert got == want
        return got

    @settings(max_examples=300, deadline=None)
    @given(_row_pairs())
    # x1 only on one side: its coefficient 1 at q^(-1/2) against none
    @example(({(1, 0): (-1, 2, [1], 10)}, {(0, 0): (0, 2, [1], 10)}, 3, 3, 4))
    # an all-zero row counts as no row, on either side
    @example(({(0, 1): (0, 2, [0, 0], 10)}, {}, 3, 3, 4))
    # one coefficient on step-2 and step-1 grids from different low2
    @example(({(1, 1): (0, 2, [1, 0, 3], 10)}, {(1, 1): (-2, 1, [0, 0, 1, 0, 0, 0, 3], 9)},
              3, 3, 4))
    # x2 is absent from a, whose least order2 (6, at x1) is its validity
    @example(({(0, 0): (0, 2, [1], 20), (1, 0): (0, 2, [1], 6)},
              {(0, 0): (0, 2, [1], 20), (0, 1): (0, 2, [1], 20), (1, 0): (0, 2, [1], 20)},
              3, 3, 4))
    # the least order2 of a sits at a monomial past b's x-degree
    @example(({(0, 0): (0, 2, [1], 20), (2, 0): (0, 2, [1], 6)},
              {(0, 0): (0, 2, [1], 20), (0, 1): (0, 2, [2], 20)}, 3, 2, 2))
    def test_agrees_with_reference(self, case):
        self._check(*case)

    def test_cases(self):
        one = (0, 2, [1], 20)
        # only one side has x1x2; the other side's coefficient is 0
        got = self._check({(0, 0): one, (1, 1): (-2, 2, [1], 20)}, {(0, 0): one}, 4, 4, 5)
        assert got.mismatch == qweyl.NCMismatch((1, 1), Fraction(-1), 1, 0)
        # an all-zero row is no row: equal
        assert self._check({(0, 0): one, (1, 0): (0, 2, [0, 0], 20)}, {(0, 0): one}, 4, 4, 5)
        # one coefficient on two grids: equal; a changed slot: mismatch there
        assert self._check({(1, 0): (0, 2, [1, 0, 3], 20)},
                           {(1, 0): (-2, 1, [0, 0, 1, 0, 0, 0, 3, 0], 20)}, 4, 4, 5)
        got = self._check({(1, 0): (0, 2, [1, 0, 3], 20)},
                          {(1, 0): (-2, 1, [0, 0, 1, 0, 0, 0, 2], 20)}, 4, 4, 5)
        assert got.mismatch == qweyl.NCMismatch((1, 0), Fraction(2), 3, 2)
        # one list from one low2 on two steps is two coefficients
        got = self._check({(1, 0): (0, 2, [1, 0, 3], 20)}, {(1, 0): (0, 1, [1, 0, 3], 20)},
                          4, 4, 5)
        assert got.mismatch == qweyl.NCMismatch((1, 0), Fraction(1), 0, 3)
        # past the q-order nothing is read
        assert self._check({(1, 0): (0, 2, [1, 0, 3], 20)},
                           {(1, 0): (0, 2, [1, 0, 2], 20)}, 4, 4, 2)
        # x2, absent from a, is valid only through a's least order2
        a = {(0, 0): one, (1, 0): (0, 2, [1], 6)}
        b = {(0, 0): one, (0, 1): (0, 2, [1], 20), (1, 0): (0, 2, [1], 20)}
        assert self._check(a, b, 4, 4, 4) == "ValidityError"
        assert self._check(a, b, 4, 4, 3).mismatch.exps == (0, 1)


_VIEW_PRODUCTS = [
    ("pentagon-plain", _PLANE, qweyl.pentagon_factors("plain"), 9, 32),
    ("pentagon-shifted", _PLANE, qweyl.pentagon_factors("shifted"), 8, 24),
    ("pentagon-control", _PLANE, qweyl.pentagon_factors("plain", True), 6, 20),
    *((f"a{n}", NCAlgebra.from_cartan(f"a{n}"), qweyl.ordered_product_factors(f"a{n}"), 6, 20)
      for n in range(2, 7)),
    ("d4", _D4, qweyl.ordered_product_factors("d4"), 7, 20),
]


def _row_dicts(elem):
    """{monomial: (terms, order2)} read off each coefficient's row (first,
    step, coeffs) slot by slot."""
    out = {}
    for exps, c in elem.terms.items():
        first, step, coeffs = c.row
        out[exps] = ({first + step * i: x for i, x in enumerate(coeffs) if x}, c.order2)
    return out


class TestRowView:
    @pytest.mark.parametrize("name,alg,sides,xdeg,qorder", _VIEW_PRODUCTS,
                             ids=[c[0] for c in _VIEW_PRODUCTS])
    def test_terms_view_of_shipped_products(self, name, alg, sides, xdeg, qorder):
        lhs = sides[0]
        for factors in sides:
            got = _side(alg, lhs, factors, xdeg, qorder)
            assert _coefficients(got) == _row_dicts(got)

    def test_reference_elements_round_trip(self):
        """Elements of NCElement.__mul__, dilog and dilog_inv hold the rows
        that the dict constructor builds again from their terms view."""
        for alg, (lhs, rhs), xdeg in ((_PLANE, qweyl.pentagon_factors("shifted"), 6),
                                      (_D4, qweyl.ordered_product_factors("d4"), 4)):
            elems = [qweyl.dilog(alg, *f, xdeg, 24) for f in lhs]
            elems += [dilog_inv(alg, *f, xdeg, 24) for f in rhs]
            elems.append(elems[0] * elems[-1])
            for elem in elems:
                again = NCElement(alg, xdeg, {e: LaurentQ(dict(c.terms), c.order2)
                                              for e, c in elem.terms.items()})
                assert _coefficients(again) == _coefficients(elem)
                assert [c.row for c in again.terms.values()] == [
                    c.row for c in elem.terms.values()]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_ALGEBRAS), _ELEMS, st.integers(1, 5))
    def test_laurent_coefficients_convert_exactly(self, alg, terms, xdeg):
        elem = NCElement(alg, xdeg, terms)
        assert _coefficients(elem) == {tuple(e): (c.terms, c.order2) for e, c in terms.items()
                                       if sum(e) < xdeg and c.terms}
