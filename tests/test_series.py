import operator

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qident import nahm, series
from qident.halfint import twice_of
from qident.series import (
    ChargeRankMismatch,
    Mismatch,
    QSeries,
    TruncationError,
    euler_product,
    inv_pochhammer,
    inv_pochhammer_dense,
    pochhammer,
    series_eq,
    series_leq,
)


def qs(order, terms, rank=0):
    return QSeries(order, rank, terms)


def u(order, **coeffs):
    """Uncharged series from integer exponents: u(10, e0=1, e2=-1)."""
    return QSeries(order, 0, {(int(k[1:]), ()): v for k, v in coeffs.items()})


from series_reference import (
    charge_slice,
    charges_dropped,
    reference_add,
    reference_eq,
    reference_leq,
    reference_mul,
    reference_render,
    truncation_order,
)


def test_twice_of():
    assert twice_of(2) == 4
    assert twice_of(Fraction(5, 2)) == 5
    with pytest.raises(ValueError):
        twice_of(Fraction(1, 3))


class TestAddMul:
    def test_add_cancellation(self):
        a = u(10, e0=1, e1=1)
        b = u(10, e0=1, e1=-1)
        assert (a + b).terms == {(0, ()): 2}

    def test_add_half_exponents(self):
        h = QSeries(5, 0, {(Fraction(1, 2), ()): 1})
        s = h + h
        assert s.coeff(Fraction(1, 2)) == 2

    def test_add_truncates_to_min_order(self):
        a = u(5, e0=1)
        b = u(8, e0=1, e6=7)
        s = a + b
        assert truncation_order(s) == 5
        assert (6, ()) not in s.terms

    def test_mul_difference_of_squares(self):
        assert ((u(10, e0=1, e1=1) * u(10, e0=1, e1=-1)).terms
                == {(0, ()): 1, (4, ()): -1})

    def test_geometric_inverse(self):
        geom = QSeries(10, 0, {(k, ()): 1 for k in range(10)})
        one_minus_q = u(10, e0=1, e1=-1)
        assert (one_minus_q * geom).is_one()

    def test_charge_monomials_multiply(self):
        a = QSeries(10, 2, {(1, (1, 0)): 1})
        b = QSeries(10, 2, {(2, (0, 3)): 2})
        p = a * b
        assert p.terms == {(6, (1, 3)): 2}

    def test_charge_rank_mismatch(self):
        with pytest.raises(ChargeRankMismatch):
            qs(5, {(0, (1,)): 1}, rank=1) + u(5, e0=1)
        with pytest.raises(ChargeRankMismatch):
            qs(5, {(0, (1,)): 1}, rank=1) * u(5, e0=1)

    @pytest.mark.parametrize("coeff", [1, 0])
    def test_every_key_is_checked_whatever_its_coefficient(self, coeff):
        with pytest.raises(ChargeRankMismatch):
            qs(5, {(-1, (0, 0)): coeff}, rank=1)
        with pytest.raises(ValueError, match="negative q-exponent"):
            qs(5, {(-1, (0,)): coeff}, rank=1)
        with pytest.raises(ValueError):
            qs(5, {(Fraction(1, 3), ()): coeff})
        assert qs(5, {(1, ()): 0, (2, ()): 3}).terms == {(4, ()): 3}


class TestCoeff:
    def test_basic(self):
        s = u(5, e0=1, e1=2)
        assert s.coeff(1) == 2
        assert s.coeff(2) == 0

    def test_out_of_range_is_an_error_not_zero(self):
        s = u(5, e0=1, e1=2)
        with pytest.raises(TruncationError):
            s.coeff(5)
        with pytest.raises(TruncationError):
            s.coeff(7)

    def test_charge_rank_is_checked(self):
        s = nahm.evaluate(nahm.build_b2_char_form(), 6)
        assert s.charge_rank == 2 and s.coeff(1, (1, 0)) == 1
        for charges in ((0, 0, 0), (), (0,)):
            with pytest.raises(ChargeRankMismatch):
                s.coeff(1, charges)
        with pytest.raises(ChargeRankMismatch):
            u(5, e0=1).coeff(0, (0,))

    def test_half_integer_and_step_one_rows(self):
        s = QSeries(5, 1, {(Fraction(1, 2), (1,)): 2, (2, (1,)): 3, (Fraction(9, 2), (1,)): 0})
        assert s.rows == {(1,): (1, 1, [2, 0, 0, 3])}
        assert [s.coeff(Fraction(e2, 2), (1,)) for e2 in range(10)] == [0, 2, 0, 0, 3] + [0] * 5
        assert s.coeff(1, (0,)) == 0


class TestCompare:
    def test_equal(self):
        a = u(10, e0=1, e1=1)
        assert series_eq(a, a).equal

    def test_mismatch_location(self):
        r = series_eq(u(10, e0=1, e1=1), u(10, e0=1, e1=2))
        assert not r.equal
        assert r.mismatch.qexp == 1
        assert (r.mismatch.coeff_a, r.mismatch.coeff_b) == (1, 2)

    def test_compares_only_below_min_order(self):
        a = u(5, e0=1, e1=1)
        b = u(8, e0=1, e1=1, e6=9)
        assert series_eq(a, b).equal

    def test_leq(self):
        assert series_leq(u(9, e0=1, e1=1), u(9, e0=1, e1=2)).equal
        r = series_leq(u(9, e0=1, e1=2), u(9, e0=1, e1=1))
        assert not r.equal and r.mismatch.qexp == 1
        a = u(9, e0=1, e3=5)
        assert series_leq(a, a).equal


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(0, 8).is_one()

    def test_n1(self):
        assert pochhammer(1, 8).terms == {(0, ()): 1, (2, ()): -1}

    def test_n3_expansion(self):
        # (1-q)(1-q^2)(1-q^3) = 1 - q - q^2 + q^4 + q^5 - q^6
        want = {(0, ()): 1, (2, ()): -1, (4, ()): -1, (8, ()): 1,
                (10, ()): 1, (12, ()): -1}
        assert pochhammer(3, 10).terms == want

    def test_inverse_geometric(self):
        s = inv_pochhammer(1, 4)
        assert s.terms == {(2 * k, ()): 1 for k in range(4)}

    def test_inverse_property(self):
        for n in range(13):
            assert (pochhammer(n, 30) * inv_pochhammer(n, 30)).is_one()

    def test_inv_pochhammer_nonnegative(self):
        for n in range(8):
            assert all(c >= 0 for c in inv_pochhammer(n, 25).terms.values())

    def test_inv_pochhammer_dense_returns_a_fresh_list(self):
        first = inv_pochhammer_dense(3, 10)
        want = list(first)
        first[2] = 999
        assert inv_pochhammer_dense(3, 10) == want


class TestEulerProduct:
    def test_q_pochhammer_infinite(self):
        # (q;q)_inf to order 6: pentagonal-number pattern
        s = euler_product([(-1, 1, 1, 1)], 6)
        assert s.terms == {(0, ()): 1, (2, ()): -1, (4, ()): -1, (10, ()): 1}

    def test_neg_q_pochhammer(self):
        s = euler_product([(1, 1, 1, 1)], 3)
        assert s.terms == {(0, ()): 1, (2, ()): 1, (4, ()): 1}

    def test_modular_product_first_coefficient(self):
        s = euler_product([(1, 1, 1, 1), (1, 1, 2, 2),
                           (-1, 1, 5, -1), (-1, 4, 5, -1)], 4)
        assert s.coeff(1) == 4

    def test_divergent_factor_refused(self):
        with pytest.raises(ValueError):
            euler_product([(1, 0, 1, 1)], 5)


class TestRender:
    def test_canonical_form(self):
        s = QSeries(6, 1, {(0, (0,)): 1, (1, (0,)): 2, (2, (1,)): 3})
        assert s.render() == "1 + 2*q + 3*q^2*y1"

    def test_half_integer_and_signs(self):
        s = QSeries(6, 0, {(Fraction(3, 2), ()): -1, (0, ()): 1})
        assert s.render() == "1 - q^(3/2)"
        assert QSeries(6, 1, {(1, (0,)): -3, (2, (1,)): 1}).render() == "-3*q + q^2*y1"
        assert QSeries(6, 1, {(0, (0,)): -1, (1, (1,)): 2}).render() == "-1 + 2*q*y1"
        s = QSeries(6, 2, {(Fraction(1, 2), (-2, 1)): 1, (1, (0, -1)): -2})
        assert s.render() == "q^(1/2)*y1^-2*y2 - 2*q*y2^-1"
        assert QSeries(6, 0).render() == "0"
        assert QSeries(6, 2).render() == "0"

    def test_sorted_by_exponent_then_charges(self):
        s = QSeries(6, 1, {(1, (2,)): 1, (1, (1,)): 4})
        assert s.render() == "4*q*y1 + q*y1^2"


# ---------------------------------------------------------------------------
# randomized ring laws (criterion: >= 200 cases, exact at fixed truncation)
# ---------------------------------------------------------------------------

def _series_strategy(rank=0, order=12):
    keys = st.tuples(st.integers(min_value=0, max_value=2 * order - 1),
                     st.tuples(*([st.integers(-2, 2)] * rank)))
    return st.dictionaries(keys, st.integers(-9, 9), max_size=6).map(
        lambda d: QSeries._raw(2 * order, rank,
                               {(e2, ch): c for (e2, ch), c in d.items() if c}))


@settings(max_examples=200, deadline=None)
@given(_series_strategy(), _series_strategy(), _series_strategy())
def test_ring_laws(a, b, c):
    assert series_eq((a + b) + c, a + (b + c)).equal
    assert series_eq(a + b, b + a).equal
    assert series_eq(a * b, b * a).equal
    assert series_eq((a * b) * c, a * (b * c)).equal
    assert series_eq(a * (b + c), a * b + a * c).equal


@settings(max_examples=200, deadline=None)
@given(_series_strategy(order=7), _series_strategy(order=5))
def test_mul_truncation_closure(a, b):
    p = a * b
    assert p.order2 == min(a.order2, b.order2)
    assert all(e2 < p.order2 for (e2, _ch) in p.terms)


@settings(max_examples=200, deadline=None)
@given(_series_strategy(rank=1), _series_strategy(rank=1))
def test_charged_mul_matches_bruteforce(a, b):
    p = a * b
    brute = {}
    for (e1, c1), v1 in a.terms.items():
        for (e2, c2), v2 in b.terms.items():
            if e1 + e2 < p.order2:
                key = (e1 + e2, (c1[0] + c2[0],))
                brute[key] = brute.get(key, 0) + v1 * v2
    assert p.terms == {k: v for k, v in brute.items() if v}


# ---------------------------------------------------------------------------
# rows against the term-dict references (tests/series_reference.py)
# ---------------------------------------------------------------------------

def _terms(rank, order2):
    """Term dicts with half-integer exponents (odd doubled ones), zero
    coefficients, gaps and terms at or past the order."""
    keys = st.tuples(st.integers(0, order2 + 3), st.tuples(*([st.integers(-1, 2)] * rank)))
    return st.dictionaries(keys, st.integers(-3, 3), max_size=10)


@st.composite
def _pairs(draw):
    """(order2, terms) for two series of one rank.  The second is the first
    edited: a term before a row's first (another offset), at an odd distance
    from it (another step), a changed or dropped coefficient, or new keys."""
    rank = draw(st.integers(0, 3))
    order2_a = draw(st.integers(0, 16))
    order2_b = draw(st.sampled_from([order2_a, max(order2_a + draw(st.integers(-3, 3)), 0)]))
    terms_a = draw(_terms(rank, order2_a))
    terms_b = dict(terms_a)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["before", "odd", "coeff", "drop", "new"]))
        if not terms_a or kind == "new":
            terms_b.update(draw(_terms(rank, order2_b)))
            continue
        e2, charges = draw(st.sampled_from(sorted(terms_a)))
        if kind == "drop":
            terms_b.pop((e2, charges), None)
            continue
        if kind == "before":
            first = min(x for x, ch in terms_a if ch == charges)
            e2 = max(first - draw(st.integers(1, 2)), 0)
        elif kind == "odd":
            e2 += 1
        terms_b[(e2, charges)] = draw(st.integers(-3, 3))
    return rank, (order2_a, terms_a), (order2_b, terms_b)


def _kept(terms, order2):
    return {k: v for k, v in terms.items() if v and k[0] < order2}


def _assert_canonical(s):
    for first, step, coeffs in s.rows.values():
        assert coeffs[0] and coeffs[-1] and first + (len(coeffs) - 1) * step < s.order2
        assert step == 2 or any(coeffs[1::2])


@settings(max_examples=400, deadline=None)
@given(_pairs())
def test_rows_match_term_dict_reference(pair):
    rank, (order2_a, terms_a), (order2_b, terms_b) = pair
    a = QSeries._raw(order2_a, rank, terms_a)
    b = QSeries._raw(order2_b, rank, terms_b)
    for s, terms in ((a, terms_a), (b, terms_b)):
        _assert_canonical(s)
        assert s.terms == _kept(terms, s.order2)
        for (e2, charges), c in terms.items():
            if e2 < s.order2:
                assert s.coeff(Fraction(e2, 2), charges) == c
    # the checked constructor, fed in another order, gives the same rows
    rebuilt = QSeries(Fraction(order2_a, 2), rank, {
        (Fraction(e2, 2), ch): c for (e2, ch), c in reversed(list(terms_a.items()))})
    assert rebuilt == a and hash(rebuilt) == hash(a)
    same = a.order2 == b.order2 and a.terms == b.terms
    assert (a == b) == same
    if same:
        assert hash(a) == hash(b)
    assert a.render() == reference_render(a) and b.render() == reference_render(b)
    for got, want in ((a + b, reference_add(a, b)), (a * b, reference_mul(a, b)),
                      (b * a, reference_mul(b, a)), (-a, {k: -v for k, v in a.terms.items()})):
        _assert_canonical(got)
        assert got.terms == want
    # the term-dict projection against the production row kernel
    dropped = charges_dropped(a)
    _assert_canonical(dropped)
    acc = None
    for row in a.rows.values():
        acc = series._row_sum(acc, row, a.order2)
    assert dropped.rows.get(()) == acc
    if rank:
        assert charge_slice(a, 0, 1).terms == {
            (e2, ch[1:]): c for (e2, ch), c in a.terms.items() if ch[0] == 1}
    assert series_eq(a, b) == reference_eq(a, b)
    assert series_leq(a, b) == reference_leq(a, b)
    assert series_leq(b, a) == reference_leq(b, a)


class TestPlantedMismatch:
    def test_charge_sorting_before_the_first_differing_row(self):
        # both differing rows start at q^2; the first row in dict order is (1, 0)
        a = QSeries._raw(12, 2, {(4, (1, 0)): 1, (4, (0, 1)): 1, (6, (0, 0)): 5})
        b = QSeries._raw(12, 2, {(4, (1, 0)): 2, (4, (0, 1)): 3, (6, (0, 0)): 5})
        assert next(iter(a.rows)) == (1, 0)
        r = series_eq(a, b)
        assert r == reference_eq(a, b)
        assert r.mismatch == Mismatch(Fraction(2), (0, 1), 1, 3)

    def test_lower_exponent_in_a_later_row(self):
        a = QSeries._raw(12, 1, {(2, (0,)): 1, (6, (1,)): 1, (9, (2,)): 4})
        b = QSeries._raw(12, 1, {(2, (0,)): 2, (6, (1,)): 1, (3, (2,)): 7, (9, (2,)): 4})
        r = series_eq(a, b)
        assert r == reference_eq(a, b)
        assert r.mismatch == Mismatch(Fraction(1), (0,), 1, 2)
        r = series_leq(b, a)
        assert r == reference_leq(b, a)
        assert r.mismatch == Mismatch(Fraction(1), (0,), 2, 1)

    def test_rows_differing_in_offset_and_step(self):
        # (0,): b's row starts a slot earlier; (1,): b's row has step 1
        a = QSeries._raw(16, 1, {(4, (0,)): 1, (8, (0,)): 1, (2, (1,)): 3, (6, (1,)): 3})
        b = QSeries._raw(16, 1, {(2, (0,)): 1, (4, (0,)): 1, (8, (0,)): 1,
                                 (2, (1,)): 3, (5, (1,)): 1, (6, (1,)): 3})
        assert (a.rows[(0,)][0], b.rows[(0,)][0]) == (4, 2)
        assert (a.rows[(1,)][1], b.rows[(1,)][1]) == (2, 1)
        r = series_eq(a, b)
        assert r == reference_eq(a, b)
        assert r.mismatch == Mismatch(Fraction(1), (0,), 0, 1)
        assert series_eq(charge_slice(a, 0, 1), charge_slice(b, 0, 1)).mismatch == Mismatch(
            Fraction(5, 2), (), 0, 1)


# ---------------------------------------------------------------------------
# the first-difference scan on rows, against a brute-force dict walk
# ---------------------------------------------------------------------------

_ROW_COEFFS = st.lists(st.sampled_from((0, 0, 1, -1, 2)), min_size=1, max_size=6)


def _row_dict(row):
    """{doubled exponent: coefficient} of every slot of a row, zeros too."""
    if row is None:
        return {}
    first, step, coeffs = row
    return {first + i * step: c for i, c in enumerate(coeffs)}


def _brute_first_difference(x, y, violates):
    xs, ys = _row_dict(x), _row_dict(y)
    for e2 in sorted(xs.keys() | ys.keys()):
        if violates(xs.get(e2, 0), ys.get(e2, 0)):
            return e2, xs.get(e2, 0), ys.get(e2, 0)
    return None


@st.composite
def _row_pair(draw):
    """(x, y): x a row (first, step, coeffs) or None; y is x on another
    grid (a lower first, step 1 for step 2, zeros appended), x with one slot
    changed, x's list on the other step, a fresh row, or None."""
    def fresh():
        return draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2))), draw(_ROW_COEFFS)

    x = fresh() if draw(st.integers(0, 4)) else None
    how = draw(st.sampled_from(("regrid", "changed", "restep", "fresh", "none")))
    if x is None or how == "fresh":
        y = fresh()
    elif how == "none":
        y = None
    else:
        first, step, coeffs = x
        if how == "regrid":
            lower = draw(st.integers(0, 2))
            if step == 2 and draw(st.booleans()):
                coeffs, step = series._on_grid(x, 1), 1
            y = first - lower * step, step, [0] * lower + coeffs + [0] * draw(st.integers(0, 2))
        elif how == "changed":
            i = draw(st.integers(0, len(coeffs) - 1))
            changed = list(coeffs)
            changed[i] += draw(st.sampled_from((-1, 1)))
            y = first, step, changed
        else:
            y = first, 3 - step, coeffs
    return (x, y) if draw(st.booleans()) else (y, x)


class TestFirstDifference:
    @settings(max_examples=400, deadline=None)
    @given(_row_pair(), st.sampled_from((operator.ne, operator.gt)))
    def test_agrees_with_brute_force(self, pair, violates):
        x, y = pair
        assert series._first_difference(x, y, violates) == _brute_first_difference(x, y, violates)

    def test_cases(self):
        # the same coefficients on step 2 from 0 and on step 1 from -2: no difference
        assert series._first_difference((0, 2, [1, 0, 3]), (-2, 1, [0, 0, 1, 0, 0, 0, 3]),
                                        operator.ne) is None
        # one list on two steps: q^(1/2) holds 3 on the right, 0 on the left
        assert series._first_difference((0, 2, [1, 3]), (0, 1, [1, 3]), operator.ne) == (1, 0, 3)
        # against zero, the first nonzero slot; gt only where the left is larger
        assert series._first_difference(None, (-3, 2, [0, 2]), operator.ne) == (-1, 0, 2)
        assert series._first_difference(None, (-3, 2, [0, 2]), operator.gt) is None
        assert series._first_difference((-3, 2, [0, 2]), None, operator.gt) == (-1, 2, 0)
        assert series._first_difference(None, None, operator.ne) is None
