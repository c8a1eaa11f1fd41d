import pytest
from fractions import Fraction

from qident.poly import SparsePoly


VARS = ("m1", "m2", "m3")


def v(name):
    return SparsePoly.variable(VARS, name)


def test_square_expansion():
    p = (v("m1") + v("m2")) * (v("m1") + v("m2"))
    assert p == v("m1") * v("m1") + 2 * v("m1") * v("m2") + v("m2") * v("m2")


def test_poly_coeff():
    p = v("m1") * v("m1") + 3 * v("m1") * v("m2")
    assert p.coeff({"m1": 1, "m2": 1}) == 3
    assert p.coeff({"m3": 1}) == 0


def test_mixed_universe_rejected():
    with pytest.raises(ValueError):
        v("m1") + SparsePoly.variable(("x",), "x")


def test_rational_coefficients_exact():
    p = SparsePoly(VARS, {(2, 0, 0): Fraction(1, 2)})
    assert (p + p).coeff({"m1": 2}) == 1
    assert (p - p).is_zero()


def test_render_sorted_by_degree():
    p = v("m1") * v("m2") + 1 - v("m3")
    assert p.render() == "1 - m3 + m1*m2"
    p = SparsePoly(("a", "b"), {(0, 0): Fraction(-1, 2), (1, 0): Fraction(3, 4),
                                (1, 1): -1, (0, 2): Fraction(-5, 3)})
    assert p.render() == "-1/2 + 3/4*a - 5/3*b^2 - a*b"
    assert SparsePoly(("a", "b"), {(0, 0): -1, (2, 1): 2}).render() == "-1 + 2*a^2*b"
    assert SparsePoly(("a",)).render() == "0"
    assert SparsePoly.zero(VARS).render() == "0"
