import pytest
from fractions import Fraction

from qident.poly import SparsePoly, UnboundSymbol


VARS = ("m1", "m2", "m3")


def v(name):
    return SparsePoly.variable(VARS, name)


def test_square_expansion():
    p = (v("m1") + v("m2")) ** 2
    assert p == v("m1") * v("m1") + 2 * v("m1") * v("m2") + v("m2") * v("m2")


def test_substitute_is_simultaneous():
    # swap m1 <-> m2 in m1^2 + m1*m2: must not cascade
    p = v("m1") ** 2 + v("m1") * v("m2")
    q = p.substitute({"m1": v("m2"), "m2": v("m1")})
    assert q == v("m2") ** 2 + v("m1") * v("m2")


def test_substitute_expands_binding():
    target = ("m12", "m13")
    k1 = (SparsePoly.variable(target, "m12") + SparsePoly.variable(target, "m13"))
    p = SparsePoly.variable(("k1",), "k1") ** 2
    q = p.substitute({"k1": k1})
    assert q == k1 * k1
    assert q.coeff({"m12": 1, "m13": 1}) == 2


def test_poly_coeff():
    p = v("m1") ** 2 + 3 * v("m1") * v("m2")
    assert p.coeff({"m1": 1, "m2": 1}) == 3
    assert p.coeff({"m3": 1}) == 0


def test_unbound_symbol_errors():
    p = v("m1") + v("m3")
    with pytest.raises(UnboundSymbol):
        p.substitute({"m1": SparsePoly.variable(("a",), "a")})
    with pytest.raises(UnboundSymbol):
        p.substitute({"m1": v("m2")}, require_full=True)


def test_mixed_universe_rejected():
    with pytest.raises(ValueError):
        v("m1") + SparsePoly.variable(("x",), "x")
    with pytest.raises(ValueError):
        SparsePoly("m1", {}).substitute(
            {"m1": SparsePoly.variable(("a",), "a"),
             "1": SparsePoly.variable(("b",), "b")})


def test_rational_coefficients_exact():
    p = SparsePoly(VARS, {(2, 0, 0): Fraction(1, 2)})
    assert (p + p).coeff({"m1": 2}) == 1
    assert (p - p).is_zero()


def test_render_sorted_by_degree():
    p = v("m1") * v("m2") + 1 - v("m3")
    assert p.render() == "1 - m3 + m1*m2"
