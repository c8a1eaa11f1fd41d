"""Doubled-integer q-exponents.

The engines keep every exponent in (1/2)Z, such as q^(3/2), as the doubled
int 3, so exponent arithmetic stays in plain ints.  Values a caller passes in
or reads back are ints and Fractions; twice_of converts the former to the
doubled form, and Fraction(e2, 2) converts back.
"""

from __future__ import annotations

from fractions import Fraction


def twice_of(value) -> int:
    """Doubled-integer form of an exponent given as an int or as a Fraction
    with denominator 1 or 2."""
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction):
        doubled = 2 * value
        if doubled.denominator != 1:
            raise ValueError(f"{value} is not a half-integer")
        return doubled.numerator
    raise TypeError(f"cannot interpret {value!r} as a half-integer")
