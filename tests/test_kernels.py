"""Backend equivalence: the compiled kernels must match the pure ones bitwise."""

import random

import pytest

from qident import _kernels_py
from qident import kernels

try:
    from qident import _kernels
except ImportError:
    _kernels = None

needs_compiled = pytest.mark.skipif(_kernels is None,
                                    reason="compiled kernels not built")


def _rand_list(rng, n, lo=-9, hi=9):
    return [rng.randint(lo, hi) for _ in range(n)]


def test_conv_trunc_against_naive():
    rng = random.Random(1)
    for _ in range(200):
        a = _rand_list(rng, rng.randint(0, 12))
        b = _rand_list(rng, rng.randint(0, 12))
        n = rng.randint(1, 20)
        naive = [0] * (min(n, len(a) + len(b) - 1) if a and b else 0)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i + j < len(naive):
                    naive[i + j] += ai * bj
        assert _kernels_py.conv_trunc(a, b, n) == naive


def test_geom_div_inverts_geom_mul():
    rng = random.Random(2)
    for _ in range(200):
        arr = _rand_list(rng, rng.randint(1, 30))
        step = rng.randint(1, 6)
        out = list(arr)
        _kernels_py.geom_mul(out, step)
        _kernels_py.geom_div(out, step)
        assert out == arr


def test_binom_div_inverts_binom_mul():
    rng = random.Random(3)
    for _ in range(200):
        arr = _rand_list(rng, rng.randint(1, 30))
        step = rng.randint(1, 6)
        c = rng.choice([-3, -1, 1, 2])
        out = list(arr)
        _kernels_py.binom_mul(out, step, c)
        _kernels_py.binom_div(out, step, c)
        assert out == arr


def _nahm_tail_case(rng):
    """Random nahm_tail arguments, c2 < -diag2 included, minimum exponent >= 0."""
    order2 = rng.randint(2, 40)
    diag2 = rng.randint(1, 4)
    c2 = rng.randint(-12, 4)
    e2_min = min(diag2 * v * v + c2 * v for v in range(20))
    e2 = rng.randint(0, 8) - e2_min
    scr = _rand_list(rng, rng.randint(1, 12), lo=0, hi=5)
    return order2, diag2, c2, e2, scr


def test_nahm_tail_against_naive():
    rng = random.Random(4)
    skipped_first = 0
    for _ in range(300):
        order2, diag2, c2, e2, scr = _nahm_tail_case(rng)
        naive = [0] * order2
        points = 0
        part = list(scr)
        for v in range(40):
            if v:
                _kernels_py.geom_div(part, v)
            ev = e2 + diag2 * v * v + c2 * v
            if ev < order2:
                points += 1
                for k, sk in enumerate(part):
                    if ev + 2 * k < order2:
                        naive[ev + 2 * k] += sk
        res = [0] * order2
        assert _kernels_py.nahm_tail(res, list(scr), e2, diag2, c2, order2) == points
        assert res == naive
        skipped_first += e2 >= order2 and points > 0
    assert skipped_first > 10      # cases where v = 0 is over the limit, later v are not


@needs_compiled
@pytest.mark.parametrize("fn", ["conv_trunc", "geom_div", "geom_mul",
                                "binom_mul", "binom_div", "nahm_tail"])
def test_compiled_matches_pure(fn):
    rng = random.Random(hash(fn) & 0xFFFF)
    for _ in range(200):
        if fn == "conv_trunc":
            a = _rand_list(rng, rng.randint(0, 10))
            b = _rand_list(rng, rng.randint(0, 10))
            n = rng.randint(1, 16)
            assert getattr(_kernels, fn)(a, b, n) == getattr(_kernels_py, fn)(a, b, n)
        elif fn == "nahm_tail":
            order2, diag2, c2, e2, scr = _nahm_tail_case(rng)
            res_a = [0] * order2
            res_b = [0] * order2
            na = _kernels.nahm_tail(res_a, list(scr), e2, diag2, c2, order2)
            nb = _kernels_py.nahm_tail(res_b, list(scr), e2, diag2, c2, order2)
            assert (na, res_a) == (nb, res_b)
        else:
            arr_a = _rand_list(rng, rng.randint(1, 20))
            arr_b = list(arr_a)
            step = rng.randint(1, 5)
            if fn.startswith("binom"):
                c = rng.choice([-2, -1, 1, 3])
                getattr(_kernels, fn)(arr_a, step, c)
                getattr(_kernels_py, fn)(arr_b, step, c)
            else:
                getattr(_kernels, fn)(arr_a, step)
                getattr(_kernels_py, fn)(arr_b, step)
            assert arr_a == arr_b


def test_backend_switch_roundtrip():
    original = kernels.BACKEND
    try:
        kernels.use("pure")
        assert kernels.BACKEND == "pure"
        assert kernels.conv_trunc([1, 1], [1, 1], 4) == [1, 2, 1]
    finally:
        kernels.use(original)
    assert kernels.BACKEND == original


def test_big_coefficients_survive():
    # arbitrary precision: values near q^70 in partition counts exceed 64 bits
    big = 1 << 80
    arr = [big, -big]
    _kernels_py.geom_div(arr, 1)
    assert arr == [big, 0]
    if _kernels is not None:
        arr = [big, -big]
        _kernels.geom_div(arr, 1)
        assert arr == [big, 0]
