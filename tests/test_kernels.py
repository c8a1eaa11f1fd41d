"""Dense-series kernels against naive loops and their inverse pairs."""

import random

from qident import kernels


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
        assert kernels.conv_trunc(a, b, n) == naive


def test_geom_div_inverts_geom_mul():
    rng = random.Random(2)
    for _ in range(200):
        arr = _rand_list(rng, rng.randint(1, 30))
        step = rng.randint(1, 6)
        out = list(arr)
        kernels.geom_mul(out, step)
        kernels.geom_div(out, step)
        assert out == arr


def test_binom_div_inverts_binom_mul():
    rng = random.Random(3)
    for _ in range(200):
        arr = _rand_list(rng, rng.randint(1, 30))
        step = rng.randint(1, 6)
        c = rng.choice([-3, -1, 1, 2])
        out = list(arr)
        kernels.binom_mul(out, step, c)
        kernels.binom_div(out, step, c)
        assert out == arr


def test_nahm_tail_against_naive():
    rng = random.Random(4)
    skipped_first = 0
    for _ in range(300):
        # c2 < -diag2 included, minimum exponent >= 0
        order2 = rng.randint(2, 40)
        diag2 = rng.randint(1, 4)
        c2 = rng.randint(-12, 4)
        e2 = rng.randint(0, 8) - min(diag2 * v * v + c2 * v for v in range(20))
        scr = _rand_list(rng, rng.randint(1, 12), lo=0, hi=5)
        naive = [0] * order2
        points = 0
        part = list(scr)
        for v in range(40):
            if v:
                kernels.geom_div(part, v)
            ev = e2 + diag2 * v * v + c2 * v
            if ev < order2:
                points += 1
                for k, sk in enumerate(part):
                    if ev + 2 * k < order2:
                        naive[ev + 2 * k] += sk
        res = [0] * order2
        assert kernels.nahm_tail(res, list(scr), e2, diag2, c2, order2) == points
        assert res == naive
        skipped_first += e2 >= order2 and points > 0
    assert skipped_first > 10      # cases where v = 0 is over the limit, later v are not


def test_big_coefficients_survive():
    # arbitrary precision: values near q^70 in partition counts exceed 64 bits
    big = 1 << 80
    arr = [big, -big]
    kernels.geom_div(arr, 1)
    assert arr == [big, 0]
