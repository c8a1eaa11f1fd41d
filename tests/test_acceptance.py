"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with `pytest -s` to see them inline).
These are the exit criteria of the build; nothing here is downscaled.
"""

import itertools
import random
import time

import pytest
from fractions import Fraction

from qident import forms, jets, nahm, quiver, qweyl
from qident.series import (
    QSeries,
    euler_product,
    inv_pochhammer,
    inv_pochhammer_dense,
    pochhammer,
    series_eq,
    series_leq,
)


def _report(number, ok, text, started=None):
    status = "PASS" if ok else "FAIL"
    stamp = f" ({time.time() - started:.1f}s)" if started is not None else ""
    print(f"criterion {number:02d}: {status} - {text}{stamp}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_thm1a_charged_equality():
    started = time.time()
    ok = True
    for n, order in ((2, 25), (3, 25), (4, 25), (5, 18)):
        t0 = time.time()
        r = nahm.verify_identity(nahm.build_B_form(n),
                                 nahm.build_cartan_side(f"a{n}"),
                                 order, with_charges=True)
        ok = ok and r.equal and (time.time() - t0) < 120
    _report(1, ok, "Theorem 1.1(a) charged equality n=2,3,4 @ q^25; n=5 @ q^18",
            started)


def test_criterion_02_thm1b_charged_equality():
    started = time.time()
    ok = True
    for n, order in ((2, 25), (3, 25), (4, 25), (5, 18)):
        t0 = time.time()
        r = nahm.verify_identity(nahm.build_Bprime_form(n),
                                 nahm.build_cartan_side(f"a{n}"),
                                 order, with_charges=True)
        ok = ok and r.equal and (time.time() - t0) < 120
    _report(2, ok, "Theorem 1.1(b) charged equality, same ranks and orders",
            started)


def test_criterion_03_sl3_identity_q40():
    started = time.time()
    r = nahm.verify_identity(nahm.build_B_form(3), nahm.build_cartan_side("a3"),
                             40, with_charges=True)
    _report(3, r.equal, "rank-two identity (three-variable form) charged to q^40",
            started)


def test_criterion_04_two_variable_recursion():
    # 1/((q)_m (q)_n) = sum_{n2} q^((n-n2)(m-n2)) / ((q)_{m-n2} (q)_{n-n2} (q)_{n2})
    started = time.time()
    order = 30
    length = 30
    ok = True
    for m in range(13):
        for n in range(13):
            lhs = inv_pochhammer(m, order) * inv_pochhammer(n, order)
            acc = {}
            for n2 in range(min(m, n) + 1):
                e = (n - n2) * (m - n2)
                if e >= order:
                    continue
                prod = [1]
                from qident import kernels
                for mm in (m - n2, n - n2, n2):
                    prod = kernels.conv_trunc(prod, inv_pochhammer_dense(mm, length - e),
                                              length - e)
                for k, c in enumerate(prod):
                    if c:
                        acc[(2 * (e + k), ())] = acc.get((2 * (e + k), ()), 0) + c
            rhs = QSeries._raw(2 * order, 0, {k: v for k, v in acc.items() if v})
            ok = ok and series_eq(lhs, rhs).equal
    _report(4, ok, "telescoped two-variable identity for all m,n <= 12 at q^30",
            started)


def test_criterion_05_pentagon():
    started = time.time()
    good = qweyl.pentagon_check(6, 20)
    control = qweyl.pentagon_check(6, 20, drop_middle=True)
    ok = (good.equal and not control.equal
          and control.mismatch.total_degree == 2)
    _report(5, ok, "pentagon identity at xdeg 6, qorder 20; dropped-middle "
            "control fails at total degree 2", started)


def test_criterion_06_ordered_products():
    started = time.time()
    ok = True
    for n in (3, 4, 5):
        verdict, _ = qweyl.ordered_product_check(f"a{n}", xdeg=5, qorder=15)
        ok = ok and verdict.equal
    _report(6, ok, "ordered dilogarithm factorization n=3,4,5 at xdeg 5, qorder 15",
            started)


def test_criterion_07_charge_word_identity():
    # The pointwise normal-ordering identity behind the dilogarithm route.
    # As printed, "C+E=B" drops the (1/2)sum(k_i^2) normalization mismatch
    # between the two sides and the displayed factor order gives the primed
    # form; the corrected identity C+E+(1/2)sum(lambda^2) = B' is what holds
    # (and equals B for n <= 3).  Verified exhaustively on the stated box for
    # n <= 4, symbolically for every m at n <= 5, plus random spot checks.
    started = time.time()
    ok = True
    cases = 0
    for n in (2, 3, 4):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        form = nahm.build_Bprime_form(n)
        for vals in itertools.product(range(4), repeat=len(pairs)):
            m = dict(zip(pairs, vals))
            ok = ok and qweyl.charge_word_identity_holds(n, m, form)
            cases += 1
    # n = 5: polynomial identity covers the whole box at once
    for n in (5,):
        E, form = qweyl.extract_E_form(n), nahm.build_Bprime_form(n)
        half = forms._congruent([[Fraction(i == j, 2) for j in range(n - 1)] for i in range(n - 1)],
                               form.charges)
        C = [Fraction(2 - (j - i), 2) for i, j in nahm.a_pairs(n)]
        total = [[e + h + (C[a] if a == b else 0) for b, (e, h) in enumerate(zip(re, rh))]
                 for a, (re, rh) in enumerate(zip(E.quad, half))]
        ok = ok and E.labels == form.labels and E.linear == form.linear
        ok = ok and total == [list(row) for row in form.quad]
    rng = random.Random(23)
    pairs5 = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    form5 = nahm.build_Bprime_form(5)
    for _ in range(500):
        m = {p: rng.randint(0, 3) for p in pairs5}
        ok = ok and qweyl.charge_word_identity_holds(5, m, form5)
        cases += 1
    _report(7, ok, f"charge-word normal-ordering identity: {cases} numeric cases "
            "(box <= 3) plus the exact polynomial identity at n=5", started)


def test_criterion_08_six_type_table():
    started = time.time()
    ok = True
    for n in range(3, 7):
        poly = forms.expand_form_difference(n, "Bprime")
        for (typ, desc, coeff, expected) in forms.six_type_table(poly, n, "Bprime"):
            ok = ok and expected is not None and coeff == expected
        ok = ok and all(v == 0 for v in forms.cross_k_coefficients(poly, n).values())
    _report(8, ok, "six-type coefficient table reproduced for n <= 6; "
            "k_i k_j (j>i+1) terms vanish", started)


def test_criterion_09_quiver_identity_all_orientations():
    started = time.time()
    ok = True
    checks = 0
    for rank in (2, 3, 4):
        for bits in itertools.product("RL", repeat=rank - 1):
            qv = quiver.QuiverA(rank, bits)
            for _k, result in quiver.verify_theorem51_box(qv, (8,) * rank, 15, total=8):
                ok = ok and result.equal
                checks += 1
    for n in (2, 3, 4):
        ok = ok and quiver.bridge_theorem54(n, (3,) * (n - 1), 12).equal
    _report(9, ok, f"codimension identity: {checks} (orientation, k) cases at "
            "q^15; charged bridge to the primed form for n <= 4 at q^12", started)


def test_criterion_10_jet_hilbert_series():
    started = time.time()
    ok = True
    for n, W in ((2, 8), (3, 8), (4, 6)):
        ok = ok and jets.verify_classically_free(n, W).equal
    for n, W in ((2, 8), (3, 8), (4, 6)):
        hsa = jets.hilbert_series(jets.sln_A(n), W)
        hsb = jets.hilbert_series(jets.sln_B(n), W)
        hsh = jets.hilbert_series(jets.sln_H(n), W)
        ok = ok and series_leq(hsa, hsb).equal and series_leq(hsa, hsh).equal
    for n in (2, 3, 4):
        hsb = jets.hilbert_series(jets.sln_B(n), 8)
        hsh = jets.hilbert_series(jets.sln_H(n), 8)
        ok = ok and series_eq(hsb, nahm.evaluate(nahm.build_B_form(n), 9,
                                                 charges=False)).equal
        ok = ok and series_eq(hsh, nahm.evaluate(nahm.build_Bprime_form(n), 9,
                                                 charges=False)).equal
    _report(10, ok, "jet Hilbert series: quadratic presentation matches the "
            "lattice form (n=2,3 @ w8, n=4 @ w6); monomial presentations match "
            "their forms @ w8; inequality chain holds", started)


def test_criterion_11_b2_character():
    started = time.time()
    t0 = time.time()
    r70 = nahm.verify_identity(nahm.build_b2_char_form(),
                               nahm.build_b2_quintuple_form(), 70,
                               with_charges=False)
    r40 = nahm.verify_identity(nahm.build_b2_char_form(),
                               nahm.build_b2_quintuple_form(), 40,
                               with_charges=True)
    within_budget = (time.time() - t0) < 300
    ch70 = nahm.evaluate(nahm.build_b2_char_form(), 70, charges=False)
    prod = euler_product([(1, 1, 1, 1), (1, 1, 2, 2),
                          (-1, 1, 5, -1), (-1, 4, 5, -1)], 70)
    rprod = series_eq(ch70, prod)
    a2 = nahm.evaluate(nahm.build_cartan_side("a3"), 70, charges=False)
    a1 = nahm.evaluate(nahm.build_cartan_side("a2"), 70, charges=False)
    rfact = series_eq(ch70, a2 * a1)
    ok = r70.equal and r40.equal and within_budget and rprod.equal and rfact.equal
    for r in (r70, r40, rprod, rfact):
        if not r.equal:
            print("  B2 mismatch location:", r.mismatch)
    _report(11, ok, "five-variable vs character form to q^70 (q^40 charged); "
            "sum = modular product to q^70; rank factorization to q^70", started)


def test_criterion_12_b2_jets():
    started = time.time()
    hsA = jets.hilbert_series(jets.b2_A(), 10)
    hsB = jets.hilbert_series(jets.b2_B(), 10)
    okA = series_eq(hsA, nahm.evaluate(nahm.build_b2_char_form(), 11,
                                       charges=False)).equal
    okB = series_eq(hsB, nahm.evaluate(nahm.build_b2_quintuple_form(), 11,
                                       charges=False)).equal
    okle = series_leq(hsA, hsB).equal
    _report(12, okA and okB and okle, "so(5) jets: quadratic-cubic presentation "
            "matches the character and the monomial one matches the five-variable "
            "form to weight 10; Hilbert inequality holds", started)


def test_criterion_13_d4():
    started = time.time()
    t0 = time.time()
    r = nahm.verify_identity(nahm.build_d4_form(), nahm.build_cartan_side("d4"),
                             30, with_charges=False)
    within_budget = (time.time() - t0) < 1800
    # symbolic difference of the two twelve-variable forms
    b = nahm.build_d4_form()
    bp = nahm.build_d4_form(primed=True)
    # the table of n12*n23 + n12*m13: 1/2 at both places of each product
    at = {lab: t for t, lab in enumerate(b.labels)}
    want = [[Fraction(0)] * 12 for _ in range(12)]
    for u, w in (("n12", "n23"), ("n12", "m13")):
        want[at[u]][at[w]] = want[at[w]][at[u]] = Fraction(1, 2)
    diff = [[x - y for x, y in zip(rb, rp)] for rb, rp in zip(b.quad, bp.quad)]
    sym_ok = diff == want and b.linear == bp.linear

    evB = nahm.evaluate(nahm.build_d4_form(), 7, charges=False)
    evBp = nahm.evaluate(nahm.build_d4_form(primed=True), 7, charges=False)
    # both printed readings of the relation list are reported; their jet series
    # overshoot the forms already at weight 2 (the printed list omits six
    # quadratics), and the detector must localize that rather than hide it
    reported = {}
    printed_ok = True
    for reading in ("printed", "printed-v"):
        hs = jets.hilbert_series(jets.d4_D(reading), 6)
        le_b = series_leq(hs, evB)
        le_bp = series_leq(hs, evBp)
        reported[reading] = (le_b, le_bp)
        printed_ok = printed_ok and (not le_b.equal) and (not le_bp.equal)
        printed_ok = printed_ok and le_b.mismatch.qexp == 2
        print(f"  d4 jets [{reading}]: <= B-side: {le_b.equal}; "
              f"<= primed side: {le_bp.equal}; first excess at "
              f"q^{le_b.mismatch.qexp} ({le_b.mismatch.coeff_a} vs "
              f"{le_b.mismatch.coeff_b})")
    hs_fix = jets.hilbert_series(jets.d4_D("repaired"), 6)
    fix_le = series_leq(hs_fix, evB).equal and series_leq(hs_fix, evBp).equal
    fix_eq = series_eq(hs_fix, evB).equal
    print(f"  d4 jets [repaired]: <= both sides: {fix_le}; equals B side "
          f"to weight 6: {fix_eq} (consistent to weight 6, not proved)")
    ok = r.equal and within_budget and sym_ok and printed_ok and fix_le
    _report(13, ok, "twelve-variable identity vs Cartan side to q^30; "
            "primed difference exact; jet consistency reported for all "
            "readings of the relation list", started)


def test_criterion_14_property_suites():
    started = time.time()
    rng = random.Random(101)
    ok = True

    def rand_series(order2, rank=0):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e2 = rng.randint(0, order2 - 1)
            ch = tuple(rng.randint(-2, 2) for _ in range(rank))
            terms[(e2, ch)] = rng.randint(-9, 9)
        return QSeries._raw(order2, rank, {k: v for k, v in terms.items() if v})

    # ring laws, 200 random triples
    for _ in range(200):
        a, b, c = (rand_series(24) for _ in range(3))
        ok = ok and series_eq((a + b) + c, a + (b + c)).equal
        ok = ok and series_eq(a * (b + c), a * b + a * c).equal
        ok = ok and series_eq((a * b) * c, a * (b * c)).equal

    # truncation closure, 200 random pairs with unequal orders
    for _ in range(200):
        a = rand_series(2 * rng.randint(3, 12))
        b = rand_series(2 * rng.randint(3, 12))
        p = a * b
        ok = ok and p.order2 == min(a.order2, b.order2)
        ok = ok and all(e2 < p.order2 for (e2, _c) in p.terms)

    # pochhammer inverse, 200 random (n, order) pairs plus the pinned sweep
    for n in range(13):
        ok = ok and (pochhammer(n, 30) * inv_pochhammer(n, 30)).is_one()
    for _ in range(200):
        n = rng.randint(0, 12)
        order = rng.randint(1, 30)
        ok = ok and (pochhammer(n, order) * inv_pochhammer(n, order)).is_one()

    # enumeration-order independence, 200 random permutations
    specs = [nahm.build_B_form(3), nahm.build_Bprime_form(4),
             nahm.build_b2_quintuple_form(), nahm.build_cartan_side("a3"),
             nahm.build_b2_char_form()]
    bases = {s.name: nahm.evaluate(s, 10, charges=True) for s in specs}
    for _ in range(200):
        spec = specs[rng.randrange(len(specs))]
        perm = list(range(spec.nvars))
        rng.shuffle(perm)
        ok = ok and nahm.evaluate(spec.permuted(perm), 10, charges=True) == bases[spec.name]

    # sparse peel-then-eliminate rank of the integer-scaled rows vs dense
    # elimination of the rational ones, 200 random sparse matrices
    from dense_rank import dense_rank, integer_rows
    from qident.linalg import rank_of_rows
    for _ in range(200):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = []
        for _ in range(nrows):
            row = {c: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for c in rng.sample(range(ncols), rng.randint(0, ncols))}
            rows.append({c: v for c, v in row.items() if v})
        ok = ok and rank_of_rows(integer_rows(rows)) == dense_rank(rows)

    _report(14, ok, "property suites: ring laws, truncation closure, "
            "pochhammer inverse, enumeration-order independence, "
            "sparse-vs-dense exact rank (>= 200 randomized cases each)", started)
