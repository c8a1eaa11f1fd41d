import itertools
import random
from fractions import Fraction

import pytest

from qident import nahm, quiver
from qident.nahm import BudgetExceeded
from qident.quiver import QuiverA
from qident.series import inv_pochhammer, series_eq

from quiver_reference import (dense_rows, dimension_vector, level_steps, per_rep_rows,
                              quiver_generating_series)


class TestDimensionVector:
    def test_examples(self):
        assert dimension_vector(2, {(1, 2): 1}) == (1, 1)
        assert dimension_vector(2, {(1, 1): 1, (2, 2): 1}) == (1, 1)
        assert dimension_vector(2, {(1, 1): 2, (1, 2): 1}) == (3, 1)


class TestEnumerate:
    def test_rank2_k11(self):
        reps = quiver.enumerate_reps(QuiverA.equioriented(2), (1, 1))
        assert sorted(map(quiver.render_rep, reps)) == ["[1,1]^1 [2,2]^1", "[1,2]^1"]

    def test_rank1_k3(self):
        reps = quiver.enumerate_reps(QuiverA.equioriented(1), (3,))
        assert [dict(r) for r in reps] == [{(1, 1): 3}]

    def test_rank2_k21(self):
        reps = quiver.enumerate_reps(QuiverA.equioriented(2), (2, 1))
        assert sorted(map(quiver.render_rep, reps)) == [
            "[1,1]^1 [1,2]^1", "[1,1]^2 [2,2]^1"]

    def test_soundness_and_no_duplicates(self):
        rng = random.Random(4)
        for _ in range(50):
            rank = rng.randint(1, 4)
            qv = QuiverA.equioriented(rank)
            k = tuple(rng.randint(0, 3) for _ in range(rank))
            reps = quiver.enumerate_reps(qv, k)
            seen = set()
            for rep in reps:
                assert dimension_vector(rank, rep) == k
                key = tuple(sorted(rep.items()))
                assert key not in seen
                seen.add(key)

    @pytest.mark.parametrize("rank,top", [(1, 3), (2, 3), (3, 3), (4, 1)])
    def test_full_list_matches_brute_force(self, rank, top):
        # itertools.product runs the segment multiplicities in lexicographic
        # order, so the brute force lists each k's reps in the promised order
        segs = quiver.segments(rank)
        want = {k: [] for k in itertools.product(range(top + 1), repeat=rank)}
        for mults in itertools.product(range(top + 1), repeat=len(segs)):
            rep = {s: m for s, m in zip(segs, mults) if m}
            k = dimension_vector(rank, rep)
            if k in want:
                want[k].append(rep)
        qv = QuiverA.equioriented(rank)
        for k, reps in want.items():
            assert quiver.enumerate_reps(qv, k) == reps, k


class TestCodim:
    def test_example_53(self):
        qv = QuiverA.equioriented(2)
        assert quiver.codim(qv, {(1, 1): 1, (2, 2): 1}) == 1
        assert quiver.codim(qv, {(1, 2): 1}) == 0

    def test_single_indecomposable_is_always_zero(self):
        for rank in (1, 2, 3, 4):
            for bits in itertools.product("RL", repeat=rank - 1):
                qv = QuiverA(rank, bits)
                for seg in quiver.segments(rank):
                    assert quiver.codim(qv, {seg: 1}) == 0

    def test_condition_two_needs_same_direction(self):
        rep = {(1, 2): 1, (2, 3): 1}
        assert quiver.codim(QuiverA(3, ("R", "R")), rep) == 1
        # with opposed arrows the overlap pair drops to condition-3 pattern,
        # which this nesting-free pair does not satisfy
        assert quiver.codim(QuiverA(3, ("R", "L")), rep) == 0

    def test_condition_three_needs_opposed_direction(self):
        rep = {(2, 2): 1, (1, 3): 1}   # nested strands
        assert quiver.codim(QuiverA(3, ("R", "L")), rep) == 1
        assert quiver.codim(QuiverA(3, ("R", "R")), rep) == 0

    def test_zero_iff_no_qualifying_pair(self):
        rng = random.Random(7)
        for _ in range(100):
            rank = rng.randint(2, 4)
            bits = tuple(rng.choice("RL") for _ in range(rank - 1))
            qv = QuiverA(rank, bits)
            segs = quiver.segments(rank)
            rep = {s: rng.randint(0, 2) for s in rng.sample(segs, min(3, len(segs)))}
            c = quiver.codim(qv, rep)
            assert c >= 0
            if c == 0:
                # rebuild the pair scan independently
                pos = [s for s, m in rep.items() if m]
                for I, J in itertools.product(pos, pos):
                    touching = J[0] == I[1] + 1
                    overlap = (I[0] < J[0] <= I[1] < J[1]
                               and bits[J[0] - 2] == bits[I[1] - 1])
                    nested = (J[0] < I[0] <= I[1] < J[1]
                              and bits[I[0] - 2] != bits[I[1] - 1])
                    assert not (touching or overlap or nested)


class TestTheorem51:
    def test_rank2_k11_expansion(self):
        qv = QuiverA.equioriented(2)
        r = quiver.verify_theorem51(qv, (1, 1), 10)
        assert r.equal
        # and the left side really is 1/((q)_1 (q)_1) = 1 + 2q + 3q^2 + ...
        lhs = inv_pochhammer(1, 10) * inv_pochhammer(1, 10)
        assert [lhs.coeff(k) for k in range(4)] == [1, 2, 3, 4]

    def test_rank1_trivial(self):
        assert quiver.verify_theorem51(QuiverA.equioriented(1), (2,), 10).equal

    def test_rank3_mixed_orientation(self):
        qv = QuiverA(3, ("R", "L"))
        for k in itertools.product(range(4), repeat=3):
            if sum(k) <= 6:
                assert quiver.verify_theorem51(qv, k, 12).equal

    def test_all_orientations_small(self):
        for rank in (2, 3):
            for bits in itertools.product("RL", repeat=rank - 1):
                qv = QuiverA(rank, bits)
                for k in itertools.product(range(4), repeat=rank):
                    if sum(k) <= 5:
                        assert quiver.verify_theorem51(qv, k, 10).equal


class TestGeneratingSeries:
    def test_constant_terms(self):
        lhs, rhs = quiver_generating_series(QuiverA.equioriented(2), (1, 1), 8)
        zero = (0, (0, 0))
        assert lhs.terms[zero] == 1 and rhs.terms[zero] == 1

    def test_sides_agree_on_box(self):
        lhs, rhs = quiver_generating_series(QuiverA.equioriented(2), (1, 1), 10)
        assert series_eq(lhs, rhs).equal

    def test_lhs_charge_component_is_poch_product(self):
        lhs, _ = quiver_generating_series(QuiverA.equioriented(2), (2, 1), 10)
        want = inv_pochhammer(2, 10) * inv_pochhammer(1, 10)
        got = {e2: c for (e2, ch), c in lhs.terms.items() if ch == (2, 1)}
        assert got == {e2: c for (e2, _), c in want.terms.items()}

    @pytest.mark.parametrize("n", [2, 3])
    def test_bridge_theorem54(self, n):
        assert quiver.bridge_theorem54(n, (3,) * (n - 1), 10).equal


def test_orientation_validation():
    with pytest.raises(ValueError):
        QuiverA(3, ("R",))
    with pytest.raises(ValueError):
        QuiverA.from_string(3, "RX")


@pytest.mark.parametrize("rank,letters,message", [
    (0, "", r"rank must be >= 1"),
    (3, "R", "need one orientation letter per arrow"),
    (2, "RL", "need one orientation letter per arrow"),
    (3, "RX", "orientation letters must be R or L"),
], ids=["rank", "short", "long", "letter"])
def test_orientation_refusal_messages(rank, letters, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        QuiverA.from_string(rank, letters)


def _recording_series_eq(monkeypatch):
    """Wrap quiver.series_eq; returns the list of its argument pairs' terms."""
    seen = []
    original = quiver.series_eq

    def record(a, b):
        seen.append(tuple((s.order2, sorted(s.terms.items())) for s in (a, b)))
        return original(a, b)

    monkeypatch.setattr(quiver, "series_eq", record)
    return seen


def _per_k(qv, kmax, order):
    """verify_theorem51 at each k of the box in itertools.product order,
    stopping after the first mismatch, as the box walk does."""
    out = []
    for k in itertools.product(*(range(b + 1) for b in kmax)):
        out.append((k, quiver.verify_theorem51(qv, k, order)))
        if not out[-1][1].equal:
            break
    return out


def _box(qv, kmax, order, **kwargs):
    out = []
    for k, result in quiver.verify_theorem51_box(qv, kmax, order, **kwargs):
        out.append((k, result))
        if not result.equal:
            break
    return out


BOXES = [(2, (3, 3)), (3, (2, 2, 2)), (4, (2, 1, 2, 1)), (4, (1, 1, 1, 1))]


class TestBoxWalk:
    @pytest.mark.parametrize("rank,kmax", BOXES)
    def test_matches_per_k_path(self, monkeypatch, rank, kmax):
        seen = _recording_series_eq(monkeypatch)
        for bits in itertools.product("RL", repeat=rank - 1):
            qv = QuiverA(rank, bits)
            for order in (1, 6, 11):
                seen.clear()
                want = _per_k(qv, kmax, order)
                want_args = list(seen)
                seen.clear()
                got = _box(qv, kmax, order)
                assert got == want
                assert seen == want_args

    @pytest.mark.parametrize("order", [Fraction(1, 2), Fraction(11, 2), Fraction(13, 2)])
    def test_half_integer_order_matches_per_k_path(self, monkeypatch, order):
        # the level sum runs at the next integer order, so its rows are
        # trimmed to the box's order before they are compared
        seen = _recording_series_eq(monkeypatch)
        qv = QuiverA(3, ("R", "L"))
        want = _per_k(qv, (2, 2, 2), order)
        want_args = list(seen)
        seen.clear()
        assert _box(qv, (2, 2, 2), order) == want
        assert seen == want_args

    def test_order_zero_matches_per_k_path(self):
        # below q^0 the level sum has no rows at all: every k compares empty series
        qv = QuiverA(3, ("R", "L"))
        assert _box(qv, (1, 2, 1), 0) == _per_k(qv, (1, 2, 1), 0)

    @pytest.mark.parametrize("order", [7, Fraction(11, 2)])
    def test_shared_multisets_match_per_k_path(self, monkeypatch, order):
        # the k of one multiset share one left side; each k still makes its own
        # series_eq call, on the same two series as the per-k path
        seen = _recording_series_eq(monkeypatch)
        qv = QuiverA(4, ("L", "R", "L"))
        kmax = (2, 1, 2, 1)
        ks = list(itertools.product(*(range(b + 1) for b in kmax)))
        assert len({tuple(sorted(k)) for k in ks}) < len(ks)
        want = _per_k(qv, kmax, order)
        want_args = list(seen)
        seen.clear()
        assert _box(qv, kmax, order) == want
        assert len(want) == len(ks)
        assert seen == want_args

    @pytest.mark.parametrize("rank,kmaxes", [
        (1, [(0,), (3,)]),
        (2, [(3, 0), (2, 3)]),
        (3, [(2, 2, 2), (1, 0, 2)]),
        (4, [(1, 1, 1, 1), (2, 1, 0, 1), (1, 2, 1, 2)]),
    ])
    def test_level_rows_match_per_rep_oracle(self, rank, kmaxes):
        for bits in itertools.product("RL", repeat=rank - 1):
            qv = QuiverA(rank, bits)
            for kmax in kmaxes:
                for length, total in itertools.product((1, 5, 11), (None, 0, 3)):
                    want = per_rep_rows(qv, kmax, length, total)
                    got = dense_rows(quiver._level_rows(qv, kmax, length, total=total), length)
                    assert got == want, (bits, kmax, length, total)

    @pytest.mark.parametrize("rank,kmax", BOXES + [(5, (2,) * 5)])
    def test_carried_codim_matches_codim(self, rank, kmax):
        # the level sum carries codim as the lattice form codim_form, and cuts
        # at the first m past the series: both need this
        segs = quiver.segments(rank)
        for bits in itertools.product("RL", repeat=rank - 1):
            qv = QuiverA(rank, bits)
            spec = quiver.codim_form(qv)
            for order in (1, 8):
                assert nahm.compute_bound(spec, order, kmax).strategy == "all_nonneg"
            for k in itertools.product(*(range(b + 1) for b in kmax)):
                for rep in quiver.enumerate_reps(qv, k):
                    m = tuple(rep.get(seg, 0) for seg in segs)
                    assert spec.exponent(m) == quiver.codim(qv, rep), (bits, rep)
                    assert spec.charge_of(m) == k

    @pytest.mark.parametrize("planted", [((1, 1), (2, 2)), ((1, 2), (3, 3)), ((2, 3), (2, 3))])
    def test_planted_codim_error_first_mismatch(self, monkeypatch, planted):
        # a quadratic error in codim, which the per-k path reads for each rep
        # and the level sum reads through its table of pair weights
        original_codim = quiver.codim
        seg_i, seg_j = planted

        def bad_codim(qv, rep):
            return original_codim(qv, rep) + rep.get(seg_i, 0) * rep.get(seg_j, 0)

        monkeypatch.setattr(quiver, "codim", bad_codim)
        qv = QuiverA(3, ("R", "L"))
        want = _per_k(qv, (2, 2, 2), 10)
        got = _box(qv, (2, 2, 2), 10)
        assert not want[-1][1].equal
        assert got == want

    @pytest.mark.parametrize("rank,kmax,total", [(3, (3, 2, 3), 4), (4, (2, 2, 2, 2), 3),
                                                 (2, (4, 4), 0)])
    def test_total_cap_walks_the_capped_box(self, rank, kmax, total):
        qv = QuiverA(rank, ("L",) * (rank - 1))
        full = dense_rows(quiver._level_rows(qv, kmax, 9), 9)
        capped = dense_rows(quiver._level_rows(qv, kmax, 9, total=total), 9)
        assert capped == {k: row for k, row in full.items() if sum(k) <= total}
        got = list(quiver.verify_theorem51_box(qv, kmax, 9, total=total))
        want = [(k, quiver.verify_theorem51(qv, k, 9))
                for k in itertools.product(*(range(b + 1) for b in kmax))
                if sum(k) <= total]
        assert got == want

    def test_budget_caps_reps_walked(self):
        qv = QuiverA(3, ("L", "R"))
        kmax = (2, 1, 2)
        steps = level_steps(qv, kmax, 8)
        assert steps == 62
        assert all(r.equal for _, r in quiver.verify_theorem51_box(qv, kmax, 8, budget=steps))
        with pytest.raises(BudgetExceeded, match="level-sum steps"):
            list(quiver.verify_theorem51_box(qv, kmax, 8, budget=steps - 1))

    @pytest.mark.parametrize("rank,kmax", [(3, (3, 3, 3)), (4, (2, 2, 2, 2))])
    def test_no_step_at_or_past_the_cut(self, rank, kmax):
        # at short orders most multiplicities reach the cut: the level sum
        # must stop there, taking no step the prefixes below the cut do not
        for bits in itertools.product("RL", repeat=rank - 1):
            qv = QuiverA(rank, bits)
            for order in (1, 2, 4):
                steps = level_steps(qv, kmax, order)
                quiver._level_rows(qv, kmax, order, budget=steps)
                with pytest.raises(BudgetExceeded):
                    quiver._level_rows(qv, kmax, order, budget=steps - 1)
