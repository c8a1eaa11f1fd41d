"""The record classes: value equality and hashing, no assignment to a field
of a frozen record (every record but the report is frozen), and the truth
value of the two comparison verdicts."""

from fractions import Fraction

import pytest

from qident import jets, nahm, quiver, qweyl, report, series

_RELATIONS = (jets.JetPoly({((0, 1), (1, 1)): 1}),)     # JetPoly compares by identity


def _ring():
    return jets.WeightedRing(("a", "b"), ((1, 0), (0, 1)))


# (class, fields, a field to assign); fields() gives new, equal values on each call
RECORDS = [
    (jets.WeightedRing, lambda: (("a", "b"), ((1, 0), (0, 1))), "charges"),
    (jets.JetPreset, lambda: (_ring(), _RELATIONS, "p", ("a note",), ()), "name"),
    (nahm.NahmSumSpec, lambda: (("x", "y"), ((Fraction(1), Fraction(1, 4)),
                                             (Fraction(1, 4), Fraction(1, 2))),
                                (Fraction(1, 2), 0), ((1, 2),), "f", ("a note",)), "four"),
    (nahm.EnumerationBound, lambda: ((3, 4), "all_nonneg", (1, 2, ((1, 2, 3),), (), ())),
     "strategy"),
    (quiver.QuiverA, lambda: (3, ("R", "L")), "orientation"),
    (qweyl.NCMismatch, lambda: ((1, 1), Fraction(-1), 1, 0), "qexp"),
    (qweyl.NCCompareResult, lambda: (False, 6, 40, qweyl.NCMismatch((1, 1), Fraction(-1), 1, 0)),
     "equal"),
    (report.VerificationReport, lambda: ("verify b2", {"order": "q^4"}, "equal", {}, ["a line"]),
     "verdict"),
    (series.Mismatch, lambda: (Fraction(3), (1, 0), 2, 1), "coeff_a"),
    (series.CompareResult, lambda: (False, 20, series.Mismatch(Fraction(3), (1, 0), 2, 1)),
     "mismatch"),
]


@pytest.mark.parametrize("cls,fields,name", RECORDS, ids=[c.__name__ for c, _f, _n in RECORDS])
def test_record(cls, fields, name):
    a, b = cls(*fields()), cls(*fields())
    assert a == b and not a != b
    if cls is report.VerificationReport:
        # the one mutable record: the CLI fills a report in after making it
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, "mismatch")
        assert a != b
        return
    assert hash(a) == hash(b)
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    assert getattr(a, name) == before and a == b


def test_records_of_other_values_differ():
    assert quiver.QuiverA(3, ("R", "L")) != quiver.QuiverA(3, ("L", "R"))
    assert jets.WeightedRing(("a",)) != jets.WeightedRing(("b",))
    assert nahm.build_cartan_side("a3") != nahm.build_cartan_side("a4")
    assert series.Mismatch(Fraction(3), (), 2, 1) != series.Mismatch(Fraction(3), (), 2, 0)


def test_report_defaults_are_new_containers():
    a = report.VerificationReport("verify b2", {"order": "q^4"})
    b = report.VerificationReport("verify b2", {"order": "q^4"})
    a.lines.append("a line")
    a.detail["q_exponent"] = "3"
    assert (b.verdict, b.detail, b.lines, b.notes, b.wall_time) == ("equal", {}, [], [], None)


def test_comparison_verdicts_are_their_truth_value():
    assert series.CompareResult(True, 4) and not series.CompareResult(False, 4)
    assert qweyl.NCCompareResult(True, 3, 8) and not qweyl.NCCompareResult(False, 3, 8)
    assert qweyl.NCMismatch((2, 1, 0), Fraction(1), 0, 1).total_degree == 3


def test_keyword_construction():
    assert jets.WeightedRing(generators=("a",), charges=((1,),)) == jets.WeightedRing(("a",), ((1,),))
    assert quiver.QuiverA(rank=2, orientation=("R",)) == quiver.QuiverA.equioriented(2)
    spec = nahm.build_cartan_side("a2")
    assert nahm.NahmSumSpec(labels=spec.labels, quad=spec.quad, linear=spec.linear,
                            charges=spec.charges, name=spec.name) == spec
