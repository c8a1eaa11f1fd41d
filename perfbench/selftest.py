"""The benchmark's own tests: failures are counted, the tracer is exact.

    python3 perfbench/selftest.py      (or: python3 -m pytest perfbench/selftest.py)

Small commands only; the whole file runs in a few seconds.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
os.environ["QIDENT_KERNELS"] = "pure"

from qident import cli, nahm  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from worker import run_command  # noqa: E402
from workloads import Command, generate, WORKLOADS  # noqa: E402

JET = Command("jets hilbert --preset sln-b2 --weight 6", "info", ("series_eq", "B-a2", 7))
THM = Command("verify thm1 --variant a --n 3 --order 12", "equal")


def _pass(commands, global_flags=()):
    outcomes = [dict(run_command(cli.main, [*global_flags, *c.args]), seconds=0.0)
                for c in commands]
    return {"traced": False, "wall_s": 0.0, "setup_s": 0.0, "peak_rss_mb": 0.0,
            "probes": [run.REF_LOOP_S] * (len(outcomes) + 2), "outcomes": outcomes}


def test_correct_outputs_pass():
    commands = [
        JET, THM,
        Command("jets hilbert --preset d4-d --weight 3 --d4-reading repaired", "info",
                ("series_eq", "d4", 4)),
        Command("jets hilbert --preset d4-d --weight 3 --d4-reading printed-v", "info",
                ("series_excess", "d4", 4, 2)),
        Command("verify pentagon --negative-control --xdeg 4 --qorder 10", "holds",
                ("nc_degree", 2)),
    ]
    refs = oracle.references(commands)
    compared = oracle.compared_check(commands, {
        THM.line: oracle.compared_digests(THM)[0],
        commands[-1].line: oracle.compared_digests(commands[-1])[0]})
    assert run.score(commands, [_pass(commands)], refs, compared) == (5, 0)


def test_planted_wrong_reference_is_counted():
    refs = oracle.references([JET])
    wrong = dict(refs[("B-a2", 7)])
    wrong[3] += 1
    passes = [_pass([JET, THM])]
    assert run.score([JET, THM], passes, {("B-a2", 7): wrong}, {}) == (2, 1)


def test_comparison_at_a_lower_order_is_counted():
    lower = Command("verify thm1 --variant a --n 3 --order 10", "equal")
    table = {THM.line: oracle.compared_digests(lower)[0]}
    compared = oracle.compared_check([THM], table)
    assert compared[THM.line] is not None
    assert run.score([THM], [_pass([THM])], {}, compared) == (1, 1)


def test_recorded_comparisons_match_the_tree():
    commands = [c for c in generate("lattice", 1) if "b2" in c.line]
    assert set(oracle.compared_check(commands).values()) == {None}


def test_budget_exit_is_counted():
    budgeted = _pass([THM], ("--budget", "5"))
    assert budgeted["outcomes"][0]["exit_code"] == 2
    assert run.score([THM], [budgeted], {}, {}) == (1, 1)


def test_wrong_verdict_is_counted():
    control = Command("verify pentagon --negative-control --xdeg 4 --qorder 10", "equal")
    assert run.score([control], [_pass([control])], {}, {}) == (1, 1)


def test_times_scale_with_the_reference_loop():
    slow = {"setup_s": 0.4, "probes": [2 * run.REF_LOOP_S] * 4,
            "outcomes": [{"seconds": 1.0}, {"seconds": 3.0}]}
    assert run.scaled(slow) == (0.2, 2.0)


def test_series_parser_reads_render():
    series = nahm.evaluate(nahm.build_b2_char_form(), 15, charges=False)
    expected = {e2 // 2: c for (e2, _ch), c in series.terms.items()}
    assert oracle.parse_series(series.render()) == expected
    assert oracle.parse_series("1 - 2*q + q^3") == {0: 1, 1: -2, 3: 1}


def test_generator_is_seeded():
    for workload in WORKLOADS:
        assert generate(workload, 7) == generate(workload, 7)
    assert any(generate(w, 1) != generate(w, 2) for w in WORKLOADS)


def _traced_layers():
    tr = tracer.install(tracer.Tracer())
    try:
        outcomes = []
        for index, cmd in enumerate((THM, JET)):
            tr.command = index
            outcomes.append(tr.span("cli.command", run_command)(cli.main, cmd.args))
    finally:
        tr.uninstall()
    return tracer.layer_metrics(tr, sum(len(o["stdout"]) for o in outcomes))


def test_trace_counts_repeat_and_patches_come_off():
    original = nahm.evaluate
    first, second = _traced_layers(), _traced_layers()
    assert nahm.evaluate is original
    counts = {k: v for k, (v, unit) in first.items() if unit != "s"}
    assert counts == {k: v for k, (v, unit) in second.items() if unit != "s"}
    assert counts["cli.commands"] == 2
    assert counts["nahm.evaluate.calls"] == 2
    assert counts["linalg.rank.calls"] > 0
    assert counts["linalg.rank.sum"] <= counts["linalg.rank.rows"]
    assert first["cli.self_s"][0] >= 0 and first["jets.row_build_s"][0] >= 0
    pd, mono = first["nahm.evaluate.pd_s"][0], first["nahm.evaluate.monotone_s"][0]
    assert pd > 0 and mono > 0


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok {name}")
