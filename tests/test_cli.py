import json

import pytest
from click.testing import CliRunner

from qident import nahm, quiver, qweyl
from qident.cli import main

from dilog_reference import generous_expansion


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args))


GOLDEN_THM1_TEXT = """\
command: verify thm1
engine: qident 0.1.0
lhs preset: B-a3
rhs preset: cartan-a3
order: q^12
charges: on
verdict: equal
notes:
  - source display writes denominators (q)_{n_ij} while summing over m; read as (q)_{m_ij}
"""


def test_thm1_text_golden(runner):
    result = run(runner, "verify", "thm1", "--variant", "a", "--n", "3",
                 "--order", "12", "--charges")
    assert result.exit_code == 0
    assert result.output == GOLDEN_THM1_TEXT


def test_thm1_json_golden(runner):
    result = run(runner, "--json", "verify", "thm1", "--variant", "b", "--n", "2",
                 "--order", "10")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {
        "command": "verify thm1",
        "detail": {},
        "engine": "qident 0.1.0",
        "exit_code": 0,
        "notes": ["source display writes denominators (q)_{n_ij} while summing "
                  "over m; read as (q)_{m_ij}"],
        "parameters": {"charges": "off", "lhs preset": "Bprime-a2",
                       "order": "q^10", "rhs preset": "cartan-a2"},
        "report": [],
        "verdict": "equal",
    }


def test_reports_are_reproducible(runner):
    a = run(runner, "verify", "b2", "--order", "15")
    b = run(runner, "verify", "b2", "--order", "15")
    assert a.output == b.output and a.exit_code == b.exit_code == 0


def test_quiver_report_lists_decomposition(runner):
    result = run(runner, "verify", "quiver", "--rank", "2", "--orientation", "R",
                 "--kmax", "1", "--order", "10")
    assert result.exit_code == 0
    assert "k=(1, 1): 2 representation(s): [1,2]^1; [1,1]^1 [2,2]^1" in result.output


def test_pentagon_and_negative_control(runner):
    good = run(runner, "verify", "pentagon", "--xdeg", "3", "--qorder", "8")
    assert good.exit_code == 0
    control = run(runner, "verify", "pentagon", "--xdeg", "3", "--qorder", "8",
                  "--negative-control")
    assert control.exit_code == 0
    assert "verdict: holds" in control.output
    assert "monomial=x1*x2" in control.output


def test_ordered_product_audit_trail(runner):
    result = run(runner, "verify", "ordered-product", "--type", "a3",
                 "--xdeg", "4", "--qorder", "8")
    assert result.exit_code == 0
    assert "phi(- q^1 * x2*x1)" in result.output


def test_b2_product(runner):
    result = run(runner, "verify", "b2-product", "--order", "20")
    assert result.exit_code == 0
    assert "sum vs product: equal" in result.output
    assert "factorization ch[W_B2] = ch[W_A2]*ch[W_A1]: equal" in result.output


def test_d4_primed_note(runner):
    result = run(runner, "verify", "d4", "--order", "8", "--primed")
    assert result.exit_code == 1       # primed form is only an upper bound
    assert "verdict: mismatch" in result.output
    result = run(runner, "verify", "d4", "--order", "8")
    assert result.exit_code == 0


def test_jets_hilbert_text(runner):
    result = run(runner, "jets", "hilbert", "--preset", "power-2", "--weight", "7")
    assert result.exit_code == 0
    assert "series: 1 + q + q^2 + q^3 + 2*q^4 + 2*q^5 + 3*q^6 + 3*q^7" in result.output
    assert "consistent to weight 7" in result.output


def test_jets_classically_free(runner):
    result = run(runner, "jets", "classically-free", "--n", "2", "--weight", "6")
    assert result.exit_code == 0


def test_jets_d4_readings(runner):
    for reading in ("printed", "printed-v", "repaired"):
        result = run(runner, "jets", "hilbert", "--preset", "d4-d",
                     "--weight", "2", "--d4-reading", reading)
        assert result.exit_code == 0
        want = "36" if reading == "repaired" else "43"
        assert f"{want}*q^2" in result.output


def test_forms_expand_diff(runner):
    result = run(runner, "forms", "expand-diff", "--n", "3", "--kind", "Bprime")
    assert result.exit_code == 0
    assert "k_i*k_j (j>i+1) coefficients all zero: True" in result.output


@pytest.mark.parametrize("n", ["1", "0"])
def test_forms_expand_diff_small_n_is_exit_2(runner, n):
    result = run(runner, "forms", "expand-diff", "--n", n, "--kind", "Bprime")
    assert_usage_exit(result)
    assert "n >= 2" in result.output


@pytest.mark.parametrize("args", [
    ("forms", "show", "--preset", "nope"),
    ("forms", "eval", "--preset", "nope", "--order", "5"),
    ("jets", "hilbert", "--preset", "nope", "--weight", "3"),
])
def test_unknown_preset_error_is_plain(runner, args):
    result = run(runner, *args)
    assert_usage_exit(result)
    assert result.output.startswith("error: unknown ")
    assert '"' not in result.output


def test_forms_show_and_custom_verify(runner, tmp_path):
    shown = run(runner, "forms", "show", "--preset", "B-a2")
    assert shown.exit_code == 0
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(shown.output, encoding="utf-8")
    rhs.write_text(nahm.build_cartan_side("A", 2).to_json(), encoding="utf-8")
    result = run(runner, "verify", "custom", "--lhs", str(lhs), "--rhs", str(rhs),
                 "--order", "10", "--charges")
    assert result.exit_code == 0


def test_custom_mismatch_gives_exit_1(runner, tmp_path):
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(nahm.build_cartan_side("A", 2).to_json(), encoding="utf-8")
    rhs.write_text(nahm.build_cartan_side("A", 3).to_json(), encoding="utf-8")
    result = run(runner, "verify", "custom", "--lhs", str(lhs), "--rhs", str(rhs),
                 "--order", "10")
    assert result.exit_code == 1
    assert "verdict: mismatch" in result.output
    assert "q_exponent=1" in result.output


def test_budget_exceeded_is_exit_2(runner):
    result = run(runner, "--budget", "3", "verify", "thm1", "--variant", "a",
                 "--n", "3", "--order", "20")
    assert result.exit_code == 2


def test_usage_error_is_exit_2(runner, tmp_path):
    result = run(runner, "verify", "ordered-product", "--type", "x9",
                 "--xdeg", "3", "--qorder", "6")
    assert result.exit_code == 2
    result = run(runner, "jets", "hilbert", "--weight", "3")
    assert result.exit_code == 2
    bare = tmp_path / "bare.txt"
    bare.write_text("x*x\n", encoding="utf-8")
    result = run(runner, "jets", "hilbert", "--preset-file", str(bare),
                 "--weight", "3", "--multigraded")
    assert result.exit_code == 2   # no charge data declared


def assert_usage_exit(result):
    """Exit 2 through the CLI's own error line, not an escaped exception."""
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output


def test_budget_caps_classically_free(runner):
    result = run(runner, "--budget", "5", "jets", "classically-free",
                 "--n", "3", "--weight", "6")
    assert_usage_exit(result)
    assert "budget" in result.output


def test_thm1_rank_too_small_is_exit_2(runner):
    result = run(runner, "verify", "thm1", "--variant", "a", "--n", "1",
                 "--order", "5")
    assert_usage_exit(result)
    assert "n >= 2" in result.output


def test_custom_malformed_json_is_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    good = tmp_path / "good.json"
    good.write_text(nahm.build_cartan_side("A", 2).to_json(), encoding="utf-8")
    result = run(runner, "verify", "custom", "--lhs", str(bad), "--rhs", str(good),
                 "--order", "6")
    assert_usage_exit(result)


def test_custom_spec_missing_key_is_exit_2(runner, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"quadratic": [[1]]}', encoding="utf-8")
    result = run(runner, "verify", "custom", "--lhs", str(spec), "--rhs", str(spec),
                 "--order", "5")
    assert_usage_exit(result)
    assert "'labels'" in result.output


def test_custom_spec_wrong_shape_is_exit_2(runner, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"labels": ["a"], "quadratic": [1], "linear": [0]}', encoding="utf-8")
    result = run(runner, "verify", "custom", "--lhs", str(spec), "--rhs", str(spec),
                 "--order", "5")
    assert_usage_exit(result)
    assert "'quadratic'" in result.output


def test_forms_eval_malformed_json_is_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    result = run(runner, "forms", "eval", "--spec-file", str(bad), "--order", "6")
    assert_usage_exit(result)


def test_jets_hilbert_has_no_fast_option(runner):
    result = run(runner, "jets", "hilbert", "--preset", "b2-a", "--weight", "3",
                 "--fast")
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_forms_eval_preset_file(runner, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(nahm.build_B_form(2).to_json(), encoding="utf-8")
    result = run(runner, "forms", "eval", "--spec-file", str(spec), "--order", "6")
    assert result.exit_code == 0
    assert "series: 1 + q + q^2 + q^3 + 2*q^4 + 2*q^5" in result.output


def test_jets_preset_file(runner, tmp_path):
    path = tmp_path / "ring.txt"
    path.write_text("generators: x\nx*x*x\n", encoding="utf-8")
    result = run(runner, "jets", "hilbert", "--preset-file", str(path),
                 "--weight", "6")
    assert result.exit_code == 0
    assert "series: 1 + q + 2*q^2 + 2*q^3 + 3*q^4 + 4*q^5 + 6*q^6" in result.output


def test_suite_runner(runner, tmp_path):
    cfg = tmp_path / "suite.txt"
    cfg.write_text(
        "# smoke suite\n"
        "verify thm1 --variant a --n 2 --order 10\n"
        "verify pentagon --xdeg 3 --qorder 8\n",
        encoding="utf-8")
    result = run(runner, "suite", str(cfg))
    assert result.exit_code == 0
    assert "suite done; worst exit code 0" in result.output


def test_timings_flag_adds_wall_time(runner):
    result = run(runner, "--timings", "verify", "thm1", "--variant", "a",
                 "--n", "2", "--order", "8")
    assert result.exit_code == 0
    assert "wall time:" in result.output


@pytest.mark.parametrize("kind", ["a1", "a0"])
def test_ordered_product_rank_too_small_is_exit_2(runner, kind):
    result = run(runner, "verify", "ordered-product", "--type", kind,
                 "--xdeg", "3", "--qorder", "5")
    assert_usage_exit(result)
    assert "n >= 2" in result.output


@pytest.mark.parametrize("args", [
    ("verify", "pentagon", "--xdeg", "0", "--qorder", "8"),
    ("verify", "ordered-product", "--type", "a3", "--xdeg", "0", "--qorder", "8"),
    ("verify", "quiver", "--rank", "2", "--orientation", "R", "--kmax", "-1", "--order", "8"),
    ("verify", "quiver", "--rank", "2", "--orientation", "R", "--kmax", "1", "--order", "0"),
    ("verify", "pentagon", "--xdeg", "3", "--qorder", "0"),
    ("verify", "ordered-product", "--type", "a3", "--xdeg", "3", "--qorder", "-2"),
    ("verify", "thm1", "--variant", "a", "--n", "3", "--order", "0"),
    ("verify", "b2", "--order", "0"),
    ("verify", "d4", "--order", "0"),
    ("verify", "b2-product", "--order", "0"),
    ("jets", "hilbert", "--preset", "b2-a", "--weight", "-1"),
    ("jets", "classically-free", "--n", "2", "--weight", "-1"),
    ("forms", "eval", "--preset", "d4", "--order", "-3"),
])
def test_vacuous_comparison_is_usage_error(runner, args):
    """Inputs that would compare nothing are refused, not reported equal."""
    result = run(runner, *args)
    assert result.exit_code == 2
    assert "Invalid value" in result.output


def _budget_exit_codes(runner, budget, *args):
    passed = run(runner, "--budget", str(budget), "verify", *args)
    refused = run(runner, "--budget", str(budget - 1), "verify", *args)
    assert passed.exit_code == 0
    assert_usage_exit(refused)
    assert "budget" in refused.output


def test_budget_caps_pentagon_monomial_pairs(runner):
    alg = qweyl.NCAlgebra([[0, 1], [-1, 0]])
    pairs = max(generous_expansion(alg, f, 6, 10)[1] for f in qweyl.pentagon_factors())
    _budget_exit_codes(runner, pairs, "pentagon", "--xdeg", "6", "--qorder", "10")


def test_budget_caps_ordered_product_monomial_pairs(runner):
    alg = qweyl.NCAlgebra.type_a(3)
    pairs = max(generous_expansion(alg, f, 4, 6)[1]
                for f in qweyl.ordered_product_factors("a", 4))
    _budget_exit_codes(runner, pairs, "ordered-product", "--type", "a4",
                       "--xdeg", "4", "--qorder", "6")


def test_budget_caps_quiver_representations(runner):
    qv = quiver.QuiverA(3, ("R", "L"))
    reps = sum(len(quiver.enumerate_reps(qv, (a, b, c)))
               for a in range(3) for b in range(3) for c in range(3))
    _budget_exit_codes(runner, reps, "quiver", "--rank", "3", "--orientation", "RL",
                       "--kmax", "2", "--order", "8")
