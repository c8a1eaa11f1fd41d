import hashlib
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import forms, nahm, presets, quiver, qweyl, series
from qident.cli import main

from quiver_reference import level_steps


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


def test_quiver_report_stops_at_first_mismatch(monkeypatch, runner):
    bad = series.Mismatch(Fraction(3), (), 2, 1)

    def box(*args):
        yield (0, 0), series.CompareResult(True, 20)
        yield (0, 1), series.CompareResult(False, 20, bad)
        yield (1, 0), series.CompareResult(True, 20)

    monkeypatch.setattr(quiver, "verify_theorem51_box", box)
    result = run(runner, "verify", "quiver", "--rank", "2", "--orientation", "R",
                 "--kmax", "1", "--order", "10")
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert "location: charges=[], lhs_coefficient=2, q_exponent=3, rhs_coefficient=1" in lines
    assert lines[-2:] == ["k=(0, 1): 1 representation(s): [2,2]^1", "k=(0, 1): MISMATCH"]
    assert "k=(1, 0)" not in result.output


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


@pytest.mark.parametrize("source", ["preset", "file"])
def test_d4_reading_of_another_preset_is_exit_2(runner, tmp_path, source):
    path = tmp_path / "ring.txt"
    path.write_text("generators: x\nx*x\n", encoding="utf-8")
    chosen = ["--preset", "b2-a"] if source == "preset" else ["--preset-file", str(path)]
    result = run(runner, "jets", "hilbert", *chosen, "--weight", "3",
                 "--d4-reading", "repaired")
    assert_usage_exit(result)
    assert "--d4-reading applies to --preset d4-d only" in result.output


def test_forms_expand_diff(runner):
    result = run(runner, "forms", "expand-diff", "--n", "3", "--kind", "Bprime")
    assert result.exit_code == 0
    assert "k_i*k_j (j>i+1) coefficients all zero: True" in result.output


def test_forms_expand_diff_builds_the_polynomial_once(runner, monkeypatch):
    calls = []
    build = forms.expand_form_difference

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(forms, "expand_form_difference", counted)
    result = run(runner, "forms", "expand-diff", "--n", "4", "--kind", "Bprime")
    assert result.exit_code == 0
    assert calls == [(4, "Bprime")]


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


@pytest.mark.parametrize("args", [
    ("forms", "show", "--preset", "B-a03"),
    ("forms", "show", "--preset", "B-a٣"),
    ("forms", "show", "--preset", "Bprime-a٣"),
    ("forms", "eval", "--preset", "Bprime-a03", "--order", "5"),
    ("jets", "hilbert", "--preset", "sln-a٣", "--weight", "3"),
    ("jets", "hilbert", "--preset", "sln-b03", "--weight", "3"),
    ("jets", "hilbert", "--preset", "power-٣", "--weight", "3"),
    ("jets", "hilbert", "--preset", "power-03", "--weight", "3"),
])
def test_non_canonical_preset_count_is_exit_2(runner, args):
    # only ASCII digits without a leading zero name a count; B-a03 and the
    # Arabic-Indic digit three must not resolve to the preset of 3
    result = run(runner, *args)
    assert_usage_exit(result)
    assert result.output.startswith("error: unknown ")


def test_forms_show_and_custom_verify(runner, tmp_path):
    shown = run(runner, "forms", "show", "--preset", "B-a2")
    assert shown.exit_code == 0
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(shown.output, encoding="utf-8")
    rhs.write_text(forms.to_json(nahm.build_cartan_side("a2")), encoding="utf-8")
    result = run(runner, "verify", "custom", "--lhs", str(lhs), "--rhs", str(rhs),
                 "--order", "10", "--charges")
    assert result.exit_code == 0


def test_custom_mismatch_gives_exit_1(runner, tmp_path):
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(forms.to_json(nahm.build_cartan_side("a2")), encoding="utf-8")
    rhs.write_text(forms.to_json(nahm.build_cartan_side("a3")), encoding="utf-8")
    result = run(runner, "verify", "custom", "--lhs", str(lhs), "--rhs", str(rhs),
                 "--order", "10")
    assert result.exit_code == 1
    assert "verdict: mismatch" in result.output
    assert "q_exponent=1" in result.output


def test_custom_charge_rank_mismatch_is_exit_2(runner, tmp_path):
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(forms.to_json(nahm.build_cartan_side("a2")), encoding="utf-8")
    rhs.write_text(forms.to_json(nahm.build_cartan_side("a3")), encoding="utf-8")
    result = run(runner, "verify", "custom", "--lhs", str(lhs), "--rhs", str(rhs),
                 "--order", "10", "--charges")
    assert_usage_exit(result)
    assert result.output.strip() == (
        "error: charge ranks differ (1 vs 2); compare the uncharged series instead")


def test_budget_exceeded_is_exit_2(runner):
    result = run(runner, "--budget", "3", "verify", "thm1", "--variant", "a",
                 "--n", "3", "--order", "20")
    assert result.exit_code == 2


def test_negative_budget_is_usage_error(runner):
    # no run can meet a negative cap: refused as a usage error, before any work
    result = run(runner, "--budget", "-1", "verify", "thm1", "--variant", "a",
                 "--n", "3", "--order", "3")
    assert result.exit_code == 2
    assert "Invalid value for '--budget'" in result.output
    assert "budget exceeded" not in result.output
    result = run(runner, "--budget", "0", "verify", "thm1", "--variant", "a",
                 "--n", "3", "--order", "3")
    assert result.exit_code == 2
    assert "budget exceeded: level-sum steps limit 0" in result.output


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
    good.write_text(forms.to_json(nahm.build_cartan_side("a2")), encoding="utf-8")
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


def test_forms_eval_repeated_label_is_exit_2(runner, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"labels": ["a", "a"], "quadratic": [[1, 0], [0, 1]], '
                    '"linear": [0, 0]}', encoding="utf-8")
    result = run(runner, "forms", "eval", "--spec-file", str(spec), "--order", "5")
    assert_usage_exit(result)
    assert "repeated label 'a'" in result.output


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
    spec.write_text(forms.to_json(nahm.build_B_form(2)), encoding="utf-8")
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


@pytest.mark.parametrize("relation,same_as", [
    ("a*a*-2", "-2*a*a"),
    ("a*b*-1 + b*b", "b*b - a*b"),
    ("b * -1*a + -b*-b", "-a*b - b*b"),
])
def test_jets_preset_file_factor_sign(runner, tmp_path, relation, same_as):
    """A `-` right after `*` signs the factor; it is not an operator."""
    lines = []
    for text in (relation, same_as):
        path = tmp_path / "ring.txt"
        path.write_text(f"generators: a b\n{text}\n", encoding="utf-8")
        result = run(runner, "jets", "hilbert", "--preset-file", str(path),
                     "--weight", "4")
        assert result.exit_code == 0
        lines.append([ln for ln in result.output.splitlines()
                      if ln.startswith("series: ")])
    assert lines[0] == lines[1] and len(lines[0]) == 1


@pytest.mark.parametrize("relation,message", [
    ("a*c", "error: unknown generator 'c' (generators: a b)"),
    ("a*b - a*b", "error: relation 'a*b - a*b' is zero"),
    # an empty side of a chain or an empty factor is refused, not skipped
    ("a*b = = b*b", "error: relation 'a*b = = b*b' has an empty side"),
    ("= a*b", "error: relation '= a*b' has an empty side"),
    ("a*b =", "error: relation 'a*b =' has an empty side"),
    ("a*b*", "error: term 'a*b*' has an empty factor"),
    # a - right after * is a factor's sign, and a sign alone is no factor
    ("a*-", "error: term 'a*-' has an empty factor"),
    # an operator needs a term after it; a message quotes the side as written
    ("a*b +", "error: relation 'a*b +' has an operator with no term after it"),
    ("a*b + + b*b", "error: relation 'a*b + + b*b' has an operator with no term after it"),
    ("a*b - $b", "error: bad factor '$b' in relation 'a*b - $b'"),
])
def test_jets_preset_file_bad_relation_is_exit_2(runner, tmp_path, relation,
                                                 message):
    path = tmp_path / "ring.txt"
    path.write_text(f"generators: a b\n{relation}\n", encoding="utf-8")
    result = run(runner, "jets", "hilbert", "--preset-file", str(path),
                 "--weight", "3")
    assert_usage_exit(result)
    assert result.output.strip() == message


def test_jets_preset_file_duplicate_generator_is_exit_2(runner, tmp_path):
    # a repeated name would count a second, phantom generator
    path = tmp_path / "ring.txt"
    path.write_text("generators: a a\na*a\n", encoding="utf-8")
    result = run(runner, "jets", "hilbert", "--preset-file", str(path),
                 "--weight", "3")
    assert_usage_exit(result)
    assert result.output.strip() == "error: duplicate generator (generators: a a)"


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


def test_suite_forwards_the_global_flags(runner, tmp_path):
    line = "verify thm1 --variant a --n 3 --order 12"
    cfg = tmp_path / "suite.txt"
    cfg.write_text(line + "\n", encoding="utf-8")
    direct = run(runner, *shlex.split(line))
    result = run(runner, "suite", str(cfg))
    assert result.output == f"$ qident {line}\n{direct.output}\nsuite done; worst exit code 0\n"

    assert run(runner, "--budget", "5", *shlex.split(line)).exit_code == 2
    result = run(runner, "--budget", "5", "suite", str(cfg))
    assert result.exit_code == 2
    assert "error: budget exceeded: level-sum steps limit 5" in result.output
    result = run(runner, "--budget", "100000", "suite", str(cfg))
    assert result.exit_code == 0
    result = run(runner, "--timings", "--json", "suite", str(cfg))
    assert result.exit_code == 0
    assert '"wall_time_seconds"' in result.output

    cfg.write_text("--budget 100000 " + line + "\n", encoding="utf-8")
    assert run(runner, "--budget", "5", "suite", str(cfg)).exit_code == 0   # the line wins


def test_suite_line_running_suite_is_exit_2(runner, tmp_path):
    cfg = tmp_path / "suite.txt"
    cfg.write_text(f"suite {shlex.quote(str(cfg))}\n"
                   "verify pentagon --xdeg 3 --qorder 8\n", encoding="utf-8")
    result = run(runner, "suite", str(cfg))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.count("error:") == 1
    assert "error: a suite file cannot run suite\n" in result.output
    assert "verdict: equal" in result.output     # the next line still ran
    assert result.output.endswith("suite done; worst exit code 2\n")


def test_suite_internal_error_is_a_report_with_exit_3(runner, tmp_path, monkeypatch):
    def broken(line):
        raise RuntimeError("boom")

    monkeypatch.setattr(shlex, "split", broken)
    cfg = tmp_path / "suite.txt"
    cfg.write_text("verify pentagon --xdeg 3 --qorder 8\n", encoding="utf-8")
    result = run(runner, "suite", str(cfg))
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "command: suite\n" in result.output
    assert "verdict: error\n" in result.output
    assert "exception=RuntimeError: boom" in result.output


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


def test_ordered_product_type_takes_ascii_digits_only(runner):
    result = run(runner, "verify", "ordered-product", "--type", "a\u0663",
                 "--xdeg", "3", "--qorder", "5")
    assert_usage_exit(result)
    assert "unknown Dynkin type" in result.output


@pytest.mark.parametrize("name", ["sln-a0", "sln-a1", "sln-b0", "sln-b1", "sln-h0", "sln-h1"])
def test_jets_sln_rank_too_small_is_exit_2(runner, name):
    result = run(runner, "jets", "hilbert", "--preset", name, "--weight", "3")
    assert_usage_exit(result)
    assert "n >= 2" in result.output


def test_readme_commands_run(runner, tmp_path, monkeypatch):
    # the CLI block of the README, run in process: `> file` redirects the
    # report, `--rhs other.json` is cartan-a3 and the suite file has two lines
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```sh\n(qident .*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "other.json").write_text(forms.to_json(nahm.build_cartan_side("a3")),
                                         encoding="utf-8")
    (tmp_path / "my-checks.txt").write_text(
        "verify thm1 --variant a --n 2 --order 10\nforms eval --preset b2-char --order 10\n",
        encoding="utf-8")
    lines = block.splitlines()
    assert len(lines) > 10
    for line in lines:
        command, _, target = line.partition(" > ")
        args = shlex.split(command)
        assert args[0] == "qident", line
        result = run(runner, *args[1:])
        assert result.exit_code == 0, (line, result.output)
        if target:
            (tmp_path / target).write_text(result.output, encoding="utf-8")


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
    return refused


def test_budget_caps_pentagon_level_sum_steps(runner):
    # each side is one level sum; the larger side takes 48 steps
    refused = _budget_exit_codes(runner, 48, "pentagon", "--xdeg", "6", "--qorder", "10")
    assert "level-sum steps" in refused.output


def test_budget_caps_ordered_product_level_sum_steps(runner):
    refused = _budget_exit_codes(runner, 72, "ordered-product", "--type", "a4",
                                 "--xdeg", "4", "--qorder", "6")
    assert "level-sum steps" in refused.output


def test_budget_caps_quiver_representations(runner):
    steps = level_steps(quiver.QuiverA(3, ("R", "L")), (2, 2, 2), 8)
    assert steps == 114
    _budget_exit_codes(runner, steps, "quiver", "--rank", "3", "--orientation", "RL",
                       "--kmax", "2", "--order", "8")


@pytest.mark.parametrize("args", [
    ("verify", "custom", "--lhs", "DIR", "--rhs", "DIR", "--order", "3"),
    ("jets", "hilbert", "--preset-file", "DIR", "--weight", "3"),
    ("forms", "eval", "--spec-file", "DIR", "--order", "3"),
    ("suite", "DIR"),
])
def test_directory_as_input_file_is_exit_2(runner, tmp_path, args):
    result = run(runner, *(str(tmp_path) if a == "DIR" else a for a in args))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "is a directory" in result.output


@pytest.mark.parametrize("key,value", [
    ("charges", [[1.7, 0], [0, 1]]),
    ("quadratic", [[True, "-1/2"], ["-1/2", 1]]),
])
def test_form_spec_values_are_not_coerced(runner, tmp_path, key, value):
    data = json.loads(forms.to_json(nahm.build_cartan_side("a3")))
    data[key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data), encoding="utf-8")
    result = run(runner, "forms", "eval", "--spec-file", str(spec), "--order", "4")
    assert_usage_exit(result)
    assert repr(key) in result.output


@pytest.mark.parametrize("bad_line,message", [
    (b'verify thm1 --variant "a', "error: No closing quotation"),
    (b"verify \xff", "No such command"),
], ids=["unclosed-quote", "not-utf8"])
def test_suite_bad_line_is_exit_2(runner, tmp_path, bad_line, message):
    cfg = tmp_path / "suite.txt"
    cfg.write_bytes(bad_line + b"\nverify pentagon --xdeg 3 --qorder 8\n")
    result = run(runner, "suite", str(cfg))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert "verdict: equal" in result.output     # the next line still ran


def test_validity_fault_is_a_report_with_exit_3(runner, monkeypatch):
    # an evaluation order one power of q short: the comparison reads past the
    # validity of the coefficients, a fault of the program, not a usage error
    side_order2 = qweyl._side_order2
    monkeypatch.setattr(qweyl, "_side_order2", lambda *args: side_order2(*args) - 2)
    args = ("verify", "pentagon", "--xdeg", "4", "--qorder", "6")
    result = run(runner, *args)
    assert result.exit_code == 3
    assert "Traceback" not in result.output
    assert "verdict: error\n" in result.output
    assert ("exception=ValidityError: coefficients not valid far enough for this comparison"
            in result.output)
    payload = json.loads(run(runner, "--json", *args).output)
    assert payload["verdict"] == "error" and payload["exit_code"] == 3


@pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyError("boom")],
                         ids=["RuntimeError", "KeyError"])
def test_internal_error_is_a_report_with_exit_3(runner, tmp_path, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(nahm, "verify_identity", broken)
    args = ("verify", "thm1", "--variant", "a", "--n", "2", "--order", "5")
    result = run(runner, *args)
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "command: verify thm1\n" in result.output
    assert "verdict: error\n" in result.output
    assert f"exception={type(exc).__name__}: {exc}" in result.output
    payload = json.loads(run(runner, "--json", *args).output)
    assert payload["verdict"] == "error" and payload["exit_code"] == 3
    assert payload["detail"] == {"exception": f"{type(exc).__name__}: {exc}"}

    cfg = tmp_path / "suite.txt"
    cfg.write_text(" ".join(args) + "\nverify pentagon --xdeg 3 --qorder 8\n",
                   encoding="utf-8")
    result = run(runner, "suite", str(cfg))
    assert result.exit_code == 3
    assert "command: verify pentagon" in result.output
    assert result.output.endswith("suite done; worst exit code 3\n")


# -- the exit-code contract under random input --------------------------------

_ENTRY = st.one_of(st.integers(-2, 3), st.sampled_from(
    ["1/2", "-1/4", "1/0", "x", True, 1.7, float("nan"), None]))
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.text("ab1/", max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text("ab", max_size=2),
                                                               inner, max_size=2),
    max_leaves=4)


@st.composite
def _spec_text(draw):
    """Form-spec JSON: valid, wrong shapes, non-numbers, booleans, truncated."""
    l = draw(st.integers(0, 3))
    valid = draw(st.booleans())
    entry = st.integers(0, 2) if valid else _ENTRY
    charge = st.integers(-1, 2) if valid else st.integers(-1, 2) | _ENTRY

    def field(good):
        return draw(_JUNK) if draw(st.integers(0, 3)) == 3 else draw(good)

    def vec(n, elem):
        return st.lists(elem, min_size=n, max_size=n)

    quad = draw(vec(l, vec(l, entry)))
    if draw(st.booleans()):
        for i in range(l):
            for j in range(i):
                quad[i][j] = quad[j][i]
    data = {
        "labels": field(vec(l, st.text("ab", min_size=1, max_size=2))),
        "quadratic": field(st.just(quad)),
        "linear": field(vec(l, entry)),
        "charges": field(st.lists(vec(l, charge), max_size=2)),
        "name": field(st.text("ab", max_size=2)),
        "notes": field(st.lists(st.text("ab", max_size=2), max_size=1)),
    }
    if draw(st.integers(0, 3)) == 3:
        del data[draw(st.sampled_from(sorted(data)))]
    text = json.dumps(draw(_JUNK) if draw(st.integers(0, 7)) == 7 else data)
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 3)) == 3 else text


@st.composite
def _relation_text(draw):
    header = draw(st.sampled_from([
        "", "generators: a b\n", "generators: a\n", "generators:\n",
        "generators: a b\ncharges: (1,0) (0,1)\n", "charges: (1)\n",
        "generators: a b\ncharges: (1,0)\n"]))
    token = st.sampled_from(["a", "b", "c", "*", " + ", " - ", " = ", "2", "0", "x1",
                             "(", "#", "a*b", "a*a", "b*b*b"])
    lines = draw(st.lists(st.lists(token, max_size=5).map("".join), max_size=3))
    return header + "".join(line + "\n" for line in lines)


_SMALL = st.integers(-1, 6).map(str)
_FLAG = st.sampled_from([(), ("--charges",)])


def _fuzz_args():
    thm1 = st.tuples(st.just(("verify", "thm1", "--variant")), st.sampled_from(["a", "b"]),
                     st.just("--n"), st.integers(-1, 5).map(str), st.just("--order"),
                     _SMALL, _FLAG)
    quiver_ = st.tuples(st.just(("verify", "quiver", "--rank")), st.integers(-1, 4).map(str),
                        st.just("--orientation"), st.text("RLX", max_size=4),
                        st.just("--kmax"), st.integers(-1, 3).map(str),
                        st.just("--order"), _SMALL)
    ordered = st.tuples(st.just(("verify", "ordered-product", "--type")),
                        st.sampled_from(["a0", "a1", "a2", "a3", "a4", "d4", "a", "b3",
                                         "a-1", "", "d5", "a03", "e6"]),
                        st.just("--xdeg"), _SMALL, st.just("--qorder"), _SMALL)
    form_preset = st.tuples(st.just("--preset"), st.sampled_from(
        ["cartan-a2", "cartan-a1", "B-a1", "B-a3", "Bprime-a2", "b2-char", "d4", "nope"]))
    spec_file = st.tuples(st.just("--spec-file"), _spec_text().map(lambda t: ("FILE", t)))
    jet_preset = st.tuples(st.just("--preset"), st.sampled_from(
        ["power-0", "power-2", "sln-a1", "sln-a2", "sln-b2", "sln-h2", "b2-a", "nope"]))
    relation_file = st.tuples(st.just("--preset-file"),
                              _relation_text().map(lambda t: ("FILE", t)))

    def forms_eval(source):
        return st.tuples(st.just(("forms", "eval")), source, st.just("--order"), _SMALL,
                         _FLAG)

    def jets_hilbert(source):
        return st.tuples(st.just(("jets", "hilbert")), source, st.just("--weight"), _SMALL,
                         st.sampled_from([(), ("--multigraded",)]))

    return st.one_of(thm1, quiver_, ordered,
                     forms_eval(form_preset | st.just(())), forms_eval(spec_file),
                     jets_hilbert(jet_preset | st.just(())), jets_hilbert(relation_file))


def _flatten(parts):
    for part in parts:
        if isinstance(part, tuple) and part[:1] != ("FILE",):
            yield from _flatten(part)
        else:
            yield part


@settings(max_examples=300, deadline=None)
@given(parts=_fuzz_args())
def test_exit_code_contract_holds_under_random_input(tmp_path_factory, parts):
    """0 passed, 1 mismatch, 2 refused: never a traceback, never an internal error."""
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    args = []
    for part in _flatten(parts):
        if isinstance(part, tuple):
            path.write_text(part[1], encoding="utf-8")
            part = str(path)
        args.append(part)
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "verdict: error" not in result.output, args


def test_forms_show_internal_error_is_a_report_with_exit_3(runner, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(presets, "nahm_preset", broken)
    args = ("forms", "show", "--preset", "B-a2")
    result = run(runner, *args)
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "command: forms show\n" in result.output
    assert "verdict: error\n" in result.output
    assert "exception=RuntimeError: boom" in result.output
    payload = json.loads(run(runner, "--json", *args).output)
    assert payload["verdict"] == "error" and payload["exit_code"] == 3


@pytest.mark.parametrize("name", ["B-a1", "cartan-a0"])
def test_forms_show_refused_preset_is_exit_2(runner, name):
    result = run(runner, "forms", "show", "--preset", name)
    assert_usage_exit(result)
    assert "n >= 2" in result.output


# -- golden reports: every half-integer render path ---------------------------

REPORT_GOLDENS = json.loads((Path(__file__).parent / "report_goldens.json")
                            .read_text(encoding="utf-8"))

# one-variable forms; quadratic 1/2 sums q^(n^2/2)/(q)_n, half-integer exponents
GOLDEN_SPECS = {
    "half.json": {"name": "half", "labels": ["m"], "quadratic": [["1/2"]], "linear": [0]},
    "one.json": {"name": "one", "labels": ["m"], "quadratic": [[1]], "linear": [0]},
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", sorted(REPORT_GOLDENS))
def test_report_goldens(runner, tmp_path, monkeypatch, case, as_json):
    """Reports pinned byte for byte, with their exit codes, in text and --json."""
    monkeypatch.chdir(tmp_path)
    for name, spec in GOLDEN_SPECS.items():
        (tmp_path / name).write_text(json.dumps(spec), encoding="utf-8")
    golden = REPORT_GOLDENS[case]
    result = run(runner, *(["--json"] if as_json else []), *shlex.split(golden["command"]))
    want = golden["json" if as_json else "text"]
    assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == want["sha256"]
    assert result.exit_code == want["exit_code"]


def test_charged_verify_and_quiver_box_build_no_term_dict(monkeypatch, runner):
    # the level sums hand their rows to QSeries and series_eq compares rows;
    # the {(exponent, charges): coefficient} view is built only when read
    built = []
    term_dict = series._term_dict
    monkeypatch.setattr(series, "_term_dict", lambda rows: built.append(rows) or term_dict(rows))
    for line in ("verify thm1 --variant a --n 4 --order 10 --charges",
                 "verify quiver --rank 3 --orientation RL --kmax 2 --order 8"):
        result = run(runner, *shlex.split(line))
        assert result.exit_code == 0 and "verdict: equal" in result.output, line
    assert built == []
    assert nahm.evaluate(nahm.build_B_form(3), 4).terms and len(built) == 1
