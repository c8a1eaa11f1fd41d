"""Batch verification commands over the identity engine.

Every command emits a deterministic report (text by default, --json for the
structured form) and exits 0 when all checks pass, 1 on any mismatch or
violation (the report still prints), 2 on usage or budget errors.
"""

from __future__ import annotations

import shlex
import sys
import time

import click

from . import jets, nahm, presets, quiver, qweyl
from .nahm import BudgetExceeded
from .report import EXIT_USAGE, VerificationReport
from .series import euler_product, series_eq


class Settings:
    def __init__(self):
        self.json = False
        self.budget = None
        self.timings = False


pass_settings = click.make_pass_decorator(Settings, ensure=True)


def _emit(settings, report, started):
    report.wall_time = time.time() - started
    text = report.to_json(settings.timings) if settings.json else report.to_text(settings.timings)
    click.echo(text, nl=False)
    sys.exit(report.exit_code)


def _read_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        return nahm.NahmSumSpec.from_json(fh.read())


def _mono_str(exps):
    return "*".join(f"x{i+1}" if p == 1 else f"x{i+1}^{p}"
                    for i, p in enumerate(exps) if p)


def _usage_exit(message):
    """Input and budget errors: one line on stderr, exit 2, no report."""
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_USAGE)


@click.group()
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
@click.option("--budget", type=int, default=None,
              help="cap on enumeration nodes or level-sum steps / matrix cells / "
                   "monomial pairs / quiver representations; exceeding it is exit 2")
@click.option("--timings", is_flag=True, help="include wall time (breaks byte-reproducibility)")
@pass_settings
def main(settings, as_json, budget, timings):
    """Exact coefficient-by-coefficient verification of q-series identities."""
    settings.json = as_json
    settings.budget = budget
    settings.timings = timings


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@main.group()
def verify():
    """Identity checks (lattice sums, dilogarithms, quivers)."""


def _series_report(report, result):
    if result.equal:
        report.verdict = "equal"
    else:
        report.add_mismatch(result.mismatch)
    return report


@verify.command("thm1")
@click.option("--variant", type=click.Choice(["a", "b"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--charges", is_flag=True)
@pass_settings
def verify_thm1(settings, variant, n, order, charges):
    """Lattice form (B or B') against the Cartan character side."""
    started = time.time()
    build = nahm.build_B_form if variant == "a" else nahm.build_Bprime_form
    try:
        lhs = build(n)
        rhs = nahm.build_cartan_side("A", n)
        result = nahm.verify_identity(lhs, rhs, order, with_charges=charges,
                                      node_budget=settings.budget)
    except (BudgetExceeded, ValueError) as exc:
        _usage_exit(exc)
    report = VerificationReport(
        command="verify thm1",
        parameters={"lhs preset": lhs.name, "rhs preset": rhs.name,
                    "order": f"q^{order}", "charges": "on" if charges else "off"},
        notes=list(lhs.notes))
    _emit(settings, _series_report(report, result), started)


@verify.command("pentagon")
@click.option("--xdeg", type=click.IntRange(min=1), required=True)
@click.option("--qorder", type=click.IntRange(min=1), required=True)
@click.option("--variant", type=click.Choice(["plain", "shifted"]), default="plain")
@click.option("--negative-control", is_flag=True,
              help="drop the middle factor; the check must then fail")
@pass_settings
def verify_pentagon(settings, xdeg, qorder, variant, negative_control):
    """phi(y) phi(x) = phi(x) phi(-yx) phi(y) with xy = q yx."""
    started = time.time()
    try:
        result = qweyl.pentagon_check(xdeg, qorder, variant=variant,
                                      drop_middle=negative_control,
                                      budget=settings.budget)
    except BudgetExceeded as exc:
        _usage_exit(exc)
    report = VerificationReport(
        command="verify pentagon",
        parameters={"xdeg": xdeg, "qorder": qorder, "variant": variant,
                    "negative control": "on" if negative_control else "off"})
    if result.equal:
        report.verdict = "equal"
    else:
        report.verdict = "mismatch"
        report.detail = {
            "monomial": _mono_str(result.mismatch.exps),
            "q_exponent": str(result.mismatch.qexp),
            "lhs_coefficient": result.mismatch.coeff_a,
            "rhs_coefficient": result.mismatch.coeff_b,
        }
    if negative_control:
        # pass/fail flips: the control must detect the damage
        report.verdict = "holds" if not result.equal else "violation"
    _emit(settings, report, started)


@verify.command("ordered-product")
@click.option("--type", "kind", required=True,
              help="a{N} for the chain case, or d4")
@click.option("--xdeg", type=click.IntRange(min=1), required=True)
@click.option("--qorder", type=click.IntRange(min=1), required=True)
@pass_settings
def verify_ordered_product(settings, kind, xdeg, qorder):
    """Left-to-right dilogarithm factorization in the displayed order."""
    started = time.time()
    if kind == "d4":
        args = ("d4",)
    elif kind.startswith("a") and kind[1:].isdigit():
        args = ("a", int(kind[1:]))
    else:
        _usage_exit(f"bad --type {kind!r}")
    try:
        result, factors = qweyl.ordered_product_check(*args, xdeg=xdeg, qorder=qorder,
                                                      budget=settings.budget)
    except (BudgetExceeded, ValueError) as exc:
        _usage_exit(exc)
    report = VerificationReport(
        command="verify ordered-product",
        parameters={"type": kind, "xdeg": xdeg, "qorder": qorder})
    report.lines = ["rhs factors (audit order):"] + [
        f"  phi(- q^{sh} * {'*'.join(f'x{g}' for g in w)})" for (_s, sh, w) in factors]
    if result.equal:
        report.verdict = "equal"
    else:
        report.verdict = "mismatch"
        report.detail = {
            "monomial": _mono_str(result.mismatch.exps),
            "q_exponent": str(result.mismatch.qexp),
            "lhs_coefficient": result.mismatch.coeff_a,
            "rhs_coefficient": result.mismatch.coeff_b,
        }
    _emit(settings, report, started)


@verify.command("quiver")
@click.option("--rank", type=int, required=True)
@click.option("--orientation", required=True, help="arrow letters, e.g. RRL")
@click.option("--kmax", type=click.IntRange(min=0), required=True)
@click.option("--order", type=click.IntRange(min=1), required=True)
@pass_settings
def verify_quiver(settings, rank, orientation, kmax, order):
    """Codimension partition identity for every k in the box."""
    started = time.time()
    try:
        qv = quiver.QuiverA.from_string(rank, orientation)
    except ValueError as exc:
        _usage_exit(exc)
    report = VerificationReport(
        command="verify quiver",
        parameters={"rank": rank, "orientation": orientation,
                    "kmax": kmax, "order": f"q^{order}"})
    verdict = "equal"
    lines = []
    small = (kmax + 1) ** rank <= 16
    decomps = {}

    def keep(k, rep):
        decomps.setdefault(k, []).append(quiver.render_rep(rep))

    try:
        for k, result in quiver.verify_theorem51_box(qv, (kmax,) * rank, order,
                                                     settings.budget,
                                                     keep if small else None):
            if small:
                reps = decomps[k]
                lines.append(f"k={k}: {len(reps)} representation(s): {'; '.join(reps)}")
            if not result.equal:
                verdict = "mismatch"
                report.add_mismatch(result.mismatch)
                lines.append(f"k={k}: MISMATCH")
                break
    except BudgetExceeded as exc:
        _usage_exit(exc)
    report.lines = lines
    report.verdict = verdict
    _emit(settings, report, started)


@verify.command("b2")
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--charges", is_flag=True)
@pass_settings
def verify_b2(settings, order, charges):
    """Three-variable character form against the five-variable form."""
    started = time.time()
    lhs = nahm.build_b2_char_form()
    rhs = nahm.build_b2_quintuple_form()
    report = VerificationReport(
        command="verify b2",
        parameters={"lhs preset": lhs.name, "rhs preset": rhs.name,
                    "order": f"q^{order}", "charges": "on" if charges else "off"})
    try:
        result = nahm.verify_identity(lhs, rhs, order, with_charges=charges,
                                      node_budget=settings.budget)
    except (BudgetExceeded, ValueError) as exc:
        _usage_exit(exc)
    _emit(settings, _series_report(report, result), started)


@verify.command("b2-product")
@click.option("--order", type=click.IntRange(min=1), required=True)
@pass_settings
def verify_b2_product(settings, order):
    """Character sum vs the modular product, plus the rank-factorization."""
    started = time.time()
    report = VerificationReport(
        command="verify b2-product",
        parameters={"order": f"q^{order}"},
        notes=["product factors: (-q;q)inf (-q;q^2)inf^2 / ((q;q^5)inf (q^4;q^5)inf)"])
    try:
        ch = nahm.evaluate(nahm.build_b2_char_form(), order, charges=False,
                           node_budget=settings.budget)
        prod = euler_product([(1, 1, 1, 1), (1, 1, 2, 2),
                              (-1, 1, 5, -1), (-1, 4, 5, -1)], order)
        r1 = series_eq(ch, prod)
        a2 = nahm.evaluate(nahm.build_cartan_side("A", 3), order, charges=False,
                           node_budget=settings.budget)
        a1 = nahm.evaluate(nahm.build_cartan_side("A", 2), order, charges=False,
                           node_budget=settings.budget)
        r2 = series_eq(ch, a2 * a1)
    except (BudgetExceeded, ValueError) as exc:
        _usage_exit(exc)
    report.lines = [
        f"sum vs product: {'equal' if r1.equal else 'mismatch'}",
        f"factorization ch[W_B2] = ch[W_A2]*ch[W_A1]: {'equal' if r2.equal else 'mismatch'}",
    ]
    if r1.equal and r2.equal:
        report.verdict = "equal"
    else:
        report.add_mismatch((r1 if not r1.equal else r2).mismatch)
    _emit(settings, report, started)


@verify.command("d4")
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--primed", is_flag=True)
@click.option("--charges", is_flag=True)
@pass_settings
def verify_d4(settings, order, primed, charges):
    """Twelve-variable form against the D4 Cartan side."""
    started = time.time()
    lhs = nahm.build_d4_form(primed=primed)
    rhs = nahm.build_cartan_side("D", 4)
    notes = []
    if primed:
        notes.append("primed form: B minus the two cross terms n12*n23 + n12*m13; "
                     "only an upper-bound claim is attached to it")
    report = VerificationReport(
        command="verify d4",
        parameters={"lhs preset": lhs.name, "rhs preset": rhs.name,
                    "order": f"q^{order}", "charges": "on" if charges else "off"},
        notes=notes)
    try:
        result = nahm.verify_identity(lhs, rhs, order, with_charges=charges,
                                      node_budget=settings.budget)
    except (BudgetExceeded, ValueError) as exc:
        _usage_exit(exc)
    _emit(settings, _series_report(report, result), started)


@verify.command("custom")
@click.option("--lhs", "lhs_file", type=click.Path(exists=True), required=True)
@click.option("--rhs", "rhs_file", type=click.Path(exists=True), required=True)
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--charges", is_flag=True)
@pass_settings
def verify_custom(settings, lhs_file, rhs_file, order, charges):
    """Compare two user-defined lattice forms (JSON spec files)."""
    started = time.time()
    try:
        lhs = _read_spec(lhs_file)
        rhs = _read_spec(rhs_file)
        result = nahm.verify_identity(lhs, rhs, order, with_charges=charges,
                                      node_budget=settings.budget)
    except (BudgetExceeded, ValueError) as exc:
        _usage_exit(exc)
    report = VerificationReport(
        command="verify custom",
        parameters={"lhs": lhs.name or lhs_file, "rhs": rhs.name or rhs_file,
                    "order": f"q^{order}", "charges": "on" if charges else "off"},
        notes=list(lhs.notes) + list(rhs.notes))
    _emit(settings, _series_report(report, result), started)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

@main.group("jets")
def jets_group():
    """Jet-algebra Hilbert series."""


@jets_group.command("hilbert")
@click.option("--preset", "preset_name", default=None)
@click.option("--preset-file", type=click.Path(exists=True), default=None,
              help="plain-text relation file instead of a named preset")
@click.option("--weight", type=click.IntRange(min=1), required=True)
@click.option("--multigraded", is_flag=True)
@click.option("--d4-reading", type=click.Choice(jets.D4_READINGS), default="printed")
@pass_settings
def jets_hilbert(settings, preset_name, preset_file, weight, multigraded,
                 d4_reading):
    """Hilbert series of a jet algebra, weight by weight."""
    started = time.time()
    if (preset_name is None) == (preset_file is None):
        _usage_exit("need exactly one of --preset / --preset-file")
    try:
        preset = (presets.jet_preset(preset_name, d4_reading) if preset_name
                  else jets.load_preset_file(preset_file))
    except (KeyError, ValueError) as exc:
        _usage_exit(exc)
    report = VerificationReport(
        command="jets hilbert",
        parameters={"preset": preset.name, "weight": weight,
                    "multigraded": "on" if multigraded else "off"},
        verdict="info", notes=list(preset.notes))
    try:
        hs = jets.hilbert_series(preset, weight, multigraded=multigraded,
                                 budget=settings.budget)
    except (BudgetExceeded, ValueError) as exc:
        _usage_exit(exc)
    report.lines = [f"series: {hs.render()}",
                    f"(dimensions computed through weight {weight}; "
                    "statements at this truncation are 'consistent to weight "
                    f"{weight}', never 'proved')"]
    _emit(settings, report, started)


@jets_group.command("classically-free")
@click.option("--n", type=int, required=True)
@click.option("--weight", type=click.IntRange(min=1), required=True)
@pass_settings
def jets_classically_free(settings, n, weight):
    """Jet Hilbert series of the quadratic presentation vs the lattice form."""
    started = time.time()
    report = VerificationReport(
        command="jets classically-free",
        parameters={"n": n, "weight": weight},
        notes=[f"equality witnesses classical freeness to weight {weight} only"])
    try:
        result = jets.verify_classically_free(n, weight, budget=settings.budget)
    except (BudgetExceeded, ValueError) as exc:
        _usage_exit(exc)
    _emit(settings, _series_report(report, result), started)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

@main.group()
def forms():
    """Symbolic quadratic-form tooling and preset plumbing."""


@forms.command("expand-diff")
@click.option("--n", type=int, required=True)
@click.option("--kind", type=click.Choice(["B", "Bprime"]), required=True)
@pass_settings
def forms_expand_diff(settings, n, kind):
    """Six-type coefficient table of the mixed-coordinate form difference."""
    started = time.time()
    report = VerificationReport(
        command="forms expand-diff",
        parameters={"n": n, "kind": kind},
        notes=["touching configurations (second index meets the next start) "
               "are tabulated with type I: the overlap formula does not "
               "extend to them"])
    rows = nahm.six_type_table(n, kind)
    lines = []
    bad = 0
    for (typ, desc, coeff, expected) in rows:
        if expected is None:
            lines.append(f"type {typ:3} {desc}: {coeff}")
        else:
            status = "ok" if coeff == expected else f"EXPECTED {expected}"
            bad += coeff != expected
            lines.append(f"type {typ:3} {desc}: {coeff} [{status}]")
    cross = nahm.cross_k_coefficients(n, kind)
    nonzero = {k: v for k, v in cross.items() if v}
    lines.append(f"k_i*k_j (j>i+1) coefficients all zero: {not nonzero}")
    report.lines = lines
    report.verdict = "equal" if (bad == 0 and not nonzero) else "mismatch"
    if kind == "B":
        report.verdict = "info" if not nonzero else "mismatch"
    _emit(settings, report, started)


@forms.command("show")
@click.option("--preset", "preset_name", required=True)
@pass_settings
def forms_show(settings, preset_name):
    """Serialize a named lattice form to JSON (editable for verify custom)."""
    try:
        spec = presets.nahm_preset(preset_name)
    except KeyError as exc:
        _usage_exit(exc)
    click.echo(spec.to_json())
    sys.exit(0)


@forms.command("eval")
@click.option("--preset", "preset_name", default=None)
@click.option("--spec-file", type=click.Path(exists=True), default=None)
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--charges", is_flag=True)
@pass_settings
def forms_eval(settings, preset_name, spec_file, order, charges):
    """Evaluate one lattice form and print the truncated series."""
    started = time.time()
    if (preset_name is None) == (spec_file is None):
        _usage_exit("need exactly one of --preset / --spec-file")
    try:
        spec = (presets.nahm_preset(preset_name) if preset_name
                else _read_spec(spec_file))
    except (KeyError, ValueError) as exc:
        _usage_exit(exc)
    report = VerificationReport(
        command="forms eval",
        parameters={"preset": spec.name or spec_file, "order": f"q^{order}",
                    "charges": "on" if charges else "off"},
        verdict="info", notes=list(spec.notes))
    try:
        series = nahm.evaluate(spec, order, charges=charges,
                               node_budget=settings.budget)
    except (BudgetExceeded, ValueError) as exc:
        _usage_exit(exc)
    report.lines = [f"series: {series.render()}"]
    _emit(settings, report, started)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

@main.command("suite")
@click.argument("config", type=click.Path(exists=True))
@pass_settings
def run_suite(settings, config):
    """Run a file of commands (one CLI line each); exit with the worst code."""
    worst = 0
    with open(config, "r", encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    for line in lines:
        if not line:
            continue
        click.echo(f"$ qident {line}")
        args = shlex.split(line)
        if settings.json and "--json" not in args:
            args = ["--json"] + args
        try:
            main.main(args=args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
            worst = max(worst, code)
        except click.ClickException as exc:
            exc.show()
            worst = max(worst, EXIT_USAGE)
        click.echo("")
    click.echo(f"suite done; worst exit code {worst}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
