"""Batch verification commands over the identity engine.

Every command emits a deterministic report (text by default, --json for the
structured form) and exits 0 when all checks pass, 1 on any mismatch or
violation (the report still prints), 2 on usage, input or budget errors (one
`error:` line on stderr, no report), and 3 when the program itself fails
(a report with verdict `error` naming the exception). Each command body
returns its report (`suite` exits with the worst code of its lines);
`reporting` alone maps errors to these exit codes.
"""

from __future__ import annotations

import functools
import sys
import time

import click

from . import jets, nahm, presets, quiver, qweyl
from .nahm import BudgetExceeded
from .poly import powers
from .report import EXIT_USAGE, VerificationReport
from .series import euler_product, series_eq


class Settings:
    def __init__(self, in_suite=False):
        self.json = False
        self.budget = None
        self.timings = False
        self.in_suite = in_suite            # a line of a suite file is running


pass_settings = click.make_pass_decorator(Settings, ensure=True)
# an existing file; every file option shares one type
FILE = click.Path(exists=True, dir_okay=False)


def _emit(settings, report, started):
    report.wall_time = time.time() - started
    text = report.to_json(settings.timings) if settings.json else report.to_text(settings.timings)
    click.echo(text, nl=False)
    sys.exit(report.exit_code)


def _usage_exit(message):
    """Input and budget errors: one line on stderr, exit 2, no report."""
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_USAGE)


def reporting(body):
    """Run a command body that returns a VerificationReport, then emit it; a
    body that returns text (`forms show`) has it printed as it is, and `suite`
    exits with the worst code of its lines by itself.

    BudgetExceeded and ValueError are usage errors (exit 2). Any other
    exception is a fault of the program, reported with verdict "error"
    (exit 3) so that it never reads as a mismatch.
    """
    @functools.wraps(body)
    def command(settings, **params):
        started = time.time()
        try:
            report = body(settings, **params)
        except (BudgetExceeded, ValueError) as exc:
            _usage_exit(exc)
        except Exception as exc:
            ctx = click.get_current_context()
            report = VerificationReport(
                command=ctx.command_path[len(ctx.find_root().info_name) + 1:],
                parameters=params, verdict="error",
                detail={"exception": f"{type(exc).__name__}: {exc}"})
        if isinstance(report, str):
            click.echo(report)
        else:
            _emit(settings, report, started)
    return pass_settings(command)


def _preset(lookup, name, *args):
    """A named preset; an unknown name, or one its builder refuses (such as
    B-a1), is a usage error."""
    try:
        return lookup(name, *args)
    except (KeyError, ValueError) as exc:
        _usage_exit(exc.args[0])            # str() of a KeyError is its repr


def _preset_or_file(name, path, file_option, lookup, load):
    if (name is None) == (path is None):
        raise ValueError(f"need exactly one of --preset / {file_option}")
    return _preset(lookup, name) if name else load(path)


def _read_spec(path):
    from . import forms

    with open(path, "r", encoding="utf-8") as fh:
        return forms.from_json(fh.read())


def _on_off(flag):
    return "on" if flag else "off"


@click.group()
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
@click.option("--budget", type=click.IntRange(min=0), default=None,
              help="cap on level-sum steps (lattice sums, quiver boxes and each side "
                   "of a dilogarithm product) / jet matrix cells; exceeding it is exit 2")
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


def _identity_report(settings, command, lhs, rhs, order, charges, notes=(),
                     shown=None):
    """Compare two lattice forms; shown names the sides in the parameters."""
    result = nahm.verify_identity(lhs, rhs, order, with_charges=charges,
                                  node_budget=settings.budget)
    shown = shown or {"lhs preset": lhs.name, "rhs preset": rhs.name}
    report = VerificationReport(
        command=command,
        parameters={**shown, "order": f"q^{order}", "charges": _on_off(charges)},
        notes=list(lhs.notes) + list(rhs.notes) + list(notes))
    return _series_report(report, result)


def _nc_report(report, result):
    """Verdict of a noncommutative check; a mismatch names its monomial."""
    if result.equal:
        report.verdict = "equal"
    else:
        report.verdict = "mismatch"
        exps = result.mismatch.exps
        report.detail = {
            "monomial": "*".join(powers([f"x{i}" for i in range(1, len(exps) + 1)], exps)),
            "q_exponent": str(result.mismatch.qexp),
            "lhs_coefficient": result.mismatch.coeff_a,
            "rhs_coefficient": result.mismatch.coeff_b,
        }
    return report


@verify.command("thm1")
@click.option("--variant", type=click.Choice(["a", "b"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--charges", is_flag=True)
@reporting
def verify_thm1(settings, variant, n, order, charges):
    """Lattice form (B or B') against the Cartan character side."""
    lhs = (nahm.build_B_form if variant == "a" else nahm.build_Bprime_form)(n)
    return _identity_report(settings, "verify thm1", lhs, nahm.build_cartan_side(f"a{n}"),
                            order, charges)


@verify.command("pentagon")
@click.option("--xdeg", type=click.IntRange(min=1), required=True)
@click.option("--qorder", type=click.IntRange(min=1), required=True)
@click.option("--variant", type=click.Choice(["plain", "shifted"]), default="plain")
@click.option("--negative-control", is_flag=True,
              help="drop the middle factor; the check must then fail")
@reporting
def verify_pentagon(settings, xdeg, qorder, variant, negative_control):
    """phi(y) phi(x) = phi(x) phi(-yx) phi(y) with xy = q yx."""
    result = qweyl.pentagon_check(xdeg, qorder, variant=variant,
                                  drop_middle=negative_control,
                                  budget=settings.budget)
    report = _nc_report(VerificationReport(
        command="verify pentagon",
        parameters={"xdeg": xdeg, "qorder": qorder, "variant": variant,
                    "negative control": _on_off(negative_control)}), result)
    if negative_control:
        # pass/fail flips: the control must detect the damage
        report.verdict = "holds" if not result.equal else "violation"
    return report


@verify.command("ordered-product")
@click.option("--type", "kind", required=True,
              help="a{N} for the chain case, or d4")
@click.option("--xdeg", type=click.IntRange(min=1), required=True)
@click.option("--qorder", type=click.IntRange(min=1), required=True)
@reporting
def verify_ordered_product(settings, kind, xdeg, qorder):
    """Left-to-right dilogarithm factorization in the displayed order."""
    result, factors = qweyl.ordered_product_check(kind, xdeg, qorder, budget=settings.budget)
    return _nc_report(VerificationReport(
        command="verify ordered-product",
        parameters={"type": kind, "xdeg": xdeg, "qorder": qorder},
        lines=["rhs factors (audit order):"] + [
            f"  phi(- q^{sh} * {'*'.join(f'x{g}' for g in w)})" for (_s, sh, w) in factors]),
        result)


@verify.command("quiver")
@click.option("--rank", type=int, required=True)
@click.option("--orientation", required=True, help="arrow letters, e.g. RRL")
@click.option("--kmax", type=click.IntRange(min=0), required=True)
@click.option("--order", type=click.IntRange(min=1), required=True)
@reporting
def verify_quiver(settings, rank, orientation, kmax, order):
    """Codimension partition identity for every k in the box."""
    qv = quiver.QuiverA.from_string(rank, orientation)
    report = VerificationReport(
        command="verify quiver",
        parameters={"rank": rank, "orientation": orientation,
                    "kmax": kmax, "order": f"q^{order}"})
    small = (kmax + 1) ** rank <= 16
    for k, result in quiver.verify_theorem51_box(qv, (kmax,) * rank, order,
                                                 settings.budget):
        if small:
            reps = [quiver.render_rep(rep) for rep in quiver.enumerate_reps(qv, k)]
            report.lines.append(f"k={k}: {len(reps)} representation(s): {'; '.join(reps)}")
        if not result.equal:
            report.add_mismatch(result.mismatch)
            report.lines.append(f"k={k}: MISMATCH")
            break
    return report


@verify.command("b2")
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--charges", is_flag=True)
@reporting
def verify_b2(settings, order, charges):
    """Three-variable character form against the five-variable form."""
    return _identity_report(settings, "verify b2", nahm.build_b2_char_form(),
                            nahm.build_b2_quintuple_form(), order, charges)


@verify.command("b2-product")
@click.option("--order", type=click.IntRange(min=1), required=True)
@reporting
def verify_b2_product(settings, order):
    """Character sum vs the modular product, plus the rank-factorization."""
    def character(spec):
        return nahm.evaluate(spec, order, charges=False, node_budget=settings.budget)

    # series_eq and euler_product are looked up here at call time, so that
    # instrumentation can patch them on this module
    ch = character(nahm.build_b2_char_form())
    prod = euler_product([(1, 1, 1, 1), (1, 1, 2, 2),
                          (-1, 1, 5, -1), (-1, 4, 5, -1)], order)
    r1 = series_eq(ch, prod)
    a2 = character(nahm.build_cartan_side("a3"))
    a1 = character(nahm.build_cartan_side("a2"))
    r2 = series_eq(ch, a2 * a1)
    report = VerificationReport(
        command="verify b2-product",
        parameters={"order": f"q^{order}"},
        notes=["product factors: (-q;q)inf (-q;q^2)inf^2 / ((q;q^5)inf (q^4;q^5)inf)"],
        lines=[f"sum vs product: {'equal' if r1.equal else 'mismatch'}",
               "factorization ch[W_B2] = ch[W_A2]*ch[W_A1]: "
               f"{'equal' if r2.equal else 'mismatch'}"])
    return _series_report(report, r2 if r1.equal else r1)


@verify.command("d4")
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--primed", is_flag=True)
@click.option("--charges", is_flag=True)
@reporting
def verify_d4(settings, order, primed, charges):
    """Twelve-variable form against the D4 Cartan side."""
    notes = ["primed form: B minus the two cross terms n12*n23 + n12*m13; "
             "only an upper-bound claim is attached to it"] if primed else []
    return _identity_report(settings, "verify d4", nahm.build_d4_form(primed=primed),
                            nahm.build_cartan_side("d4"), order, charges, notes)


@verify.command("custom")
@click.option("--lhs", "lhs_file", type=FILE, required=True)
@click.option("--rhs", "rhs_file", type=FILE, required=True)
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--charges", is_flag=True)
@reporting
def verify_custom(settings, lhs_file, rhs_file, order, charges):
    """Compare two user-defined lattice forms (JSON spec files)."""
    lhs = _read_spec(lhs_file)
    rhs = _read_spec(rhs_file)
    return _identity_report(settings, "verify custom", lhs, rhs, order, charges,
                            shown={"lhs": lhs.name or lhs_file, "rhs": rhs.name or rhs_file})


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

@main.group("jets")
def jets_group():
    """Jet-algebra Hilbert series."""


@jets_group.command("hilbert")
@click.option("--preset", "preset_name", default=None)
@click.option("--preset-file", type=FILE, default=None,
              help="plain-text relation file instead of a named preset")
@click.option("--weight", type=click.IntRange(min=1), required=True)
@click.option("--multigraded", is_flag=True)
@click.option("--d4-reading", type=click.Choice(jets.D4_READINGS), default=None)
@reporting
def jets_hilbert(settings, preset_name, preset_file, weight, multigraded,
                 d4_reading):
    """Hilbert series of a jet algebra, weight by weight."""
    if d4_reading is not None and preset_name != "d4-d":
        raise ValueError("--d4-reading applies to --preset d4-d only")
    preset = _preset_or_file(preset_name, preset_file, "--preset-file",
                             lambda name: presets.jet_preset(name, d4_reading or "printed"),
                             jets.load_preset_file)
    hs = jets.hilbert_series(preset, weight, multigraded=multigraded,
                             budget=settings.budget)
    return VerificationReport(
        command="jets hilbert",
        parameters={"preset": preset.name, "weight": weight,
                    "multigraded": _on_off(multigraded)},
        verdict="info", notes=list(preset.notes),
        lines=[f"series: {hs.render()}",
               f"(dimensions computed through weight {weight}; "
               "statements at this truncation are 'consistent to weight "
               f"{weight}', never 'proved')"])


@jets_group.command("classically-free")
@click.option("--n", type=int, required=True)
@click.option("--weight", type=click.IntRange(min=1), required=True)
@reporting
def jets_classically_free(settings, n, weight):
    """Jet Hilbert series of the quadratic presentation vs the lattice form."""
    return _series_report(VerificationReport(
        command="jets classically-free",
        parameters={"n": n, "weight": weight},
        notes=[f"equality witnesses classical freeness to weight {weight} only"]),
        jets.verify_classically_free(n, weight, budget=settings.budget))


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

@main.group("forms")
def forms_group():
    """Symbolic quadratic-form tooling and preset plumbing."""


@forms_group.command("expand-diff")
@click.option("--n", type=int, required=True)
@click.option("--kind", type=click.Choice(["B", "Bprime"]), required=True)
@reporting
def forms_expand_diff(settings, n, kind):
    """Six-type coefficient table of the mixed-coordinate form difference."""
    from . import forms

    report = VerificationReport(
        command="forms expand-diff",
        parameters={"n": n, "kind": kind},
        notes=["touching configurations (second index meets the next start) "
               "are tabulated with type I: the overlap formula does not "
               "extend to them"])
    form = forms.expand_form_difference(n, kind)
    bad = 0
    for (typ, desc, coeff, expected) in forms.six_type_table(form, n, kind):
        line = f"type {typ:3} {desc}: {coeff}"
        if expected is not None:
            bad += coeff != expected
            line += " [ok]" if coeff == expected else f" [EXPECTED {expected}]"
        report.lines.append(line)
    nonzero = {k: v for k, v in forms.cross_k_coefficients(form, n).items() if v}
    report.lines.append(f"k_i*k_j (j>i+1) coefficients all zero: {not nonzero}")
    report.verdict = "equal" if (bad == 0 and not nonzero) else "mismatch"
    if kind == "B":
        report.verdict = "info" if not nonzero else "mismatch"
    return report


@forms_group.command("show")
@click.option("--preset", "preset_name", required=True)
@reporting
def forms_show(settings, preset_name):
    """Serialize a named lattice form to JSON (editable for verify custom)."""
    from . import forms

    return forms.to_json(_preset(presets.nahm_preset, preset_name))


@forms_group.command("eval")
@click.option("--preset", "preset_name", default=None)
@click.option("--spec-file", type=FILE, default=None)
@click.option("--order", type=click.IntRange(min=1), required=True)
@click.option("--charges", is_flag=True)
@reporting
def forms_eval(settings, preset_name, spec_file, order, charges):
    """Evaluate one lattice form and print the truncated series."""
    spec = _preset_or_file(preset_name, spec_file, "--spec-file",
                           presets.nahm_preset, _read_spec)
    series = nahm.evaluate(spec, order, charges=charges, node_budget=settings.budget)
    return VerificationReport(
        command="forms eval",
        parameters={"preset": spec.name or spec_file, "order": f"q^{order}",
                    "charges": _on_off(charges)},
        verdict="info", notes=list(spec.notes),
        lines=[f"series: {series.render()}"])


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

@main.command("suite")
@click.argument("config", type=FILE)
@reporting
def run_suite(settings, config):
    """Run a file of commands (one CLI line each); exit with the worst code.

    The global --json, --budget and --timings reach every line; a line's own
    global options come after them and win.  A `suite` line is refused."""
    import shlex

    if settings.in_suite:
        raise ValueError("a suite file cannot run suite")
    flags = [f for f, on in (("--json", settings.json), ("--timings", settings.timings)) if on]
    if settings.budget is not None:
        flags += ["--budget", str(settings.budget)]
    worst = 0
    with open(config, "r", encoding="utf-8", errors="replace") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    for line in lines:
        if not line:
            continue
        click.echo(f"$ qident {line}")
        try:
            main.main(args=flags + shlex.split(line), standalone_mode=False,
                      obj=Settings(in_suite=True))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
            worst = max(worst, code)
        except click.ClickException as exc:
            exc.show()
            worst = max(worst, EXIT_USAGE)
        except ValueError as exc:           # shlex: an unclosed quote
            click.echo(f"error: {exc}", err=True)
            worst = max(worst, EXIT_USAGE)
        click.echo("")
    click.echo(f"suite done; worst exit code {worst}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
