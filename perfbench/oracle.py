"""Oracles for the benchmark commands, run after the timed window.

A command passes when it exited 0 without an exception, printed the verdict
its workload expects, and its report agrees with the reference: a jet Hilbert
series must equal (or, for the printed so(8) readings, first exceed at the
stated q-power) the lattice form the acceptance suite pairs it with, and the
pentagon negative control must fail at the stated total degree.

A verify report prints only its verdict, so each verify command is also run
once more in process with `series_eq` and `qweyl.nc_eq` wrapped where their
callers look them up.  Every comparison is digested (truncation, then both
sides' terms inside it) and the digests must equal the ones recorded in
compared.json.  A change that compares fewer terms, or other series, fails
there even when both sides still agree.  Regenerate the table only from a
tree whose results are known to be right:

    python3 perfbench/oracle.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COMPARED = os.path.join(HERE, "compared.json")


def parse_series(text):
    """Uncharged integer-exponent series text, as QSeries.render prints it,
    to {exponent: coefficient}."""
    out = {}
    if text.strip() == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        coeff, _, power = term.rpartition("*") if "q" in term else ("", "", term)
        if power == "q":
            exp = 1
        elif power.startswith("q^") and power[2:].isdigit():
            exp = int(power[2:])
        elif power.isdigit() and not coeff:
            exp, coeff = 0, power
        else:
            raise ValueError(f"cannot parse series term {term!r}")
        out[exp] = sign * int(coeff or 1)
    return out


def references(commands):
    """Reference series of every lattice form the commands are paired with."""
    from qident import nahm, presets

    refs = {}
    for cmd in commands:
        if cmd.check and cmd.check[0] in ("series_eq", "series_excess"):
            form, order = cmd.check[1], cmd.check[2]
            if (form, order) not in refs:
                series = nahm.evaluate(presets.nahm_preset(form), order, charges=False)
                refs[(form, order)] = {e2 // 2: c for (e2, _ch), c in series.terms.items()}
    return refs


def _printed_series(report):
    for line in report.get("report", []):
        if line.startswith("series: "):
            return parse_series(line[len("series: "):])
    raise ValueError("report has no series line")


def _first_difference(got, ref, exceeds_only):
    for exp in sorted(set(got) | set(ref)):
        a, b = got.get(exp, 0), ref.get(exp, 0)
        if (a > b) if exceeds_only else (a != b):
            return exp
    return None


def _monomial_degree(text):
    total = 0
    for factor in text.split("*"):
        _, _, power = factor.partition("^")
        total += int(power) if power else 1
    return total


def report_of(outcome):
    """The command's JSON report, or None when it printed something else."""
    try:
        report = json.loads(outcome["stdout"])
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _digest(view, terms):
    return terms, hashlib.sha256(repr(view).encode()).hexdigest()


def _series_digest(a, b):
    """What series_eq(a, b) looks at: both sides below the common truncation."""
    order2 = min(a.order2, b.order2)
    sides = [sorted((k, v) for k, v in s.terms.items() if k[0] < order2 and v) for s in (a, b)]
    return _digest(("series", order2, sides), sum(map(len, sides)))


def _nc_digest(a, b, qorder):
    """What nc_eq(a, b, qorder) looks at: monomials below the common x-degree,
    each coefficient below the q-order."""
    from qident.halfint import twice_of

    xdeg, qorder2 = min(a.xdeg, b.xdeg), twice_of(qorder)
    sides = []
    for element in (a, b):
        side = []
        for exps, coeff in element.terms.items():
            kept = sorted((e, c) for e, c in coeff.terms.items() if e < qorder2 and c)
            if sum(exps) < xdeg and kept:
                side.append((exps, kept))
        sides.append(sorted(side))
    return _digest(("nc", xdeg, qorder2, sides), sum(map(len, sides)))


def compared_digests(cmd):
    """Run a verify command once in process; (one digest of every
    comparison it made, its outcome)."""
    from qident import cli, jets, nahm, quiver, qweyl
    from worker import run_command

    seen = []

    def series_wrapper(fn):
        def wrapper(a, b, *rest, **kwargs):
            seen.append(_series_digest(a, b))
            return fn(a, b, *rest, **kwargs)
        return wrapper

    def nc_wrapper(fn):
        def wrapper(a, b, qorder, *rest, **kwargs):
            seen.append(_nc_digest(a, b, qorder))
            return fn(a, b, qorder, *rest, **kwargs)
        return wrapper

    sites = [(m, "series_eq", series_wrapper) for m in (nahm, jets, quiver, cli)]
    sites.append((qweyl, "nc_eq", nc_wrapper))
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in sites]
    try:
        for owner, attr, wrap in sites:
            setattr(owner, attr, wrap(getattr(owner, attr)))
        outcome = run_command(cli.main, cmd.args)
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    seen.sort()
    total = hashlib.sha256(repr(seen).encode()).hexdigest()[:16]
    return (f"{len(seen)} comparisons, {sum(t for t, _ in seen)} terms, "
            f"sha256 {total}"), outcome


def compared_check(commands, table=None):
    """{line: None or the reason} for every verify command: its comparisons
    must digest to the recorded ones."""
    if table is None:
        with open(COMPARED, encoding="utf-8") as fh:
            table = json.load(fh)
    out = {}
    for cmd in commands:
        if cmd.args[0] != "verify" or cmd.line in out:
            continue
        digest, _ = compared_digests(cmd)
        if cmd.line not in table:
            out[cmd.line] = "no recorded comparison digest for this command"
        elif digest != table[cmd.line]:
            out[cmd.line] = f"compared {digest}; recorded {table[cmd.line]}"
        else:
            out[cmd.line] = None
    return out


def check(cmd, outcome, refs, compared=None):
    """None when the command's outcome passes its oracle, else the reason;
    compared is the command's compared_check result."""
    if outcome.get("error"):
        return f"exception: {outcome['error']}"
    if outcome["exit_code"] != 0:
        message = outcome.get("stderr", "").strip().splitlines()
        return f"exit code {outcome['exit_code']}" + (f" ({message[-1]})" if message else "")
    report = report_of(outcome)
    if report is None:
        return "output is not one JSON report"
    if report.get("verdict") != cmd.verdict:
        return f"verdict {report.get('verdict')!r}, expected {cmd.verdict!r}"
    if compared is not None:
        return compared
    if cmd.check is None:
        return None
    kind = cmd.check[0]
    if kind == "nc_degree":
        degree = _monomial_degree(report.get("detail", {}).get("monomial", ""))
        if degree != cmd.check[1]:
            return f"mismatch at total degree {degree}, expected {cmd.check[1]}"
        return None
    try:
        got = _printed_series(report)
    except ValueError as exc:
        return str(exc)
    ref = refs[(cmd.check[1], cmd.check[2])]
    if kind == "series_eq":
        exp = _first_difference(got, ref, exceeds_only=False)
        if exp is not None:
            return (f"series differs from {cmd.check[1]} at q^{exp}: "
                    f"{got.get(exp, 0)} vs {ref.get(exp, 0)}")
        return None
    exp = _first_difference(got, ref, exceeds_only=True)
    if exp != cmd.check[3]:
        return f"first excess over {cmd.check[1]} at q^{exp}, expected q^{cmd.check[3]}"
    return None


def write_table(seeds=range(1000)):
    """Record the comparison digests of every verify command any seed gives."""
    import workloads

    lines = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for cmd in workloads.generate(workload, seed):
                if cmd.args[0] == "verify":
                    lines.setdefault(cmd.line, cmd)
    table = {}
    for line, cmd in sorted(lines.items()):
        digest, outcome = compared_digests(cmd)
        reason = check(cmd, outcome, {})
        if reason is not None:
            raise SystemExit(f"{line}: {reason}; not recording")
        table[line] = digest
        print(f"{line}: {digest}")
    with open(COMPARED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python3 perfbench/oracle.py --write")
    os.environ["QIDENT_KERNELS"] = "pure"
    sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
    write_table()
