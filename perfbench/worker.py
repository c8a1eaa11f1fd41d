"""One workload pass in a fresh process.

Started by run.py with QIDENT_KERNELS=pure and `src` first on the import path.
It imports the CLI, checks that the package comes from this checkout and runs
the pure backend, generates the workload's commands, then sends them one after
another through `qident.cli.main` in process with `--json`, as `qident suite`
does.  It prints one JSON object: set-up time (parent's spawn to ready), each
command's time, exit code and output, peak RSS, and the reference-loop
timings run.py uses to scale the times to a fixed CPU speed.  The reference
loop runs once before the imports, once when ready and once after every
command, outside every timed interval.  With --trace it also installs the
tracer, writes the spans to --trace-out and adds the per-layer metrics.

    python3 perfbench/worker.py --workload jets --seed 1 --spawned-at T
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

REF_LOOP_N = 2000        # one reference loop: about 3.5 ms on the 2-core VM
REF_LOOP_REPS = 9        # loops per probe; a probe reports their median


def _reference_loop():
    """A fixed pure-Python job of the kind qident does (tuple-keyed dict
    updates, integer arithmetic, a sort).  It never changes: its time tracks
    the CPU's speed, not the program's."""
    d = {}
    for i in range(REF_LOOP_N):
        k = (i * 7919) % 1021
        d[(k, i & 7)] = d.get((k, i & 7), 0) + i
    sorted(d.items())


def probe():
    """Seconds of one reference loop now (median of REF_LOOP_REPS) and the
    seconds the probe itself took."""
    began = time.perf_counter()
    times = []
    for _ in range(REF_LOOP_REPS):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2], time.perf_counter() - began


def run_command(main, args):
    """Run one CLI command in process: {"exit_code", "stdout", "error"}."""
    import click

    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=["--json"] + list(args), standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception as exc:  # a crash is a failed command, not a benchmark crash
            error = f"{type(exc).__name__}: {exc}"
            code = None
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


def _check_environment(root):
    import qident
    from qident import kernels

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(qident.__file__).startswith(src + os.sep):
        raise SystemExit(f"qident imported from {qident.__file__}, not from {src}")
    if kernels.BACKEND != "pure":
        raise SystemExit(f"kernels backend is {kernels.BACKEND!r}; the benchmark pins 'pure'")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--trace-out", default=None,
                    help="trace this pass and write its spans to this file")
    opts = ap.parse_args(argv)
    before_imports, probe_s = probe()

    from qident import cli
    import workloads

    _check_environment(os.getcwd())
    commands = workloads.generate(opts.workload, opts.seed)
    ready = time.monotonic()
    # probes: before the imports, when ready, then after every command
    probes = [before_imports, probe()[0]]
    result = {"setup_s": ready - opts.spawned_at - probe_s, "probes": probes}

    tr = None
    if opts.trace_out:
        import tracer
        tr = tracer.install(tracer.Tracer())

    outcomes = []
    for index, cmd in enumerate(commands):
        t0 = time.perf_counter()
        if tr is None:
            outcome = run_command(cli.main, cmd.args)
        else:
            tr.command = index
            outcome = tr.span("cli.command", run_command)(cli.main, cmd.args)
        outcome["seconds"] = time.perf_counter() - t0
        outcomes.append(outcome)
        probes.append(probe()[0])
    result["wall_s"] = sum(o["seconds"] for o in outcomes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["outcomes"] = outcomes

    if tr is not None:
        report_bytes = sum(len(o["stdout"].encode()) for o in outcomes)
        result["layers"] = tracer.layer_metrics(tr, report_bytes)
        os.makedirs(os.path.dirname(opts.trace_out) or ".", exist_ok=True)
        with open(opts.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": opts.workload, "seed": opts.seed,
                       "commands": [c.line for c in commands],
                       "span_fields": ["name", "start", "end", "parent", "command",
                                       "child_s", "tag"],
                       "spans": tr.spans, "aggregates": tr.agg}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
