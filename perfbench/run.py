#!/usr/bin/env python3
"""qident end-to-end benchmark: time to all verdicts of a CLI command list.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory with the pure kernel backend.  Each workload is a closed loop
with one client: a fresh process per pass (cold caches, as every CLI
invocation pays them) sends the workload's commands one after another.
Passes repeat while the next one is expected to end within --seconds, then
every command of every pass is checked against its oracle, and each verify
command is run once more to check the series it compares.  Times are scaled
to a fixed CPU speed by a reference loop timed next to them (see
perfbench/README.md).  With --trace 0 the last line carries the end-to-end
metrics (medians over the untraced passes); with --trace 1 the passes
alternate untraced and traced, and the last line carries the per-layer
metrics of the traced passes plus the tracing overhead.  See
perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REF_LOOP_S = 0.003       # reference-loop time that defines the scaled second
RUN_LIMIT_S = 170        # one invocation must end within 180 s

sys.path.insert(0, HERE)
import oracle  # noqa: E402
import workloads  # noqa: E402


class WorkerFailed(RuntimeError):
    pass


def spawn(args, deadline):
    """Run worker.py once and return its JSON result."""
    env = dict(os.environ, QIDENT_KERNELS="pure")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another pass")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args,
         "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    """What a result must record so that only like runs are compared."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qident")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {"git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "kernels": "pure",
            "nproc": os.cpu_count()}


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def scaled(p):
    """A pass's set-up and command times in seconds at reference speed: each
    interval is multiplied by REF_LOOP_S over the mean of the two reference
    probes around it, so that the CPU's speed drift between runs cancels."""
    probes = p["probes"]
    setup = p["setup_s"] * 2 * REF_LOOP_S / (probes[0] + probes[1])
    wall = sum(o["seconds"] * 2 * REF_LOOP_S / (probes[i + 1] + probes[i + 2])
               for i, o in enumerate(p["outcomes"]))
    return setup, wall


def _show(name, metric):
    value = metric["value"]
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name} {shown} {metric['unit']}")


def score(commands, passes, refs, compared):
    """Check every command of every pass against its oracle, printing one
    line per command; returns (attempted, failed)."""
    attempted = failed = 0
    for k, p in enumerate(passes):
        setup, wall = scaled(p)
        print(f"pass {k}{' traced' if p['traced'] else ''}: wall_s={wall:.4f} "
              f"setup_s={setup:.4f} (raw {p['wall_s']:.4f}, {p['setup_s']:.4f}; "
              f"reference loop {1e3 * statistics.median(p['probes']):.3f} ms) "
              f"peak_rss_mb={p['peak_rss_mb']:.1f}")
        for i, (cmd, outcome) in enumerate(zip(commands, p["outcomes"])):
            reason = oracle.check(cmd, outcome, refs, compared.get(cmd.line))
            attempted += 1
            failed += reason is not None
            verdict = (oracle.report_of(outcome) or {}).get("verdict")
            print(f"  [{i}] exit={outcome['exit_code']} verdict={verdict} "
                  f"{outcome['seconds']:.4f}s " + ("ok" if reason is None else "FAIL: " + reason))
    return attempted, failed


def _layer_summary(traced):
    """Per-layer metrics over the traced passes: counts must repeat exactly,
    times are medians."""
    out, unsteady = {}, []
    for name, (value, unit) in traced[0]["layers"].items():
        values = [p["layers"][name][0] for p in traced]
        if unit == "s":
            value = statistics.median(values)
        elif any(v != values[0] for v in values):
            unsteady.append(name)
        out[name] = {"value": value, "unit": unit}
    return out, unsteady


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qident", "cli.py")):
        print(f"error: no qident source tree under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    commands = workloads.generate(opts.workload, opts.seed)
    print(f"perfbench workload={opts.workload} seed={opts.seed} "
          f"seconds={opts.seconds:g} trace={opts.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for i, cmd in enumerate(commands):
        print(f"command {i}: qident --json {cmd.line}")

    try:
        passes, durations = [], {}
        window_end = time.monotonic() + opts.seconds
        while True:
            traced = bool(opts.trace) and len(passes) % 2 == 1
            # start a pass only if one like the last of its kind still fits
            expected = durations.get(traced, durations.get(not traced, 0.0))
            if len(passes) >= 1 + opts.trace and time.monotonic() + expected > window_end:
                break
            args = ["--workload", opts.workload, "--seed", str(opts.seed)]
            if traced:
                args += ["--trace-out", os.path.join(
                    OUT, f"trace-{opts.workload}-seed{opts.seed}-pass{len(passes)}.json")]
            started = time.monotonic()
            result = spawn(args, deadline)
            durations[traced] = time.monotonic() - started
            result["traced"] = traced
            passes.append(result)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    # the oracle runs only now, after the timed window
    os.environ["QIDENT_KERNELS"] = "pure"
    sys.path.insert(0, SRC)
    compared = oracle.compared_check(commands)
    attempted, failed = score(commands, passes, oracle.references(commands), compared)

    untraced = [p for p in passes if not p["traced"]]
    wall_s = statistics.median(scaled(p)[1] for p in untraced)
    metrics = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "setup_s": {"value": statistics.median(scaled(p)[0] for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in untraced),
                        "unit": "MiB"},
        "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "1"},
    }
    raw = {
        "raw.wall_s": {"value": statistics.median(p["wall_s"] for p in untraced), "unit": "s"},
        "raw.setup_s": {"value": statistics.median(p["setup_s"] for p in passes), "unit": "s"},
        "raw.ref_loop_ms": {"value": 1e3 * statistics.median(
            x for p in passes for x in p["probes"]), "unit": "ms"},
    }
    print(f"untraced passes: {len(untraced)}; set-up samples: {len(passes)}")
    for name, m in {**metrics, **raw}.items():
        _show(name, m)
    print(f"fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} commands)")
    if opts.trace:
        metrics, unsteady = _layer_summary([p for p in passes if p["traced"]])
        trace_wall = statistics.median(scaled(p)[1] for p in passes if p["traced"])
        metrics["trace.wall_s"] = {"value": trace_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": trace_wall - wall_s, "unit": "s"}
        for name, m in metrics.items():
            _show(name, m)
        metrics.update(raw)
        if unsteady:
            print("warning: counts differ between traced passes: " + ", ".join(unsteady))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
