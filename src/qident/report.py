"""Verification reports: one schema for every CLI command.

Reports are deterministic byte-for-byte for fixed inputs: wall time and
backend diagnostics only appear behind the --timings flag.
"""

from __future__ import annotations

import json

from .record import Record

ENGINE_VERSION = "qident 0.1.0"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


class VerificationReport(Record):
    """A report under construction: its fields can be reassigned, so it
    has no hash.  verdict is equal | holds | info to pass (exit 0),
    mismatch | violation to fail (exit 1), or error when the program itself
    failed, with detail naming the exception (exit 3); lines are extra
    report body lines."""
    __slots__ = ("command", "parameters", "verdict", "detail", "lines", "notes", "wall_time")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, command, parameters, verdict="equal", detail=None, lines=None,
                 notes=None, wall_time=None):
        self._set(command, parameters, verdict, {} if detail is None else detail,
                  [] if lines is None else lines, [] if notes is None else notes, wall_time)

    @property
    def passed(self):
        return self.verdict in ("equal", "holds", "info")

    @property
    def exit_code(self):
        if self.verdict == "error":
            return EXIT_ERROR
        return EXIT_OK if self.passed else EXIT_MISMATCH

    def add_mismatch(self, mism):
        """Record a series mismatch with its exact location."""
        self.verdict = "mismatch"
        self.detail = {
            "q_exponent": str(mism.qexp),
            "charges": list(mism.charges),
            "lhs_coefficient": mism.coeff_a,
            "rhs_coefficient": mism.coeff_b,
        }

    def to_text(self, timings=False) -> str:
        out = [f"command: {self.command}", f"engine: {ENGINE_VERSION}"]
        for key, val in self.parameters.items():
            out.append(f"{key}: {val}")
        out.append(f"verdict: {self.verdict}")
        if self.detail:
            loc = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
            out.append(f"location: {loc}")
        out.extend(self.lines)
        if self.notes:
            out.append("notes:")
            for n in self.notes:
                out.append(f"  - {n}")
        if timings and self.wall_time is not None:
            out.append(f"wall time: {self.wall_time:.3f}s")
        return "\n".join(out) + "\n"

    def to_json(self, timings=False) -> str:
        payload = {
            "command": self.command,
            "engine": ENGINE_VERSION,
            "parameters": {k: str(v) for k, v in self.parameters.items()},
            "verdict": self.verdict,
            "detail": self.detail,
            "report": self.lines,
            "notes": self.notes,
            "exit_code": self.exit_code,
        }
        if timings and self.wall_time is not None:
            payload["wall_time_seconds"] = round(self.wall_time, 3)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
