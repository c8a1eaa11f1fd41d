"""Seeded command lists for the benchmark workloads.

A workload is a fixed list of real `qident` CLI commands, sent one after
another by a single closed-loop client.  The seed only picks choices that
leave the cost of the list nearly unchanged: which thm1 command gets which
variant, the quiver orientations and which printed reading of the so(8) jet
presentation is run.  Truncation orders are fixed: the largest commands cost
5-10% more per extra order, so moving them with the seed would swamp the
run-to-run spread the benchmark must resolve.  The command order is fixed
too, because the engine's unbounded caches make peak RSS depend on it
(seeded orders moved the jets peak between 35 and 39.5 MiB).

Every command carries its oracle: the verdict it must print (exit code 0)
and, for jet Hilbert series, the lattice form the acceptance suite pairs it
with.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass

@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its report must say.

    check is None (verdict and exit code only) or one of
      ("series_eq", form, order)      printed series == evaluate(form, order)
      ("series_excess", form, order, q)  printed series is not <= the form's
                                      series, first excess at q^q
      ("nc_degree", d)                the mismatch sits at total x-degree d
    """

    line: str
    verdict: str
    check: tuple = None

    @property
    def args(self):
        return shlex.split(self.line)


def _lattice(rng):
    big, small = rng.sample(("a", "b"), 2)
    return [
        Command(f"verify thm1 --variant {big} --n 6 --order 16", "equal"),
        Command(f"verify thm1 --variant {small} --n 5 --order 36", "equal"),
        Command("verify d4 --order 30", "equal"),
        Command("verify b2 --order 100", "equal"),
        Command("verify b2-product --order 70", "equal"),
    ]


def _lattice_charged(rng):
    variant = rng.choice("ab")
    return [
        Command(f"verify thm1 --variant {variant} --n 6 --order 14 --charges", "equal"),
        Command("verify thm1 --variant a --n 5 --order 24 --charges", "equal"),
        Command("verify thm1 --variant b --n 5 --order 24 --charges", "equal"),
        Command("verify d4 --order 18 --charges", "equal"),
        Command("verify b2 --order 70 --charges", "equal"),
    ]


def _jets(rng):
    # "printed" and "printed-v" give the same relation list (the chain they
    # read differently is dropped as redundant), so the choice costs nothing
    printed = rng.choice(("printed", "printed-v"))
    return [
        Command("jets hilbert --preset d4-d --weight 5 --d4-reading repaired",
                "info", ("series_eq", "d4", 6)),
        Command(f"jets hilbert --preset d4-d --weight 4 --d4-reading {printed}",
                "info", ("series_excess", "d4", 5, 2)),
        Command("jets hilbert --preset b2-a --weight 8", "info",
                ("series_eq", "b2-char", 9)),
        Command("jets hilbert --preset b2-b --weight 8", "info",
                ("series_eq", "b2-quintuple", 9)),
        Command("jets hilbert --preset sln-b3 --weight 10", "info",
                ("series_eq", "B-a3", 11)),
    ]


def _orientation(rng, rank):
    return "".join(rng.choice("RL") for _ in range(rank - 1))


def _dilog_quiver(rng):
    return [
        Command("verify pentagon --xdeg 9 --qorder 32", "equal"),
        Command("verify pentagon --variant shifted --xdeg 8 --qorder 24", "equal"),
        Command("verify pentagon --negative-control --xdeg 6 --qorder 20", "holds",
                ("nc_degree", 2)),
        Command("verify ordered-product --type a6 --xdeg 6 --qorder 20", "equal"),
        Command("verify ordered-product --type d4 --xdeg 7 --qorder 20", "equal"),
        Command(f"verify quiver --rank 4 --orientation {_orientation(rng, 4)} "
                "--kmax 4 --order 15", "equal"),
        Command(f"verify quiver --rank 5 --orientation {_orientation(rng, 5)} "
                "--kmax 2 --order 15", "equal"),
    ]


_BUILDERS = {
    "lattice": _lattice,
    "lattice-charged": _lattice_charged,
    "jets": _jets,
    "dilog-quiver": _dilog_quiver,
}
WORKLOADS = tuple(_BUILDERS)


def generate(workload, seed):
    """The command list of a workload; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
