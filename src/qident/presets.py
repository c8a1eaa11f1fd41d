"""Named presets: every lattice form and jet presentation the CLI ships."""

from __future__ import annotations

import re

from . import jets, nahm

# a count in a preset name: ASCII digits without a leading zero
_N = "(0|[1-9][0-9]*)"

_NAHM_FIXED = {
    "b2-char": nahm.build_b2_char_form,
    "b2-quintuple": nahm.build_b2_quintuple_form,
    "d4": nahm.build_d4_form,
    "d4-prime": lambda: nahm.build_d4_form(primed=True),
}


def nahm_preset(name: str) -> nahm.NahmSumSpec:
    """Resolve cartan-{type} (a Dynkin type string, see nahm.cartan_matrix),
    B-a{n}, Bprime-a{n}, b2-char, b2-quintuple, d4, d4-prime."""
    if name in _NAHM_FIXED:
        return _NAHM_FIXED[name]()
    if name.startswith("cartan-"):
        return nahm.build_cartan_side(name[len("cartan-"):])
    m = re.fullmatch("B-a" + _N, name)
    if m:
        return nahm.build_B_form(int(m.group(1)))
    m = re.fullmatch("Bprime-a" + _N, name)
    if m:
        return nahm.build_Bprime_form(int(m.group(1)))
    raise KeyError(f"unknown form preset {name!r}")


def jet_preset(name: str, d4_reading="printed") -> jets.JetPreset:
    """Resolve sln-a{n}, sln-b{n}, sln-h{n}, b2-a, b2-b, d4-d, power-{p}."""
    if name == "b2-a":
        return jets.b2_A()
    if name == "b2-b":
        return jets.b2_B()
    if name == "d4-d":
        return jets.d4_D(d4_reading)
    m = re.fullmatch("sln-([abh])" + _N, name)
    if m:
        builder = {"a": jets.sln_A, "b": jets.sln_B, "h": jets.sln_H}[m.group(1)]
        return builder(int(m.group(2)))
    m = re.fullmatch("power-" + _N, name)
    if m:
        return jets.power_preset(int(m.group(1)))
    raise KeyError(f"unknown jet preset {name!r}")
