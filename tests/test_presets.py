import pytest

from qident import forms, nahm, presets


ALL_FORM_NAMES = ["cartan-a2", "cartan-a3", "cartan-a5", "cartan-d4",
                  "B-a2", "B-a4", "Bprime-a3", "b2-char", "b2-quintuple",
                  "d4", "d4-prime"]


@pytest.mark.parametrize("name", ALL_FORM_NAMES)
def test_every_form_preset_resolves_and_evaluates(name):
    spec = presets.nahm_preset(name)
    series = nahm.evaluate(spec, 8, charges=False)
    assert series.coeff(0) == 1
    assert all(c > 0 for c in series.terms.values())


@pytest.mark.parametrize("name", ALL_FORM_NAMES)
def test_every_form_preset_serializes(name):
    spec = presets.nahm_preset(name)
    assert forms.from_json(forms.to_json(spec)) == spec


@pytest.mark.parametrize("name", ["sln-a2", "sln-a4", "sln-b3", "sln-h3",
                                  "b2-a", "b2-b", "d4-d", "power-2", "power-5"])
def test_every_jet_preset_resolves(name):
    preset = presets.jet_preset(name)
    assert preset.relations


def test_unknown_names_raise():
    with pytest.raises(ValueError):
        presets.nahm_preset("cartan-e8")
    with pytest.raises(KeyError):
        presets.jet_preset("nonsense")
