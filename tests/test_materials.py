import numpy as np
import pytest

from pcmd.errors import ToolkitError
from pcmd.materials import (MaterialAttenuation, equivalent_fractions, list_materials,
                            load_material, mu_matrix)


def test_bundled_tables_cover_range_and_are_positive():
    for name in list_materials():
        mat = load_material(name)
        assert mat.energies[0] <= 20.0 and mat.energies[-1] >= 150.0
        assert np.all(mat.mu > 0)
        assert np.all(np.diff(mat.energies) == 1.0)


def test_water_reference_values():
    # independent reference points (mass attenuation x unit density)
    water = load_material("water")
    for e, ref in [(40.0, 0.2683), (60.0, 0.2059), (100.0, 0.1707)]:
        assert abs(water.mu_at(e) - ref) / ref < 0.02


def test_pvc_attenuates_more_than_polyethylene_at_low_energy():
    pe, pvc = load_material("polyethylene"), load_material("pvc")
    assert pvc.mu_at(40.0) > 3 * pe.mu_at(40.0)
    assert pvc.mu_at(120.0) > pe.mu_at(120.0)


def test_unknown_material_raises():
    with pytest.raises(ToolkitError, match="unknown material"):
        load_material("unobtainium")


def test_energy_out_of_range_raises():
    with pytest.raises(ToolkitError, match="outside tabulated range"):
        load_material("water").mu_at(151.0)


def test_table_validation_rejects_gaps_and_nonpositive():
    e = np.arange(20.0, 151.0)
    mu = np.full(e.size, 0.2)
    with pytest.raises(ToolkitError, match="1 keV steps"):
        MaterialAttenuation("bad", np.delete(e, 5), np.delete(mu, 5))
    with pytest.raises(ToolkitError, match="positive"):
        MaterialAttenuation("bad", e, np.zeros_like(mu))


def test_water_equivalent_fractions_reproduce_water_curve(basis_materials):
    frac = equivalent_fractions(load_material("water"), basis_materials)
    energies = np.arange(40.0, 121.0)
    mix = frac @ mu_matrix(basis_materials, energies)
    water = load_material("water").mu_at(energies)
    assert np.abs(mix - water).max() / water.min() < 0.01
    assert frac[0] > 0.8 and 0.0 < frac[1] < 0.2  # mostly polyethylene plus a little pvc
