import numpy as np
import pytest

from pcmd.errors import ToolkitError
from pcmd.spectrum import SourceSpectrum, filtered_kramers


def test_default_spectrum_shape(default_spectrum):
    sp = default_spectrum
    assert sp.n_bins == 8
    assert sp.energies[0] == 40.0 and sp.energies[-1] == 120.0
    assert np.all(sp.fluence >= 0)
    assert np.isclose(sp.binned_fluence_matrix().sum(), sp.fluence.sum(), rtol=1e-14)


def test_bin_masks_partition_support(default_spectrum):
    total = np.zeros_like(default_spectrum.energies)
    for m in default_spectrum.bin_masks():
        total += m.astype(float)
    assert np.all(total == 1.0)


def test_fluence_above_kvp_rejected():
    e = np.arange(40.0, 121.0)
    w = np.ones_like(e)
    with pytest.raises(ToolkitError, match="vanish above kvp"):
        SourceSpectrum(energies=e, fluence=w, kvp=100.0, bin_edges=np.array([40.0, 70.0, 100.0]))


def test_empty_bin_rejected_at_construction():
    e = np.arange(40.0, 121.0)
    w = np.ones_like(e)
    w[(e >= 60.0) & (e < 80.0)] = 0.0
    edges = np.array([40.0, 60.0, 80.0, 120.0])
    with pytest.raises(ToolkitError, match="no fluence samples"):
        SourceSpectrum(energies=e, fluence=w, kvp=120.0, bin_edges=edges)


def test_bin_edges_must_ascend_within_support():
    e = np.arange(40.0, 121.0)
    w = np.ones_like(e)
    with pytest.raises(ToolkitError, match="ascending"):
        SourceSpectrum(energies=e, fluence=w, kvp=120.0, bin_edges=np.array([40.0, 90.0, 70.0]))
    with pytest.raises(ToolkitError, match="within the spectrum support"):
        SourceSpectrum(energies=e, fluence=w, kvp=120.0, bin_edges=np.array([30.0, 70.0, 120.0]))


def test_at_least_two_bins_required():
    e = np.arange(40.0, 121.0)
    with pytest.raises(ToolkitError, match="at least 2 bins"):
        SourceSpectrum(energies=e, fluence=np.ones_like(e), kvp=120.0,
                       bin_edges=np.array([40.0, 120.0]))


def test_k_lines_add_fluence():
    with_lines = filtered_kramers(k_lines=True)
    without = filtered_kramers(k_lines=False)
    i59 = np.nonzero(with_lines.energies == 59.0)[0][0]
    assert with_lines.fluence[i59] > without.fluence[i59]
    assert np.all(with_lines.fluence >= without.fluence - 1e-300)
