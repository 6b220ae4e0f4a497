import numpy as np
import pytest

from helpers import rasterize
from pcmd.config import PipelineConfig
from pcmd.errors import ToolkitError
from pcmd.phantom import Disk, Phantom, low_contrast_phantom


def test_chord_length_matches_closed_form():
    r = 5.0
    ph = Phantom(disks=(Disk(center=(0.0, 0.0), radius=r, fractions=np.array([1.0])),),
                 n_materials=1)
    offsets = np.linspace(-6.0, 6.0, 201)
    pts = np.stack([offsets, np.full_like(offsets, -20.0)], axis=1)
    dirs = np.tile([0.0, 1.0], (offsets.size, 1))
    p = ph.pathlengths(pts, dirs)[:, 0]
    expected = 2.0 * np.sqrt(np.maximum(r**2 - offsets**2, 0.0))
    assert np.abs(p - expected).max() < 1e-12


def test_offcenter_disk_and_oblique_ray():
    # ray through the center of an off-center disk sees the full diameter
    ph = Phantom(disks=(Disk(center=(3.0, 4.0), radius=2.0, fractions=np.array([1.0, 0.5])),),
                 n_materials=2)
    d = np.array([3.0, 4.0]) / 5.0
    p = ph.pathlengths(np.array([[0.0, 0.0]]), d[None, :])
    assert np.allclose(p, [4.0, 2.0], atol=1e-12)


def test_overlapping_disks_accumulate():
    disks = (Disk(center=(0.0, 0.0), radius=2.0, fractions=np.array([1.0])),
             Disk(center=(0.0, 0.0), radius=1.0, fractions=np.array([0.5])))
    ph = Phantom(disks=disks, n_materials=1)
    p = ph.pathlengths(np.array([[0.0, -10.0]]), np.array([[0.0, 1.0]]))
    assert np.isclose(p[0, 0], 4.0 + 0.5 * 2.0, atol=1e-12)


def test_water_disk_central_ray_is_water_equivalent(basis_materials):
    from pcmd.materials import equivalent_fractions, load_material, mu_matrix

    disk = Disk(center=(0.0, 0.0), radius=5.0,
                fractions=equivalent_fractions(load_material("water"), basis_materials))
    ph = Phantom(disks=(disk,), n_materials=2)
    p = ph.pathlengths(np.array([[0.0, -10.0]]), np.array([[0.0, 1.0]]))[0]
    # 10 cm of water-equivalent mix: attenuation matches 10 cm of water at 70 keV
    mu = mu_matrix(basis_materials, [70.0])[:, 0]
    water_mu = load_material("water").mu_at(70.0)
    assert abs(p @ mu - 10.0 * water_mu) / (10.0 * water_mu) < 0.01
    assert np.isclose(p.sum() / 10.0, (disk.fractions).sum(), atol=1e-12)


def test_fraction_validation():
    with pytest.raises(ToolkitError, match="radius"):
        Disk(center=(0, 0), radius=0.0, fractions=np.array([1.0]))
    with pytest.raises(ToolkitError, match="finite"):
        Disk(center=(0, 0), radius=1.0, fractions=np.array([np.inf]))
    with pytest.raises(ToolkitError, match="one fraction per basis material"):
        Phantom(disks=(Disk(center=(0, 0), radius=1.0, fractions=np.array([1.0])),),
                n_materials=2)


def water_disk(density):
    """The disk a config builds for `water_density`."""
    disk = {"center": [0.0, 0.0], "radius": 1.0, "water_density": density}
    return PipelineConfig({"phantom": {"disks": [disk]}}).phantom().disks[0]


def test_density_scaling_fractions_may_exceed_one():
    d, base = water_disk(1.01), water_disk(1.0)
    assert np.allclose(d.fractions, 1.01 * base.fractions, rtol=1e-14)


def test_low_contrast_phantom_layout():
    ph = low_contrast_phantom()
    assert len(ph.disks) == 4
    # insert disks carry only the density excess
    for disk, dens in zip(ph.disks[1:], (1.01, 1.005, 1.003)):
        assert np.allclose(disk.fractions, (dens - 1.0) * ph.disks[0].fractions, rtol=1e-12)


def test_rasterize_matches_membership(small_grid):
    ph = Phantom(disks=(Disk(center=(0.0, 0.0), radius=3.0, fractions=np.array([2.0])),),
                 n_materials=1)
    img = rasterize(ph, small_grid)
    xs, ys = small_grid.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    inside = gx**2 + gy**2 <= 9.0
    assert np.array_equal(img[:, :, 0] != 0, inside)
