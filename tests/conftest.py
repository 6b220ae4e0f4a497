import pytest

from pcmd.calibration import calibrate_drf
from pcmd.geometry import ImageGrid, ScanGeometry
from pcmd.materials import load_material
from pcmd.spectrum import filtered_kramers


@pytest.fixture(scope="session")
def basis_materials():
    return [load_material("polyethylene"), load_material("pvc")]


@pytest.fixture(scope="session")
def default_spectrum():
    return filtered_kramers()


@pytest.fixture(scope="session")
def small_geometry():
    return ScanGeometry(mode="parallel", n_views=60, n_channels=64, spacing=0.4)


@pytest.fixture(scope="session")
def small_grid():
    return ImageGrid(n_x=64, n_y=64, pixel_size=0.4)


@pytest.fixture(scope="session")
def single_channel_geometry():
    return ScanGeometry(mode="parallel", n_views=1, n_channels=1, spacing=0.1)


@pytest.fixture(scope="session")
def noiseless_drf(default_spectrum, basis_materials, single_channel_geometry):
    """Default order-4 calibration fitted to noiseless slab scans (one channel)."""
    return calibrate_drf(default_spectrum, basis_materials, single_channel_geometry,
                         noise=False)
