import numpy as np
import pytest

from pcmd.errors import ToolkitError
from pcmd.geometry import ImageGrid, ScanGeometry
from pcmd.materials import equivalent_fractions, load_material
from pcmd.phantom import Disk, Phantom
from pcmd import recon
from pcmd.recon import fbp_reconstruct, synthesize_mono

from helpers import project_image, reference_fbp, traced_peak


@pytest.fixture(scope="module")
def desk_geometry():
    return ScanGeometry(mode="parallel", n_views=360, n_channels=256, spacing=0.1)


@pytest.fixture(scope="module")
def desk_grid():
    return ImageGrid(n_x=256, n_y=256, pixel_size=0.1)


def disk_sinogram(geometry, radius=5.0, value=1.0, center=(0.0, 0.0)):
    ph = Phantom(disks=(Disk(center=center, radius=radius, fractions=np.array([value])),),
                 n_materials=1)
    pts, dirs = geometry.all_rays()
    return ph.pathlengths(pts, dirs)[:, 0]


def test_zero_sinogram_reconstructs_to_zero(desk_geometry, desk_grid):
    img = fbp_reconstruct(np.zeros(desk_geometry.n_rays), desk_geometry, desk_grid)
    assert not img.any()


def test_disk_reconstruction_interior_and_exterior(desk_geometry, desk_grid):
    img = fbp_reconstruct(disk_sinogram(desk_geometry), desk_geometry, desk_grid)
    xs, ys = desk_grid.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    r = np.hypot(gx, gy)
    interior = img[r < 4.0].mean()
    exterior = img[(r > 6.0) & (r < 11.0)].mean()
    assert abs(interior - 1.0) < 0.02
    assert abs(exterior) < 0.02


def test_fbp_linearity(desk_geometry, desk_grid):
    a = disk_sinogram(desk_geometry, radius=4.0)
    b = disk_sinogram(desk_geometry, radius=6.0, center=(2.0, -1.0))
    lhs = fbp_reconstruct(a + b, desk_geometry, desk_grid)
    rhs = fbp_reconstruct(a, desk_geometry, desk_grid) \
        + fbp_reconstruct(b, desk_geometry, desk_grid)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_hann_window_reduces_noise(desk_geometry, desk_grid):
    rng = np.random.default_rng(0)
    noisy = disk_sinogram(desk_geometry) + rng.normal(0, 0.1, desk_geometry.n_rays)
    sharp = fbp_reconstruct(noisy, desk_geometry, desk_grid, hann=False)
    soft = fbp_reconstruct(noisy, desk_geometry, desk_grid, hann=True)
    assert soft.std() < sharp.std()


def test_insufficient_angular_coverage_rejected(desk_grid):
    geo = ScanGeometry(mode="parallel", n_views=90, n_channels=64, spacing=0.4,
                       angles=np.linspace(0, np.pi / 2, 90, endpoint=False))
    with pytest.raises(ToolkitError, match="angular coverage"):
        fbp_reconstruct(np.zeros(geo.n_rays), geo, desk_grid)


@pytest.mark.parametrize("geo", [
    ScanGeometry(mode="parallel", n_views=1, n_channels=16, spacing=0.4),
    ScanGeometry(mode="fan", n_views=2, n_channels=16, spacing=0.4, sid=40.0, sdd=80.0),
    ScanGeometry(mode="fan", n_views=3, n_channels=16, spacing=0.4, sid=40.0, sdd=80.0),
], ids=["parallel-1", "fan-2", "fan-3"])
def test_one_parallel_view_is_rejected(geo, desk_grid):
    with pytest.raises(ToolkitError, match="at least 2 parallel views, got 1"):
        fbp_reconstruct(np.zeros(geo.n_rays), geo, desk_grid)


def test_fan_beam_reconstruction_via_rebinning(desk_grid):
    fan = ScanGeometry(mode="fan", n_views=720, n_channels=257, spacing=0.17,
                       sid=40.0, sdd=80.0)
    img = fbp_reconstruct(disk_sinogram(fan), fan, desk_grid)
    xs, ys = desk_grid.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    r = np.hypot(gx, gy)
    assert abs(img[r < 4.0].mean() - 1.0) < 0.03
    assert abs(img[(r > 6.0) & (r < 11.0)].mean()) < 0.02


def test_project_then_fbp_round_trip_on_smooth_phantom(desk_geometry, desk_grid):
    xs, ys = desk_grid.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    smooth = np.exp(-(gx**2 + gy**2) / (2.0 * 3.0**2))
    sino = project_image(smooth, desk_geometry, desk_grid)
    back = fbp_reconstruct(sino, desk_geometry, desk_grid)
    rel = np.linalg.norm(back - smooth) / np.linalg.norm(smooth)
    assert rel <= 0.05


def _random_columns(geometry, n, seed=0):
    return np.random.default_rng(seed).normal(size=(geometry.n_rays, n))


_UNEVEN = np.sort(np.random.default_rng(7).uniform(0.0, np.pi, 37))
ORACLE_CASES = {
    "parallel-1ch": (ScanGeometry(mode="parallel", n_views=31, n_channels=1, spacing=0.3),
                     ImageGrid(n_x=9, n_y=9, pixel_size=0.3)),
    "parallel-2ch": (ScanGeometry(mode="parallel", n_views=24, n_channels=2, spacing=0.5),
                     ImageGrid(n_x=12, n_y=12, pixel_size=0.2)),
    "parallel-7ch-offcentre": (ScanGeometry(mode="parallel", n_views=40, n_channels=7, spacing=0.3),
                               ImageGrid(n_x=20, n_y=13, pixel_size=0.3, origin=(0.4, -0.7))),
    "parallel-64ch-uneven-angles": (
        ScanGeometry(mode="parallel", n_views=37, n_channels=64, spacing=0.25, angles=_UNEVEN),
        ImageGrid(n_x=40, n_y=40, pixel_size=0.35)),
    "fan-2ch": (ScanGeometry(mode="fan", n_views=48, n_channels=2, spacing=1.0, sid=20.0,
                             sdd=40.0),
                ImageGrid(n_x=10, n_y=10, pixel_size=0.2)),
    "fan-7ch-offcentre": (ScanGeometry(mode="fan", n_views=60, n_channels=7, spacing=0.8,
                                       sid=20.0, sdd=40.0),
                          ImageGrid(n_x=14, n_y=9, pixel_size=0.3, origin=(-0.5, 0.3))),
    "fan-64ch": (ScanGeometry(mode="fan", n_views=90, n_channels=64, spacing=0.5, sid=30.0,
                              sdd=60.0),
                 ImageGrid(n_x=48, n_y=48, pixel_size=0.3)),
    # at theta = 0 the first and last columns of pixel centres sit exactly on the
    # first and last channel, where the off-detector test must keep them
    "parallel-8ch-edge-aligned": (
        ScanGeometry(mode="parallel", n_views=40, n_channels=8, spacing=0.5),
        ImageGrid(n_x=8, n_y=8, pixel_size=0.5)),
    # 130-pixel rows split the grid into pixel blocks of 126 and 74 rows
    "parallel-96ch-two-blocks": (
        ScanGeometry(mode="parallel", n_views=30, n_channels=96, spacing=0.3),
        ImageGrid(n_x=200, n_y=130, pixel_size=0.15, origin=(0.2, -0.1))),
}


@pytest.mark.parametrize("hann", [False, True], ids=["ramp", "hann"])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_batched_fbp_matches_per_view_interp_oracle(case, hann):
    geometry, grid = ORACLE_CASES[case]
    sino = _random_columns(geometry, 3)
    got = fbp_reconstruct(sino, geometry, grid, hann=hann)
    want = reference_fbp(sino, geometry, grid, hann=hann)
    assert got.shape == want.shape == (grid.n_x, grid.n_y, 3)
    assert np.abs(want).max() > 0  # the single-channel grid puts pixels on the channel
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(got == 0, want == 0)  # off the detector is an exact zero


# Columns are backprojected in complex pairs; 3 and 5 columns leave the last
# pair's imaginary part empty.
@pytest.mark.parametrize("case, n", [
    *(pytest.param(case, 4, id=case) for case in [
        "parallel-7ch-offcentre", "parallel-64ch-uneven-angles", "fan-64ch",
        "parallel-96ch-two-blocks"]),
    *(pytest.param(case, n, id=f"{case}-{n}cols") for case, n in [
        ("parallel-7ch-offcentre", 3), ("fan-64ch", 3), ("parallel-96ch-two-blocks", 5),
        ("fan-7ch-offcentre", 5)]),
])
def test_each_column_of_a_batch_equals_its_single_column_call(case, n):
    geometry, grid = ORACLE_CASES[case]
    sino = _random_columns(geometry, n, seed=1)
    batch = fbp_reconstruct(sino, geometry, grid)
    for m in range(sino.shape[1]):
        single = fbp_reconstruct(sino[:, m], geometry, grid)
        assert single.shape == (grid.n_x, grid.n_y)
        assert np.array_equal(batch[:, :, m], single)


# Two views (a rebinned fan gives half its views): pixels off the detector in
# both views are exact zeros of the image.
FEW_VIEW_CASES = {
    "parallel-2views": (ScanGeometry(mode="parallel", n_views=2, n_channels=7, spacing=0.3),
                        ImageGrid(n_x=12, n_y=12, pixel_size=0.5)),
    "fan-4views": (ScanGeometry(mode="fan", n_views=4, n_channels=7, spacing=0.6, sid=20.0,
                                sdd=40.0),
                   ImageGrid(n_x=12, n_y=9, pixel_size=0.5, origin=(0.3, -0.2))),
}


@pytest.mark.parametrize("case", sorted(FEW_VIEW_CASES))
@pytest.mark.parametrize("zero", [0, 1], ids=["zero-real-part", "zero-imaginary-part"])
def test_a_zero_column_paired_with_a_nonzero_one(case, zero):
    geometry, grid = FEW_VIEW_CASES[case]
    sino = _random_columns(geometry, 2, seed=2)
    sino[:, zero] = 0.0
    batch = fbp_reconstruct(sino, geometry, grid)
    assert not batch[:, :, zero].any()
    other = batch[:, :, 1 - zero]
    assert other.any() and (other == 0).any()  # off-detector pixels among the rest
    for m in range(2):
        assert np.array_equal(batch[:, :, m], fbp_reconstruct(sino[:, m], geometry, grid))


def test_backprojection_memory_beyond_the_image_does_not_grow_with_the_grid():
    geometry = ScanGeometry(mode="parallel", n_views=60, n_channels=64, spacing=0.4)
    sino = _random_columns(geometry, 4)

    def beyond_image(n_x):
        grid = ImageGrid(n_x=n_x, n_y=256, pixel_size=0.1)
        return traced_peak(fbp_reconstruct, sino, geometry, grid) - 4 * grid.n_x * grid.n_y * 8

    block = 5 * 8 * recon._BLOCK_PIXELS  # channel coordinate, weight, two gathers, index
    assert beyond_image(512) <= beyond_image(256) + block


@pytest.mark.parametrize("shape", [(40 * 7, 2, 2), (40 * 7 - 1,), (40 * 7 + 7, 3)])
def test_fbp_rejects_inputs_that_are_not_ray_columns(shape):
    geometry, grid = ORACLE_CASES["parallel-7ch-offcentre"]
    with pytest.raises(ToolkitError, match="fbp: expected 280 rays"):
        fbp_reconstruct(np.zeros(shape), geometry, grid)


def test_mono_zero_image_is_air(basis_materials):
    mono = synthesize_mono(np.zeros((8, 8, 2)), basis_materials, 70.0, hounsfield=True)
    assert mono.shape == (8, 8) and not mono.any()


def test_mono_pure_water_equivalent_pixel_is_1000(basis_materials):
    frac = equivalent_fractions(load_material("water"), basis_materials)
    mono = synthesize_mono(np.tile(frac, (4, 4, 1)), basis_materials, 70.0, hounsfield=True)
    assert np.abs(mono - 1000.0).max() < 2.0  # limited by the basis-mix residual


def test_mono_basis_identity(basis_materials):
    x = np.zeros((3, 3, 2))
    x[:, :, 0] = 1.0
    mono = synthesize_mono(x, basis_materials, 70.0)
    assert np.allclose(mono, basis_materials[0].mu_at(70.0), rtol=1e-14)


def test_mono_energy_outside_tables_rejected(basis_materials):
    with pytest.raises(ToolkitError, match="outside tabulated range"):
        synthesize_mono(np.zeros((2, 2, 2)), basis_materials, 200.0)


def test_water_density_1p01_displays_ten_units_above_water(basis_materials):
    frac = equivalent_fractions(load_material("water"), basis_materials)
    img = np.tile(1.01 * frac, (2, 2, 1))
    for energy in (50.0, 70.0, 100.0):
        mono = synthesize_mono(img, basis_materials, energy, hounsfield=True)
        assert np.abs(mono - 1010.0).max() < 0.02 * 1010.0


def test_fbp_of_material_columns_shapes(desk_geometry, desk_grid):
    sino = np.zeros((desk_geometry.n_rays, 2))
    img = fbp_reconstruct(sino, desk_geometry, desk_grid)
    assert img.shape == (256, 256, 2)
