import math

import numpy as np
import pytest

from helpers import grid_edges, project_image, rasterize
from pcmd.errors import ToolkitError
from pcmd.geometry import ScanGeometry, rebin_fan_to_parallel
from pcmd.phantom import Disk, Phantom


def make_fan(n_views=8, n_channels=9, spacing=1.0, sid=20.0, sdd=40.0):
    return ScanGeometry(mode="fan", n_views=n_views, n_channels=n_channels,
                        spacing=spacing, sid=sid, sdd=sdd)


def test_parallel_center_ray_points_up():
    geo = ScanGeometry(mode="parallel", n_views=4, n_channels=5, spacing=0.5)
    pts, dirs = geo.all_rays()
    pt, d = pts[2], dirs[2]
    assert np.allclose(pt, [0.0, 0.0], atol=1e-15)
    assert np.allclose(d, [0.0, 1.0], atol=1e-15)


def test_fan_center_ray_through_source_and_isocenter():
    geo = make_fan()
    pts, dirs = geo.all_rays()
    pt, d = pts[4], dirs[4]
    assert np.allclose(pt, [0.0, -20.0], atol=1e-15)
    assert np.allclose(d, [0.0, 1.0], atol=1e-15)
    # the ray reaches the isocenter
    t = -pt[1] / d[1]
    assert np.allclose(pt + t * d, [0.0, 0.0], atol=1e-14)


def test_fan_offcenter_angle_is_atan_offset_over_sdd():
    geo = make_fan()
    offsets = geo.channel_offsets()
    gamma = geo.fan_angles()
    assert np.allclose(gamma, np.arctan(offsets / geo.sdd), atol=1e-15)
    _, dirs = geo.all_rays()
    expected = np.array([np.sin(gamma[7]), np.cos(gamma[7])])
    assert np.allclose(dirs[7], expected, atol=1e-14)


@pytest.mark.parametrize("geo", [
    ScanGeometry(mode="parallel", n_views=90, n_channels=96, spacing=0.13),
    make_fan(n_views=360, n_channels=96, spacing=0.3, sid=50.0, sdd=100.0),
], ids=["parallel", "fan"])
def test_all_rays_match_the_closed_form(geo):
    # view theta, fan angle gamma = atan(s / sdd) (0 in parallel mode) at channel offset s
    pts, dirs = geo.all_rays()
    assert pts.shape == dirs.shape == (geo.n_rays, 2)
    c = geo.n_channels
    for view in (0, geo.n_views // 2, geo.n_views - 1):
        theta = (math.pi if geo.mode == "parallel" else 2.0 * math.pi) * view / geo.n_views
        for ch in (0, (c - 1) // 2, c // 2, c - 1):
            s = (ch - (c - 1) / 2.0) * geo.spacing
            if geo.mode == "parallel":
                pt = [s * math.cos(theta), s * math.sin(theta)]
                gamma = 0.0
            else:
                pt = [geo.sid * math.sin(theta), -geo.sid * math.cos(theta)]
                gamma = math.atan(s / geo.sdd)
            d = [math.sin(gamma) * math.cos(theta) - math.cos(gamma) * math.sin(theta),
                 math.cos(gamma) * math.cos(theta) + math.sin(gamma) * math.sin(theta)]
            m = view * c + ch
            assert np.abs(pts[m] - pt).max() <= 1e-15 * max(1.0, np.abs(pt).max())
            assert np.abs(dirs[m] - d).max() <= 1e-15


def test_length_conservation_against_independent_slab_oracle(small_grid):
    # oblique single ray, chord computed from an independent min/max clip
    geo = ScanGeometry(mode="parallel", n_views=7, n_channels=11, spacing=1.3)
    pts, dirs = geo.all_rays()
    ones = np.ones((small_grid.n_x, small_grid.n_y))
    p = project_image(ones, geo, small_grid)
    ex, ey = grid_edges(small_grid)
    for m in range(0, geo.n_rays, 13):
        pt, d = pts[m], dirs[m]
        ts = []
        for lo, hi, pc, dc in ((ex[0], ex[-1], pt[0], d[0]), (ey[0], ey[-1], pt[1], d[1])):
            if dc == 0:
                ts.append((-np.inf, np.inf) if lo <= pc <= hi else (np.inf, -np.inf))
            else:
                ts.append(tuple(sorted(((lo - pc) / dc, (hi - pc) / dc))))
        t_in = max(ts[0][0], ts[1][0])
        t_out = min(ts[0][1], ts[1][1])
        assert abs(p[m] - max(t_out - t_in, 0.0)) < 1e-10


def test_single_pixel_matches_rectangle_clip_oracle(small_grid):
    rng = np.random.default_rng(42)
    img = np.zeros((small_grid.n_x, small_grid.n_y))
    ix, iy = 20, 41
    img[ix, iy] = 1.0
    ex, ey = grid_edges(small_grid)
    # spacing incommensurate with the pixel pitch: no ray sits exactly on a
    # pixel edge, where closed-rectangle and half-open-cell conventions differ
    geo = ScanGeometry(mode="parallel", n_views=16, n_channels=32, spacing=0.79)
    p = project_image(img, geo, small_grid)
    pts, dirs = geo.all_rays()
    for m in rng.choice(geo.n_rays, 60, replace=False):
        pt, d = pts[m], dirs[m]
        lo = np.array([ex[ix], ey[iy]])
        hi = np.array([ex[ix + 1], ey[iy + 1]])
        t1 = np.where(d != 0, (lo - pt) / np.where(d == 0, 1, d), -np.inf)
        t2 = np.where(d != 0, (hi - pt) / np.where(d == 0, 1, d), np.inf)
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        for ax in range(2):
            if d[ax] == 0 and not (lo[ax] <= pt[ax] <= hi[ax]):
                near[ax], far[ax] = np.inf, -np.inf  # parallel miss
        t_in = near.max()
        t_out = far.min()
        assert abs(p[m] - max(t_out - t_in, 0.0)) < 1e-10


def test_zero_image_projects_to_zero(small_geometry, small_grid):
    zero = np.zeros((small_grid.n_x, small_grid.n_y, 2))
    assert not project_image(zero, small_geometry, small_grid).any()


def test_projection_linearity(small_geometry, small_grid):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(small_grid.n_x, small_grid.n_y))
    y = rng.normal(size=(small_grid.n_x, small_grid.n_y))
    a, b = 1.7, -0.6
    lhs = project_image(a * x + b * y, small_geometry, small_grid)
    rhs = a * project_image(x, small_geometry, small_grid) \
        + b * project_image(y, small_geometry, small_grid)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())


def test_analytic_disk_vs_rasterized_projection(small_geometry, small_grid):
    r = 6.0
    ph = Phantom(disks=(Disk(center=(1.2, -0.8), radius=r, fractions=np.array([1.0])),),
                 n_materials=1)
    raster = rasterize(ph, small_grid)[:, :, 0]
    p_raster = project_image(raster, small_geometry, small_grid)
    pts, dirs = small_geometry.all_rays()
    p_exact = ph.pathlengths(pts, dirs)[:, 0]
    c = small_geometry.n_channels
    bound = 2.0 * small_grid.pixel_size * (2.0 * np.pi * r)
    for v in range(small_geometry.n_views):
        sl = slice(v * c, (v + 1) * c)
        l1 = np.abs(p_exact[sl] - p_raster[sl]).sum() * small_geometry.spacing
        assert l1 <= bound


def test_fan_rebinning_matches_parallel_disk_sinogram():
    ph = Phantom(disks=(Disk(center=(0.0, 0.0), radius=5.0, fractions=np.array([1.0])),),
                 n_materials=1)
    fan = ScanGeometry(mode="fan", n_views=720, n_channels=129, spacing=0.25,
                       sid=30.0, sdd=60.0)
    pts, dirs = fan.all_rays()
    sino_fan = ph.pathlengths(pts, dirs)[:, 0]
    par, sino_par = rebin_fan_to_parallel(sino_fan, fan)
    ppts, pdirs = par.all_rays()
    expected = ph.pathlengths(ppts, pdirs)[:, 0]
    # interpolation-limited agreement away from the disk edge
    err = np.abs(sino_par - expected)
    assert np.median(err) < 0.02
    assert err.max() < 0.2


def test_geometry_validation():
    with pytest.raises(ToolkitError, match="mode"):
        ScanGeometry(mode="cone", n_views=4, n_channels=4, spacing=0.1)
    with pytest.raises(ToolkitError, match="sid < sdd"):
        ScanGeometry(mode="fan", n_views=4, n_channels=4, spacing=0.1, sid=50.0, sdd=40.0)
    with pytest.raises(ToolkitError, match="spacing"):
        ScanGeometry(mode="parallel", n_views=4, n_channels=4, spacing=0.0)


@pytest.mark.parametrize("columns", [(), (1,), (3,)])
def test_fan_rebinning_keeps_the_column_shape(columns):
    fan = make_fan()
    sino = np.random.default_rng(5).uniform(size=(fan.n_rays, *columns))
    par, out = rebin_fan_to_parallel(sino, fan)
    assert out.shape == (par.n_rays, *columns)
    if columns:  # each column is rebinned on its own
        for j in range(columns[0]):
            assert np.array_equal(out[:, j], rebin_fan_to_parallel(sino[:, j], fan)[1])


@pytest.mark.parametrize("views, channels", [(1, 8), (8, 1)])
def test_fan_rebinning_needs_two_views_and_two_channels(views, channels):
    fan = ScanGeometry(mode="fan", n_views=views, n_channels=channels, spacing=0.5,
                       sid=20.0, sdd=40.0)
    with pytest.raises(ToolkitError, match="at least 2 views and 2 channels"):
        rebin_fan_to_parallel(np.zeros(fan.n_rays), fan)
