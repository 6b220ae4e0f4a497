import numpy as np
import pytest

from pcmd.errors import ToolkitError
from pcmd.geometry import ImageGrid
from pcmd.metrics import RoiCircle, RoiSpec, _mask, cnr, roi_stats

GRID = ImageGrid(n_x=64, n_y=64, pixel_size=0.25)


def test_constant_image_stats():
    img = np.full((64, 64), 4.2)
    stats = roi_stats(img, GRID, RoiSpec((RoiCircle("c", (0.0, 0.0), 2.0),)))
    mean, std = stats["c"]
    assert mean == pytest.approx(4.2, abs=1e-12)
    assert std == pytest.approx(0.0, abs=1e-12)


def test_two_pixel_roi_hand_values():
    # circle sized to cover exactly two adjacent pixel centers
    img = np.zeros((64, 64))
    xs, ys = GRID.pixel_centers()
    ix, iy = 30, 31
    img[ix, iy] = 0.0
    img[ix + 1, iy] = 2.0
    center = ((xs[ix] + xs[ix + 1]) / 2.0, ys[iy])
    stats = roi_stats(img, GRID, RoiSpec((RoiCircle("pair", center, 0.15),)))
    mean, std = stats["pair"]
    assert mean == pytest.approx(1.0, abs=1e-15)
    assert std == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_translation_invariance_on_pixel_aligned_shift():
    rng = np.random.default_rng(0)
    img = rng.normal(size=(64, 64))
    shift_px = 7
    shifted = np.roll(img, shift_px, axis=0)
    c0 = RoiCircle("r", (-2.0, 1.0), 1.3)
    c1 = RoiCircle("r", (-2.0 + shift_px * GRID.pixel_size, 1.0), 1.3)
    s0 = roi_stats(img, GRID, RoiSpec((c0,)))["r"]
    s1 = roi_stats(shifted, GRID, RoiSpec((c1,)))["r"]
    assert s0 == s1


def test_cnr_definition_example():
    # target mean 1010 over a background at 1000 with std 5 -> CNR 2
    rng = np.random.default_rng(1)
    img = np.zeros((64, 64))
    xs, ys = GRID.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    tgt = (gx - 4.0) ** 2 + gy**2 <= 1.0
    bgd = (gx + 4.0) ** 2 + gy**2 <= 4.0
    img[tgt] = 1010.0
    noise = rng.normal(0.0, 5.0, size=img.shape)
    noise[bgd] -= noise[bgd].mean()
    noise[bgd] *= 5.0 / noise[bgd].std(ddof=1)
    img[bgd] = 1000.0 + noise[bgd]
    value = cnr(img, GRID, RoiCircle("t", (4.0, 0.0), 1.0), RoiCircle("b", (-4.0, 0.0), 2.0))
    assert value == pytest.approx(2.0, abs=1e-12)


def test_cnr_identical_rois_is_zero():
    rng = np.random.default_rng(2)
    img = rng.normal(1000.0, 5.0, size=(64, 64))
    roi = RoiCircle("same", (0.0, 0.0), 2.0)
    assert cnr(img, GRID, roi, roi) == 0.0


def test_cnr_zero_background_std_errors():
    img = np.ones((64, 64))
    with pytest.raises(ToolkitError, match="zero"):
        cnr(img, GRID, RoiCircle("t", (2.0, 0.0), 1.0), RoiCircle("b", (-2.0, 0.0), 1.0))


def test_cnr_invariant_under_affine_rescaling():
    rng = np.random.default_rng(3)
    img = rng.normal(100.0, 7.0, size=(64, 64))
    t = RoiCircle("t", (3.0, 1.0), 1.5)
    b = RoiCircle("b", (-3.0, -1.0), 2.0)
    base = cnr(img, GRID, t, b)
    scaled = cnr(3.5 * img - 120.0, GRID, t, b)
    assert abs(base - scaled) <= 1e-12 * base


def test_empty_roi_errors():
    img = np.ones((64, 64))
    with pytest.raises(ToolkitError, match="no pixel centers"):
        roi_stats(img, GRID, RoiSpec((RoiCircle("out", (100.0, 100.0), 0.1),)))


def test_roi_validation():
    with pytest.raises(ToolkitError, match="radius"):
        RoiCircle("bad", (0, 0), 0.0)
    spec = RoiSpec((RoiCircle("a", (0, 0), 1.0),))
    with pytest.raises(ToolkitError, match="not defined"):
        spec.get("b")



def test_mask_matches_a_meshgrid_reference_on_a_non_square_grid():
    grid = ImageGrid(n_x=7, n_y=5, pixel_size=0.5, origin=(0.3, -0.2))
    cx, cy, r = 0.9, -0.45, 0.8
    xs, ys = grid.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    reference = (gx - cx) ** 2 + (gy - cy) ** 2 <= r**2
    mask = _mask(grid, RoiCircle("c", (cx, cy), r))
    assert mask.shape == (7, 5) and 1 < np.count_nonzero(mask) < 35
    assert np.array_equal(mask, reference)
