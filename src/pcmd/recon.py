"""Filtered backprojection and virtual mono-energy synthesis.

2D parallel-beam FBP with a Ram-Lak filter (optional Hann apodization);
fan-beam data are rebinned to parallel geometry first.  Material images,
(n_x, n_y, L) arrays with one plane per material, are combined pixelwise with
tabulated attenuation to form mono-energetic images, optionally in the
modified Hounsfield convention (air 0, water 1000).
"""

import numpy as np

from .errors import ToolkitError
# rebin_fan_to_parallel is a module global that the benchmark's traced runs
# patch here (ROADMAP O4).
from .geometry import FAN, PARALLEL, ImageGrid, rebin_fan_to_parallel
from .materials import load_material

# Pixels per backprojection block, in whole grid rows: the block's five
# per-view buffers (0.66 MB) stay in cache beside the image planes.
_BLOCK_PIXELS = 1 << 14


def _ramp_response(n_pad: int, spacing: float, hann: bool) -> np.ndarray:
    """Frequency response of the band-limited ramp (spatial-kernel construction)."""
    k = np.zeros(n_pad)
    n = np.arange(1, n_pad // 2, 2)
    k[0] = 1.0 / (4.0 * spacing**2)
    k[n] = -1.0 / (np.pi * n * spacing) ** 2
    k[-n] = -1.0 / (np.pi * n * spacing) ** 2
    resp = np.real(np.fft.fft(k))
    if hann:
        f = np.fft.fftfreq(n_pad)
        resp *= 0.5 * (1.0 + np.cos(2.0 * np.pi * f))
    return resp


def fbp_reconstruct(sino: np.ndarray, geometry, grid: ImageGrid,
                    hann: bool = False) -> np.ndarray:
    """Reconstruct sinogram columns: (M,) -> (n_x, n_y), or (M, n) -> (n_x, n_y, n).

    All columns are ramp-filtered in one FFT (zero-padded to the next power of
    two >= 2x channels); fan data are first rebinned to parallel geometry, one
    column at a time.  Channel offsets are uniform, so a pixel's channel
    coordinate u = (x cos(theta) - lo) / spacing + y sin(theta) / spacing is,
    per view, an x table plus a y table; its floor and remainder are the
    channel index and linear weight that gather every column.  Pixels with u
    outside [0, channels - 1] get an exact zero, as with
    `np.interp(left=0, right=0)`, and images agree with a per-view `np.interp`
    to 1e-12 of their largest value.  Pixels are walked in blocks of whole
    rows (`_BLOCK_PIXELS`), so working memory beyond the image does not grow
    with the grid.  Each pixel accumulates the views in a fixed order, so
    outputs are bit-stable, and column m of an (M, n) call is bit-identical to
    a call on that column alone.
    """
    sino = np.asarray(sino, dtype=float)
    if sino.ndim not in (1, 2) or sino.shape[0] != geometry.n_rays:
        raise ToolkitError(f"fbp: expected {geometry.n_rays} rays, as (M,) or (M, n), "
                           f"got {sino.shape}")
    cols = sino.reshape(geometry.n_rays, -1).T
    if geometry.mode == FAN:
        rebinned = [rebin_fan_to_parallel(col, geometry) for col in cols]
        geometry = rebinned[0][0]
        cols = np.stack([col for _, col in rebinned])
    if geometry.mode != PARALLEL:
        raise ToolkitError("fbp: unsupported geometry mode")
    v, c, n = geometry.n_views, geometry.n_channels, len(cols)
    if v < 2:
        raise ToolkitError(f"fbp: need at least 2 parallel views, got {v}")
    span = np.ptp(geometry.angles)
    if span < np.pi - np.pi / v - 1e-9:
        raise ToolkitError("fbp: insufficient angular coverage (need half a rotation)")
    proj = cols.reshape(n, v, c)
    n_pad = 1 << int(np.ceil(np.log2(max(2 * c, 4))))
    resp = _ramp_response(n_pad, geometry.spacing, hann)
    # index c holds zeros for pixels off the detector; the zero slope at c - 1
    # keeps a pixel on the last channel at that channel's value.  The ramp is
    # even in frequency, so the real FFT needs only its first half.
    value = np.zeros((n, v, c + 1))
    value[:, :, :c] = np.fft.irfft(np.fft.rfft(proj, n=n_pad, axis=2) * resp[:n_pad // 2 + 1],
                                   n=n_pad, axis=2)[:, :, :c]
    value *= geometry.spacing
    slope = np.zeros_like(value)
    slope[:, :, :c - 1] = np.diff(value[:, :, :c], axis=2)

    img = _backproject(value, slope, geometry, grid)
    img *= np.pi / v
    return img[0] if sino.ndim == 1 else np.moveaxis(img, 0, -1)


def _backproject(value, slope, geometry, grid: ImageGrid) -> np.ndarray:
    """Sum over views of each column's linear interpolation: (n, n_x, n_y).

    `value` and `slope` are (n, views, channels + 1) tables.  The block
    buffers are freed on return, before the caller scales the image.
    """
    n, c = value.shape[0], geometry.n_channels
    xs, ys = grid.pixel_centers()
    lo = geometry.channel_offsets()[0]
    alpha = (np.outer(np.cos(geometry.angles), xs) - lo) / geometry.spacing
    beta = np.outer(np.sin(geometry.angles), ys) / geometry.spacing
    img = np.zeros((n, grid.n_x, grid.n_y))
    rows = max(1, _BLOCK_PIXELS // grid.n_y)
    u, weight, gathered, weighted = (np.empty((rows, grid.n_y)) for _ in range(4))
    index = np.empty((rows, grid.n_y), dtype=np.intp)
    # u = alpha (+) beta as the product [alpha, 1] @ [1; beta]: products by one
    # are exact, so it rounds as the broadcast add does, at a quarter of its
    # cost on 256-pixel rows, where the add pays numpy's per-row overhead
    a1, b1 = np.ones((rows, 2)), np.ones((2, grid.n_y))
    for start in range(0, grid.n_x, rows):
        block = slice(start, min(start + rows, grid.n_x))
        k = block.stop - start
        u_k, w_k, g_k, s_k, i_k = u[:k], weight[:k], gathered[:k], weighted[:k], index[:k]
        for j in range(geometry.n_views):
            a1[:k, 0] = alpha[j, block]
            b1[1] = beta[j]
            np.matmul(a1[:k], b1, out=u_k)
            np.floor(u_k, out=w_k)
            i_k[:] = w_k
            np.subtract(u_k, w_k, out=w_k)
            np.copyto(i_k, c, where=(u_k < 0) | (u_k > c - 1))
            for i in range(n):  # indices are in range, so mode="clip" only skips the check
                value[i, j].take(i_k, out=g_k, mode="clip")
                slope[i, j].take(i_k, out=s_k, mode="clip")
                s_k *= w_k
                g_k += s_k
                img[i, block] += g_k
    return img


def synthesize_mono(image: np.ndarray, materials, energy_kev: float,
                    hounsfield: bool = False) -> np.ndarray:
    """Pixelwise sum of material fractions weighted by attenuation at one energy:
    a material image (..., L) gives a mono image (...), in 1/cm.

    With `hounsfield`, values are reported as 1000 * mu / mu_water(E), the
    modified scale on which air is 0 and water is 1000.
    """
    if len(materials) != image.shape[-1]:
        raise ToolkitError("synthesize_mono: one material per image channel required")
    mu = np.array([m.mu_at(energy_kev) for m in materials])
    out = image @ mu
    if hounsfield:
        out = 1000.0 * out / load_material("water").mu_at(energy_kev)
    return out
