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

# Pixels per backprojection block, in whole grid rows: the block's six
# per-view buffers (1.2 MB) and one accumulator per column pair (0.26 MB
# each) stay in cache.
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
    channel index and linear weight that gather every column.  Columns are
    gathered in complex pairs, 2q and 2q + 1 as the real and imaginary parts
    of one table, so one gather, weight and add serve two columns; with an odd
    count the last pair's imaginary part is zero.  That makes two or more
    columns cheaper than real tables would, but a single column dearer (by
    15-45 % on the benchmark workloads' tables).  Pixels with u outside
    [0, channels - 1] get an exact zero, as with `np.interp(left=0, right=0)`,
    and images agree with a per-view `np.interp` to 1e-12 of their largest
    value.  Pixels are walked in blocks of whole rows (`_BLOCK_PIXELS`), so
    working memory beyond the image does not grow with the grid.  Each pixel
    accumulates the views in a fixed order, so outputs are bit-stable, and
    column m of an (M, n) call is bit-identical to a call on that column alone
    (for finite columns: a non-finite value also spoils its pair's other
    column).
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
        del rebinned
    if geometry.mode != PARALLEL:
        raise ToolkitError("fbp: unsupported geometry mode")
    v, c, n = geometry.n_views, geometry.n_channels, len(cols)
    if v < 2:
        raise ToolkitError(f"fbp: need at least 2 parallel views, got {v}")
    span = np.ptp(geometry.angles)
    if span < np.pi - np.pi / v - 1e-9:
        raise ToolkitError("fbp: insufficient angular coverage (need half a rotation)")
    n_pad = 1 << int(np.ceil(np.log2(max(2 * c, 4))))
    resp = _ramp_response(n_pad, geometry.spacing, hann)
    # The ramp is even in frequency, so the real FFT needs only its first half.
    # Each intermediate is freed once used, so that none of them is held while
    # the backprojection's block buffers are.
    spectra = np.fft.rfft(cols.reshape(n, v, c), n=n_pad, axis=2)
    del cols
    spectra *= resp[:n_pad // 2 + 1]
    filtered = np.fft.irfft(spectra, n=n_pad, axis=2)
    del spectra
    # Pair q holds column 2q in its real part and column 2q + 1 in its imaginary
    # part.  Index c holds zeros for pixels off the detector; the zero slope at
    # c - 1 keeps a pixel on the last channel at that channel's value.
    value = np.zeros(((n + 1) // 2, v, c + 1), dtype=complex)
    value.real[:, :, :c] = filtered[0::2, :, :c]
    value.imag[:n // 2, :, :c] = filtered[1::2, :, :c]
    del filtered
    value.view(float)[...] *= geometry.spacing  # both parts, as real products
    slope = np.zeros_like(value)
    slope[:, :, :c - 1] = np.diff(value[:, :, :c], axis=2)

    img = _backproject(value, slope, n, geometry, grid)
    img *= np.pi / v
    return img[0] if sino.ndim == 1 else np.moveaxis(img, 0, -1)


def _backproject(value, slope, n, geometry, grid: ImageGrid) -> np.ndarray:
    """Sum over views of each column's linear interpolation: (n, n_x, n_y).

    `value` and `slope` are (pairs, views, channels + 1) complex tables, pair q
    holding column 2q in its real part and column 2q + 1 in its imaginary part.
    The weight is complex with a zero imaginary part: (s_r + i s_i)(w + 0i) has
    parts s_r w - s_i 0 and s_r 0 + s_i w, whose products by zero are exact, so
    each part rounds as the real product does, and complex adds are
    componentwise.  The block buffers are freed on return, before the caller
    scales the image.
    """
    pairs, c = value.shape[0], geometry.n_channels
    xs, ys = grid.pixel_centers()
    lo = geometry.channel_offsets()[0]
    alpha = (np.outer(np.cos(geometry.angles), xs) - lo) / geometry.spacing
    beta = np.outer(np.sin(geometry.angles), ys) / geometry.spacing
    img = np.empty((n, grid.n_x, grid.n_y))
    rows = max(1, _BLOCK_PIXELS // grid.n_y)
    u, whole = np.empty((rows, grid.n_y)), np.empty((rows, grid.n_y))
    index = np.empty((rows, grid.n_y), dtype=np.intp)
    wc, gathered, weighted = (np.zeros((rows, grid.n_y), dtype=complex) for _ in range(3))
    acc = np.empty((pairs, rows, grid.n_y), dtype=complex)  # one block of each pair's image
    # u = alpha (+) beta as the product [alpha, 1] @ [1; beta]: products by one
    # are exact, so it rounds as the broadcast add does, at a quarter of its
    # cost on 256-pixel rows, where the add pays numpy's per-row overhead
    a1, b1 = np.ones((rows, 2)), np.ones((2, grid.n_y))
    for start in range(0, grid.n_x, rows):
        block = slice(start, min(start + rows, grid.n_x))
        k = block.stop - start
        u_k, f_k, i_k = u[:k], whole[:k], index[:k]
        wc_k, g_k, s_k, acc_k = wc[:k], gathered[:k], weighted[:k], acc[:, :k]
        acc_k[...] = 0
        for j in range(geometry.n_views):
            a1[:k, 0] = alpha[j, block]
            b1[1] = beta[j]
            np.matmul(a1[:k], b1, out=u_k)
            np.floor(u_k, out=f_k)
            i_k[:] = f_k
            np.subtract(u_k, f_k, out=wc_k.real)  # the weight; its imaginary part stays 0
            np.copyto(i_k, c, where=(u_k < 0) | (u_k > c - 1))
            for q in range(pairs):  # indices are in range, so mode="clip" only skips the check
                value[q, j].take(i_k, out=g_k, mode="clip")
                slope[q, j].take(i_k, out=s_k, mode="clip")
                s_k *= wc_k
                g_k += s_k
                acc_k[q] += g_k
        img[0::2, block] = acc_k.real
        img[1::2, block] = acc_k[:n // 2].imag
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
