import struct
import tracemalloc
import zlib

import numpy as np

from pcmd.errors import ToolkitError


def traced_peak(fn, *args, **kwargs):
    """Peak bytes that Python and numpy allocate while `fn(*args, **kwargs)` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oversized_container(labels):
    """A CRC-valid container of sizes (2^32, 2^32, 1) and no payload: the element
    count is 2^64, which an int64 product wraps to 0, the payload it has."""
    head = b"PCMD" + struct.pack("<HHH3Q", 1, 0, 3, 2**32, 2**32, 1)
    head += b"".join(struct.pack("<H", len(lab)) + lab.encode() for lab in labels)
    return head + struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF)


def exact_phi(spectrum, materials, points):
    """Direct-summation oracle for the detector response (no polynomial)."""
    from pcmd.simulate import expected_counts

    lam = expected_counts(spectrum, materials, np.atleast_2d(points), spectrum.total_fluence)
    return -np.log(lam / spectrum.total_fluence)


def prox_objective(drf, t, air_total, tether, sigma, channel=0):
    """Air-normalized prox objective q -> loss(q)/air + ||q - tether||^2 / (2 sigma^2 air).

    `q` is one point (L,), scored as a float, or a stack (G, L), scored per point.
    The channel is selected once; each score is `drf.eval`'s own body after that.
    """
    row = drf.select([channel])

    def fn(q):
        q = np.asarray(q, dtype=float)
        (phi,) = row.eval_sets(q.reshape(-1, drf.n_materials))
        phi = phi.T.reshape(q.shape[:-1] + (drf.n_bins,))
        val = (np.sum(np.exp(-phi) + t * phi, axis=-1)
               + np.sum((q - tether) ** 2, axis=-1) / (2.0 * sigma**2 * air_total))
        return float(val) if q.ndim == 1 else val
    return fn


def grid_polish_minimizer(objective, domain, grid_n=161):
    """Independent oracle: dense grid search then Nelder-Mead polish.

    `objective` scores one point (L,) or a stack (G, L); the grid is scored
    in one call.
    """
    from scipy import optimize

    axes = [np.linspace(lo, up, grid_n) for lo, up in zip(domain.lower, domain.upper)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    vals = objective(pts)
    best = pts[np.argmin(vals)]
    res = optimize.minimize(objective, best, method="Nelder-Mead",
                            options=dict(xatol=1e-11, fatol=1e-18,
                                         maxiter=6000, maxfev=12000))
    return res.x


def reference_fbp(sino, geometry, grid, hann=False):
    """Per-column FBP oracle: one `np.interp` per view over the channel offsets.

    `sino` is (M,) or (M, n); each column is rebinned (fan), filtered and
    backprojected on its own, with pixel offsets from the full meshgrid.
    """
    from pcmd.geometry import FAN, rebin_fan_to_parallel
    from pcmd.recon import _ramp_response

    sino = np.asarray(sino, dtype=float)
    if sino.ndim == 2:
        return np.stack([reference_fbp(col, geometry, grid, hann) for col in sino.T], axis=2)
    if geometry.mode == FAN:
        geometry, sino = rebin_fan_to_parallel(sino, geometry)
    v, c = geometry.n_views, geometry.n_channels
    proj = sino.reshape(v, c)
    n_pad = 1 << int(np.ceil(np.log2(max(2 * c, 4))))
    resp = _ramp_response(n_pad, geometry.spacing, hann)
    filt = np.real(np.fft.ifft(np.fft.fft(proj, n=n_pad, axis=1) * resp[None, :], axis=1))
    filt = filt[:, :c] * geometry.spacing
    xs, ys = grid.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    s_ch = geometry.channel_offsets()
    img = np.zeros((grid.n_x, grid.n_y))
    for j in range(v):
        theta = geometry.angles[j]
        s_pix = gx * np.cos(theta) + gy * np.sin(theta)
        img += np.interp(s_pix.ravel(), s_ch, filt[j], left=0.0, right=0.0).reshape(img.shape)
    return img * (np.pi / v)


# --- the exact ray-pixel projector and pixel-centre rasterizer, test oracles only ---

def grid_edges(grid):
    """Pixel edge coordinates of an ImageGrid along x and y: (n_x + 1,), (n_y + 1,)."""
    h = grid.pixel_size
    ex = grid.origin[0] + (np.arange(grid.n_x + 1) - grid.n_x / 2.0) * h
    ey = grid.origin[1] + (np.arange(grid.n_y + 1) - grid.n_y / 2.0) * h
    return ex, ey


def _traverse(points, dirs, grid, values):
    """Exact ray/pixel intersection lengths for a batch of rays.

    Implements the classic parametric grid traversal: candidate parameters at
    every pixel-edge crossing, clipped to the grid bounding box, with segment
    lengths attributed to the pixel containing each segment midpoint.
    `values` has shape (n_x, n_y, L); returns (R, L).
    """
    ex, ey = grid_edges(grid)
    r = points.shape[0]
    big = 1e30
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = (ex[None, :] - points[:, 0:1]) / dirs[:, 0:1]
        ty = (ey[None, :] - points[:, 1:2]) / dirs[:, 1:2]
    tx = np.where(np.isfinite(tx), tx, big)
    ty = np.where(np.isfinite(ty), ty, big)

    # entry/exit via slab method, handling axis-parallel rays
    def slab(lo, hi, p, d):
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - p) / d
            t2 = (hi - p) / d
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        parallel = d == 0
        inside = (p >= lo) & (p <= hi)
        near = np.where(parallel, np.where(inside, -big, big), near)
        far = np.where(parallel, np.where(inside, big, -big), far)
        return near, far

    nx1, fx1 = slab(ex[0], ex[-1], points[:, 0], dirs[:, 0])
    ny1, fy1 = slab(ey[0], ey[-1], points[:, 1], dirs[:, 1])
    t_in = np.maximum(nx1, ny1)
    t_out = np.minimum(fx1, fy1)

    alphas = np.concatenate([tx, ty, t_in[:, None], t_out[:, None]], axis=1)
    alphas = np.clip(alphas, t_in[:, None], t_out[:, None])
    alphas.sort(axis=1)
    seg = np.diff(alphas, axis=1)                      # (R, S)
    mid = 0.5 * (alphas[:, :-1] + alphas[:, 1:])
    mx = points[:, 0:1] + mid * dirs[:, 0:1]
    my = points[:, 1:2] + mid * dirs[:, 1:2]
    ix = np.floor((mx - ex[0]) / grid.pixel_size).astype(np.int64)
    iy = np.floor((my - ey[0]) / grid.pixel_size).astype(np.int64)
    valid = (seg > 0) & (ix >= 0) & (ix < grid.n_x) & (iy >= 0) & (iy < grid.n_y)
    valid &= t_out[:, None] > t_in[:, None]
    ix = np.clip(ix, 0, grid.n_x - 1)
    iy = np.clip(iy, 0, grid.n_y - 1)
    w = np.where(valid, seg, 0.0)
    vals = values[ix.ravel(), iy.ravel()].reshape(r, seg.shape[1], -1)
    return np.einsum("rs,rsl->rl", w, vals)


def project_image(values, geometry, grid):
    """Forward-project an image through the system matrix in distance units.

    `values` is (n_x, n_y) or (n_x, n_y, L); the result is (M,) or (M, L)
    with entries sum_n A[m, n] * x[n, l], where A[m, n] is the exact
    intersection length (cm) of ray m with pixel n.
    """
    squeeze = values.ndim == 2
    if squeeze:
        values = values[:, :, None]
    if values.shape[:2] != (grid.n_x, grid.n_y):
        raise ToolkitError("project_image: image shape does not match grid")
    out = np.empty((geometry.n_rays, values.shape[2]))
    c = geometry.n_channels
    pts, dirs = geometry.all_rays()
    for v in range(geometry.n_views):
        view = slice(v * c, (v + 1) * c)
        out[view] = _traverse(pts[view], dirs[view], grid, values)
    return out[:, 0] if squeeze else out


def rasterize(phantom, grid):
    """Pixel-centre rasterization of a Phantom onto an ImageGrid, (n_x, n_y, L)."""
    xs, ys = grid.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    img = np.zeros((grid.n_x, grid.n_y, phantom.n_materials))
    for d in phantom.disks:
        inside = (gx - d.center[0]) ** 2 + (gy - d.center[1]) ** 2 <= d.radius**2
        img[inside] += d.fractions
    return img
