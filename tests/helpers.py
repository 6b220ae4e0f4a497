import tracemalloc

import numpy as np


def traced_peak(fn, *args, **kwargs):
    """Peak bytes that Python and numpy allocate while `fn(*args, **kwargs)` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def exact_phi(spectrum, materials, points):
    """Direct-summation oracle for the detector response (no polynomial)."""
    from pcmd.simulate import expected_counts

    lam = expected_counts(spectrum, materials, np.atleast_2d(points), 1.0)
    return -np.log(lam / spectrum.total_fluence)


def prox_objective(drf, t, air_total, tether, sigma, channel=0):
    """Air-normalized prox objective q -> loss(q)/air + ||q - tether||^2 / (2 sigma^2 air).

    `q` is one point (L,), scored as a float, or a stack (G, L), scored per point.
    """
    def fn(q):
        q = np.asarray(q, dtype=float)
        phi = drf.eval(q, channel=channel)
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
