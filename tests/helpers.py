import numpy as np


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
