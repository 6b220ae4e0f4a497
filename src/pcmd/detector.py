"""Detector data-fitting agent.

Per projection row, the (constant-dropped) Poisson transmission loss is

    loss(p) = air_total * sum_k [ exp(-phi_k(p)) + t_k * phi_k(p) ]

with phi the calibrated polynomial response.  Its proximal map is computed
by repeatedly (i) linearizing phi at the current iterate, (ii) building the
optimal quadratic surrogate of exp(-z) + t*z on [z_min, inf) with
z_min = z_ref - epsilon, and (iii) solving the resulting small linear
system in closed form.  The full agent applies this independently to every
projection row, vectorized across blocks of at most `_BLOCK_ROWS` rows so
its working memory does not grow with the sinogram.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ToolkitError

# exp(-z) is clamped to z in [-Z_CLAMP, Z_CLAMP]; far outside the calibration
# range the polynomial response is meaningless anyway, and this keeps the
# iteration finite.  CLAMP_EVENTS counts how often it engaged.
Z_CLAMP = 50.0
CLAMP_EVENTS = {"count": 0}
# Rows per detector-agent block.  A block's basis table holds rows x n_coef x
# (1 + L) floats, 9.8 MB at order 4 and two materials, whatever the scan size.
_BLOCK_ROWS = 1 << 14


def _exp_neg(z: np.ndarray) -> np.ndarray:
    n = int(np.count_nonzero(np.abs(z) > Z_CLAMP))   # NaN is not moved by the clip
    if n:
        CLAMP_EVENTS["count"] += n
    e = np.clip(z, -Z_CLAMP, Z_CLAMP, out=np.empty_like(z, dtype=float))   # one buffer
    np.negative(e, out=e)
    return np.exp(e, out=e)


@dataclass(frozen=True)
class ProxParams:
    """Proximal-map parameters: strength sigma, partial updates, surrogate offset."""

    sigma: float = 1.0
    n_sub: int = 1
    epsilon: float = 1.0e-3

    def __post_init__(self):
        if not self.sigma > 0:
            raise ToolkitError("prox params: sigma must be positive")
        if self.n_sub < 1:
            raise ToolkitError("prox params: need at least one partial update")
        if not self.epsilon > 0:
            raise ToolkitError("prox params: epsilon must be positive")


@dataclass(frozen=True)
class SurrogateQuadratic:
    """Separable quadratic upper bound b.(z-z_ref) + (z-z_ref).C/2.(z-z_ref).

    Valid (majorizing) for z >= z_min componentwise; value 0 and gradient b
    at z_ref by construction.
    """

    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)  # diagonal curvature entries
    z_ref: np.ndarray = field(repr=False)
    z_min: np.ndarray = field(repr=False)

    def value(self, z: np.ndarray) -> np.ndarray:
        d = np.asarray(z, dtype=float) - self.z_ref
        return np.sum(self.b * d + 0.5 * self.c * d * d, axis=-1)

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return self.b + self.c * (np.asarray(z, dtype=float) - self.z_ref)


def _surrogate_terms(z_ref: np.ndarray, t: np.ndarray, epsilon: float):
    """Gradient b and curvature c of the surrogate of exp(-z) + t*z at z_ref.

    c = 2*(exp(-z_min) - exp(-z_ref)*(1 + z_ref - z_min)) / (z_ref - z_min)^2
    with z_min = z_ref - epsilon; factoring out exp(-z_ref) and using expm1
    avoids the catastrophic cancellation of the literal form.
    """
    e = _exp_neg(z_ref)
    return t - e, e * (2.0 * (np.expm1(epsilon) - epsilon) / epsilon**2)


def surrogate_at(z_ref: np.ndarray, t: np.ndarray, epsilon: float = 1.0e-3) -> SurrogateQuadratic:
    """Optimal quadratic surrogate of g(z) = exp(-z) + t*z at z_ref.

    The curvature matches the bound's value at z_min = z_ref - epsilon, which
    makes the minimization an approximate Newton step (c -> exp(-z_ref) as
    epsilon -> 0) while preserving majorization on [z_min, inf).
    """
    if not epsilon > 0:
        raise ToolkitError("surrogate: epsilon must be positive")
    z_ref = np.asarray(z_ref, dtype=float)
    b, c = _surrogate_terms(z_ref, np.asarray(t, dtype=float), epsilon)
    return SurrogateQuadratic(b=b, c=c, z_ref=z_ref, z_min=z_ref - epsilon)


def detector_loss(p: np.ndarray, t: np.ndarray, air_total: float, drf,
                  channel: int = 0) -> float:
    """Poisson transmission loss for one projection row (constant dropped)."""
    phi = drf.eval(np.asarray(p, dtype=float), channel=channel)
    return float(air_total * np.sum(_exp_neg(phi) + np.asarray(t) * phi))


def _solve_batched(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (M, L, L) systems; closed form for the canonical L = 2.

    Singular systems cannot occur for finite alpha (the I/alpha^2 term
    regularizes); if one does arise from non-finite inputs, the nan rows
    surface in the caller's finiteness check.
    """
    if h.shape[-1] == 2:
        det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
        x0 = (h[..., 1, 1] * rhs[..., 0] - h[..., 0, 1] * rhs[..., 1]) / det
        x1 = (h[..., 0, 0] * rhs[..., 1] - h[..., 1, 0] * rhs[..., 0]) / det
        return np.stack([x0, x1], axis=-1)
    try:
        return np.linalg.solve(h, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as err:
        raise NumericError(f"detector prox: singular system ({err})") from None


def detector_agent_apply(p: np.ndarray, t_sino: np.ndarray, air_totals: np.ndarray,
                         drf, params: ProxParams, p_prime: np.ndarray = None,
                         channels=None, on_nonfinite: str = "raise") -> np.ndarray:
    """Partial-update proximal map applied independently to every row.

    `p` (M, L) is the proximal tether; the response is linearized at
    `p_prime` (defaults to `p` itself) and refreshed after each of the
    `params.n_sub` updates.  Rows are fully decoupled, so any row
    permutation commutes with this map, and rows are processed in blocks of
    at most `_BLOCK_ROWS` (whole views when `channels` is None), each block
    running all its updates.  With on_nonfinite="hold", rows whose update
    goes non-finite keep their previous value instead of raising (callers
    then flag them downstream).
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    t_sino = np.atleast_2d(np.asarray(t_sino, dtype=float))
    air = np.atleast_1d(np.asarray(air_totals, dtype=float))
    if t_sino.shape[0] != p.shape[0] or air.shape[0] != p.shape[0]:
        raise ToolkitError("detector agent: p, t, and air totals must agree on rows")
    pp = p if p_prime is None else np.atleast_2d(np.asarray(p_prime, dtype=float))
    if pp.shape != p.shape:
        raise ToolkitError(f"detector agent: p_prime is {pp.shape}, p is {p.shape}")
    if channels is None:   # eval_jac groups a block's rows by channel: keep views whole
        step = max(1, _BLOCK_ROWS // drf.n_channels) * drf.n_channels
    else:
        channels, step = np.asarray(channels, dtype=int), _BLOCK_ROWS
    inv_a2 = 1.0 / (params.sigma**2 * air)  # 1/alpha^2, alpha = sigma*sqrt(air)
    out = np.empty_like(p)
    for lo in range(0, p.shape[0], step):
        rows = slice(lo, lo + step)
        block_channels = None if channels is None else channels[rows]
        q = pp[rows]
        for _ in range(params.n_sub):
            new = _prox_update(p[rows], t_sino[rows], inv_a2[rows], drf, params.epsilon, q,
                               block_channels)
            bad = ~np.all(np.isfinite(new), axis=1)
            if np.any(bad):
                if on_nonfinite == "raise":
                    raise NumericError("detector agent: non-finite update at rows "
                                       f"{(lo + np.nonzero(bad)[0][:8]).tolist()}")
                new[bad] = q[bad]
            q = new
        out[rows] = q
    return out


def _prox_update(p, t_sino, inv_a2, drf, epsilon, pp, channels):
    """One linearize-and-solve update of a block of rows, linearized at `pp`.

    Its own function so that its temporaries are freed before the next update.
    """
    phi, a = drf.eval_jac(pp, channels=channels)     # (M, K), (M, K, L)
    b, c = _surrogate_terms(phi, t_sino, epsilon)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        h = np.einsum("mki,mk,mkj->mij", a, c, a) + inv_a2[:, None, None] * np.eye(p.shape[1])
        a_pp = np.einsum("mkl,ml->mk", a, pp)
        rhs = np.einsum("mkl,mk->ml", a, c * a_pp - b) + inv_a2[:, None] * p
        return _solve_batched(h, rhs)


def prox_partial_update(p: np.ndarray, p_prime: np.ndarray, t: np.ndarray,
                        air_total: float, drf, params: ProxParams,
                        channel: int = 0) -> np.ndarray:
    """Single-row partial-update proximal map (N = params.n_sub updates)."""
    out = detector_agent_apply(np.asarray(p, dtype=float)[None], np.asarray(t, dtype=float)[None],
                               np.array([air_total]), drf, params,
                               p_prime=np.asarray(p_prime, dtype=float)[None],
                               channels=np.array([channel]))
    return out[0]
