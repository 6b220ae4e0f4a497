"""Detector data-fitting agent.

Per projection row, the (constant-dropped) Poisson transmission loss is

    loss(p) = air_total * sum_k [ exp(-phi_k(p)) + t_k * phi_k(p) ]

with phi the calibrated polynomial response.  Its proximal map is computed
by repeatedly (i) linearizing phi at the current iterate, (ii) building the
optimal quadratic surrogate of exp(-z) + t*z on [z_min, inf) with
z_min = z_ref - EPSILON, and (iii) solving the resulting small linear
system in closed form.  The full agent applies this independently to every
projection row, vectorized across blocks of at most `_BLOCK_ROWS` rows so
its working memory does not grow with the sinogram, and allocated once for
every block and pass of a solve.
"""

import numpy as np

from .errors import NumericError, ToolkitError
from .workspace import Workspace

# exp(-z) is clamped to z in [-Z_CLAMP, Z_CLAMP]; far outside the calibration
# range the polynomial response is meaningless anyway, and this keeps the
# iteration finite.  CLAMP_EVENTS counts how often it engaged.
Z_CLAMP = 50.0
CLAMP_EVENTS = {"count": 0}
# Surrogate offset: the quadratic majorizes exp(-z) + t*z on [z_ref - EPSILON, inf).
EPSILON = 1.0e-3
# Rows per detector-agent block.  A block's arrays are reused by every later
# block: a shared calibration's basis table holds rows x n_coef floats,
# 3.3 MB at order 4 and two materials, whatever the scan size; a per-channel
# one builds it `calibration._SET_GROUP` sets at a time.
_BLOCK_ROWS = 1 << 14


def _exp_neg(z: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """exp(-z) with z clamped, in `out` (another array than z) or a new array."""
    e = np.empty_like(z, dtype=float) if out is None else out   # the one buffer
    n = int(np.count_nonzero(np.abs(z, out=e) > Z_CLAMP))   # NaN is not moved by the clip
    if n:
        CLAMP_EVENTS["count"] += n
    np.clip(z, -Z_CLAMP, Z_CLAMP, out=e)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def empty_rows(t: np.ndarray) -> np.ndarray:
    """Mask of the rows of t (..., K) with no counts in any bin."""
    return ~np.any(t, axis=-1)


def _surrogate_terms(z_ref: np.ndarray, t: np.ndarray, epsilon: float, out=(None, None)):
    """Gradient b and curvature c of the surrogate of g(z) = exp(-z) + t*z at z_ref:
    b*(z - z_ref) + c/2*(z - z_ref)^2 majorizes g(z) - g(z_ref) for z >= z_min.

    c = 2*(exp(-z_min) - exp(-z_ref)*(1 + z_ref - z_min)) / (z_ref - z_min)^2
    with z_min = z_ref - epsilon, so c -> exp(-z_ref) as epsilon -> 0 and the
    update is an approximate Newton step; factoring out exp(-z_ref) and using
    expm1 avoids the catastrophic cancellation of the literal form.  `out` names
    arrays for b (z_ref itself may take it) and c, or None for new ones.
    """
    e = _exp_neg(z_ref, out=out[1])
    b = np.subtract(t, e, out=out[0])
    return b, np.multiply(e, 2.0 * (np.expm1(epsilon) - epsilon) / epsilon**2, out=e)


def _solve_batched(h: np.ndarray, rhs: np.ndarray, work: Workspace) -> np.ndarray:
    """Solve (L, L, ...) systems for (L, ...) right-hand sides, rows on the trailing axes.

    The canonical L = 2 is solved in closed form over contiguous rows such as
    `h[0, 0]`, in arrays taken from `work`; other L go to `np.linalg.solve`,
    which wants the rows first.  Singular systems cannot occur for finite alpha
    (the I/alpha^2 term regularizes); if one does arise from non-finite inputs,
    the nan rows surface in the caller's finiteness check.
    """
    if h.shape[0] == 2:
        x = work.take(rhs.shape)
        det, tmp = work.take((2,) + rhs.shape[1:])
        np.multiply(h[0, 0], h[1, 1], out=det)
        det -= np.multiply(h[0, 1], h[1, 0], out=tmp)
        np.multiply(h[1, 1], rhs[0], out=x[0])
        x[0] -= np.multiply(h[0, 1], rhs[1], out=tmp)
        np.multiply(h[0, 0], rhs[1], out=x[1])
        x[1] -= np.multiply(h[1, 0], rhs[0], out=tmp)
        x /= det
        return x
    try:
        x = np.linalg.solve(np.moveaxis(h, (0, 1), (-2, -1)), np.moveaxis(rhs, 0, -1)[..., None])
    except np.linalg.LinAlgError as err:
        raise NumericError(f"detector prox: singular system ({err})") from None
    return np.moveaxis(x[..., 0], -1, 0)


def _check_prox(sigma: float, n_sub: int = 1):
    """Reject a prox strength that is not positive (NaN included) or no update."""
    if not sigma > 0:
        raise ToolkitError("prox params: sigma must be positive")
    if n_sub < 1:
        raise ToolkitError("prox params: need at least one partial update")


def detector_agent_apply(p: np.ndarray, t_sino: np.ndarray, air_totals: np.ndarray,
                         drf, sigma: float, n_sub: int = 1, p_prime: np.ndarray = None,
                         on_nonfinite: str = "raise", work: Workspace = None,
                         empty: np.ndarray = None) -> np.ndarray:
    """Partial-update proximal map applied independently to every row.

    `p` (M, L) is the proximal tether, `sigma` > 0 the prox strength; the
    response is linearized at `p_prime` (defaults to `p` itself) and refreshed
    after each of the `n_sub` >= 1 updates.  Rows are row-major (view,
    channel) under `drf` and fully decoupled: each depends only on its own
    inputs and channel.  They are processed in blocks of whole views of at
    most `_BLOCK_ROWS` rows (one view when a view is longer), each block
    running all its updates in the arrays of `work`.  An update works its
    block in set-major order, all rows of channel 0 first (`_by_set`), the
    order in which `drf.eval_jac` writes its products; under a shared
    calibration, or in a one-view block, that is the rows' own order and
    nothing is permuted.  The result is written back in row order.  A
    solver passes one Workspace to all its passes; without one, the call
    allocates its own.  A row with no counts in any bin has no finite
    likelihood minimum, so it returns its tether unchanged: there the map is
    the identity, and in MACE the prior fills the row in.  `empty` is the
    mask of such rows, `empty_rows(t_sino)` when None; a solver computes it
    once for all its passes.  With on_nonfinite="hold", rows whose update
    goes non-finite keep their previous value instead of raising (callers
    then flag them downstream); any value but "raise" or "hold" is an error.
    """
    _check_prox(sigma, n_sub)
    if on_nonfinite not in ("raise", "hold"):
        raise ToolkitError(f"detector agent: on_nonfinite must be 'raise' or 'hold', "
                           f"not {on_nonfinite!r}")
    p = np.asarray(p, dtype=float)
    t_sino = np.asarray(t_sino, dtype=float)
    air = np.asarray(air_totals, dtype=float)
    if t_sino.shape[:1] != p.shape[:1] or air.shape != p.shape[:1]:
        raise ToolkitError("detector agent: p, t, and air totals must agree on rows")
    if p.shape[0] % drf.n_channels:   # blocks of whole views, as `_by_set` needs
        raise ToolkitError("detector agent: sinogram rows not divisible by channel count")
    pp = p if p_prime is None else np.asarray(p_prime, dtype=float)
    if pp.shape != p.shape:
        raise ToolkitError(f"detector agent: p_prime is {pp.shape}, p is {p.shape}")
    work = Workspace() if work is None else work
    empty = empty_rows(t_sino) if empty is None else empty
    step = max(1, _BLOCK_ROWS // drf.n_channels) * drf.n_channels   # eval_jac groups rows by channel
    inv_a2 = 1.0 / (sigma**2 * air)  # 1/alpha^2, alpha = sigma*sqrt(air)
    out = np.empty_like(p)
    for lo in range(0, p.shape[0], step):
        rows = slice(lo, lo + step)
        tether, counts, weights, held = (_by_set(x[rows], drf.n_sets)
                                         for x in (p, t_sino, inv_a2, empty))
        q = pp[rows]
        for _ in range(n_sub):
            with work.frame():
                new = _prox_update(tether, counts, weights, drf, q, work)
                if np.any(held):
                    new[:, held] = tether[:, held]
                if not np.isfinite(new).all():   # far cheaper than the row mask it guards
                    bad = ~np.all(np.isfinite(new), axis=0)
                    if on_nonfinite == "raise":
                        raise NumericError("detector agent: non-finite update at rows "
                                           f"{(lo + np.flatnonzero(bad.T)[:8]).tolist()}")
                    new[:, bad] = _by_set(q, drf.n_sets)[:, bad]
                _by_set(out[rows], drf.n_sets)[...] = new
            q = out[rows]
    return out


def _by_set(rows: np.ndarray, n_sets: int) -> np.ndarray:
    """A block's rows (view, channel), each a scalar or a vector of components, as a
    (component, set, view) view: rows last and set-major, all rows of channel 0
    first, which is the rows' own order when there is one set or one view."""
    return rows.reshape((-1, n_sets) + rows.shape[1:]).T


def _prox_update(p, t_sino, inv_a2, drf, pp, work):
    """One linearize-and-solve update of a block of rows, linearized at `pp`.

    `pp` (M, L) holds the block's rows in (view, channel) order; `p` (L, set,
    view), `t_sino` (K, set, view) and `inv_a2` (set, view) are `_by_set`
    views of them, read in place as elementwise operands.  Every array it
    computes is in that one layout, taken from `work`, the result (L, set,
    view) too: `drf.eval_jac` writes phi and the Jacobian as (K, 1 + L, set,
    view) products, read here as they are, and only `pp` is copied, to
    (L, set, view), for the product that pairs it with the Jacobian.  So the
    elementwise steps run over long contiguous vectors, and each einsum sums
    in the order of the array it would allocate.
    """
    (n_mat, n_sets, n_views), n_bins = p.shape, t_sino.shape[0]
    by_set = work.take((n_bins, 1 + n_mat, n_sets, n_views))
    drf.eval_jac(pp, work, by_set)
    z, a = by_set[:, 0], by_set[:, 1:]
    b, c = _surrogate_terms(z, t_sino, EPSILON, out=(z, work.take(z.shape)))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        h = np.einsum("kisv,ksv,kjsv->ijsv", a, c, a, out=work.take((n_mat,) + p.shape))
        with work.frame():
            h += np.multiply(np.eye(n_mat)[..., None, None], inv_a2, out=work.take(h.shape))
        a_pp = work.take(z.shape)
        with work.frame():
            q = work.take(p.shape)
            q[...] = _by_set(pp, n_sets)
            np.einsum("klsv,lsv->ksv", a, q, out=a_pp)
        a_pp *= c
        a_pp -= b
        rhs = np.einsum("klsv,ksv->lsv", a, a_pp, out=work.take(p.shape))
        with work.frame():
            rhs += np.multiply(inv_a2, p, out=work.take(p.shape))
        return _solve_batched(h, rhs, work)
