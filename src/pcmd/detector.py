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
    """Solve (M, L, L) systems; closed form for the canonical L = 2, taken from `work`.

    Singular systems cannot occur for finite alpha (the I/alpha^2 term
    regularizes); if one does arise from non-finite inputs, the nan rows
    surface in the caller's finiteness check.
    """
    if h.shape[-1] == 2:
        x = work.take(rhs.shape)
        det, tmp = work.take((2, h.shape[0]))
        np.multiply(h[:, 0, 0], h[:, 1, 1], out=det)
        det -= np.multiply(h[:, 0, 1], h[:, 1, 0], out=tmp)
        np.multiply(h[:, 1, 1], rhs[:, 0], out=x[:, 0])
        x[:, 0] -= np.multiply(h[:, 0, 1], rhs[:, 1], out=tmp)
        np.multiply(h[:, 0, 0], rhs[:, 1], out=x[:, 1])
        x[:, 1] -= np.multiply(h[:, 1, 0], rhs[:, 0], out=tmp)
        x /= det[:, None]
        return x
    try:
        return np.linalg.solve(h, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as err:
        raise NumericError(f"detector prox: singular system ({err})") from None


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
    then flag them downstream).
    """
    _check_prox(sigma, n_sub)
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
                new = _prox_update(tether, counts, weights, drf, q, work).reshape(tether.shape)
                if np.any(held):
                    new[held] = tether[held]
                bad = ~np.all(np.isfinite(new), axis=-1)
                if np.any(bad):
                    if on_nonfinite == "raise":
                        raise NumericError("detector agent: non-finite update at rows "
                                           f"{(lo + np.flatnonzero(bad.T)[:8]).tolist()}")
                    new[bad] = _by_set(q, drf.n_sets)[bad]
                _by_set(out[rows], drf.n_sets)[...] = new
            q = out[rows]
    return out


def _by_set(rows: np.ndarray, n_sets: int) -> np.ndarray:
    """A block's rows (view, channel) as a (set, view, ...) view: set-major order,
    which is the rows' own order when there is one set or one view."""
    return rows.reshape((-1, n_sets) + rows.shape[1:]).swapaxes(0, 1)


def _prox_update(p, t_sino, inv_a2, drf, pp, work):
    """One linearize-and-solve update of a block of rows, linearized at `pp`.

    `pp` (M, L) holds the block's rows in (view, channel) order; `p`,
    `t_sino` and `inv_a2` are (set, view, ...) views of them (`_by_set`), the
    order in which `drf.eval_jac` writes its products, and the result (M, L)
    is in that order too.  They are read in place as elementwise operands;
    only `pp` is copied, to (L, set, view), for the product that pairs it
    with the Jacobian.  Every array it computes is taken from `work`, the
    result too, and laid out with rows fastest, as `a` is, so the elementwise
    steps run over long contiguous vectors and each einsum sums in the order
    of the array it would allocate.
    """
    (n_sets, n_views, n_mat), n_bins = p.shape, t_sino.shape[-1]
    rows = (n_sets, n_views)
    phi, a = drf.eval_jac(pp, work, work.take((n_bins, 1 + n_mat, n_sets, n_views)))
    z = phi.T.reshape((n_bins,) + rows)
    b, c = _surrogate_terms(z, t_sino.transpose(2, 0, 1), EPSILON, out=(z, work.take(z.shape)))
    b, c = _rows_first(b), _rows_first(c)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        h = np.einsum("mki,mk,mkj->mij", a, c, a, out=_rows_first(work.take((n_mat, n_mat) + rows)))
        with work.frame():
            h += _rows_first(np.multiply(np.eye(n_mat)[..., None, None], inv_a2,
                                         out=work.take((n_mat, n_mat) + rows)))
        a_pp = _rows_first(work.take(z.shape))
        with work.frame():
            q = work.take((n_mat,) + rows)
            q[...] = _by_set(pp, n_sets).transpose(2, 0, 1)
            np.einsum("mkl,ml->mk", a, _rows_first(q), out=a_pp)
        a_pp *= c
        a_pp -= b
        rhs = np.einsum("mkl,mk->ml", a, a_pp, out=_rows_first(work.take((n_mat,) + rows)))
        with work.frame():
            rhs += _rows_first(np.multiply(inv_a2, p.transpose(2, 0, 1), out=work.take(q.shape)))
        return _solve_batched(h, rhs, work)


def _rows_first(x: np.ndarray) -> np.ndarray:
    """A (..., set, view) array as (M, ...), a view with its rows still fastest."""
    return np.moveaxis(x.reshape(x.shape[:-2] + (-1,)), -1, 0)
