"""Material decomposition solvers.

`mle_decompose` runs a per-projection grid search over the calibration
domain followed by prox refinements with a large sigma (a Newton-like
maximum-likelihood polish).  `run_mace` balances the detector agent against
a prior agent with the relaxed Mann iteration

    p1 <- 2H(p) - p ; p' <- F(p1) ; p1 <- 2p' - p1 ; p <- (1-rho)p + rho*p1

returning the final detector-agent output p'.  Each F application is the
partial-update proximal map warm-started at the previous F output.  The
MACE state is the (view, channel, material) sinogram the prior sees; the
detector agent sees its rows.
"""

from dataclasses import dataclass, field

import numpy as np

from .detector import ProxParams, _exp_neg, detector_agent_apply
from .errors import NumericError, ToolkitError
from .priors import apply_prior, clip_prior

_DIVERGED_SPAN_FACTOR = 1.0  # rows beyond domain inflated by one full span are suspect
_STOP_CM = 1.0e-10  # largest row step (cm) after which MLE refinement stops
_GRID_BLOCK = 1 << 16  # loss entries (rows x grid points) per grid-search product: 0.5 MB, kept in cache


@dataclass(frozen=True)
class MleConfig:
    """Grid-search initialization plus refinement settings for the MLE."""

    grid_points: tuple = (41, 41)
    n_iter: int = 100  # cap on refinement passes
    sigma: float = 1.0e3

    def __post_init__(self):
        if self.n_iter < 1:
            raise ToolkitError("mle config: need at least one refinement iteration")
        if any(g < 1 for g in self.grid_points):
            raise ToolkitError("mle config: grid needs at least one point per material")


@dataclass(frozen=True)
class MaceConfig:
    """Equilibrium solver settings: step rho, iteration count, prox strength, prior."""

    prior: object
    rho: float = 0.8
    n_iter: int = 20
    sigma: float = 1.0
    n_sub: int = 1
    init: object = None  # MleConfig, explicit (view, channel, material) start, or None for default MLE

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ToolkitError("mace config: rho must lie strictly inside (0, 1)")
        if self.n_iter < 1:
            raise ToolkitError("mace config: need at least one iteration")


@dataclass
class SolveResult:
    p: np.ndarray
    residuals: list = field(default_factory=list)
    consensus: np.ndarray = None
    flagged_rows: np.ndarray = None
    steps: list = field(default_factory=list)  # MLE: largest row step (cm) per refinement pass
    mle_init: "SolveResult" = None  # MACE: the MLE result it started from, if it ran one


def equilibrium_residual(f_out: np.ndarray, h_out: np.ndarray) -> float:
    """Relative disagreement ||F_out - H_out|| / ||H_out|| of the two agents."""
    denom = float(np.linalg.norm(h_out))
    diff = float(np.linalg.norm(np.asarray(f_out) - np.asarray(h_out)))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom


def mann_iterate(p_init: np.ndarray, f_agent, h_agent, rho: float, n_iter: int):
    """Relaxed fixed-point iteration over two agents; returns a SolveResult.

    `f_agent` and `h_agent` map arrays to arrays of the same shape.  The
    returned `p` is the final F output; `consensus` is the final relaxed
    state, and `residuals` tracks the per-iteration agent disagreement.
    """
    p = np.array(p_init, dtype=float, copy=True)
    p_f = p
    residuals = []
    for i in range(n_iter):
        h_out = h_agent(p)
        p1 = 2.0 * h_out - p
        p_f = f_agent(p1)
        p1 = 2.0 * p_f - p1
        p = (1.0 - rho) * p + rho * p1
        if not np.all(np.isfinite(p)):
            raise NumericError(f"mace: non-finite state at iteration {i}")
        residuals.append(equilibrium_residual(p_f, h_out))
    return SolveResult(p=p_f, residuals=residuals, consensus=p)


def _grid_search(t_sino: np.ndarray, drf, grid_points) -> np.ndarray:
    """Exhaustive minimization of sum_k exp(-phi_k) + phi_k * t_k per row.

    Rows are scored one coefficient set at a time, one matrix product per
    block of at most `_GRID_BLOCK` losses, so memory grows with neither the
    sinogram nor the number of sets.
    """
    pts = drf.domain.grid(grid_points)                        # (G, L)
    n_sets = drf.n_sets
    if t_sino.shape[0] % n_sets:
        raise ToolkitError("mle: sinogram rows not divisible by channel count")
    t3 = t_sino.reshape(-1, n_sets, t_sino.shape[1])          # (V, C, K)
    best = np.empty(t3.shape[:2], dtype=np.intp)
    block = max(1, _GRID_BLOCK // pts.shape[0])
    for c in range(n_sets):
        phi = drf.eval(pts, channel=c)                        # (G, K)
        att = _exp_neg(phi).sum(axis=1)                       # (G,)
        for v in range(0, t3.shape[0], block):
            loss = t3[v:v + block, c] @ phi.T                 # (rows, G)
            loss += att
            best[v:v + block, c] = np.argmin(loss, axis=1)
    return pts[best.ravel()]


def _diverged_rows(p: np.ndarray, domain) -> np.ndarray:
    lo = domain.lower - _DIVERGED_SPAN_FACTOR * domain.span
    up = domain.upper + _DIVERGED_SPAN_FACTOR * domain.span
    bad = ~np.all(np.isfinite(p), axis=1)
    bad |= np.any((p < lo) | (p > up), axis=1)
    return np.nonzero(bad)[0]


def mle_decompose(t_sino: np.ndarray, air_totals: np.ndarray, drf,
                  cfg: MleConfig = MleConfig()) -> SolveResult:
    """Maximum-likelihood pathlengths per projection: (..., K) transmission and
    (...) air totals give (..., L) pathlengths; `flagged_rows` are row-major
    indices into the projections.

    Grid search over the calibration domain seeds up to `cfg.n_iter`
    partial-update refinements with both the tether and the linearization at
    the current iterate.  Refinement stops after the first pass in which no
    row moves by more than `_STOP_CM`; `steps` records each pass's largest
    move.  Rows that leave twice the calibration domain (or go non-finite)
    are re-run through the equilibrium solver with a clip prior.
    """
    t_sino = np.asarray(t_sino, dtype=float)
    shape = t_sino.shape[:-1]
    air = np.broadcast_to(np.asarray(air_totals, dtype=float), shape).reshape(-1)
    t_sino = t_sino.reshape(-1, t_sino.shape[-1])
    p0 = _grid_search(t_sino, drf, cfg.grid_points)
    p = p0.copy()
    params = ProxParams(sigma=cfg.sigma)
    steps = []
    for _ in range(cfg.n_iter):
        new = detector_agent_apply(p, t_sino, air, drf, params, p_prime=p,
                                   on_nonfinite="hold")
        steps.append(float(np.max(np.abs(new - p), initial=0.0)))
        p = new
        # a pass is a fixed map of p: once it leaves p unchanged, later passes would too
        if steps[-1] <= _STOP_CM:
            break
    flagged = _diverged_rows(p, drf.domain)
    if flagged.size:
        channels = flagged % drf.n_channels
        # moderate prox strength here: the refinement sigma is deliberately huge
        # and would let the rescue's detector steps overshoot the clip prior
        sub_mace = MaceConfig(prior=clip_prior(drf.domain), rho=0.8, n_iter=25, sigma=1.0)
        redo = _run_mace_rows(t_sino[flagged], air[flagged], drf, sub_mace,
                              p_init=p0[flagged, None], channels=channels)
        p[flagged] = redo.p[:, 0]
    return SolveResult(p=p.reshape(*shape, -1), flagged_rows=flagged, steps=steps)


def same_mle_at_cap(steps, n_iter: int) -> bool:
    """Whether an MLE that ran the passes `steps` records gives, on the same
    inputs and settings, the result of one capped at `n_iter` passes: it ran
    exactly `n_iter`, or it stopped by the `_STOP_CM` rule before reaching
    `n_iter`, so a higher cap runs the same passes.  `steps` must read as the
    stop rule writes them: every pass but the last moved more than `_STOP_CM`."""
    k = len(steps)
    if k == 0 or any(s <= _STOP_CM for s in steps[:-1]):
        return False
    return n_iter == k or (n_iter > k and steps[-1] <= _STOP_CM)


def _run_mace_rows(t_sino, air, drf, cfg: MaceConfig, p_init, channels=None):
    """Mann iteration from a (view, channel, material) `p_init`; rows pair with `t_sino`, `air`."""
    params = ProxParams(sigma=cfg.sigma, n_sub=cfg.n_sub)
    rows = (-1, p_init.shape[-1])
    state = {"p_prime": p_init.reshape(rows)}

    def f_agent(q):
        out = detector_agent_apply(q.reshape(rows), t_sino, air, drf, params,
                                   p_prime=state["p_prime"], channels=channels)
        state["p_prime"] = out
        return out.reshape(q.shape)

    def h_agent(q):
        return apply_prior(cfg.prior, q)

    return mann_iterate(p_init, f_agent, h_agent, cfg.rho, cfg.n_iter)


def run_mace(t_sino: np.ndarray, air_totals: np.ndarray, drf, cfg: MaceConfig) -> SolveResult:
    """Consensus-equilibrium decomposition of a transmission sinogram.

    `t_sino` is (view, channel, bin) and `air_totals` (view, channel); the
    result is (view, channel, material).  `cfg.init` may be an MleConfig
    (default: MleConfig(n_iter=15)), or an explicit starting sinogram.
    """
    t_sino = np.asarray(t_sino, dtype=float)
    if t_sino.ndim != 3:
        raise ToolkitError(f"mace: transmission must be (view, channel, bin), got {t_sino.shape}")
    air = np.broadcast_to(np.asarray(air_totals, dtype=float), t_sino.shape[:2])
    init = cfg.init
    mle = None
    if init is None:
        init = MleConfig(n_iter=15)
    if isinstance(init, MleConfig):
        mle = mle_decompose(t_sino, air, drf, init)
        p_init = mle.p
    else:
        p_init = np.asarray(init, dtype=float)
        if p_init.shape != (*t_sino.shape[:2], drf.n_materials):
            raise ToolkitError("mace: init sinogram shape mismatch")
    result = _run_mace_rows(t_sino.reshape(-1, t_sino.shape[2]), air.reshape(-1), drf, cfg,
                            p_init)
    result.mle_init = mle
    return result
