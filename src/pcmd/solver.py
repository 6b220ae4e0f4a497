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

from . import detector
# detector_agent_apply and apply_prior are module globals that the benchmark's
# traced runs patch here (ROADMAP O4).
from .detector import _check_prox, _exp_neg, detector_agent_apply, empty_rows
from .errors import NumericError, ToolkitError
from .priors import apply_prior, clip_prior
from .workspace import Workspace

_DIVERGED_SPAN_FACTOR = 1.0  # rows beyond domain inflated by one full span are suspect
_STOP_CM = 1.0e-10  # largest row step (cm) after which MLE refinement stops
# Loss entries (rows x grid points) per grid-search product [t, 1] . [phi; sum exp(-phi)]:
# the most the one loss buffer of a search holds (0.5 MB, kept in cache), beside
# one (rows, bins + 1) buffer of transmission rows and ones.
_GRID_BLOCK = 1 << 16


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
        _check_prox(self.sigma)


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
        _check_prox(self.sigma, self.n_sub)


@dataclass
class SolveResult:
    p: np.ndarray
    residuals: list = field(default_factory=list)
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
    returned `p` is the final F output, and `residuals` tracks the
    per-iteration agent disagreement.
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
    return SolveResult(p=p_f, residuals=residuals)


def _grid_search(t_sino: np.ndarray, drf, grid_points) -> np.ndarray:
    """Exhaustive minimization of sum_k exp(-phi_k) + phi_k * t_k per row.

    The grid's basis table is built once; rows are scored one coefficient set
    at a time.  Each set's (K, G) table is stacked with its attenuation row
    sum_k exp(-phi_k) into `phi1` (K + 1, G), and each block of at most
    `_GRID_BLOCK` losses is copied into `rows1`, whose last column holds 1.0,
    so one matrix product [t, 1] . [phi; sum exp(-phi)] gives the whole loss.
    `phi1`, `rows1` and the loss are allocated once per search, so memory
    grows with neither the sinogram nor the number of sets.
    """
    pts = drf.domain.grid(grid_points)                        # (G, L)
    n_sets = drf.n_sets
    if t_sino.shape[0] % n_sets:
        raise ToolkitError("mle: sinogram rows not divisible by channel count")
    t3 = t_sino.reshape(-1, n_sets, t_sino.shape[1])          # (V, C, K)
    (n_views, _, n_bins), n_pts = t3.shape, pts.shape[0]
    best = np.empty(t3.shape[:2], dtype=np.intp)
    block = max(1, min(_GRID_BLOCK // n_pts, n_views))
    phi1 = np.empty((n_bins + 1, n_pts))
    rows1 = np.ones((block, n_bins + 1))
    loss = np.empty((block, n_pts))
    for c, phi_t in enumerate(drf.eval_sets(pts)):
        phi1[:n_bins] = phi_t
        phi1[n_bins] = _exp_neg(phi_t).sum(axis=0)
        for v in range(0, n_views, block):
            n = min(block, n_views - v)
            rows1[:n, :n_bins] = t3[v:v + n, c]
            np.matmul(rows1[:n], phi1, out=loss[:n])
            np.argmin(loss[:n], axis=1, out=best[v:v + n, c])
    return pts[best.ravel()]


def _flagged_rows(p: np.ndarray, empty: np.ndarray, domain) -> np.ndarray:
    """Rows the MLE cannot trust: non-finite, beyond the domain inflated by
    `_DIVERGED_SPAN_FACTOR` spans, or `empty` (no counts in any bin).  A row
    without counts has no finite likelihood minimum; the detector agent
    holds it at its grid-search start, inside the domain, so only the last
    rule flags it."""
    lo = domain.lower - _DIVERGED_SPAN_FACTOR * domain.span
    up = domain.upper + _DIVERGED_SPAN_FACTOR * domain.span
    bad = ~np.all(np.isfinite(p), axis=1)
    bad |= np.any((p < lo) | (p > up), axis=1)
    bad |= empty
    return np.nonzero(bad)[0]


def mle_decompose(t_sino: np.ndarray, air_totals: np.ndarray, drf,
                  cfg: MleConfig = MleConfig(), work: Workspace = None) -> SolveResult:
    """Maximum-likelihood pathlengths per projection: (..., K) transmission and
    (...) air totals give (..., L) pathlengths; `flagged_rows` are row-major
    indices into the projections.

    Grid search over the calibration domain seeds up to `cfg.n_iter`
    partial-update refinements with both the tether and the linearization at
    the current iterate.  Refinement stops after the first pass in which no
    row moves by more than `_STOP_CM`; `steps` records each pass's largest
    move.  Rows that leave twice the calibration domain, go non-finite or
    hold no counts are flagged.  A row without counts keeps its grid-search
    start, the grid point where the attenuation alone is least; the others
    are re-run through the equilibrium solver with a clip prior, from their
    grid-search start, as one-view sinograms of at most
    `detector._BLOCK_ROWS` rows under their channels' calibration.  Every
    detector pass, the rescue's too, works in `work` (a fresh Workspace
    when None).
    """
    t_sino = np.asarray(t_sino, dtype=float)
    shape = t_sino.shape[:-1]
    air = np.broadcast_to(np.asarray(air_totals, dtype=float), shape).reshape(-1)
    t_sino = t_sino.reshape(-1, t_sino.shape[-1])
    empty = empty_rows(t_sino)
    p0 = _grid_search(t_sino, drf, cfg.grid_points)
    p = p0.copy()
    work = Workspace() if work is None else work
    steps = []
    for _ in range(cfg.n_iter):
        new = detector_agent_apply(p, t_sino, air, drf, cfg.sigma, p_prime=p,
                                   on_nonfinite="hold", work=work, empty=empty)
        steps.append(float(np.max(np.abs(new - p), initial=0.0)))
        p = new
        # a pass is a fixed map of p: once it leaves p unchanged, later passes would too
        if steps[-1] <= _STOP_CM:
            break
    flagged = _flagged_rows(p, empty, drf.domain)
    diverged = flagged[~empty[flagged]]   # every pass held the empty rows at their start
    for lo in range(0, diverged.size, detector._BLOCK_ROWS):
        rows = diverged[lo:lo + detector._BLOCK_ROWS]
        # moderate prox strength here: the refinement sigma is deliberately huge
        # and would let the rescue's detector steps overshoot the clip prior
        sub_mace = MaceConfig(prior=clip_prior(drf.domain), rho=0.8, n_iter=25, sigma=1.0,
                              init=p0[None, rows])
        p[rows] = run_mace(t_sino[None, rows], air[None, rows],
                           drf.select(rows % drf.n_channels), sub_mace, work).p[0]
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


def _fill_empty_rows(p: np.ndarray, empty: np.ndarray) -> np.ndarray:
    """A copy of the sinogram `p` (view, channel, material) whose rows marked
    in `empty` (view, channel) are interpolated linearly across their view's
    channels from the nearest unmarked rows, the nearest one's value beyond
    the last.  A view with every row marked keeps its values."""
    p = np.array(p, dtype=float)
    chans = np.arange(p.shape[1])
    for v in np.nonzero(np.any(empty, axis=1) & ~np.all(empty, axis=1))[0]:
        gap, kept = chans[empty[v]], chans[~empty[v]]
        for m in range(p.shape[2]):
            p[v, gap, m] = np.interp(gap, kept, p[v, kept, m])
    return p


def run_mace(t_sino: np.ndarray, air_totals: np.ndarray, drf, cfg: MaceConfig,
             work: Workspace = None) -> SolveResult:
    """Consensus-equilibrium decomposition of a transmission sinogram.

    `t_sino` is (view, channel, bin) and `air_totals` (view, channel); the
    result is (view, channel, material).  `cfg.init` may be an MleConfig
    (default: MleConfig(n_iter=15)), or an explicit starting sinogram.
    Whatever the start, a row with no counts in any bin starts from its
    view's nearest rows with counts (`_fill_empty_rows`): the detector agent
    holds such a row at its tether, so only the prior moves it.  Every
    detector pass, the MLE start's too, works in `work` (a fresh Workspace
    when None).
    """
    t_sino = np.asarray(t_sino, dtype=float)
    if t_sino.ndim != 3:
        raise ToolkitError(f"mace: transmission must be (view, channel, bin), got {t_sino.shape}")
    air = np.broadcast_to(np.asarray(air_totals, dtype=float), t_sino.shape[:2])
    init = MleConfig(n_iter=15) if cfg.init is None else cfg.init
    work = Workspace() if work is None else work
    mle = None
    if isinstance(init, MleConfig):
        mle = mle_decompose(t_sino, air, drf, init, work)
        p_init = mle.p
    else:
        p_init = np.asarray(init, dtype=float)
        if p_init.shape != (*t_sino.shape[:2], drf.n_materials):
            raise ToolkitError("mace: init sinogram shape mismatch")
    empty = empty_rows(t_sino)
    if np.any(empty):
        p_init = _fill_empty_rows(p_init, empty)
    t_rows, air_rows, empty = t_sino.reshape(-1, t_sino.shape[2]), air.reshape(-1), empty.ravel()
    p_prime = p_init.reshape(-1, drf.n_materials)

    def f_agent(q):   # linearized at its previous output
        nonlocal p_prime
        p_prime = detector_agent_apply(q.reshape(p_prime.shape), t_rows, air_rows, drf,
                                       cfg.sigma, cfg.n_sub, p_prime=p_prime, work=work,
                                       empty=empty)
        return p_prime.reshape(q.shape)

    result = mann_iterate(p_init, f_agent, lambda q: apply_prior(cfg.prior, q), cfg.rho,
                          cfg.n_iter)
    result.mle_init = mle
    return result
