"""Polynomial detector response calibration.

The detector response function (DRF) maps basis-material pathlengths p to
per-bin values phi(p) = -log(lambda(p) / lambda_air_total).  It is measured
on a slab grid and fitted, per detector channel and bin, as a tensor-product
polynomial of order P in each material coordinate.  Coefficients are stored
against an explicit basis descriptor (monomials in pathlengths divided by a
per-material scale) so evaluation is unambiguous; the scaled basis keeps the
order-4 fit well-conditioned over the full 0-40 cm x 0-5 cm domain.
"""

import functools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .arrayio import array_from_bytes, array_to_bytes
from .errors import ConfigError, NumericError, PhotonStarvationError, ToolkitError
# expected_counts and sample_poisson are module globals that the benchmark's
# traced runs patch here (ROADMAP O4).
from .simulate import expected_counts, sample_poisson
from .workspace import Workspace

# Coefficient sets per basis table in `DrfPolynomial.eval_jac`: a detector
# block of 16,320 rows over 96 per-channel sets (170 views) builds 8 sets'
# table at a time, 0.27 MB at order 4 and two materials instead of 3.3 MB.
_SET_GROUP = 8


@dataclass(frozen=True)
class CalibrationDomain:
    """Per-material pathlength bounds (cm) spanned by the calibration."""

    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.shape != up.shape or lo.ndim != 1:
            raise ToolkitError("calibration domain: lower/upper must be equal-length vectors")
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise ToolkitError("calibration domain: bounds must be finite")
        if np.any(lo > up):
            raise ToolkitError("calibration domain: lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def n_materials(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def grid(self, points_per_axis) -> np.ndarray:
        """Regular grid over the domain, bounds included, as points (G, L); the
        last material varies fastest."""
        counts = list(points_per_axis)
        if len(counts) != self.n_materials or any(n < 1 for n in counts):
            raise ToolkitError(f"calibration domain: grid needs {self.n_materials} point counts "
                               f"(one per material, each >= 1), got {len(counts)}: {counts}")
        axes = [np.linspace(lo, up, n) for lo, up, n in zip(self.lower, self.upper, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


DEFAULT_DOMAIN = CalibrationDomain(lower=np.zeros(2), upper=np.array([40.0, 5.0]))


@functools.lru_cache(maxsize=16)
def _lift(order: int, scale: tuple) -> np.ndarray:
    """The (n_coef, (1 + L) n_coef) matrix that maps coefficient sets to the
    sets stacked with their derivative sets, for a basis of `order` and
    per-material `scale`; read-only, shared by every calibration of that basis.

    The derivative of a polynomial is a polynomial in the same basis: in set
    1 + m, monomial e takes the coefficient of e + 1 in material m, scaled by
    (e_m + 1) / scale_m, and 0 at the top power.  Every column has at most
    one nonzero factor, so each entry of the product is one coefficient
    times one factor, rounded once.
    """
    n_mat, n_pow = len(scale), order + 1
    n_coef = n_pow ** n_mat
    exps = np.indices((n_pow,) * n_mat).reshape(n_mat, -1)
    lift = np.zeros((n_coef, 1 + n_mat, n_coef))
    lift[:, 0] = np.eye(n_coef)
    for m in range(n_mat):
        e = np.nonzero(exps[m] < order)[0]
        lift[e + n_pow ** (n_mat - 1 - m), 1 + m, e] = (exps[m, e] + 1) / scale[m]
    lift = lift.reshape(n_coef, -1)
    lift.flags.writeable = False
    return lift


@dataclass(frozen=True)
class DrfPolynomial:
    """Per-channel polynomial detector response phi(p) and its gradient.

    `theta` has shape (n_channels, K, n_coef) with n_coef = (order+1)^L;
    coefficient j multiplies prod_l (p_l / basis_scale_l) ** e_l, where
    (e_0, ..., e_(L-1)) is entry j of `np.ndindex((order+1,) * L)`.
    A single-channel model (n_channels = 1) applies to every sinogram row.
    When every channel's coefficients are exactly equal (a parallel-beam
    fit), evaluation uses the one shared set; `n_channels` and `theta` keep
    the stored per-channel form.
    """

    theta: np.ndarray = field(repr=False)
    order: int
    n_materials: int
    domain: CalibrationDomain
    basis_scale: np.ndarray = field(repr=False)
    bin_edges: np.ndarray = field(repr=False, default=None)
    fit_residual: float = float("nan")

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim == 2:
            theta = theta[None]
        n_coef = (self.order + 1) ** self.n_materials
        if theta.ndim != 3 or theta.shape[2] != n_coef:
            raise ToolkitError(f"drf: theta must be (channels, bins, {n_coef})")
        # channels whose coefficients are all equal evaluate as one shared set
        coef = theta[:1] if theta.strides[0] == 0 or not np.any(theta != theta[0]) else theta
        if not np.all(np.isfinite(coef)):
            raise ToolkitError("drf: coefficients must be finite")
        scale = np.asarray(self.basis_scale, dtype=float)
        if scale.shape != (self.n_materials,) or not np.all((scale > 0) & (scale < np.inf)):
            raise ToolkitError("drf: basis scale must be positive and finite per material")
        if self.domain.n_materials != self.n_materials:
            raise ToolkitError("drf: domain must bound every material")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "basis_scale", scale)
        object.__setattr__(self, "_coef", coef)
        if self.bin_edges is not None:
            object.__setattr__(self, "bin_edges", np.asarray(self.bin_edges, dtype=float))

    @property
    def n_channels(self) -> int:
        return self.theta.shape[0]

    @property
    def n_bins(self) -> int:
        return self.theta.shape[1]

    @property
    def n_sets(self) -> int:
        """Distinct coefficient sets: 1 when every channel shares one, else n_channels."""
        return self._coef.shape[0]

    def _tables(self, p: np.ndarray, work: Workspace, scratch: Workspace = None) -> np.ndarray:
        """Basis at point groups p (G, L, N): (G, n_coef, N), taken from `work`.

        Tensor products over materials, left to right, of the power tables
        s_l^0..s_l^P (s = p / basis_scale).  The factors are taken from
        `scratch` (default `work`) and are spent on return.
        """
        scratch = work if scratch is None else scratch
        n_groups, n_mat, n_pts = p.shape
        n_pow = self.order + 1
        table = work.take((n_groups,) + (n_pow,) * n_mat + (n_pts,))
        s = np.divide(p, self.basis_scale[:, None], out=scratch.take(p.shape))
        power = scratch.take((n_groups, n_mat, n_pow, n_pts))  # s^0 = 1 and s^1 = s exactly
        power[..., 0, :] = 1.0
        if n_pow > 1:
            power[..., 1, :] = s
        if n_pow > 2:
            # numpy squares outright when 2 is the only exponent, which may round
            # apart from pow; so at order 2 pow also gives s^1 (as s)
            first = 2 if n_pow > 3 else 1
            # pow runs some 30x slower on a negative base (numpy leaves its vector
            # path), so it powers |s| and odd powers take the sign of s
            mag = np.abs(s, out=scratch.take(p.shape))
            np.power(mag[..., None, :], np.arange(first, n_pow)[:, None], out=power[..., first:, :])
            np.copysign(power[..., 1::2, :], s[..., None, :], out=power[..., 1::2, :])
        prod = power[:, 0]                                                 # (G, P+1, N)
        for m in range(1, n_mat):
            shape = (n_groups,) + (n_pow,) * (m + 1) + (n_pts,)
            dest = table if m == n_mat - 1 else scratch.take(shape)
            step = power[:, m].reshape((n_groups,) + (1,) * m + (n_pow, n_pts))
            prod = np.multiply(prod[..., None, :], step, out=dest)
        if n_mat == 1:
            table[...] = prod
        return table.reshape(n_groups, -1, n_pts)

    def _with_derivatives(self, coef: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Coefficient sets (..., K, n_coef) stacked with their derivative sets
        (`_lift`): (..., K, 1 + L, n_coef), in `out` when given."""
        lift = _lift(self.order, tuple(self.basis_scale.tolist()))
        flat = np.matmul(coef.reshape(-1, coef.shape[-1]), lift,
                         out=None if out is None else out.reshape(-1, lift.shape[1]))
        return flat.reshape(coef.shape[:-1] + (1 + self.n_materials, coef.shape[-1]))

    def eval(self, p, channel: int = 0) -> np.ndarray:
        """phi(p) for one detector channel; p is (..., L), result (..., K)."""
        p = np.asarray(p, dtype=float)
        (phi,) = self.select([channel]).eval_sets(p.reshape(-1, self.n_materials))
        return phi.T.reshape(p.shape[:-1] + (self.n_bins,))

    def grad(self, p, channel: int = 0) -> np.ndarray:
        """Exact Jacobian d phi / dp, shape (..., K, L)."""
        p = np.asarray(p, dtype=float)
        jac = self.select([channel]).eval_jac(p.reshape(-1, self.n_materials))[1]
        return jac.reshape(p.shape[:-1] + (self.n_bins, self.n_materials))

    def eval_sets(self, p):
        """phi at points p (N, L) under each coefficient set in turn, as
        `n_sets` arrays (K, N), all contracted with one basis table."""
        tab = self._tables(np.asarray(p, dtype=float).T[None], Workspace())[0]
        return (coef @ tab for coef in self._coef)

    def select(self, channels) -> "DrfPolynomial":
        """This calibration restricted to `channels`, in their order: channel i
        of the result is channel `channels[i]` of this one.  A shared
        calibration selects as a zero-copy view of its one coefficient set."""
        ch = np.asarray(channels, dtype=int).reshape(-1)
        if ch.size == 0 or ch.min() < 0 or ch.max() >= self.n_channels:
            raise ToolkitError(f"drf: select needs one or more channels in 0..{self.n_channels - 1}")
        theta = (np.broadcast_to(self._coef, (ch.size,) + self._coef.shape[1:])
                 if self.n_sets == 1 else self.theta[ch])
        return replace(self, theta=theta)

    def eval_jac(self, p: np.ndarray, work: Workspace = None, out: np.ndarray = None):
        """phi (M, K) and its Jacobian d phi / dp (M, K, L) for a stack of rows (M, L).

        Rows of `p` are row-major (view, channel) over all detector channels;
        `select` pairs rows with other channels.  Each coefficient set, stacked
        with its derivative sets (`_with_derivatives`), is contracted with the
        basis table of its rows in one matrix product, written straight into
        its place in a set-major (K, 1 + L, n_sets, views) array, so phi and
        the Jacobian come from one product per set.  A per-channel calibration
        builds the table `_SET_GROUP` sets at a time; each set keeps its own
        product, so grouping changes no bit.  Given `out`, a C-contiguous array
        of that shape, the results are views of it with rows set-major: all
        rows of set 0 first, which is the rows' own order with one set or one
        view.  Without it they are in the rows' order, taken from `work` in the
        caller's frame (a fresh Workspace when None), or new when the orders
        differ.  Either way rows run along the fastest axis, so per-row
        arithmetic on them runs over long contiguous vectors.
        """
        p = np.asarray(p, dtype=float)
        if p.shape[0] % self.n_channels:
            raise ToolkitError("drf: sinogram rows not divisible by channel count")
        work = Workspace() if work is None else work
        n_sets, n_bins, n_rows = self.n_sets, self.n_bins, 1 + self.n_materials
        groups = p.reshape(-1, n_sets, p.shape[1]).transpose(1, 2, 0)        # (C, L, V)
        n_views = groups.shape[2]
        by_set = work.take((n_bins, n_rows, n_sets, n_views)) if out is None else out
        # one set's product fills `by_set` only after the basis factors are
        # spent, so they are built in its memory
        scratch = Workspace(by_set.reshape(-1)) if n_sets == 1 else None
        dest = by_set.reshape(n_bins * n_rows, n_sets, n_views).swapaxes(0, 1)
        for lo in range(0, n_sets, _SET_GROUP):
            sets = slice(lo, lo + _SET_GROUP)
            with work.frame():
                tab = self._tables(groups[sets], work, scratch)             # (G, n_coef, V)
                n_group, n_coef = tab.shape[:2]
                coef = self._with_derivatives(self._coef[sets],
                                              work.take((n_group, n_bins, n_rows, n_coef)))
                np.matmul(coef.reshape(n_group, -1, n_coef), tab, out=dest[sets])
        if out is None:   # back to the rows' order: no copy with one set or one view
            by_set = np.ascontiguousarray(by_set.swapaxes(2, 3))
        by_set = by_set.reshape(n_bins, n_rows, -1)
        return by_set[:, 0].T, by_set[:, 1:].transpose(2, 0, 1)

    def eval_sino(self, p: np.ndarray) -> np.ndarray:
        """phi for a stack of projection rows (M, L) -> (M, K), rows as in `eval_jac`."""
        return self.eval_jac(p)[0]

    def grad_sino(self, p: np.ndarray) -> np.ndarray:
        """Jacobians for a stack of rows (M, L) -> (M, K, L)."""
        return self.eval_jac(p)[1]


def measure_drf(mean_counts: np.ndarray, air_total: float) -> np.ndarray:
    """Empirical DRF samples: -log of air-normalized mean counts.

    `mean_counts` is (S, K) or (channels, S, K); zero counts indicate photon
    starvation and raise, naming the offending (point, bin).
    """
    counts = np.asarray(mean_counts, dtype=float)
    if air_total <= 0:
        raise ToolkitError("measure_drf: air total must be positive")
    bad = np.argwhere(counts <= 0)
    if bad.size:
        where = tuple(int(i) for i in bad[0])
        raise PhotonStarvationError(
            f"measure_drf: zero mean counts at point/bin {where}; "
            "increase dose or repeats for this slab point"
        )
    return -np.log(counts / air_total)


def fit_drf(points: np.ndarray, phi_hat: np.ndarray, order: int = 4,
            domain: CalibrationDomain = DEFAULT_DOMAIN, bin_edges=None) -> DrfPolynomial:
    """Least-squares polynomial fit of measured DRF samples.

    `points` is (S, L) with matching `phi_hat` (S, K) for a single channel,
    or (C, S, L) with (C, S, K) for per-channel fits.  Requires at least
    (order+1)^L distinct points and a full-rank design.
    """
    points = np.asarray(points, dtype=float)
    phi_hat = np.asarray(phi_hat, dtype=float)
    if points.ndim == 2:
        points, phi_hat = points[None], phi_hat[None]
    n_chan, n_pts, n_mat = points.shape
    n_coef = (order + 1) ** n_mat
    if n_pts < n_coef:
        raise NumericError(
            f"fit_drf: {n_pts} sample points cannot determine {n_coef} coefficients"
        )
    scale = np.where(domain.upper > 0, domain.upper, 1.0)
    probe = DrfPolynomial(theta=np.zeros((1, 1, n_coef)), order=order, n_materials=n_mat,
                          domain=domain, basis_scale=scale)
    theta = np.empty((n_chan, phi_hat.shape[2], n_coef))
    worst = 0.0
    for c in range(n_chan):
        design = probe._tables(points[c].T[None], Workspace())[0].T
        coef, _, rank, _ = np.linalg.lstsq(design, phi_hat[c], rcond=None)
        if rank < n_coef:
            raise NumericError(
                f"fit_drf: rank-deficient design (rank {rank} < {n_coef}); "
                "add or spread calibration points"
            )
        theta[c] = coef.T
        worst = max(worst, float(np.abs(design @ coef - phi_hat[c]).max()))
    return DrfPolynomial(theta=theta, order=order, n_materials=n_mat, domain=domain,
                         basis_scale=scale, bin_edges=bin_edges, fit_residual=worst)


def slab_scan_protocol(spectrum, materials, points, geometry, repeats: int = 100,
                       air_counts_total: float = 1.0e6, noise: bool = True, seed: int = 0):
    """Simulate the slab calibration protocol for every detector channel.

    Slabs sit perpendicular to the iso-ray, so the channel at fan angle gamma
    sees an effective pathlength p_s / cos(gamma).  Each slab point of
    `points` (S, L) is scanned `repeats` times and averaged; the average of R
    independent Poisson(lam) draws is sampled as Poisson(R * lam) / R, which
    has the identical distribution.  Each channel draws from its own
    calibration stream.  Returns the effective pathlengths (C, S, L) and the
    mean counts (C, S, K).
    """
    if repeats < 1:
        raise ToolkitError("slab scan: repeats must be >= 1")
    pts = np.atleast_2d(np.asarray(points, dtype=float))  # (S, L)
    gamma = geometry.fan_angles()
    n_chan, n_pts = geometry.n_channels, pts.shape[0]
    eff = pts[None, :, :] / np.cos(gamma)[:, None, None]  # (C, S, L)
    lam = expected_counts(spectrum, materials, eff.reshape(-1, pts.shape[1]), air_counts_total)
    lam = lam.reshape(n_chan, n_pts, -1)
    if not noise:
        return eff, lam
    total = sample_poisson((repeats * lam).reshape(n_chan * n_pts, -1), seed,
                           "calibration", rows_per_stream=n_pts)
    return eff, total.reshape(lam.shape).astype(float) / repeats


def calibrate_drf(spectrum, materials, geometry, order: int = 4,
                  domain: CalibrationDomain = DEFAULT_DOMAIN, points_per_axis=(9, 9),
                  repeats: int = 100, air_counts_total: float = 1.0e6, noise: bool = True,
                  seed: int = 0) -> DrfPolynomial:
    """Full calibration: slab scans of `domain.grid(points_per_axis)` ->
    empirical DRF -> per-channel fit over the same `domain`."""
    points, mean_counts = slab_scan_protocol(
        spectrum, materials, domain.grid(points_per_axis), geometry, repeats=repeats,
        air_counts_total=air_counts_total, noise=noise, seed=seed)
    return fit_drf(points, measure_drf(mean_counts, air_counts_total), order=order,
                   domain=domain, bin_edges=spectrum.bin_edges)


# --- calibration container: structured-text header + binary coefficients ---

_HEADER_SENTINEL = b"\n\x00"


def save_calibration(path, drf: DrfPolynomial):
    meta = {
        "format": "PCMD-CAL",
        "version": 1,
        "order": drf.order,
        "n_materials": drf.n_materials,
        "n_channels": drf.n_channels,
        "n_bins": drf.n_bins,
        "basis": {"kind": "monomial", "scale": drf.basis_scale.tolist()},
        "domain": {"lower": drf.domain.lower.tolist(), "upper": drf.domain.upper.tolist()},
        "bin_edges": None if drf.bin_edges is None else drf.bin_edges.tolist(),
        "fit_residual": None if np.isnan(drf.fit_residual) else drf.fit_residual,
    }
    blob = array_to_bytes(drf.theta, labels=["channel", "bin", "coefficient"])
    with open(path, "wb") as fh:
        fh.write(json.dumps(meta, indent=1).encode("utf-8"))
        fh.write(_HEADER_SENTINEL)
        fh.write(blob)


def load_calibration(path) -> DrfPolynomial:
    """Read a calibration container; a corrupt or inconsistent one raises
    ToolkitError naming the file, an unreadable path ConfigError naming it."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as err:  # a directory, unreadable, ...
        raise ConfigError(f"calibration file {path}: {err.strerror}") from None
    cut = buf.find(_HEADER_SENTINEL)
    if cut < 0:
        raise ToolkitError(f"{path}: not a calibration container")
    try:
        meta = json.loads(buf[:cut].decode("utf-8"))
        if not isinstance(meta, dict) or meta.get("format") != "PCMD-CAL" or meta.get("version") != 1:
            raise ToolkitError("unsupported calibration format/version")
        theta, _ = array_from_bytes(buf[cut + len(_HEADER_SENTINEL):])
        order, n_mat, scale = meta["order"], meta["n_materials"], meta["basis"]["scale"]
        # bounded by the file's own sizes before the power below is formed
        if (type(order) is not int or type(n_mat) is not int or not 0 <= order < theta.shape[-1]
                or not 1 <= n_mat == len(scale)):
            raise ToolkitError(f"order {order!r} and n_materials {n_mat!r} do not fit the "
                               f"coefficients {theta.shape} and basis scale")
        header = (meta["n_channels"], meta["n_bins"], (order + 1) ** n_mat)
        if theta.shape != header:
            raise ToolkitError(f"coefficients are {theta.shape}, the header says {header}")
        domain = CalibrationDomain(lower=np.asarray(meta["domain"]["lower"]),
                                   upper=np.asarray(meta["domain"]["upper"]))
        edges, resid = meta.get("bin_edges"), meta.get("fit_residual")
        return DrfPolynomial(theta=theta, order=order, n_materials=n_mat, domain=domain,
                             basis_scale=np.asarray(scale),
                             bin_edges=None if edges is None else np.asarray(edges),
                             fit_residual=float("nan") if resid is None else float(resid))
    except ToolkitError as err:
        raise ToolkitError(f"{path}: {err}") from None
    except (ValueError, LookupError, TypeError) as err:  # bad UTF-8 or JSON, missing or mistyped keys
        raise ToolkitError(f"{path}: bad calibration header ({type(err).__name__}: {err})") from None
