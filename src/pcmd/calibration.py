"""Polynomial detector response calibration.

The detector response function (DRF) maps basis-material pathlengths p to
per-bin values phi(p) = -log(lambda(p) / lambda_air_total).  It is measured
on a slab grid and fitted, per detector channel and bin, as a tensor-product
polynomial of order P in each material coordinate.  Coefficients are stored
against an explicit basis descriptor (monomials in pathlengths divided by a
per-material scale) so evaluation is unambiguous; the scaled basis keeps the
order-4 fit well-conditioned over the full 0-40 cm x 0-5 cm domain.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .arrayio import array_from_bytes, array_to_bytes
from .errors import NumericError, PhotonStarvationError, ToolkitError
from .simulate import expected_counts, sample_poisson


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
        axes = [np.linspace(lo, up, n) for lo, up, n in
                zip(self.lower, self.upper, points_per_axis)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


DEFAULT_DOMAIN = CalibrationDomain(lower=np.zeros(2), upper=np.array([40.0, 5.0]))


@dataclass(frozen=True)
class CalibrationDesign:
    """Slab pathlength grid: points (S, L) in cm, plus repeat count per point."""

    pathlength_points: np.ndarray = field(repr=False)
    repeats_per_point: int = 100

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.pathlength_points, dtype=float))
        if self.repeats_per_point < 1:
            raise ToolkitError("calibration design: repeats must be >= 1")
        object.__setattr__(self, "pathlength_points", pts)

    @property
    def n_points(self) -> int:
        return self.pathlength_points.shape[0]


def default_design(domain: CalibrationDomain = DEFAULT_DOMAIN, points_per_axis=(9, 9),
                   repeats: int = 100) -> CalibrationDesign:
    """Regular grid over the domain, including 0 and the per-material maxima."""
    return CalibrationDesign(pathlength_points=domain.grid(points_per_axis),
                             repeats_per_point=repeats)


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
        if not np.all(np.isfinite(theta)):
            raise ToolkitError("drf: coefficients must be finite")
        scale = np.asarray(self.basis_scale, dtype=float)
        if scale.shape != (self.n_materials,) or np.any(scale <= 0):
            raise ToolkitError("drf: basis scale must be positive per material")
        if self.domain.n_materials != self.n_materials:
            raise ToolkitError("drf: domain must bound every material")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "basis_scale", scale)
        # channels whose coefficients are all equal evaluate as one shared set
        object.__setattr__(self, "_coef", theta if np.any(theta != theta[0]) else theta[:1])
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

    def _tables(self, p: np.ndarray, grad: bool) -> np.ndarray:
        """Basis and, with `grad`, its p-derivatives at points p (..., L, N): (..., n_coef, R, N).

        Row 0 is the basis, row 1 + m its derivative in p_m (R = 1 + L with
        `grad`): tensor products over materials of the power tables
        s_l^0..s_l^P (s = p / basis_scale), with the derivative table
        e * s_m^(e-1) / basis_scale_m as factor m of row 1 + m.
        """
        s = p / self.basis_scale[:, None]
        e = np.arange(self.order + 1)[:, None]
        factors = (s[..., None, :] ** e)[..., None, :]            # (..., L, P+1, R, N)
        if grad:
            factors = np.repeat(factors, 1 + self.n_materials, axis=-2)
            for m in range(self.n_materials):
                table = factors[..., m, :, 1 + m, :]               # factor m of row 1 + m
                table[..., 1:, :] = table[..., :-1, :] * e[1:] / self.basis_scale[m]
                table[..., 0, :] = 0.0
        out = factors[..., 0, :, :, :]
        for l in range(1, self.n_materials):
            out = out[..., :, None, :, :] * factors[..., l, None, :, :, :]
            out = out.reshape(out.shape[:-4] + (-1,) + out.shape[-2:])
        return out

    def _apply(self, p: np.ndarray, coef: np.ndarray, grad: bool) -> np.ndarray:
        """Point groups p (C or 1, L, N) under coefficient sets (C, K, n_coef): (C, K, R, N)."""
        tab = self._tables(p, grad)                               # (C, n_coef, R, N)
        c, n, r, pts = tab.shape
        return np.matmul(coef, tab.reshape(c, n, r * pts)).reshape(-1, self.n_bins, r, pts)

    def _at_points(self, p, channel, grad: bool) -> np.ndarray:
        """Response at points (..., L) for `channel`, or every set if None: (C, ..., K, R)."""
        p = np.asarray(p, dtype=float)
        coef = self._coef if channel is None or len(self._coef) == 1 else self._coef[[channel]]
        pts = np.ascontiguousarray(p.reshape(-1, self.n_materials).T)
        out = self._apply(pts[None], coef, grad)                  # (C, K, R, N)
        return np.moveaxis(out, -1, 1).reshape(out.shape[:1] + p.shape[:-1] + out.shape[1:3])

    def eval(self, p, channel: int = 0) -> np.ndarray:
        """phi(p) for one detector channel; p is (..., L), result (..., K)."""
        return self._at_points(p, channel, False)[0, ..., 0]

    def grad(self, p, channel: int = 0) -> np.ndarray:
        """Exact Jacobian d phi / dp, shape (..., K, L)."""
        return self._at_points(p, channel, True)[0, ..., 1:]

    def eval_jac(self, p: np.ndarray, channels=None):
        """phi (M, K) and its Jacobian d phi / dp (M, K, L) for a stack of rows (M, L).

        Rows are row-major (view, channel) over all detector channels unless
        explicit `channels` give each row its own.  Both results are views
        with rows along the fastest axis, so per-row arithmetic on them runs
        over long contiguous vectors.
        """
        p = np.asarray(p, dtype=float)
        coef = self._coef
        if channels is not None and coef.shape[0] > 1:
            groups, coef = p[..., None], coef[np.asarray(channels, dtype=int)]  # (M, L, 1)
        else:
            if channels is None and p.shape[0] % self.n_channels:
                raise ToolkitError("drf: sinogram rows not divisible by channel count")
            groups = p.reshape(-1, coef.shape[0], p.shape[1]).transpose(1, 2, 0)  # (C, L, V)
        out = self._apply(np.ascontiguousarray(groups), coef, True)    # (C, K, R, V)
        out = np.ascontiguousarray(out.transpose(1, 2, 3, 0)).reshape(out.shape[1:3] + (-1,))
        return out[:, 0].T, out[:, 1:].transpose(2, 0, 1)

    def eval_sino(self, p: np.ndarray, channels=None) -> np.ndarray:
        """phi for a stack of projection rows (M, L) -> (M, K), rows as in `eval_jac`."""
        return self.eval_jac(p, channels)[0]

    def grad_sino(self, p: np.ndarray, channels=None) -> np.ndarray:
        """Jacobians for a stack of rows (M, L) -> (M, K, L)."""
        return self.eval_jac(p, channels)[1]


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
        design = probe._tables(points[c].T, False)[:, 0].T
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


@dataclass(frozen=True)
class SlabScans:
    """Averaged slab-scan measurements ready for measure_drf/fit_drf."""

    points: np.ndarray = field(repr=False)       # (C, S, L) effective pathlengths
    mean_counts: np.ndarray = field(repr=False)  # (C, S, K)
    air_total: float = 0.0


def slab_scan_protocol(spectrum, materials, design: CalibrationDesign, geometry,
                       air_counts_total: float = 1.0e6, noise: bool = True,
                       seed: int = 0) -> SlabScans:
    """Simulate the slab calibration protocol for every detector channel.

    Slabs sit perpendicular to the iso-ray, so the channel at fan angle gamma
    sees an effective pathlength p_s / cos(gamma).  Each design point is
    scanned `repeats_per_point` times and averaged; the average of R
    independent Poisson(lam) draws is sampled as Poisson(R * lam) / R, which
    has the identical distribution.  Each channel draws from its own
    calibration stream.
    """
    dose = air_counts_total / spectrum.total_fluence
    gamma = geometry.fan_angles()
    n_chan = geometry.n_channels
    pts = design.pathlength_points                       # (S, L)
    eff = pts[None, :, :] / np.cos(gamma)[:, None, None]  # (C, S, L)
    lam = expected_counts(spectrum, materials, eff.reshape(-1, pts.shape[1]), dose)
    lam = lam.reshape(n_chan, design.n_points, -1)
    if noise:
        rep = design.repeats_per_point
        total = sample_poisson((rep * lam).reshape(n_chan * design.n_points, -1), seed,
                               "calibration", rows_per_stream=design.n_points)
        mean = total.reshape(lam.shape).astype(float) / rep
    else:
        mean = lam
    return SlabScans(points=eff, mean_counts=mean, air_total=air_counts_total)


def calibrate_drf(spectrum, materials, design: CalibrationDesign, geometry,
                  order: int = 4, domain: CalibrationDomain = DEFAULT_DOMAIN,
                  air_counts_total: float = 1.0e6, noise: bool = True,
                  seed: int = 0) -> DrfPolynomial:
    """Full calibration: slab scans -> empirical DRF -> per-channel fit."""
    scans = slab_scan_protocol(spectrum, materials, design, geometry,
                               air_counts_total=air_counts_total, noise=noise, seed=seed)
    phi_hat = measure_drf(scans.mean_counts, scans.air_total)
    return fit_drf(scans.points, phi_hat, order=order, domain=domain,
                   bin_edges=spectrum.bin_edges)


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
    ToolkitError naming the file."""
    with open(path, "rb") as fh:
        buf = fh.read()
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
