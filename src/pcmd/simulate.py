"""Multi-energy-bin count simulation.

Expected bin counts follow Beer-Lambert attenuation of the tabulated
spectrum through analytic disk phantoms; measured counts are independent
Poisson draws.  Each view of a scan (and each channel of the slab
calibration) draws from its own counter-based Philox stream keyed on
(seed, purpose, stream index), so results are reproducible under any
scheduling of the views, different seeds give independent noise, and scan
and calibration streams never coincide.
"""

import numpy as np

from .errors import ToolkitError
from .materials import mu_matrix

_ROW_CHUNK = 4096  # rows of the one (rows, n_energies) attenuation buffer


def expected_counts(spectrum, materials, pathlengths: np.ndarray,
                    air_counts_total: float) -> np.ndarray:
    """Expected photon counts per energy bin for given material pathlengths.

    lambda_k = A / F * sum_{E in bin k} fluence(E) * exp(-sum_l mu_l(E) p_l),
    with A = `air_counts_total`, the expected count of a ray through air
    summed over all bins, and F the spectrum's total fluence.
    `pathlengths` is (M, L); the result is (M, K).
    """
    p = np.asarray(pathlengths, dtype=float)
    if p.ndim != 2 or p.shape[1] != len(materials):
        raise ToolkitError(f"expected_counts: pathlengths must be (M, {len(materials)}) for "
                           f"{len(materials)} materials, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ToolkitError("expected_counts: pathlengths must be finite")
    mu = mu_matrix(materials, spectrum.energies)          # (L, nE)
    wbin = spectrum.binned_fluence_matrix()               # (nE, K)
    out = np.empty((p.shape[0], wbin.shape[1]))
    buf = np.empty((min(_ROW_CHUNK, p.shape[0]), mu.shape[1]))
    for lo in range(0, p.shape[0], _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, p.shape[0])
        att = np.matmul(p[lo:hi], mu, out=buf[:hi - lo])  # (chunk, nE)
        np.negative(att, out=att)
        np.exp(att, out=att)
        np.matmul(att, wbin, out=out[lo:hi])
    out *= air_counts_total / spectrum.total_fluence
    return out


PURPOSE = {"scan": 0, "calibration": 1}  # first word of every stream's spawn key


# The annotation is a string so that importing this module does not load
# numpy.random: only the stages that sample need it.
def stream(seed: int, purpose: str, index: int) -> "np.random.Generator":
    """The Philox generator for stream `index` of `purpose` under `seed`.

    The key is hashed from (seed, PURPOSE[purpose], index) by a SeedSequence,
    so distinct triples give distinct, independent streams (no OS entropy).
    """
    key = np.random.SeedSequence(seed, spawn_key=(PURPOSE[purpose], index))
    return np.random.Generator(np.random.Philox(key))


def sample_poisson(lam: np.ndarray, seed: int, purpose: str = "scan",
                   rows_per_stream: int = 1) -> np.ndarray:
    """Poisson counts, one counter-based stream per block of rows.

    Rows of `lam` are (M, K) rates; rows [s*B, (s+1)*B) with B =
    `rows_per_stream` are drawn in one call from `stream(seed, purpose, s)`.
    The same (lam, seed, purpose, B) always yields the same array, however
    the blocks are scheduled, and a block's draws depend on its rates only.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0) or not np.all(np.isfinite(lam)):
        raise ToolkitError("sample_poisson: rates must be finite and nonnegative")
    squeeze = lam.ndim == 1
    lam2 = np.atleast_2d(lam)
    out = np.empty(lam2.shape, dtype=np.int64)
    for s, lo in enumerate(range(0, lam2.shape[0], rows_per_stream)):
        block = slice(lo, lo + rows_per_stream)
        out[block] = stream(seed, purpose, s).poisson(lam2[block])
    return out[0] if squeeze else out


def scan_phantom(phantom, geometry, spectrum, materials, air_counts_total: float,
                 noise: bool = True, seed: int = 0):
    """Simulate a full scan: transmission (M, K), air totals (M,) and pathlengths (M, L).

    Rows are projections, view-major.  Transmission is counts over the
    per-projection air total, the zero-pathlength expectation; pathlengths
    through the phantom are exact analytic chord lengths.  Each view draws
    its noise from its own stream.  With `noise` off the counts equal their
    expectations.
    """
    pts, dirs = geometry.all_rays()
    p = phantom.pathlengths(pts, dirs)
    lam = expected_counts(spectrum, materials, p, air_counts_total)
    counts = (sample_poisson(lam, seed, "scan", rows_per_stream=geometry.n_channels)
              .astype(float) if noise else lam)
    air = np.full(geometry.n_rays, air_counts_total, dtype=float)
    return counts / air[:, None], air, p
