"""Polychromatic source spectra and energy-bin structure.

The default spectrum is an analytic 120 kVp tungsten-like model: Kramers
bremsstrahlung filtered by aluminum, with K-emission lines near 59 and
67 keV, tabulated at 1 keV steps.  Support starts at 40 keV (heavy
pre-filtration plus detector threshold) and the default binning is 8
equal-width bins over the support -- both documented modeling choices.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ToolkitError
from .materials import load_material


@dataclass(frozen=True)
class SourceSpectrum:
    """Relative photon fluence per 1 keV energy sample, plus bin edges.

    Attributes:
        energies: Sample energies in keV, ascending.
        fluence: Relative fluence >= 0 at each sample; zero above `kvp`.
        kvp: Tube-voltage cutoff in keV.
        bin_edges: K+1 ascending bin edges (keV) within the spectrum support.
    """

    energies: np.ndarray = field(repr=False)
    fluence: np.ndarray = field(repr=False)
    kvp: float = 120.0
    bin_edges: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        w = np.asarray(self.fluence, dtype=float)
        edges = np.asarray(self.bin_edges, dtype=float)
        if e.ndim != 1 or e.shape != w.shape:
            raise ToolkitError("spectrum: energies/fluence must be 1-D and equal length")
        if not np.all(np.diff(e) > 0):
            raise ToolkitError("spectrum: energies must be strictly ascending")
        if np.any(w < 0):
            raise ToolkitError("spectrum: fluence must be nonnegative")
        if np.any(w[e > self.kvp] > 0):
            raise ToolkitError(f"spectrum: fluence must vanish above kvp={self.kvp:g} keV")
        if w.sum() <= 0:
            raise ToolkitError("spectrum: total fluence must be positive")
        if edges.ndim != 1 or edges.size < 3:
            raise ToolkitError("spectrum: need at least 2 bins (3 edges)")
        if not np.all(np.diff(edges) > 0):
            raise ToolkitError("spectrum: bin edges must be strictly ascending")
        if edges[0] < e[0] or edges[-1] > e[-1] + 1e-9:
            raise ToolkitError("spectrum: bin edges must lie within the spectrum support")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "fluence", w)
        object.__setattr__(self, "bin_edges", edges)
        for k, mask in enumerate(self.bin_masks()):
            if not np.any(mask & (w > 0)):
                raise ToolkitError(f"spectrum: bin {k} contains no fluence samples")

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) - 1

    def bin_masks(self):
        """Boolean sample masks per bin; last bin includes its upper edge."""
        e, edges = self.energies, self.bin_edges
        masks = []
        for k in range(len(edges) - 1):
            m = (e >= edges[k]) & (e < edges[k + 1])
            if k == len(edges) - 2:
                m |= np.isclose(e, edges[k + 1])
            masks.append(m)
        return masks

    def binned_fluence_matrix(self) -> np.ndarray:
        """(n_energies, K) matrix whose column k is fluence restricted to bin k."""
        cols = [np.where(m, self.fluence, 0.0) for m in self.bin_masks()]
        return np.stack(cols, axis=1)

    @property
    def total_fluence(self) -> float:
        return float(self.binned_fluence_matrix().sum())


def filtered_kramers(kvp: float = 120.0, e_min: float = 40.0, n_bins: int = 8,
                     filtration_cm_al: float = 0.3, k_lines: bool = True) -> SourceSpectrum:
    """Build the default analytic tungsten-like spectrum.

    Kramers continuum (kvp - E)/E attenuated by `filtration_cm_al` of
    aluminum, sampled at 1 keV from `e_min` to `kvp`, with optional
    K-emission lines (relative bumps at 59 and 67 keV).  Bins are
    `n_bins` equal-width intervals over [e_min, kvp].
    """
    if not (0 < e_min < kvp):
        raise ToolkitError("spectrum: require 0 < e_min < kvp")
    energies = np.arange(float(e_min), float(kvp) + 0.5, 1.0)
    w = (kvp - energies) / energies
    w *= np.exp(-load_material("aluminum").mu_at(energies) * filtration_cm_al)
    if k_lines:
        for line_kev, boost in ((59.0, 0.5), (67.0, 0.15)):
            idx = np.nonzero(np.isclose(energies, line_kev))[0]
            if idx.size:
                w[idx[0]] *= 1.0 + boost
    edges = np.linspace(float(e_min), float(kvp), n_bins + 1)
    return SourceSpectrum(energies=energies, fluence=w, kvp=float(kvp), bin_edges=edges)
