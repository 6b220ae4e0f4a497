"""Basis-material attenuation tables.

Linear attenuation coefficients are loaded from bundled plain-text tables
(1 keV steps over 20-150 keV, generated by ``tools/make_attenuation_tables.py``)
and treated as inputs: any table satisfying the same schema can be swapped in.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ToolkitError

DATA_DIR = os.path.join(os.path.dirname(__file__), "data", "attenuation")

ENERGY_MIN_KEV = 20.0
ENERGY_MAX_KEV = 150.0


@dataclass(frozen=True)
class MaterialAttenuation:
    """Energy-dependent linear attenuation for one basis material.

    Attributes:
        name: Material key (e.g. "polyethylene").
        energies: Tabulated energies in keV, 1 keV steps over [20, 150].
        mu: Linear attenuation coefficients in 1/cm, strictly positive.
    """

    name: str
    energies: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        m = np.asarray(self.mu, dtype=float)
        if e.ndim != 1 or e.shape != m.shape:
            raise ToolkitError(f"material {self.name!r}: energy/mu tables must be 1-D and equal length")
        steps = np.diff(e)
        if not np.all(steps > 0):
            raise ToolkitError(f"material {self.name!r}: energy table must be strictly increasing")
        if not np.allclose(steps, 1.0):
            raise ToolkitError(f"material {self.name!r}: energy table must have 1 keV steps with no gaps")
        if e[0] > ENERGY_MIN_KEV or e[-1] < ENERGY_MAX_KEV:
            raise ToolkitError(
                f"material {self.name!r}: table must cover [{ENERGY_MIN_KEV}, {ENERGY_MAX_KEV}] keV"
            )
        if not np.all(m > 0):
            raise ToolkitError(f"material {self.name!r}: attenuation values must be positive")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "mu", m)

    def mu_at(self, energy_kev) -> np.ndarray:
        """Linear attenuation at the given energies (keV), linearly interpolated."""
        energy_kev = np.asarray(energy_kev, dtype=float)
        if np.any(energy_kev < self.energies[0]) or np.any(energy_kev > self.energies[-1]):
            raise ToolkitError(
                f"material {self.name!r}: energy outside tabulated range "
                f"[{self.energies[0]:g}, {self.energies[-1]:g}] keV"
            )
        return np.interp(energy_kev, self.energies, self.mu)


def bin_edges(kvp: float, e_min: float, n_bins: int) -> np.ndarray:
    """The n_bins + 1 edges (keV) of equal-width energy bins over [e_min, kvp];
    defined here so that `pcmd decompose` checks them without loading `spectrum`."""
    return np.linspace(float(e_min), float(kvp), n_bins + 1)


_CACHE: dict = {}


def load_material(name: str) -> MaterialAttenuation:
    """Load a bundled attenuation table by material name."""
    key = name.lower()
    if key in _CACHE:
        return _CACHE[key]
    path = os.path.join(DATA_DIR, f"{key}.txt")
    if not os.path.exists(path):
        raise ToolkitError(f"unknown material {name!r}; available: {', '.join(list_materials())}")
    rows = np.loadtxt(path)
    mat = MaterialAttenuation(name=key, energies=rows[:, 0], mu=rows[:, 1])
    _CACHE[key] = mat
    return mat


def list_materials() -> list:
    return sorted(os.path.splitext(f)[0] for f in os.listdir(DATA_DIR) if f.endswith(".txt"))


def mu_matrix(materials, energies_kev) -> np.ndarray:
    """Stack attenuation curves into an (L, n_energies) matrix."""
    return np.stack([m.mu_at(energies_kev) for m in materials], axis=0)


def equivalent_fractions(target: MaterialAttenuation, basis, energies_kev=None) -> np.ndarray:
    """Volume fractions of `basis` materials that best match `target` attenuation.

    Least-squares match of the attenuation curve over `energies_kev`
    (default 40-120 keV). Used e.g. to express water as a polyethylene/PVC
    mixture when building phantoms.
    """
    if energies_kev is None:
        energies_kev = np.arange(40.0, 121.0)
    a = mu_matrix(basis, energies_kev).T
    b = target.mu_at(energies_kev)
    frac, *_ = np.linalg.lstsq(a, b, rcond=None)
    return frac
