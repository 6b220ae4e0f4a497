"""Analytic disk phantoms.

Scenes are unions of disks, each carrying volume fractions of the basis
materials.  Projections through disks have closed-form chord lengths, so
simulated pathlength sinograms are exact (no rasterization error).
Fractions may exceed 1 to model density scaling (water at density 1.01).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError


@dataclass(frozen=True)
class Disk:
    center: tuple          # (x, y) cm
    radius: float          # cm
    fractions: np.ndarray  # volume fraction per basis material

    def __post_init__(self):
        if not self.radius > 0:
            raise ToolkitError(f"disk radius must be positive, got {self.radius}")
        f = np.asarray(self.fractions, dtype=float)
        if not np.all(np.isfinite(f)):
            raise ToolkitError("disk fractions must be finite")
        object.__setattr__(self, "fractions", f)
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))


@dataclass(frozen=True)
class Phantom:
    disks: tuple
    n_materials: int = 2

    def __post_init__(self):
        disks = tuple(self.disks)
        for d in disks:
            if d.fractions.size != self.n_materials:
                raise ToolkitError("all disks must carry one fraction per basis material")
        object.__setattr__(self, "disks", disks)

    def pathlengths(self, points: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Exact per-ray basis-material pathlengths (cm).

        Rays are given as `points` (R, 2) on the ray and unit `directions`
        (R, 2).  Overlapping disks accumulate (fractions add).
        Returns an (R, L) array.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        out = np.zeros((points.shape[0], self.n_materials))
        for d in self.disks:
            rel = np.asarray(d.center) - points               # (R, 2)
            t_closest = np.einsum("rj,rj->r", rel, directions)
            miss2 = np.einsum("rj,rj->r", rel, rel) - t_closest**2
            chord = 2.0 * np.sqrt(np.maximum(d.radius**2 - miss2, 0.0))
            out += chord[:, None] * d.fractions[None, :]
        return out

