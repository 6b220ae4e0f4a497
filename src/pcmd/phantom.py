"""Analytic disk phantoms.

Scenes are unions of disks, each carrying volume fractions of the basis
materials.  Projections through disks have closed-form chord lengths, so
simulated pathlength sinograms are exact (no rasterization error).
Fractions may exceed 1 to model density scaling (water at density 1.01).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError
from .materials import equivalent_fractions, load_material


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

    def rasterize(self, grid) -> np.ndarray:
        """Pixel-center rasterization onto an ImageGrid, (n_x, n_y, L)."""
        xs, ys = grid.pixel_centers()
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        img = np.zeros((grid.n_x, grid.n_y, self.n_materials))
        for d in self.disks:
            inside = (gx - d.center[0]) ** 2 + (gy - d.center[1]) ** 2 <= d.radius**2
            img[inside] += d.fractions
        return img


def low_contrast_phantom(background_radius: float = 10.0,
                         insert_densities=(1.01, 1.005, 1.003),
                         insert_radii=(1.5, 1.2, 1.0),
                         insert_offset: float = 5.0) -> Phantom:
    """Water background disk with slightly-denser water inserts.

    Inserts are placed on a ring of radius `insert_offset`; each insert disk
    carries only the density EXCESS so that stacked disks sum to the intended
    density.
    """
    basis = [load_material(n) for n in ("polyethylene", "pvc")]
    water_frac = equivalent_fractions(load_material("water"), basis)
    disks = [Disk(center=(0.0, 0.0), radius=background_radius, fractions=water_frac)]
    n = len(insert_densities)
    for i, (dens, rad) in enumerate(zip(insert_densities, insert_radii)):
        ang = 2.0 * np.pi * i / n
        c = (insert_offset * np.cos(ang), insert_offset * np.sin(ang))
        disks.append(Disk(center=c, radius=rad, fractions=(dens - 1.0) * water_frac))
    return Phantom(disks=tuple(disks), n_materials=2)
