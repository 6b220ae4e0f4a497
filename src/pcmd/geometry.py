"""2D scan geometry, image grids and fan-to-parallel rebinning.

Conventions: world coordinates in cm, isocenter at the origin.  A view at
angle theta=0 sends rays along +y; the detector coordinate axis is then +x.
Sinogram rows are ordered row-major as (view, channel), M = n_views * n_channels.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ToolkitError

PARALLEL = "parallel"
FAN = "fan"


@dataclass(frozen=True)
class ScanGeometry:
    """Scan geometry: parallel or (flat-detector) fan beam.

    `spacing` is the detector sample spacing in cm (at the isocenter for
    parallel mode, at the detector for fan mode).  `sid`/`sdd` are the
    source-to-isocenter and source-to-detector distances (fan only).
    """

    mode: str
    n_views: int
    n_channels: int
    spacing: float
    angles: np.ndarray = field(repr=False, default=None)
    sid: float = None
    sdd: float = None

    def __post_init__(self):
        if self.mode not in (PARALLEL, FAN):
            raise ToolkitError(f"geometry mode must be 'parallel' or 'fan', got {self.mode!r}")
        if self.n_views < 1 or self.n_channels < 1:
            raise ToolkitError("geometry: n_views and n_channels must be positive")
        if not self.spacing > 0:
            raise ToolkitError("geometry: detector spacing must be positive")
        if self.angles is None:
            span = np.pi if self.mode == PARALLEL else 2.0 * np.pi
            angles = np.linspace(0.0, span, self.n_views, endpoint=False)
        else:
            angles = np.asarray(self.angles, dtype=float)
            if angles.shape != (self.n_views,):
                raise ToolkitError("geometry: angles must have length n_views")
        object.__setattr__(self, "angles", angles)
        if self.mode == FAN:
            if self.sid is None or self.sdd is None or self.sid <= 0 or self.sdd <= self.sid:
                raise ToolkitError("fan geometry requires 0 < sid < sdd")

    @property
    def n_rays(self) -> int:
        return self.n_views * self.n_channels

    def channel_offsets(self) -> np.ndarray:
        c = np.arange(self.n_channels, dtype=float)
        return (c - (self.n_channels - 1) / 2.0) * self.spacing

    def fan_angles(self) -> np.ndarray:
        """Per-channel ray angle relative to the central (iso) ray.

        Zero for parallel mode; atan(offset / sdd) for a flat fan detector.
        """
        if self.mode == PARALLEL:
            return np.zeros(self.n_channels)
        return np.arctan(self.channel_offsets() / self.sdd)

    def all_rays(self):
        """Rays for the full sinogram, row-major (view, channel): points (M,2), unit
        directions (M,2).  View theta has detector axis u = (cos, sin) and central
        ray direction v = (-sin, cos); a fan ray at angle gamma runs along
        cos(gamma) v + sin(gamma) u from the source at -sid v."""
        cos, sin = np.cos(self.angles), np.sin(self.angles)
        u = np.stack([cos, sin], axis=-1)[:, None, :]   # (V, 1, 2)
        v = np.stack([-sin, cos], axis=-1)[:, None, :]
        pts = np.empty((self.n_views, self.n_channels, 2))
        dirs = np.empty_like(pts)
        if self.mode == PARALLEL:
            np.multiply(self.channel_offsets()[:, None], u, out=pts)
            dirs[...] = v
        else:
            gamma = self.fan_angles()[:, None]
            np.multiply(np.sin(gamma), u, out=pts)  # pts holds the u term until the source
            np.multiply(np.cos(gamma), v, out=dirs)
            dirs += pts
            np.multiply(-self.sid, v, out=pts)
        return pts.reshape(-1, 2), dirs.reshape(-1, 2)


@dataclass(frozen=True)
class ImageGrid:
    """Square-pixel reconstruction grid, centered on the isocenter by default."""

    n_x: int
    n_y: int
    pixel_size: float
    origin: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not self.pixel_size > 0:
            raise ToolkitError("grid: pixel size must be positive")
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    def pixel_centers(self):
        h = self.pixel_size
        xs = self.origin[0] + (np.arange(self.n_x) - (self.n_x - 1) / 2.0) * h
        ys = self.origin[1] + (np.arange(self.n_y) - (self.n_y - 1) / 2.0) * h
        return xs, ys


def rebin_fan_to_parallel(sino: np.ndarray, geometry: ScanGeometry):
    """Resample a fan-beam sinogram onto an equivalent parallel geometry.

    A fan ray at view angle beta and fan angle gamma equals the parallel ray
    at angle theta = beta + gamma with offset s = sid * sin(gamma).  Values
    are interpolated bilinearly in (beta, gamma); the fan data must cover a
    full 2*pi rotation.  Returns (parallel_geometry, parallel_sinogram).
    """
    if geometry.mode != FAN:
        raise ToolkitError("rebin_fan_to_parallel expects fan geometry")
    v, c = geometry.n_views, geometry.n_channels
    if v < 2 or c < 2:
        raise ToolkitError("rebin_fan_to_parallel needs at least 2 views and 2 channels")
    sino = np.asarray(sino, dtype=float)
    columns = sino.shape[1:]
    sino = sino.reshape(v, c, -1)
    gamma = geometry.fan_angles()
    span = geometry.sid * math.sin(gamma[-1])
    par = ScanGeometry(mode=PARALLEL, n_views=v // 2, n_channels=c,
                       spacing=2.0 * span / (c - 1))
    thetas = par.angles
    s = par.channel_offsets()
    g_target = np.arcsin(np.clip(s / geometry.sid, -1.0, 1.0))
    beta_target = thetas[:, None] - g_target[None, :]
    beta_target = np.mod(beta_target, 2.0 * np.pi)

    d_beta = geometry.angles[1] - geometry.angles[0]
    bi = beta_target / d_beta
    b0 = np.floor(bi).astype(int) % v
    b1 = (b0 + 1) % v
    wb = bi - np.floor(bi)
    gi = np.interp(g_target, gamma, np.arange(c))
    g0 = np.clip(np.floor(gi).astype(int), 0, c - 2)
    wg = np.clip(gi - g0, 0.0, 1.0)

    # (views, channels) index tables gather (views, channels, columns) corners
    low = sino[b0, g0] * (1 - wg)[:, None] + sino[b0, g0 + 1] * wg[:, None]
    high = sino[b1, g0] * (1 - wg)[:, None] + sino[b1, g0 + 1] * wg[:, None]
    out = low * (1 - wb)[..., None] + high * wb[..., None]
    return par, out.reshape(par.n_rays, *columns)
