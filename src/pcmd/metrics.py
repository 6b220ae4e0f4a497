"""ROI statistics and contrast-to-noise ratio."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ToolkitError


@dataclass(frozen=True)
class RoiCircle:
    label: str
    center: tuple  # (x, y) cm
    radius: float  # cm

    def __post_init__(self):
        if not self.radius > 0:
            raise ToolkitError(f"roi {self.label!r}: radius must be positive")


@dataclass(frozen=True)
class RoiSpec:
    circles: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "circles", tuple(self.circles))

    def get(self, label: str) -> RoiCircle:
        for c in self.circles:
            if c.label == label:
                return c
        raise ToolkitError(f"roi {label!r} not defined")


def _mask(grid, circle: RoiCircle) -> np.ndarray:
    xs, ys = grid.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    m = (gx - circle.center[0]) ** 2 + (gy - circle.center[1]) ** 2 <= circle.radius**2
    if not np.any(m):
        raise ToolkitError(f"roi {circle.label!r}: no pixel centers fall inside the circle")
    return m


def roi_stats(image: np.ndarray, grid, roi: RoiSpec):
    """Sample mean and standard deviation (n-1 denominator) per circle.

    Membership is by pixel-center inclusion.  Returns {label: (mean, std)}.
    """
    image = np.asarray(image, dtype=float)
    out = {}
    for c in roi.circles:
        vals = image[_mask(grid, c)]
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out[c.label] = (float(vals.mean()), std)
    return out


def cnr(image: np.ndarray, grid, target: RoiCircle, background: RoiCircle) -> float:
    """|mean(target) - mean(background)| / std(background)."""
    image = np.asarray(image, dtype=float)
    tvals = image[_mask(grid, target)]
    bvals = image[_mask(grid, background)]
    bstd = float(bvals.std(ddof=1)) if bvals.size > 1 else 0.0
    if bstd == 0.0:
        raise ToolkitError("cnr: background std is zero (degenerate noiseless ROI)")
    return abs(float(tvals.mean()) - float(bvals.mean())) / bstd

