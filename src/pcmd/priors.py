"""Sinogram-domain prior agents.

A prior agent is any callable (p, sino_shape) -> p mapping a pathlength
sinogram (M, L), M = n_views * n_channels rows, to a better-behaved one;
`apply_prior` checks the rows and calls it.  Shipped agents: separable
Gaussian filtering over the (view, channel) plane per material, optionally
in a decorrelated (rotated) material space, clipping to the calibration
domain, and left-to-right compositions.  Learned denoisers enter the same way.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ToolkitError


def rotation_matrix(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class GaussianPrior:
    """Separable Gaussian filtering of each material plane over (view, channel).

    `std` holds one entry per material, each a scalar (isotropic) or an
    (along-views, along-channels) pair, in detector-sample units.  An
    orthonormal LxL `rotation` decorrelates the material vectors before the
    filtering and is undone after it.
    """

    std: tuple
    rotation: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "std", tuple(self.std))
        if not self.std:
            raise ToolkitError("prior: gaussian variants need per-material stds")
        for s in self.std:
            pair = (s, s) if np.isscalar(s) else tuple(s)
            if len(pair) != 2 or pair[0] <= 0 or pair[1] <= 0:
                raise ToolkitError("prior: stds must be positive")
        if self.rotation is not None:
            r = np.asarray(self.rotation, dtype=float)
            if r.ndim != 2 or r.shape[0] != r.shape[1]:
                raise ToolkitError("prior: rotation must be square")
            if not np.allclose(r.T @ r, np.eye(r.shape[0]), atol=1e-12):
                raise ToolkitError("prior: rotation must be orthonormal (R^T R = I to 1e-12)")
            object.__setattr__(self, "rotation", r)

    def __call__(self, p: np.ndarray, sino_shape) -> np.ndarray:
        cube = p.reshape(*sino_shape, -1)
        if len(self.std) != cube.shape[2]:
            raise ToolkitError("prior: need one std entry per material")
        if self.rotation is not None:
            cube = cube @ self.rotation.T
        out = np.empty_like(cube)
        for l, s in enumerate(self.std):
            sv, sc = _std_pair(s)
            out[:, :, l] = _filter_axis(_filter_axis(cube[:, :, l], sv, 0), sc, 1)
        if self.rotation is not None:
            out = out @ self.rotation
        return out.reshape(p.shape)


def gaussian_prior(std) -> GaussianPrior:
    return GaussianPrior(std)


def decorrelated_prior(std, rotation=None) -> GaussianPrior:
    """Rotated-material-space Gaussian prior; default rotation is 45 degrees,
    which decorrelates the two basis channels to first order."""
    if rotation is None:
        rotation = rotation_matrix(math.pi / 4.0)
    return GaussianPrior(std, rotation)


def clip_prior(domain):
    """Componentwise clamp of every row to the calibration domain."""
    lo = np.asarray(domain.lower, dtype=float)
    up = np.asarray(domain.upper, dtype=float)
    if np.any(lo > up):
        raise ToolkitError("prior: clip lower bound exceeds upper bound")
    return lambda p, sino_shape: np.clip(p, lo, up)


def compose_priors(parts):
    """Apply `parts` left to right."""
    parts = tuple(parts)
    if not parts:
        raise ToolkitError("prior: composition must not be empty")

    def composed(p, sino_shape):
        for part in parts:
            p = apply_prior(part, p, sino_shape)
        return p
    return composed


def gaussian_kernel(std: float) -> np.ndarray:
    """Sampled Gaussian truncated at 4*std, normalized to unit sum."""
    radius = int(math.ceil(4.0 * std))
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (x / std) ** 2)
    return k / k.sum()


def _filter_axis(plane: np.ndarray, std: float, axis: int) -> np.ndarray:
    k = gaussian_kernel(std)
    radius = (k.size - 1) // 2
    if plane.shape[axis] < 2:
        return plane.copy()
    moved = np.moveaxis(plane, axis, 0)
    pad = np.pad(moved, [(radius, radius)] + [(0, 0)] * (moved.ndim - 1), mode="symmetric")
    out = np.zeros_like(moved)
    n = moved.shape[0]
    for i, w in enumerate(k):
        out += w * pad[i:i + n]
    return np.moveaxis(out, 0, axis)


def _std_pair(s):
    return (float(s), float(s)) if np.isscalar(s) else (float(s[0]), float(s[1]))


def apply_prior(prior, p: np.ndarray, sino_shape) -> np.ndarray:
    """Apply a prior agent to a pathlength sinogram (M, L).

    `sino_shape` is (n_views, n_channels); M must equal their product.
    """
    p = np.asarray(p, dtype=float)
    v, c = sino_shape
    if p.shape[0] != v * c:
        raise ToolkitError(f"prior: {p.shape[0]} rows do not reshape to {v}x{c} sinogram")
    return prior(p, sino_shape)
