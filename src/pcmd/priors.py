"""Sinogram-domain prior agents.

A prior agent is any callable p -> p mapping a pathlength sinogram, a
(view, channel, material) array, to a better-behaved one of the same shape;
`apply_prior` calls it on a 3-D sinogram and checks the shape it returns.
Shipped agents: separable Gaussian filtering over the (view, channel) plane
per material, optionally in a decorrelated (rotated) material space, clipping
to the calibration domain, and left-to-right compositions.  Learned denoisers
enter the same way, on the sinogram as an image with one plane per material.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import gaussian_radius
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
        pairs = [(s, s) if np.isscalar(s) else tuple(s) for s in self.std]
        if any(len(pair) != 2 or not all(math.isfinite(x) and x > 0 for x in pair)
               for pair in pairs):
            raise ToolkitError("prior: stds must be finite and positive")
        # Each material's (along-view, along-channel) kernels, built once, not per application.
        object.__setattr__(self, "_kernels",
                           tuple((gaussian_kernel(sv), gaussian_kernel(sc)) for sv, sc in pairs))
        if self.rotation is not None:
            r = np.asarray(self.rotation, dtype=float)
            if r.ndim != 2 or r.shape[0] != r.shape[1]:
                raise ToolkitError("prior: rotation must be square")
            if not np.allclose(r.T @ r, np.eye(r.shape[0]), atol=1e-12):
                raise ToolkitError("prior: rotation must be orthonormal (R^T R = I to 1e-12)")
            object.__setattr__(self, "rotation", r)

    def __call__(self, p: np.ndarray) -> np.ndarray:
        if len(self.std) != p.shape[2]:
            raise ToolkitError("prior: need one std entry per material")
        if self.rotation is not None:
            p = p @ self.rotation.T
        out = np.empty_like(p)
        for l, (kv, kc) in enumerate(self._kernels):
            out[:, :, l] = _filter_axis(_filter_axis(p[:, :, l], kv, 0), kc, 1)
        if self.rotation is not None:
            out = out @ self.rotation
        return out


def clip_prior(domain):
    """Componentwise clamp of every pathlength vector to the calibration domain."""
    lo = np.asarray(domain.lower, dtype=float)
    up = np.asarray(domain.upper, dtype=float)
    if np.any(lo > up):
        raise ToolkitError("prior: clip lower bound exceeds upper bound")
    return lambda p: np.clip(p, lo, up)


def compose_priors(parts):
    """Apply `parts` left to right."""
    parts = tuple(parts)
    if not parts:
        raise ToolkitError("prior: composition must not be empty")

    def composed(p):
        for part in parts:
            p = apply_prior(part, p)
        return p
    return composed


def gaussian_kernel(std: float) -> np.ndarray:
    """Sampled Gaussian truncated at 4*std (`gaussian_radius`), normalized to unit sum."""
    radius = gaussian_radius(std)
    x = np.arange(-radius, radius + 1, dtype=float)
    with np.errstate(over="ignore"):  # a std far below one sample keeps only the centre tap
        k = np.exp(-0.5 * (x / std) ** 2)
    return k / k.sum()


def _filter_axis(plane: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Filter `plane` along `axis` by one windowed product, with a symmetric boundary."""
    if plane.shape[axis] < 2:
        return plane.copy()
    pad = [(kernel.size // 2,) * 2 if a == axis else (0, 0) for a in range(plane.ndim)]
    window = sliding_window_view(np.pad(plane, pad, mode="symmetric"), kernel.size, axis=axis)
    return window @ kernel


def apply_prior(prior, p: np.ndarray) -> np.ndarray:
    """Apply a prior agent to a (view, channel, material) pathlength sinogram."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 3:
        raise ToolkitError(f"prior: sinogram must be (view, channel, material), got {p.shape}")
    out = prior(p)
    if np.shape(out) != p.shape:
        raise ToolkitError(f"prior: returned shape {np.shape(out)} for sinogram shape {p.shape}")
    return out
