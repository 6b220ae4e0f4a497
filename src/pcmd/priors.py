"""Sinogram-domain prior agents.

A prior agent maps a pathlength sinogram to a better-behaved one.  Shipped
agents: separable Gaussian filtering over the (view, channel) plane per
material, the same filtering in a decorrelated (rotated) material space,
clipping to the calibration domain, and left-to-right compositions.  Any
callable with the same (p, sino_shape) -> p contract can be plugged in,
which is how learned denoisers would enter.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ToolkitError

GAUSSIAN = "gaussian"
DECORRELATED = "decorrelated-gaussian"
CLIP = "clip"
COMPOSE = "compose"


def rotation_matrix(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class PriorSpec:
    """Declarative description of a prior agent.

    gaussian: `std` holds one entry per material, each a scalar (isotropic)
    or an (along-views, along-channels) pair, in detector-sample units.
    decorrelated-gaussian: `rotation` (orthonormal LxL) decorrelates the
    material vectors before per-channel filtering with `std`.
    clip: componentwise clamp to `bounds` (lower, upper).
    compose: apply `parts` left to right.
    """

    kind: str
    std: tuple = None
    rotation: np.ndarray = field(repr=False, default=None)
    bounds: tuple = None
    parts: tuple = None

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, DECORRELATED, CLIP, COMPOSE):
            raise ToolkitError(f"prior: unknown kind {self.kind!r}")
        if self.kind in (GAUSSIAN, DECORRELATED):
            if not self.std:
                raise ToolkitError("prior: gaussian variants need per-material stds")
            for s in self.std:
                pair = (s, s) if np.isscalar(s) else tuple(s)
                if len(pair) != 2 or pair[0] <= 0 or pair[1] <= 0:
                    raise ToolkitError("prior: stds must be positive")
        if self.kind == DECORRELATED:
            r = np.asarray(self.rotation, dtype=float)
            if r.ndim != 2 or r.shape[0] != r.shape[1]:
                raise ToolkitError("prior: rotation must be square")
            if not np.allclose(r.T @ r, np.eye(r.shape[0]), atol=1e-12):
                raise ToolkitError("prior: rotation must be orthonormal (R^T R = I to 1e-12)")
            object.__setattr__(self, "rotation", r)
        if self.kind == CLIP:
            lo, up = self.bounds
            if np.any(np.asarray(lo) > np.asarray(up)):
                raise ToolkitError("prior: clip lower bound exceeds upper bound")
        if self.kind == COMPOSE and not self.parts:
            raise ToolkitError("prior: composition must not be empty")


def gaussian_prior(std) -> PriorSpec:
    return PriorSpec(kind=GAUSSIAN, std=tuple(std))


def decorrelated_prior(std, rotation=None) -> PriorSpec:
    """Rotated-material-space Gaussian prior; default rotation is 45 degrees,
    which decorrelates the two basis channels to first order."""
    if rotation is None:
        rotation = rotation_matrix(math.pi / 4.0)
    return PriorSpec(kind=DECORRELATED, std=tuple(std), rotation=rotation)


def clip_prior(domain) -> PriorSpec:
    return PriorSpec(kind=CLIP, bounds=(np.asarray(domain.lower, dtype=float),
                                        np.asarray(domain.upper, dtype=float)))


def compose_priors(parts) -> PriorSpec:
    return PriorSpec(kind=COMPOSE, parts=tuple(parts))


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


def _gaussian_plane(plane: np.ndarray, std_views: float, std_channels: float) -> np.ndarray:
    return _filter_axis(_filter_axis(plane, std_views, 0), std_channels, 1)


def _std_pair(s):
    return (float(s), float(s)) if np.isscalar(s) else (float(s[0]), float(s[1]))


def apply_prior(spec, p: np.ndarray, sino_shape) -> np.ndarray:
    """Apply a prior agent to a pathlength sinogram (M, L).

    `sino_shape` is (n_views, n_channels); M must equal their product.
    """
    if callable(spec):
        return spec(p, sino_shape)
    p = np.asarray(p, dtype=float)
    v, c = sino_shape
    if p.shape[0] != v * c:
        raise ToolkitError(f"prior: {p.shape[0]} rows do not reshape to {v}x{c} sinogram")
    if spec.kind == CLIP:
        lo, up = spec.bounds
        return np.clip(p, lo, up)
    if spec.kind == COMPOSE:
        out = p
        for part in spec.parts:
            out = apply_prior(part, out, sino_shape)
        return out
    cube = p.reshape(v, c, -1)
    if spec.kind == GAUSSIAN:
        if len(spec.std) != cube.shape[2]:
            raise ToolkitError("prior: need one std entry per material")
        out = np.empty_like(cube)
        for l, s in enumerate(spec.std):
            sv, sc = _std_pair(s)
            out[:, :, l] = _gaussian_plane(cube[:, :, l], sv, sc)
        return out.reshape(p.shape)
    # decorrelated-gaussian
    rot = cube @ spec.rotation.T
    for l, s in enumerate(spec.std):
        sv, sc = _std_pair(s)
        rot[:, :, l] = _gaussian_plane(rot[:, :, l], sv, sc)
    return (rot @ spec.rotation).reshape(p.shape)
