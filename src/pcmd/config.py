"""Pipeline configuration: one JSON file drives every stage.

The schema is documented in the README.  Validation happens before any
computation and reports path-qualified messages like
"phantom.disks[2].radius: must be > 0".  Builder functions turn validated
sections into toolkit objects.
"""

import json
import math
import os

import numpy as np

from .calibration import CalibrationDesign, CalibrationDomain, default_design
from .errors import ConfigError
from .geometry import ImageGrid, ScanGeometry
from .materials import list_materials, load_material
from .metrics import RoiCircle, RoiSpec
from .phantom import Disk, Phantom
from .priors import (clip_prior, compose_priors, decorrelated_prior, gaussian_prior,
                     rotation_matrix)
from .solver import MaceConfig, MleConfig
from .spectrum import filtered_kramers


def _get(section: dict, key: str, path: str, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}: required key is missing")
        return default
    return section[key]


def _number(value, path: str, minimum=None, maximum=None, integer: bool = False):
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    if ok and integer and int(value) != value:
        ok = False
    if not ok:
        raise ConfigError(f"{path}: expected a finite {'integer' if integer else 'number'}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return int(value) if integer else float(value)


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


SEED_MAX = 2**64 - 1  # seeds key a 64-bit Philox counter


def validate_seed(value, path: str) -> int:
    """An integer seed in [0, 2**64 - 1], or a ConfigError naming `path`."""
    return _number(value, path, minimum=0, maximum=SEED_MAX, integer=True)


def _point(value, path: str):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected [x, y]")
    return (_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


class PipelineConfig:
    """Validated pipeline configuration with builders for toolkit objects."""

    def __init__(self, raw: dict, base_dir: str = "."):
        if not isinstance(raw, dict):
            raise ConfigError("config root: expected a JSON object")
        self.raw = raw
        self.base_dir = base_dir
        self._validate()

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON ({err})") from None
        return cls(raw, base_dir=os.path.dirname(os.path.abspath(path)))

    # --- validation ---

    def _validate(self):
        raw = self.raw
        self.seed = validate_seed(_get(raw, "seed", "config", default=0), "seed")
        self.noise = _boolean(_get(raw, "noise", "config", default=True), "noise")
        out = _get(raw, "output_dir", "config", default="out")
        if not isinstance(out, str) or not out:
            raise ConfigError("output_dir: expected a non-empty string")
        self.output_dir = out

        names = _get(raw, "materials", "config", default=["polyethylene", "pvc"])
        if not isinstance(names, list) or len(names) < 2:
            raise ConfigError("materials: expected a list of at least two material names")
        known = set(list_materials())
        for i, n in enumerate(names):
            if n not in known:
                raise ConfigError(
                    f"materials[{i}]: unknown material {n!r}; available: {', '.join(sorted(known))}")
        self.material_names = names

        g = _get(raw, "geometry", "config", default={})
        self.geo_mode = _get(g, "mode", "geometry", default="parallel")
        if self.geo_mode not in ("parallel", "fan"):
            raise ConfigError(f"geometry.mode: expected 'parallel' or 'fan', got {self.geo_mode!r}")
        self.geo_n_views = _number(_get(g, "n_views", "geometry", default=360), "geometry.n_views",
                                   minimum=1, integer=True)
        self.geo_n_channels = _number(_get(g, "n_channels", "geometry", default=256),
                                      "geometry.n_channels", minimum=1, integer=True)
        self.geo_spacing = _number(_get(g, "spacing_cm", "geometry", default=0.1),
                                   "geometry.spacing_cm", minimum=1e-12)
        self.geo_sid = g.get("sid_cm")
        self.geo_sdd = g.get("sdd_cm")
        if self.geo_mode == "fan":
            self.geo_sid = _number(_get(g, "sid_cm", "geometry", required=True), "geometry.sid_cm",
                                   minimum=1e-9)
            self.geo_sdd = _number(_get(g, "sdd_cm", "geometry", required=True), "geometry.sdd_cm",
                                   minimum=1e-9)

        gr = _get(raw, "grid", "config", default={})
        self.grid_nx = _number(_get(gr, "n_x", "grid", default=256), "grid.n_x", minimum=1, integer=True)
        self.grid_ny = _number(_get(gr, "n_y", "grid", default=256), "grid.n_y", minimum=1, integer=True)
        self.grid_pixel = _number(_get(gr, "pixel_cm", "grid", default=0.1), "grid.pixel_cm",
                                  minimum=1e-12)

        sp = _get(raw, "spectrum", "config", default={})
        self.spec_kvp = _number(_get(sp, "kvp", "spectrum", default=120.0), "spectrum.kvp", minimum=1.0)
        self.spec_emin = _number(_get(sp, "e_min", "spectrum", default=40.0), "spectrum.e_min",
                                 minimum=20.0)
        if self.spec_emin >= self.spec_kvp:
            raise ConfigError("spectrum.e_min: must be below spectrum.kvp")
        self.spec_nbins = _number(_get(sp, "n_bins", "spectrum", default=8), "spectrum.n_bins",
                                  minimum=2, integer=True)
        self.spec_filtration = _number(_get(sp, "filtration_cm_al", "spectrum", default=0.3),
                                       "spectrum.filtration_cm_al", minimum=0.0)
        self.spec_klines = _boolean(_get(sp, "k_lines", "spectrum", default=True),
                                    "spectrum.k_lines")

        d = _get(raw, "dose", "config", default={})
        self.air_counts_total = _number(_get(d, "air_counts_total", "dose", default=2.0e4),
                                        "dose.air_counts_total", minimum=1e-9)

        ph = _get(raw, "phantom", "config", default={"disks": []})
        disks = _get(ph, "disks", "phantom", default=[])
        if not isinstance(disks, list):
            raise ConfigError("phantom.disks: expected a list")
        self.disk_specs = []
        for i, dk in enumerate(disks):
            path = f"phantom.disks[{i}]"
            if not isinstance(dk, dict):
                raise ConfigError(f"{path}: expected an object")
            center = _point(_get(dk, "center", path, required=True), f"{path}.center")
            radius = _number(_get(dk, "radius", path, required=True), f"{path}.radius", minimum=1e-12)
            kinds = [k for k in ("fractions", "water_density", "water_density_excess") if k in dk]
            if len(kinds) != 1:
                raise ConfigError(
                    f"{path}: give exactly one of fractions | water_density | water_density_excess")
            kind = kinds[0]
            if kind == "fractions":
                fr = dk["fractions"]
                if not isinstance(fr, list) or len(fr) != len(names):
                    raise ConfigError(f"{path}.fractions: expected {len(names)} numbers")
                val = [_number(x, f"{path}.fractions[{j}]") for j, x in enumerate(fr)]
            else:
                val = _number(dk[kind], f"{path}.{kind}")
            self.disk_specs.append((center, radius, kind, val))

        cal = _get(raw, "calibration", "config", default={})
        self.cal_order = _number(_get(cal, "order", "calibration", default=4), "calibration.order",
                                 minimum=0, integer=True)
        ppa = _get(cal, "points_per_axis", "calibration", default=[9, 9])
        if not isinstance(ppa, list) or len(ppa) != len(names):
            raise ConfigError(f"calibration.points_per_axis: expected {len(names)} counts")
        self.cal_points = [
            _number(x, f"calibration.points_per_axis[{j}]", minimum=1, integer=True)
            for j, x in enumerate(ppa)]
        dom = _get(cal, "domain", "calibration", default=[[0.0, 40.0], [0.0, 5.0]])
        if not isinstance(dom, list) or len(dom) != len(names):
            raise ConfigError(f"calibration.domain: expected {len(names)} [lower, upper] pairs")
        self.cal_domain = [(_number(b[0], f"calibration.domain[{j}][0]"),
                            _number(b[1], f"calibration.domain[{j}][1]"))
                           for j, b in enumerate(dom)]
        for j, (lo, up) in enumerate(self.cal_domain):
            if lo > up:
                raise ConfigError(f"calibration.domain[{j}]: lower bound exceeds upper bound")
        self.cal_repeats = _number(_get(cal, "repeats", "calibration", default=100),
                                   "calibration.repeats", minimum=1, integer=True)
        self.cal_air_counts = _number(_get(cal, "air_counts_total", "calibration", default=1.0e6),
                                      "calibration.air_counts_total", minimum=1e-9)
        self.cal_noise = _boolean(_get(cal, "noise", "calibration", default=True),
                                  "calibration.noise")
        self._cal_seed = (validate_seed(cal["seed"], "calibration.seed")
                          if "seed" in cal else None)

        ml = _get(raw, "mle", "config", default={})
        gp = _get(ml, "grid_points", "mle", default=[41, 41])
        if not isinstance(gp, list) or len(gp) != len(names):
            raise ConfigError(f"mle.grid_points: expected {len(names)} counts")
        self.mle_grid = tuple(_number(x, f"mle.grid_points[{j}]", minimum=1, integer=True)
                              for j, x in enumerate(gp))
        self.mle_iters = _number(_get(ml, "n_iter", "mle", default=100), "mle.n_iter",
                                 minimum=1, integer=True)
        self.mle_sigma = _number(_get(ml, "sigma", "mle", default=1.0e3), "mle.sigma", minimum=1e-12)

        mc = _get(raw, "mace", "config", default={})
        self.mace_rho = _number(_get(mc, "rho", "mace", default=0.8), "mace.rho")
        if not 0.0 < self.mace_rho < 1.0:
            raise ConfigError("mace.rho: must lie strictly inside (0, 1)")
        self.mace_iters = _number(_get(mc, "n_iter", "mace", default=20), "mace.n_iter",
                                  minimum=1, integer=True)
        self.mace_sigma = _number(_get(mc, "sigma", "mace", default=1.0), "mace.sigma", minimum=1e-12)
        self.mace_nsub = _number(_get(mc, "n_sub", "mace", default=1), "mace.n_sub",
                                 minimum=1, integer=True)
        self.mace_init_iters = _number(_get(mc, "mle_init_iters", "mace", default=15),
                                       "mace.mle_init_iters", minimum=1, integer=True)

        self.prior_spec_raw = _get(raw, "prior", "config", default={"kind": "gaussian",
                                                                    "std": [3.0, 3.0]})
        self._check_prior(self.prior_spec_raw, "prior")

        rc = _get(raw, "recon", "config", default={})
        self.mono_kev = _number(_get(rc, "mono_kev", "recon", default=70.0), "recon.mono_kev",
                                minimum=20.0, maximum=150.0)
        self.recon_hann = _boolean(_get(rc, "hann", "recon", default=False), "recon.hann")
        self.window_center = _number(_get(rc, "window_center", "recon", default=1000.0),
                                     "recon.window_center")
        self.window_width = _number(_get(rc, "window_width", "recon", default=20.0),
                                    "recon.window_width", minimum=1e-12)

        rois = _get(raw, "rois", "config", default=[])
        if not isinstance(rois, list):
            raise ConfigError("rois: expected a list")
        self.roi_specs = []
        labels = set()
        for i, r in enumerate(rois):
            path = f"rois[{i}]"
            label = _get(r, "label", path, required=True)
            if label in labels:
                raise ConfigError(f"{path}.label: duplicate label {label!r}")
            labels.add(label)
            self.roi_specs.append(RoiCircle(
                label=label,
                center=_point(_get(r, "center", path, required=True), f"{path}.center"),
                radius=_number(_get(r, "radius", path, required=True), f"{path}.radius",
                               minimum=1e-12)))
        cn = _get(raw, "cnr", "config", default=None)
        self.cnr_pair = None
        if cn is not None:
            tgt = _get(cn, "target", "cnr", required=True)
            bgd = _get(cn, "background", "cnr", required=True)
            for which, lab in (("target", tgt), ("background", bgd)):
                if lab not in labels:
                    raise ConfigError(f"cnr.{which}: roi label {lab!r} is not defined under rois")
            self.cnr_pair = (tgt, bgd)

    def _check_prior(self, spec, path):
        if not isinstance(spec, dict):
            raise ConfigError(f"{path}: expected an object")
        kind = _get(spec, "kind", path, required=True)
        if kind == "gaussian":
            std = _get(spec, "std", path, required=True)
            if not isinstance(std, list) or len(std) != len(self.material_names):
                raise ConfigError(f"{path}.std: expected {len(self.material_names)} entries")
            for j, s in enumerate(std):
                if isinstance(s, list):
                    if len(s) != 2:
                        raise ConfigError(f"{path}.std[{j}]: expected a number or [views, channels]")
                    for a, x in enumerate(s):
                        _number(x, f"{path}.std[{j}][{a}]", minimum=1e-12)
                else:
                    _number(s, f"{path}.std[{j}]", minimum=1e-12)
        elif kind == "decorrelated-gaussian":
            std = _get(spec, "std", path, required=True)
            if not isinstance(std, list) or len(std) != len(self.material_names):
                raise ConfigError(f"{path}.std: expected {len(self.material_names)} entries")
            for j, s in enumerate(std):
                _number(s, f"{path}.std[{j}]", minimum=1e-12)
            if "rotation_deg" in spec:
                _number(spec["rotation_deg"], f"{path}.rotation_deg")
        elif kind == "clip":
            pass
        elif kind == "compose":
            parts = _get(spec, "parts", path, required=True)
            if not isinstance(parts, list) or not parts:
                raise ConfigError(f"{path}.parts: expected a non-empty list")
            for j, part in enumerate(parts):
                self._check_prior(part, f"{path}.parts[{j}]")
        else:
            raise ConfigError(
                f"{path}.kind: expected gaussian | decorrelated-gaussian | clip | compose, got {kind!r}")

    # --- builders ---

    @property
    def cal_seed(self) -> int:
        """`calibration.seed`, else (seed + 1) mod 2^64, read at use so --seed reaches it."""
        return (self.seed + 1) % (SEED_MAX + 1) if self._cal_seed is None else self._cal_seed

    def materials(self):
        return [load_material(n) for n in self.material_names]

    def geometry(self) -> ScanGeometry:
        return ScanGeometry(mode=self.geo_mode, n_views=self.geo_n_views,
                            n_channels=self.geo_n_channels, spacing=self.geo_spacing,
                            sid=self.geo_sid, sdd=self.geo_sdd)

    def grid(self) -> ImageGrid:
        return ImageGrid(n_x=self.grid_nx, n_y=self.grid_ny, pixel_size=self.grid_pixel)

    def spectrum(self):
        return filtered_kramers(kvp=self.spec_kvp, e_min=self.spec_emin, n_bins=self.spec_nbins,
                                filtration_cm_al=self.spec_filtration, k_lines=self.spec_klines)

    def dose_scale(self, spectrum=None) -> float:
        spectrum = spectrum or self.spectrum()
        return self.air_counts_total / spectrum.total_fluence

    def phantom(self) -> Phantom:
        from .materials import equivalent_fractions
        basis = self.materials()
        water_frac = equivalent_fractions(load_material("water"), basis)
        disks = []
        for center, radius, kind, val in self.disk_specs:
            if kind == "fractions":
                frac = np.asarray(val, dtype=float)
            elif kind == "water_density":
                frac = val * water_frac
            else:
                frac = val * water_frac  # water_density_excess stacks on a background disk
            disks.append(Disk(center=center, radius=radius, fractions=frac))
        return Phantom(disks=tuple(disks), n_materials=len(basis))

    def calibration_domain(self) -> CalibrationDomain:
        lo = np.array([b[0] for b in self.cal_domain])
        up = np.array([b[1] for b in self.cal_domain])
        return CalibrationDomain(lower=lo, upper=up)

    def calibration_design(self) -> CalibrationDesign:
        return default_design(self.calibration_domain(), points_per_axis=self.cal_points,
                              repeats=self.cal_repeats)

    def prior(self, spec=None, domain=None):
        spec = spec if spec is not None else self.prior_spec_raw
        kind = spec["kind"]
        if kind == "gaussian":
            return gaussian_prior([tuple(s) if isinstance(s, list) else s for s in spec["std"]])
        if kind == "decorrelated-gaussian":
            rot = rotation_matrix(math.radians(spec.get("rotation_deg", 45.0)))
            return decorrelated_prior(spec["std"], rotation=rot)
        if kind == "clip":
            return clip_prior(domain if domain is not None else self.calibration_domain())
        return compose_priors([self.prior(p, domain) for p in spec["parts"]])

    def mle_config(self, n_iter=None) -> MleConfig:
        return MleConfig(grid_points=self.mle_grid,
                         n_iter=n_iter if n_iter is not None else self.mle_iters,
                         sigma=self.mle_sigma)

    def mace_config(self, domain=None) -> MaceConfig:
        return MaceConfig(prior=self.prior(domain=domain), rho=self.mace_rho,
                          n_iter=self.mace_iters, sigma=self.mace_sigma, n_sub=self.mace_nsub,
                          init=self.mle_config(n_iter=self.mace_init_iters))

    def rois(self) -> RoiSpec:
        return RoiSpec(circles=tuple(self.roi_specs))
