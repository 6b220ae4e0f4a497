"""Pipeline configuration: one JSON file drives every stage.

The schema is documented in the README and declared once below, in
`SCHEMA`: each key with its type, bounds and default.  One recursive walk
checks every object, list, number, boolean and string strictly, rejects
unknown keys and fills in defaults; a short list of cross-key rules
follows.  Validation happens before any computation and reports
path-qualified messages like "phantom.disks[2].radius: must be > 0".
Builder methods turn the validated values into toolkit objects.

Validation needs only `errors`, `geometry` and `materials`.  Each builder
imports its product's module when called, so a process compiles only the
modules its command uses: `import pcmd.config` loads no solver, calibration,
simulation, phantom, spectrum, prior or metrics code.
"""

import json
import math
import operator
import os

import numpy as np

from .errors import ConfigError
from .geometry import ImageGrid, ScanGeometry
from .materials import equivalent_fractions, list_materials, load_material

REQUIRED = object()  # default of a key that must be given
SEED_MAX = 2**64 - 1  # simulate hashes (seed, purpose, stream index) into each Philox key
SIZE_MAX = 2**16  # views, channels, pixels or points along one axis: far above any shipped value
# Derived sizes are bounded by the memory their largest array asks for: 128 MiB.
# So one float64 image plane may hold 4096 x 4096 pixels (the shipped grid is
# 256 x 256), and each other derived array 2^24 floats: the MLE search's table
# (shipped: 41 x 41 x 25), a sinogram (360 x 256 x 8) and the slab scan
# (256 x 81 x 8).
PLANE_BYTES_MAX = 2**27
PIXELS_MAX = PLANE_BYTES_MAX // 8
_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt),
           "le": ("<=", operator.le), "lt": ("<", operator.lt)}

# A schema is an object, {key: (schema, default)}, or a leaf: a function
# (value, path) -> checked value that raises ConfigError naming `path`.


def _check(schema, value, path: str):
    """`value` checked against `schema`, with defaults filled in.  An object
    rejects unknown keys; a missing key takes its default (checked like a given
    value), stays None when the default is None, or is an error when REQUIRED."""
    if not isinstance(schema, dict):
        return schema(value, path)
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config root'}: expected an object, got {value!r}")
    join = (lambda key: f"{path}.{key}") if path else (lambda key: key)
    for key in value:
        if key not in schema:
            raise ConfigError(f"{join(key)}: unknown key")
    out = {}
    for key, (field, default) in schema.items():
        if key in value:
            out[key] = _check(field, value[key], join(key))
        elif default is REQUIRED:
            raise ConfigError(f"{join(key)}: required key is missing")
        else:
            out[key] = None if default is None else _check(field, default, join(key))
    return out


def number(integer: bool = False, **bounds):
    """A finite JSON number within `bounds` (ge / gt / le / lt); `integer`
    admits whole numbers only and yields an int, else a float."""
    def check(value, path):
        try:
            ok = (not isinstance(value, bool) and math.isfinite(value)
                  and (not integer or float(value).is_integer()))
        except (TypeError, OverflowError):  # not a number, or an int beyond float range
            ok = False
        if not ok:
            raise ConfigError(f"{path}: expected a finite {'integer' if integer else 'number'}, "
                              f"got {value!r}")
        value = int(value) if integer else float(value)
        for name, bound in bounds.items():
            symbol, holds = _BOUNDS[name]
            if not holds(value, bound):
                raise ConfigError(f"{path}: must be {symbol} {bound}, got {value}")
        return value
    return check


def boolean(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def string(options=None):
    """A non-empty string; with `options` (a list, or a function giving one), one of those."""
    def check(value, path):
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
        allowed = options() if callable(options) else options
        if allowed is not None and value not in allowed:
            raise ConfigError(f"{path}: expected one of {' | '.join(allowed)}, got {value!r}")
        return value
    return check


def list_of(item, min_len: int = 0, length: int = None):
    def check(value, path):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if len(value) < min_len or length not in (None, len(value)):
            want = f"at least {min_len}" if length is None else length
            raise ConfigError(f"{path}: expected a list of {want} entries, got {value!r}")
        return [_check(item, x, f"{path}[{i}]") for i, x in enumerate(value)]
    return check


NUMBER = number()
POSITIVE = number(gt=0)
COUNT = number(integer=True, ge=1)
SIZE = number(integer=True, ge=1, le=SIZE_MAX)
SEED = number(integer=True, ge=0, le=SEED_MAX)
KEV = number(integer=True, ge=20, le=150)  # whole keV inside the attenuation tables
# A radius or coordinate in cm: far above any scanner, and its square stays a finite float.
RADIUS = number(gt=0, le=1e6)
POINT = list_of(number(ge=-1e6, le=1e6), length=2)
# A Gaussian prior's std in detector samples, at most the longest axis a config
# allows: its kernel spans 8 stds, so a larger one only asks for a kernel too
# large to build.
STD = number(gt=0, le=SIZE_MAX)
STD_PAIR = list_of(STD, length=2)
POISSON_RATE_MAX = 1e18  # numpy's Poisson sampler refuses rates near 2^63
AIR_COUNTS = number(gt=0, le=POISSON_RATE_MAX)


def gaussian_radius(std: float) -> int:
    """Half-width in samples of a Gaussian kernel of `std` samples, truncated
    at 4 stds: the padding the prior adds on each side of an axis."""
    return math.ceil(4.0 * std)


def _std(value, path):
    """A Gaussian prior's std for one material: isotropic, or [along-views, along-channels]."""
    return (STD_PAIR if isinstance(value, list) else STD)(value, path)


def _prior(value, path):
    """A prior: an object whose `kind` picks its keys; compose recurses into its parts."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    kind = value.get("kind")
    if not isinstance(kind, str) or kind not in PRIORS:
        raise ConfigError(f"{path}.kind: expected one of {' | '.join(PRIORS)}, got {kind!r}")
    rest = {key: x for key, x in value.items() if key != "kind"}
    return {"kind": kind, **_check(PRIORS[kind], rest, path)}


PRIORS = {
    "gaussian": {"std": (list_of(_std), REQUIRED)},
    "decorrelated-gaussian": {"std": (list_of(_std), REQUIRED), "rotation_deg": (NUMBER, 45.0)},
    "clip": {},
    "compose": {"parts": (list_of(_prior, min_len=1), REQUIRED)},
}
COMPOSITIONS = ("fractions", "water_density", "water_density_excess")

SCHEMA = {
    "output_dir": (string(), "out"),
    "seed": (SEED, 0),
    "noise": (boolean, True),
    "materials": (list_of(string(list_materials), min_len=2), ["polyethylene", "pvc"]),
    "geometry": ({
        "mode": (string(("parallel", "fan")), "parallel"),
        "n_views": (SIZE, 360),
        "n_channels": (SIZE, 256),
        "spacing_cm": (POSITIVE, 0.1),
        "sid_cm": (POSITIVE, None),  # fan only
        "sdd_cm": (POSITIVE, None),
    }, {}),
    "grid": ({"n_x": (SIZE, 256), "n_y": (SIZE, 256), "pixel_cm": (POSITIVE, 0.1)}, {}),
    "spectrum": ({
        "kvp": (KEV, 120),
        "e_min": (KEV, 40),
        "n_bins": (number(integer=True, ge=2), 8),
        "filtration_cm_al": (number(ge=0, le=10), 0.3),  # more would underflow the fluence
        "k_lines": (boolean, True),
    }, {}),
    "dose": ({"air_counts_total": (AIR_COUNTS, 2.0e4)}, {}),
    "phantom": ({"disks": (list_of({
        "center": (POINT, REQUIRED),
        "radius": (RADIUS, REQUIRED),
        "fractions": (list_of(NUMBER), None),
        "water_density": (NUMBER, None),
        "water_density_excess": (NUMBER, None),
    }), [])}, {}),
    "calibration": ({
        "order": (number(integer=True, ge=0), 4),
        "points_per_axis": (list_of(SIZE), [9, 9]),
        "domain": (list_of(POINT), [[0.0, 40.0], [0.0, 5.0]]),
        "repeats": (COUNT, 100),
        "air_counts_total": (AIR_COUNTS, 1.0e6),
        "noise": (boolean, True),
        "seed": (SEED, None),  # default: (seed + 1) mod 2^64
    }, {}),
    "mle": ({"grid_points": (list_of(SIZE), [41, 41]), "n_iter": (COUNT, 100),
             "sigma": (POSITIVE, 1.0e3)}, {}),
    "mace": ({
        "rho": (number(gt=0, lt=1), 0.8),
        "n_iter": (COUNT, 20),
        "sigma": (POSITIVE, 1.0),
        "n_sub": (COUNT, 1),
        "mle_init_iters": (COUNT, 15),
    }, {}),
    "prior": (_prior, {"kind": "gaussian", "std": [3.0, 3.0]}),
    "recon": ({
        "mono_kev": (number(ge=20, le=150), 70.0),
        "hann": (boolean, False),
        "window_center": (NUMBER, 1000.0),
        "window_width": (POSITIVE, 20.0),
    }, {}),
    "rois": (list_of({"label": (string(), REQUIRED), "center": (POINT, REQUIRED),
                      "radius": (RADIUS, REQUIRED)}), []),
    "cnr": ({"target": (string(), REQUIRED), "background": (string(), REQUIRED)}, None),
}


def _check_rules(v):
    """Rules that tie keys together; the schema walk has checked each key alone."""
    geo, spec, cal = v["geometry"], v["spectrum"], v["calibration"]
    if geo["mode"] == "fan":
        for key in ("sid_cm", "sdd_cm"):
            if geo[key] is None:
                raise ConfigError(f"geometry.{key}: required key is missing for fan geometry")
        if not geo["sdd_cm"] > geo["sid_cm"]:
            raise ConfigError("geometry.sdd_cm: must be greater than geometry.sid_cm")
        if geo["n_channels"] < 2:  # rebinning interpolates between neighbours
            raise ConfigError(f"geometry.n_channels: must be at least 2 for fan geometry, "
                              f"got {geo['n_channels']}")
    views = 4 if geo["mode"] == "fan" else 2  # FBP needs 2 parallel views; rebinning halves a fan
    if geo["n_views"] < views:
        raise ConfigError(f"geometry.n_views: must be at least {views} for {geo['mode']} geometry, "
                          f"got {geo['n_views']}")
    if spec["e_min"] >= spec["kvp"]:
        raise ConfigError("spectrum.e_min: must be below spectrum.kvp")
    if spec["n_bins"] > spec["kvp"] - spec["e_min"]:
        raise ConfigError("spectrum.n_bins: must be <= spectrum.kvp - spectrum.e_min "
                          f"(bins at least 1 keV wide), got {spec['n_bins']}")

    n = len(v["materials"])
    for i, name in enumerate(v["materials"]):
        if name in v["materials"][:i]:  # one image file per material name
            raise ConfigError(f"materials[{i}]: duplicate material {name!r}")
    per_material = {"calibration.points_per_axis": cal["points_per_axis"],
                    "calibration.domain": cal["domain"],
                    "mle.grid_points": v["mle"]["grid_points"]}
    for i, disk in enumerate(v["phantom"]["disks"]):
        if sum(disk[k] is not None for k in COMPOSITIONS) != 1:
            raise ConfigError(f"phantom.disks[{i}]: give exactly one of {' | '.join(COMPOSITIONS)}")
        if disk["fractions"] is not None:
            per_material[f"phantom.disks[{i}].fractions"] = disk["fractions"]
    priors = [("prior", v["prior"])]
    for path, prior in priors:  # a composition's parts join the walk
        if prior["kind"] == "compose":
            priors += [(f"{path}.parts[{j}]", part) for j, part in enumerate(prior["parts"])]
        if prior["kind"] == "decorrelated-gaussian" and n != 2:
            raise ConfigError(f"{path}.kind: decorrelated-gaussian rotates exactly two materials")
        if "std" in prior:
            per_material[f"{path}.std"] = prior["std"]
    for path, entries in per_material.items():
        if len(entries) != n:
            raise ConfigError(f"{path}: expected {n} entries, one per material")
    if cal["noise"] and cal["repeats"] * cal["air_counts_total"] > POISSON_RATE_MAX:
        # the slab protocol samples the sum of all repeats as one Poisson draw
        raise ConfigError(f"calibration.repeats: times calibration.air_counts_total must be at "
                          f"most {POISSON_RATE_MAX:g} with calibration noise on, got "
                          f"{cal['repeats']} x {cal['air_counts_total']:g}")
    for j, (lo, up) in enumerate(cal["domain"]):
        if lo > up or (lo == up and cal["order"] > 0):  # a polynomial needs a spread to fit
            raise ConfigError(f"calibration.domain[{j}]: lower bound must be below upper bound, "
                              f"got [{lo}, {up}]")
    for j, n_points in enumerate(cal["points_per_axis"]):
        if n_points <= cal["order"]:  # fewer leave the tensor-product fit rank-deficient
            raise ConfigError(f"calibration.points_per_axis[{j}]: must be at least "
                              f"calibration.order + 1 = {cal['order'] + 1}, got {n_points}")
    # Each derived size is the floats of the largest array it sets: (the key its
    # message starts with, the keys multiplied with it, the array, the floats).
    # A search-grid point takes (order + 1)^L floats in the basis table
    # calibration._basis builds for eval_sets and bins + 1 in the loss table
    # _grid_search holds.  Every other (order + 1)^L-term basis spans a detector
    # block's 2^14 rows (detector._BLOCK_ROWS; the slab-scan bound holds a
    # longer view, as it has at least (order + 1)^L slabs per channel),
    # fit_drf's slab points or, in _lift, (1 + L)(order + 1)^L derivative terms.
    # A Gaussian prior pads each axis of a plane by gaussian_radius(std) per side.
    views, channels, bins = geo["n_views"], geo["n_channels"], spec["n_bins"]
    n_coef = (cal["order"] + 1) ** n
    derived = [
        ("geometry.n_views", "times geometry.n_channels times max(spectrum.n_bins, the number "
         "of materials)", "transmission or pathlength sinogram", views * channels * max(bins, n)),
        ("calibration.points_per_axis", "product times geometry.n_channels times spectrum.n_bins",
         "slab scan", math.prod(cal["points_per_axis"]) * channels * bins),
        ("mle.grid_points", f"product times max((calibration.order + 1)^{n}, spectrum.n_bins + 1)",
         "search table", math.prod(v["mle"]["grid_points"]) * max(n_coef, bins + 1)),
        ("calibration.order", f"(calibration.order + 1)^{n} times max(2^14, the product of "
         f"calibration.points_per_axis, {1 + n} (calibration.order + 1)^{n})", "basis table",
         n_coef * max(2**14, math.prod(cal["points_per_axis"]), (1 + n) * n_coef)),
    ]
    for path, prior in priors:
        for l, std in enumerate(prior.get("std", ())):
            along_views, along_channels = std if isinstance(std, list) else (std, std)
            derived += [
                (f"{path}.std[{l}]", "(geometry.n_views + 2 ceil(4 std)) times geometry.n_channels",
                 "padded prior plane", (views + 2 * gaussian_radius(along_views)) * channels),
                (f"{path}.std[{l}]", "(geometry.n_channels + 2 ceil(4 std)) times geometry.n_views",
                 "padded prior plane", (channels + 2 * gaussian_radius(along_channels)) * views)]
    for key, times, array, floats in derived:
        if floats > PLANE_BYTES_MAX // 8:
            raise ConfigError(f"{key}: {times} must be at most {PLANE_BYTES_MAX // 8} floats (a "
                              f"{PLANE_BYTES_MAX >> 20} MiB {array}), got {floats}")

    g = v["grid"]
    if g["n_x"] * g["n_y"] > PIXELS_MAX:
        raise ConfigError(f"grid.n_x: times grid.n_y must be at most {PIXELS_MAX} pixels (a "
                          f"{PLANE_BYTES_MAX >> 20} MiB float64 plane), got {g['n_x']} x {g['n_y']}")
    labels = [r["label"] for r in v["rois"]]
    xs, ys = ImageGrid(n_x=g["n_x"], n_y=g["n_y"], pixel_size=g["pixel_cm"]).pixel_centers()
    for i, roi in enumerate(v["rois"]):
        if roi["label"] in labels[:i]:
            raise ConfigError(f"rois[{i}].label: duplicate label {roi['label']!r}")
        (cx, cy), r = roi["center"], roi["radius"]
        # the row of centres nearest cy decides each column, as in metrics' mask
        if not np.any((xs - cx) ** 2 + np.min((ys - cy) ** 2) <= r**2):
            raise ConfigError(f"rois[{i}]: no pixel centre of the grid ({g['n_x']} x {g['n_y']} "
                              f"pixels of {g['pixel_cm']} cm) falls inside the circle")
    if v["cnr"] is not None:
        for which in ("target", "background"):
            if v["cnr"][which] not in labels:
                raise ConfigError(f"cnr.{which}: roi label {v['cnr'][which]!r} "
                                  "is not defined under rois")


class PipelineConfig:
    """Validated pipeline configuration with builders for toolkit objects.

    `raw` is the parsed JSON, untouched (stage manifests hash it); `values`
    is the validated copy with every default filled in.
    """

    def __init__(self, raw: dict, base_dir: str = "."):
        self.raw = raw
        self.base_dir = base_dir
        self.values = v = _check(SCHEMA, raw, "")
        _check_rules(v)
        self.seed = v["seed"]
        self.noise = v["noise"]
        self.output_dir = v["output_dir"]
        self.material_names = v["materials"]
        self.geo_n_views = v["geometry"]["n_views"]
        self.geo_n_channels = v["geometry"]["n_channels"]
        self.cnr_pair = None if v["cnr"] is None else (v["cnr"]["target"], v["cnr"]["background"])

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as err:  # a directory, unreadable, ...
            raise ConfigError(f"config file {path}: {err.strerror}") from None
        except ValueError as err:  # not UTF-8, or not JSON
            raise ConfigError(f"{path}: invalid JSON ({err})") from None
        return cls(raw, base_dir=os.path.dirname(os.path.abspath(path)))

    # --- builders ---

    @property
    def cal_seed(self) -> int:
        """`calibration.seed`, else (seed + 1) mod 2^64, read at use so --seed reaches it."""
        seed = self.values["calibration"]["seed"]
        return (self.seed + 1) % (SEED_MAX + 1) if seed is None else seed

    def materials(self):
        return [load_material(n) for n in self.material_names]

    def geometry(self) -> ScanGeometry:
        g = self.values["geometry"]
        return ScanGeometry(mode=g["mode"], n_views=g["n_views"], n_channels=g["n_channels"],
                            spacing=g["spacing_cm"], sid=g["sid_cm"], sdd=g["sdd_cm"])

    def grid(self) -> ImageGrid:
        g = self.values["grid"]
        return ImageGrid(n_x=g["n_x"], n_y=g["n_y"], pixel_size=g["pixel_cm"])

    def spectrum(self) -> "SourceSpectrum":
        from .spectrum import filtered_kramers

        return filtered_kramers(**self.values["spectrum"])

    def phantom(self) -> "Phantom":
        from .phantom import Disk, Phantom

        basis = self.materials()
        water_frac = equivalent_fractions(load_material("water"), basis)
        disks = []
        for d in self.values["phantom"]["disks"]:
            if d["fractions"] is not None:
                frac = np.asarray(d["fractions"], dtype=float)
            else:  # water_density, or water_density_excess stacked on a background disk
                water = d["water_density"]
                frac = (d["water_density_excess"] if water is None else water) * water_frac
            disks.append(Disk(center=d["center"], radius=d["radius"], fractions=frac))
        return Phantom(disks=tuple(disks), n_materials=len(basis))

    def calibration_domain(self) -> "CalibrationDomain":
        from .calibration import CalibrationDomain

        lower, upper = np.array(self.values["calibration"]["domain"], dtype=float).T
        return CalibrationDomain(lower=lower, upper=upper)

    def prior(self, spec=None, domain=None):
        """Prior agent for a validated `prior` section (default: this config's)."""
        from .priors import GaussianPrior, clip_prior, compose_priors, rotation_matrix

        spec = spec if spec is not None else self.values["prior"]
        kind = spec["kind"]
        if kind == "clip":
            return clip_prior(domain if domain is not None else self.calibration_domain())
        if kind == "compose":
            return compose_priors([self.prior(p, domain) for p in spec["parts"]])
        std = [tuple(s) if isinstance(s, list) else s for s in spec["std"]]
        if kind == "gaussian":
            return GaussianPrior(std)
        return GaussianPrior(std, rotation_matrix(math.radians(spec["rotation_deg"])))

    def mle_config(self, n_iter=None) -> "MleConfig":
        from .solver import MleConfig

        m = self.values["mle"]
        return MleConfig(grid_points=tuple(m["grid_points"]),
                         n_iter=n_iter if n_iter is not None else m["n_iter"], sigma=m["sigma"])

    def mace_config(self, domain=None) -> "MaceConfig":
        from .solver import MaceConfig

        m = self.values["mace"]
        return MaceConfig(prior=self.prior(domain=domain), rho=m["rho"], n_iter=m["n_iter"],
                          sigma=m["sigma"], n_sub=m["n_sub"],
                          init=self.mle_config(n_iter=m["mle_init_iters"]))

    def rois(self) -> "RoiSpec":
        from .metrics import RoiCircle, RoiSpec

        return RoiSpec(circles=tuple(RoiCircle(label=r["label"], center=tuple(r["center"]),
                                               radius=r["radius"])
                                     for r in self.values["rois"]))
