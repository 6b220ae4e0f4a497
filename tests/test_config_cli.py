import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oversized_container
from pcmd.arrayio import read_array, write_array
from pcmd.cli import main
from pcmd.config import PIXELS_MAX, PLANE_BYTES_MAX, PipelineConfig
from pcmd.errors import ConfigError
from pcmd.pipeline import STAGES, Stage
from pcmd.priors import GaussianPrior, apply_prior, rotation_matrix
from pcmd.spectrum import bin_edges

SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs", "low_contrast.json")
with open(SHIPPED) as _fh:
    SHIPPED_RAW = json.load(_fh)


def tiny_config(out_dir, noise=True, air=5.0e4):
    """Miniature but complete pipeline configuration (seconds, not minutes)."""
    return {
        "output_dir": str(out_dir),
        "seed": 101,
        "noise": noise,
        "materials": ["polyethylene", "pvc"],
        "geometry": {"mode": "parallel", "n_views": 45, "n_channels": 48, "spacing_cm": 0.4},
        "grid": {"n_x": 48, "n_y": 48, "pixel_cm": 0.4},
        "spectrum": {"kvp": 120.0, "e_min": 40.0, "n_bins": 8},
        "dose": {"air_counts_total": air},
        "phantom": {"disks": [
            {"center": [0.0, 0.0], "radius": 7.0, "water_density": 1.0},
            {"center": [3.0, 0.0], "radius": 1.6, "water_density_excess": 0.05},
        ]},
        "calibration": {"order": 4, "points_per_axis": [9, 9],
                        "domain": [[0.0, 40.0], [0.0, 5.0]],
                        "repeats": 20, "air_counts_total": 1.0e6, "noise": False},
        "mle": {"grid_points": [21, 21], "n_iter": 25, "sigma": 1000.0},
        "mace": {"rho": 0.8, "n_iter": 8, "sigma": 0.1, "mle_init_iters": 8},
        "prior": {"kind": "gaussian", "std": [2.0, 2.0]},
        "recon": {"mono_kev": 70.0, "window_center": 1000.0, "window_width": 200.0},
        "rois": [
            {"label": "background", "center": [-2.5, -2.5], "radius": 1.2},
            {"label": "insert", "center": [3.0, 0.0], "radius": 1.0},
        ],
        "cnr": {"target": "insert", "background": "background"},
    }


def write_config(tmp_path, cfg):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def set_key(cfg, key, value):
    """Set a top-level or one-section-deep key given as "section.name"."""
    section, _, name = key.rpartition(".")
    (cfg[section] if section else cfg)[name] = value


# --- validation ---

def test_missing_required_key_is_path_qualified(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    del cfg["phantom"]["disks"][0]["radius"]
    with pytest.raises(ConfigError, match=r"phantom\.disks\[0\]\.radius"):
        PipelineConfig(cfg)


def test_unknown_material_is_reported(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["materials"] = ["polyethylene", "kryptonite"]
    with pytest.raises(ConfigError, match=r"materials\[1\]"):
        PipelineConfig(cfg)


def test_disk_requires_exactly_one_composition(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["phantom"]["disks"][0]["fractions"] = [1.0, 0.0]
    with pytest.raises(ConfigError, match="exactly one of"):
        PipelineConfig(cfg)


def test_cnr_labels_must_resolve(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["cnr"]["target"] = "nonexistent"
    with pytest.raises(ConfigError, match=r"cnr\.target"):
        PipelineConfig(cfg)


def test_mace_rho_bounds(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["mace"]["rho"] = 1.5
    with pytest.raises(ConfigError, match=r"mace\.rho"):
        PipelineConfig(cfg)


def test_prior_validation_is_recursive(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["prior"] = {"kind": "compose", "parts": [{"kind": "gaussian", "std": [1.0]}]}
    with pytest.raises(ConfigError, match=r"prior\.parts\[0\]\.std"):
        PipelineConfig(cfg)


@pytest.mark.parametrize("key", ["noise", "spectrum.k_lines", "calibration.noise", "recon.hann"])
@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_boolean_keys_accept_only_booleans(tmp_path, capsys, key, value):
    cfg = tiny_config(tmp_path / "out")
    set_key(cfg, key, value)
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"{key}: expected true or false" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [-1, 2**64, 1.5, "7"])
@pytest.mark.parametrize("key", ["seed", "calibration.seed"])
def test_config_seeds_must_be_64_bit_unsigned(tmp_path, capsys, key, value):
    cfg = tiny_config(tmp_path / "out")
    set_key(cfg, key, value)
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")


@pytest.mark.parametrize("value", ["-1", str(2**64)])
def test_seed_flag_must_be_64_bit_unsigned(tmp_path, capsys, value):
    path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main(["simulate", "--config", path, "--seed", value]) == 2
    assert capsys.readouterr().err.startswith("config error: --seed:")
    assert not (tmp_path / "out").exists()


def test_seed_range_ends_are_accepted(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["seed"] = 2**64 - 1
    assert PipelineConfig(cfg).cal_seed == 0  # the derived calibration seed wraps
    cfg["calibration"]["seed"] = 0
    assert PipelineConfig(cfg).cal_seed == 0


def shipped_config(out_dir):
    cfg = copy.deepcopy(SHIPPED_RAW)
    cfg["output_dir"] = str(out_dir)
    return cfg


def _dotted(keys):
    """("rois", 0, "label") -> "rois[0].label", the form config errors use."""
    out = ""
    for key in keys:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else key)
    return out


def parent_of(cfg, keys):
    """The object or list holding the entry at a key path such as ("rois", 0, "label")."""
    for key in keys[:-1]:
        cfg = cfg[key]
    return cfg


HOSTILE_SECTIONS = [
    (("calibration",), 5, "calibration"),
    (("mle",), 5, "mle"),
    (("rois",), [5], "rois[0]"),
    (("rois",), ["a"], "rois[0]"),
    (("cnr",), 3, "cnr"),
    (("geometry",), [], "geometry"),
    (("spectrum",), None, "spectrum"),
    (("calibration",), {"domain": [5, 5]}, "calibration.domain[0]"),
    (("rois", 0, "label"), ["a"], "rois[0].label"),
    (("materials",), [["a"], "pvc"], "materials[0]"),
    (("materials",), ["polyethylene", "polyethylene"], "materials[1]"),
    (("cnr", "target"), ["x"], "cnr.target"),
    (("calibration",), [], "calibration"),
    (("mace",), [], "mace"),
    (("geometry", "n_vews"), 90, "geometry.n_vews"),
    (("prior", "kind"), "median", "prior.kind"),
]


@pytest.mark.parametrize("keys, value, path", HOSTILE_SECTIONS,
                         ids=[f"{_dotted(k)}={json.dumps(v)}" for k, v, _ in HOSTILE_SECTIONS])
def test_hostile_sections_exit_2_naming_the_key(tmp_path, capsys, keys, value, path):
    cfg = shipped_config(tmp_path / "out")
    parent_of(cfg, keys)[keys[-1]] = value
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, values, path", [
    ("geometry", {"mode": "fan", "sid_cm": 100.0, "sdd_cm": 50.0}, "geometry.sdd_cm"),
    ("geometry", {"mode": "fan", "sid_cm": 50.0, "sdd_cm": 50.0}, "geometry.sdd_cm"),
    ("geometry", {"mode": "fan", "sdd_cm": 50.0}, "geometry.sid_cm"),
    ("spectrum", {"kvp": 200}, "spectrum.kvp"),
    ("spectrum", {"e_min": 40.5}, "spectrum.e_min"),
    ("spectrum", {"kvp": 44, "n_bins": 8}, "spectrum.n_bins"),
    ("spectrum", {"filtration_cm_al": 1000.0}, "spectrum.filtration_cm_al"),
    ("dose", {"air_counts_total": 1e25}, "dose.air_counts_total"),
    ("geometry", {"n_views": 2**64}, "geometry.n_views"),
    ("geometry", {"n_channels": 2**17}, "geometry.n_channels"),
    ("grid", {"n_y": 2**40}, "grid.n_y"),
    ("calibration", {"points_per_axis": [9, 2**64]}, "calibration.points_per_axis[1]"),
    ("mle", {"grid_points": [2**20, 41]}, "mle.grid_points[0]"),
    ("calibration", {"noise": True, "repeats": 10**9, "air_counts_total": 1e18},
     "calibration.repeats"),
    ("geometry", {"mode": "fan", "sid_cm": 50.0, "sdd_cm": 100.0, "n_channels": 1},
     "geometry.n_channels"),
    ("geometry", {"mode": "fan", "sid_cm": 50.0, "sdd_cm": 100.0, "n_views": 1},
     "geometry.n_views"),
    ("geometry", {"mode": "fan", "sid_cm": 50.0, "sdd_cm": 100.0, "n_views": 3},
     "geometry.n_views"),
    ("geometry", {"n_views": 1}, "geometry.n_views"),
])
def test_configs_a_builder_would_refuse_exit_2(tmp_path, capsys, section, values, path):
    cfg = tiny_config(tmp_path / "out")
    cfg[section].update(values)
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys, path", [
    (("rois", 0, "radius"), "rois[0].radius"),
    (("phantom", "disks", 0, "radius"), "phantom.disks[0].radius"),
])
def test_a_huge_radius_exits_2_naming_the_key(tmp_path, capsys, keys, path):
    cfg = tiny_config(tmp_path / "out")
    parent_of(cfg, keys)[keys[-1]] = 1e300  # its square is beyond float range
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys, value, path", [
    (("phantom", "disks", 0, "center"), [1e200, 0.0], "phantom.disks[0].center[0]"),
    (("rois", 0, "center"), [1e300, 0.0], "rois[0].center[0]"),
    (("rois", 1, "center"), [0.0, -2e6], "rois[1].center[1]"),
])
def test_a_huge_centre_exits_2_naming_the_coordinate(tmp_path, capsys, keys, value, path):
    cfg = tiny_config(tmp_path / "out")
    parent_of(cfg, keys)[keys[-1]] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic overflows
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("prior, path", [
    ({"kind": "gaussian", "std": [1e300, 1e300]}, "prior.std[0]"),
    ({"kind": "gaussian", "std": [2.0, [1.0, 1e300]]}, "prior.std[1][1]"),
    ({"kind": "decorrelated-gaussian", "std": [2.0, 1e300]}, "prior.std[1]"),
    ({"kind": "compose", "parts": [{"kind": "clip"}, {"kind": "gaussian", "std": [1e300, 2.0]}]},
     "prior.parts[1].std[0]"),
])
def test_a_huge_prior_std_exits_2_naming_it(tmp_path, capsys, prior, path):
    # a std is in detector samples; the Gaussian kernel of 1e300 cannot be built
    cfg = tiny_config(tmp_path / "out")
    cfg["prior"] = prior
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")
    assert not (tmp_path / "out").exists()


def test_zero_width_calibration_axis_exits_2_before_the_fit(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "out")
    cfg["calibration"]["domain"] = [[0.0, 40.0], [5.0, 5.0]]
    assert main(["calibrate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: calibration.domain[1]:")
    cfg["calibration"]["order"] = 0  # a constant response needs no spread
    assert PipelineConfig(cfg).calibration_domain().span[1] == 0.0


@pytest.mark.parametrize("order, points, axis", [(9, [9, 9], 0), (4, [3, 9], 0), (4, [9, 3], 1),
                                                 (4, [3, 3], 0)])
def test_a_grid_too_coarse_for_the_order_exits_2_before_any_stage(tmp_path, capsys, order,
                                                                  points, axis):
    # the tensor-product fit of order P needs P + 1 points on every axis
    cfg = tiny_config(tmp_path / "out")
    cfg["calibration"].update(order=order, points_per_axis=points)
    assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: calibration.points_per_axis[{axis}]:")
    assert "calibration.order" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("roi", [{"center": [50.0, 50.0]}, {"radius": 0.05}])
def test_a_roi_holding_no_pixel_centre_exits_2_before_any_stage(tmp_path, capsys, roi):
    cfg = tiny_config(tmp_path / "out")
    cfg["rois"][0].update(roi)
    assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: rois[0]:") and "grid" in err
    assert not (tmp_path / "out").exists()


def test_an_image_plane_past_its_memory_budget_exits_2_before_any_stage(tmp_path, capsys):
    # 2^32 pixels: one plane would take 32 GiB, though each axis is within SIZE_MAX
    cfg = tiny_config(tmp_path / "out")
    cfg["grid"].update(n_x=65536, n_y=65536)
    assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.n_x:") and "grid.n_y" in err
    assert str(PIXELS_MAX) in err
    assert not (tmp_path / "out").exists()


def test_a_search_grid_past_its_memory_budget_exits_2_before_any_stage(tmp_path, capsys):
    # 4096^2 grid points x 25 basis terms: a 3.4 GB table, though each axis is within SIZE_MAX
    cfg = tiny_config(tmp_path / "out")
    cfg["mle"]["grid_points"] = [4096, 4096]
    with pytest.raises(ConfigError):  # so that main, below, cannot go on to build the table
        PipelineConfig(cfg)
    assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mle.grid_points:") and "calibration.order" in err
    assert str(PLANE_BYTES_MAX // 8) in err
    assert not (tmp_path / "out").exists()


def _three_materials(cfg):
    """`cfg` with a third material, two bins, and a per-material entry for each."""
    cfg["materials"].append("water")
    cfg["spectrum"]["n_bins"] = 2
    cfg["calibration"].update(points_per_axis=[5, 5, 5], domain=[[0.0, 40.0], [0.0, 5.0],
                                                                   [0.0, 5.0]])
    cfg["mle"]["grid_points"] = [5, 5, 5]
    cfg["prior"]["std"] = [2.0, 2.0, 2.0]


# Each derived size one step past 2^24 floats, with the keys its message names.
PAST_BOUND = {
    # 2^16 x 33 rows x 8 bins
    "sinogram": ({"geometry": {"n_views": 2**16, "n_channels": 33}}, None,
                 "geometry.n_views", ["geometry.n_channels", "spectrum.n_bins", "materials"]),
    # 2^16 x 86 rows x 3 materials; 2 bins alone would fit
    "sinogram-materials": ({"geometry": {"n_views": 2**16, "n_channels": 86}}, _three_materials,
                           "geometry.n_views", ["geometry.n_channels", "materials"]),
    # 4096 channels x 33 x 16 slabs x 8 bins
    "slab-scan": ({"geometry": {"n_channels": 4096},
                   "calibration": {"points_per_axis": [33, 16]}}, None,
                  "calibration.points_per_axis", ["geometry.n_channels", "spectrum.n_bins"]),
    # 4096^2 points x 9 loss-table rows (8 bins + 1), where order 0 has one basis term
    "search-loss-table": ({"calibration": {"order": 0}, "mle": {"grid_points": [4096, 4096]}},
                          None, "mle.grid_points", ["calibration.order", "spectrum.n_bins"]),
}


@pytest.mark.parametrize("case", sorted(PAST_BOUND))
def test_a_derived_size_past_its_memory_budget_exits_2_before_any_stage(tmp_path, capsys, case):
    edits, edit, key, names = PAST_BOUND[case]
    cfg = tiny_config(tmp_path / "out")
    if edit is not None:
        edit(cfg)
    for section, values in edits.items():
        cfg[section].update(values)
    with pytest.raises(ConfigError):  # so that main, below, cannot go on to build the arrays
        PipelineConfig(cfg)
    assert main(["pipeline", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}:")
    assert all(name in err for name in names), err
    assert str(PLANE_BYTES_MAX // 8) in err
    assert not (tmp_path / "out").exists()


def test_bounds_that_build_are_accepted(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["geometry"].update(mode="fan", sid_cm=50.0, sdd_cm=100.0, n_views=2**16,
                           n_channels=32)  # x 8 bins: a 2^24-float sinogram
    cfg["grid"].update(n_x=2**16, n_y=PIXELS_MAX // 2**16)
    cfg["calibration"].update(repeats=10**9, air_counts_total=1e18,  # noiseless: nothing sampled
                              order=3)
    cfg["mle"]["grid_points"] = [1024, 1024]  # x 4^2 basis terms: 2^24 floats
    built = PipelineConfig(cfg)
    assert (built.geometry().sdd, built.geometry().n_views) == (100.0, 2**16)
    assert built.geometry().n_rays * 8 == PLANE_BYTES_MAX // 8
    assert built.values["calibration"]["repeats"] == 10**9
    assert built.grid().n_x * built.grid().n_y == PIXELS_MAX
    assert math.prod(built.mle_config().grid_points) * 4**2 == PLANE_BYTES_MAX // 8

    # 130 bins would take the sinogram above past its bound, so each of these
    # builds from the tiny config on its own
    cfg = tiny_config(tmp_path / "out")
    cfg["spectrum"].update(kvp=150, e_min=20, n_bins=130, filtration_cm_al=10.0)
    assert PipelineConfig(cfg).spectrum().n_bins == 130
    cfg = tiny_config(tmp_path / "out")
    cfg["geometry"]["n_channels"] = 4096
    cfg["calibration"]["points_per_axis"] = [32, 16]  # x 4096 channels x 8 bins: 2^24 floats
    assert PipelineConfig(cfg).geometry().n_channels == 4096
    cfg = tiny_config(tmp_path / "out")
    cfg["spectrum"]["n_bins"] = 15
    cfg["calibration"]["order"] = 0
    cfg["mle"]["grid_points"] = [1024, 1024]  # x 16 loss-table rows (15 bins + 1): 2^24 floats
    assert PipelineConfig(cfg).mle_config().grid_points == (1024, 1024)
    cfg = tiny_config(tmp_path / "out")
    _three_materials(cfg)
    cfg["geometry"].update(n_views=2**16, n_channels=85)  # x 3 materials: 16,711,680 floats
    assert len(PipelineConfig(cfg).materials()) == 3


def test_decorrelated_prior_accepts_std_pairs():
    cfg = tiny_config("out")
    cfg["prior"] = {"kind": "decorrelated-gaussian", "std": [[1.0, 2.0], 1.5],
                    "rotation_deg": 30.0}
    prior = PipelineConfig(cfg).prior()
    assert prior.std == ((1.0, 2.0), 1.5)
    p = np.random.default_rng(3).normal(size=(12, 10, 2))
    rot = rotation_matrix(math.radians(30.0))
    expected = apply_prior(GaussianPrior([(1.0, 2.0), 1.5]), p @ rot.T) @ rot
    assert np.allclose(apply_prior(prior, p), expected, rtol=0, atol=1e-12)


# --- property: one hostile edit of the shipped config at a time ---

def _key_paths(value, keys=()):
    """Key path of every object member and list entry below `value`."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield keys + (key,)
        if isinstance(child, (dict, list)):
            yield from _key_paths(child, keys + (key,))


KEY_PATHS = list(_key_paths(SHIPPED_RAW))
# Wrong types (whole sections swapped for lists, objects or scalars too),
# numbers out of range, and non-finite numbers.  Numbers stay within about 1e4
# in magnitude: sizes are bounded only far above any shipped value, and a config
# near the bound would take long to build.
WRONG_TYPES = st.sampled_from([None, True, False, "x", "", [], [1.0], ["a"], {}, {"zz": 1}])
NUMBERS = st.one_of(st.sampled_from([0, -1, 0.5, 1.5, 151, 1e4, -1e-300]),
                    st.integers(-200, 200), st.floats(-1e4, 1e4))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _hostile(original):
    """Values to put in place of `original`; near it too, where it is a number."""
    values = [WRONG_TYPES, NUMBERS, NON_FINITE]
    if isinstance(original, (int, float)) and not isinstance(original, bool):
        values.append(st.integers(-100, 100).map(lambda d: original + d))
        values.append(st.sampled_from([-1, 0.5, 2, 100]).map(lambda f: original * f))
    return st.one_of(values)


def _names(message, path):
    """Whether an error names `path`: its key path is `path`, an ancestor (a
    rule on the enclosing object) or a descendant; or, for a rule tying two
    keys together, its text names `path` or a section holding it."""
    head, _, body = message.partition(": ")

    def within(inner, outer):
        return inner == outer or inner.startswith((outer + ".", outer + "["))

    holders = [path[:i] for i, ch in enumerate(path + ".") if ch in ".["]
    return within(head, path) or within(path, head) or any(h in body for h in holders)


@pytest.mark.parametrize("keys", KEY_PATHS, ids=_dotted)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_one_hostile_edit_is_rejected_by_path_or_builds(keys, data):
    raw = copy.deepcopy(SHIPPED_RAW)
    parent = parent_of(raw, keys)
    how = "value"  # a list entry has no key to delete and no sibling keys
    if isinstance(parent, dict):
        how = data.draw(st.sampled_from(["value", "missing", "unknown sibling"]))
    if how == "missing":
        del parent[keys[-1]]
    elif how == "unknown sibling":
        parent["zz_unknown"] = 1
        keys = keys[:-1] + ("zz_unknown",)
    else:
        parent[keys[-1]] = value = data.draw(_hostile(parent[keys[-1]]))
    path = _dotted(keys)
    try:
        cfg = PipelineConfig(raw)
    except ConfigError as err:
        assert _names(str(err), path), str(err)
        return
    # an unknown key and a non-finite number are never valid
    assert how != "unknown sibling"
    assert how == "missing" or not (isinstance(value, float) and not math.isfinite(value))
    cfg.spectrum(), cfg.geometry(), cfg.grid(), cfg.phantom()
    cfg.calibration_domain(), cfg.mle_config(), cfg.mace_config(), cfg.rois()


def test_bad_json_reports_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        PipelineConfig.from_file(str(path))


# --- CLI end to end ---

def fresh_interpreter(probe, *args):
    """What `python -c probe *args` prints, run with this checkout's pcmd."""
    import pcmd

    src = os.path.dirname(os.path.dirname(os.path.abspath(pcmd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def modules_after(code, *args):
    """The printed output of `code` in a fresh interpreter, and the pcmd modules it loaded."""
    printed = fresh_interpreter(code + "\nprint(*sorted(m for m in sys.modules "
                                       "if m.startswith('pcmd.')))", *args)
    *lines, loaded = printed.splitlines()
    return "\n".join(lines), set(loaded.split())


def run_cli_after(*argv):
    """`pcmd *argv` in a fresh interpreter: what it printed and the pcmd modules it loaded."""
    return modules_after("import sys; from pcmd.cli import main; assert main(sys.argv[1:]) == 0",
                         *argv)


def test_importing_the_cli_loads_no_numeric_backend():
    # --threads caps the BLAS threads through the environment, which only
    # reaches a backend that loads after the flag is read
    probe = "import sys, pcmd.cli; print('numpy' in sys.modules)"
    assert fresh_interpreter(probe).strip() == "False"


def test_importing_the_config_loads_only_what_validation_needs():
    _, loaded = modules_after("import sys, pcmd.config")
    assert "pcmd.config" in loaded
    assert not loaded & {"pcmd.solver", "pcmd.calibration", "pcmd.simulate", "pcmd.phantom",
                         "pcmd.spectrum", "pcmd.priors", "pcmd.metrics"}


def test_an_up_to_date_pipeline_loads_no_simulation_or_calibration(pipeline_dir, tmp_path):
    out, config_path = pipeline_dir
    printed, loaded = run_cli_after("pipeline", "--config", config_path,
                                    "--out", str(copy_outputs(out, tmp_path)))
    assert printed.count("up to date, skipping") == 6
    assert "pcmd.pipeline" in loaded
    assert not loaded & {"pcmd.calibration", "pcmd.simulate", "pcmd.phantom", "pcmd.spectrum"}


def test_simulate_loads_no_calibration(tmp_path):
    path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    _, loaded = run_cli_after("simulate", "--config", path)
    assert "pcmd.simulate" in loaded and "pcmd.calibration" not in loaded


def test_decompose_loads_no_spectrum(pipeline_dir, tmp_path):
    # the calibration's bin edges are checked against the config's without the spectrum module
    out, config_path = pipeline_dir
    _, loaded = run_cli_after("decompose", "--config", config_path, "--method", "mle",
                              "--out", str(copy_outputs(out, tmp_path)))
    assert "pcmd.calibration" in loaded and "pcmd.spectrum" not in loaded


def test_cli_exit_codes(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["mace"]["rho"] = 2.0
    bad = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", bad]) == 2
    assert not (tmp_path / "out").exists()  # validation precedes any output
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    # numeric failure: slab scans so starved that a mean count is zero
    cfg = tiny_config(tmp_path / "out2")
    cfg["calibration"].update(noise=True, air_counts_total=1.0)
    starved = write_config(tmp_path, cfg)
    assert main(["calibrate", "--config", starved]) == 3


def test_out_of_memory_exits_3_naming_the_command(tmp_path, capsys, monkeypatch):
    from pcmd import pipeline

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(pipeline, "cmd_decompose", exhausted)
    path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main(["decompose", "--config", path, "--method", "mle"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: pcmd decompose: out of memory")
    assert "Traceback" not in err


def test_full_pipeline_is_deterministic_given_seeds(tmp_path):
    stats = []
    for run in ("a", "b"):
        cfg = tiny_config(tmp_path / run)
        cfg["mle"]["n_iter"] = 10  # keep the double run quick
        cfg["mace"]["n_iter"] = 4
        cfg["mace"]["mle_init_iters"] = 4
        path = tmp_path / f"p_{run}.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 0
        stats.append((tmp_path / run / "stats.csv").read_bytes())
    assert stats[0] == stats[1]


def test_threads_flag_is_accepted(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--threads", "1"]) == 0


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_flag_must_be_positive(tmp_path, capsys, value):
    path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main(["simulate", "--config", path, "--threads", value]) == 2
    assert capsys.readouterr().err.startswith("config error: --threads:")
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    out = tmp / "out"
    path = tmp / "pipeline.json"
    path.write_text(json.dumps(tiny_config(out)))
    assert main(["pipeline", "--config", str(path)]) == 0
    return out, str(path)


def test_pipeline_outputs_exist_with_expected_shapes(pipeline_dir):
    out, _ = pipeline_dir
    t, labels = read_array(out / "transmission.pcmd")
    assert t.shape == (45, 48, 8) and labels == ["view", "channel", "bin"]
    p, _ = read_array(out / "pathlengths_true.pcmd")
    assert p.shape == (45, 48, 2)
    for method in ("mle", "mace"):
        d, _ = read_array(out / f"pathlengths_{method}.pcmd")
        assert d.shape == (45, 48, 2)
        assert (out / f"decompose_{method}.log.jsonl").exists()
    for name in ("image_mle_polyethylene.pcmd", "image_mace_pvc.pcmd",
                 "mono70_mle.pcmd", "mono70_mace.pcmd", "mono70_mace.png"):
        assert (out / name).exists()
    assert (out / "stats.csv").exists()


def test_stats_csv_has_cnr_rows_for_both_methods(pipeline_dir):
    out, _ = pipeline_dir
    lines = (out / "stats.csv").read_text().strip().splitlines()
    assert lines[0] == "image,label,mean,std"
    cnr_lines = [l for l in lines if l.split(",")[1].startswith("cnr:")]
    assert {l.split(",")[0] for l in cnr_lines} == {"mono70_mle", "mono70_mace"}


def test_decompose_log_reports_iterations_and_rate(pipeline_dir):
    out, _ = pipeline_dir
    records = [json.loads(l) for l in
               (out / "decompose_mle.log.jsonl").read_text().splitlines()]
    summary = records[-1]
    assert summary["iterations"] == 25
    assert summary["rows"] == 45 * 48
    assert summary["seconds_per_row"] > 0


def test_mle_log_records_each_refinement_pass(pipeline_dir):
    out, _ = pipeline_dir
    records = [json.loads(l) for l in
               (out / "decompose_mle.log.jsonl").read_text().splitlines()]
    passes, summary = records[:-1], records[-1]
    assert [r["pass"] for r in passes] == list(range(summary["passes"]))
    assert 1 <= summary["passes"] <= summary["iterations"]
    assert all(r["max_step_cm"] >= 0 for r in passes)
    mace = json.loads((out / "decompose_mace.log.jsonl").read_text().splitlines()[-1])
    assert 1 <= mace["mle_init_passes"] <= 8


def test_mace_log_has_equilibrium_residuals(pipeline_dir):
    out, _ = pipeline_dir
    records = [json.loads(l) for l in
               (out / "decompose_mace.log.jsonl").read_text().splitlines()]
    residuals = [r["equilibrium_residual"] for r in records if "equilibrium_residual" in r]
    assert len(residuals) == 8
    assert all(np.isfinite(residuals))


def test_pipeline_resumes_from_manifests(pipeline_dir, capsys):
    out, config_path = pipeline_dir
    before = (out / "stats.csv").read_bytes()
    assert main(["pipeline", "--config", config_path]) == 0
    printed = capsys.readouterr().out
    assert printed.count("up to date, skipping") == 6
    assert (out / "stats.csv").read_bytes() == before


def test_reconstructing_one_method_writes_the_images_of_a_two_method_run(pipeline_dir, tmp_path):
    out, config_path = pipeline_dir
    alone = tmp_path / "alone"
    alone.mkdir()
    for name in ("pathlengths_mle.pcmd", "pathlengths_mace.pcmd"):
        (alone / name).write_bytes((out / name).read_bytes())
    assert main(["reconstruct", "--config", config_path, "--out", str(alone),
                 "--method", "mle"]) == 0
    names = ["image_mle_polyethylene.pcmd", "image_mle_pvc.pcmd", "mono70_mle.pcmd",
             "mono70_mle.png"]
    for name in names:
        assert (alone / name).read_bytes() == (out / name).read_bytes(), name
    assert not (alone / "mono70_mace.pcmd").exists()


def test_reconstruct_rejects_a_sinogram_of_another_geometry(pipeline_dir, tmp_path, capsys):
    out, config_path = pipeline_dir
    p, labels = read_array(out / "pathlengths_mle.pcmd")
    write_array(tmp_path / "pathlengths_mle.pcmd", p[:-1], labels)
    assert main(["reconstruct", "--config", config_path, "--out", str(tmp_path)]) == 3
    assert "is (44, 48, 2), expected (45, 48, 2)" in capsys.readouterr().err


def _array(name, edit, labelled=True):
    """Rewrite stage file `name` as `edit` of its array, with its labels cut to
    the new rank, or with none."""
    def corrupt(out):
        arr, labels = read_array(out / name)
        arr = edit(arr)
        write_array(out / name, arr, labels[:arr.ndim] if labelled else None)
    return name, corrupt


def _set(arr, value):
    arr[0, 0] = value
    return arr


def _header(edit):
    """Rewrite the JSON header of `calibration.pcmdcal` as `edit` of its bytes."""
    def corrupt(out):
        buf = (out / "calibration.pcmdcal").read_bytes()
        cut = buf.find(b"\n\x00")
        (out / "calibration.pcmdcal").write_bytes(edit(buf[:cut]) + buf[cut:])
    return "calibration.pcmdcal", corrupt


def _meta(key, value):
    def edit(head):
        meta = json.loads(head)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        return json.dumps(meta).encode()
    return _header(edit)


HOSTILE_FILES = {
    "2-D transmission": ("decompose", "mle", _array("transmission.pcmd", lambda t: t[:, :, 0])),
    "truncated air totals": ("decompose", "mle", _array("air_totals.pcmd", lambda a: a[:-1])),
    "transmission of fewer views": ("decompose", "mace",
                                    _array("transmission.pcmd", lambda t: t[:-5])),
    **{f"{what} transmission, {m}": ("decompose", m, _array("transmission.pcmd",
                                                            lambda t, v=v: _set(t, v)))
       for what, v in [("NaN", np.nan), ("negative", -0.1)] for m in ("mle", "mace")},
    **{f"{what} air total, {m}": ("decompose", m, _array("air_totals.pcmd",
                                                         lambda a, v=v: _set(a, v)))
       for what, v in [("zero", 0.0), ("negative", -5.0e4)] for m in ("mle", "mace")},
    "wrongly sized mono image": ("evaluate", None, _array("mono70_mle.pcmd", lambda m: m[:, 1:])),
    "1-D mono image": ("evaluate", None, _array("mono70_mace.pcmd", np.ravel)),
    "unlabelled transmission": ("decompose", "mle",
                                _array("transmission.pcmd", lambda t: t, labelled=False)),
    "unlabelled pathlengths": ("reconstruct", None,
                               _array("pathlengths_mle.pcmd", lambda p: p, labelled=False)),
    "calibration header, bad UTF-8": ("decompose", "mle", _header(lambda h: b"\xff" + h)),
    "calibration header, bad JSON": ("decompose", "mle", _header(lambda h: h[:-1])),
    "calibration header, not an object": ("decompose", "mle", _header(lambda h: b"[1]")),
    "calibration header, no domain": ("decompose", "mle", _meta("domain", None)),
    "calibration header, string order": ("decompose", "mle", _meta("order", "4")),
    "calibration header, 7 channels": ("decompose", "mle", _meta("n_channels", 7)),
    "calibration header, 3 bins": ("decompose", "mle", _meta("n_bins", 3)),
    "calibration header, NaN basis scale": ("decompose", "mle",
                                            _meta("basis", {"kind": "monomial",
                                                            "scale": [math.nan, 5.0]})),
    "calibration header, infinite upper bound": ("decompose", "mle",
                                                 _meta("domain", {"lower": [0.0, 0.0],
                                                                  "upper": [math.inf, 5.0]})),
    "pathlengths sized past 2^63 elements": ("reconstruct", None, (
        "pathlengths_mle.pcmd", lambda out: (out / "pathlengths_mle.pcmd").write_bytes(
            oversized_container(["view", "channel", "material"])))),
}


@pytest.mark.parametrize("command, method, corrupt", HOSTILE_FILES.values(), ids=HOSTILE_FILES)
def test_hostile_stage_files_exit_3_naming_the_file(pipeline_dir, tmp_path, capsys,
                                                    command, method, corrupt):
    out, config_path = pipeline_dir
    for path in out.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    name, edit = corrupt
    edit(tmp_path)
    argv = [command, "--config", config_path, "--out", str(tmp_path)]
    assert main(argv + (["--method", method] if method else [])) == 3
    err = capsys.readouterr().err
    assert str(tmp_path / name) in err and "Traceback" not in err


@pytest.mark.parametrize("command, method, name", [
    ("reconstruct", None, "pathlengths_mle.pcmd"),
    ("decompose", "mle", "calibration.pcmdcal"),
])
def test_an_input_that_is_a_directory_exits_2_naming_it(pipeline_dir, tmp_path, capsys,
                                                        command, method, name):
    out, config_path = pipeline_dir
    for path in out.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / name).unlink()
    (tmp_path / name).mkdir()
    argv = [command, "--config", config_path, "--out", str(tmp_path)]
    assert main(argv + (["--method", method] if method else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(tmp_path / name) in err
    assert "Traceback" not in err


def test_malformed_manifest_is_stale(pipeline_dir, tmp_path, capsys):
    out, config_path = pipeline_dir
    for path in out.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "manifest_evaluate.json").write_text("[1]")
    assert main(["pipeline", "--config", config_path, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("up to date, skipping") == 5 and "evaluate up to date" not in captured.out
    assert "Traceback" not in captured.err
    assert (tmp_path / "stats.csv").read_bytes() == (out / "stats.csv").read_bytes()
    assert json.loads((tmp_path / "manifest_evaluate.json").read_text())["stage"] == "evaluate"


def test_a_copied_directory_is_judged_by_its_own_files(pipeline_dir, tmp_path, capsys):
    out, config_path = pipeline_dir
    for path in out.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    t, labels = read_array(tmp_path / "transmission.pcmd")
    write_array(tmp_path / "transmission.pcmd", t / 2.0, labels)
    cfg = PipelineConfig.from_file(config_path)
    assert all(Stage(name, cfg, str(out)).up_to_date() for name in STAGES)
    stale = [name for name in STAGES if not Stage(name, cfg, str(tmp_path)).up_to_date()]
    assert stale == ["simulate", "decompose_mle", "decompose_mace"]
    assert main(["pipeline", "--config", config_path, "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("up to date, skipping") == 5 and "simulate up to date" not in printed
    assert (tmp_path / "transmission.pcmd").read_bytes() == (out / "transmission.pcmd").read_bytes()
    # a manifest keyed by path, as written before keys became file names, is stale
    manifest = json.loads((tmp_path / "manifest_calibrate.json").read_text())
    manifest["outputs"] = {str(tmp_path / k): v for k, v in manifest["outputs"].items()}
    (tmp_path / "manifest_calibrate.json").write_text(json.dumps(manifest))
    assert not Stage("calibrate", cfg, str(tmp_path)).up_to_date()


# --- MACE starts from the MLE stage's sinogram when that is the start it would compute ---

def copy_outputs(out, dest):
    for path in out.iterdir():
        (dest / path.name).write_bytes(path.read_bytes())
    return dest


def mace_summary(out):
    return json.loads((out / "decompose_mace.log.jsonl").read_text().splitlines()[-1])


def computed_mace(out, config_path):
    """`pcmd decompose --method mace` in `out` with the MLE manifest gone, so the
    start is computed; returns the bytes of its output."""
    (out / "manifest_decompose_mle.json").unlink()
    assert main(["decompose", "--config", config_path, "--out", str(out), "--method", "mace"]) == 0
    assert mace_summary(out)["mle_init_reused"] is False
    return (out / "pathlengths_mace.pcmd").read_bytes()


def test_mace_reuses_a_converged_mle_stage_output(pipeline_dir, tmp_path):
    out, config_path = pipeline_dir
    mle = [json.loads(l) for l in (out / "decompose_mle.log.jsonl").read_text().splitlines()]
    assert mle[-1]["passes"] < 8 and mle[-2]["max_step_cm"] <= 1e-10   # converged before 8
    summary = mace_summary(out)
    assert summary["mle_init_reused"] is True and summary["mle_init_passes"] == mle[-1]["passes"]
    computed = computed_mace(copy_outputs(out, tmp_path), config_path)
    assert computed == (out / "pathlengths_mace.pcmd").read_bytes()
    assert mace_summary(tmp_path)["mle_init_passes"] == summary["mle_init_passes"]


# (mle.n_iter, mace.mle_init_iters, reused): the tiny config's MLE converges after 6 passes
MLE_CAPS = {"converged before the MACE cap": (25, 8, True),
            "converged after the MACE cap": (25, 4, False),
            "unconverged at the MACE cap": (2, 2, True),
            "unconverged below the MACE cap": (2, 3, False)}


@pytest.mark.parametrize("mle_iter, init_iters, reused", MLE_CAPS.values(), ids=MLE_CAPS)
def test_mace_start_is_reused_only_when_it_equals_the_computed_one(
        pipeline_dir, tmp_path, mle_iter, init_iters, reused):
    out, _ = pipeline_dir
    cfg = tiny_config(tmp_path)
    cfg["mle"]["n_iter"], cfg["mace"]["mle_init_iters"] = mle_iter, init_iters
    config_path = write_config(tmp_path, cfg)
    for name in ("transmission.pcmd", "air_totals.pcmd", "calibration.pcmdcal"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    for method in ("mle", "mace"):
        assert main(["decompose", "--config", config_path, "--method", method]) == 0
    summary = mace_summary(tmp_path)
    assert summary["mle_init_reused"] is reused
    assert summary["mle_init_passes"] == min(init_iters, 6)
    output = (tmp_path / "pathlengths_mace.pcmd").read_bytes()
    assert computed_mace(tmp_path, config_path) == output


def test_mace_log_counts_rows_without_counts(pipeline_dir, tmp_path):
    out, config_path = pipeline_dir
    assert mace_summary(out)["empty_rows"] == 0
    copy_outputs(out, tmp_path)
    t, labels = read_array(tmp_path / "transmission.pcmd")
    t[3, 10:13] = 0.0
    write_array(tmp_path / "transmission.pcmd", t, labels)
    assert main(["decompose", "--config", config_path, "--out", str(tmp_path),
                 "--method", "mace"]) == 0
    assert mace_summary(tmp_path)["empty_rows"] == 3


def test_mace_computes_its_start_after_the_transmission_changes(pipeline_dir, tmp_path):
    out, config_path = pipeline_dir
    copy_outputs(out, tmp_path)
    t, labels = read_array(tmp_path / "transmission.pcmd")
    write_array(tmp_path / "transmission.pcmd", t * 0.999, labels)
    assert main(["decompose", "--config", config_path, "--out", str(tmp_path),
                 "--method", "mace"]) == 0
    assert mace_summary(tmp_path)["mle_init_reused"] is False


@pytest.mark.parametrize("log", ["not json\n", "[1]\n", '"pass"\n', '{"pass": 0}\n',
                                 '{"pass": 0, "max_step_cm": "small"}\n', ""])
def test_a_malformed_mle_log_under_a_current_manifest_means_a_computed_start(
        pipeline_dir, tmp_path, capsys, log):
    out, config_path = pipeline_dir
    copy_outputs(out, tmp_path)
    (tmp_path / "decompose_mle.log.jsonl").write_text(log)
    manifest = json.loads((tmp_path / "manifest_decompose_mle.json").read_text())
    manifest["outputs"]["decompose_mle.log.jsonl"] = hashlib.sha256(log.encode()).hexdigest()
    (tmp_path / "manifest_decompose_mle.json").write_text(json.dumps(manifest))
    assert Stage("decompose_mle", PipelineConfig.from_file(config_path), str(tmp_path)).up_to_date()
    assert main(["decompose", "--config", config_path, "--out", str(tmp_path),
                 "--method", "mace"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert mace_summary(tmp_path)["mle_init_reused"] is False
    assert (tmp_path / "pathlengths_mace.pcmd").read_bytes() == \
        (out / "pathlengths_mace.pcmd").read_bytes()


# --- pipeline reconstructs only the methods that are not current ---

MLE_IMAGES = ["image_mle_polyethylene.pcmd", "image_mle_pvc.pcmd", "mono70_mle.pcmd",
              "mono70_mle.png"]


def edited_prior(tmp_path, std=4.0):
    """A copy of the tiny config, writing to `tmp_path`, with `prior.std` edited."""
    cfg = tiny_config(tmp_path)
    cfg["prior"]["std"] = [std, std]
    return write_config(tmp_path, cfg)


@pytest.fixture
def fbp_columns(monkeypatch):
    """The sinogram columns of every `fbp_reconstruct` call, as they arrive."""
    from pcmd import recon
    calls = []
    fbp = recon.fbp_reconstruct

    def recording(sino, *args, **kwargs):
        calls.append(np.array(sino))
        return fbp(sino, *args, **kwargs)
    monkeypatch.setattr(recon, "fbp_reconstruct", recording)
    return calls


def columns_of(out, *methods):
    return np.concatenate([read_array(out / f"pathlengths_{m}.pcmd")[0].reshape(45 * 48, -1)
                           for m in methods], axis=1)


def assert_same_outputs(a, b):
    names = sorted(p.name for p in a.iterdir() if p.suffix in (".pcmd", ".png", ".csv"))
    assert names == sorted(p.name for p in b.iterdir() if p.suffix in (".pcmd", ".png", ".csv"))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_a_prior_edit_reconstructs_only_the_mace_images(pipeline_dir, tmp_path, capsys,
                                                        fbp_columns):
    out, _ = pipeline_dir
    edit, forced = copy_outputs(out, tmp_path), tmp_path / "forced"
    config_path = edited_prior(tmp_path)
    before = {name: ((edit / name).read_bytes(), (edit / name).stat().st_mtime_ns)
              for name in MLE_IMAGES}
    assert main(["pipeline", "--config", config_path]) == 0
    assert capsys.readouterr().out.count("up to date, skipping") == 2   # simulate, calibrate
    assert {name: ((edit / name).read_bytes(), (edit / name).stat().st_mtime_ns)
            for name in MLE_IMAGES} == before
    assert len(fbp_columns) == 1 and np.array_equal(fbp_columns[0], columns_of(edit, "mace"))
    assert (edit / "mono70_mace.pcmd").read_bytes() != (out / "mono70_mace.pcmd").read_bytes()
    manifest = json.loads((edit / "manifest_reconstruct.json").read_text())
    assert set(MLE_IMAGES) <= set(manifest["outputs"])   # kept files stay on record
    assert Stage("reconstruct", PipelineConfig.from_file(config_path), str(edit)).up_to_date()

    forced.mkdir()
    copy_outputs(out, forced)
    assert main(["pipeline", "--config", config_path, "--out", str(forced), "--force"]) == 0
    assert_same_outputs(edit, forced)


@pytest.mark.parametrize("name, change", [
    ("image_mle_pvc.pcmd", "edited"), ("mono70_mle.pcmd", "edited"),
    ("mono70_mle.png", "deleted"), ("image_mle_polyethylene.pcmd", "deleted")])
def test_a_kept_image_that_changed_on_disk_is_recomputed(pipeline_dir, tmp_path, capsys,
                                                         fbp_columns, name, change):
    out, config_path = pipeline_dir
    copy_outputs(out, tmp_path)
    if change == "deleted":
        (tmp_path / name).unlink()
    else:
        (tmp_path / name).write_bytes((tmp_path / name).read_bytes()[:-8] + bytes(8))
    mace_mtime = (tmp_path / "mono70_mace.pcmd").stat().st_mtime_ns
    assert main(["pipeline", "--config", config_path, "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("up to date, skipping") == 5 and "reconstruct up to date" not in printed
    assert len(fbp_columns) == 1 and np.array_equal(fbp_columns[0], columns_of(out, "mle"))
    assert (tmp_path / "mono70_mace.pcmd").stat().st_mtime_ns == mace_mtime
    assert_same_outputs(tmp_path, out)


@pytest.mark.parametrize("method", [None, "mle"])
def test_reconstruct_recomputes_every_method_even_when_current(pipeline_dir, tmp_path,
                                                               fbp_columns, method):
    out, config_path = pipeline_dir
    copy_outputs(out, tmp_path)
    cfg = PipelineConfig.from_file(config_path)
    assert Stage("reconstruct", cfg, str(tmp_path)).current == ["mle", "mace"]
    argv = ["reconstruct", "--config", config_path, "--out", str(tmp_path)]
    assert main(argv + (["--method", method] if method else [])) == 0
    methods = [method] if method else ["mle", "mace"]
    assert len(fbp_columns) == 1 and np.array_equal(fbp_columns[0], columns_of(out, *methods))
    assert_same_outputs(tmp_path, out)


def test_pipeline_reruns_a_stage_whose_manifest_lacks_a_method(pipeline_dir, tmp_path, capsys):
    """A `--method` stage command records one method; `pipeline` then reruns its
    stage for the other, and its results match a forced run."""
    out, _ = pipeline_dir
    copy_outputs(out, tmp_path)
    forced = tmp_path / "forced"
    forced.mkdir()
    copy_outputs(out, forced)
    config_path = edited_prior(tmp_path)
    for argv in (["decompose", "--method", "mace"], ["reconstruct", "--method", "mle"]):
        assert main([*argv, "--config", config_path]) == 0
    assert main(["pipeline", "--config", config_path]) == 0
    printed = capsys.readouterr().out
    assert "reconstruct up to date" not in printed and "evaluate up to date" not in printed
    assert (tmp_path / "mono70_mace.pcmd").read_bytes() != (out / "mono70_mace.pcmd").read_bytes()
    assert main(["pipeline", "--config", config_path, "--out", str(forced), "--force"]) == 0
    assert_same_outputs(tmp_path, forced)


def test_pipeline_reruns_an_evaluation_of_one_method(pipeline_dir, tmp_path, capsys):
    out, config_path = pipeline_dir
    copy_outputs(out, tmp_path)
    argv = ["--config", config_path, "--out", str(tmp_path)]
    assert main(["evaluate", "--method", "mle", *argv]) == 0
    assert "mono70_mace" not in (tmp_path / "stats.csv").read_text()
    cfg = PipelineConfig.from_file(config_path)
    assert Stage("evaluate", cfg, str(tmp_path)).current == ["mle"]
    assert main(["pipeline", *argv]) == 0
    printed = capsys.readouterr().out
    assert printed.count("up to date, skipping") == 5 and "evaluate up to date" not in printed
    assert (tmp_path / "stats.csv").read_bytes() == (out / "stats.csv").read_bytes()


UNUSABLE_PATHS = ["--out is a file", "--out under a file", "output_dir is a file",
                  "--config is a directory", "--config is not UTF-8",
                  "an output is a directory", "a manifest is a directory"]


@pytest.mark.parametrize("case", UNUSABLE_PATHS)
def test_unusable_paths_exit_2_naming_the_path(tmp_path, capsys, case):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    out = tmp_path / "out"
    cfg = tiny_config(taken if case == "output_dir is a file" else out)
    config = write_config(tmp_path, cfg)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(cfg).replace("pvc", "p\xe9c").encode("latin-1"))
    argv, path = {
        "--out is a file": (["--config", config, "--out", str(taken)], taken),
        "--out under a file": (["--config", config, "--out", str(taken / "sub")], taken / "sub"),
        "output_dir is a file": (["--config", config], taken),
        "--config is a directory": (["--config", str(tmp_path)], tmp_path),
        "--config is not UTF-8": (["--config", str(latin1)], latin1),
        "an output is a directory": (["--config", config], out / "transmission.pcmd"),
        "a manifest is a directory": (["--config", config], out / "manifest_simulate.json"),
    }[case]
    if case in ("an output is a directory", "a manifest is a directory"):
        path.mkdir(parents=True)
    command = "pipeline" if case == "a manifest is a directory" else "simulate"
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err and "Traceback" not in err


def test_same_seed_reproduces_noisy_outputs(tmp_path):
    for run in ("a", "b"):
        cfg = tiny_config(tmp_path / run)
        path = tmp_path / f"cfg_{run}.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
    ta, _ = read_array(tmp_path / "a" / "transmission.pcmd")
    tb, _ = read_array(tmp_path / "b" / "transmission.pcmd")
    assert ta.tobytes() == tb.tobytes()


def test_seed_override_changes_noisy_outputs(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    ta, _ = read_array(tmp_path / "out" / "transmission.pcmd")
    assert main(["simulate", "--config", path, "--seed", "777"]) == 0
    tb, _ = read_array(tmp_path / "out" / "transmission.pcmd")
    assert not np.array_equal(ta, tb)


def test_seed_flag_fits_one_calibration_in_calibrate_and_pipeline(tmp_path):
    cfg = tiny_config(tmp_path / "a")
    cfg["calibration"]["noise"] = True
    cfg["mle"]["n_iter"] = 2
    cfg["mace"]["n_iter"] = 2
    cfg["mace"]["mle_init_iters"] = 2
    path = write_config(tmp_path, cfg)
    assert main(["calibrate", "--config", path, "--seed", "5"]) == 0
    assert main(["pipeline", "--config", path, "--seed", "5", "--out", str(tmp_path / "b")]) == 0
    assert main(["calibrate", "--config", path, "--out", str(tmp_path / "c")]) == 0
    fits = [(tmp_path / d / "calibration.pcmdcal").read_bytes() for d in "abc"]
    assert fits[0] == fits[1]
    assert fits[0] != fits[2]   # the override reaches the calibration noise


def test_noise_off_runs_are_bitwise_identical(tmp_path):
    cfg = tiny_config(tmp_path / "out", noise=False)
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    ta = (tmp_path / "out" / "transmission.pcmd").read_bytes()
    assert main(["simulate", "--config", path, "--seed", "9"]) == 0
    tb = (tmp_path / "out" / "transmission.pcmd").read_bytes()
    assert ta == tb


def test_decompose_rejects_mismatched_calibration(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    cfg6 = tiny_config(tmp_path / "out")
    cfg6["spectrum"]["n_bins"] = 6
    path6 = tmp_path / "six.json"
    path6.write_text(json.dumps(cfg6))
    assert main(["calibrate", "--config", str(path6)]) == 0
    assert main(["decompose", "--config", path, "--method", "mle"]) == 2


def test_decompose_rejects_a_calibration_fitted_for_other_bin_edges(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    assert main(["calibrate", "--config", path]) == 0  # 40, 50, ..., 120 keV
    cfg["spectrum"]["kvp"] = 100.0                     # 40, 47.5, ..., 100 keV
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    capsys.readouterr()
    assert main(["decompose", "--config", path, "--method", "mle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: decompose: calibration ")
    assert "calibration.pcmdcal" in err and "run calibrate" in err
    assert "120.0]" in err and "47.5" in err
    assert not (tmp_path / "out" / "pathlengths_mle.pcmd").exists()


@pytest.mark.parametrize("spectrum", [{}, {"kvp": 97, "e_min": 23, "n_bins": 7}],
                         ids=["shipped", "other"])
def test_the_bin_edges_are_those_of_the_built_spectrum(spectrum):
    raw = copy.deepcopy(SHIPPED_RAW)
    raw["spectrum"].update(spectrum)
    cfg = PipelineConfig(raw)
    s = cfg.values["spectrum"]
    edges = bin_edges(s["kvp"], s["e_min"], s["n_bins"])
    assert edges.dtype == cfg.spectrum().bin_edges.dtype
    assert edges.tobytes() == cfg.spectrum().bin_edges.tobytes()


def test_decompose_builds_no_spectrum(pipeline_dir, tmp_path, monkeypatch):
    out, config_path = pipeline_dir

    def refuse(*args, **kwargs):
        raise AssertionError("decompose built the spectrum")
    monkeypatch.setattr("pcmd.spectrum.filtered_kramers", refuse)
    before = (out / "pathlengths_mle.pcmd").read_bytes()
    assert main(["decompose", "--config", config_path, "--method", "mle",
                 "--out", str(copy_outputs(out, tmp_path))]) == 0
    assert (tmp_path / "pathlengths_mle.pcmd").read_bytes() == before


def test_reconstruct_without_decompose_fails_cleanly(tmp_path):
    cfg = tiny_config(tmp_path / "empty")
    path = write_config(tmp_path, cfg)
    assert main(["reconstruct", "--config", path]) == 2


def test_shipped_low_contrast_config_is_valid():
    root = os.path.join(os.path.dirname(__file__), "..", "configs", "low_contrast.json")
    cfg = PipelineConfig.from_file(root)
    assert cfg.geometry().n_rays == 360 * 256
    assert cfg.spectrum().n_bins == 8
    assert len(cfg.phantom().disks) == 4
    assert cfg.cnr_pair == ("insert_1p010", "background")
    assert cfg.mace_config().sigma == 0.08
