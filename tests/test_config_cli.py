import copy
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmd.arrayio import read_array
from pcmd.cli import main
from pcmd.config import PipelineConfig
from pcmd.errors import ConfigError
from pcmd.priors import apply_prior, gaussian_prior, rotation_matrix

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
])
def test_configs_a_builder_would_refuse_exit_2(tmp_path, capsys, section, values, path):
    cfg = tiny_config(tmp_path / "out")
    cfg[section].update(values)
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


def test_bounds_that_build_are_accepted(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["geometry"].update(mode="fan", sid_cm=50.0, sdd_cm=100.0, n_views=2**16)
    cfg["spectrum"].update(kvp=150, e_min=20, n_bins=130, filtration_cm_al=10.0)
    cfg["calibration"].update(repeats=10**9, air_counts_total=1e18)  # noiseless: nothing sampled
    built = PipelineConfig(cfg)
    assert (built.geometry().sdd, built.geometry().n_views) == (100.0, 2**16)
    assert built.spectrum().n_bins == 130
    assert built.calibration_design().repeats_per_point == 10**9


def test_decorrelated_prior_accepts_std_pairs():
    cfg = tiny_config("out")
    cfg["prior"] = {"kind": "decorrelated-gaussian", "std": [[1.0, 2.0], 1.5],
                    "rotation_deg": 30.0}
    prior = PipelineConfig(cfg).prior()
    assert prior.std == ((1.0, 2.0), 1.5)
    shape = (12, 10)
    p = np.random.default_rng(3).normal(size=(120, 2))
    rot = rotation_matrix(math.radians(30.0))
    expected = apply_prior(gaussian_prior([(1.0, 2.0), 1.5]), p @ rot.T, shape) @ rot
    assert np.allclose(apply_prior(prior, p, shape), expected, rtol=0, atol=1e-12)


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
    spectrum = cfg.spectrum()
    cfg.geometry(), cfg.grid(), cfg.dose_scale(spectrum), cfg.phantom()
    cfg.calibration_design(), cfg.mle_config(), cfg.mace_config(), cfg.rois()


def test_bad_json_reports_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        PipelineConfig.from_file(str(path))


# --- CLI end to end ---

def test_cli_exit_codes(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["mace"]["rho"] = 2.0
    bad = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", bad]) == 2
    assert not (tmp_path / "out").exists()  # validation precedes any output
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    # numeric failure: order-4 fit with too few calibration points
    cfg = tiny_config(tmp_path / "out2")
    cfg["calibration"]["points_per_axis"] = [3, 3]
    few = write_config(tmp_path, cfg)
    assert main(["calibrate", "--config", few]) == 3


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
