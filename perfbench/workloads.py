"""Workload definitions: each turns a seed into a pcmd config.

The shipped low-contrast study (configs/low_contrast.json) is copied here
rather than read at run time, so a change to the shipped config cannot
silently change what the benchmark measures.  Every workload is scaled down
from the full 360 x 256 scan so that a 35-second run repeats its unit of work
several times; the scaling keeps each workload's stage mix (which layer does
most of the work) rather than its size.  The Gaussian prior's std is given in
sinogram samples, so it is rescaled to the workload's sampling: the prior
keeps the angular and lateral width it has on the shipped scan.
"""

import copy
import math

BASE_CONFIG = {
    "seed": 2024,
    "noise": True,
    "materials": ["polyethylene", "pvc"],
    "geometry": {"mode": "parallel", "n_views": 360, "n_channels": 256, "spacing_cm": 0.1},
    "grid": {"n_x": 256, "n_y": 256, "pixel_cm": 0.1},
    "spectrum": {"kvp": 120.0, "e_min": 40.0, "n_bins": 8, "filtration_cm_al": 0.3,
                 "k_lines": True},
    "dose": {"air_counts_total": 300000.0},
    "phantom": {
        "disks": [
            {"center": [0.0, 0.0], "radius": 10.0, "water_density": 1.0},
            {"center": [5.0, 0.0], "radius": 1.5, "water_density_excess": 0.01},
            {"center": [-2.5, 4.33], "radius": 1.2, "water_density_excess": 0.005},
            {"center": [-2.5, -4.33], "radius": 1.0, "water_density_excess": 0.003},
        ]
    },
    "calibration": {
        "order": 4,
        "points_per_axis": [9, 9],
        "domain": [[0.0, 40.0], [0.0, 5.0]],
        "repeats": 100,
        "air_counts_total": 1000000.0,
        "noise": False,
    },
    "mle": {"grid_points": [41, 41], "n_iter": 100, "sigma": 1000.0},
    "mace": {"rho": 0.8, "n_iter": 20, "sigma": 0.08, "n_sub": 1, "mle_init_iters": 15},
    "prior": {"kind": "gaussian", "std": [3.0, 3.0]},
    "recon": {"mono_kev": 70.0, "hann": False, "window_center": 1000.0, "window_width": 20.0},
    "rois": [
        {"label": "background", "center": [2.5, 4.33], "radius": 1.2},
        {"label": "insert_1p010", "center": [5.0, 0.0], "radius": 0.9},
        {"label": "insert_1p005", "center": [-2.5, 4.33], "radius": 0.7},
        {"label": "insert_1p003", "center": [-2.5, -4.33], "radius": 0.6},
    ],
    "cnr": {"target": "insert_1p010", "background": "background"},
}

# The six stage commands of a fresh study, in order, as a user types them.
STAGE_COMMANDS = (
    ("simulate", ["simulate"]),
    ("calibrate", ["calibrate"]),
    ("decompose_mle", ["decompose", "--method", "mle"]),
    ("decompose_mace", ["decompose", "--method", "mace"]),
    ("reconstruct", ["reconstruct"]),
    ("evaluate", ["evaluate"]),
)


def _view_step_rad(geometry):
    span = math.pi if geometry["mode"] == "parallel" else 2.0 * math.pi
    return span / geometry["n_views"]


def _iso_spacing_cm(geometry):
    """Channel spacing at the isocentre: fan spacing is given at the detector."""
    if geometry["mode"] == "fan":
        return geometry["spacing_cm"] * geometry["sid_cm"] / geometry["sdd_cm"]
    return geometry["spacing_cm"]


def sample_scale(geometry):
    """(views, channels) factors from shipped-scan samples to this geometry's samples."""
    shipped = BASE_CONFIG["geometry"]
    return (_view_step_rad(shipped) / _view_step_rad(geometry),
            _iso_spacing_cm(shipped) / _iso_spacing_cm(geometry))


class Workload:
    """A named config recipe plus the config edits its reruns apply.

    `edits` lists the `prior.std` value, on the shipped scan's scale, set
    before each `pcmd pipeline` rerun; None reruns without an edit (the
    resume path).  `mace_rmse_limit` bounds the MACE pathlength RMSE as a
    multiple of the MLE's, a check that the prior has not smeared the scan.
    """

    def __init__(self, name, overrides, edits, mace_rmse_limit):
        self.name = name
        self.overrides = overrides
        self.edits = edits
        self.mace_rmse_limit = mace_rmse_limit

    def config(self, seed, prior_std=None):
        """The generated config: seed from the benchmark, nothing else random.

        `prior_std` is the std on the shipped scan (default: the shipped
        prior's); the config holds it in this workload's samples.
        `calibration.seed` stays unset so the program derives it as users get it.
        """
        cfg = copy.deepcopy(BASE_CONFIG)
        for section, values in self.overrides.items():
            cfg[section].update(copy.deepcopy(values))
        cfg["seed"] = int(seed)
        cfg["output_dir"] = "out"
        shipped = BASE_CONFIG["prior"]["std"]
        stds = shipped if prior_std is None else [prior_std] * len(shipped)
        per_view, per_channel = sample_scale(cfg["geometry"])
        cfg["prior"]["std"] = [[s * per_view, s * per_channel] for s in stds]
        return cfg

    def rows(self):
        g = self.config(0)["geometry"]
        return g["n_views"] * g["n_channels"]


# BENCHMARK.json says why each workload is there.  The reruns without an edit
# are cheap (every stage is skipped) and give retune_s more samples per run.
WORKLOADS = {
    w.name: w for w in (
        # The headline study, 8,640 rows: MLE refinement passes dominate.
        # A shipped-width prior lowers the pathlength error below the MLE's.
        Workload(
            "low_contrast",
            {"geometry": {"n_views": 90, "n_channels": 96, "spacing_cm": 0.25}},
            edits=[None, None, None], mace_rmse_limit=1.0,
        ),
        # Fan beam, 34,560 rows, noisy per-channel calibration, short schedule.
        Workload(
            "fan_noisy_cal",
            {"geometry": {"mode": "fan", "n_views": 360, "n_channels": 96, "spacing_cm": 0.5,
                          "sid_cm": 50.0, "sdd_cm": 100.0},
             "calibration": {"noise": True, "repeats": 100},
             "mle": {"n_iter": 5},
             "mace": {"n_iter": 5, "mle_init_iters": 3}},
            edits=[None, None, None], mace_rmse_limit=1.0,
        ),
        # Prior tuning on 3,840 rows.  The last edit, twice the shipped width,
        # blurs edges: its MACE pathlength RMSE is about twice the MLE's.
        Workload(
            "prior_sweep",
            {"geometry": {"n_views": 60, "n_channels": 64, "spacing_cm": 0.4}},
            edits=[1.5, 6.0], mace_rmse_limit=3.0,
        ),
    )
}
