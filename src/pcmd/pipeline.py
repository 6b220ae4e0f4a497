"""Pipeline stages behind the command-line interface.

Stages share an output directory and record content-addressed manifests
(SHA-256 of inputs and outputs plus a hash of the config sections they
consume), so `pipeline` can resume: a stage is skipped when its manifest
still matches.  Arrays travel in the portable container format; run logs
are JSON-lines.
"""

import hashlib
import json
import os
import time

from .arrayio import read_array, write_array, write_png_preview
from .calibration import calibrate_drf, load_calibration, save_calibration
from .config import PipelineConfig
from .errors import ConfigError
from .metrics import cnr, roi_stats
from .recon import reconstruct_materials, synthesize_mono
from .simulate import scan_phantom
from .solver import mle_decompose, run_mace

METHODS = ("mle", "mace")

# Config sections each decomposition's manifest hashes; `decompose` and
# `pipeline` both read this table.  The MLE reads only `mle` and
# `calibration`, but its entry still lists `mace` and `prior`, so a prior
# edit reruns it (see ROADMAP O3).
DECOMPOSE_SECTIONS = {
    "mle": ["mle", "mace", "prior", "calibration"],
    "mace": ["mle", "mace", "prior", "calibration"],
}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _config_hash(cfg: PipelineConfig, sections) -> str:
    payload = {s: cfg.raw.get(s) for s in sections}
    payload["seed"] = cfg.seed
    payload["noise"] = cfg.noise
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class Stage:
    """Manifest bookkeeping for one pipeline stage."""

    def __init__(self, name: str, cfg: PipelineConfig, out_dir: str, sections, inputs=()):
        self.name = name
        self.out_dir = out_dir
        self.manifest_path = os.path.join(out_dir, f"manifest_{name}.json")
        self.config_hash = _config_hash(cfg, sections)
        self.inputs = list(inputs)
        self.t0 = time.perf_counter()

    def require_inputs(self):
        for path in self.inputs:
            if not os.path.exists(path):
                raise ConfigError(f"{self.name}: missing input file {path} (run the upstream stage)")

    def up_to_date(self) -> bool:
        try:
            with open(self.manifest_path) as fh:
                m = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return False
        if m.get("config_hash") != self.config_hash:
            return False
        for path, digest in {**m.get("inputs", {}), **m.get("outputs", {})}.items():
            if not os.path.exists(path) or _sha256(path) != digest:
                return False
        return True

    def finish(self, outputs):
        manifest = {
            "stage": self.name,
            "config_hash": self.config_hash,
            "inputs": {p: _sha256(p) for p in self.inputs},
            "outputs": {p: _sha256(p) for p in outputs},
            "elapsed_s": round(time.perf_counter() - self.t0, 3),
        }
        with open(self.manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)


def _paths(cfg: PipelineConfig, out_override=None):
    out = out_override or cfg.output_dir
    if not os.path.isabs(out):
        out = os.path.join(cfg.base_dir, out)
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(cfg: PipelineConfig, out_dir=None) -> list:
    """Simulate the scan; writes transmission, air totals, and true pathlengths."""
    out = _paths(cfg, out_dir)
    stage = Stage("simulate", cfg, out,
                  ["geometry", "spectrum", "materials", "phantom", "dose"])
    geometry = cfg.geometry()
    spectrum = cfg.spectrum()
    materials = cfg.materials()
    phantom = cfg.phantom()
    dose = cfg.dose_scale(spectrum)
    counts, trans = scan_phantom(phantom, geometry, spectrum, materials, dose,
                                 noise=cfg.noise, seed=cfg.seed)
    pts, dirs = geometry.all_rays()
    p_true = phantom.pathlengths(pts, dirs)

    v, c = geometry.n_views, geometry.n_channels
    k = spectrum.n_bins
    l = len(materials)
    files = {
        "transmission.pcmd": (trans.t.reshape(v, c, k), ["view", "channel", "bin"]),
        "air_totals.pcmd": (counts.air_total.reshape(v, c), ["view", "channel"]),
        "pathlengths_true.pcmd": (p_true.reshape(v, c, l), ["view", "channel", "material"]),
    }
    written = []
    for name, (arr, labels) in files.items():
        path = os.path.join(out, name)
        write_array(path, arr, labels)
        written.append(path)
    stage.finish(written)
    return written


def cmd_calibrate(cfg: PipelineConfig, out_dir=None) -> list:
    """Run the slab protocol and fit the detector response; prints fit residual."""
    out = _paths(cfg, out_dir)
    stage = Stage("calibrate", cfg, out, ["geometry", "spectrum", "materials", "calibration"])
    drf = calibrate_drf(cfg.spectrum(), cfg.materials(), cfg.calibration_design(),
                        cfg.geometry(), order=cfg.cal_order, domain=cfg.calibration_domain(),
                        air_counts_total=cfg.cal_air_counts, noise=cfg.cal_noise,
                        seed=cfg.cal_seed)
    path = os.path.join(out, "calibration.pcmdcal")
    save_calibration(path, drf)
    print(f"calibrate: max fit residual {drf.fit_residual:.3e} over "
          f"{drf.n_channels} channels x {drf.n_bins} bins")
    stage.finish([path])
    return [path]


def _load_sino(out: str):
    t_sino, _ = read_array(os.path.join(out, "transmission.pcmd"))
    air, _ = read_array(os.path.join(out, "air_totals.pcmd"))
    v, c, k = t_sino.shape
    return t_sino.reshape(v * c, k), air.reshape(v * c), (v, c)


def cmd_decompose(cfg: PipelineConfig, method: str, out_dir=None) -> list:
    """Decompose the transmission sinogram into material pathlengths."""
    if method not in METHODS:
        raise ConfigError(f"decompose: method must be one of {METHODS}, got {method!r}")
    out = _paths(cfg, out_dir)
    stage = Stage(f"decompose_{method}", cfg, out, DECOMPOSE_SECTIONS[method],
                  inputs=[os.path.join(out, "transmission.pcmd"),
                          os.path.join(out, "air_totals.pcmd"),
                          os.path.join(out, "calibration.pcmdcal")])
    stage.require_inputs()
    t_sino, air, (v, c) = _load_sino(out)
    drf = load_calibration(os.path.join(out, "calibration.pcmdcal"))
    if drf.n_bins != t_sino.shape[1]:
        raise ConfigError(
            f"decompose: calibration has {drf.n_bins} bins but sinogram has {t_sino.shape[1]}")
    if drf.n_channels not in (1, c):
        raise ConfigError(
            f"decompose: calibration has {drf.n_channels} channels but sinogram has {c}")
    t0 = time.perf_counter()
    if method == "mle":
        result = mle_decompose(t_sino, air, drf, cfg.mle_config())
        summary = {"iterations": cfg.mle_iters, "passes": len(result.steps)}
    else:
        result = run_mace(t_sino, air, drf, cfg.mace_config(domain=drf.domain), sino_shape=(v, c))
        summary = {"iterations": cfg.mace_iters, "mle_init_passes": len(result.mle_init.steps)}
    elapsed = time.perf_counter() - t0

    path = os.path.join(out, f"pathlengths_{method}.pcmd")
    write_array(path, result.p.reshape(v, c, -1), ["view", "channel", "material"])
    log_path = os.path.join(out, f"decompose_{method}.log.jsonl")
    with open(log_path, "w") as fh:
        for i, step in enumerate(result.steps):
            fh.write(json.dumps({"pass": i, "max_step_cm": step}) + "\n")
        for i, r in enumerate(result.residuals):
            fh.write(json.dumps({"iteration": i, "equilibrium_residual": r}) + "\n")
        fh.write(json.dumps({
            "method": method,
            "rows": v * c,
            **summary,
            "flagged_rows": 0 if result.flagged_rows is None else int(result.flagged_rows.size),
            "elapsed_s": round(elapsed, 3),
            "seconds_per_row": elapsed / (v * c),
        }) + "\n")
    stage.finish([path, log_path])
    return [path, log_path]


def cmd_reconstruct(cfg: PipelineConfig, out_dir=None, methods=None) -> list:
    """FBP material images and the virtual mono-energy image, plus PNG previews."""
    out = _paths(cfg, out_dir)
    methods = [m for m in (methods or METHODS)
               if os.path.exists(os.path.join(out, f"pathlengths_{m}.pcmd"))]
    if not methods:
        raise ConfigError("reconstruct: no decomposed sinograms found (run decompose first)")
    stage = Stage("reconstruct", cfg, out, ["geometry", "grid", "recon", "materials"],
                  inputs=[os.path.join(out, f"pathlengths_{m}.pcmd") for m in methods])
    stage.require_inputs()
    geometry = cfg.geometry()
    grid = cfg.grid()
    materials = cfg.materials()
    written = []
    for method in methods:
        p, _ = read_array(os.path.join(out, f"pathlengths_{method}.pcmd"))
        v, c, l = p.shape
        image = reconstruct_materials(p.reshape(v * c, l), geometry, grid, hann=cfg.recon_hann)
        for j, name in enumerate(cfg.material_names):
            path = os.path.join(out, f"image_{method}_{name}.pcmd")
            write_array(path, image.values[:, :, j], ["x", "y"])
            written.append(path)
        mono = synthesize_mono(image, materials, cfg.mono_kev, hounsfield=True)
        path = os.path.join(out, f"mono{cfg.mono_kev:g}_{method}.pcmd")
        write_array(path, mono.values, ["x", "y"])
        written.append(path)
        png = os.path.join(out, f"mono{cfg.mono_kev:g}_{method}.png")
        write_png_preview(png, mono.values, cfg.window_center, cfg.window_width)
        written.append(png)
    stage.finish(written)
    return written


def cmd_evaluate(cfg: PipelineConfig, out_dir=None, methods=None) -> list:
    """ROI statistics (and CNR when configured) for every reconstructed method."""
    out = _paths(cfg, out_dir)
    methods = [m for m in (methods or METHODS)
               if os.path.exists(os.path.join(out, f"mono{cfg.mono_kev:g}_{m}.pcmd"))]
    if not methods:
        raise ConfigError("evaluate: no reconstructed images found (run reconstruct first)")
    stage = Stage("evaluate", cfg, out, ["rois", "cnr", "recon"],
                  inputs=[os.path.join(out, f"mono{cfg.mono_kev:g}_{m}.pcmd") for m in methods])
    stage.require_inputs()
    grid = cfg.grid()
    roi = cfg.rois()
    rows = [("image", "label", "mean", "std")]
    cnr_rows = []
    for method in methods:
        img, _ = read_array(os.path.join(out, f"mono{cfg.mono_kev:g}_{method}.pcmd"))
        name = f"mono{cfg.mono_kev:g}_{method}"
        if roi.circles:
            for label, (mean, std) in roi_stats(img, grid, roi).items():
                rows.append((name, label, f"{mean:.6g}", f"{std:.6g}"))
        if cfg.cnr_pair:
            tgt, bgd = cfg.cnr_pair
            value = cnr(img, grid, roi.get(tgt), roi.get(bgd))
            cnr_rows.append((name, f"cnr:{tgt}/{bgd}", f"{value:.6g}", ""))
    rows.extend(cnr_rows)
    path = os.path.join(out, "stats.csv")
    with open(path, "w") as fh:
        for r in rows:
            fh.write(",".join(str(x) for x in r) + "\n")
    stage.finish([path])
    return [path]


def cmd_pipeline(cfg: PipelineConfig, out_dir=None, force: bool = False) -> list:
    """Run every stage in order, skipping stages whose manifests are current."""
    out = _paths(cfg, out_dir)
    written = []

    def run(name, fn, sections, inputs=()):
        stage = Stage(name, cfg, out, sections, inputs=inputs)
        if not force and stage.up_to_date():
            print(f"pipeline: {name} up to date, skipping")
            return
        written.extend(fn())

    run("simulate", lambda: cmd_simulate(cfg, out),
        ["geometry", "spectrum", "materials", "phantom", "dose"])
    run("calibrate", lambda: cmd_calibrate(cfg, out),
        ["geometry", "spectrum", "materials", "calibration"])
    for method in METHODS:
        run(f"decompose_{method}", lambda m=method: cmd_decompose(cfg, m, out),
            DECOMPOSE_SECTIONS[method],
            inputs=[os.path.join(out, "transmission.pcmd"),
                    os.path.join(out, "air_totals.pcmd"),
                    os.path.join(out, "calibration.pcmdcal")])
    run("reconstruct", lambda: cmd_reconstruct(cfg, out),
        ["geometry", "grid", "recon", "materials"],
        inputs=[os.path.join(out, f"pathlengths_{m}.pcmd") for m in METHODS])
    run("evaluate", lambda: cmd_evaluate(cfg, out),
        ["rois", "cnr", "recon"],
        inputs=[os.path.join(out, f"mono{cfg.mono_kev:g}_{m}.pcmd") for m in METHODS])
    return written
