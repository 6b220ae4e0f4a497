"""Pipeline stages behind the command-line interface.

`STAGES` declares every stage once: the config sections its manifest
hashes, the files it reads and writes, and the command that runs it.  Each
`cmd_*` and `pipeline` read it.  Stages share an output directory and
record content-addressed manifests (SHA-256 of inputs and outputs plus a
hash of the config sections they consume), so `pipeline`, a loop over
`STAGES`, can resume: a stage is skipped when its manifest still matches.
Arrays travel in the portable container format; run logs are JSON-lines.
"""

import hashlib
import json
import os
import time
from typing import NamedTuple

import numpy as np

from .arrayio import read_array, write_array, write_png_preview
from .calibration import calibrate_drf, load_calibration, save_calibration
from .config import PipelineConfig
from .errors import ConfigError, ToolkitError
from .metrics import cnr, roi_stats
from .recon import MaterialImage, reconstruct_materials, synthesize_mono
from .simulate import scan_phantom
from .solver import mle_decompose, run_mace

METHODS = ("mle", "mace")


class StageSpec(NamedTuple):
    """What one stage hashes, reads and writes, and how `pipeline` runs it."""

    sections: tuple  # config sections its manifest hashes
    inputs: tuple    # file-name templates, expanded by `_files`
    outputs: tuple
    run: object      # (cfg, out_dir) -> written paths


# Every stage, in pipeline order.  The `run` lambdas look the commands up when
# called, so a command wrapped after import (the benchmark's traced runs) is the
# one `pipeline` calls.  The MLE reads only `mle` and `calibration`, but its
# entry still lists `mace` and `prior`, so a prior edit reruns it; narrowing it
# (ROADMAP O1) moves the skip and pass counts the benchmark's tests pin.
_DECOMPOSE_INPUTS = ("transmission.pcmd", "air_totals.pcmd", "calibration.pcmdcal")
STAGES = {
    "simulate": StageSpec(
        ("geometry", "spectrum", "materials", "phantom", "dose"), (),
        ("transmission.pcmd", "air_totals.pcmd", "pathlengths_true.pcmd"),
        lambda cfg, out: cmd_simulate(cfg, out)),
    "calibrate": StageSpec(
        ("geometry", "spectrum", "materials", "calibration"), (), ("calibration.pcmdcal",),
        lambda cfg, out: cmd_calibrate(cfg, out)),
    "decompose_mle": StageSpec(
        ("mle", "mace", "prior", "calibration"), _DECOMPOSE_INPUTS,
        ("pathlengths_mle.pcmd", "decompose_mle.log.jsonl"),
        lambda cfg, out: cmd_decompose(cfg, "mle", out)),
    "decompose_mace": StageSpec(
        ("mle", "mace", "prior", "calibration"), _DECOMPOSE_INPUTS,
        ("pathlengths_mace.pcmd", "decompose_mace.log.jsonl"),
        lambda cfg, out: cmd_decompose(cfg, "mace", out)),
    "reconstruct": StageSpec(
        ("geometry", "grid", "recon", "materials"), ("pathlengths_{m}.pcmd",),
        ("image_{m}_{mat}.pcmd", "mono{kev:g}_{m}.pcmd", "mono{kev:g}_{m}.png"),
        lambda cfg, out: cmd_reconstruct(cfg, out)),
    "evaluate": StageSpec(
        ("rois", "cnr", "recon"), ("mono{kev:g}_{m}.pcmd",), ("stats.csv",),
        lambda cfg, out: cmd_evaluate(cfg, out)),
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


def _files(templates, cfg: PipelineConfig, out: str, methods=()) -> list:
    """Paths in `out` named by `templates`: one per method where a template has
    {m}, one per material where it has {mat}; {kev} is the mono energy."""
    kev = cfg.values["recon"]["mono_kev"]
    paths = []
    for t in templates:
        ms = methods if "{m}" in t else [None]
        mats = cfg.material_names if "{mat}" in t else [None]
        paths += [os.path.join(out, t.format(m=m, mat=mat, kev=kev)) for m in ms for mat in mats]
    return paths


class Stage:
    """Manifest bookkeeping and file names for one stage of `STAGES`."""

    def __init__(self, name: str, cfg: PipelineConfig, out_dir: str, methods=METHODS):
        self.name = name
        self.cfg = cfg
        self.spec = STAGES[name]
        self.out_dir = out_dir
        self.manifest_path = os.path.join(out_dir, f"manifest_{name}.json")
        self.config_hash = _config_hash(cfg, self.spec.sections)
        self.inputs = _files(self.spec.inputs, cfg, out_dir, methods)
        self.t0 = time.perf_counter()

    def outputs(self, method=None) -> list:
        """Output paths, for one method where the stage writes per method."""
        return _files(self.spec.outputs, self.cfg, self.out_dir, [method])

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


def _available(name: str, cfg: PipelineConfig, out: str, methods) -> list:
    """The methods (default: all) whose input files for stage `name` exist."""
    return [m for m in (methods or METHODS)
            if all(os.path.exists(p) for p in _files(STAGES[name].inputs, cfg, out, [m]))]


def cmd_simulate(cfg: PipelineConfig, out_dir=None) -> list:
    """Simulate the scan; writes transmission, air totals, and true pathlengths."""
    out = _paths(cfg, out_dir)
    stage = Stage("simulate", cfg, out)
    geometry = cfg.geometry()
    spectrum = cfg.spectrum()
    materials = cfg.materials()
    phantom = cfg.phantom()
    dose = cfg.dose_scale(spectrum)
    counts, trans, p_true = scan_phantom(phantom, geometry, spectrum, materials, dose,
                                         noise=cfg.noise, seed=cfg.seed)

    v, c = geometry.n_views, geometry.n_channels
    arrays = [(trans.t.reshape(v, c, -1), ["view", "channel", "bin"]),
              (counts.air_total.reshape(v, c), ["view", "channel"]),
              (p_true.reshape(v, c, -1), ["view", "channel", "material"])]
    written = stage.outputs()
    for path, (arr, labels) in zip(written, arrays):
        write_array(path, arr, labels)
    stage.finish(written)
    return written


def cmd_calibrate(cfg: PipelineConfig, out_dir=None) -> list:
    """Run the slab protocol and fit the detector response; prints fit residual."""
    out = _paths(cfg, out_dir)
    stage = Stage("calibrate", cfg, out)
    cal = cfg.values["calibration"]
    drf = calibrate_drf(cfg.spectrum(), cfg.materials(), cfg.calibration_design(),
                        cfg.geometry(), order=cal["order"], domain=cfg.calibration_domain(),
                        air_counts_total=cal["air_counts_total"], noise=cal["noise"],
                        seed=cfg.cal_seed)
    written = stage.outputs()
    save_calibration(written[0], drf)
    print(f"calibrate: max fit residual {drf.fit_residual:.3e} over "
          f"{drf.n_channels} channels x {drf.n_bins} bins")
    stage.finish(written)
    return written


def cmd_decompose(cfg: PipelineConfig, method: str, out_dir=None) -> list:
    """Decompose the transmission sinogram into material pathlengths."""
    if method not in METHODS:
        raise ConfigError(f"decompose: method must be one of {METHODS}, got {method!r}")
    out = _paths(cfg, out_dir)
    stage = Stage(f"decompose_{method}", cfg, out)
    stage.require_inputs()
    t_path, air_path, cal_path = stage.inputs
    t_sino, _ = read_array(t_path)
    air, _ = read_array(air_path)
    v, c, k = t_sino.shape
    t_sino, air = t_sino.reshape(v * c, k), air.reshape(v * c)
    drf = load_calibration(cal_path)
    if drf.n_bins != k:
        raise ConfigError(f"decompose: calibration has {drf.n_bins} bins but sinogram has {k}")
    if drf.n_channels not in (1, c):
        raise ConfigError(
            f"decompose: calibration has {drf.n_channels} channels but sinogram has {c}")
    t0 = time.perf_counter()
    if method == "mle":
        result = mle_decompose(t_sino, air, drf, cfg.mle_config())
        summary = {"iterations": cfg.values["mle"]["n_iter"], "passes": len(result.steps)}
    else:
        result = run_mace(t_sino, air, drf, cfg.mace_config(domain=drf.domain), sino_shape=(v, c))
        summary = {"iterations": cfg.values["mace"]["n_iter"],
                   "mle_init_passes": len(result.mle_init.steps)}
    elapsed = time.perf_counter() - t0

    path, log_path = stage.outputs()
    write_array(path, result.p.reshape(v, c, -1), ["view", "channel", "material"])
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
    methods = _available("reconstruct", cfg, out, methods)
    if not methods:
        raise ConfigError("reconstruct: no decomposed sinograms found (run decompose first)")
    stage = Stage("reconstruct", cfg, out, methods)
    recon = cfg.values["recon"]
    geometry = cfg.geometry()
    grid = cfg.grid()
    materials = cfg.materials()
    sinos = [read_array(path)[0] for path in stage.inputs]
    shape = (geometry.n_views, geometry.n_channels, len(materials))
    for path, p in zip(stage.inputs, sinos):
        if p.shape != shape:
            raise ToolkitError(f"reconstruct: {path} is {p.shape}, expected {shape}")
    # every material of every method in one FBP call, then one image per method
    columns = np.concatenate([p.reshape(geometry.n_rays, -1) for p in sinos], axis=1)
    image = reconstruct_materials(columns, geometry, grid, hann=recon["hann"])
    written = []
    for method, values in zip(methods, np.split(image.values, len(methods), axis=2)):
        *images, mono_path, png_path = stage.outputs(method)
        for j, path in enumerate(images):
            write_array(path, values[:, :, j], ["x", "y"])
        mono = synthesize_mono(MaterialImage(values, grid), materials, recon["mono_kev"],
                               hounsfield=True)
        write_array(mono_path, mono.values, ["x", "y"])
        write_png_preview(png_path, mono.values, recon["window_center"], recon["window_width"])
        written += [*images, mono_path, png_path]
    stage.finish(written)
    return written


def cmd_evaluate(cfg: PipelineConfig, out_dir=None, methods=None) -> list:
    """ROI statistics (and CNR when configured) for every reconstructed method."""
    out = _paths(cfg, out_dir)
    methods = _available("evaluate", cfg, out, methods)
    if not methods:
        raise ConfigError("evaluate: no reconstructed images found (run reconstruct first)")
    stage = Stage("evaluate", cfg, out, methods)
    grid = cfg.grid()
    roi = cfg.rois()
    rows = [("image", "label", "mean", "std")]
    cnr_rows = []
    for path in stage.inputs:
        img, _ = read_array(path)
        name = os.path.splitext(os.path.basename(path))[0]
        if roi.circles:
            for label, (mean, std) in roi_stats(img, grid, roi).items():
                rows.append((name, label, f"{mean:.6g}", f"{std:.6g}"))
        if cfg.cnr_pair:
            tgt, bgd = cfg.cnr_pair
            value = cnr(img, grid, roi.get(tgt), roi.get(bgd))
            cnr_rows.append((name, f"cnr:{tgt}/{bgd}", f"{value:.6g}", ""))
    rows.extend(cnr_rows)
    written = stage.outputs()
    with open(written[0], "w") as fh:
        for r in rows:
            fh.write(",".join(str(x) for x in r) + "\n")
    stage.finish(written)
    return written


def cmd_pipeline(cfg: PipelineConfig, out_dir=None, force: bool = False) -> list:
    """Run every stage of `STAGES` in order, skipping those whose manifests are current."""
    out = _paths(cfg, out_dir)
    written = []
    for name, spec in STAGES.items():
        if not force and Stage(name, cfg, out).up_to_date():
            print(f"pipeline: {name} up to date, skipping")
            continue
        written.extend(spec.run(cfg, out))
    return written
