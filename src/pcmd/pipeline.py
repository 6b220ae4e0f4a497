"""Pipeline stages behind the command-line interface.

`STAGES` declares every stage once: the config sections its manifest
hashes, the files it reads and writes, and the command that runs it.  A
`Stage` owns one run: its output directory, the methods whose inputs exist,
and every array file, labelled on write and checked on read against `AXES`,
which also fixes the shape each array has in memory.  Each `cmd_*` holds only
its computation.  Manifests record SHA-256 of inputs and outputs, by file
name within the stage's directory, plus a hash of the config sections a stage
consumes.  A method is current when the manifest, under the same config hash,
names each of its files with a matching digest; `pipeline`, a loop over
`STAGES`, skips a stage whose methods are all current and keeps the images of
a current method when it reconstructs the others.

A module loads where it is first needed: `cmd_simulate` imports `simulate`,
`cmd_calibrate` and `cmd_decompose` import `calibration`, and the config
builders import the module of what they build.  A process compiles only the
modules its command runs; a `pipeline` that skips every stage loads no
simulation, calibration, phantom or spectrum code.
"""

import dataclasses
import functools
import hashlib
import json
import os
import time
from typing import NamedTuple

import numpy as np

# The arrayio, metrics, recon and solver names below stay module globals only
# because the benchmark's traced runs patch them here, so `recon`, `metrics` and
# `solver` load even in a run that skips their stages (ROADMAP O4 replaces the
# patching with a run trace).
from . import recon
from .arrayio import read_array, write_array, write_png_preview
from .config import PipelineConfig
from .detector import empty_rows
from .errors import ConfigError, ToolkitError
from .materials import bin_edges
from .metrics import cnr, roi_stats
from .recon import synthesize_mono
from .solver import mle_decompose, run_mace, same_mle_at_cap

METHODS = ("mle", "mace")


class StageSpec(NamedTuple):
    """What one stage hashes, reads and writes, and how `pipeline` runs it."""

    sections: tuple  # config sections its manifest hashes
    inputs: tuple    # file-name templates, expanded by `_files`
    outputs: tuple
    run: object      # (cfg, out_dir, keep) -> written paths; keep: current methods
    none_found: str = ""  # the error when no method has its {m} inputs


# Every stage, in pipeline order.  The `run` lambdas look the commands up when
# called, so a command wrapped after import (the benchmark's traced runs) is the
# one `pipeline` calls.  Only `reconstruct` keeps the outputs of its current
# methods: the other stages write one set of files for every method.  The MLE
# reads only `mle` and `calibration`, but its entry still lists `mace` and
# `prior`, so a prior edit reruns it; narrowing it (ROADMAP O1) moves the skip
# and pass counts the benchmark's tests pin.
_DECOMPOSE_INPUTS = ("transmission.pcmd", "air_totals.pcmd", "calibration.pcmdcal")
STAGES = {
    "simulate": StageSpec(
        ("geometry", "spectrum", "materials", "phantom", "dose"), (),
        ("transmission.pcmd", "air_totals.pcmd", "pathlengths_true.pcmd"),
        lambda cfg, out, keep: cmd_simulate(cfg, out)),
    "calibrate": StageSpec(
        ("geometry", "spectrum", "materials", "calibration"), (), ("calibration.pcmdcal",),
        lambda cfg, out, keep: cmd_calibrate(cfg, out)),
    "decompose_mle": StageSpec(
        ("mle", "mace", "prior", "calibration"), _DECOMPOSE_INPUTS,
        ("pathlengths_mle.pcmd", "decompose_mle.log.jsonl"),
        lambda cfg, out, keep: cmd_decompose(cfg, "mle", out)),
    "decompose_mace": StageSpec(
        ("mle", "mace", "prior", "calibration"), _DECOMPOSE_INPUTS,
        ("pathlengths_mace.pcmd", "decompose_mace.log.jsonl"),
        lambda cfg, out, keep: cmd_decompose(cfg, "mace", out)),
    "reconstruct": StageSpec(
        ("geometry", "grid", "recon", "materials"), ("pathlengths_{m}.pcmd",),
        ("image_{m}_{mat}.pcmd", "mono{kev:g}_{m}.pcmd", "mono{kev:g}_{m}.png"),
        lambda cfg, out, keep: cmd_reconstruct(cfg, out, keep=keep),
        "no decomposed sinograms found (run decompose first)"),
    "evaluate": StageSpec(
        ("rois", "cnr", "recon"), ("mono{kev:g}_{m}.pcmd",), ("stats.csv",),
        lambda cfg, out, keep: cmd_evaluate(cfg, out),
        "no reconstructed images found (run reconstruct first)"),
}

# The axes of every array a stage writes, by file-name prefix, and the rule its
# values keep beyond being finite: a ufunc comparing each value with 0, and its wording.
AXES = {
    "transmission": (("view", "channel", "bin"), (np.greater_equal, "nonnegative")),
    "air_totals": (("view", "channel"), (np.greater, "positive")),
    "pathlengths": (("view", "channel", "material"), None),
    "image": (("x", "y"), None),
    "mono": (("x", "y"), None),
}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _config_hash(cfg: PipelineConfig, sections) -> str:
    payload = {**{s: cfg.raw.get(s) for s in sections}, "seed": cfg.seed, "noise": cfg.noise}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _files(templates, cfg: PipelineConfig, out: str, methods=()) -> list:
    """Paths in `out` named by `templates`: one per method where a template has
    {m}, one per material where it has {mat}; {kev} is the mono energy."""
    kev = cfg.values["recon"]["mono_kev"]
    return [os.path.join(out, t.format(m=m, mat=mat, kev=kev)) for t in templates
            for m in (methods if "{m}" in t else [None])
            for mat in (cfg.material_names if "{mat}" in t else [None])]


class Stage:
    """One run of a stage of `STAGES`: its directory (`out_dir`, else the config's,
    relative to the config file), the `methods` (default: all) whose input files
    exist, its array files and its manifest.  An output or manifest path taken by
    a directory is a ConfigError (exit 2) before the stage computes anything."""

    def __init__(self, name: str, cfg: PipelineConfig, out_dir=None, methods=None):
        out = out_dir or cfg.output_dir
        self.out_dir = out if os.path.isabs(out) else os.path.join(cfg.base_dir, out)
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as err:  # a file, or a path through one
            raise ConfigError(f"output directory {self.out_dir}: {err.strerror}") from None
        self.name, self.cfg, self.spec = name, cfg, STAGES[name]
        self.methods = [m for m in (methods or METHODS) if all(
            os.path.exists(p) for p in _files(self.spec.inputs, cfg, self.out_dir, [m]))]
        self.inputs = _files(self.spec.inputs, cfg, self.out_dir, self.methods)
        self.manifest_path = os.path.join(self.out_dir, f"manifest_{name}.json")
        self.config_hash = _config_hash(cfg, self.spec.sections)
        v = cfg.values
        self.sizes = {"view": v["geometry"]["n_views"], "channel": v["geometry"]["n_channels"],
                      "bin": v["spectrum"]["n_bins"], "material": len(cfg.material_names),
                      "x": v["grid"]["n_x"], "y": v["grid"]["n_y"]}
        for path in [*_files(self.spec.outputs, cfg, self.out_dir, self.methods),
                     self.manifest_path]:
            if os.path.isdir(path):
                raise ConfigError(f"{name}: output path {path} is a directory")
        self.t0 = time.perf_counter()

    def outputs(self, method=None) -> list:
        """Output paths, for one method where the stage writes per method."""
        return _files(self.spec.outputs, self.cfg, self.out_dir, [method])

    def require_inputs(self):
        """Exit 2 unless every input file exists and some method has its inputs."""
        for path in self.inputs:
            if not os.path.exists(path):
                raise ConfigError(f"{self.name}: missing input file {path} (run the upstream stage)")
        if not self.methods:
            raise ConfigError(f"{self.name}: {self.spec.none_found}")

    def _axes(self, path):
        """A stage file's axes from `AXES`, their sizes in this config, and its rule."""
        name = os.path.basename(path)
        axes, rule = next(entry for prefix, entry in AXES.items() if name.startswith(prefix))
        return axes, tuple(self.sizes[a] for a in axes), rule

    def write(self, path, arr: np.ndarray):
        """Write `arr` to `path` in the shape and with the axis labels of `AXES`."""
        axes, shape, _ = self._axes(path)
        write_array(path, np.reshape(arr, shape), axes)

    def read(self, path) -> np.ndarray:
        """The array in `path`, with the labels and shape of `AXES`, every value
        finite and within its rule; else a ToolkitError (exit 3) naming the file,
        or a ConfigError (exit 2) naming an unreadable path."""
        axes, shape, rule = self._axes(path)
        try:
            arr, labels = read_array(path)
            if tuple(labels) != axes:
                raise ToolkitError(f"has axes {labels}, expected {list(axes)}")
            if arr.shape != shape:
                raise ToolkitError(f"is {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise ToolkitError("holds a non-finite value")
            if rule is not None and not rule[0](arr, 0).all():
                raise ToolkitError(f"values must be {rule[1]}")
        except ToolkitError as err:
            raise ToolkitError(f"{self.name}: {path}: {err}") from None
        except OSError as err:  # a directory, unreadable, ...
            raise ConfigError(f"{self.name}: input file {path}: {err.strerror}") from None
        return arr

    @functools.cached_property
    def current(self) -> list:
        """The methods of `methods` whose files the manifest names, by file name in
        this stage's directory, each with a matching SHA-256, under this stage's
        config hash; none when the manifest is missing, unreadable or malformed.
        Computed once per `Stage`; each file is hashed at most once, and a method's
        check stops at its first file that does not match."""
        try:
            with open(self.manifest_path) as fh:
                manifest = json.load(fh)
            named = {**manifest["inputs"], **manifest["outputs"]}
            if manifest["config_hash"] != self.config_hash:
                return []
        except (OSError, ValueError, LookupError, TypeError):
            return []

        @functools.cache
        def matches(path):
            name = os.path.basename(path)
            try:
                return name in named and _sha256(path) == named[name]
            except OSError:  # missing, a directory, unreadable
                return False
        templates = self.spec.inputs + self.spec.outputs
        return [m for m in self.methods
                if all(map(matches, _files(templates, self.cfg, self.out_dir, [m])))]

    def up_to_date(self) -> bool:
        """Whether some method has its inputs and every such method is `current`."""
        return bool(self.methods) and self.current == self.methods

    def finish(self, outputs) -> list:
        """Write the manifest; returns `outputs`, the written paths."""
        manifest = {
            "stage": self.name,
            "config_hash": self.config_hash,
            "inputs": {os.path.basename(p): _sha256(p) for p in self.inputs},
            "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
            "elapsed_s": round(time.perf_counter() - self.t0, 6),
        }
        with open(self.manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        return outputs


def cmd_simulate(cfg: PipelineConfig, out_dir=None) -> list:
    """Simulate the scan; writes transmission, air totals, and true pathlengths."""
    from .simulate import scan_phantom

    stage = Stage("simulate", cfg, out_dir)
    arrays = scan_phantom(cfg.phantom(), cfg.geometry(), cfg.spectrum(), cfg.materials(),
                          cfg.values["dose"]["air_counts_total"], noise=cfg.noise, seed=cfg.seed)
    written = stage.outputs()
    for path, arr in zip(written, arrays):  # transmission, air totals, true pathlengths
        stage.write(path, arr)
    return stage.finish(written)


def cmd_calibrate(cfg: PipelineConfig, out_dir=None) -> list:
    """Run the slab protocol and fit the detector response; prints fit residual."""
    from .calibration import calibrate_drf, save_calibration

    stage = Stage("calibrate", cfg, out_dir)
    cal = cfg.values["calibration"]
    drf = calibrate_drf(cfg.spectrum(), cfg.materials(), cfg.geometry(), order=cal["order"],
                        domain=cfg.calibration_domain(), points_per_axis=cal["points_per_axis"],
                        repeats=cal["repeats"], air_counts_total=cal["air_counts_total"],
                        noise=cal["noise"], seed=cfg.cal_seed)
    written = stage.outputs()
    save_calibration(written[0], drf)
    print(f"calibrate: max fit residual {drf.fit_residual:.3e} over "
          f"{drf.n_channels} channels x {drf.n_bins} bins")
    return stage.finish(written)


def _mle_start(cfg: PipelineConfig, out: str, n_iter: int):
    """The MLE stage's sinogram in `out` and its pass count, when that sinogram is
    the start MACE would compute, an MLE capped at `n_iter` passes: its log passes
    `same_mle_at_cap` and its manifest is current.  Else None, and MACE computes it."""
    try:
        mle = Stage("decompose_mle", cfg, out)
        path, log_path = mle.outputs()
        with open(log_path) as fh:
            steps = [float(r["max_step_cm"]) for r in map(json.loads, fh) if "pass" in r]
    except (ConfigError, OSError, ValueError, LookupError, TypeError):  # unusable or malformed
        return None
    if not (same_mle_at_cap(steps, n_iter) and mle.up_to_date()):
        return None
    return mle.read(path), len(steps)


def cmd_decompose(cfg: PipelineConfig, method: str, out_dir=None) -> list:
    """Decompose the transmission sinogram into material pathlengths."""
    from .calibration import load_calibration

    if method not in METHODS:
        raise ConfigError(f"decompose: method must be one of {METHODS}, got {method!r}")
    stage = Stage(f"decompose_{method}", cfg, out_dir)
    stage.require_inputs()
    t_path, air_path, cal_path = stage.inputs
    t_sino, air = stage.read(t_path), stage.read(air_path)  # (view, channel, bin), (view, channel)
    drf = load_calibration(cal_path)
    want = (air.shape[1], t_sino.shape[2], len(cfg.material_names))  # channels, bins, materials
    if (drf.n_channels, drf.n_bins, drf.n_materials) not in (want, (1, *want[1:])):
        raise ConfigError(f"decompose: calibration has (channels, bins, materials) "
                          f"{(drf.n_channels, drf.n_bins, drf.n_materials)}, the config {want}")
    spectrum = cfg.values["spectrum"]  # the edges alone, without building the spectrum
    edges = bin_edges(spectrum["kvp"], spectrum["e_min"], spectrum["n_bins"])
    if drf.bin_edges is not None and not np.array_equal(drf.bin_edges, edges):
        raise ConfigError(f"decompose: calibration {cal_path} was fitted for bin edges "
                          f"{drf.bin_edges.tolist()} keV, the config's spectrum has "
                          f"{edges.tolist()} keV; run calibrate")
    order = cfg.values["calibration"]["order"]  # the size rules bounded this order's basis
    if drf.order != order:
        raise ConfigError(f"decompose: calibration {cal_path} was fitted at order {drf.order}, "
                          f"the config's calibration.order is {order}; run calibrate")
    t0 = time.perf_counter()
    if method == "mle":
        result = mle_decompose(t_sino, air, drf, cfg.mle_config())
        summary = {"iterations": cfg.values["mle"]["n_iter"], "passes": len(result.steps)}
    else:
        mace = cfg.mace_config(domain=drf.domain)
        start = _mle_start(cfg, stage.out_dir, mace.init.n_iter)
        if start is not None:
            mace = dataclasses.replace(mace, init=start[0])
        result = run_mace(t_sino, air, drf, mace)
        summary = {"iterations": cfg.values["mace"]["n_iter"],
                   "mle_init_passes": start[1] if start else len(result.mle_init.steps),
                   "mle_init_reused": start is not None,
                   "empty_rows": int(np.count_nonzero(empty_rows(t_sino)))}
    elapsed = time.perf_counter() - t0

    path, log_path = stage.outputs()
    stage.write(path, result.p)
    records = [{"pass": i, "max_step_cm": step} for i, step in enumerate(result.steps)]
    records += [{"iteration": i, "equilibrium_residual": r} for i, r in enumerate(result.residuals)]
    flagged = 0 if result.flagged_rows is None else int(result.flagged_rows.size)
    records.append({"method": method, "rows": air.size, **summary, "flagged_rows": flagged,
                    "elapsed_s": round(elapsed, 6), "seconds_per_row": elapsed / air.size})
    with open(log_path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    return stage.finish([path, log_path])


def cmd_reconstruct(cfg: PipelineConfig, out_dir=None, methods=None, keep=()) -> list:
    """FBP material images and the virtual mono-energy image, plus PNG previews.
    The outputs of the methods in `keep`, which the caller found `current` and
    which leave some method to compute, stay as they are and stay in the
    manifest; `pipeline` passes them, a stage command keeps none."""
    stage = Stage("reconstruct", cfg, out_dir, methods)
    stage.require_inputs()
    opts = cfg.values["recon"]
    geometry = cfg.geometry()
    materials = cfg.materials()
    todo = [m for m in stage.methods if m not in keep]
    # every material of every method to compute in one FBP call, then one image per
    # method; called through its module, where the benchmark's traced runs wrap it
    columns = np.concatenate([stage.read(path).reshape(geometry.n_rays, -1)
                              for path in _files(stage.spec.inputs, cfg, stage.out_dir, todo)],
                             axis=1)
    image = recon.fbp_reconstruct(columns, geometry, cfg.grid(), hann=opts["hann"])
    written = []
    for method, values in zip(todo, np.split(image, len(todo), axis=2)):
        *images, mono_path, png_path = stage.outputs(method)
        for j, path in enumerate(images):
            stage.write(path, values[:, :, j])
        mono = synthesize_mono(values, materials, opts["mono_kev"], hounsfield=True)
        stage.write(mono_path, mono)
        write_png_preview(png_path, mono, opts["window_center"], opts["window_width"])
        written += [*images, mono_path, png_path]
    kept = [p for m in stage.methods if m in keep for p in stage.outputs(m)]
    stage.finish(written + kept)
    return written


def cmd_evaluate(cfg: PipelineConfig, out_dir=None, methods=None) -> list:
    """ROI statistics (and CNR when configured) for every reconstructed method."""
    stage = Stage("evaluate", cfg, out_dir, methods)
    stage.require_inputs()
    grid = cfg.grid()
    roi = cfg.rois()
    rows = [("image", "label", "mean", "std")]
    cnr_rows = []
    for path in stage.inputs:
        img = stage.read(path)
        name = os.path.splitext(os.path.basename(path))[0]
        if roi.circles:
            for label, (mean, std) in roi_stats(img, grid, roi).items():
                rows.append((name, label, f"{mean:.6g}", f"{std:.6g}"))
        if cfg.cnr_pair:
            tgt, bgd = cfg.cnr_pair
            value = cnr(img, grid, roi.get(tgt), roi.get(bgd))
            cnr_rows.append((name, f"cnr:{tgt}/{bgd}", f"{value:.6g}", ""))
    written = stage.outputs()
    with open(written[0], "w") as fh:
        fh.writelines(",".join(r) + "\n" for r in rows + cnr_rows)
    return stage.finish(written)


def cmd_pipeline(cfg: PipelineConfig, out_dir=None, force: bool = False) -> list:
    """Run every stage of `STAGES` in order, skipping those that are up to date;
    `reconstruct` keeps the outputs of its current methods.  `force` recomputes
    every stage and every method."""
    written = []
    for name, spec in STAGES.items():
        stage = Stage(name, cfg, out_dir)
        if not force and stage.up_to_date():
            print(f"pipeline: {name} up to date, skipping")
            continue
        written.extend(spec.run(cfg, stage.out_dir, [] if force else stage.current))
    return written
