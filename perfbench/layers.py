"""Which pcmd entry points the traced run wraps, and the per-layer metrics.

Layers are the modules of src/pcmd.  `spectrum` and `materials` only build
set-up objects and get no metrics.  BENCHMARK.json lists the per-layer
metrics with their units; MOVES names the end-to-end metrics each should move.
"""

import os
import statistics

from spans import busy, percentile, self_times

STAGES = ("simulate", "calibrate", "decompose_mle", "decompose_mace", "reconstruct", "evaluate")

# A detector pass counts as useful when some row moves by more than this (cm).
USEFUL_STEP_CM = 1e-9

# per-layer metric -> the end-to-end metrics it should move
MOVES = {
    "detector.agent.busy_s": "decompose_mle_s, decompose_mace_s, retune_s",
    "detector.agent.self_s": "decompose_mle_s, decompose_mace_s",
    "detector.agent.calls": "decompose_mle_s, decompose_mace_s",
    "detector.agent.rows": "decompose_mle_s, decompose_mace_s",
    "detector.agent.pass_s.p50": "decompose_mle_s, decompose_mace_s",
    "detector.agent.mle_stage_share": "decompose_mle_s",
    "detector.clamp_events": "none (safety net)",
    "calibration.eval_sino.busy_s": "decompose_mle_s, decompose_mace_s",
    "calibration.eval_sino.calls": "decompose_mle_s, decompose_mace_s",
    "calibration.eval_sino.rows": "decompose_mle_s, decompose_mace_s",
    "calibration.grad_sino.busy_s": "decompose_mle_s, decompose_mace_s",
    "calibration.grad_sino.calls": "decompose_mle_s, decompose_mace_s",
    "calibration.grad_sino.rows": "decompose_mle_s, decompose_mace_s",
    "calibration.eval.busy_s": "decompose_mle_s, decompose_mace_s",
    "calibration.eval.calls": "decompose_mle_s, decompose_mace_s",
    "calibration.drf_channels": "decompose_mle_s, decompose_mace_s",
    "calibration.slab_scan_protocol.busy_s": "pipeline_s",
    "calibration.fit_drf.busy_s": "pipeline_s",
    "solver.mle.busy_s": "decompose_mle_s, decompose_mace_s",
    "solver.mle.self_s": "decompose_mle_s, decompose_mace_s",
    "solver.mle.mle_stage_self_share": "decompose_mle_s",
    "solver.mle.passes": "decompose_mle_s, decompose_mace_s",
    "solver.mle.useful_pass_frac": "decompose_mle_s, decompose_mace_s",
    "solver.mle.flagged_rows": "decompose_mle_s",
    "solver.mace.busy_s": "decompose_mace_s",
    "solver.mace.self_s": "decompose_mace_s",
    "solver.mace.iterations": "decompose_mace_s",
    "solver.mace.final_residual": "none (quality)",
    "priors.apply.busy_s": "decompose_mace_s",
    "priors.apply.calls": "decompose_mace_s",
    "simulate.sample_poisson.busy_s": "simulate_s, pipeline_s",
    "simulate.sample_poisson.rows": "simulate_s, pipeline_s",
    "simulate.expected_counts.busy_s": "simulate_s, pipeline_s",
    "phantom.pathlengths.busy_s": "simulate_s",
    "geometry.all_rays.busy_s": "simulate_s",
    "geometry.busy_s": "simulate_s, reconstruct_s",
    "geometry.rebin.calls": "reconstruct_s",
    "recon.fbp.busy_s": "reconstruct_s",
    "recon.fbp.calls": "reconstruct_s",
    "recon.fbp.call_s.p50": "reconstruct_s",
    "recon.synthesize_mono.busy_s": "reconstruct_s",
    "arrayio.write.busy_s": "pipeline_s, retune_s",
    "arrayio.write.bytes": "pipeline_s, retune_s",
    "arrayio.read.busy_s": "pipeline_s, retune_s",
    "arrayio.read.bytes": "pipeline_s, retune_s",
    "arrayio.png.busy_s": "pipeline_s",
    "metrics.busy_s": "pipeline_s",
    "metrics.cnr_mle": "none (quality)",
    "metrics.cnr_mace": "none (quality)",
    "config.load.busy_s": "pipeline_s, retune_s",
    "pipeline.up_to_date.busy_s": "retune_s",
    "pipeline.stages_run": "retune_s",
    "pipeline.stages_skipped": "retune_s",
    "trace.overhead_frac": "none (measurement check)",
}
for _stage in STAGES:
    for _figure in ("busy_s", "self_s"):
        MOVES[f"pipeline.{_stage}.{_figure}"] = "pipeline_s, retune_s"


def _rows(arr):
    return int(arr.shape[0]) if getattr(arr, "ndim", 0) > 1 else 1


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _result_rows(args, kwargs, result):
    return {"rows": _rows(result)}


def _flagged(args, kwargs, result):
    return {"flagged": int(result.flagged_rows.size)}


def _agent_note(args, kwargs, result):
    note = {"rows": _rows(args[0])}
    if kwargs.get("on_nonfinite") == "hold":   # the MLE refinement loop's passes
        note["step"] = float(abs(result - args[0]).max())
    return note


def _stage_name(args, kwargs):
    return f"pipeline.decompose_{kwargs.get('method', args[1] if len(args) > 1 else None)}"


def targets():
    """(owner, attribute, span name, note) for every wrapped entry point.

    Names are patched where they are looked up: solver calls
    `mle_decompose` for the MACE start through its own module globals,
    simulate and calibration each bind `sample_poisson`, and so on.
    """
    from pcmd import calibration, config, geometry, phantom, pipeline, recon, simulate, solver

    drf = calibration.DrfPolynomial

    def rows_of_p(args, kwargs, result):    # DrfPolynomial methods: (self, p, ...)
        return {"rows": _rows(args[1])}

    return [
        (pipeline, "cmd_simulate", "pipeline.simulate", None),
        (pipeline, "cmd_calibrate", "pipeline.calibrate", None),
        (pipeline, "cmd_decompose", _stage_name, None),
        (pipeline, "cmd_reconstruct", "pipeline.reconstruct", None),
        (pipeline, "cmd_evaluate", "pipeline.evaluate", None),
        (pipeline, "cmd_pipeline", "pipeline.pipeline", None),
        (pipeline.Stage, "up_to_date", "pipeline.up_to_date",
         lambda a, k, r: {"skipped": bool(r)}),
        (config.PipelineConfig, "from_file", "config.load", None),
        (pipeline, "read_array", "arrayio.read", _file_bytes),
        (pipeline, "write_array", "arrayio.write", _file_bytes),
        (pipeline, "write_png_preview", "arrayio.png", None),
        (pipeline, "roi_stats", "metrics", None),
        (pipeline, "cnr", "metrics", None),
        (pipeline, "synthesize_mono", "recon.synthesize_mono", None),
        (pipeline, "mle_decompose", "solver.mle", _flagged),
        (solver, "mle_decompose", "solver.mle", _flagged),
        (pipeline, "run_mace", "solver.mace",
         lambda a, k, r: {"iterations": len(r.residuals), "final_residual": r.residuals[-1]}),
        (solver, "detector_agent_apply", "detector.agent", _agent_note),
        (solver, "apply_prior", "priors.apply", None),
        (simulate, "sample_poisson", "simulate.sample_poisson", _result_rows),
        (calibration, "sample_poisson", "simulate.sample_poisson", _result_rows),
        (simulate, "expected_counts", "simulate.expected_counts", None),
        (calibration, "expected_counts", "simulate.expected_counts", None),
        (calibration, "slab_scan_protocol", "calibration.slab_scan_protocol", None),
        (calibration, "fit_drf", "calibration.fit_drf",
         lambda a, k, r: {"channels": r.n_channels}),
        (drf, "eval_sino", "calibration.eval_sino", rows_of_p),
        (drf, "grad_sino", "calibration.grad_sino", rows_of_p),
        (drf, "eval", "calibration.eval", None),
        (phantom.Phantom, "pathlengths", "phantom.pathlengths", None),
        (geometry.ScanGeometry, "all_rays", "geometry.all_rays", None),
        (recon, "rebin_fan_to_parallel", "geometry.rebin", None),
        (recon, "fbp_reconstruct", "recon.fbp", None),
    ]


def _under(spans, ancestor):
    """Spans that run inside a span named `ancestor`."""
    parent = {s.id: s.parent for s in spans}
    names = {s.id: s.name for s in spans}
    inside = []
    for s in spans:
        p = s.parent
        while p is not None and names[p] != ancestor:
            p = parent[p]
        if p is not None:
            inside.append(s)
    return inside


def layer_metrics(spans, clamp_events, cnr, overhead_frac):
    """Per-layer figures of one traced unit of work, as {name: value}."""
    selfs = self_times(spans)
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def of(name):
        return named.get(name, [])

    def self_s(name):
        return sum(selfs[s.id] for s in of(name))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in of(name))

    def p50(name):
        durations = [s.duration for s in of(name)]
        return percentile(durations, 50) if durations else 0.0

    passes = [s for s in of("detector.agent") if "step" in s.attrs]
    runs = of("pipeline.pipeline")
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)

    def per_run(pred):
        if not runs:
            return 0.0
        return statistics.mean(sum(1 for c in by_parent.get(r.id, ()) if pred(c)) for r in runs)

    mace = of("solver.mace")
    mle_stage = busy(spans, "pipeline.decompose_mle")
    in_mle_stage = _under(spans, "pipeline.decompose_mle")
    out = {
        "detector.agent.busy_s": busy(spans, "detector.agent"),
        "detector.agent.self_s": self_s("detector.agent"),
        "detector.agent.calls": len(of("detector.agent")),
        "detector.agent.rows": total("detector.agent", "rows"),
        "detector.agent.pass_s.p50": p50("detector.agent"),
        "detector.agent.mle_stage_share": busy(in_mle_stage, "detector.agent") / mle_stage,
        "detector.clamp_events": clamp_events,
        "calibration.drf_channels": max((s.attrs["channels"] for s in of("calibration.fit_drf")),
                                        default=0),
        "calibration.slab_scan_protocol.busy_s": busy(spans, "calibration.slab_scan_protocol"),
        "calibration.fit_drf.busy_s": busy(spans, "calibration.fit_drf"),
        "calibration.eval.busy_s": busy(spans, "calibration.eval"),
        "calibration.eval.calls": len(of("calibration.eval")),
        "solver.mle.busy_s": busy(spans, "solver.mle"),
        "solver.mle.self_s": self_s("solver.mle"),
        "solver.mle.mle_stage_self_share": sum(selfs[s.id] for s in in_mle_stage
                                               if s.name == "solver.mle") / mle_stage,
        "solver.mle.passes": len(passes),
        "solver.mle.useful_pass_frac": (sum(1 for s in passes if s.attrs["step"] > USEFUL_STEP_CM)
                                        / len(passes)) if passes else 0.0,
        "solver.mle.flagged_rows": total("solver.mle", "flagged"),
        "solver.mace.busy_s": busy(spans, "solver.mace"),
        "solver.mace.self_s": self_s("solver.mace"),
        "solver.mace.iterations": total("solver.mace", "iterations"),
        "solver.mace.final_residual": mace[-1].attrs["final_residual"] if mace else 0.0,
        "priors.apply.busy_s": busy(spans, "priors.apply"),
        "priors.apply.calls": len(of("priors.apply")),
        "simulate.sample_poisson.busy_s": busy(spans, "simulate.sample_poisson"),
        "simulate.sample_poisson.rows": total("simulate.sample_poisson", "rows"),
        "simulate.expected_counts.busy_s": busy(spans, "simulate.expected_counts"),
        "phantom.pathlengths.busy_s": busy(spans, "phantom.pathlengths"),
        "geometry.all_rays.busy_s": busy(spans, "geometry.all_rays"),
        "geometry.busy_s": (busy(spans, "geometry.all_rays") + busy(spans, "geometry.rebin")),
        "geometry.rebin.calls": len(of("geometry.rebin")),
        "recon.fbp.busy_s": busy(spans, "recon.fbp"),
        "recon.fbp.calls": len(of("recon.fbp")),
        "recon.fbp.call_s.p50": p50("recon.fbp"),
        "recon.synthesize_mono.busy_s": busy(spans, "recon.synthesize_mono"),
        "arrayio.write.busy_s": busy(spans, "arrayio.write"),
        "arrayio.write.bytes": total("arrayio.write", "bytes"),
        "arrayio.read.busy_s": busy(spans, "arrayio.read"),
        "arrayio.read.bytes": total("arrayio.read", "bytes"),
        "arrayio.png.busy_s": busy(spans, "arrayio.png"),
        "metrics.busy_s": busy(spans, "metrics"),
        "metrics.cnr_mle": cnr["mle"],
        "metrics.cnr_mace": cnr["mace"],
        "config.load.busy_s": busy(spans, "config.load"),
        "pipeline.up_to_date.busy_s": busy(spans, "pipeline.up_to_date"),
        "pipeline.stages_run": per_run(lambda c: c.name.startswith("pipeline.")
                                       and c.name[len("pipeline."):] in STAGES),
        "pipeline.stages_skipped": per_run(lambda c: c.attrs.get("skipped", False)),
        "trace.overhead_frac": overhead_frac,
    }
    for which in ("eval_sino", "grad_sino"):
        name = f"calibration.{which}"
        out[f"{name}.busy_s"] = busy(spans, name)
        out[f"{name}.calls"] = len(of(name))
        out[f"{name}.rows"] = total(name, "rows")
    for stage in STAGES:
        out[f"pipeline.{stage}.busy_s"] = busy(spans, f"pipeline.{stage}")
        out[f"pipeline.{stage}.self_s"] = self_s(f"pipeline.{stage}")
    return out
