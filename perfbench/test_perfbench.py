"""Tests of the benchmark's own code: span arithmetic, percentiles, configs, smoke runs."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spread  # noqa: E402
from workloads import BASE_CONFIG, WORKLOADS, Workload, sample_scale  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_covered_part_of_children():
    s = [spans.Span(0, "root", None, 0.0, 10.0),
         spans.Span(1, "a", 0, 1.0, 3.0),
         spans.Span(2, "b", 0, 2.0, 4.0),        # overlaps a: 1..4 covered once
         spans.Span(3, "c", 0, 6.0, 7.0),
         spans.Span(4, "leaf", 1, 1.5, 2.5)]     # grandchild: charged to a only
    selfs = spans.self_times(s)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert spans.busy(s, "a") == pytest.approx(2.0)


def test_tracer_records_parents_and_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    wrapped_inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 0.5
        return "done"

    assert tracer.wrap("outer", outer, note=lambda a, k, r: {"result": r})() == "done"
    root, first, second, noting = tracer.spans
    assert (root.name, root.parent, root.attrs) == ("outer", None, {"result": "done"})
    assert first.parent == second.parent == root.id
    assert (noting.name, noting.parent) == (spans.NOTE_SPAN, None)
    assert spans.self_times(tracer.spans)[root.id] == pytest.approx(1.5)
    assert spans.busy(tracer.spans, "inner") == pytest.approx(4.0)


def test_note_time_is_charged_to_neither_the_call_nor_its_caller():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def work():
        clock.now += 2.0
        return 7

    def slow_note(args, kwargs, result):
        clock.now += 5.0
        return {"seen": result}

    tracer.wrap("outer", tracer.wrap("inner", work, note=slow_note))()
    outer, call, noting = tracer.spans
    assert (call.name, call.duration, call.attrs) == ("inner", 2.0, {"seen": 7})
    assert (noting.name, noting.parent, noting.duration) == (spans.NOTE_SPAN, outer.id, 5.0)
    assert spans.self_times(tracer.spans)[outer.id] == pytest.approx(0.0)


def test_spans_are_written_as_json_lines(tmp_path):
    recorded = [spans.Span(0, "root", None, 0.0, 2.0), spans.Span(1, "leaf", 0, 0.5, 1.0,
                                                                  {"rows": 3})]
    path = tmp_path / "spans.jsonl"
    spans.write_spans(str(path), recorded)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [s.as_dict() for s in recorded]
    assert lines[1] == {"id": 1, "name": "leaf", "parent": 0, "start": 0.5, "end": 1.0,
                        "attrs": {"rows": 3}}


def test_patch_restores_classmethods_and_functions():
    class Owner:
        @classmethod
        def make(cls, x):
            return (cls, x)

    tracer = spans.Tracer()
    undo = spans.patch(tracer, [(Owner, "make", "owner.make", None)])
    assert Owner.make(3) == (Owner, 3)
    assert [s.name for s in tracer.spans] == ["owner.make"]
    undo()
    assert isinstance(vars(Owner)["make"], classmethod)


@pytest.mark.parametrize("n, level", [(1, None), (19, None), (20, 50.0), (99, 50.0),
                                      (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, level):
    assert spans.tail_level(n) == level


def test_percentile_interpolates_linearly():
    assert spans.percentile([5, 1, 3, 2, 4], 50) == 3
    assert spans.percentile([0.0, 10.0], 90) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_spread_is_interquartile_range_over_median():
    assert spread.seed_list("101-103,7") == [101, 102, 103, 7]
    runs = [{"seed": i, "metrics": {"t": v}} for i, v in enumerate([1.0, 2.0, 3.0, 4.0, 10.0])]
    # quantiles(n=4) of 1, 2, 3, 4, 10 are 1.5, 3 and 7
    assert spread.summarise(runs) == {"t": {"median": 3.0, "iqr_frac": round(5.5 / 3.0, 4)}}
    assert spread.summarise(runs[:1]) == {"t": {"median": 1.0, "iqr_frac": None}}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_configs_pass_validation(name, tmp_path):
    from pcmd.config import PipelineConfig

    w = WORKLOADS[name]
    for edit in [None] + [e for e in w.edits if e is not None]:
        raw = w.config(seed=77, prior_std=edit)
        cfg = PipelineConfig(raw, base_dir=str(tmp_path))
        assert cfg.seed == 77
        assert "seed" not in raw["calibration"]
        assert cfg.geo_n_views * cfg.geo_n_channels == w.rows()
        per_view, per_channel = sample_scale(raw["geometry"])
        std = 3.0 if edit is None else edit
        assert raw["prior"]["std"] == [[std * per_view, std * per_channel]] * 2
    assert w.config(1) == w.config(1) and w.config(1) != w.config(2)


def test_prior_keeps_its_shipped_width_in_angle_and_at_the_isocentre():
    assert sample_scale(BASE_CONFIG["geometry"]) == (1.0, 1.0)
    assert sample_scale(WORKLOADS["low_contrast"].config(0)["geometry"]) == \
        pytest.approx((0.25, 0.4))
    # 360 fan views span 2 pi; 0.5 cm at the detector is 0.25 cm at the isocentre
    assert sample_scale(WORKLOADS["fan_noisy_cal"].config(0)["geometry"]) == \
        pytest.approx((0.5, 0.4))


def smoke(workload):
    """The same workload shape at a size that runs in about a second."""
    fan = workload.overrides["geometry"].get("mode") == "fan"
    overrides = dict(workload.overrides)
    overrides["geometry"] = dict(overrides["geometry"], n_views=24, n_channels=32,
                                 spacing_cm=1.6 if fan else 0.8)
    overrides["grid"] = {"n_x": 32, "n_y": 32, "pixel_cm": 0.8}
    overrides["mle"] = dict(overrides.get("mle", {}), n_iter=3, grid_points=[11, 11])
    overrides["mace"] = dict(overrides.get("mace", {}), n_iter=2, mle_init_iters=2)
    return Workload(workload.name, overrides, workload.edits, workload.mace_rmse_limit)


@pytest.fixture
def single_thread_env(monkeypatch):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload_shape(name, tmp_path, single_thread_env):
    w = smoke(WORKLOADS[name])
    checks = run.Checks()
    tracer = spans.Tracer()
    undo = spans.patch(tracer, layers.targets())
    try:
        unit = run.run_unit(w, 5, str(tmp_path / "unit"), run.invoke_in_process, checks)
    finally:
        undo()
    assert unit is not None and checks.failed == 0
    assert checks.attempted == 6 + sum(2 if e is None else 3 for e in w.edits)
    assert set(unit["stages"]) == set(layers.STAGES) and len(unit["reruns"]) == len(w.edits)
    assert run.quality(unit["out"])["finite"]
    _, cnr = run.read_stats(unit["out"])
    metrics = layers.layer_metrics(tracer.spans, 0, cnr, 0.0)
    names = {name for name, _ in run.metric_table("per_layer")}
    assert set(metrics) == names and set(layers.MOVES) == names
    assert metrics["pipeline.stages_skipped"] == (6 if w.edits[0] is None else 2)
    reruns_with_edit = sum(e is not None for e in w.edits)
    assert metrics["solver.mle.passes"] == (3 + 2) * (1 + reruns_with_edit)
    assert metrics["geometry.rebin.calls"] == (4 if name == "fan_noisy_cal" else 0)


def test_untraced_unit_runs_each_command_as_a_process(tmp_path, single_thread_env):
    w = smoke(WORKLOADS["prior_sweep"])
    checks = run.Checks()
    unit = run.run_unit(w, 5, str(tmp_path / "unit"), run.invoke_process, checks, repeat_s=60.0)
    assert unit is not None
    assert all(len(ts) == run.MAX_STAGE_RUNS for ts in unit["stages"].values())
    metrics, cnr = run.end_to_end([unit], [0.3, 0.1, 0.2], checks, w)
    assert checks.failed == 0
    assert set(metrics) == {name for name, _ in run.metric_table("end_to_end")}
    assert all(v > 0 for v in metrics.values()) and set(cnr) == {"mle", "mace"}
    assert metrics["pipeline_s"] == pytest.approx(sum(sorted(ts)[1] for ts in unit["stages"].values()))
    assert metrics["setup_s"] == 0.2


def test_host_speed_corrects_by_the_kernel_times_around_a_command(single_thread_env):
    host = run.HostSpeed()
    kernel = iter([0.002] * run.REF_CALLS * run.REF_WINDOW + [0.006] * run.REF_CALLS)
    host._kernel = lambda: next(kernel)
    for _ in range(run.REF_WINDOW):
        assert host.timed(1.0) == pytest.approx(run.REF_NOMINAL_S / 0.002)
    # the newest command's kernel times join the window; the oldest leave it
    assert host.timed(1.0) == pytest.approx(run.REF_NOMINAL_S / 0.002)
    assert len(host.kernel_s) == run.REF_CALLS * (run.REF_WINDOW + 1)
    real = run.HostSpeed()
    assert real.timed(0.0) == 0.0 and all(t > 0 for t in real.kernel_s)
