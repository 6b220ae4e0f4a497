"""pcmd benchmark: drives the pcmd CLI on one workload and prints its metrics.

    python3 perfbench/run.py --workload low_contrast --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

A unit of work is a fresh study by the six stage commands followed by the
workload's `pcmd pipeline` reruns.  With --trace 0 units repeat until
--seconds is spent, each command in its own process, timed from outside and
corrected for the shared host's speed (HostSpeed), and the end-to-end
metrics are printed.  With --trace 1 plain and traced
units alternate in this process through pcmd.cli.main, and the per-layer
metrics of the fastest traced unit are printed.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Exit status: 0 when every command and check passed, 1 when one
failed, 2 when pcmd cannot be set up.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".bench_spans")
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# numpy asks for transparent huge pages for large arrays by default; whether
# the kernel has them free varies, and with it the peak resident set (by 6 MB
# of 62 on prior_sweep).  Small pages make peak_rss_mb repeatable.
NUMPY_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}
STAGE_REPEAT_S = 1.5   # untraced units repeat a stage command while its runs fit in this
MAX_STAGE_RUNS = 3
SETUP_PROBES = 3       # set-up probes before the first unit, and after each unit
COMMAND_TIMEOUT_S = 120
REF_NOMINAL_S = 0.003  # the reference kernel on a quiet 2-vCPU Intel Xeon host
REF_CALLS = 3          # reference-kernel timings after each timed command
REF_WINDOW = 4         # commands whose kernel timings correct one command

sys.path.insert(0, HERE)
from workloads import STAGE_COMMANDS, WORKLOADS  # noqa: E402


def metric_table(kind):
    """[(name, unit)] of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


class SetupError(Exception):
    """pcmd could not be imported or refused a generated config."""


class Checks:
    """Counts attempted and failed operations: stage commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {what} {detail}".rstrip())
        return ok


class HostSpeed:
    """Corrects command times for the shared host's speed at the time.

    On a shared host other tenants slow every computation by up to about
    1.5x, in stretches of a fraction of a second to minutes, so a whole run
    can fall in a slow or a quiet stretch and no median over the run tells
    the two apart.  A fixed reference kernel (numpy ufuncs on a 512 KB
    array, a small matmul and a Python loop) is timed in this process after
    every timed command, never beside one.  `timed` scales a command's time
    by REF_NOMINAL_S over the median kernel time after that command and the
    REF_WINDOW - 1 commands before it: the time the command would have taken
    on a host where the kernel takes REF_NOMINAL_S.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self._a = rng.random(1 << 16)
        self._m = rng.random((96, 96))
        self.kernel_s = []        # every kernel time, in order
        self.factors = []         # the correction applied to each command

    def _kernel(self):
        import numpy

        t0 = time.perf_counter()
        for _ in range(12):
            x = numpy.exp(-self._a) * self._a
            x.sum()
            self._m @ self._m
        sum(i * i for i in range(15000))
        return time.perf_counter() - t0

    def timed(self, seconds):
        """Time the kernel after a command that took `seconds`; its corrected time."""
        self.kernel_s += [self._kernel() for _ in range(REF_CALLS)]
        factor = REF_NOMINAL_S / statistics.median(self.kernel_s[-REF_CALLS * REF_WINDOW:])
        self.factors.append(factor)
        return seconds * factor


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    env.update(NUMPY_ENV)
    return env


def write_config(workload, seed, unit_dir, prior_std=None):
    path = os.path.join(unit_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(workload.config(seed, prior_std), fh, indent=1)
    return path


def setup_probe(workload, seed, work):
    """Write the config and load it with pcmd in a fresh interpreter: seconds.

    Loading imports every pcmd module and runs PipelineConfig validation on
    the generated config.
    """
    probe = ("import sys; from pcmd.config import PipelineConfig; "
             "PipelineConfig.from_file(sys.argv[1])")
    t0 = time.perf_counter()
    unit_dir = tempfile.mkdtemp(prefix="setup", dir=work)
    path = write_config(workload, seed, unit_dir)
    proc = subprocess.run([sys.executable, "-c", probe, path], env=child_env(),
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                         else f"exit {proc.returncode}")
    return seconds


def invoke_process(argv):
    """Run one pcmd command as its own process: (exit code, seconds)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pcmd.cli", *argv], env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:   # run() has killed and reaped the command
        return "timeout", time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    if proc.returncode:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode, seconds


def invoke_in_process(argv):
    """Run one pcmd command through pcmd.cli.main here: (exit code, seconds)."""
    from pcmd import cli

    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as err:  # a crash is a failed command, reported, not fatal
        print(f"pcmd {' '.join(argv)} raised {err!r}", file=sys.stderr)
        code = 1
    return code, time.perf_counter() - t0


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_unit(workload, seed, unit_dir, invoke, checks, repeat_s=0.0):
    """One unit of work: a fresh study by six stage commands, then the reruns.

    A stage command runs again, on the same inputs, while its runs so far
    and one more fit in `repeat_s` seconds, up to MAX_STAGE_RUNS runs; this
    gives the cheap stages more samples.  Each rerun applies the workload's
    edit (or none) and runs `pcmd pipeline` without --force.  Returns
    {"stages": {stage: [s, ...]}, "reruns": [s, ...], "out": output dir},
    or None when a command failed.
    """
    os.makedirs(unit_dir)
    cfg = write_config(workload, seed, unit_dir)
    out = os.path.join(unit_dir, "out")
    common = ["--config", cfg, "--threads", str(THREADS)]
    stages = {}
    for stage, argv in STAGE_COMMANDS:
        runs = stages[stage] = []
        while not runs or (len(runs) < MAX_STAGE_RUNS and sum(runs) + runs[-1] <= repeat_s):
            code, seconds = invoke(argv + common)
            if not checks.record(f"pcmd {' '.join(argv)}", code == 0, f"exit {code}"):
                return None
            runs.append(seconds)
    primed = {name: _digest(os.path.join(out, name))
              for name in ("pathlengths_mle.pcmd", "pathlengths_mace.pcmd")}
    reruns = []
    for edit in workload.edits:
        before = _digest(os.path.join(out, "stats.csv"))
        t0 = time.perf_counter()
        if edit is not None:
            write_config(workload, seed, unit_dir, prior_std=edit)
        edit_s = time.perf_counter() - t0
        code, seconds = invoke(["pipeline"] + common)
        reruns.append(edit_s + seconds)
        if not checks.record("pcmd pipeline", code == 0, f"exit {code}"):
            return None
        after = _digest(os.path.join(out, "stats.csv"))
        mle_same = _digest(os.path.join(out, "pathlengths_mle.pcmd")) == \
            primed["pathlengths_mle.pcmd"]
        if edit is None:
            mace_same = _digest(os.path.join(out, "pathlengths_mace.pcmd")) == \
                primed["pathlengths_mace.pcmd"]
            checks.record("rerun without edit leaves outputs unchanged",
                          mle_same and mace_same and after == before)
        else:
            checks.record(f"prior.std {edit} rewrites stats.csv", after != before)
            checks.record(f"prior.std {edit} leaves pathlengths_mle.pcmd bit-identical", mle_same)
    return {"stages": stages, "reruns": reruns, "out": out}


def read_stats(out):
    """stats.csv as {(image, label): (mean, std)} plus {method: cnr}."""
    rois, cnr = {}, {}
    with open(os.path.join(out, "stats.csv")) as fh:
        next(fh)
        for line in fh:
            image, label, mean, std = line.rstrip("\n").split(",")
            method = image.rsplit("_", 1)[1]
            if label.startswith("cnr:"):
                cnr[method] = float(mean)
            else:
                rois[(method, label)] = (float(mean), float(std))
    return rois, cnr


def quality(out):
    """RMS pathlength error of each method, and whether every pathlength is finite."""
    import numpy
    from pcmd.arrayio import read_array

    p_true, _ = read_array(os.path.join(out, "pathlengths_true.pcmd"))
    figures = {"finite": True}
    for method in ("mle", "mace"):
        p, _ = read_array(os.path.join(out, f"pathlengths_{method}.pcmd"))
        figures[f"{method}_rmse_cm"] = float(numpy.sqrt(numpy.mean((p - p_true) ** 2)))
        figures["finite"] &= bool(numpy.isfinite(p).all())
    return figures


def check_outputs(workload, out, checks):
    """Workload-specific correctness checks on a finished study."""
    rois, cnr = read_stats(out)
    figures = quality(out)
    checks.record("pathlengths finite", figures["finite"])
    checks.record("stats.csv values finite",
                  all(math.isfinite(v) for pair in rois.values() for v in pair)
                  and all(math.isfinite(v) for v in cnr.values()))
    mle, mace = figures["mle_rmse_cm"], figures["mace_rmse_cm"]
    checks.record(f"MACE pathlength RMSE <= {workload.mace_rmse_limit:g} x MLE's",
                  mace <= workload.mace_rmse_limit * mle, f"{mace:.4f} vs {mle:.4f} cm")
    if workload.name == "low_contrast":
        (m_mle, s_mle), (m_mace, s_mace) = rois[("mle", "background")], rois[("mace", "background")]
        checks.record("background mean shift <= 2%",
                      abs(m_mace - m_mle) <= 0.02 * abs(m_mle), f"{m_mle:.1f} vs {m_mace:.1f}")
        checks.record("background std ratio <= 0.5", s_mace <= 0.5 * s_mle,
                      f"{s_mace:.2f} / {s_mle:.2f}")
    if workload.name in ("low_contrast", "fan_noisy_cal"):
        checks.record("MACE CNR > MLE CNR", cnr["mace"] > cnr["mle"],
                      f"{cnr['mace']:.3f} vs {cnr['mle']:.3f}")
    return figures, cnr


def git_commit():
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    """SHA-256 over src/pcmd, so a result names the code it measured without git."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "pcmd")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(workload, args):
    import numpy

    return {
        "workload": workload.name, "seed": args.seed, "rows": workload.rows(),
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "threads_arg": THREADS,
        "thread_env": {v: child_env()[v] for v in THREAD_VARS}, "numpy_env": NUMPY_ENV,
        "git_commit": git_commit(), "src_sha256": source_digest(),
    }


def measure_untraced(workload, args, work, checks, setup_times, host):
    """Units of work as separate processes until --seconds is spent.

    Set-up probes follow each unit and are added to `setup_times`, so that
    they are spread over the run like the units.  Every time is corrected
    by `host`.
    """
    def invoke(argv):
        code, seconds = invoke_process(argv)
        return code, host.timed(seconds)

    results = []
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        unit = run_unit(workload, args.seed, os.path.join(work, f"unit{len(results)}"),
                        invoke, checks, STAGE_REPEAT_S)
        if unit is None:
            return results
        results.append(unit)
        probe_setup(workload, args.seed, work, setup_times, host)
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - t_start + longest > args.seconds:
            return results


def probe_setup(workload, seed, work, setup_times, host):
    for _ in range(SETUP_PROBES):
        setup_times.append(host.timed(setup_probe(workload, seed, work)))


def end_to_end(units, setup_times, checks, workload):
    """End-to-end metrics of the untraced units.

    Each time is the median of its samples in the run, as HostSpeed
    corrected them, and pipeline_s is the sum of the six stage commands'
    medians.  On a shared host the median was steadier from run to run than
    the fastest sample, which depends on whether a run happens to catch a
    quiet moment.
    """
    figures, cnr = check_outputs(workload, units[0]["out"], checks)
    digests = {_digest(os.path.join(u["out"], name))
               for u in units for name in ("pathlengths_mle.pcmd", "pathlengths_mace.pcmd")}
    checks.record("units with one seed agree bit for bit", len(digests) == 2)

    samples = {stage: [s for u in units for s in u["stages"][stage]]
               for stage, _ in STAGE_COMMANDS}
    samples["retune"] = [s for u in units for s in u["reruns"]]
    samples["setup"] = setup_times
    for name, xs in samples.items():
        print(f"  {name}: n={len(xs)} fastest={min(xs):.6f}s "
              f"median={statistics.median(xs):.6f}s slowest={max(xs):.6f}s")
    metrics = {
        "pipeline_s": sum(statistics.median(samples[stage]) for stage, _ in STAGE_COMMANDS),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "mle_rmse_cm": figures["mle_rmse_cm"],
        "mace_rmse_cm": figures["mace_rmse_cm"],
    }
    for name in ("setup", "simulate", "decompose_mle", "decompose_mace", "reconstruct",
                 "retune"):
        metrics[f"{name}_s"] = statistics.median(samples[name])
    return metrics, cnr


def measure_traced(workload, args, work, checks):
    """Plain and traced units in turn, in this process, until --seconds is spent.

    Returns the per-layer metrics of the fastest traced unit and the
    overhead of its fastest traced over its fastest plain unit.
    """
    from pcmd import detector
    import layers
    import spans

    wrapped = layers.targets()    # imports every wrapped module before the first unit
    plain, traced = [], []        # (seconds, unit) and (seconds, unit, tracer, clamp events)
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        unit = run_unit(workload, args.seed, os.path.join(work, f"plain{len(plain)}"),
                        invoke_in_process, checks)
        if unit is None:
            return None
        plain.append((unit_seconds(unit), unit))
        tracer = spans.Tracer()
        undo = spans.patch(tracer, wrapped)
        clamps = detector.CLAMP_EVENTS["count"]
        try:
            unit = run_unit(workload, args.seed, os.path.join(work, f"traced{len(traced)}"),
                            invoke_in_process, checks)
        finally:
            undo()
        if unit is None:
            return None
        traced.append((unit_seconds(unit), unit, tracer, detector.CLAMP_EVENTS["count"] - clamps))
        pair = time.perf_counter() - t0
        if time.perf_counter() - t_start + pair > args.seconds:
            break
    fast_plain = min(plain, key=lambda x: x[0])
    seconds, unit, tracer, clamps = min(traced, key=lambda x: x[0])
    for name in ("stats.csv", "pathlengths_mle.pcmd", "pathlengths_mace.pcmd"):
        checks.record(f"traced and untraced {name} byte-identical",
                      _digest(os.path.join(fast_plain[1]["out"], name))
                      == _digest(os.path.join(unit["out"], name)))
    _, cnr = check_outputs(workload, unit["out"], checks)
    print(f"  traced pairs: n={len(traced)} fastest plain={fast_plain[0]:.6f}s "
          f"fastest traced={seconds:.6f}s")
    report_tails(tracer.spans, spans)
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"{workload.name}-seed{args.seed}.jsonl")
    spans.write_spans(path, tracer.spans)
    print(f"  spans of the fastest traced unit written to {os.path.relpath(path, ROOT)}")
    return layers.layer_metrics(tracer.spans, clamps, cnr, seconds / fast_plain[0] - 1.0)


def unit_seconds(unit):
    return sum(map(sum, unit["stages"].values())) + sum(unit["reruns"])


def report_tails(recorded, spans):
    """Print call-time medians and the highest percentile backed by ten samples."""
    by_name = {}
    for s in recorded:
        by_name.setdefault(s.name, []).append(s.duration)
    for name in sorted(by_name):
        d = by_name[name]
        line = f"  span {name}: n={len(d)} p50={spans.percentile(d, 50):.6f}s"
        level = spans.tail_level(len(d))
        if level is not None and level > 50:
            line += f" p{level:g}={spans.percentile(d, level):.6f}s"
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="workload to run; 'all' runs each in turn")
    parser.add_argument("--seed", type=int, default=2024,
                        help="workload seed, >= 0 (pcmd keys its noise streams on it unsigned)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        # one process per workload, so peak RSS and pcmd's globals stay per workload
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    for var in THREAD_VARS:       # before numpy is imported here, for the traced run
        os.environ[var] = str(THREADS)
    os.environ.update(NUMPY_ENV)
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    host = HostSpeed()
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    checks = Checks()
    try:
        setup_times = []
        try:
            probe_setup(workload, args.seed, work, setup_times, host)
        except (SetupError, OSError, subprocess.SubprocessError) as err:
            print(f"perfbench: cannot set up pcmd: {err}", file=sys.stderr)
            return 2
        if args.trace:
            metrics = measure_traced(workload, args, work, checks)
            table = metric_table("per_layer")
        else:
            results = measure_untraced(workload, args, work, checks, setup_times, host)
            metrics = None
            if results:
                metrics, cnr = end_to_end(results, setup_times, checks, workload)
                print(f"  reference kernel: n={len(host.kernel_s)} "
                      f"median={statistics.median(host.kernel_s):.6f}s; correction "
                      f"median={statistics.median(host.factors):.4f} "
                      f"range={min(host.factors):.4f}..{max(host.factors):.4f}")
                print(f"  quality (not bounded): cnr_mle={cnr['mle']:.6g} "
                      f"cnr_mace={cnr['mace']:.6g}")
            table = metric_table("end_to_end")
        print("provenance: " + json.dumps(provenance(workload, args), sort_keys=True))
        payload = {}
        if metrics is not None:
            for name, unit in table:
                payload[name] = {"value": metrics[name], "unit": unit}
                print(f"{workload.name} {name} = {metrics[name]:.6g} {unit}")
        frac = checks.failed / checks.attempted if checks.attempted else 1.0
        print(f"{workload.name} ops_failed_frac = {frac:.6g} "
              f"({checks.failed} of {checks.attempted} commands and checks)")
        ok = metrics is not None and checks.failed == 0
        print(json.dumps({"correct": ok, "attempted": max(checks.attempted, 1),
                          "failed": checks.failed if checks.attempted else 1,
                          "metrics": payload}))
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))


if __name__ == "__main__":
    sys.exit(main())
