#!/usr/bin/env python3
"""Run the six stage commands, each as its own process, and print one row per stage.

    python tools/stage_profile.py --config C --out DIR [--repeat N]

The commands are those of a fresh study, in order: `pcmd simulate`,
`calibrate`, `decompose --method mle`, `decompose --method mace`,
`reconstruct` and `evaluate`, each with `--config C --out DIR --threads 1`
(DIR taken from the current directory), run from this checkout's `src`.
With `--repeat N` each command runs N times before the next.  Each row gives
the process's wall seconds (median of N), the `elapsed_s` its stage manifest
records (median of N), and the peak resident set of that child alone in MB
(largest of N), from the rusage `os.wait4` returns.  Unless the environment
sets it, NUMPY_MADVISE_HUGEPAGE=0, as in the benchmark.  The stages' own messages go to stderr.
Exit status: 0 when every command ran, else the first failing one's exit code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (stage, its command): the manifest is manifest_<stage>.json
STAGES = (
    ("simulate", ["simulate"]),
    ("calibrate", ["calibrate"]),
    ("decompose_mle", ["decompose", "--method", "mle"]),
    ("decompose_mace", ["decompose", "--method", "mace"]),
    ("reconstruct", ["reconstruct"]),
    ("evaluate", ["evaluate"]),
)
COLUMNS = ("stage", "wall_s", "elapsed_s", "peak_rss_mb")


def run_stage(argv, env):
    """One `pcmd` command as a child process: (exit code, wall seconds, peak RSS in MB)."""
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "pcmd.cli", *argv], env=env,
                             stdout=sys.stderr)
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return child.returncode, seconds, usage.ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="pipeline configuration (JSON)")
    parser.add_argument("--out", required=True, help="output directory of the study")
    parser.add_argument("--repeat", type=int, default=1, help="runs of each command (default 1)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat: must be >= 1, got {args.repeat}")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([path] if path else [])))
    # as in the benchmark: small pages, so that the peak resident set repeats
    env.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    out = os.path.abspath(args.out)  # pcmd takes a relative --out from the config's directory
    common = ["--config", args.config, "--out", out, "--threads", "1"]
    print(" ".join(f"{c:>14}" for c in COLUMNS))
    for stage, command in STAGES:
        walls, elapsed, peak = [], [], 0.0
        for _ in range(args.repeat):
            code, seconds, rss = run_stage(command + common, env)
            if code:
                return code
            with open(os.path.join(out, f"manifest_{stage}.json")) as fh:
                elapsed.append(json.load(fh)["elapsed_s"])
            walls.append(seconds)
            peak = max(peak, rss)
        print(f"{stage:>14} {statistics.median(walls):>14.4f} "
              f"{statistics.median(elapsed):>14.4f} {peak:>14.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
