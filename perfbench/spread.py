"""Run the benchmark once per seed and summarise the run-to-run spread.

    python3 perfbench/spread.py --seeds 101-110 --label "set 1"
    python3 perfbench/spread.py --workload low_contrast --seeds 1-5
    python3 perfbench/spread.py --seeds 2024 --trace 1 --label traced --record baseline

Runs `run.py` once per workload and seed, one run at a time.  For each metric
it prints the median over the seeds and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) over the median.
With --record POINT the per-run values and the summary are stored under the
label in trajectory.json, in the point of that name.  Exits 1 when a run
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

TRAJECTORY = os.path.join(HERE, "trajectory.json")


def seed_list(text):
    """'101-110' or '3,5,8' or '2024' -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
    if proc.returncode or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(runs):
    """{metric: {"median", "iqr_frac"}} over the runs' values."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        spread = None                  # undefined for a single run
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = round((q3 - q1) / median, 4)
        out[name] = {"median": median, "iqr_frac": spread}
    return out


def record(point_label, set_label, how, results):
    with open(TRAJECTORY) as fh:
        trajectory = json.load(fh)
    point = next((p for p in trajectory["points"] if p["label"] == point_label), None)
    if point is None:
        point = {"label": point_label, "sets": []}
        trajectory["points"].append(point)
    point["sets"] = [s for s in point["sets"] if s["label"] != set_label]
    point["sets"].append({"label": set_label, "how": how, "workloads": results})
    with open(TRAJECTORY, "w") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="set")
    parser.add_argument("--record", metavar="POINT", help="store the runs in trajectory.json")
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results, ok = {}, True
    for name in names:
        runs = []
        for seed in args.seeds:
            metrics = run_once(name, seed, args.seconds, args.trace)
            if metrics is None:
                print(f"{name} seed {seed}: FAILED", flush=True)
                ok = False
                continue
            runs.append({"seed": seed, "metrics": metrics})
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                  flush=True)
        if not runs:
            continue
        summary = summarise(runs)
        for metric, s in summary.items():
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['iqr_frac']}")
        results[name] = {"runs": runs, "summary": summary}
    if args.record:
        how = f"one run per seed {args.seeds[0]}..{args.seeds[-1]}, --seconds {args.seconds} " \
              f"--trace {args.trace}"
        record(args.record, args.label, how, results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
