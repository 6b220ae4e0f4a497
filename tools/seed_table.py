#!/usr/bin/env python3
"""Run `pcmd pipeline --force` at several seeds and print one row per seed.

    python tools/seed_table.py --config C --seeds 1-6,2024 --out DIR

Seed N runs in this process as `pcmd pipeline --config C --force --seed N
--out DIR/seed_N`; the stages' own messages go to stderr.  Each row gives
the MLE and MACE contrast-to-noise ratios of the config's CNR pair, their
ratio (MACE / MLE), the ratio of the background ROI's standard deviations
(MACE / MLE, from `stats.csv`), and the last `equilibrium_residual` in
`decompose_mace.log.jsonl`.  The config must name a CNR pair.
Exit status: 0 when every seed ran, else the first failing run's exit code.
"""

import argparse
import contextlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from pcmd.cli import main as pcmd_main  # noqa: E402

COLUMNS = ("seed", "cnr_mle", "cnr_mace", "cnr_ratio", "bg_std_ratio", "final_residual")


def parse_seeds(text):
    """Seeds from a list of numbers and inclusive ranges, e.g. "1-6,2024"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def seed_row(out_dir):
    """(cnr_mle, cnr_mace, cnr_ratio, bg_std_ratio, final_residual) of one run."""
    cnr, std, background = {}, {}, None
    with open(os.path.join(out_dir, "stats.csv")) as fh:
        for line in fh.read().splitlines()[1:]:
            image, label, value, spread = line.split(",")
            method = image.rpartition("_")[2]
            if label.startswith("cnr:"):
                cnr[method] = float(value)
                background = label.partition("/")[2]
            else:
                std[method, label] = float(spread)
    if background is None:
        raise SystemExit(f"{out_dir}/stats.csv: no CNR row (the config names no cnr pair)")
    with open(os.path.join(out_dir, "decompose_mace.log.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    residual = [r["equilibrium_residual"] for r in records if "equilibrium_residual" in r][-1]
    return (cnr["mle"], cnr["mace"], cnr["mace"] / cnr["mle"],
            std["mace", background] / std["mle", background], residual)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="pipeline configuration (JSON)")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="comma-separated seeds and inclusive ranges, e.g. 1-6,2024")
    parser.add_argument("--out", required=True, help="parent of the per-seed output directories")
    args = parser.parse_args(argv)
    print(" ".join(f"{c:>14}" for c in COLUMNS))
    for seed in args.seeds:
        out_dir = os.path.join(args.out, f"seed_{seed}")
        with contextlib.redirect_stdout(sys.stderr):
            code = pcmd_main(["pipeline", "--config", args.config, "--force",
                              "--seed", str(seed), "--out", out_dir])
        if code:
            return code
        print(f"{seed:>14} " + " ".join(f"{v:>14.6g}" for v in seed_row(out_dir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
