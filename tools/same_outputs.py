#!/usr/bin/env python3
"""Byte-compare the stage outputs of two pcmd output directories.

    python tools/same_outputs.py DIR_A DIR_B [--atol X] [--rtol R]

Every `.pcmd`, `.pcmdcal`, `.png` and `stats.csv` under either directory is
compared with the file at the same relative path under the other.  For an
array file (`.pcmd` arrays, `.pcmdcal` coefficients) whose bytes differ, the
largest absolute and relative difference of its values is printed.  It
still matches when every value a lies within X + R * max(|a|, |b|) of the
other side's b, with X from `--atol` and R from `--rtol` (0 when not given),
and NaN matches only NaN.  A relative tolerance scales with each value,
so it suits HU-scaled `mono70_*.pcmd` images and pathlengths alike, but
alone it flags rounding-level moves of values near zero (a pathlength of
3.0e-8 cm that moves by 8.8e-15 fails `--rtol 1e-7`); an output gate names
both, e.g. `--atol 1e-12 --rtol 1e-7`.  `stats.csv` and PNGs always match
byte for byte.
Exit status: 0 when every file matches, 1 when any differs or is on one
side only.
"""

import argparse
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from pcmd.arrayio import read_array  # noqa: E402
from pcmd.calibration import load_calibration  # noqa: E402

COMPARED = (".pcmd", ".pcmdcal", ".png")


def outputs(root):
    """Relative paths of the compared files under `root`."""
    found = set()
    for here, _, files in os.walk(root):
        for name in files:
            if name.endswith(COMPARED) or name == "stats.csv":
                found.add(os.path.relpath(os.path.join(here, name), root))
    return found


def values(path):
    return read_array(path)[0] if path.endswith(".pcmd") else load_calibration(path).theta


def difference(path_a, path_b, atol, rtol):
    """How two byte-different files differ, as one line, and whether they
    still match: array values all within `atol` + `rtol` times the larger
    magnitude of each other (both None: never)."""
    if not path_a.endswith((".pcmd", ".pcmdcal")):
        return "bytes differ", False
    a, b = values(path_a), values(path_b)
    if a.shape != b.shape:
        return f"shapes {a.shape} and {b.shape}", False
    with np.errstate(invalid="ignore"):
        gap = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.divide(gap, scale, out=np.zeros_like(gap), where=gap > 0)
    line = f"max abs diff {np.nanmax(gap, initial=0.0):.3g}, max rel diff {np.nanmax(rel, initial=0.0):.3g}"
    if atol is None and rtol is None:
        return line, False
    # equal values match, NaN with NaN too (its scale is NaN); a NaN gap fails
    with np.errstate(invalid="ignore"):
        close = (gap == 0.0) | (gap <= (atol or 0.0) + (rtol or 0.0) * scale)
    return line, bool(np.all(close))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--atol", type=float, default=None,
                        help="array files whose values all lie within ATOL match")
    parser.add_argument("--rtol", type=float, default=None,
                        help="array files whose values all lie within RTOL times the "
                             "larger magnitude match")
    args = parser.parse_args(argv)
    in_a, in_b = outputs(args.dir_a), outputs(args.dir_b)
    within = " + ".join(f"{name}{value:g}" for name, value in
                        (("", args.atol), ("rtol ", args.rtol)) if value is not None)
    differ = 0
    for rel in sorted(in_a | in_b):
        if rel not in in_b or rel not in in_a:
            print(f"{rel}: only in {args.dir_a if rel in in_a else args.dir_b}")
            differ += 1
            continue
        path_a, path_b = os.path.join(args.dir_a, rel), os.path.join(args.dir_b, rel)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() == fb.read():
                continue
        line, close = difference(path_a, path_b, args.atol, args.rtol)
        print(f"{rel}: {line}{f' (within {within})' if close else ''}")
        differ += not close
    print(f"{len(in_a | in_b)} files compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
