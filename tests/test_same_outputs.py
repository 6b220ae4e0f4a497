import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from pcmd.arrayio import write_array

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "same_outputs.py")


def compare(dir_a, dir_b, *options):
    return subprocess.run([sys.executable, TOOL, str(dir_a), str(dir_b), *options],
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def two_dirs(tmp_path):
    """A tiny output directory and a byte-identical copy of it."""
    a = tmp_path / "a"
    a.mkdir()
    write_array(a / "pathlengths_mle.pcmd", np.arange(12.0).reshape(2, 3, 2) + 0.5,
                labels=["view", "channel", "material"])
    (a / "mono70_mle.png").write_bytes(b"\x89PNG not really")
    (a / "stats.csv").write_text("image,stat,value\nmono70_mle,mean,1.0\n")
    (a / "manifest_simulate.json").write_text("{}")
    shutil.copytree(a, tmp_path / "b")
    return a, tmp_path / "b"


def test_identical_directories_exit_0(two_dirs):
    run = compare(*two_dirs)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "3 files compared, 0 differ" in run.stdout


def test_one_changed_value_is_reported_with_its_size(two_dirs):
    a, b = two_dirs
    arr = np.arange(12.0).reshape(2, 3, 2) + 0.5
    arr[1, 2, 0] *= 1.0 + 1e-9
    write_array(b / "pathlengths_mle.pcmd", arr, labels=["view", "channel", "material"])
    (b / "manifest_simulate.json").write_text("[]")   # not an output it compares
    run = compare(a, b)
    assert run.returncode == 1
    assert "pathlengths_mle.pcmd: max abs diff 1.05e-08, max rel diff 1e-09" in run.stdout
    assert "1 differ" in run.stdout


def test_atol_matches_close_arrays_and_still_prints_their_gap(two_dirs):
    a, b = two_dirs
    arr = np.arange(12.0).reshape(2, 3, 2) + 0.5
    arr[0, 1, 1] += 3e-13
    write_array(b / "pathlengths_mle.pcmd", arr, labels=["view", "channel", "material"])
    close = compare(a, b, "--atol", "1e-12")
    assert close.returncode == 0, close.stdout
    assert "pathlengths_mle.pcmd: max abs diff 3" in close.stdout
    assert "(within 1e-12)" in close.stdout and "0 differ" in close.stdout
    far = compare(a, b, "--atol", "1e-13")
    assert far.returncode == 1 and "1 differ" in far.stdout
    assert "within" not in far.stdout


@pytest.mark.parametrize("name", ["stats.csv", "mono70_mle.png"])
def test_atol_leaves_stats_and_pngs_byte_compared(two_dirs, name):
    a, b = two_dirs
    (b / name).write_bytes((a / name).read_bytes() + b" ")
    run = compare(a, b, "--atol", "1e6")
    assert run.returncode == 1
    assert f"{name}: bytes differ" in run.stdout


def test_rtol_means_the_same_for_hu_images_and_pathlengths(two_dirs):
    a, b = two_dirs
    hu = np.linspace(-1000.0, 1043.0, 12).reshape(3, 4)
    write_array(a / "mono70_mle.pcmd", hu, labels=["y", "x"])
    write_array(b / "mono70_mle.pcmd", hu * (1.0 + 5e-12), labels=["y", "x"])
    arr = np.arange(12.0).reshape(2, 3, 2) + 0.5
    write_array(b / "pathlengths_mle.pcmd", arr * (1.0 + 5e-12), labels=["view", "channel", "material"])
    assert "2 differ" in compare(a, b, "--atol", "1e-12").stdout   # the HU image fails, as did pathlengths
    close = compare(a, b, "--rtol", "1e-11")
    assert close.returncode == 0, close.stdout
    assert close.stdout.count("(within rtol 1e-11)") == 2 and "0 differ" in close.stdout
    far = compare(a, b, "--rtol", "1e-12")
    assert far.returncode == 1 and "2 differ" in far.stdout


def test_a_nan_gap_fails_whatever_the_rtol(two_dirs):
    a, b = two_dirs
    arr = np.arange(12.0).reshape(2, 3, 2) + 0.5
    arr[0, 0, 0] = np.nan
    write_array(a / "pathlengths_mle.pcmd", arr, labels=["view", "channel", "material"])
    arr[0, 0, 0] = 0.5
    write_array(b / "pathlengths_mle.pcmd", arr, labels=["view", "channel", "material"])
    run = compare(a, b, "--rtol", "1e6", "--atol", "1e6")
    assert run.returncode == 1 and "1 differ" in run.stdout
    arr[0, 0, 0] = np.nan   # NaN on both sides matches
    arr[1, 2, 1] *= 1.0 + 1e-12
    write_array(b / "pathlengths_mle.pcmd", arr, labels=["view", "channel", "material"])
    assert compare(a, b, "--rtol", "1e-11").returncode == 0
