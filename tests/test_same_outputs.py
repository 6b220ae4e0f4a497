import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from pcmd.arrayio import write_array

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "same_outputs.py")


def compare(dir_a, dir_b):
    return subprocess.run([sys.executable, TOOL, str(dir_a), str(dir_b)],
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
