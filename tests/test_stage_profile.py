import math
import os
import subprocess
import sys

from test_config_cli import tiny_config, write_config

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "stage_profile.py")


def test_six_stages_give_six_rows_of_finite_values(tmp_path):
    path = write_config(tmp_path, tiny_config(tmp_path / "unused"))
    run = subprocess.run([sys.executable, TOOL, "--config", path, "--out",
                          str(tmp_path / "study")], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    header, *rows = run.stdout.split("\n")[:-1]
    assert header.split() == ["stage", "wall_s", "elapsed_s", "peak_rss_mb"]
    assert [row.split()[0] for row in rows] == ["simulate", "calibrate", "decompose_mle",
                                                "decompose_mace", "reconstruct", "evaluate"]
    for row in rows:
        wall, elapsed, rss = map(float, row.split()[1:])
        assert all(map(math.isfinite, (wall, elapsed, rss))), row
        # a manifest records elapsed_s to the microsecond, so even the tiny evaluate shows
        assert wall > elapsed > 0 and rss > 0, row
    assert (tmp_path / "study" / "stats.csv").exists()
    assert not (tmp_path / "unused").exists()
