import math
import os
import subprocess
import sys

from test_config_cli import tiny_config, write_config

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "seed_table.py")


def test_two_seeds_give_two_rows_of_finite_values(tmp_path):
    path = write_config(tmp_path, tiny_config(tmp_path / "unused"))
    run = subprocess.run([sys.executable, TOOL, "--config", path, "--seeds", "1-2",
                          "--out", str(tmp_path / "seeds")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    header, *rows = run.stdout.split("\n")[:-1]
    assert header.split() == ["seed", "cnr_mle", "cnr_mace", "cnr_ratio", "bg_std_ratio",
                              "final_residual"]
    assert [row.split()[0] for row in rows] == ["1", "2"]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split()[1:])
    assert sorted(os.listdir(tmp_path / "seeds")) == ["seed_1", "seed_2"]
