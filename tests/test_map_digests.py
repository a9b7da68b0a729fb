"""tools/map_digests.py maps a checkout the same way on every run."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsdfmap
from tsdfmap.cli import _numpy_dispatch

ROOT = Path(__file__).resolve().parent.parent


def test_two_runs_on_a_desk_prefix_print_the_same_digests():
    cmd = [sys.executable, str(ROOT / "tools" / "map_digests.py"), str(ROOT), "--seed", "1",
           "--frames", "2", "--workload", "desk-orbit"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT) for _ in range(2)]
    dispatch = _numpy_dispatch() or {"exp": "unknown", "log1p": "unknown"}  # must agree with the manifest
    for run in runs:
        assert run.returncode == 0, run.stderr
    header, *lines = runs[0].stdout.splitlines()
    assert header == (f"tsdfmap {tsdfmap.__version__}  numpy {np.__version__}  "
                      f"exp {dispatch['exp']}  log1p {dispatch['log1p']}")
    assert [line.split()[5] for line in lines] == ["loss_trace", "fisher", "level0", "level1",
                                                   "pool", "decoder", "mesh", "eval"]
    assert all(line.startswith("desk-orbit    seed 1  frames 2 ") for line in lines)
    assert all(len(line.split()[6]) == 64 for line in lines)
    assert runs[1].stdout == runs[0].stdout


@pytest.mark.parametrize("frames", ["0", "-1"])
def test_fewer_than_one_frame_is_rejected(frames):
    """Rejected while parsing, before the checkout is imported or a scan is made."""
    cmd = [sys.executable, str(ROOT / "tools" / "map_digests.py"), str(ROOT / "no-such-checkout"),
           "--seed", "1", "--frames", frames]
    run = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    assert run.returncode == 2
    assert f"--frames must be at least 1, got {frames}" in run.stderr
    assert run.stdout == ""
