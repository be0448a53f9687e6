"""Smoke tests for the measurement scripts under scripts/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lane_scaling_reports_the_host_gemms_and_forwards():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "lane_scaling.py"), "--rounds", "2"],
                         capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(run.stdout)
    assert report["host"]["usable_cores"] >= 1 and report["host"]["numpy"]
    assert report["gemm"]["rounds"] == 2 and report["gemm"]["ratio"] > 0
    forward = report["forward"]
    assert forward["lanes"] == report["host"]["lanes"]
    assert sorted(forward["batches"], key=int) == ["8", "32", "64"]
    for batch in forward["batches"].values():
        assert batch["ms_1_lane"] > 0 and batch["ms_lanes"] > 0
        assert 0 <= batch["lanes_faster_rounds"] <= 2
        assert batch["byte_equal"]
