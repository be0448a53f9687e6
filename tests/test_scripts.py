"""Smoke tests for the measurement scripts under scripts/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_artifact_digest_covers_the_recipe():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_digest.py"), "--root", str(ROOT)],
                         capture_output=True, text=True, timeout=600, check=True)
    report = json.loads(run.stdout)
    assert [line.split()[0] for line in report["commands"]] == [
        "gen-data", "gen-data", "train", "train", "train", "eval", "eval", "pipeline", "pipeline",
        "heatmap", "analyze-bins"]
    assert all(c["exit"] == 0 and len(c["stdout_sha256"]) == 64 for c in report["commands"].values())
    files = report["files"]
    for name in ("data/train.txt", "data/eval.txt", "data/images/train_00000_c0.ppm", "cls.ckpt",
                 "swp.ckpt", "loc.ckpt.history.csv", "bins/train_cx.csv"):
        assert len(files[name]) == 64
    assert sum(name.startswith("heat/") for name in files) == 2


def test_logits_digest_repeats_itself():
    runs = [subprocess.run([sys.executable, str(ROOT / "scripts" / "logits_digest.py"), "--root", str(ROOT)],
                           capture_output=True, text=True, timeout=600, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    report = json.loads(runs[0])
    assert list(report) == ["cls", "loc", "boxcls", "cls+swp", "d50"]
    for digests in report.values():
        assert list(digests) == ["1", "2", "3", "4", "5", "8", "16", "32", "33", "64"]
        assert all(len(d) == 64 for d in digests.values())


def test_forward_ab_of_a_checkout_against_itself():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "forward_ab.py"), "--a", str(ROOT),
                          "--b", str(ROOT), "--batch", "2", "--rounds", "2", "--calls", "1"],
                         capture_output=True, text=True, timeout=600, check=True)
    report = json.loads(run.stdout)
    assert (report["batch"], report["rounds"], report["calls"]) == (2, 2, 1)
    assert report["a_median_s"] > 0 and report["b_median_s"] > 0
    assert report["ratio_b_over_a"] == report["b_median_s"] / report["a_median_s"]
    assert 0 <= report["b_wins"] <= 2
