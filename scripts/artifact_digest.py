"""What does a fixed tiny CLI recipe print and write?

Runs `swpnet` from a checkout's `src/` through a small recipe in a fresh
temporary directory, each command with that directory as its working
directory and relative paths, so the output does not depend on where
either lives:
- `gen-data` for a train split and an eval split;
- `train`: a classifier, an SWP-head classifier and a localiser;
- `eval` of the classifier, `eval --raw` of the localiser, `pipeline` and
  `pipeline --oracle`;
- `heatmap` and `analyze-bins --preprocess`.
`bench` is left out: its report holds timings.

Prints one JSON object: `commands` maps each command line to its exit code
and the sha256 of its stdout, and `files` maps each file the recipe wrote,
by its path relative to the temporary directory, to its sha256. Two
checkouts that print equal JSON printed and wrote the same bytes:

    python scripts/artifact_digest.py --root /path/to/other/checkout > other.json
    python scripts/artifact_digest.py > this.json
    cmp other.json this.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GEN = ["gen-data", "--classes", "3", "--per-class", "4", "--canvas", "48", "--out-dir", "data",
       "--scale-min", "0.55", "--scale-max", "0.65", "--jitter", "0.05", "--clutter", "1"]
TRAIN = ["train", "--arch", "18", "--width", "0.0625", "--input-size", "32",
         "--manifest", "data/train.txt", "--epochs", "2", "--batch-size", "4",
         "--scale-min", "0.70", "--scale-max", "0.80", "--seed", "3"]
EVAL = ["--manifest", "data/eval.txt", "--batch-size", "5"]
RECIPE = (
    [*GEN, "--seed", "1"],
    [*GEN, "--seed", "2", "--split", "eval"],
    [*TRAIN, "--out", "cls.ckpt"],
    [*TRAIN, "--out", "swp.ckpt", "--swp", "--swp-masks", "3", "--fc-nodes", "16"],
    [*TRAIN, "--out", "loc.ckpt", "--task", "loc"],
    ["eval", "--ckpt", "cls.ckpt", *EVAL],
    ["eval", "--ckpt", "loc.ckpt", "--raw", *EVAL],
    ["pipeline", "--loc", "loc.ckpt", "--cls", "cls.ckpt", *EVAL],
    ["pipeline", "--oracle", "--cls", "cls.ckpt", *EVAL],
    ["heatmap", "--ckpt", "swp.ckpt", "--manifest", "data/eval.txt", "--out-dir", "heat",
     "--limit", "2"],
    ["analyze-bins", "--manifest", "data/train.txt", "--out-prefix", "bins/train",
     "--preprocess", "--crop", "32", "--seed", "4"],
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SWPNET_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    commands = {}
    with tempfile.TemporaryDirectory(prefix="swpnet-digest-") as tmp:
        for args in RECIPE:
            run = subprocess.run([sys.executable, "-m", "swpnet.cli", *args], cwd=tmp, env=env,
                                 capture_output=True, timeout=600)
            commands[" ".join(args)] = {"exit": run.returncode, "stdout_sha256": sha256(run.stdout)}
        files = {p.relative_to(tmp).as_posix(): sha256(p.read_bytes())
                 for p in sorted(Path(tmp).rglob("*")) if p.is_file()}
    return {"commands": commands, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ runs the recipe (default: this one)")
    args = parser.parse_args(argv)
    print(json.dumps(digest(args.root.resolve()), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
