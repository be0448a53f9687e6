"""What logits do the committed checkpoints give, byte for byte?

Loads `bench/fixtures/{cls,loc,boxcls}.ckpt` from a checkout, and the
classifier once more with an SWP head attached, builds a seeded ResNet-50
classifier at width 1/8 (no fixture has bottleneck blocks), imports
`swpnet` from that checkout's `src/`, and runs an inference forward of each
model at batches 1, 2, 3, 4, 5, 8, 16, 32, 33 and 64 on the first images of
one fixed-seed input set.  The batches take in both sides of each conv's
switch between a row-major and a batch-innermost GEMM, and the 4-image
tail of a 100-image evaluation at batch 32.

Prints one JSON object that maps each model to the sha256 of its logit
bytes at each batch size (a localiser's four outputs hashed in order).  Two
checkouts that print equal JSON computed the same logits:

    python scripts/logits_digest.py --root /path/to/other/checkout > other.json
    python scripts/logits_digest.py > this.json
    cmp other.json this.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BATCHES = (1, 2, 3, 4, 5, 8, 16, 32, 33, 64)
SEED = 29
SWP_MASKS = 9


def digest(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    from swpnet import datasynth, models, swp
    from swpnet.autodiff import Tensor

    fixtures = root / "bench" / "fixtures"
    targets = {name: models.load_checkpoint(fixtures / f"{name}.ckpt") for name in ("cls", "loc", "boxcls")}
    extent = models.feature_map_extent(targets["cls"].config)
    targets["cls+swp"] = models.attach_swp_head(models.load_checkpoint(fixtures / "cls.ckpt"),
                                                swp.SWPSpec(SWP_MASKS, extent, extent))
    targets["d50"] = models.Model(models.ModelConfig(depth_variant=50, num_classes=10, width_multiplier=1 / 8,
                                                     input_size=targets["cls"].config.input_size), seed=SEED)
    rng = np.random.default_rng(SEED)
    inputs = {}
    report = {}
    for name, model in targets.items():
        side = model.config.input_size
        if side not in inputs:
            rasters = [rng.integers(0, 256, size=(side, side, 3), dtype=np.uint8) for _ in range(max(BATCHES))]
            inputs[side] = datasynth.to_network_input(rasters)
        report[name] = {}
        for batch in BATCHES:
            out = model.forward(Tensor(inputs[side][:batch]), train=False)
            h = hashlib.sha256()
            for part in out if isinstance(out, list) else [out]:
                h.update(np.ascontiguousarray(part.data).tobytes())
            report[name][str(batch)] = h.hexdigest()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ and bench/fixtures/ are used (default: this one)")
    args = parser.parse_args(argv)
    print(json.dumps(digest(args.root.resolve()), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
