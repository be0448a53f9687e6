"""Is one checkout's inference forward faster than another's, same bytes?

Copies each checkout's `src/swpnet` into a temporary directory under its
own package name (`swpnet_a`, `swpnet_b`), so both load in one process, and
loads the same checkpoint with each.  It first checks that the two give
byte-equal logits on one fixed-seed batch (exit 1 if not), then runs
rounds of timed `Model.forward(train=False)` calls on that batch: each
round times --calls forwards of each side back to back, A first in even
rounds and B first in odd ones, and keeps each side's median.  Both sides
run under the same host load, which two processes on a shared host do
not see.

Prints one JSON object: each side's median seconds per forward over the
rounds, the ratio of B's median to A's (below 1: B is faster) and the
number of rounds B won.

    python scripts/forward_ab.py --a /path/to/other/checkout --batch 32 --rounds 20
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 30


def load_side(checkout: Path, name: str, where: Path):
    """The `models` module of the checkout's swpnet, imported as package
    `name` from a copy under `where`."""
    shutil.copytree(checkout / "src" / "swpnet", where / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.models")


def logit_bytes(out) -> bytes:
    import numpy as np

    return b"".join(np.ascontiguousarray(part.data).tobytes() for part in (out if isinstance(out, list) else [out]))


def timed(forward, calls: int) -> float:
    """Median seconds of `calls` back-to-back forwards."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        forward()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def compare(sides, args) -> dict | None:
    """The timing report of the two `models` modules `sides`, or None when
    their logits differ."""
    import numpy as np

    nets = [side.load_checkpoint(args.ckpt) for side in sides]
    size = nets[0].config.input_size
    x = np.random.default_rng(SEED).uniform(size=(args.batch, 3, size, size)).astype(np.float32)
    forwards = [lambda net=net, t=side.Tensor(x): net.forward(t, train=False)
                for net, side in zip(nets, sides)]
    if logit_bytes(forwards[0]()) != logit_bytes(forwards[1]()):
        return None
    rounds = []
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        times = {i: timed(forwards[i], args.calls) for i in order}
        rounds.append((times[0], times[1]))
    a, b = (statistics.median(t[i] for t in rounds) for i in (0, 1))
    return {"checkpoint": str(args.ckpt), "batch": args.batch, "rounds": args.rounds, "calls": args.calls,
            "a_median_s": a, "b_median_s": b, "ratio_b_over_a": b / a,
            "b_wins": sum(tb < ta for ta, tb in rounds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, default=ROOT, help="checkout A, the baseline (default: this one)")
    parser.add_argument("--b", type=Path, default=ROOT, help="checkout B, the change (default: this one)")
    parser.add_argument("--ckpt", type=Path, default=ROOT / "bench" / "fixtures" / "cls.ckpt",
                        help="checkpoint both sides load (default: bench/fixtures/cls.ckpt)")
    parser.add_argument("--batch", type=int, default=32, help="images per forward (default: 32)")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds (default: 20)")
    parser.add_argument("--calls", type=int, default=5, help="forwards per side per round (default: 5)")
    args = parser.parse_args(argv)
    if min(args.batch, args.rounds, args.calls) < 1:
        parser.error("--batch, --rounds and --calls must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load_side(args.a.resolve(), "swpnet_a", Path(tmp)),
                 load_side(args.b.resolve(), "swpnet_b", Path(tmp))]
        report = compare(sides, args)
    if report is None:
        print("logits differ between A and B", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
