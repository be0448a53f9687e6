"""Does this host's second core pay for inference lanes?

Prints one JSON object:
- `host`: usable cores, `layers.LANES`, Python, numpy and BLAS versions;
- `gemm`: the throughput of two threads each running 512x512 float32 GEMMs,
  as a ratio to one thread running them alone (2.0 would be perfect
  scaling, 1.0 none);
- `forward`: the median time of an inference forward of
  `bench/fixtures/cls.ckpt` at batch 8, 32 and 64 in one lane and in
  `layers.LANES` lanes, the two interleaved within each round, with the
  number of rounds in which the lanes were faster and whether both gave the
  same logits bytes.

Run from anywhere, with BLAS at its one-thread default:

    python scripts/lane_scaling.py [--rounds 100] > LANES_<n>.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import swpnet  # noqa: E402,F401  (pins BLAS to one thread before numpy loads)
import numpy as np  # noqa: E402

from swpnet import layers, models  # noqa: E402
from swpnet.autodiff import Tensor  # noqa: E402

CHECKPOINT = ROOT / "bench" / "fixtures" / "cls.ckpt"
BATCHES = (8, 32, 64)
GEMM_SIZE = 512
GEMMS_PER_THREAD = 8


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "lanes": layers.LANES,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def gemm_seconds(threads: int, a: np.ndarray, b: np.ndarray) -> float:
    """Wall time of `threads` threads each running GEMMS_PER_THREAD GEMMs."""
    start = threading.Barrier(threads + 1)

    def run():
        out = np.empty_like(a)
        start.wait()
        for _ in range(GEMMS_PER_THREAD):
            np.matmul(a, b, out=out)

    workers = [threading.Thread(target=run) for _ in range(threads)]
    for w in workers:
        w.start()
    start.wait()
    t0 = perf_counter()
    for w in workers:
        w.join()
    return perf_counter() - t0


def gemm_scaling(rounds: int) -> dict:
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal((GEMM_SIZE, GEMM_SIZE), dtype=np.float32) for _ in range(2))
    gemm_seconds(2, a, b)   # warm-up
    one, two = [], []
    for r in range(rounds):
        for threads in ((1, 2) if r % 2 == 0 else (2, 1)):
            rate = threads * GEMMS_PER_THREAD / gemm_seconds(threads, a, b)
            (one if threads == 1 else two).append(rate)
    return {"size": GEMM_SIZE, "dtype": "float32", "gemms_per_thread": GEMMS_PER_THREAD,
            "rounds": rounds,
            "one_thread_gemms_per_s": statistics.median(one),
            "two_threads_gemms_per_s": statistics.median(two),
            "ratio": statistics.median(t / o for o, t in zip(one, two))}


def forward_ms(model, x: Tensor, lanes: int) -> tuple[float, bytes]:
    layers.LANES = lanes
    t0 = perf_counter()
    logits = model.forward(x)
    return 1e3 * (perf_counter() - t0), logits.data.tobytes()


def lane_scaling(rounds: int) -> dict:
    lanes = layers.LANES
    model = models.load_checkpoint(CHECKPOINT)
    size = model.config.input_size
    rng = np.random.default_rng(0)
    result = {"checkpoint": str(CHECKPOINT.relative_to(ROOT)), "input_size": size, "lanes": lanes,
              "rounds": rounds, "batches": {}}
    try:
        for batch in BATCHES:
            x = Tensor(rng.standard_normal((batch, 3, size, size), dtype=np.float32))
            times = {1: [], lanes: []} if lanes > 1 else {1: []}
            logits = {n: forward_ms(model, x, n)[1] for n in times}   # warm-up
            for r in range(rounds):
                for n in (sorted(times) if r % 2 == 0 else sorted(times, reverse=True)):
                    ms, out = forward_ms(model, x, n)
                    times[n].append(ms)
                    if out != logits[n]:
                        raise RuntimeError(f"a batch-{batch} forward in {n} lanes gave other logits "
                                           "than its warm-up")
            many = times[lanes]
            result["batches"][str(batch)] = {
                "ms_1_lane": statistics.median(times[1]),
                "ms_lanes": statistics.median(many),
                "lanes_faster_rounds": sum(m < o for o, m in zip(times[1], many)),
                "byte_equal": logits[1] == logits[lanes]}
    finally:
        layers.LANES = lanes
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=100, help="timed rounds per measurement")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    report = {"host": host(), "gemm": gemm_scaling(args.rounds), "forward": lane_scaling(args.rounds)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
