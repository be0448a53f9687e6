"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 36 --trace 0

Run from anywhere; the script finds the checkout from its own location and
writes only under `.bench_work/` there.  Human-readable lines start with
`#`; the last line of stdout is the JSON result.

--trace 0 prints every end-to-end metric in BENCHMARK.json, so it sets up
all three workload bodies and runs rounds of their units until --seconds
have passed; the named workload only matters to --trace 1.  Its times are
corrected for the host's speed by `clock.HostClock`.
--trace 1 sets up only the named workload and alternates untraced and
traced units of it, and prints every per-layer metric, the tracing
overhead and the span coverage.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import common

MIN_ROUNDS = 2


def environment(blas_threads_pinned: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(), "threads_pinned": blas_threads_pinned},
        "git": _git_state(),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, or None."""
    import ctypes
    from pathlib import Path

    import numpy as np

    site = Path(np.__file__).resolve().parent
    for lib_path in sorted([*site.parent.glob("numpy.libs/*openblas*"), *site.glob(".libs/*openblas*")]):
        lib = ctypes.CDLL(str(lib_path))   # already loaded by numpy: same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_state() -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=common.ROOT, capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}   # not a git checkout


def body_seeds(seed: int) -> dict[str, int]:
    """Independent input seeds per workload body, derived from --seed."""
    import numpy as np
    from workloads import WORKLOADS

    states = np.random.SeedSequence(seed).generate_state(len(WORKLOADS))
    return {name: int(s) for name, s in zip(WORKLOADS, states)}


def run_unit(body, checks, clock, into: dict) -> float:
    """Run one unit and return its wall seconds.  Collects garbage after
    the timed part: autodiff closures leave reference cycles, and without
    this the peak RSS grew with every round (147 to 170 MB over two), so it
    depended on how many rounds fit in --seconds."""
    start = perf_counter()
    for key, values in body.unit(checks, clock).items():
        into[key].extend(values)
    seconds = perf_counter() - start
    gc.collect()
    return seconds


def set_up(seeds: dict, workdir, clock) -> tuple[dict, tuple[float, float]]:
    """Build all three bodies in a fresh directory, with a tick before and
    after each; returns them and the (start, end) of the set-up."""
    from workloads import WORKLOADS

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    clock.tick()
    start = perf_counter()
    bodies = {}
    for name, cls in WORKLOADS.items():
        bodies[name] = cls(seeds[name], workdir / name)
        clock.tick()
    return bodies, (start, perf_counter())


def round_schedule(bodies: dict) -> list[str]:
    """One round: each body's units_per_round units, spread evenly."""
    slots = [((j + 0.5) / body.units_per_round, name)
             for name, body in bodies.items() for j in range(body.units_per_round)]
    return [name for _, name in sorted(slots, key=lambda slot: slot[0])]


def untraced(args, workdir, checks) -> tuple[dict, list[str]]:
    import numpy as np
    from clock import REFERENCE_S, HostClock
    from workloads import median, seconds

    # The host's speed drifts over seconds, so every round runs units of
    # each body and two more set-ups: every metric then samples the whole run.
    clock = HostClock()
    seeds = body_seeds(args.seed)
    bodies, first = set_up(seeds, workdir / "setup", clock)
    setups = [first]
    for body in bodies.values():
        body.warmup(checks, clock)
        gc.collect()
        clock.tick()

    samples = {name: defaultdict(list) for name in bodies}
    schedule = round_schedule(bodies)
    half = len(schedule) // 2
    slots = [*schedule[:half], "set-up", *schedule[half:], "set-up"]
    last = {}                       # seconds the last slot of each kind took
    done = 0
    start = perf_counter()
    while True:
        kind = slots[done % len(slots)]
        # stop before a slot that would overrun --seconds
        if done >= MIN_ROUNDS * len(slots) and perf_counter() - start + last[kind] > args.seconds:
            break
        slot_start = perf_counter()
        if kind == "set-up":
            setups.append(set_up(seeds, workdir / "setup-again", clock)[1])
            # delete now, so the next set-up does not start on a fresh rmtree
            shutil.rmtree(workdir / "setup-again")
        else:
            run_unit(bodies[kind], checks, clock, samples[kind])
            clock.tick()
        last[kind] = perf_counter() - slot_start
        done += 1

    def end_to_end(clock) -> dict:
        out = {"setup_s": (median(seconds(clock, setups)), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
        for name, body in bodies.items():
            out.update(body.metrics(samples[name], clock))
        return out

    metrics, wall = end_to_end(clock), end_to_end(clock.unscaled())
    refs_ms = [r * 1e3 for r in clock.refs]
    notes = [f"{done / len(slots):.2f} rounds of {', '.join(slots)} in {perf_counter() - start:.1f} s",
             f"setup_s: median of {len(setups)} set-ups of all three bodies: "
             + ", ".join(f"{t:.3f}" for t in seconds(clock, setups)),
             f"host speed: {len(refs_ms)} reference ticks, median {median(refs_ms):.3f} ms "
             f"(p10 {np.percentile(refs_ms, 10):.3f}, p90 {np.percentile(refs_ms, 90):.3f}) "
             f"against REFERENCE_S {REFERENCE_S * 1e3:.3f} ms; times below are scaled by that ratio"]
    for name, body in bodies.items():
        notes += body.notes(samples[name])
    notes += [f"unscaled {name} = {value:.6g} {unit} (wall time, ticks left out)"
              for name, (value, unit) in wall.items() if unit in ("s", "ms", "img/s")]
    return metrics, notes


def traced(args, workdir, checks) -> tuple[dict, list[str]]:
    from clock import HostClock
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    body = WORKLOADS[args.workload](body_seeds(args.seed)[args.workload], workdir / args.workload)
    clock = HostClock(correct=False)   # no ticks: the traced run measures raw wall time
    body.warmup(checks, clock)

    tracer = Tracer()
    samples = {"untraced": defaultdict(list), "traced": defaultdict(list)}
    seconds = {"untraced": 0.0, "traced": 0.0}
    pairs, last_pair = 0, 0.0
    start = perf_counter()
    while pairs == 0 or perf_counter() - start + last_pair <= args.seconds:
        pair_start = perf_counter()
        # alternate which mode goes first, so drift cancels
        for mode in (("untraced", "traced") if pairs % 2 == 0 else ("traced", "untraced")):
            if mode == "traced":
                with tracer.install():
                    seconds[mode] += run_unit(body, checks, clock, samples[mode])
            else:
                seconds[mode] += run_unit(body, checks, clock, samples[mode])
        last_pair = perf_counter() - pair_start
        pairs += 1

    metrics = layer_metrics(tracer, pairs)
    overhead = 100 * (seconds["traced"] - seconds["untraced"]) / seconds["untraced"]
    coverage = 100 * tracer.top_level_ns / 1e9 / seconds["traced"]
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["trace.span_coverage_pct"] = (coverage, "%")

    plain, spanned = body.metrics(samples["untraced"], clock), body.metrics(samples["traced"], clock)
    notes = [f"{args.workload}: {pairs} traced and {pairs} untraced units; per-layer times are "
             "self times in ms per unit, counts are calls per unit",
             f"tracing overhead: {overhead:+.2f}% wall time per unit; span coverage "
             f"{coverage:.1f}% of traced unit time lies in top-level layer spans",
             "wait time: none reported; every layer runs synchronously on one thread "
             "(BLAS pinned to one thread), so no layer waits on another"]
    for name in body.throughputs:
        u, t = plain[name][0], spanned[name][0]
        notes.append(f"overhead {args.workload}/{name}: traced {t:.2f} - untraced {u:.2f} = "
                     f"{t - u:+.2f} img/s ({100 * (t - u) / u:+.2f}%)")
    return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train_desk", "infer_mem", "eval_disk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = common.pin_blas_threads()
    try:
        common.import_swpnet()
        from workloads import Checks

        checks = Checks()
        workdir = common.WORK / f"{args.workload}-{args.seed}"
        runner = traced if args.trace else untraced
        try:
            metrics, notes = runner(args, workdir, checks)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except common.SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:  # the benchmark itself broke: no result line
        traceback.print_exc()
        return 1

    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        print(f"error: metrics {sorted(set(metrics) ^ expected)} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1

    print("# env " + json.dumps(environment(pinned), sort_keys=True))
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    share = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"# failed_share = {share:.6g} ({checks.failed} of {checks.attempted} checked operations)")
    for message in checks.messages:
        print(f"# FAILED {message}")
    result = {"correct": checks.failed == 0 and checks.attempted > 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
