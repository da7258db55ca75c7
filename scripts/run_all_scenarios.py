"""Run every pinned scenario and print a one-line verdict per check.

Usage:
    python scripts/run_all_scenarios.py [--out DIR] [--only NAME ...] [--seeds A:B]

With --out, each scenario writes its full JSON result into DIR.  With
--seeds A:B, every scenario runs once at each seed A, A + 1, ..., B in
place of its pinned seed, and --out writes NAME-seedS.json.  Exit status
is the number of failed (scenario, seed) runs, capped at 255, so 0
means the whole suite reproduced its expected behaviour.
"""

import argparse
import os
import sys
import time

from uldplab.scenarios import SCENARIO_NAMES, run


def _seed_range(text: str) -> list[int]:
    lo, sep, hi = text.partition(":")
    try:
        seeds = list(range(int(lo), int(hi) + 1))
    except ValueError:
        seeds = []
    if not sep or not seeds:
        raise argparse.ArgumentTypeError(f"--seeds takes A:B with integers A <= B, got {text!r}")
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="directory for per-scenario JSON results")
    ap.add_argument("--only", nargs="*", help="subset of scenario names")
    ap.add_argument("--seeds", type=_seed_range, help="run every scenario at each seed A..B, inclusive")
    args = ap.parse_args(argv)

    names = args.only or sorted(SCENARIO_NAMES)
    unknown = set(names) - set(SCENARIO_NAMES)
    if unknown:
        ap.error(f"unknown scenarios: {sorted(unknown)}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    runs = [(name, seed) for name in names for seed in (args.seeds or [None])]
    failures = 0
    for name, seed in runs:
        label = name if seed is None else f"{name} seed={seed}"
        dest = None
        if args.out:
            dest = os.path.join(args.out, f"{name}.json" if seed is None else f"{name}-seed{seed}.json")
        t0 = time.perf_counter()
        result = run(name, seed=seed, out=dest)
        dt = time.perf_counter() - t0
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {label} ({dt:.1f}s)")
        for check in result.checks:
            mark = "ok" if check.passed else "FAIL"
            print(f"    {mark:4s} {check.name}: {check.detail}")
        failures += 0 if result.passed else 1
    noun = "scenarios" if args.seeds is None else "scenario runs"
    print(f"{len(runs) - failures}/{len(runs)} {noun} passed")
    return min(failures, 255)  # an exit status wraps modulo 256


if __name__ == "__main__":
    sys.exit(main())
