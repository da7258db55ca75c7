"""uldplab benchmark: time to verdict, path-step throughput and per-layer self time.

Usage:
    python3 bench/run.py --workload {dz-sweep,fw-grid,converge,all}
        [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Runs from the root of a source checkout and imports ``uldplab`` from its
``src/``; it exits with status 2, printing no result, when there is none.

One run sets the workload up, then repeats full passes over it for about
``--seconds`` (at least one pass), in one process with at most two
threads.  A pass is a fixed list of program calls (scenario runs, the CLI
check, convergence tables).  With ``--trace 0`` it reports the
end-to-end metrics:

    wall_s            wall time of one pass: the sum over its calls of
                      each call's median time over the run's passes, so a
                      burst of machine noise in one call of one pass does
                      not move it
    path_steps_per_s  path-steps the pass requested (read from its
                      outputs) divided by wall_s
    setup_s           median over fresh interpreters, spread over the run,
                      of the time to import uldplab, load the configs and
                      build the models
    peak_rss_mb       high-water RSS of the process that ran the passes

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (medians over passes; counts
repeat exactly), plus ``trace.overhead_frac``, traced over untraced
wall time minus one.

Every pass is checked.  Each scenario check, each CLI exit status and
each output-digest comparison is one operation; a call that raises is a
failed one.  Without ``--seed`` the pinned seeds run and every output
must match ``digests.json`` byte for byte; a change that alters outputs
on purpose replaces it with the ``digests`` lines of pinned runs.  With a
seed, the digests of the first pass are recorded and every later pass
must match them.  The convergence tables first run once on one thread,
untimed, and every two-thread pass must match that: the thread-count
determinism contract.

Above the final JSON line the run prints its provenance (commit when the
checkout is a git repository, a digest of ``src/uldplab``, Python,
numpy and scipy versions, nproc, work per pass), the output digests, and
each metric by name with its unit.  ``--out FILE`` also writes all of
that, the per-call times and, when traced, every span, as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dz-sweep", "fw-grid", "converge")
SETUP_PROBES = 3
CONVERGE_THREADS = 2
# one thread per BLAS call, so a run uses at most the two pool threads
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"wall_s": "s", "path_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    if not (SRC / "uldplab" / "__init__.py").is_file():
        _die(f"no uldplab sources under {SRC}; run from a source checkout")
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC)]
    import uldplab

    if Path(uldplab.__file__).resolve().parent != SRC / "uldplab":
        _die(f"imported uldplab from {uldplab.__file__}, not from {SRC}")


class Ops:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} {detail}".strip())


def _run_pass(calls) -> tuple[float, dict[str, float], list]:
    """Run one pass; returns its wall time, each call's time and (call, checks, error)."""
    seconds, results = {}, []
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        try:
            checks, error = call.run(), None
        except Exception:  # one failed operation; the pass goes on
            checks, error = (), traceback.format_exc()
        seconds[call.key] = time.perf_counter() - t0
        results.append((call, checks, error))
    return time.perf_counter() - start, seconds, results


def _verify(results, expected: dict, ops: Ops):
    """Check one pass's outputs; returns the work they requested and their digests."""
    from workloads import WorkCount, count_work

    work = WorkCount()
    digests = {}
    for call, checks, error in results:
        if error is not None:
            ops.record(call.key, False, "raised:\n" + error)
            continue
        for name, ok in checks:
            ops.record(name, ok)
        data = Path(call.path).read_bytes()
        digest = digests[call.key] = hashlib.sha256(data).hexdigest()
        if call.key in expected:
            ops.record(f"{call.key}:digest", digest == expected[call.key], f"{digest} != {expected[call.key]}")
        else:
            expected[call.key] = digest
        work.add(count_work(json.loads(data), call.steps, call.channels))
    return work, digests


def _pass_seconds(per_call: list[dict[str, float]]) -> float:
    """Sum over a pass's calls of each call's median time over passes."""
    return sum(statistics.median(p[key] for p in per_call) for key in per_call[0])


def _setup_seconds(workload: str, seed) -> float:
    """Spawn-to-exit time of one fresh interpreter that only sets up."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, "pinned" if seed is None else str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _die(f"set-up probe failed:\n{proc.stderr}")
    return time.perf_counter() - t0


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "uldplab").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _provenance(args, work, passes: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": "pinned" if args.seed is None else args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "path_steps_per_pass": work.path_steps,
        "sample_steps_per_pass": work.sample_steps,
    }


def run_workload(args) -> int:
    from tracer import Tracer, layer_metrics, layer_unit, median_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probes = 0 if args.trace else SETUP_PROBES
    setup_times: list[float] = []
    state = workload.setup(args.seed)
    expected = {} if args.seed is not None else json.loads((BENCH / "digests.json").read_text())
    ops = Ops()
    tracer = Tracer() if args.trace else None
    plain, traced_runs, faults, layers, spans = [], [], [], [], []
    work = digests = None
    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as outdir:
        if args.workload == "converge":  # single-thread reference, untimed
            _verify(_run_pass(workload.calls(state, outdir, 1))[2], expected, ops)
        calls = workload.calls(state, outdir, CONVERGE_THREADS if args.workload == "converge" else 1)
        spent = 0.0  # in passes and their checks; the set-up probes come on top
        while True:
            traced = bool(args.trace) and len(plain) > len(traced_runs)
            if len(setup_times) < probes:  # spread over the run, so load drift averages out
                setup_times.append(_setup_seconds(args.workload, args.seed))
            start = time.perf_counter()
            gc.collect()  # every pass starts without garbage left by the last
            faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            if traced:
                tracer.install()
            try:
                wall, per_call, results = _run_pass(calls)
            finally:
                if traced:
                    tracer.uninstall()
            pass_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
            pass_work, digests = _verify(results, expected, ops)
            work = work or pass_work
            if traced:
                traced_runs.append(per_call)
                pass_spans = tracer.take()
                layers.append(layer_metrics(pass_spans, tracer.absent))
                if args.out:
                    spans.extend(pass_spans)
            else:
                plain.append(per_call)
                faults.append(pass_faults)
            done = len(plain) + len(traced_runs)
            print(f"pass {done}{' traced' if traced else ''}: {wall:.3f} s", file=sys.stderr)
            spent += time.perf_counter() - start
            if done >= (2 if args.trace else 1) and spent + spent / done > args.seconds:
                break
        while len(setup_times) < probes:
            setup_times.append(_setup_seconds(args.workload, args.seed))

    wall_s = _pass_seconds(plain)
    if args.trace:
        metrics = median_metrics(layers)
        metrics.update({
            "trace.overhead_frac": _pass_seconds(traced_runs) / wall_s - 1.0,
            "process.minor_faults": statistics.median(faults),
            "work.path_steps": work.path_steps,
            "work.sample_steps": work.sample_steps,
            "estimators.zero_hit_estimates": work.zero_hit_estimates,
            "estimators.min_ess": work.min_ess if work.min_ess != float("inf") else 0.0,  # 0: no estimates
        })
        unit_of = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": wall_s,
            "path_steps_per_s": work.path_steps / wall_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        unit_of = END_TO_END_UNITS

    provenance = _provenance(args, work, len(plain) + len(traced_runs))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("digests " + json.dumps(digests, sort_keys=True))
    if tracer is not None and tracer.absent:
        print("absent wrap targets, their metrics left out: " + ", ".join(tracer.absent))
    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of[name]}")
    failed = len(ops.failures)
    print(f"failed_frac {failed / max(ops.attempted, 1):.6g} ratio ({failed} of {ops.attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    if args.out:
        record = {
            "provenance": provenance,
            "digests": digests,
            "setup_s": setup_times,
            "call_s": plain,
            "traced_call_s": traced_runs,
            "failures": ops.failures,
            "result": result,
        }
        if spans:
            index = {id(s): i for i, s in enumerate(spans)}
            record["spans"] = [s.to_json(index) for s in spans]
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints their reports and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1800)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None, help="omit to run the pinned seeds against digests.json")
    ap.add_argument("--seconds", type=float, default=35.0, help="measure for about this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record here as JSON (one workload only)")
    args = ap.parse_args(argv)
    _import_program()
    if args.workload == "all":
        if args.out:
            ap.error("--out takes one workload")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
