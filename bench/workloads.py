"""The three benchmark workloads: their set-up and the program calls of one pass.

Why these three.  ``dz-sweep`` repeats a few noise keys many times and
steps cheaply (one cumsum per block), so noise generation, ball-union
margins and the weighted reduction dominate.  ``converge`` draws fresh
noise for every cell and steps expensively in per-step Python loops on
two threads, so it bypasses any noise reuse and exercises the stepper
and the thread pool.  ``fw-grid`` makes many small estimates plus the
rate side (level sets, ``inf_h_plus_I``), Laplace functionals, report
assembly and the CLI path.  A cache or batching change that helps one
of the first two and costs the other shows up.

Seeds.  ``seed=None`` runs the pinned seeds (the scenario configs, the
CLI default, 31 and 37 for the two convergence tables) and the caller
compares every output against ``digests.json``.  Any other seed is
hashed with each call's key into that call's seed (``scenarios.run``
seed, CLI ``--seed``, table seed), so the calls keep distinct noise
streams, as the pinned seeds do.

Work counts are read from the outputs, never from the implementation:
path-steps are n x steps over every estimate row and Laplace cell, and
n x steps x (number of eps) over every convergence cell; sample-steps
multiply by the model's noise channels and count a convergence cell's
draws once.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from uldplab import cli, convergence, scenarios
from uldplab.estimators import EpsilonSchedule
from uldplab.models import DriftSpec, FiniteSDE, GalerkinSPDE, NoiseSpec, load_model, model_from_spec
from uldplab.pathspace import TimeGrid
from uldplab.uldp import IndexSetSample

DZ_SCENARIOS = ("dz-lower-bounded", "dz-lower-unbounded", "dz-hausdorff-discontinuity")
FW_SCENARIOS = ("bm-fwuldp-holds", "y-fwuldp-fails", "y-luldp-holds", "ulp-counter", "spde-fwuldp")
CLI_CHECK_ARGS = (
    "check", "--model", "translated-bm", "--definition", "fwuldp",
    "--x", "-1000000", "--x", "0", "--x", "1000000",
    "--eps-grid", "0.05:0.2:3", "--delta", "0.4", "--s0", "0.25",
)


def call_seed(seed: int, key: str) -> int:
    """The seed of one call in a run with the given workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{key}".encode()).digest()[:4], "big")


@dataclass(frozen=True)
class Call:
    """One program call of a pass and the file it writes.

    ``run`` returns the program's own pass/fail checks as (name, ok).
    """

    key: str
    run: Callable[[], tuple[tuple[str, bool], ...]]
    path: str
    steps: int
    channels: int


@dataclass(frozen=True)
class Workload:
    setup: Callable  # seed -> state: configs loaded, models built
    calls: Callable  # (state, outdir, threads) -> list[Call], one pass


# ---------------------------------------------------------------------------
# scenario workloads


def _scenario_setup(names: tuple[str, ...]) -> Callable:
    def setup(seed):
        plan = []
        for name in names:
            cfg = scenarios.load_config(name)
            plan.append((name, int(cfg["steps"]), model_from_spec(cfg["model"]).channels))
        return {"seed": seed, "plan": plan}

    return setup


def _run_scenario(name: str, seed, path: str):
    result = scenarios.run(name, seed=seed, out=path)
    return tuple((f"{name}:{c.name}", bool(c.passed)) for c in result.checks)


def _scenario_calls(state: dict, outdir: str, threads: int) -> list[Call]:
    calls = []
    for name, steps, channels in state["plan"]:
        path = os.path.join(outdir, f"{name}.json")
        seed = None if state["seed"] is None else call_seed(state["seed"], name)
        calls.append(Call(name, functools.partial(_run_scenario, name, seed, path), path, steps, channels))
    return calls


def _fw_setup(seed):
    state = _scenario_setup(FW_SCENARIOS)(seed)
    argv = list(CLI_CHECK_ARGS) + ([] if seed is None else ["--seed", str(call_seed(seed, "cli-check"))])
    state["cli"] = (argv, 64, load_model("translated-bm").channels)  # 64: the CLI's default grid
    return state


def _run_cli(argv: list[str], path: str):
    with contextlib.redirect_stderr(io.StringIO()):  # the verdict lines
        code = cli.main(argv + ["--out", path])
    return (("cli-check:exit-status", code == 0),)


def _fw_calls(state: dict, outdir: str, threads: int) -> list[Call]:
    argv, steps, channels = state["cli"]
    path = os.path.join(outdir, "cli-check.json")
    cli_call = Call("cli-check", functools.partial(_run_cli, argv, path), path, steps, channels)
    return _scenario_calls(state, outdir, threads) + [cli_call]


# ---------------------------------------------------------------------------
# convergence tables


def _converge_setup(seed):
    m = 16
    spectral = GalerkinSPDE(modes=m, channels=m)  # as in scripts/spectral_convergence.py
    sde = FiniteSDE(
        dim=4,
        drift=DriftSpec(name="scaled-sine", kappa=0.5),
        noise=NoiseSpec(name="diagonal-bounded", gain=0.4),
    )
    schedule = EpsilonSchedule.geometric(1e-3, 1e-1, 5)
    # n = 400 keeps each step's arrays small, so the per-step Python loop, which
    # holds the interpreter lock, is most of the cost, as in the thread pool's use today
    common = dict(control_bound=4.0, delta=0.25, schedule=schedule, control_count=20, n=400)
    tables = [
        (
            "converge-galerkin-spde",
            spectral,
            TimeGrid(0.5, 32),
            IndexSetSample(
                "spectral-with-far-start",
                [tuple(np.zeros(m)), tuple(0.5 / (1.0 + np.arange(m))), tuple(1000.0 * np.eye(m)[0])],
                tag="all-subsets",
            ),
            31 if seed is None else call_seed(seed, "converge-galerkin-spde"),
        ),
        (
            "converge-finite-sde",
            sde,
            TimeGrid(1.0, 64),
            IndexSetSample("two-bounded-starts", [(0.0,) * 4, (0.5, 0.25, 0.125, 0.0625)], tag="bounded"),
            37 if seed is None else call_seed(seed, "converge-finite-sde"),
        ),
    ]
    return {"tables": tables, "common": common}


def _run_table(model, grid, index, seed, threads, common, path):
    convergence.control_conv(model, grid, index, seed=seed, threads=threads, **common).save_json(path)
    return ()


def _converge_calls(state: dict, outdir: str, threads: int) -> list[Call]:
    calls = []
    for key, model, grid, index, seed in state["tables"]:
        path = os.path.join(outdir, f"{key}.json")
        run = functools.partial(_run_table, model, grid, index, seed, threads, state["common"], path)
        calls.append(Call(key, run, path, grid.steps, model.channels))
    return calls


WORKLOADS = {
    "dz-sweep": Workload(_scenario_setup(DZ_SCENARIOS), _scenario_calls),
    "fw-grid": Workload(_fw_setup, _fw_calls),
    "converge": Workload(_converge_setup, _converge_calls),
}


# ---------------------------------------------------------------------------
# reading the outputs


@dataclass
class WorkCount:
    path_steps: int = 0
    sample_steps: int = 0
    zero_hit_estimates: int = 0
    min_ess: float = float("inf")

    def add(self, other: "WorkCount") -> None:
        self.path_steps += other.path_steps
        self.sample_steps += other.sample_steps
        self.zero_hit_estimates += other.zero_hit_estimates
        self.min_ess = min(self.min_ess, other.min_ess)


def count_work(doc, steps: int, channels: int) -> WorkCount:
    """Work requested by one output document (scenario, CLI report or table)."""
    wc = WorkCount()
    if isinstance(doc, dict) and "samples_per_cell" in doc:  # convergence table
        cells = len(doc["x_points"]) * doc["control_count"]
        n = doc["samples_per_cell"]
        wc.path_steps = cells * n * steps * len(doc["rows"])
        wc.sample_steps = cells * n * steps * channels
        return wc

    def walk(node):
        if isinstance(node, dict):
            if "n" in node and "zero_hit" in node:  # one probability estimate
                wc.path_steps += node["n"] * steps
                wc.sample_steps += node["n"] * steps * channels
                wc.zero_hit_estimates += bool(node["zero_hit"])
                wc.min_ess = min(wc.min_ess, float(node["ess"]))
            elif "n" in node and "laplace" in node:  # one Laplace-functional cell
                wc.path_steps += node["n"] * steps
                wc.sample_steps += node["n"] * steps * channels
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(doc)
    return wc
