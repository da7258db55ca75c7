"""Uniform convergence experiments for the controlled solution maps.

These probe the sufficient condition behind the uniform principles: the
controlled trajectory at noise level eps should converge to the
noise-free skeleton, in probability, uniformly over starts in an
admissible set and controls in an L2 ball.  The experiments couple the
noise across eps (common random numbers), so the sqrt(eps) scaling of
the pathwise error is visible without Monte Carlo blur.

In ``control_conv`` the skeletons of all sampled controls from all starts
are one walk, and each (start, control) cell draws one noise block and
steps every eps of the schedule on it in one batch, one row block per
eps, through the models' one stepping loop.  Rows are bitwise what a
per-eps simulation gives, and cells are reduced in index order, so the table
does not depend on the thread count.

Admissibility of the start sample depends on the diffusion catalog: a
uniformly bounded noise map supports start sets tagged all-subsets,
while linear-growth noise only supports bounded or compact tags.  The
tag check here mirrors that split.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import (
    Control,
    ProcessModel,
    TranslatedBM,
    _noise_block,
    _skeleton_stacks,
    constant_control,
    model_to_spec,
    simulate_batch,
    simulate_eps_stack,
    sine_control,
    skeletons,
    zero_control,
)
from .pathspace import TimeGrid, _norms_along_dim, _point_norms
from .uldp import IndexSetSample, _jsonable, subseed

__all__ = [
    "ConvergenceTable",
    "ball_controls",
    "control_conv",
    "moment_bound_check",
    "weak_continuity_check",
]


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-eps error summary of controlled paths against their skeletons.

    ``sup_prob[i]`` is the worst estimated P(sup-error > delta) over the
    sampled (start, control) cells at ``eps[i]``; the quantiles pool the
    pathwise errors of all cells.  ``slope`` is the log-log fit of the
    median error against eps.
    """

    model: dict
    delta: float
    control_bound: float
    x_points: tuple
    control_count: int
    samples_per_cell: int
    seed: int
    eps: tuple[float, ...]
    sup_prob: tuple[float, ...]
    median_err: tuple[float, ...]
    q90_err: tuple[float, ...]
    slope: float
    slope_stderr: float

    def to_json(self) -> dict:
        return _jsonable(
            {
                "model": self.model,
                "delta": self.delta,
                "control_bound": self.control_bound,
                "x_points": [list(p) for p in self.x_points],
                "control_count": self.control_count,
                "samples_per_cell": self.samples_per_cell,
                "seed": self.seed,
                "rows": [
                    {
                        "eps": e,
                        "sup_prob": sp,
                        "median_err": me,
                        "q90_err": qe,
                    }
                    for e, sp, me, qe in zip(self.eps, self.sup_prob, self.median_err, self.q90_err)
                ],
                "slope": self.slope,
                "slope_stderr": self.slope_stderr,
            }
        )

    def save_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    def to_csv(self) -> str:
        lines = ["eps,sup_prob,median_err,q90_err"]
        for e, sp, me, qe in zip(self.eps, self.sup_prob, self.median_err, self.q90_err):
            lines.append(",".join(format(v, ".17g") for v in (e, sp, me, qe)))
        return "\n".join(lines) + "\n"


def ball_controls(
    grid: TimeGrid, channels: int, bound: float, count: int, seed: int
) -> list[Control]:
    """Sampled controls from the L2 ball of squared radius ``bound``.

    Always includes the zero control and the full-radius constant
    control; the remaining draws are random directions scaled to the
    full radius, since the quantity under study takes a sup over the
    whole ball and the extreme shell is where it is attained.
    """
    if not 0 <= bound < math.inf:
        raise ValueError("bound must be nonnegative and finite")
    if count < 2:
        raise ValueError("need at least two controls (zero + constant)")
    controls = [zero_control(grid, channels)]
    c = math.sqrt(bound / grid.horizon)
    controls.append(constant_control(grid, c, channels))
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy=seed)))
    for _ in range(count - 2):
        direction = rng.standard_normal((grid.steps, channels))
        norm_sq = float(np.sum(direction * direction) * grid.dt)
        controls.append(Control(grid, direction * math.sqrt(bound / norm_sq)))
    return controls


def _require_admissible(model: ProcessModel, x_sample: IndexSetSample) -> None:
    noise = getattr(model, "noise", None)
    growth = noise.growth if noise is not None else "bounded"
    if growth == "linear" and x_sample.tag == "all-subsets":
        raise ValueError(
            "linear-growth noise only supports bounded or compact start samples"
        )


def control_conv(
    model: ProcessModel,
    grid: TimeGrid,
    x_sample: IndexSetSample,
    control_bound: float,
    delta: float,
    schedule,
    control_count: int = 20,
    n: int = 200,
    seed: int = 0,
    threads: int = 1,
) -> ConvergenceTable:
    """Uniform-in-(x, u) convergence table of noisy paths to skeletons.

    For every sampled start x and control u, the same ``n`` noise draws
    feed every eps in the schedule, and the error of sample i is the
    sup-over-time norm of X^{eps,u}_x,i minus the skeleton.  The table
    keeps the worst cell probability of exceeding ``delta`` per eps.

    The skeletons of every control from every start are one walk, taken
    before the cells run.  A cell steps all eps of the
    schedule in one batch of len(eps) * n rows (``simulate_eps_stack``)
    and keeps each row's sup error as a running maximum over the grid
    points, so no path array is stored.
    If a state becomes non-finite, the NumericalBlowupError names the
    first step at which any eps row of the cell is non-finite.

    Each (x, u) cell is a pure function of the seed and the cell index.
    A pool of ``threads`` workers fills one preallocated (cell, eps,
    sample) error array in cell order, and every column of the table is
    reduced from that array, so the result does not depend on ``threads``.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_admissible(model, x_sample)
    controls = ball_controls(
        grid, model.channels, control_bound, control_count, subseed(seed, "conv", "controls")
    )
    master = subseed(seed, "conv", "noise")
    eps_grid = tuple(schedule.eps)
    bases = _skeleton_stacks(model, grid, x_sample.points, controls)
    cells = [
        (xi, pt, uj, control)
        for xi, pt in enumerate(x_sample.points)
        for uj, control in enumerate(controls)
    ]

    errs = np.zeros((len(cells), len(eps_grid), n))

    def run_cell(ci):
        xi, pt, uj, control = cells[ci]
        increments = _noise_block(grid, model.channels, master, xi * len(controls) + uj, n)
        base = bases[xi][uj]
        # one walk steps every eps; row e * n + k is sample k at eps_grid[e]
        err = errs[ci].reshape(-1)
        for i, state in enumerate(simulate_eps_stack(model, grid, pt, eps_grid, control, increments)):
            np.maximum(err, _point_norms(state - base[i]), out=err)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run_cell, range(len(cells))))  # re-raises the first failing cell's error
    sup_prob = tuple(float(np.max(np.mean(errs[:, e] > delta, axis=1))) for e in range(len(eps_grid)))
    med = [float(np.median(errs[:, e])) for e in range(len(eps_grid))]
    q90 = [float(np.quantile(errs[:, e], 0.9)) for e in range(len(eps_grid))]
    positive = [(e, m) for e, m in zip(eps_grid, med) if m > 0]
    if len(positive) >= 2:
        from scipy import stats  # deferred: importing scipy.stats dominates package import time

        fit = stats.linregress(
            np.log([p[0] for p in positive]), np.log([p[1] for p in positive])
        )
        slope, stderr = float(fit.slope), float(fit.stderr)
    else:
        slope, stderr = math.nan, math.nan
    return ConvergenceTable(
        model=model_to_spec(model),
        delta=delta,
        control_bound=control_bound,
        x_points=x_sample.points,
        control_count=control_count,
        samples_per_cell=n,
        seed=seed,
        eps=eps_grid,
        sup_prob=sup_prob,
        median_err=tuple(med),
        q90_err=tuple(q90),
        slope=slope,
        slope_stderr=stderr,
    )


def moment_bound_check(
    model: ProcessModel,
    grid: TimeGrid,
    radius: float,
    control_bound: float,
    p: float,
    eps: float,
    samples: int = 200,
    seed: int = 0,
) -> dict:
    """Finiteness and monotonicity probe for E sup_t |X^{eps,u}_x|^p.

    Start and control samples are nested across the two radius levels
    and the two control-bound levels, and every cell shares the same
    noise draws, so the sup over the sampled cells is nondecreasing in
    (radius, control_bound) by construction whenever no blowup occurs.
    The constant in front of the analytic bound is not estimated.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if radius < 0 or control_bound < 0:
        raise ValueError("radius and control_bound must be nonnegative")
    master = subseed(seed, "moment")
    increments = _noise_block(grid, model.channels, master, 0, samples)
    direction = np.ones(model.dim) / math.sqrt(model.dim)

    def starts_for(r: float) -> list[np.ndarray]:
        return [np.zeros(model.dim), 0.5 * r * direction, r * direction]

    def controls_for(bound: float) -> list[Control]:
        out = [zero_control(grid, model.channels)]
        for frac in (0.5, 1.0):
            out.append(constant_control(grid, math.sqrt(frac * bound / grid.horizon), model.channels))
        return out

    rows = []
    for r in (radius, 2.0 * radius):
        for bound in (control_bound, 2.0 * control_bound):
            worst = 0.0
            for x in starts_for(r):
                for control in controls_for(bound):
                    paths = simulate_batch(model, grid, x, eps, control, increments)
                    supnorm = _norms_along_dim(paths)
                    worst = max(worst, float(np.mean(supnorm**p)))
            rows.append({"radius": r, "control_bound": bound, "moment": worst})
    by_key = {(row["radius"], row["control_bound"]): row["moment"] for row in rows}
    nondec_r = all(
        by_key[(2.0 * radius, b)] >= by_key[(radius, b)]
        for b in (control_bound, 2.0 * control_bound)
    )
    nondec_b = all(
        by_key[(r, 2.0 * control_bound)] >= by_key[(r, control_bound)]
        for r in (radius, 2.0 * radius)
    )
    return {
        "p": p,
        "eps": eps,
        "samples": samples,
        "rows": rows,
        "finite": all(math.isfinite(row["moment"]) for row in rows),
        "nondecreasing_radius": nondec_r,
        "nondecreasing_bound": nondec_b,
    }


def weak_continuity_check(
    model: ProcessModel, grid: TimeGrid, x, frequencies
) -> dict:
    """Skeleton response to weakly vanishing oscillatory controls.

    Drives the noise-free flow with channel-0 sine controls of growing
    frequency and reports the sup distance to the uncontrolled skeleton.
    For the additive-noise translated family the continuum error is
    2T/(n pi) exactly; state-dependent models should still show decay.
    """
    freqs = sorted(int(f) for f in frequencies)
    if any(f < 1 for f in freqs):
        raise ValueError("frequencies must be >= 1")
    controls = [zero_control(grid, model.channels)] + [sine_control(grid, f, model.channels) for f in freqs]
    base, *paths = skeletons(model, grid, x, controls)
    additive = isinstance(model, TranslatedBM)
    rows = []
    for f, values in zip(freqs, paths):
        err = float(_norms_along_dim(values - base))
        row = {"frequency": f, "sup_error": err}
        if additive:
            row["reference"] = 2.0 * grid.horizon / (f * math.pi)
        rows.append(row)
    errs = [row["sup_error"] for row in rows]
    return {
        "rows": rows,
        "decreasing": all(b < a for a, b in zip(errs, errs[1:])),
        "final_error": errs[-1],
    }
