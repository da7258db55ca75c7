"""Action functionals of the controlled skeletons and their level sets.

The rate of a path phi from start x is the smallest control energy
(half the squared L2 norm of u) among controls whose noise-free skeleton
reproduces phi; the infimum over an empty set is +inf.  Two routes are
provided: a closed form for the translated Brownian family (half the
integral of the squared slope, +inf when the start is wrong) and a
variational recovery that works for every model by inverting the
discrete skeleton step by step and checking that the recovered control
actually reproduces the path.

Level sets are represented by finite samples: random controls drawn
uniformly in direction with energy r * s, r uniform on [0, 1], plus the
zero control.  Estimates of set infima built from such samples are upper
bounds that improve as the sample grows; callers that need the classical
straight-line witnesses can mix in a deterministic pool of constant
controls via ``constant_slope_controls``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .models import (
    Control,
    GalerkinSPDE,
    ProcessModel,
    SwappedBM,
    TranslatedBM,
    _drift_apply,
    _noise_matrix,
    _phi1,
    _rng,
    _skeleton_stacks,
    skeleton,
    zero_control,
)
from .pathspace import DiscretePath, PathSet, ShapeMismatchError, TimeGrid, sup_metric

__all__ = [
    "RateValue",
    "LevelSetSample",
    "rate_closed_form",
    "rate_variational",
    "sample_level_set",
    "constant_slope_controls",
    "rate_candidates",
    "inf_h_plus_I",
    "export_level_set",
]

START_RTOL = 1e-12


@dataclass(frozen=True)
class RateValue:
    """Rate of a path; the achieving control is present iff the rate is finite."""

    value: float
    control: Control | None = None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def _start_mismatch(phi0: np.ndarray, x: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    return bool(np.max(np.abs(phi0 - x)) > START_RTOL * scale)


def _rate_start(model: ProcessModel, x) -> np.ndarray:
    """Start point the rate function of the model compares against."""
    v = model._as_state(x)
    if isinstance(model, SwappedBM):
        return model.effective_start(v, 0.0)
    return v


def rate_closed_form(model: ProcessModel, grid: TimeGrid, x, path: DiscretePath) -> RateValue:
    """Half the squared-slope integral for the translated Brownian family."""
    if not isinstance(model, TranslatedBM):
        raise TypeError("closed form only covers the translated Brownian family")
    if path.grid != grid:
        raise ShapeMismatchError("path grid differs")
    if path.dim != 1:
        raise ShapeMismatchError("translated family is scalar")
    start = _rate_start(model, x)
    if _start_mismatch(path.values[0], start):
        return RateValue(math.inf, None)
    dt = grid.dt
    slopes = (path.values[1:, 0] - path.values[:-1, 0]) / dt
    value = 0.5 * math.fsum(s * s for s in slopes) * dt
    return RateValue(value, Control(grid, slopes[:, None]))


def rate_variational(
    model: ProcessModel,
    grid: TimeGrid,
    x,
    path: DiscretePath,
    tol: float = 1e-8,
) -> RateValue:
    """Least-norm control recovery through the discrete skeleton.

    Inverts one step at a time (for the diagonal semigroup models after
    removing the integrating factor), solving G(phi_i) u_i = residual in
    the least-squares sense.  If any residual is not representable, or
    the re-simulated skeleton misses the path by more than ``tol``
    (relative to the path scale), the rate is +inf.
    """
    if path.grid != grid:
        raise ShapeMismatchError("path grid differs")
    if path.dim != model.dim:
        raise ShapeMismatchError("path dim differs from model dim")
    start = _rate_start(model, x)
    if _start_mismatch(path.values[0], start):
        return RateValue(math.inf, None)
    dt = grid.dt
    scale = max(1.0, float(np.max(np.abs(path.values))))

    if isinstance(model, TranslatedBM):
        slopes = (path.values[1:, 0] - path.values[:-1, 0]) / dt
        control = Control(grid, slopes[:, None])
    else:
        # the finite SDE inverts as the exponential-Euler step with zero eigenvalues
        a = model.eigenvalues() if isinstance(model, GalerkinSPDE) else np.zeros(model.dim)
        decay = np.exp(-a * dt)
        factor = _phi1(-a * dt) * dt
        u = np.zeros((grid.steps, model.channels))
        for i in range(grid.steps):
            state = path.values[i]
            residual = (path.values[i + 1] - decay * state) / factor
            residual = residual - _drift_apply(getattr(model, "drift"), state[None, :])[0]
            gmat = _noise_matrix(getattr(model, "noise"), state, model.dim, model.channels)
            sol, *_ = np.linalg.lstsq(gmat, residual, rcond=None)
            if np.max(np.abs(gmat @ sol - residual)) * np.max(factor) > tol * scale:
                return RateValue(math.inf, None)
            u[i] = sol
        control = Control(grid, u)

    rebuilt = skeleton(model, grid, x, control)
    if sup_metric(rebuilt, path) > tol * scale:
        return RateValue(math.inf, None)
    return RateValue(control.energy, control)


# ---------------------------------------------------------------------------
# level sets


@dataclass(frozen=True)
class LevelSetSample:
    """Finite stand-in for {phi : I_x(phi) <= s}.

    ``energies[k]`` is the construction energy of ``controls[k]`` and an
    upper bound for the true rate of ``paths.members[k]``; by
    construction it never exceeds the level.
    """

    x: np.ndarray
    level: float
    paths: PathSet
    controls: tuple[Control, ...]
    energies: tuple[float, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.controls)


def _level_set_controls(
    grid: TimeGrid, channels: int, level: float, count: int, seed: int
) -> list[Control]:
    """The zero control, then at a positive level count - 1 random controls of energy r*level.

    The factor r is uniform on [0, 1] and the direction is uniform.
    """
    if not 0 <= level < math.inf:
        raise ValueError("level must be nonnegative and finite")
    if count < 1:
        raise ValueError("count must be >= 1")
    out = [zero_control(grid, channels)]
    if level == 0:
        return out
    gen = _rng(seed, 0x1E7E15E7)
    dt = grid.dt
    for _ in range(count - 1):
        direction = gen.standard_normal((grid.steps, channels))
        norm = math.sqrt(float(np.sum(direction * direction)))
        if norm == 0.0:
            direction[0, 0] = 1.0
            norm = 1.0
        r = gen.uniform()
        # energy = 0.5 * |u|^2_{L2} = 0.5 * |vec|^2 * dt  ==  r * level
        target = math.sqrt(2.0 * r * level / dt)
        out.append(Control(grid, direction * (target / norm)))
    return out


def sample_level_set(
    model: ProcessModel,
    grid: TimeGrid,
    x,
    level: float,
    count: int,
    seed: int,
) -> LevelSetSample:
    """Sampled level set of the rate function at ``level``.

    The zero control is always the first member; at level 0 the sample
    degenerates to the single noise-free path from x.  The control draw
    does not depend on x, so samples at different starts share controls
    under a shared seed and the paths differ by the skeleton flow only.
    """
    return _level_sets(model, grid, (x,), level, count, seed)[0]


def _level_sets(model: ProcessModel, grid: TimeGrid, xs, level: float, count: int, seed: int) -> list[LevelSetSample]:
    """``sample_level_set`` at every start in ``xs``: the controls are drawn once and walked from each start."""
    controls = _level_set_controls(grid, model.channels, level, count, seed)
    energies = tuple(c.energy for c in controls)
    return [
        LevelSetSample(
            x=model._as_state(x),
            level=level,
            paths=PathSet([DiscretePath(grid, p) for p in paths]),
            controls=tuple(controls),
            energies=energies,
            seed=seed,
        )
        for x, paths in zip(xs, _skeleton_stacks(model, grid, xs, controls))
    ]


def constant_slope_controls(grid: TimeGrid, channels: int, level: float, count: int) -> list[Control]:
    """Deterministic pool of constant channel-0 controls with energies on a grid.

    Energies run over j/count * level for j = 1..count, both signs.  The
    straight-line skeletons these generate are the classical witnesses
    (e.g. energy T/2 at slope one); random sampling essentially never
    finds them, so set-infimum estimators mix this pool in.
    """
    out: list[Control] = []
    T = grid.horizon
    for j in range(1, count + 1):
        energy = level * j / count
        c = math.sqrt(2.0 * energy / T)
        for sign in (1.0, -1.0):
            vals = np.zeros((grid.steps, channels))
            vals[:, 0] = sign * c
            out.append(Control(grid, vals))
    return out


def rate_candidates(
    model: ProcessModel,
    grid: TimeGrid,
    xs,
    s_max: float,
    count: int,
    seed: int,
    constant_pool: int,
) -> tuple[list[float], list[np.ndarray]]:
    """Energies of the set-infimum search candidates, and their skeletons from each start.

    The controls of a level-set sample at ``s_max`` come first, in sample
    order, then the constant-slope pool.  They do not depend on x, so
    they are built once and one walk over zero increments steps them from
    every start in ``xs``; entry i of the list is the (C, steps+1, dim)
    stack from ``xs[i]``, equal to ``skeletons(model, grid, xs[i], controls)``.
    """
    controls = _level_set_controls(grid, model.channels, s_max, count, seed)
    controls += constant_slope_controls(grid, model.channels, s_max, constant_pool)
    return [c.energy for c in controls], _skeleton_stacks(model, grid, xs, controls)


def inf_h_plus_I(
    model: ProcessModel,
    grid: TimeGrid,
    x,
    h,
    s_max: float,
    count: int,
    seed: int,
    constant_pool: int = 16,
) -> tuple[float, DiscretePath]:
    """Upper-bound estimate of inf over paths of h(phi) + I_x(phi).

    Searches a level-set sample at s_max (which must be at least twice
    the bound of h, so the true minimizer's level is inside the search
    region) plus a pool of constant-slope controls.  Returns the value
    and the argmin path.
    """
    return _inf_h_plus_I_starts(model, grid, (x,), h, s_max, count, seed, constant_pool)[0]


def _inf_h_plus_I_starts(
    model: ProcessModel, grid: TimeGrid, xs, h, s_max: float, count: int, seed: int, constant_pool: int
) -> list[tuple[float, DiscretePath]]:
    """``inf_h_plus_I`` from every start in ``xs``, all searched over one ``rate_candidates`` pool."""
    bound = float(h.bound())
    if s_max < 2.0 * bound:
        raise ValueError(f"s_max = {s_max} is below 2 * bound(h) = {2 * bound}")
    energies, stacks = rate_candidates(model, grid, xs, s_max, count, seed, constant_pool)
    out = []
    for paths in stacks:
        value, best = _pool_min(energies, [float(h(DiscretePath(grid, p))) for p in paths])
        out.append((value, DiscretePath(grid, paths[best])))
    return out


def _pool_min(energies, costs) -> tuple[float, int | None]:
    """Least energy + cost over a candidate pool and the first index that attains it.

    Returns (inf, None) when no candidate has a finite total, so an
    infinite cost excludes a candidate.
    """
    totals = np.add(energies, costs)
    best = int(np.argmin(totals))
    value = float(totals[best])
    return (value, best) if value < math.inf else (math.inf, None)


def export_level_set(sample: LevelSetSample, directory: str) -> str:
    """Write one CSV per member plus a JSON manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    names = []
    for i, member in enumerate(sample.paths):
        name = f"path_{i:04d}.csv"
        member.save_csv(os.path.join(directory, name))
        names.append(name)
    manifest = {
        "x": [float(v) for v in sample.x],
        "s": float(sample.level),
        "count": len(sample),
        "seed": int(sample.seed),
        "rates": [float(e) for e in sample.energies],
        "paths": names,
    }
    path = os.path.join(directory, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path
