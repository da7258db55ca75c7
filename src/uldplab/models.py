"""Process models driven by Gaussian increments plus deterministic controls.

All models share the driving structure: K independent Brownian channels
sampled as increments on the grid, an optional control u (a step
function with one value per increment), and a noise intensity eps.  The
controlled state at eps = 0 is the skeleton; its energy (half the
squared L2 norm of u) is what the rate functions measure.  A simulation
takes one control for all rows or a list with one control per row, so
a stack of controls (``skeletons``) is stepped in one walk.

Families
--------
* ``TranslatedBM``: x + sqrt(eps) W(t) + int_0^t u.
* ``PerturbedBM``: (1 + eps) x + sqrt(eps) W(t) + int_0^t u.  Same rate
  function as ``TranslatedBM``; the starting point moves with eps.
* ``SwappedBM``: equal to ``TranslatedBM`` at every x except x = 0,
  where the process (and its rate function) is the one started at 1/2.
* ``FiniteSDE``: Euler-Maruyama for dX = b(X) dt + sigma(X)(sqrt(eps) dW + u dt).
* ``GalerkinSPDE``: spectral truncation of a stochastic reaction-
  diffusion equation with diagonal linear part.  Stepping uses the
  exponential (integrating-factor) Euler scheme
      X_{i+1} = e^{-a dt} X_i + phi1(-a dt) (B(X_i) dt + G(X_i)(sqrt(eps) dW_i + u_i dt)),
  phi1(z) = (e^z - 1)/z, which reproduces the continuous Duhamel
  convolution exactly for constant forcing and is unconditionally
  stable for stiff eigenvalues.

Noise provenance is counter-based: ``_noise_block`` keys a Philox stream
by (master_seed, block), so a block never depends on how many other
blocks were drawn, and estimators are reproducible under any execution
schedule.  Estimators cut a batch into blocks of ``estimators.CHUNK =
8192`` samples, which makes that size part of the stream definition:
``_noise_block(grid, channels, seed, k, 1)``, block k of size one, is
estimator sample k * 8192, not estimator sample k.  Estimators draw
each block whole and read it in row slices.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .pathspace import DiscretePath, ShapeMismatchError, TimeGrid

__all__ = [
    "NumericalBlowupError",
    "Control",
    "zero_control",
    "constant_control",
    "sine_control",
    "ProcessModel",
    "TranslatedBM",
    "PerturbedBM",
    "SwappedBM",
    "FiniteSDE",
    "GalerkinSPDE",
    "DriftSpec",
    "NoiseSpec",
    "Regularity",
    "simulate_starts",
    "simulate_eps_stack",
    "skeleton",
    "skeletons",
    "model_from_spec",
    "model_to_spec",
    "load_model",
    "BUILTIN_MODELS",
]

_MASK64 = (1 << 64) - 1


class NumericalBlowupError(RuntimeError):
    """Non-finite state encountered while stepping a model."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} at step {step}")
        self.step = step


def _rng(seed: int, *spawn: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=tuple(k & _MASK64 for k in spawn))
    return np.random.Generator(np.random.Philox(seed=ss))


def _noise_block(grid: TimeGrid, channels: int, master_seed: int, block: int, size: int) -> np.ndarray:
    """Increments for a whole block of samples, shape (size, steps, channels)."""
    out = _rng(master_seed, block).standard_normal((size, grid.steps, channels))
    out *= math.sqrt(grid.dt)
    return out


@dataclass(frozen=True)
class Control:
    """Deterministic step control, one value per increment, shape (steps, channels)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.steps:
            raise ShapeMismatchError(
                f"control shape {v.shape} does not fit grid with {self.grid.steps} steps"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @property
    def squared_l2(self) -> float:
        """int_0^T |u|^2 dt for the step function."""
        return float(np.sum(self.values * self.values) * self.grid.dt)

    @property
    def energy(self) -> float:
        """Half the squared L2 norm; the rate of the skeleton it generates."""
        return 0.5 * self.squared_l2


def zero_control(grid: TimeGrid, channels: int = 1) -> Control:
    return Control(grid, np.zeros((grid.steps, channels)))


def constant_control(grid: TimeGrid, value, channels: int = 1) -> Control:
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.size == 1 and channels > 1:
        vals = np.zeros((grid.steps, channels))
        vals[:, 0] = v[0]
    else:
        vals = np.tile(v, (grid.steps, 1))
    return Control(grid, vals)


def sine_control(grid: TimeGrid, n: int, channels: int = 1) -> Control:
    """Cell averages of sin(n pi t / T) on channel 0.

    Averaging (the L2 projection onto step functions) makes the running
    integral of the control exact at the grid points, so skeleton errors
    reflect the model and not the quadrature of the sine.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if 4 * n > grid.steps:
        raise ValueError(f"need grid.steps >= 4n, got steps={grid.steps}, n={n}")
    T = grid.horizon
    t = grid.times
    w = n * math.pi / T
    # (1/dt) int_{t_i}^{t_{i+1}} sin(w s) ds
    avg = (np.cos(w * t[:-1]) - np.cos(w * t[1:])) / (w * grid.dt)
    vals = np.zeros((grid.steps, channels))
    vals[:, 0] = avg
    return Control(grid, vals)


# ---------------------------------------------------------------------------
# drift / noise catalogs for the state-dependent models

_DRIFTS = ("zero", "scaled-sine", "linear")
# noise name -> growth of its Hilbert-Schmidt bound (see ``NoiseSpec``)
_NOISE_GROWTH = {
    "identity": "bounded",
    "diagonal-constant": "bounded",
    "diagonal-bounded": "bounded",
    "zero": "bounded",
    "diagonal-linear-growth": "linear",
}


def _require_finite(owner: str, **values) -> None:
    for key, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{owner} {key} must be finite, got {value}")


@dataclass(frozen=True)
class DriftSpec:
    """Named drift map; see ``_drift_apply`` for the catalog."""

    name: str = "zero"
    kappa: float = 1.0
    matrix: tuple | None = None
    offset: tuple | None = None

    def __post_init__(self) -> None:
        if self.name not in _DRIFTS:
            raise ValueError(f"unknown drift {self.name!r}; known: {', '.join(_DRIFTS)}")
        _require_finite("drift", kappa=self.kappa)

    @property
    def reads_sin(self) -> bool:
        """Whether the map reads sin(x); ``_drift_apply`` then takes it precomputed."""
        return self.name == "scaled-sine"


def _drift_apply(spec: DriftSpec, x: np.ndarray, sin_x: np.ndarray | None = None) -> np.ndarray:
    # x: (B, d) -> (B, d); sin_x, if given, is np.sin(x)
    if spec.name == "zero":
        return np.zeros_like(x)
    if spec.name == "scaled-sine":
        return spec.kappa * (np.sin(x) if sin_x is None else sin_x)
    # linear, the last name of the catalog
    d = x.shape[1]
    a = np.asarray(spec.matrix, dtype=float) if spec.matrix is not None else np.eye(d)
    out = x @ a.T
    if spec.offset is not None:
        out = out + np.asarray(spec.offset, dtype=float)
    return out


@dataclass(frozen=True)
class NoiseSpec:
    """Named diffusion map.

    ``growth`` records whether the Hilbert-Schmidt bound on S(t)G(x) is
    uniform over all of the state space ("bounded") or only over bounded
    subsets ("linear").  The convergence experiments consult this tag to
    decide which index-set classes are admissible.
    """

    name: str = "identity"
    gain: float = 1.0
    decay: float = 0.0

    def __post_init__(self) -> None:
        if self.name not in _NOISE_GROWTH:
            raise ValueError(f"unknown noise {self.name!r}; known: {', '.join(_NOISE_GROWTH)}")
        _require_finite("noise", gain=self.gain, decay=self.decay)

    @property
    def growth(self) -> str:
        return _NOISE_GROWTH[self.name]

    @property
    def reads_sin(self) -> bool:
        """Whether the map reads sin(x); ``_noise_apply`` then takes it precomputed."""
        return self.name == "diagonal-bounded"

    def gains(self, dim: int) -> np.ndarray:
        k = np.arange(1, dim + 1, dtype=float)
        return self.gain * k ** (-self.decay)


def _noise_apply(
    spec: NoiseSpec,
    x: np.ndarray,
    w: np.ndarray,
    gains: np.ndarray | None = None,
    sin_x: np.ndarray | None = None,
) -> np.ndarray:
    """G(x) w for batches; x: (B, d), w: (B, K) -> (B, d).

    ``gains`` is ``spec.gains(d)`` and ``sin_x`` is ``np.sin(x)``, which a
    walk that applies the catalog at every step forms once and passes in.
    """
    d = x.shape[1]
    k = w.shape[1]
    if spec.name == "zero":
        return np.zeros_like(x)
    if spec.name == "identity":
        # embedding R^K -> R^d, pad or truncate
        if k == d:
            return w.copy()
        if k < d:
            out = np.zeros_like(x)
            out[:, :k] = w
            return out
        return w[:, :d].copy()
    if k != d:
        raise ShapeMismatchError(f"diagonal noise needs channels == dim, got {k} != {d}")
    g = spec.gains(d) if gains is None else gains
    if spec.name == "diagonal-constant":
        return g * w
    if spec.name == "diagonal-bounded":
        return g * (1.0 + 0.5 * (np.sin(x) if sin_x is None else sin_x)) * w
    # diagonal-linear-growth, the last name of the catalog
    return g * (1.0 + np.abs(x)) * w


def _noise_matrix(spec: NoiseSpec, x: np.ndarray, dim: int, channels: int) -> np.ndarray:
    """Dense d x K matrix G(x) at a single state, for least-squares recovery.

    Column j is G(x) applied to the j-th unit vector of R^K.
    """
    states = np.tile(np.reshape(x, dim), (channels, 1))
    return _noise_apply(spec, states, np.eye(channels)).T


@dataclass(frozen=True)
class Regularity:
    """Documentation of the analytic hypotheses of the SPDE family.

    ``k_scale`` and ``k_power`` describe the integrable singularity
    K(t) = k_scale * t**(-k_power) dominating |S(t) G(x)|_HS near t = 0;
    ``alpha`` is the time-Hoelder exponent the a-priori bounds use.
    """

    alpha: float = 0.2
    k_scale: float = 1.0
    k_power: float = 0.25


# ---------------------------------------------------------------------------
# model variants


class ProcessModel:
    """Base class; the module-level ``simulate_batch`` dispatches on the subclass."""

    dim: int
    channels: int
    name: str

    def effective_start(self, x: np.ndarray, eps: float) -> np.ndarray:
        """Starting point actually used at noise level eps."""
        return x

    def _as_state(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float).reshape(-1)
        if v.size == 1 and self.dim > 1:
            v = np.full(self.dim, v[0])
        if v.size != self.dim:
            raise ShapeMismatchError(f"start has size {v.size}, model dim is {self.dim}")
        if not np.isfinite(v).all():
            raise ValueError("start must be finite")
        return v


@dataclass(frozen=True)
class TranslatedBM(ProcessModel):
    """x + sqrt(eps) W + int u on one channel; the variants of the translated family subclass it."""

    name: str = field(default="translated-bm", init=False)
    dim: int = field(default=1, init=False)
    channels: int = field(default=1, init=False)


@dataclass(frozen=True)
class PerturbedBM(TranslatedBM):
    """(1 + eps) x + sqrt(eps) W + int u; starting point leaks with eps."""

    name: str = field(default="perturbed-bm", init=False)

    def effective_start(self, x, eps):
        return (1.0 + eps) * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class SwappedBM(TranslatedBM):
    """Translated BM whose x = 0 copy is replaced by the x = 1/2 copy."""

    name: str = field(default="swapped-bm", init=False)
    swap_at: float = 0.0
    swap_to: float = 0.5

    def effective_start(self, x, eps):
        v = np.asarray(x, dtype=float).reshape(-1)
        if v.size == 1 and float(v[0]) == self.swap_at:
            return np.array([self.swap_to])
        return v


@dataclass(frozen=True)
class FiniteSDE(ProcessModel):
    """Euler-Maruyama for a Lipschitz SDE in R^d with K = d channels."""

    dim: int = 1
    drift: DriftSpec = field(default_factory=DriftSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    name: str = field(default="finite-sde", init=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "channels", self.dim)
        _check_catalog_shapes(self)


@dataclass(frozen=True)
class GalerkinSPDE(ProcessModel):
    """Spectral truncation with diagonal semigroup e^{-a_k t}.

    ``eigen_rule`` is "quadratic" for a_k = eigen_scale * k^2 or "linear"
    for eigen_scale * k; modes is the truncation level.
    """

    modes: int = 32
    channels: int = 32
    eigen_rule: str = "quadratic"
    eigen_scale: float = 1.0
    drift: DriftSpec = field(default_factory=lambda: DriftSpec(name="scaled-sine"))
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec(name="diagonal-bounded"))
    regularity: Regularity = field(default_factory=Regularity)
    name: str = field(default="galerkin-spde", init=False)

    def __post_init__(self) -> None:
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.eigen_rule not in ("quadratic", "linear"):
            raise ValueError(f"unknown eigenvalue rule {self.eigen_rule!r}; known: quadratic, linear")
        _require_finite("galerkin-spde", eigen_scale=self.eigen_scale)
        object.__setattr__(self, "dim", self.modes)
        _check_catalog_shapes(self)

    def eigenvalues(self) -> np.ndarray:
        k = np.arange(1, self.modes + 1, dtype=float)
        if self.eigen_rule == "quadratic":
            return self.eigen_scale * k * k
        return self.eigen_scale * k


def _check_catalog_shapes(model: FiniteSDE | GalerkinSPDE) -> None:
    """The drift and noise maps of a stepped family fit its dim and channels."""
    d = model.dim
    if model.noise.name.startswith("diagonal") and model.channels != d:
        raise ShapeMismatchError(
            f"diagonal noise {model.noise.name!r} needs channels == dim, got {model.channels} != {d}"
        )
    drift = model.drift
    if drift.name == "linear":
        if drift.matrix is not None and np.shape(drift.matrix) != (d, d):
            raise ShapeMismatchError(f"linear drift matrix must be {d}x{d}, got shape {np.shape(drift.matrix)}")
        if drift.offset is not None and np.shape(drift.offset) != (d,):
            raise ShapeMismatchError(f"linear drift offset must have length {d}, got shape {np.shape(drift.offset)}")


BUILTIN_MODELS = {
    "translated-bm": TranslatedBM,
    "perturbed-bm": PerturbedBM,
    "swapped-bm": SwappedBM,
    "finite-sde": FiniteSDE,
    "galerkin-spde": GalerkinSPDE,
}


# ---------------------------------------------------------------------------
# simulation


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with the removable singularity filled in."""
    out = np.ones_like(z)
    nz = np.abs(z) > 1e-12
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _translated_core(model: ProcessModel, grid: TimeGrid, eps: float, control, increments: np.ndarray) -> np.ndarray:
    """The x = 0 path of the translated family, shape (B, steps+1, 1), its first column zero.

    The inputs are checked as ``_control_values`` checks them; one cumsum
    along time integrates the whole (C, steps, 1) control stack.
    """
    control_values = _control_values(model, grid, (eps,), control, increments)
    b, steps, _ = increments.shape
    core = np.zeros((b, steps + 1, 1))
    np.cumsum(increments, axis=1, out=core[:, 1:, :])
    core *= math.sqrt(eps)
    if control_values is not None:
        integral = np.zeros((len(control_values), steps + 1, 1))
        np.cumsum(control_values * grid.dt, axis=1, out=integral[:, 1:, :])
        core += integral
    return core


def _stepped_states(
    model: FiniteSDE | GalerkinSPDE, x, eps, control_values, increments: np.ndarray, dt: float
):
    """The one stepping loop: yield the state at grid points 0..steps.

    The state has shape (E * B, dim) for the E noise levels in ``eps``:
    rows e * B .. e * B + B - 1 are the B samples at eps[e], all driven by
    the same increments.  Each step forms the driving term
    w = sqrt(eps) dW_i + u_i dt, u_i from the row's control in the stack
    of ``_control_values``, and applies the family's one-step map to
    (state, w).  When the drift or the noise reads sin(state) (their
    ``reads_sin``), the step forms np.sin(state) once and hands it to
    both catalogs, whose arithmetic is otherwise that of a call without
    it, bit for bit.  Every operation acts row by row, except the matrix
    product of the ``linear`` drift, so a row's bits do not depend on
    which other eps share the batch.  A yielded state is never reused.
    """
    start = model._as_state(x)
    b, steps, k = increments.shape
    if k != model.channels:
        raise ShapeMismatchError(f"noise has {k} channels, model wants {model.channels}")
    gains = model.noise.gains(model.dim)
    reads_sin = model.drift.reads_sin or model.noise.reads_sin
    if isinstance(model, FiniteSDE):
        label = "finite SDE"

        def step(state, w):
            sin_x = np.sin(state) if reads_sin else None
            return (
                state
                + _drift_apply(model.drift, state, sin_x) * dt
                + _noise_apply(model.noise, state, w, gains, sin_x)
            )

    else:
        label = "spectral SPDE"
        a = model.eigenvalues()
        decay = np.exp(-a * dt)
        factor = _phi1(-a * dt)

        def step(state, w):
            sin_x = np.sin(state) if reads_sin else None
            forcing = (
                _drift_apply(model.drift, state, sin_x) * dt
                + _noise_apply(model.noise, state, w, gains, sin_x)
            )
            del sin_x  # freed before the two products below, the step's memory peak
            return decay * state + factor * forcing

    seps = np.sqrt(np.asarray(eps, dtype=float))[:, None, None]
    state = np.tile(start, (len(seps) * b, 1))
    yield state
    for i in range(steps):
        w = (seps * increments[:, i, :]).reshape(-1, k)
        if control_values is not None:
            w += control_values[:, i] * dt
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, with the step
            state = step(state, w)
        if not np.all(np.isfinite(state)):
            raise NumericalBlowupError(f"{label} state became non-finite", i + 1)
        yield state


def _control_values(model: ProcessModel, grid: TimeGrid, eps, control, increments: np.ndarray):
    """Check a simulation's inputs; the control stack (C, steps, channels), or None without a control.

    One ``Control`` is read by every increment row (C = 1); a list has
    one per row (C = B) and is allowed only at a single eps.
    """
    if any(not 0 <= e < math.inf for e in eps):
        raise ValueError("eps must be nonnegative and finite")
    if increments.shape[1] != grid.steps:
        raise ShapeMismatchError("increment count differs from grid steps")
    if control is None:
        return None
    if isinstance(control, Control):
        control = [control]
    elif len(control) != increments.shape[0] or len(eps) != 1:
        raise ShapeMismatchError(
            f"a control list needs one control per increment row at a single eps, got "
            f"{len(control)} controls, {increments.shape[0]} rows and {len(eps)} eps"
        )
    for c in control:
        if c.grid != grid:
            raise ShapeMismatchError("control grid differs from simulation grid")
        if c.channels != model.channels:
            raise ShapeMismatchError(f"control has {c.channels} channels, model wants {model.channels}")
    return np.stack([c.values for c in control])


def simulate_starts(
    model: ProcessModel,
    grid: TimeGrid,
    xs,
    eps: float,
    control: Control | None,
    increments: np.ndarray,
):
    """Yield the batched controlled paths from each start in ``xs`` in turn.

    Every start reads the same increments, shape (B, steps, channels),
    and the same control: one ``Control`` for every row, or a list with
    one per row.  The translated family builds its x = 0 core once and
    yields ``core + start`` per start; adding the scalar start last keeps
    the core identical across x, which is what the translation-identity
    checks rely on.  The stepped families walk each start with
    ``simulate_batch``.  A yielded batch is valid until the next one is
    requested (the translated family reuses one buffer), so copy it to
    keep it.  Inputs are checked when the first batch is requested.
    """
    if isinstance(model, TranslatedBM):
        core = _translated_core(model, grid, eps, control, increments)
        paths = np.empty_like(core)
        for x in xs:
            yield np.add(core, model.effective_start(model._as_state(x), eps)[0], out=paths)
    else:
        for x in xs:
            yield simulate_batch(model, grid, x, eps, control, increments)


def simulate_eps_stack(
    model: ProcessModel,
    grid: TimeGrid,
    x,
    eps,
    control: Control | None,
    increments: np.ndarray,
):
    """Yield the states from ``x`` at grid points 0..steps for every eps in ``eps`` at once.

    Each yielded state has shape (E * B, dim), E = len(eps): rows
    e * B .. e * B + B - 1 equal ``simulate_batch(model, grid, x, eps[e],
    control, increments)[:, i]`` at grid point i bit for bit, except that
    the ``linear`` drift's matrix product goes through BLAS, which may
    round a stacked batch differently.  Every eps reads the same
    increments.  The stepped families walk all eps in one loop and form
    no path array; the 1-dim translated family takes its rows from one
    ``simulate_batch`` per eps.  A stepped family raises
    NumericalBlowupError at the first step where any row is non-finite.
    Inputs are checked when the first state is requested.
    """
    cv = _control_values(model, grid, eps, control, increments)
    if isinstance(model, TranslatedBM):
        paths = np.concatenate([simulate_batch(model, grid, x, e, control, increments) for e in eps])
        yield from (paths[:, i, :] for i in range(grid.steps + 1))
    elif isinstance(model, (FiniteSDE, GalerkinSPDE)):
        yield from _stepped_states(model, x, eps, cv, increments, grid.dt)
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")


def simulate_batch(
    model: ProcessModel,
    grid: TimeGrid,
    x,
    eps: float,
    control: Control | None,
    increments: np.ndarray,
) -> np.ndarray:
    """Batched controlled paths from ``x``, shape (B, steps+1, dim); increments and control as in ``simulate_starts``.

    A stepped family keeps every state of its stepping loop.
    """
    if isinstance(model, TranslatedBM):
        core = _translated_core(model, grid, eps, control, increments)
        return np.add(core, model.effective_start(model._as_state(x), eps)[0], out=core)
    cv = _control_values(model, grid, (eps,), control, increments)
    if not isinstance(model, (FiniteSDE, GalerkinSPDE)):
        raise TypeError(f"unknown model type {type(model).__name__}")
    out = np.empty((increments.shape[0], grid.steps + 1, model.dim))
    for i, state in enumerate(_stepped_states(model, x, (eps,), cv, increments, grid.dt)):
        out[:, i, :] = state
    return out


def skeleton(model: ProcessModel, grid: TimeGrid, x, control: Control | None = None) -> DiscretePath:
    """Noise-free controlled path (the eps = 0 flow of the control)."""
    zeros = np.zeros((1, grid.steps, model.channels))
    return DiscretePath(grid, simulate_batch(model, grid, x, 0.0, control, zeros)[0])


def skeletons(model: ProcessModel, grid: TimeGrid, xs, controls, eps: float = 0.0) -> list[np.ndarray]:
    """Noise-free paths of every control in ``controls`` from each start in ``xs``.

    One walk over zero increments steps the whole stack from every
    start; entry i is the (C, steps+1, dim) stack from ``xs[i]``, its own
    copy, and its row k equals ``simulate_batch`` of ``controls[k]``
    alone.  A positive eps gives the eps-skeletons, which differ only
    where the start moves with eps.
    """
    zeros = np.zeros((len(controls), grid.steps, model.channels))
    # copies: the translated family yields every start in one reused buffer
    return [paths.copy() for paths in simulate_starts(model, grid, xs, eps, controls, zeros)]


# ---------------------------------------------------------------------------
# JSON model specs


def model_to_spec(model: ProcessModel) -> dict:
    # the variants before TranslatedBM, which they subclass
    if isinstance(model, PerturbedBM):
        return {"variant": "perturbed-bm"}
    if isinstance(model, SwappedBM):
        return {"variant": "swapped-bm", "swap_at": model.swap_at, "swap_to": model.swap_to}
    if isinstance(model, TranslatedBM):
        return {"variant": "translated-bm"}
    if isinstance(model, FiniteSDE):
        return {
            "variant": "finite-sde",
            "dim": model.dim,
            "drift": {"name": model.drift.name, "kappa": model.drift.kappa,
                      "matrix": model.drift.matrix, "offset": model.drift.offset},
            "noise": {"name": model.noise.name, "gain": model.noise.gain, "decay": model.noise.decay},
        }
    if isinstance(model, GalerkinSPDE):
        return {
            "variant": "galerkin-spde",
            "modes": model.modes,
            "channels": model.channels,
            "eigenvalues": {"rule": model.eigen_rule, "scale": model.eigen_scale},
            "drift": {"name": model.drift.name, "kappa": model.drift.kappa},
            "noise": {"name": model.noise.name, "gain": model.noise.gain, "decay": model.noise.decay},
            "regularity": {
                "alpha": model.regularity.alpha,
                "k_scale": model.regularity.k_scale,
                "k_power": model.regularity.k_power,
            },
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _default(cls, name: str):
    """The constructor default of field ``name`` of the dataclass ``cls``."""
    f = next(f for f in dataclasses.fields(cls) if f.name == name)
    return f.default_factory() if f.default is dataclasses.MISSING else f.default


def _drift_from(obj: dict | None, default: DriftSpec) -> DriftSpec:
    """The drift of a spec object; a missing object or field is ``default``'s."""
    obj = obj or {}
    return DriftSpec(
        name=obj.get("name", default.name),
        kappa=float(obj.get("kappa", default.kappa)),
        matrix=tuple(map(tuple, obj["matrix"])) if obj.get("matrix") else default.matrix,
        offset=tuple(obj["offset"]) if obj.get("offset") else default.offset,
    )


def _noise_from(obj: dict | None, default: NoiseSpec) -> NoiseSpec:
    """The noise of a spec object; a missing object or field is ``default``'s."""
    obj = obj or {}
    return NoiseSpec(
        name=obj.get("name", default.name),
        gain=float(obj.get("gain", default.gain)),
        decay=float(obj.get("decay", default.decay)),
    )


def model_from_spec(spec: dict) -> ProcessModel:
    """The model of a JSON spec; every field it leaves out takes the family's constructor default.

    The one exception is a ``galerkin-spde`` spec's ``channels``, which
    defaults to its ``modes``.
    """
    variant = spec.get("variant")
    if variant == "translated-bm":
        return TranslatedBM()
    if variant == "perturbed-bm":
        return PerturbedBM()
    if variant == "swapped-bm":
        return SwappedBM(
            swap_at=float(spec.get("swap_at", _default(SwappedBM, "swap_at"))),
            swap_to=float(spec.get("swap_to", _default(SwappedBM, "swap_to"))),
        )
    if variant == "finite-sde":
        return FiniteSDE(
            dim=int(spec.get("dim", _default(FiniteSDE, "dim"))),
            drift=_drift_from(spec.get("drift"), _default(FiniteSDE, "drift")),
            noise=_noise_from(spec.get("noise"), _default(FiniteSDE, "noise")),
        )
    if variant == "galerkin-spde":
        ev = spec.get("eigenvalues", {})
        if not isinstance(ev, dict) or not set(ev) <= {"rule", "scale"}:
            raise ValueError(f"galerkin-spde eigenvalues must be a {{rule, scale}} object, got {ev!r}")
        reg = spec.get("regularity") or {}
        modes = int(spec.get("modes", _default(GalerkinSPDE, "modes")))
        return GalerkinSPDE(
            modes=modes,
            channels=int(spec.get("channels", modes)),
            eigen_rule=ev.get("rule", _default(GalerkinSPDE, "eigen_rule")),
            eigen_scale=float(ev.get("scale", _default(GalerkinSPDE, "eigen_scale"))),
            drift=_drift_from(spec.get("drift"), _default(GalerkinSPDE, "drift")),
            noise=_noise_from(spec.get("noise"), _default(GalerkinSPDE, "noise")),
            regularity=Regularity(
                **{f.name: float(reg.get(f.name, f.default)) for f in dataclasses.fields(Regularity)}
            ),
        )
    raise ValueError(f"unknown model variant {variant!r}")


def load_model(name_or_path: str) -> ProcessModel:
    """Builtin model name, or path to a JSON model spec file."""
    if name_or_path in BUILTIN_MODELS:
        return BUILTIN_MODELS[name_or_path]()
    with open(name_or_path) as fh:
        return model_from_spec(json.load(fh))
