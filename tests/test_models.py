import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uldplab.estimators import CHUNK
from uldplab.models import (
    DriftSpec,
    FiniteSDE,
    GalerkinSPDE,
    NoiseSpec,
    PerturbedBM,
    SwappedBM,
    TranslatedBM,
    _drift_apply,
    _noise_apply,
    _noise_block,
    _noise_matrix,
    _phi1,
    _rng,
    constant_control,
    load_model,
    model_from_spec,
    model_to_spec,
    simulate_batch,
    simulate_eps_stack,
    simulate_starts,
    sine_control,
    skeleton,
    skeletons,
    zero_control,
)
from uldplab.pathspace import ShapeMismatchError, TimeGrid
from uldplab.rates import _level_set_controls


GRID = TimeGrid(1.0, 64)


def test_noise_increments_have_step_variance():
    grid = TimeGrid(1.0, 32)
    inc = _noise_block(grid, 2, 7, 0, 4000)
    assert inc.shape == (4000, 32, 2)
    assert np.mean(inc) == pytest.approx(0.0, abs=5e-3)
    assert np.var(inc) == pytest.approx(grid.dt, rel=0.05)


def test_a_size_one_block_is_the_first_sample_of_the_full_block():
    # the stream rule: block k of size one is estimator sample k * CHUNK
    grid = TimeGrid(1.0, 16)
    for k in (0, 4):
        assert np.array_equal(_noise_block(grid, 3, 99, k, 1)[0], _noise_block(grid, 3, 99, k, CHUNK)[0])


def test_noise_block_differs_across_indices_and_seeds():
    grid = TimeGrid(1.0, 16)
    a = _noise_block(grid, 1, 5, 0, 1)
    b = _noise_block(grid, 1, 5, 1, 1)
    c = _noise_block(grid, 1, 6, 0, 1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_translated_bm_core_is_start_independent():
    # paths from different starts share bit-identical fluctuations
    inc = _noise_block(GRID, 1, 3, 0, 8)
    a = simulate_batch(TranslatedBM(), GRID, np.array([0.0]), 0.1, None, inc)
    b = simulate_batch(TranslatedBM(), GRID, np.array([1e6]), 0.1, None, inc)
    # start is added last, so the x path is the bitwise translate of the 0 path
    assert np.array_equal(b, a + 1e6)


def test_translated_bm_control_adds_running_integral():
    u = constant_control(GRID, 2.0)
    path = skeleton(TranslatedBM(), GRID, np.array([1.0]), u)
    expect = 1.0 + 2.0 * GRID.times
    assert np.allclose(path.values[:, 0], expect, rtol=0, atol=1e-14)


def test_perturbed_bm_start_leak():
    x = np.array([100.0])
    inc = _noise_block(GRID, 1, 1, 0, 1)
    for eps in (0.1, 0.01):
        p = simulate_batch(PerturbedBM(), GRID, x, eps, None, inc)[0]
        q = simulate_batch(TranslatedBM(), GRID, x, eps, None, inc)[0]
        assert p[0, 0] == pytest.approx((1 + eps) * 100.0)
        # same fluctuations, shifted by the start leak eps*x
        assert np.allclose(p - q, eps * 100.0, atol=1e-9)


def test_swapped_bm_swaps_only_the_designated_start():
    inc = _noise_block(GRID, 1, 4, 2, 1)
    plain = simulate_batch(TranslatedBM(), GRID, np.array([0.25]), 0.2, None, inc)
    same = simulate_batch(SwappedBM(), GRID, np.array([0.25]), 0.2, None, inc)
    assert np.array_equal(same, plain)
    swapped = simulate_batch(SwappedBM(), GRID, np.array([0.0]), 0.2, None, inc)
    shifted = simulate_batch(TranslatedBM(), GRID, np.array([0.5]), 0.2, None, inc)
    assert np.array_equal(swapped, shifted)


def test_skeleton_is_zero_noise_limit():
    u = sine_control(GRID, 2)
    sk = skeleton(TranslatedBM(), GRID, np.array([0.5]), u)
    inc = np.zeros((1, GRID.steps, 1))
    direct = simulate_batch(TranslatedBM(), GRID, np.array([0.5]), 0.0, u, inc)[0]
    assert np.array_equal(sk.values, direct)


def test_finite_sde_zero_drift_identity_noise_is_bm():
    dim = 3
    model = FiniteSDE(dim=dim, drift=DriftSpec("zero"), noise=NoiseSpec("identity"))
    grid = TimeGrid(1.0, 32)
    inc = _noise_block(grid, dim, 11, 0, 5)
    eps = 0.09
    paths = simulate_batch(model, grid, np.zeros(dim), eps, None, inc)
    expect = math.sqrt(eps) * np.cumsum(inc, axis=1)
    assert np.allclose(paths[:, 1:, :], expect, rtol=0, atol=1e-12)


def test_finite_sde_linear_drift_matches_euler_recursion():
    dim = 2
    model = FiniteSDE(
        dim=dim,
        drift=DriftSpec("linear", matrix=((-1.0, 0.5), (0.0, -2.0))),
        noise=NoiseSpec("identity"),
    )
    grid = TimeGrid(0.5, 16)
    inc = _noise_block(grid, dim, 2, 0, 1)
    eps = 0.04
    got = simulate_batch(model, grid, np.array([1.0, -1.0]), eps, None, inc)[0]
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    state = np.array([1.0, -1.0])
    for i in range(grid.steps):
        state = state + A @ state * grid.dt + math.sqrt(eps) * inc[0, i]
        assert np.allclose(got[i + 1], state, rtol=0, atol=1e-12)


def test_finite_sde_step_is_bitwise_the_euler_maruyama_update():
    # the update is (s + B(s) dt) + G(s) w, not an exponential-Euler step at
    # zero eigenvalues: 1*s + 1*(B dt + G w) rounds differently
    dim = 3
    model = FiniteSDE(
        dim=dim,
        drift=DriftSpec("scaled-sine", kappa=1.5),
        noise=NoiseSpec("diagonal-bounded", gain=0.7, decay=0.5),
    )
    grid = TimeGrid(1.0, 32)
    inc = _noise_block(grid, dim, 5, 0, 4)
    u = sine_control(grid, 2, channels=dim)
    eps = 0.3
    start = np.array([0.4, -1.2, 2.0])
    got = simulate_batch(model, grid, start, eps, u, inc)
    state = np.tile(start, (4, 1))
    for i in range(grid.steps):
        w = math.sqrt(eps) * inc[:, i, :]
        w = w + u.values[i] * grid.dt
        state = (state + _drift_apply(model.drift, state) * grid.dt) + _noise_apply(model.noise, state, w)
        assert np.array_equal(got[:, i + 1, :], state)


@pytest.mark.parametrize(
    "name, channels",
    [
        ("zero", 3),
        ("identity", 2),
        ("identity", 3),
        ("identity", 5),
        ("diagonal-constant", 3),
        ("diagonal-bounded", 3),
        ("diagonal-linear-growth", 3),
    ],
)
def test_noise_matrix_applies_exactly_like_the_batched_catalog(name, channels):
    spec = NoiseSpec(name, gain=0.8, decay=0.5)
    gen = np.random.default_rng(3)
    x = gen.standard_normal(3)
    w = gen.standard_normal(channels)
    got = _noise_matrix(spec, x, 3, channels) @ w
    assert got.shape == (3,)
    assert np.array_equal(got, _noise_apply(spec, x[None], w[None])[0])


def test_galerkin_zero_noise_decays_like_semigroup():
    model = GalerkinSPDE(modes=3, channels=3, drift=DriftSpec("zero"))
    grid = TimeGrid(0.5, 64)
    x = np.array([1.0, 1.0, 1.0])
    sk = skeleton(model, grid, x)
    lam = model.eigenvalues()
    expect = np.exp(-np.outer(grid.times, lam))
    assert np.allclose(sk.values, expect, rtol=1e-12, atol=1e-12)


def test_hilbert_space_weighting_orders_modes():
    model = GalerkinSPDE(modes=6, channels=6)
    lam = model.eigenvalues()
    assert np.all(np.diff(lam) > 0)


def test_control_energy():
    u = constant_control(GRID, 1.0)
    assert u.squared_l2 == pytest.approx(1.0)
    assert u.energy == pytest.approx(0.5)


def test_sine_control_needs_resolvable_frequency():
    with pytest.raises(ValueError):
        sine_control(TimeGrid(1.0, 16), 5)


def test_sine_control_running_integral_is_exact():
    grid = TimeGrid(1.0, 64)
    n = 4
    u = sine_control(grid, n)
    w = n * math.pi / grid.horizon
    running = np.concatenate([[0.0], np.cumsum(u.values[:, 0]) * grid.dt])
    expect = (1.0 - np.cos(w * grid.times)) / w
    assert np.allclose(running, expect, rtol=0, atol=1e-13)


def test_model_spec_round_trip():
    for model in (
        TranslatedBM(),
        PerturbedBM(),
        SwappedBM(swap_at=0.0, swap_to=0.5),
        FiniteSDE(dim=2, drift=DriftSpec("zero"), noise=NoiseSpec("identity")),
        GalerkinSPDE(modes=3, channels=3),
    ):
        spec = model_to_spec(model)
        again = model_from_spec(spec)
        assert model_to_spec(again) == spec


@pytest.mark.parametrize(
    "eigenvalues", [[1.0, 4.0, 9.0], "quadratic", None, {"rule": "linear", "values": [1.0, 2.0, 3.0]}]
)
def test_galerkin_spec_takes_only_a_rule_and_scale_object(eigenvalues):
    spec = {**model_to_spec(GalerkinSPDE(modes=3, channels=3)), "eigenvalues": eigenvalues}
    with pytest.raises(ValueError, match=r"eigenvalues must be a \{rule, scale\} object"):
        model_from_spec(spec)


LINEAR_2 = {"name": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize(
    ("spec", "build", "error", "message"),
    [
        pytest.param(
            {"variant": "galerkin-spde", "modes": 2, "eigenvalues": {"rule": "cubic"}},
            lambda: GalerkinSPDE(modes=2, channels=2, eigen_rule="cubic"),
            ValueError, "unknown eigenvalue rule 'cubic'", id="eigen-rule",
        ),
        pytest.param(
            {"variant": "galerkin-spde", "modes": 2, "eigenvalues": {"scale": math.nan}},
            lambda: GalerkinSPDE(modes=2, channels=2, eigen_scale=math.nan),
            ValueError, "galerkin-spde eigen_scale must be finite", id="eigen-scale",
        ),
        pytest.param(
            {"variant": "finite-sde", "dim": 2, "drift": {"name": "cubic"}},
            lambda: FiniteSDE(dim=2, drift=DriftSpec("cubic")),
            ValueError, "unknown drift 'cubic'", id="drift-name",
        ),
        pytest.param(
            {"variant": "finite-sde", "dim": 2, "noise": {"name": "pink"}},
            lambda: FiniteSDE(dim=2, noise=NoiseSpec("pink")),
            ValueError, "unknown noise 'pink'", id="noise-name",
        ),
        pytest.param(
            {"variant": "finite-sde", "drift": {"name": "scaled-sine", "kappa": math.inf}},
            lambda: FiniteSDE(drift=DriftSpec("scaled-sine", kappa=math.inf)),
            ValueError, "drift kappa must be finite", id="kappa",
        ),
        pytest.param(
            {"variant": "finite-sde", "noise": {"name": "diagonal-constant", "gain": math.nan}},
            lambda: FiniteSDE(noise=NoiseSpec("diagonal-constant", gain=math.nan)),
            ValueError, "noise gain must be finite", id="gain",
        ),
        pytest.param(
            {"variant": "galerkin-spde", "modes": 2, "noise": {"name": "diagonal-bounded", "decay": -math.inf}},
            lambda: GalerkinSPDE(modes=2, channels=2, noise=NoiseSpec("diagonal-bounded", decay=-math.inf)),
            ValueError, "noise decay must be finite", id="decay",
        ),
        pytest.param(
            {"variant": "galerkin-spde", "modes": 3, "channels": 2, "noise": {"name": "diagonal-bounded"}},
            lambda: GalerkinSPDE(modes=3, channels=2),
            ShapeMismatchError, "diagonal noise 'diagonal-bounded' needs channels == dim, got 2 != 3",
            id="diagonal-channels",
        ),
        pytest.param(
            {"variant": "finite-sde", "dim": 3, "drift": LINEAR_2},
            lambda: FiniteSDE(dim=3, drift=DriftSpec("linear", matrix=((1.0, 0.0), (0.0, 1.0)))),
            ShapeMismatchError, "linear drift matrix must be 3x3", id="linear-matrix",
        ),
        pytest.param(
            {"variant": "finite-sde", "dim": 2, "drift": {**LINEAR_2, "offset": [0.5, 0.5, 0.5]}},
            lambda: FiniteSDE(dim=2, drift=DriftSpec("linear", offset=(0.5, 0.5, 0.5))),
            ShapeMismatchError, "linear drift offset must have length 2", id="linear-offset",
        ),
        # sizes are integers >= 1, passed through from the spec and never truncated
        pytest.param(
            {"variant": "finite-sde", "dim": 1.5},
            lambda: FiniteSDE(dim=1.5),
            ValueError, "finite-sde dim must be an integer >= 1, got 1.5", id="dim-fraction",
        ),
        pytest.param(
            {"variant": "galerkin-spde", "modes": 2.9},
            lambda: GalerkinSPDE(modes=2.9, channels=2),
            ValueError, "galerkin-spde modes must be an integer >= 1, got 2.9", id="modes-fraction",
        ),
        pytest.param(
            {"variant": "galerkin-spde", "modes": 2.5, "channels": 2},
            lambda: GalerkinSPDE(modes=2.5, channels=2),
            ValueError, "galerkin-spde modes must be an integer >= 1, got 2.5", id="modes-half",
        ),
        pytest.param(
            {"variant": "galerkin-spde", "modes": 2, "channels": 0, "noise": {"name": "identity"}},
            lambda: GalerkinSPDE(modes=2, channels=0, noise=NoiseSpec("identity")),
            ValueError, "galerkin-spde channels must be an integer >= 1, got 0", id="channels-zero",
        ),
        pytest.param(
            {"variant": "galerkin-spde", "modes": 2, "channels": -1, "noise": {"name": "identity"}},
            lambda: GalerkinSPDE(modes=2, channels=-1, noise=NoiseSpec("identity")),
            ValueError, "galerkin-spde channels must be an integer >= 1, got -1", id="channels-negative",
        ),
    ],
)
def test_bad_model_specs_fail_when_built_and_name_the_field(spec, build, error, message, tmp_path, capsys):
    import json

    from uldplab.cli import main

    with pytest.raises(error, match=re.escape(message)):
        build()
    with pytest.raises(error, match=re.escape(message)):
        model_from_spec(spec)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    code = main(["simulate", "--model", str(path), "--x", "0", "--eps", "0.1", "--samples", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_load_model_builtin_and_file(tmp_path):
    import json

    assert isinstance(load_model("translated-bm"), TranslatedBM)
    f = tmp_path / "m.json"
    f.write_text(json.dumps(model_to_spec(SwappedBM())))
    m = load_model(str(f))
    assert isinstance(m, SwappedBM)


def test_eps_zero_skeleton_is_the_control_flow():
    p = skeleton(TranslatedBM(), GRID, np.array([0.0]))
    assert np.all(p.values == 0.0)


@given(st.floats(min_value=0.0, max_value=0.5), st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_noise_scaling_is_sqrt_eps_exact(eps, idx):
    # one shared draw: fluctuation part scales exactly like sqrt(eps)
    inc = _noise_block(GRID, 1, 13, 0, 51)[idx : idx + 1]
    base = simulate_batch(TranslatedBM(), GRID, np.array([0.0]), 1.0, None, inc)
    scaled = simulate_batch(TranslatedBM(), GRID, np.array([0.0]), eps, None, inc)
    assert np.allclose(scaled, math.sqrt(eps) * base, rtol=1e-12, atol=1e-12)


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_noise_gains_respect_bounded_tag(decay_tenths):
    spec = NoiseSpec("diagonal-bounded", gain=0.5, decay=decay_tenths / 10.0)
    gains = spec.gains(8)
    assert spec.growth == "bounded"
    assert np.all(gains <= 0.5 + 1e-12)
    assert np.all(np.diff(gains) <= 1e-12)


@pytest.mark.parametrize(
    "model", [TranslatedBM(), PerturbedBM(), SwappedBM(), FiniteSDE(dim=2)], ids=lambda m: m.name
)
def test_simulate_starts_yields_the_one_start_batches(model):
    grid = TimeGrid(1.0, 16)
    inc = _noise_block(grid, model.channels, 3, 0, 50)
    u = constant_control(grid, 0.4, model.channels)
    starts = (0.0, 0.5, -7.0)
    got = [p.copy() for p in simulate_starts(model, grid, starts, 0.3, u, inc)]
    want = [simulate_batch(model, grid, x, 0.3, u, inc) for x in starts]
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


STACK_EPS = (0.3, 0.0, 1e-3, 0.05)
SINE_SDE = FiniteSDE(
    dim=2, drift=DriftSpec("scaled-sine", kappa=1.5), noise=NoiseSpec("diagonal-bounded", gain=0.7, decay=0.5)
)
LINEAR_SDE = FiniteSDE(
    dim=2,
    drift=DriftSpec("linear", matrix=((-1.0, 0.5), (0.25, -2.0)), offset=(0.1, -0.2)),
    noise=NoiseSpec("diagonal-linear-growth", gain=0.5),
)


def _rounding(a, b):
    return np.allclose(a, b, rtol=1e-12, atol=0)


def _stack_against_per_eps(model, x, control, n, same):
    grid = TimeGrid(1.0, 16)
    inc = _noise_block(grid, model.channels, 11, 0, n)
    want = [simulate_batch(model, grid, x, e, control, inc) for e in STACK_EPS]
    states = list(simulate_eps_stack(model, grid, x, STACK_EPS, control, inc))
    assert len(states) == grid.steps + 1
    for i, state in enumerate(states):
        assert state.shape == (len(STACK_EPS) * n, model.dim)
        rows = state.reshape(len(STACK_EPS), n, model.dim)
        for e, paths in enumerate(want):
            assert same(rows[e], paths[:, i, :])


@pytest.mark.parametrize("n", [1, 37])
@pytest.mark.parametrize("control", ["none", "zero", "sine"])
@pytest.mark.parametrize(
    "model, x",
    [
        (TranslatedBM(), -2.5),
        (PerturbedBM(), 1.25),
        (SwappedBM(), 0.0),
        (SINE_SDE, (0.4, -1.2)),
        (GalerkinSPDE(modes=4, channels=4), (0.5, -0.25, 0.125, 2.0)),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else None,
)
def test_eps_stack_equals_per_eps_simulation_bitwise(model, x, control, n):
    # the stacked walk steps every eps in one batch; each row block must be
    # the one-eps batch bit for bit, eps = 0 included
    grid = TimeGrid(1.0, 16)
    u = {"none": None, "zero": zero_control(grid, model.channels), "sine": sine_control(grid, 2, model.channels)}
    _stack_against_per_eps(model, x, u[control], n, np.array_equal)


@pytest.mark.parametrize("n", [1, 37])
def test_eps_stack_with_linear_drift_matches_to_rounding(n):
    # the linear drift multiplies by its matrix through BLAS, which rounds a
    # one-row batch differently from a stacked one, so this family is only
    # compared to rtol 1e-12; every other catalog entry is bitwise
    u = constant_control(TimeGrid(1.0, 16), (0.3, -0.6), 2)
    _stack_against_per_eps(LINEAR_SDE, (1.0, -0.5), u, n, _rounding)


@pytest.mark.parametrize(
    "model, x, eps, same",
    [
        (TranslatedBM(), -2.5, 0.0, np.array_equal),
        (PerturbedBM(), 1.25, 0.0, np.array_equal),
        (PerturbedBM(), 1.25, 0.05, np.array_equal),
        (SwappedBM(), 0.0, 0.0, np.array_equal),
        (SINE_SDE, (0.4, -1.2), 0.0, np.array_equal),
        (GalerkinSPDE(modes=4, channels=4), (0.5, -0.25, 0.125, 2.0), 0.0, np.array_equal),
        # the linear drift's matrix product goes through BLAS, as in the eps-stack caveat
        (LINEAR_SDE, (1.0, -0.5), 0.0, _rounding),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else None,
)
def test_control_stack_rows_equal_one_control_walks(model, x, eps, same):
    # one walk steps a stack of controls, row k driven by controls[k]; each
    # row must be the one-control walk over zero increments
    grid = TimeGrid(1.0, 16)
    controls = _level_set_controls(grid, model.channels, 1.5, 6, seed=3)
    controls.append(constant_control(grid, 0.7, model.channels))
    zeros = np.zeros((1, grid.steps, model.channels))
    stack = skeletons(model, grid, (x,), controls, eps)[0]
    assert stack.shape == (len(controls), grid.steps + 1, model.dim)
    for row, control in zip(stack, controls):
        assert same(row, simulate_batch(model, grid, x, eps, control, zeros)[0])
    # a control list needs one control per increment row, and a single eps
    with pytest.raises(ShapeMismatchError):
        simulate_batch(model, grid, x, eps, controls[:-1], np.zeros((len(controls), grid.steps, model.channels)))
    with pytest.raises(ShapeMismatchError):
        inc = _noise_block(grid, model.channels, 5, 0, len(controls))
        next(simulate_eps_stack(model, grid, x, (0.1, 0.05), controls, inc))


# the catalogs written out: each step of the parent evaluated sin(state)
# once in the drift and once more in the noise
KAPPA, GAIN, DECAY = 1.5, 0.7, 0.5
MATRIX = ((-1.0, 0.5, 0.0), (0.25, -2.0, 0.1), (0.0, 0.3, -0.5))
OFFSET = (0.1, -0.2, 0.05)
DRIFTS = {
    "zero": lambda s: np.zeros_like(s),
    "scaled-sine": lambda s: KAPPA * np.sin(s),
    "linear": lambda s: s @ np.asarray(MATRIX).T + np.asarray(OFFSET),
}
NOISES = {
    "zero": lambda g, s, w: np.zeros_like(s),
    "identity": lambda g, s, w: w.copy(),
    "diagonal-constant": lambda g, s, w: g * w,
    "diagonal-bounded": lambda g, s, w: g * (1.0 + 0.5 * np.sin(s)) * w,
    "diagonal-linear-growth": lambda g, s, w: g * (1.0 + np.abs(s)) * w,
}


@pytest.mark.parametrize("noise", sorted(NOISES))
@pytest.mark.parametrize("drift", sorted(DRIFTS))
@pytest.mark.parametrize("family", ["finite-sde", "galerkin-spde"])
def test_stepped_walk_is_bitwise_the_two_sine_update(family, drift, noise):
    dspec = DriftSpec(drift, kappa=KAPPA, matrix=MATRIX, offset=OFFSET)
    nspec = NoiseSpec(noise, gain=GAIN, decay=DECAY)
    if family == "finite-sde":
        model = FiniteSDE(dim=3, drift=dspec, noise=nspec)
    else:
        model = GalerkinSPDE(modes=3, channels=3, eigen_scale=2.0, drift=dspec, noise=nspec)
    grid = TimeGrid(1.0, 24)
    dt = grid.dt
    inc = _noise_block(grid, 3, 9, 0, 5)
    u = sine_control(grid, 2, channels=3)
    eps = 0.3
    start = np.array([0.4, -1.2, 2.5])
    got = simulate_batch(model, grid, start, eps, u, inc)
    g = GAIN * np.arange(1.0, 4.0) ** (-DECAY)
    a = 2.0 * np.arange(1.0, 4.0) ** 2
    state = np.tile(start, (5, 1))
    for i in range(grid.steps):
        w = math.sqrt(eps) * inc[:, i, :] + u.values[i] * dt
        if family == "finite-sde":
            state = state + DRIFTS[drift](state) * dt + NOISES[noise](g, state, w)
        else:
            forcing = DRIFTS[drift](state) * dt + NOISES[noise](g, state, w)
            state = np.exp(-a * dt) * state + _phi1(-a * dt) * forcing
        assert np.array_equal(got[:, i + 1, :], state)


@pytest.mark.parametrize(
    "model, sines",
    [
        (GalerkinSPDE(modes=4, channels=4), 1),  # scaled-sine drift and diagonal-bounded noise
        (FiniteSDE(dim=2, drift=DriftSpec("scaled-sine")), 1),
        (FiniteSDE(dim=2, noise=NoiseSpec("diagonal-bounded")), 1),
        (FiniteSDE(dim=2), 0),  # zero drift, identity noise
        (FiniteSDE(dim=2, drift=DriftSpec("linear"), noise=NoiseSpec("diagonal-linear-growth")), 0),
    ],
    ids=lambda v: f"{v.drift.name}+{v.noise.name}" if hasattr(v, "drift") else None,
)
def test_stepped_walk_evaluates_one_sine_per_step(monkeypatch, model, sines):
    grid = TimeGrid(1.0, 20)
    inc = _noise_block(grid, model.channels, 4, 0, 6)
    u = sine_control(grid, 1, model.channels)
    want = simulate_batch(model, grid, 0.3, 0.1, u, inc)
    calls = []
    sin = np.sin

    def counting(*args, **kwargs):
        calls.append(1)
        return sin(*args, **kwargs)

    monkeypatch.setattr(np, "sin", counting)
    assert np.array_equal(simulate_batch(model, grid, 0.3, 0.1, u, inc), want)
    assert len(calls) == sines * grid.steps
    calls.clear()
    states = list(simulate_eps_stack(model, grid, 0.3, (0.1, 0.01, 0.0), u, inc))
    assert np.array_equal(states[-1][:6], want[:, -1])
    assert len(calls) == sines * grid.steps


def test_galerkin_spec_defaults_are_the_constructor_defaults():
    assert model_from_spec({"variant": "galerkin-spde", "modes": 3}) == GalerkinSPDE(modes=3, channels=3)
    # a partial drift or noise object keeps the default's other fields
    partial = {"variant": "galerkin-spde", "modes": 3, "drift": {"kappa": 0.5}, "noise": {"gain": 0.4}}
    assert model_from_spec(partial) == GalerkinSPDE(
        modes=3, channels=3, drift=DriftSpec("scaled-sine", kappa=0.5), noise=NoiseSpec("diagonal-bounded", gain=0.4)
    )
    assert model_from_spec({"variant": "finite-sde"}) == FiniteSDE()


# Stream canaries.  Every pinned digest reads these two streams, so a numpy
# release that changes either one breaks them all at once; these two tests
# then name the stream that moved.  The values were recorded with numpy 2.4.6.


def test_canary_philox_raw_stream_is_unchanged():
    # the bit generator behind every noise block; NEP 19 keeps it stable across releases
    gen = _rng(20261020, 3)
    assert [hex(int(v)) for v in gen.bit_generator.random_raw(4)] == [
        "0x96a1a8c8192e08d3", "0x2545db20f2147296", "0x76b4d3e4418ef632", "0x8294b9c33bc1550",
    ]


def test_canary_noise_block_standard_normals_are_unchanged():
    # Generator.standard_normal on that stream; NEP 19 lets its algorithm change between releases
    block = _noise_block(TimeGrid(1.0, 4), 2, 20261020, 3, 2)
    assert [float(v).hex() for v in block.reshape(-1)[:6]] == [
        "0x1.928efc4c66448p-1", "0x1.1cdc535fd71e7p-3", "0x1.66935082d4f5fp-2",
        "-0x1.3c4ea6b73cd5bp-3", "-0x1.355482fa55e1dp-1", "-0x1.53a1a40cd94fdp-4",
    ]
