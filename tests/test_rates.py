import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uldplab.estimators import CappedSetDistance
from uldplab.models import (
    DriftSpec,
    FiniteSDE,
    GalerkinSPDE,
    NoiseSpec,
    PerturbedBM,
    SwappedBM,
    TranslatedBM,
    constant_control,
    sine_control,
    skeleton,
    skeletons,
)
from uldplab.pathspace import DiscretePath, PathSet, TimeGrid, constant_path, line_path
from uldplab.rates import (
    constant_slope_controls,
    export_level_set,
    inf_h_plus_I,
    rate_candidates,
    rate_closed_form,
    rate_variational,
    sample_level_set,
)


GRID = TimeGrid(1.0, 64)


def test_line_rate_is_half():
    path = line_path(GRID, 0.0, 1.0)
    r = rate_closed_form(TranslatedBM(), GRID, 0.0, path)
    assert r.value == 0.5
    assert r.finite
    assert np.all(r.control.values == 1.0)


def test_rate_infinite_on_start_mismatch():
    path = line_path(GRID, 1.0, 2.0)
    r = rate_closed_form(TranslatedBM(), GRID, 0.0, path)
    assert r.value == math.inf
    assert r.control is None
    v = rate_variational(TranslatedBM(), GRID, 0.0, path)
    assert v.value == math.inf


def test_closed_form_rejects_state_dependent_models():
    model = FiniteSDE(dim=1, drift=DriftSpec("zero"), noise=NoiseSpec("identity"))
    with pytest.raises(TypeError):
        rate_closed_form(model, GRID, 0.0, line_path(GRID, 0.0, 1.0))


def test_rate_is_translation_invariant():
    gen = np.random.default_rng(3)
    values = np.cumsum(np.concatenate([[0.4], gen.normal(0, 0.05, GRID.steps)]))
    path = DiscretePath(GRID, values[:, None])
    shifted = path.translate(7.25)
    a = rate_closed_form(TranslatedBM(), GRID, 0.4, path)
    b = rate_closed_form(TranslatedBM(), GRID, 0.4 + 7.25, shifted)
    assert b.value == pytest.approx(a.value, rel=1e-12)


def test_swapped_model_rates_against_swapped_start():
    model = SwappedBM()
    from_zero = line_path(GRID, 0.0, 1.0)
    from_half = line_path(GRID, 0.5, 0.5)
    assert rate_closed_form(model, GRID, 0.0, from_zero).value == math.inf
    r = rate_closed_form(model, GRID, 0.0, from_half)
    assert r.finite
    assert r.value == pytest.approx(0.5 * 0.5 * 0.5)


def test_perturbed_model_rates_against_the_start_itself():
    # the start leak (1 + eps) x vanishes at eps = 0, even far from the origin
    model = PerturbedBM()
    assert rate_closed_form(model, GRID, 1000.0, line_path(GRID, 1000.0, 1.0)).value == 0.5
    assert rate_closed_form(model, GRID, 1000.0, line_path(GRID, 1001.0, 1.0)).value == math.inf


def test_variational_recovers_generator_energy_on_spectral_model():
    model = GalerkinSPDE(modes=3, channels=3)
    grid = TimeGrid(0.5, 32)
    u = constant_control(grid, (0.4, -0.2, 0.1))
    x = np.array([1.0, 0.0, -1.0])
    phi = skeleton(model, grid, x, u)
    r = rate_variational(model, grid, x, phi)
    assert r.finite
    assert r.value == pytest.approx(u.energy, rel=1e-9)


def test_variational_flags_unreachable_path():
    model = GalerkinSPDE(modes=2, channels=2, noise=NoiseSpec("zero"))
    grid = TimeGrid(0.5, 16)
    rising = DiscretePath(grid, np.column_stack([grid.times, grid.times]))
    # zero diffusion cannot produce a rising path
    r = rate_variational(model, grid, np.zeros(2), rising)
    assert r.value == math.inf


def test_dual_routes_agree_on_translated_family():
    gen = np.random.default_rng(11)
    for k in range(5):
        values = np.cumsum(np.concatenate([[0.0], gen.normal(0, 0.1, GRID.steps)]))
        path = DiscretePath(GRID, values[:, None])
        a = rate_closed_form(TranslatedBM(), GRID, 0.0, path)
        b = rate_variational(TranslatedBM(), GRID, 0.0, path)
        assert b.value == pytest.approx(a.value, rel=1e-10)


@given(st.integers(min_value=1, max_value=4), st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=30, deadline=None)
def test_dual_routes_agree_on_sine_skeletons(n, x0):
    u = sine_control(GRID, n)
    phi = skeleton(TranslatedBM(), GRID, x0, u)
    a = rate_closed_form(TranslatedBM(), GRID, x0, phi)
    b = rate_variational(TranslatedBM(), GRID, x0, phi)
    assert math.isfinite(a.value)
    assert b.value == pytest.approx(a.value, rel=1e-10, abs=1e-12)
    # recovered energy never beats the generator
    assert a.value <= u.energy + 1e-10


def test_level_set_members_stay_under_level():
    (sample,) = sample_level_set(TranslatedBM(), GRID, (0.0,), 1.5, 40, seed=9)
    assert len(sample) == 40
    assert sample.energies[0] == 0.0
    assert np.all(sample.controls[0].values == 0.0)
    for c, e in zip(sample.controls, sample.energies):
        assert e <= 1.5 + 1e-12
        assert c.energy == pytest.approx(e, rel=1e-12, abs=1e-15)


def test_level_zero_degenerates_to_noise_free_path():
    (sample,) = sample_level_set(TranslatedBM(), GRID, (0.3,), 0.0, 12, seed=1)
    assert len(sample) == 1
    assert np.all(sample.paths.members[0].values == 0.3)


@pytest.mark.parametrize("level", [-0.5, math.nan])
def test_level_set_rejects_a_negative_or_nan_level(level):
    with pytest.raises(ValueError):
        sample_level_set(TranslatedBM(), GRID, (0.0,), level, 8, seed=1)


def test_level_set_rejects_an_infinite_level():
    # inf >= 0 holds, so the level must be checked for finiteness on its own
    with pytest.raises(ValueError, match="level must be nonnegative and finite"):
        sample_level_set(TranslatedBM(), GRID, (0.0,), math.inf, 8, seed=1)


def test_level_set_controls_do_not_depend_on_start():
    (a,) = sample_level_set(TranslatedBM(), GRID, (0.0,), 1.0, 8, seed=5)
    (b,) = sample_level_set(TranslatedBM(), GRID, (2.0,), 1.0, 8, seed=5)
    for ca, cb in zip(a.controls, b.controls):
        assert np.array_equal(ca.values, cb.values)
    # so the members differ by the translation flow alone
    for pa, pb in zip(a.paths.members, b.paths.members):
        assert np.array_equal(pb.values, pa.values + 2.0)


def test_constant_pool_hits_prescribed_energies():
    pool = constant_slope_controls(GRID, 1, 2.0, 16)
    assert len(pool) == 32
    energies = sorted({round(c.energy, 12) for c in pool})
    assert energies == pytest.approx([0.125 * j for j in range(1, 17)], rel=1e-12)


@pytest.mark.parametrize("channels", [1, 3])
def test_constant_pool_members_are_constant_controls(channels):
    pool = constant_slope_controls(GRID, channels, 2.0, 4)
    assert len(pool) == 8
    for k, c in enumerate(pool):
        speed = math.sqrt(2.0 * (2.0 * (k // 2 + 1) / 4) / GRID.horizon)
        want = constant_control(GRID, speed if k % 2 == 0 else -speed, channels)
        assert np.array_equal(c.values, want.values)


@pytest.mark.parametrize(
    "model", [TranslatedBM(), PerturbedBM(), GalerkinSPDE(modes=3, channels=3)], ids=lambda m: m.name
)
def test_rate_candidates_equal_the_skeletons_from_each_start(model):
    grid = TimeGrid(1.0, 16)
    starts = [0.0, 1.5, 0.0, -2.0]  # a repeated start: each entry must be its own copy
    energies, stacks = rate_candidates(model, grid, starts, 1.5, 5, 7, 3)
    controls = list(sample_level_set(model, grid, (0.0,), 1.5, 5, seed=7)[0].controls)
    controls += constant_slope_controls(grid, model.channels, 1.5, 3)
    assert energies == [c.energy for c in controls]
    assert len(stacks) == len(starts)
    for x, paths in zip(starts, stacks):
        assert np.array_equal(paths, skeletons(model, grid, (x,), controls)[0])
    assert stacks[0] is not stacks[2]
    # the level sets of all starts are one walk, bit for bit the one-start samples
    samples = sample_level_set(model, grid, starts, 1.5, 5, 7)
    assert len(samples) == len(starts)
    for x, got in zip(starts, samples):
        (want,) = sample_level_set(model, grid, (x,), 1.5, 5, seed=7)
        assert np.array_equal(got.x, want.x)
        assert (got.level, got.seed, got.energies) == (want.level, want.seed, want.energies)
        assert len(got.controls) == len(want.controls)
        for a, b in zip(got.controls, want.controls):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(got.paths.stack, want.paths.stack)
    assert not np.shares_memory(samples[0].paths.members[0].values, samples[2].paths.members[0].values)


class _FlatCost:
    """Functional h = c outside a target line, 0 on it; bound c."""

    def __init__(self, c, target):
        self.c = c
        self.target = target

    def bound(self):
        return self.c

    def batch(self, values):
        on_target = np.max(np.abs(values - self.target.values), axis=(1, 2)) < 1e-9
        return np.where(on_target, 0.0, self.c)


def test_inf_h_plus_I_zero_cost_picks_zero_control():
    h = _FlatCost(0.0, line_path(GRID, 0.0, 0.0))
    # every control but the zero one has positive energy
    assert inf_h_plus_I(TranslatedBM(), GRID, (0.0,), h, s_max=1.0, count=32, seed=2) == [0.0]


def test_inf_h_plus_I_requires_wide_enough_search():
    h = _FlatCost(1.1, line_path(GRID, 0.0, 1.0))
    with pytest.raises(ValueError):
        inf_h_plus_I(TranslatedBM(), GRID, (0.0,), h, s_max=2.0, count=8, seed=2)


def test_inf_h_plus_I_finds_line_witness_through_constant_pool():
    # paying c off the line: optimum is the line itself at energy 1/2
    h = _FlatCost(5.0, line_path(GRID, 0.0, 1.0))
    (val,) = inf_h_plus_I(TranslatedBM(), GRID, (0.0,), h, s_max=10.0, count=16, seed=4, constant_pool=40)
    assert val == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "model", [TranslatedBM(), SwappedBM(), GalerkinSPDE(modes=4, channels=4), FiniteSDE(dim=9)], ids=lambda m: m.name
)
def test_inf_h_plus_I_over_a_start_set_equals_the_one_path_scores(model):
    # each start's candidates are scored by one h.batch call: the value is
    # the least energy + h(path) of its candidates scored one path at a
    # time, and what a call with that start alone gives, bit for bit
    grid = TimeGrid(1.0, 16)
    starts = [0.0, 1.5, -2.0]
    h = CappedSetDistance(PathSet([constant_path(grid, 0.5, model.dim)]), 1.0, 0.5)
    got = inf_h_plus_I(model, grid, starts, h, 2.0, 6, 11, 3)
    energies, stacks = rate_candidates(model, grid, starts, 2.0, 6, 11, 3)
    assert len(got) == len(starts)
    for x, value, paths in zip(starts, got, stacks):
        assert value == min(e + h(DiscretePath(grid, p)) for e, p in zip(energies, paths))
        assert inf_h_plus_I(model, grid, (x,), h, 2.0, 6, 11, 3) == [value]


def test_export_level_set_round_trip(tmp_path):
    (sample,) = sample_level_set(TranslatedBM(), GRID, (0.0,), 1.0, 4, seed=8)
    manifest_path = export_level_set(sample, str(tmp_path / "ls"))
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    assert manifest["s"] == 1.0
    assert manifest["count"] == 4
    assert manifest["seed"] == 8
    assert len(manifest["paths"]) == 4
    back = DiscretePath.from_csv(str(tmp_path / "ls" / manifest["paths"][2]))
    assert np.allclose(back.values, sample.paths.members[2].values, atol=1e-15)
