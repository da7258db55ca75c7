import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import linregress

from uldplab.convergence import (
    _slope_fit,
    ball_controls,
    control_conv,
    moment_bound_check,
    weak_continuity_check,
)
from uldplab.estimators import EpsilonSchedule
from uldplab.models import DriftSpec, FiniteSDE, GalerkinSPDE, NoiseSpec, TranslatedBM
from uldplab.pathspace import TimeGrid
from uldplab.uldp import IndexSetSample


GRID = TimeGrid(1.0, 64)
BM = TranslatedBM()
STARTS = IndexSetSample("pair", [(0.0,), (2.0,)], tag="all-subsets")


def test_ball_controls_shell_normalization():
    controls = ball_controls(GRID, 1, 4.0, 8, seed=3)
    assert len(controls) == 8
    assert controls[0].squared_l2 == 0.0
    assert controls[1].squared_l2 == pytest.approx(4.0, rel=1e-12)
    for c in controls[2:]:
        assert c.squared_l2 == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        ball_controls(GRID, 1, 4.0, 1, seed=0)
    with pytest.raises(ValueError):
        ball_controls(GRID, 1, -1.0, 4, seed=0)


def test_additive_error_scales_exactly_like_sqrt_eps():
    table = control_conv(
        BM,
        GRID,
        STARTS,
        control_bound=4.0,
        delta=0.25,
        schedule=EpsilonSchedule.geometric(1e-3, 1e-1, 4),
        control_count=6,
        n=80,
        seed=17,
    )
    # coupled noise: the error is sqrt(eps) times a frozen sample
    assert table.slope == pytest.approx(0.5, abs=1e-9)
    for i in range(1, len(table.eps)):
        ratio = math.sqrt(table.eps[i] / table.eps[i - 1])
        assert table.median_err[i] == pytest.approx(ratio * table.median_err[i - 1], rel=1e-9)
    assert all(a >= b for a, b in zip(table.sup_prob, table.sup_prob[1:]))
    assert table.sup_prob[-1] == 0.0


def _same_fit_as_linregress(x, y):
    # the pinned tables' slope and slope_stderr were made with scipy's linregress
    fit = linregress(x, y)
    return np.array(_slope_fit(x, y)).tobytes() == np.array([fit.slope, fit.stderr], dtype=float).tobytes()


@pytest.mark.parametrize(
    "eps, errors",
    [((0.1, 0.01), (0.3, 0.11)), ((0.1, 0.01), (0.2, 0.2)), ((0.1, 0.01, 0.001), (0.2, 0.2, 0.2))],
    ids=["two-points", "two-equal-errors", "constant-errors"],
)
def test_slope_fit_edge_cases_are_linregress(eps, errors):
    # two points: stderr 0; constant errors: r and stderr nan
    assert _same_fit_as_linregress(np.log(eps), np.log(errors))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_slope_fit_clamps_r_of_collinear_points_as_linregress(sign):
    x = np.log(EpsilonSchedule.geometric(1e-3, 1e-1, 5).eps)
    y = sign * (0.5 * x + 2.0)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    assert abs(ssxym / np.sqrt(ssxm * ssym)) > 1.0  # rounding put |r| past 1, so the clamp acts
    assert _same_fit_as_linregress(x, y)


@given(
    st.floats(min_value=1e-5, max_value=1e-2),
    st.floats(min_value=2e-2, max_value=1.0),
    st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=2, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_slope_fit_is_linregress_bit_for_bit(lo, hi, errors):
    x = np.log(EpsilonSchedule.geometric(lo, hi, len(errors)).eps)
    assert _same_fit_as_linregress(x, np.log(errors))


def test_threading_does_not_change_the_table():
    kwargs = dict(
        control_bound=2.0,
        delta=0.3,
        schedule=EpsilonSchedule((0.1, 0.05)),
        control_count=5,
        n=40,
        seed=9,
    )
    a = control_conv(BM, GRID, STARTS, **kwargs, threads=1)
    b = control_conv(BM, GRID, STARTS, **kwargs, threads=3)
    assert a.sup_prob == b.sup_prob
    assert a.median_err == b.median_err
    assert a.q90_err == b.q90_err
    assert a.slope == b.slope
    # the stepped families run the stacked-eps walk on the worker threads
    stepped = [
        (
            FiniteSDE(dim=2, drift=DriftSpec("scaled-sine", kappa=0.5), noise=NoiseSpec("diagonal-bounded")),
            TimeGrid(1.0, 32),
            IndexSetSample("pair", [(0.0, 0.0), (0.5, -0.25)], tag="bounded"),
        ),
        (
            GalerkinSPDE(modes=4, channels=4),
            TimeGrid(0.5, 16),
            IndexSetSample("pair", [(0.0,) * 4, (0.5, 0.25, 0.0, -1.0)], tag="all-subsets"),
        ),
    ]
    for model, grid, starts in stepped:
        docs = [
            json.dumps(control_conv(model, grid, starts, **kwargs, threads=t).to_json())
            for t in (1, 2, 3)
        ]
        assert docs[0] == docs[1] == docs[2]


def test_linear_growth_noise_rejects_all_subsets_starts():
    model = GalerkinSPDE(modes=2, channels=2, noise=NoiseSpec("diagonal-linear-growth"))
    grid = TimeGrid(0.5, 16)
    bad = IndexSetSample("all", [(0.0, 0.0)], tag="all-subsets")
    with pytest.raises(ValueError):
        control_conv(model, grid, bad, 1.0, 0.3, EpsilonSchedule((0.1,)), control_count=3, n=10)
    ok = IndexSetSample("ball", [(0.0, 0.0)], tag="bounded", radius=1.0)
    table = control_conv(model, grid, ok, 1.0, 0.3, EpsilonSchedule((0.1,)), control_count=3, n=10)
    assert len(table.eps) == 1


def test_table_serialization_round_trip(tmp_path):
    table = control_conv(
        BM,
        GRID,
        STARTS,
        control_bound=1.0,
        delta=0.3,
        schedule=EpsilonSchedule((0.1, 0.05)),
        control_count=4,
        n=30,
        seed=2,
    )
    doc = table.to_json()
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["eps"] == 0.1
    f = tmp_path / "table.json"
    table.save_json(str(f))
    assert json.loads(f.read_text())["rows"][1]["eps"] == 0.05
    csv = table.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "eps,sup_prob,median_err,q90_err"
    assert len(lines) == 3
    assert float(lines[1].split(",")[2]) == table.median_err[0]


def test_control_conv_rejects_bad_parameters():
    for delta in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            control_conv(BM, GRID, STARTS, 1.0, delta, EpsilonSchedule((0.1,)))
    with pytest.raises(ValueError):
        control_conv(BM, GRID, STARTS, 1.0, 0.3, EpsilonSchedule((0.1,)), threads=0)
    for n in (0, -2):
        with pytest.raises(ValueError, match="n must be >= 1"):
            control_conv(BM, GRID, STARTS, 1.0, 0.3, EpsilonSchedule((0.1,)), n=n)
    for bound in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bound must be nonnegative and finite"):
            control_conv(BM, GRID, STARTS, bound, 0.3, EpsilonSchedule((0.1,)))


def test_moment_bound_monotone_and_finite():
    out = moment_bound_check(BM, GRID, radius=1.0, control_bound=1.0, p=4.0, eps=0.1, samples=60, seed=3)
    assert out["finite"]
    assert out["nondecreasing_radius"]
    assert out["nondecreasing_bound"]
    assert len(out["rows"]) == 4
    # max(0.0, nan) is 0.0, so a nan p would report every moment as a finite 0.0
    for p in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="p must be finite and at least 2"):
            moment_bound_check(BM, GRID, 1.0, 1.0, p=p, eps=0.1)


def test_moment_bound_on_spectral_model():
    model = GalerkinSPDE(modes=3, channels=3)
    out = moment_bound_check(model, TimeGrid(0.5, 16), 0.5, 1.0, p=2.0, eps=0.1, samples=40, seed=5)
    assert out["finite"]
    assert out["nondecreasing_radius"]


def test_weak_continuity_matches_additive_reference():
    out = weak_continuity_check(BM, GRID, 0.0, (4, 8, 16))
    assert out["decreasing"]
    for row in out["rows"]:
        assert row["sup_error"] == pytest.approx(row["reference"], rel=1e-12)
    assert out["final_error"] == pytest.approx(2.0 / (16.0 * math.pi), rel=1e-12)


def test_weak_continuity_needs_resolvable_frequencies():
    with pytest.raises(ValueError):
        weak_continuity_check(BM, GRID, 0.0, (32,))
    with pytest.raises(ValueError):
        weak_continuity_check(BM, GRID, 0.0, (0,))
    with pytest.raises(ValueError, match="frequencies must be integers, got 2.9"):
        weak_continuity_check(BM, GRID, 0.0, (2.9, 4))
    # an integral float is that frequency
    assert weak_continuity_check(BM, GRID, 0.0, (4.0, 8)) == weak_continuity_check(BM, GRID, 0.0, (4, 8))
    with pytest.raises(ValueError, match="need at least one frequency"):
        weak_continuity_check(BM, GRID, 0.0, [])


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("key", ["converge-galerkin-spde", "converge-finite-sde"])
def test_convergence_table_bytes_match_the_pinned_digest(key, bench_workloads, tmp_path):
    # the stacked-eps walk must reproduce the per-eps tables byte for byte;
    # the configs (n = 400, two threads) are the benchmark's own
    state = bench_workloads._converge_setup(None)
    (model, grid, index, seed), = [t[1:] for t in state["tables"] if t[0] == key]
    out = tmp_path / f"{key}.json"
    control_conv(model, grid, index, seed=seed, threads=2, **state["common"]).save_json(str(out))
    want = json.loads((BENCH / "digests.json").read_text())[key]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
