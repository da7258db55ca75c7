import dataclasses
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from uldplab import estimators
from uldplab.estimators import (
    CHUNK,
    CappedSetDistance,
    Constant,
    EpsilonSchedule,
    EquicontinuousFamily,
    LogProbEstimate,
    MinOverCenters,
    TestFunction as PathFunction,  # aliased so pytest does not collect it
    band_probability,
    is_probability,
    laplace_functional,
    mc_probability,
    quadrature_probability,
    wilson_interval,
    _girsanov_log_weights,
    _sub_block_rows,
)
from uldplab.models import (
    Control,
    DriftSpec,
    FiniteSDE,
    GalerkinSPDE,
    NumericalBlowupError,
    PerturbedBM,
    SwappedBM,
    TranslatedBM,
    _noise_block,
    constant_control,
    zero_control,
)
from uldplab.pathspace import (
    Ball,
    DiscretePath,
    Intersection,
    PathSet,
    TerminalAtLeast,
    TimeGrid,
    UnionOfBalls,
    constant_path,
    line_path,
    sup_metric,
)
from uldplab.uldp import CheckBudgets, IndexSetSample, fwuldp_gaps


SMALL = TimeGrid(1.0, 4)
BM = TranslatedBM()


def test_wilson_edges_and_ordering():
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0
    assert 0.0 < hi0 < 0.06
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 == 1.0
    lo, hi = wilson_interval(37, 100)
    assert lo < 0.37 < hi
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        EpsilonSchedule(())
    with pytest.raises(ValueError):
        EpsilonSchedule((0.1, 0.1))
    with pytest.raises(ValueError):
        EpsilonSchedule((0.1, -0.2))
    with pytest.raises(ValueError):
        EpsilonSchedule((0.05, 0.1))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            EpsilonSchedule((bad,))
        with pytest.raises(ValueError):
            mc_probability(BM, SMALL, bad, [(0.0, TerminalAtLeast(0.2), None)], 10, seed=1)
    sched = EpsilonSchedule.geometric(0.01, 0.1, 3)
    assert sched.eps[0] == pytest.approx(0.1)
    assert sched.eps[-1] == pytest.approx(0.01)
    assert sched.eps[1] == pytest.approx(math.sqrt(0.001))
    # eps is the only scale: no speed function rides along with the grid
    assert [f.name for f in dataclasses.fields(sched)] == ["eps"]


def test_estimate_csv_row_matches_header():
    est = mc_probability(BM, SMALL, 0.25, [(0.0, TerminalAtLeast(0.2), None)], 500, seed=1)[0]
    row = est.csv_row().split(",")
    assert len(row) == len(LogProbEstimate.CSV_HEADER.split(","))
    assert float(row[2]) == est.p_hat
    assert int(row[8]) == 500
    assert int(row[9]) == 1


def test_mc_against_band_oracle_on_ball_event():
    event = Ball(line_path(SMALL, 0.0, 0.5), 0.6)
    exact = band_probability(BM, SMALL, 0.0, 0.25, event)
    est = mc_probability(BM, SMALL, 0.25, [(0.0, event, None)], 100_000, seed=77)[0]
    assert abs(est.p_hat - exact) < 0.006
    assert est.ci_low < exact < est.ci_high


def test_band_oracle_matches_closed_form_on_terminal_event():
    # X_T = sqrt(eps) W_T so P(X_T >= c) = sf(c / sqrt(eps T))
    for c, eps in ((0.8, 0.25), (0.5, 0.09)):
        got = band_probability(BM, SMALL, 0.0, eps, TerminalAtLeast(c))
        want = norm.sf(c / math.sqrt(eps * SMALL.horizon))
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_band_oracle_rejects_a_bad_eps(eps):
    # nan compares false to everything, so a bare eps <= 0 check lets it through
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        band_probability(BM, SMALL, 0.0, eps, TerminalAtLeast(0.8))


def test_band_oracle_node_refinement_is_stable():
    event = Intersection((Ball(line_path(SMALL, 0.0, 0.5), 0.6), TerminalAtLeast(0.5)))
    a = band_probability(BM, SMALL, 0.0, 0.25, event, nodes=120)
    b = band_probability(BM, SMALL, 0.0, 0.25, event, nodes=240)
    assert a == pytest.approx(b, rel=1e-9)


def test_gauss_hermite_matches_band_on_terminal_event():
    got = quadrature_probability(BM, SMALL, 0.0, 0.25, TerminalAtLeast(0.8), nodes=12)
    want = band_probability(BM, SMALL, 0.0, 0.25, TerminalAtLeast(0.8))
    assert got == pytest.approx(want, rel=1e-7)


def test_zero_tilt_importance_sampling_equals_plain_mc():
    event = Ball(line_path(SMALL, 0.0, 0.0), 0.9)
    a = mc_probability(BM, SMALL, 0.16, [(0.0, event, None)], 4000, seed=5)[0]
    b = is_probability(BM, SMALL, 0.0, 0.16, event, zero_control(SMALL), 4000, seed=5)
    assert b.p_hat == a.p_hat
    assert b.ess == pytest.approx(4000.0)


def test_tilted_sampling_is_unbiased_for_rare_terminal_event():
    # P(sqrt(eps) W_1 >= 1) = sf(5) ~ 2.9e-7: invisible to plain MC at this n
    eps = 0.04
    tilt = constant_control(SMALL, 1.0)
    est = is_probability(BM, SMALL, 0.0, eps, TerminalAtLeast(1.0), tilt, 20_000, seed=13)
    exact = norm.sf(1.0 / math.sqrt(eps))
    assert est.ci_low <= exact <= est.ci_high
    assert abs(est.p_hat - exact) / exact < 0.1
    # raw-weight ess collapses under a strong tilt; the flag reports that
    assert est.degenerate


def test_log_value_lives_on_speed_scale():
    est = mc_probability(BM, SMALL, 0.25, [(0.0, TerminalAtLeast(0.2), None)], 2000, seed=3)[0]
    assert est.log_value == 0.25 * math.log(est.p_hat)


def test_zero_hit_estimate_carries_sentinel_and_rule_of_three():
    est = mc_probability(BM, SMALL, 0.01, [(0.0, TerminalAtLeast(50.0), None)], 100, seed=2)[0]
    assert est.zero_hit
    assert est.p_hat == 0.0
    assert est.log_value == -math.inf
    assert est.p_rule_of_three == pytest.approx(0.03)


def test_laplace_of_constant_is_exact():
    for c in (0.0, 0.7, 2.5):
        (got,) = laplace_functional(BM, SMALL, (0.0,), 0.2, Constant(c), 500, seed=4)
        assert got == pytest.approx(-c, abs=1e-12)


@pytest.mark.parametrize("n", [0, -1])
def test_laplace_rejects_a_nonpositive_sample_count(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        laplace_functional(BM, SMALL, (0.0,), 0.2, Constant(1.0), n, seed=4)
    with pytest.raises(ValueError, match="n must be >= 1"):
        laplace_functional(BM, SMALL, [0.0, 0.5], 0.2, Constant(1.0), n, seed=4)


@dataclasses.dataclass(frozen=True)
class Shifted(PathFunction):
    """h + shift, pathwise."""

    base: PathFunction
    shift: float

    def batch(self, values):
        return self.base.batch(values) + self.shift


def test_laplace_is_monotone_in_the_functional():
    center = line_path(SMALL, 0.0, 0.0)
    small_h = CappedSetDistance(PathSet([center]), scale=0.5, width=1.0)
    big_h = Shifted(small_h, 0.4)
    (a,) = laplace_functional(BM, SMALL, (0.0,), 0.2, small_h, 3000, seed=6)
    (b,) = laplace_functional(BM, SMALL, (0.0,), 0.2, big_h, 3000, seed=6)
    # same seed means pathwise domination, so the order is exact
    assert b <= a
    assert b == pytest.approx(a - 0.4, abs=1e-10)


def test_test_function_algebra_bounds():
    center = line_path(SMALL, 0.0, 1.0)
    d = CappedSetDistance(PathSet([center]), scale=2.0, width=0.5)
    assert d.bound() == 2.0
    assert d.lipschitz() == 8.0
    sd = CappedSetDistance(PathSet([center]), scale=1.0, width=2.0, inverted=True)
    vals = sd.batch(center.values[None])
    assert vals[0] == pytest.approx(1.0)


def test_min_over_centers_with_geometric_weights_blows_lipschitz():
    centers = PathSet([line_path(SMALL, float(n), 1.0) for n in range(4)])
    weights = tuple(2.0**n for n in range(4))
    h = MinOverCenters(centers, weights, cap=1.0)
    assert h.bound() == 1.0
    assert h.lipschitz() == 8.0
    EquicontinuousFamily((h,), bound=1.0, lipschitz=8.0)
    with pytest.raises(ValueError):
        EquicontinuousFamily((h,), bound=1.0, lipschitz=4.0)
    with pytest.raises(ValueError):
        EquicontinuousFamily((Constant(2.0),), bound=1.0, lipschitz=1.0)
    with pytest.raises(ValueError):
        EquicontinuousFamily((), bound=1.0, lipschitz=1.0)


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_capped_distance_respects_declared_modulus(a, b, width):
    center = line_path(SMALL, 0.0, 1.0)
    h = CappedSetDistance(PathSet([center]), scale=1.5, width=width)
    p = line_path(SMALL, a, 0.0)
    q = line_path(SMALL, b, 0.0)
    gap = abs(h(p) - h(q))
    assert gap <= h.lipschitz() * sup_metric(p, q) + 1e-12
    assert h(p) <= h.bound() + 1e-12


def test_chunking_is_invisible_to_the_estimate():
    # n straddling a block boundary reads the same substreams either way
    event = TerminalAtLeast(0.1)
    small = mc_probability(BM, SMALL, 0.25, [(0.0, event, None)], 8192, seed=9)[0]
    big = mc_probability(BM, SMALL, 0.25, [(0.0, event, None)], 8192 + 500, seed=9)[0]
    assert big.n == 8192 + 500
    # the first block's contribution is identical, so the two hit counts
    # differ only by hits among the extra 500 samples
    assert 0 <= big.hit_count - small.hit_count <= 500


@pytest.mark.parametrize(
    "model",
    [
        TranslatedBM(),
        PerturbedBM(),
        SwappedBM(),
        FiniteSDE(dim=2, drift=DriftSpec(name="scaled-sine")),
        GalerkinSPDE(modes=4, channels=4),
    ],
    ids=lambda m: m.name,
)
def test_start_batch_equals_single_start_estimates_bit_for_bit(model):
    grid = TimeGrid(1.0, 8)
    eps, n, seed = 0.2, CHUNK + 17, 31
    c = constant_control(grid, 0.7, model.channels)
    tilts = [None, c, constant_control(grid, 0.7, model.channels), constant_control(grid, -0.4, model.channels)]
    # radii that leave every job with hits and misses; x = 0 is the swapped
    # start of SwappedBM; each start gets its own event
    radius = {1: 0.6, 2: 1.2, 4: 1.6}[model.dim]
    jobs = [
        (x, Ball(constant_path(grid, x + 0.3, model.dim), radius), tilt)
        for x in (0.0, 0.5, -1.25)
        for tilt in tilts
    ]
    batch = mc_probability(model, grid, eps, jobs, n, seed)
    assert len(batch) == len(jobs)
    for (x, event, tilt), got in zip(jobs, batch):
        if tilt is None:
            want = mc_probability(model, grid, eps, [(x, event, None)], n, seed)[0]
        else:
            want = is_probability(model, grid, x, eps, event, tilt, n, seed)
        assert got == want  # every field: p_hat, CIs, ess, hit_count, log_value, ...
        assert 0 < got.hit_count < n
    h = CappedSetDistance(PathSet([constant_path(grid, 0.3, model.dim)]), 1.0, 0.5)
    xs = (0.0, 0.5, -1.25)
    want = [laplace_functional(model, grid, (x,), eps, h, n, seed)[0] for x in xs]
    assert laplace_functional(model, grid, xs, eps, h, n, seed) == want


@pytest.mark.parametrize(("steps", "dim"), [(1, 1), (4, 1), (64, 1), (32, 4), (4096, 3)])
def test_sub_block_rows_fit_the_byte_budget(steps, dim):
    rows = _sub_block_rows(TimeGrid(1.0, steps), dim)
    assert rows % 8 == 0 and 8 <= rows <= CHUNK
    path_bytes = 8 * (steps + 1) * dim
    assert rows == 8 or rows * path_bytes <= estimators._SUB_BLOCK_BYTES
    assert rows == CHUNK or (rows + 8) * path_bytes > estimators._SUB_BLOCK_BYTES


def _sub_block_cases():
    grid = TimeGrid(1.0, 8)
    near, far = constant_path(grid, 0.2), constant_path(grid, -0.5)
    linear = DriftSpec("linear", matrix=((-1.0, 0.5, 0.0), (0.2, -0.8, 0.1), (0.0, 0.3, -1.2)))
    return [
        # the auto-constant policy's tilt: a constant channel-0 control
        pytest.param(
            TranslatedBM(), grid, [(0.5, Ball(line_path(grid, 0.5, 0.6), 0.6), constant_control(grid, 0.6))],
            id="translated-is",
        ),
        pytest.param(
            TranslatedBM(), grid,
            [
                (0.0, UnionOfBalls(PathSet([near, far]), (0.5, 0.4)), None),
                (0.0, UnionOfBalls(PathSet([near, line_path(grid, 0.0, 0.6)]), (0.5, 0.3)), None),
            ],
            id="two-jobs-one-start",
        ),
        pytest.param(PerturbedBM(), grid, [(1.0, Ball(constant_path(grid, 1.2), 0.5), None)], id="perturbed"),
        pytest.param(
            GalerkinSPDE(modes=3, channels=3), grid,
            [(0.0, Ball(constant_path(grid, 0.2, 3), 1.0), constant_control(grid, 0.3, 3))],
            id="galerkin",
        ),
        pytest.param(
            FiniteSDE(dim=3, drift=linear), grid, [(0.1, Ball(constant_path(grid, 0.2, 3), 1.0), None)],
            id="linear-sde",
        ),
    ]


@pytest.mark.parametrize(("model", "grid", "jobs"), _sub_block_cases())
def test_sub_block_size_is_invisible_to_the_estimates(model, grid, jobs, monkeypatch):
    # the last block and its last 8-row sub-block are both partial
    eps, n, seed = 0.2, CHUNK + 13, 17
    h = CappedSetDistance(PathSet([constant_path(grid, 0.2, model.dim)]), 1.0, 0.5)
    xs = [x for x, _, _ in jobs]
    default = mc_probability(model, grid, eps, jobs, n, seed)
    laplace = laplace_functional(model, grid, xs, eps, h, n, seed)
    monkeypatch.setattr(estimators, "_SUB_BLOCK_BYTES", 0)
    assert _sub_block_rows(grid, model.dim) == 8
    assert mc_probability(model, grid, eps, jobs, n, seed) == default
    assert laplace_functional(model, grid, xs, eps, h, n, seed) == laplace
    assert all(0 < est.hit_count < n for est in default)


@pytest.mark.parametrize(("steps", "channels", "rows"), [(64, 1, 2016), (8, 3, 8), (5, 2, 1000)])
def test_girsanov_log_weights_of_row_slices_equal_those_of_the_whole_block(steps, channels, rows):
    grid = TimeGrid(1.0, steps)
    whole = _noise_block(grid, channels, 23, 4, CHUNK - 5)  # the last slice is partial
    tilt = Control(grid, np.random.default_rng(2).normal(size=(steps, channels)))
    want = _girsanov_log_weights(tilt, whole, 0.2)
    slices = [whole[lo : lo + rows] for lo in range(0, len(whole), rows)]
    assert np.array_equal(np.concatenate([_girsanov_log_weights(tilt, s, 0.2) for s in slices]), want)


def test_each_block_of_a_two_worker_estimate_is_drawn_once_whole(monkeypatch):
    drawn = []
    draw = estimators._noise_block

    def recorded(grid, channels, seed, block, size):
        drawn.append((block, size, threading.current_thread().name))
        return draw(grid, channels, seed, block, size)

    model, grid, n = TranslatedBM(), TimeGrid(1.0, 64), 2 * CHUNK + 100
    jobs = [(0.0, Ball(line_path(grid, 0.0, 0.5), 0.6), None), (0.5, TerminalAtLeast(0.7), None)]
    monkeypatch.setattr(estimators, "_WORKERS", 1)
    serial = mc_probability(model, grid, 0.2, jobs, n, 9)
    monkeypatch.setattr(estimators, "_WORKERS", 2)
    monkeypatch.setattr(estimators, "_noise_block", recorded)
    # the paths fill many sub-blocks per block, and none draws noise of its own
    assert _sub_block_rows(grid, model.dim) < CHUNK // 4
    assert mc_probability(model, grid, 0.2, jobs, n, 9) == serial
    assert sorted((block, size) for block, size, _ in drawn) == [(0, CHUNK), (1, CHUNK), (2, 100)]
    assert "MainThread" not in {name for _, _, name in drawn}


def test_an_estimate_inside_a_worker_runs_its_blocks_inline(monkeypatch):
    # the FW checker's batches run on the helper's threads; their blocks start no pool of their own
    seen = []
    draw = estimators._noise_block

    def counted(*args, **kwargs):
        seen.append((args[3], threading.current_thread().name, threading.active_count()))
        return draw(*args, **kwargs)

    monkeypatch.setattr(estimators, "_noise_block", counted)
    grid = TimeGrid(1.0, 8)
    base = threading.active_count()
    budgets = CheckBudgets(mc_samples=CHUNK + 8, level_count=2, s_levels=2, seed=3)
    fwuldp_gaps(BM, grid, IndexSetSample("pair", [(0.0,), (0.5,)]), 0.25, 0.4, EpsilonSchedule((0.2,)), budgets)
    assert {block for block, _, _ in seen} == {0, 1}
    assert len({name.rsplit("_", 1)[0] for _, name, _ in seen}) == 1  # one pool
    assert "MainThread" not in {name for _, name, _ in seen}
    assert max(count for _, _, count in seen) <= base + estimators._WORKERS


def test_a_failing_later_block_raises_what_the_serial_run_raises(monkeypatch):
    # block 1 blows up at step 6, block 2 at step 3; the serial run stops at block 1
    poison = {1: 6, 2: 3}
    draw = estimators._noise_block
    block_2_failing = threading.Event()

    def poisoned(grid, channels, seed, block, size):
        whole = draw(grid, channels, seed, block, size)
        if block in poison:
            whole[0, poison[block] - 1, 0] = np.inf
        if block == 1 and estimators._WORKERS > 1:
            # on two workers, block 2 runs once block 0 is done: let it fail first
            block_2_failing.wait(timeout=10)
            time.sleep(0.1)
        if block == 2:
            block_2_failing.set()
        return whole

    monkeypatch.setattr(estimators, "_noise_block", poisoned)
    model, grid, n = FiniteSDE(dim=1), TimeGrid(1.0, 8), 3 * CHUNK
    calls = {
        "mc": lambda: mc_probability(model, grid, 0.2, [(0.0, TerminalAtLeast(0.1), None)], n, 5),
        "laplace": lambda: laplace_functional(model, grid, [(0.0,)], 0.2, Constant(1.0), n, 5),
    }
    for call in calls.values():
        raised = []
        for workers in (1, 2):
            block_2_failing.clear()
            monkeypatch.setattr(estimators, "_WORKERS", workers)
            with pytest.raises(NumericalBlowupError) as exc:
                call()
            raised.append((type(exc.value), str(exc.value), exc.value.step))
        assert raised == [(NumericalBlowupError, "finite SDE state became non-finite at step 6", 6)] * 2
