import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uldplab import estimators
from uldplab.estimators import CHUNK, CappedSetDistance, MinOverCenters, mc_probability
from uldplab.models import FiniteSDE, PerturbedBM, SwappedBM, TranslatedBM, constant_control, simulate_batch
from uldplab.pathspace import (
    Ball,
    DiscretePath,
    DistanceAtLeast,
    Intersection,
    PathSet,
    ShapeMismatchError,
    TerminalAtLeast,
    TimeGrid,
    UnionOfBalls,
    _dist_batch,
    _norms_along_dim,
    _point_norms,
    constant_path,
    hausdorff,
    line_path,
    sup_metric,
)


def test_grid_dyadic_dt_is_exact():
    grid = TimeGrid(1.0, 64)
    assert grid.dt == 2.0**-6
    assert grid.times[-1] == 1.0
    assert grid.times[32] == 0.5


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 8)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_grid_refuses_a_step_count_that_is_not_an_integer():
    # 2.5 steps of dt = 0.4 would give the times 0, 0.4, 0.8, 1.2: past the horizon
    for steps in (2.5, 4.0, "4", None):
        with pytest.raises(ValueError, match="steps"):
            TimeGrid(1.0, steps)
    grid = TimeGrid(1.0, np.int64(4))
    assert grid == TimeGrid(1.0, 4)
    assert grid.times[-1] == 1.0


def test_line_path_values():
    grid = TimeGrid(1.0, 4)
    p = line_path(grid, 2.0, -1.0)
    assert p.values[:, 0] == pytest.approx([2.0, 1.75, 1.5, 1.25, 1.0])
    assert p.initial()[0] == 2.0
    assert p.terminal()[0] == 1.0


def test_translate_shifts_every_coordinate():
    grid = TimeGrid(1.0, 8)
    p = line_path(grid, 0.0, 1.0)
    q = p.translate(3.0)
    assert sup_metric(p, q) == 3.0


def test_sup_metric_mismatched_grids_raise():
    a = line_path(TimeGrid(1.0, 8), 0.0, 1.0)
    b = line_path(TimeGrid(1.0, 16), 0.0, 1.0)
    with pytest.raises(ShapeMismatchError):
        sup_metric(a, b)


def test_csv_round_trip(tmp_path):
    grid = TimeGrid(1.0, 16)
    p = line_path(grid, 0.25, 0.5)
    f = tmp_path / "p.csv"
    p.save_csv(str(f))
    q = DiscretePath.from_csv(str(f))
    assert q.grid == grid
    assert np.array_equal(p.values, q.values)
    # ragged rows are refused, naming the first bad line (the header is line 1)
    two = "t,x0,x1\n0,1,2\n0.5,1,2\n1,1,2\n"
    assert DiscretePath.from_csv(two).dim == 2
    for text, line in [
        ("t,x0,x1\n0,1,2\n0.5,1\n1,1,2,3\n", 3),
        ("t,x0,x1\n0,1,2\n0.5,1,2\n1,1,2,3\n", 4),
        ("t,x0\n0,1,2\n0.5,1\n1,1\n", 2),
        ("t,x0\n0,1\n\n1,1\n", 3),
    ]:
        with pytest.raises(ShapeMismatchError, match=f"CSV line {line} "):
            DiscretePath.from_csv(text)


def test_hausdorff_of_translated_sets_is_the_shift():
    grid = TimeGrid(1.0, 8)
    base = [line_path(grid, 0.0, s) for s in (0.0, 0.5, 1.0)]
    shifted = [p.translate(0.75) for p in base]
    assert hausdorff(PathSet(base), PathSet(shifted)) == 0.75


def test_hausdorff_symmetry_and_identity():
    grid = TimeGrid(1.0, 8)
    a = PathSet([line_path(grid, 0.0, 1.0), constant_path(grid, 2.0)])
    b = PathSet([constant_path(grid, -1.0)])
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == hausdorff(b, a)


def test_ball_margin_sign_matches_distance():
    grid = TimeGrid(1.0, 8)
    center = line_path(grid, 0.0, 1.0)
    ball = Ball(center, 0.5)
    inside = center.translate(0.25)
    outside = center.translate(0.75)
    assert ball.margin(inside) == pytest.approx(0.25)
    assert ball.margin(outside) == pytest.approx(-0.25)


def test_union_of_balls_takes_best_margin():
    grid = TimeGrid(1.0, 8)
    centers = PathSet([constant_path(grid, 0.0), constant_path(grid, 2.0)])
    ev = UnionOfBalls(centers, (0.5, 0.25))
    probe = constant_path(grid, 1.9)
    assert ev.margin(probe) == pytest.approx(0.25 - 0.1)


def test_dyadic_union_margin_at_a_center_is_its_radius():
    # slope-one lines from dyadic starts with 4^-n radii; probing the
    # second center lands exactly on it, so the margin is 4^-2, exactly
    grid = TimeGrid(1.0, 64)
    centers = PathSet([line_path(grid, 2.0**-n, 1.0) for n in (1, 2)])
    ev = UnionOfBalls(centers, (4.0**-1, 4.0**-2))
    assert ev.margin(line_path(grid, 0.25, 1.0)) == 0.0625


def test_distance_at_least_margin():
    grid = TimeGrid(1.0, 8)
    targets = PathSet([constant_path(grid, 0.0)])
    ev = DistanceAtLeast(targets, 1.0)
    assert ev.margin(constant_path(grid, 1.5)) == pytest.approx(0.5)
    assert ev.margin(constant_path(grid, 0.5)) == pytest.approx(-0.5)
    # the distance to a set is the one to its nearest member
    two = DistanceAtLeast(PathSet([constant_path(grid, 0.0), constant_path(grid, 5.0)]), 0.0)
    assert two.margin(constant_path(grid, 4.0)) == 1.0


def test_terminal_events():
    grid = TimeGrid(1.0, 8)
    up = line_path(grid, 0.0, 2.0)
    assert TerminalAtLeast(1.5).margin(up) > 0.0
    assert not TerminalAtLeast(2.5).margin(up) > 0.0


@pytest.mark.parametrize("coordinate", [-1, 1.0, 0.5, "0", None])
def test_terminal_coordinate_must_be_an_integer_at_least_zero(coordinate):
    with pytest.raises(ValueError, match="coordinate"):
        TerminalAtLeast(0.5, coordinate=coordinate)


def test_terminal_coordinate_beyond_the_paths_raises_shape_mismatch():
    grid = TimeGrid(1.0, 4)
    scalar = np.zeros((2, grid.steps + 1, 1))
    for coordinate in (1, 5):
        event = TerminalAtLeast(0.5, coordinate=coordinate)
        with pytest.raises(ShapeMismatchError, match=f"coordinate {coordinate}"):
            event.margins(scalar)
        with pytest.raises(ShapeMismatchError):
            event.hits(scalar)
        assert event.bands(grid) is None
    # in range it reads its own coordinate at T; bands stay those of coordinate 0 only
    values = np.arange(2 * (grid.steps + 1) * 3, dtype=float).reshape(2, grid.steps + 1, 3)
    assert np.array_equal(TerminalAtLeast(0.5, coordinate=2).margins(values), values[:, -1, 2] - 0.5)
    assert TerminalAtLeast(0.5, coordinate=np.int64(0)).bands(grid) is not None


def _extreme_points(d):
    """Rows of d coordinates from 1e-300 to 1e300, with nan, inf and -0.0 rows mixed in."""
    rng = np.random.default_rng(d)
    points = rng.standard_normal((600, d)) * 10.0 ** rng.integers(-300, 301, (600, d))
    points[::7, 0] = np.nan
    points[::11, -1] = np.inf
    points[::13, d // 2] = -np.inf
    points[::17] = -0.0
    points[::19, 0] = -0.0
    points[::23] = 1e300  # every square overflows
    points[::29] = 1e-300  # every square underflows
    return points


@pytest.mark.parametrize("d", range(2, 8))
def test_point_norm_column_adds_are_the_sum_bitwise(d):
    points = _extreme_points(d)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = np.sqrt(np.sum(points * points, axis=-1))
        got = _point_norms(points)
        stacked = _point_norms(points.reshape(30, 20, d))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(stacked.view(np.int64), want.reshape(30, 20).view(np.int64))
    assert np.isnan(got).any() and np.isinf(got).any() and (got == 0.0).any()


@pytest.mark.parametrize("d, sums", [(1, 0), (2, 0), (7, 0), (8, 1), (16, 1)])
def test_point_norms_keep_the_sum_from_eight_columns_and_the_absolute_value_at_one(monkeypatch, d, sums):
    points = np.random.default_rng(d).standard_normal((50, d))
    want = np.abs(points[:, 0]) if d == 1 else np.sqrt(np.sum(points * points, axis=-1))
    calls = []
    total = np.sum

    def counting(*args, **kwargs):
        calls.append(1)
        return total(*args, **kwargs)

    monkeypatch.setattr(np, "sum", counting)
    assert np.array_equal(_point_norms(points), want)
    assert len(calls) == sums


def test_intersection_margin_is_the_least_part():
    grid = TimeGrid(1.0, 8)
    a = TerminalAtLeast(1.0)
    b = TerminalAtLeast(3.0)
    p = line_path(grid, 0.0, 2.0)
    assert Intersection((a, b)).margin(p) == pytest.approx(-1.0)


def test_eta_membership_shrinks_open_sets():
    grid = TimeGrid(1.0, 8)
    ball = Ball(constant_path(grid, 0.0), 1.0)
    probe = constant_path(grid, 0.85)
    # the eta-shrunk set is margin > eta
    assert ball.margin(probe) > 0.0
    assert not ball.margin(probe) > 0.2


@st.composite
def _path_values(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    vals = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    return n, vals


@given(_path_values(), st.floats(min_value=-20, max_value=20, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_sup_metric_translation_invariance(nv, shift):
    n, vals = nv
    grid = TimeGrid(1.0, n)
    a = DiscretePath(grid, np.array(vals).reshape(-1, 1))
    b = constant_path(grid, 0.0) if n else None
    b = DiscretePath(grid, np.zeros((n + 1, 1)))
    d0 = sup_metric(a, b)
    d1 = sup_metric(a.translate(shift), b.translate(shift))
    assert d1 == pytest.approx(d0, rel=1e-12, abs=1e-12)


@given(_path_values(), _path_values())
@settings(max_examples=60, deadline=None)
def test_sup_metric_symmetry_and_triangle_through_zero(av, bv):
    na, avals = av
    nb, bvals = bv
    n = min(na, nb)
    grid = TimeGrid(1.0, n)
    a = DiscretePath(grid, np.array(avals[: n + 1]).reshape(-1, 1))
    b = DiscretePath(grid, np.array(bvals[: n + 1]).reshape(-1, 1))
    zero = DiscretePath(grid, np.zeros((n + 1, 1)))
    assert sup_metric(a, b) == sup_metric(b, a)
    assert sup_metric(a, b) <= sup_metric(a, zero) + sup_metric(zero, b) + 1e-12


@given(st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_ball_margin_equals_radius_minus_distance(radius, offset):
    grid = TimeGrid(1.0, 8)
    center = constant_path(grid, 0.0)
    probe = constant_path(grid, offset)
    m = Ball(center, radius).margin(probe)
    assert m == pytest.approx(radius - abs(offset), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 3])
def test_member_margins_equal_the_reference_formula_bitwise(dim):
    rng = np.random.default_rng(7)
    grid = TimeGrid(1.0, 16)
    values = rng.standard_normal((300, grid.steps + 1, dim))
    members = PathSet([DiscretePath(grid, rng.standard_normal((grid.steps + 1, dim))) for _ in range(5)])
    radii = (0.5, 1.5, 2.0, 2.5, 3.0)
    dists = [_norms_along_dim(values - m) for m in members.stack]
    union = np.max([r - d for r, d in zip(radii, dists)], axis=0)
    nearest = np.min(dists, axis=0)
    assert np.array_equal(UnionOfBalls(members, radii).margins(values), union)
    assert np.array_equal(_dist_batch(values, members), nearest)
    assert np.array_equal(DistanceAtLeast(members, 1.25).margins(values), nearest - 1.25)
    assert np.array_equal(Ball(members.members[2], 1.5).margins(values), 1.5 - dists[2])
    # a stacked call scores each row as a one-row call would (tilt scan, rate pool)
    for event in (UnionOfBalls(members, radii), DistanceAtLeast(members, 1.25), Ball(members.members[2], 1.5)):
        assert np.array_equal(event.margins(values), [event.margins(v[None])[0] for v in values])


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("near_frac", [0.97, 0.03])
def test_event_hits_equal_margin_signs_bitwise(dim, near_frac):
    # near_frac 0.97 keeps most rows open after t = 0 (they take their
    # whole distance), 0.03 settles most of them at the first column
    rng = np.random.default_rng(11)
    grid = TimeGrid(1.0, 40)
    # members on the 1/64 lattice, so member + 1.5 e1 - member is exactly 1.5
    members = PathSet(
        [
            DiscretePath(grid, 4.0 * k + np.round(32 * rng.standard_normal((grid.steps + 1, dim))) / 64)
            for k in range(4)
        ]
    )
    count = 600
    values = members.stack[rng.integers(len(members), size=count)]
    values = values + 0.35 * rng.standard_normal(values.shape)
    values[rng.random(count) >= near_frac] += 50.0
    e1 = np.eye(dim)[0]
    special = members.stack[[0, 0, 0, 0, 0]].copy()
    special[0, 20] += 1.5 * e1  # sup distance to member 0 is exactly 1.5
    special[1, 30] += 1.25 * e1  # ... exactly 1.25
    special[2, 35, -1] = np.nan
    special[3, 35, 0] = np.inf
    special[4, 0] += 50.0  # far from every member at t = 0, nan later
    special[4, 38, 0] = np.nan
    values = np.concatenate([values, special])
    events = [
        Ball(members.members[0], 1.5),
        Ball(members.members[2], 1.0),
        UnionOfBalls(members, (1.5, 1.25, 0.75, 1.0)),
        UnionOfBalls(members, (1.25,) * 4),
        DistanceAtLeast(members, 1.25),
        DistanceAtLeast(members, 1.5),
        DistanceAtLeast(members, 0.0),
        TerminalAtLeast(3.0),
        Intersection((Ball(members.members[1], 1.5), TerminalAtLeast(3.0))),
    ]
    for event in events:
        got = event.hits(values)
        assert got.dtype == bool
        assert np.array_equal(got, event.margins(values) > 0.0)
        assert np.array_equal(event.hits(values[:0]), np.zeros(0, dtype=bool))
    assert events[0].hits(special).tolist() == [False, True, False, False, False]
    assert events[4].hits(special).tolist() == [True, False, False, True, False]
    near = np.array([events[0].hits(values).sum(), events[4].hits(values).sum()])
    assert (0 < near).all() and (near < len(values)).all()
    # a nan radius, threshold or level would make every margin nan
    with pytest.raises(ValueError):
        UnionOfBalls(members, (1.0, math.nan, 1.0, 1.0))
    with pytest.raises(ValueError):
        DistanceAtLeast(members, math.nan)
    with pytest.raises(ValueError, match="level"):
        TerminalAtLeast(math.nan)
    # paths off the event's grid are refused, not cut or broadcast, by every
    # distance reader alike; one grid column would broadcast across the grid
    readers = [event.hits for event in events[:7]] + [event.margins for event in events[:7]] + [
        CappedSetDistance(members, 1.0, 0.5).batch,
        MinOverCenters(members, (1.0, 2.0, 4.0, 8.0), 1.0).batch,
    ]
    for bad in (values[:, :-1], values[:, :33], values[:, :1], np.concatenate([values, values[:, :1]], axis=1)):
        for read in readers:
            with pytest.raises(ShapeMismatchError):
                read(bad)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2]),
    steps=st.integers(1, 40),
)
def test_ball_walks_equal_margin_signs_bitwise(seed, dim, steps):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, steps)
    centers = [DiscretePath(grid, rng.standard_normal((steps + 1, dim))) for _ in range(3)]
    # ball 2 has the center of ball 0 at another radius
    balls = [(centers[0], 0.6), (centers[1], 1.2), (centers[0], 1.8), (centers[2], 1.0)]

    def union(picks):
        return UnionOfBalls(PathSet([balls[i][0] for i in picks]), tuple(balls[i][1] for i in picks))

    count = 200
    values = np.stack([c.values for c in centers])[rng.integers(3, size=count)]
    values = values + rng.uniform(0.0, 1.5, size=(count, 1, 1)) * rng.standard_normal(values.shape)
    for row in rng.choice(count, size=10, replace=False):
        values[row, rng.integers(steps + 1), rng.integers(dim)] = np.nan
    events = [
        Ball(*balls[0]),
        union([0, 1]),
        union([0, 1, 2]),
        union([0, 1, 2, 3]),
        union([3, 2, 1, 0]),
        union([2, 1]),
        Ball(*balls[2]),
        DistanceAtLeast(PathSet(centers), 1.0),
        DistanceAtLeast(PathSet([centers[1], centers[1], centers[0]]), 0.8),  # a repeated target
    ]
    for event in events:
        got = event.hits(values)
        assert got.dtype == bool
        assert np.array_equal(got, event.margins(values) > 0.0)


def test_probability_batch_of_ball_unions_equals_each_job_alone():
    # a stepped family screens its balls from paths; the translated family decides shared ones from extremes
    grid = TimeGrid(1.0, 16)
    model = FiniteSDE()
    starts = [(0.0,), (0.5,)]
    balls = [(line_path(grid, 0.0, 1.0), 0.5), (line_path(grid, 0.5, 1.0), 0.25), (line_path(grid, 0.0, 0.0), 0.4)]
    unions = [
        UnionOfBalls(PathSet([c for c, _ in balls[:k]]), tuple(r for _, r in balls[:k])) for k in (1, 2, 3)
    ]
    jobs = [(x, event, None) for x in starts for event in unions]
    n = CHUNK + 100  # two blocks
    alone = [mc_probability(model, grid, 0.1, [job], n, 5)[0] for job in jobs]
    assert mc_probability(model, grid, 0.1, jobs, n, 5) == alone


def test_probability_batch_forms_extremes_once_per_shape_sub_block_and_tilt(monkeypatch):
    grid = TimeGrid(1.0, 16)
    model = TranslatedBM()
    starts = [(0.25,), (0.5,)]
    # two shapes: slope-1 lines and constants, each ball tested from both starts
    lines = UnionOfBalls(PathSet([line_path(grid, s, 1.0) for (s,) in starts]), (0.3, 0.2))
    flats = UnionOfBalls(PathSet([constant_path(grid, s) for (s,) in starts]), (0.4, 0.4))
    tilt = constant_control(grid, 0.5)
    jobs = [(x, event, t) for t in (None, tilt) for x in starts for event in (lines, flats)]
    n = CHUNK + 100  # two blocks
    alone = [mc_probability(model, grid, 0.1, [job], n, 5)[0] for job in jobs]
    formed = []
    extremes = estimators._shape_extremes

    def counting(core, shape, buf):
        # (sub-block size, tilt group, shape)
        formed.append((len(core), core[0, -1, 0], shape.tobytes()))
        return extremes(core, shape, buf)

    monkeypatch.setattr(estimators, "_shape_extremes", counting)
    monkeypatch.setattr(estimators, "_SUB_BLOCK_BYTES", CHUNK // 2 * (grid.steps + 1) * 8)
    assert mc_probability(model, grid, 0.1, jobs, n, 5) == alone
    # 3 sub-blocks (2 + 1) x 2 tilt groups x 2 shapes, however many starts and balls read them
    assert len(formed) == 3 * 2 * 2
    assert len(set(formed)) == len(formed)


def _edge_increments(model, grid, eps, tilt, x, center, radius, spread=12):
    """Increments of paths from x that follow ``center`` and end a few ulps inside or outside the ball's edge."""
    x_e = float(model.effective_start(model._as_state(x), eps)[0])
    c = center.values[:, 0]
    integral = simulate_batch(TranslatedBM(), grid, 0.0, 0.0, tilt, np.zeros((1, grid.steps, 1)))[0, :, 0]
    step = 4 * np.spacing(max(abs(x_e), float(np.abs(c).max()), 1.0))
    rows = []
    for edge in (radius, -radius):
        for k in range(-spread, spread + 1):
            core = c - x_e
            core[-1] += edge + k * step
            w = (core - integral) / math.sqrt(eps)
            w[0] = 0.0
            rows.append(np.diff(w))
    return np.array(rows)[:, :, None]


DYADIC = [2.0**-k for k in range(1, 7)]


@pytest.mark.parametrize("model", [TranslatedBM(), PerturbedBM(), SwappedBM()], ids=lambda m: m.name)
@pytest.mark.parametrize("tilted", [False, True], ids=["plain", "constant-tilt"])
@pytest.mark.parametrize("nan_rows", [False, True], ids=["finite", "nan-rows"])
@pytest.mark.parametrize("setting", ["dyadic", "far", "one-start"])
def test_extremes_flags_equal_margin_signs_near_the_edge(monkeypatch, model, tilted, nan_rows, setting):
    grid = TimeGrid(1.0, 64)
    eps = 0.1
    tilt = constant_control(grid, 0.75) if tilted else None
    if setting == "dyadic":
        # the dz sweep at m = 6: start 1/64 lies exactly 1/64 from the center of ball 5, of radius 1/64
        starts = [(s,) for s in DYADIC] + [(0.0,)]
        event = UnionOfBalls(PathSet([line_path(grid, s, 1.0) for s in DYADIC]), tuple(s / 2 for s in DYADIC))
        # rows from each start along its own ball, and from 1/64 along ball 5 after t = 0
        own = list(zip(starts, event.centers, event.radii)) + [(starts[5], event.centers.members[4], event.radii[4])]
    elif setting == "far":
        # starts at +-1e6, each ball on the slope-1 line from one start's effective start
        starts = [(-1e6,), (1e6,)]
        lines = [line_path(grid, float(model.effective_start(np.array(x), eps)[0]), 1.0) for x in starts]
        event = UnionOfBalls(PathSet(lines), (0.3, 0.3))
        own = list(zip(starts, event.centers, event.radii))
    else:
        # a lone ball tested from its own far start, as the FW checker's level-set members are
        starts = [(1e6,)]
        event = Ball(line_path(grid, float(model.effective_start(np.array(starts[0]), eps)[0]), 1.0), 0.3)
        own = [(starts[0], event.center, event.radius)]
    inc = np.concatenate(
        [_edge_increments(model, grid, eps, tilt, x, c, r) for x, c, r in own]
        + [np.random.default_rng(3).standard_normal((200, grid.steps, 1)) * math.sqrt(grid.dt)]
    )
    if nan_rows:
        inc[[5, 60, min(250, len(inc) - 1)], [0, 31, 63], 0] = np.nan
    jobs = [(x, event, tilt) for x in starts]
    assert set(estimators._extremes_plan(model, grid, jobs)[0]) == set(range(len(jobs)))
    monkeypatch.setattr(estimators, "_noise_block", lambda grid, channels, seed, block, size: inc[:size])
    got = []
    finish = estimators._finish_estimate

    def recording(**kw):
        got.append(kw["hits"].copy())
        return finish(**kw)

    monkeypatch.setattr(estimators, "_finish_estimate", recording)
    mc_probability(model, grid, eps, jobs, len(inc), 1)
    near = slice(0, len(inc) - 200)
    seen_edge = []
    for (x, _, _), hits in zip(jobs, got):
        margins = event.margins(simulate_batch(model, grid, x, eps, tilt, inc))
        assert np.array_equal(hits, margins > 0.0)
        seen_edge.append(np.abs(margins[near]) < 1e-12 * max(1.0, abs(x[0])))
    # the crafted rows do reach the edge of the ball they follow
    assert sum(map(np.count_nonzero, seen_edge)) >= 2 * len(own)


def test_ball_is_the_union_of_one_ball():
    grid = TimeGrid(1.0, 8)
    center = line_path(grid, 0.0, 0.5)
    ball = Ball(center, 0.6)
    assert isinstance(ball, UnionOfBalls)
    assert ball.centers.members == [center] and ball.radii == (0.6,)
    assert ball.center is center and ball.radius == 0.6
    with pytest.raises(AttributeError):
        ball.radius = 1.0
    with pytest.raises(ValueError):
        Ball(center, 0.0)
    # one membership code: the ball inherits the union's margins and hits
    assert Ball.margins is UnionOfBalls.margins and Ball.hits is UnionOfBalls.hits


def test_bands_are_the_tubes_of_balls_terminals_and_their_intersections():
    grid = TimeGrid(1.0, 4)
    line, flat = line_path(grid, 0.0, 0.5), constant_path(grid, 0.3)
    c = line.values[:, 0]
    lo, hi = Ball(line, 0.6).bands(grid)
    assert lo.shape == hi.shape == (1, 5)
    assert lo[0].tolist() == (c - 0.6).tolist() and hi[0].tolist() == (c + 0.6).tolist()
    lo, hi = UnionOfBalls(PathSet([line, flat]), (0.6, 0.2)).bands(grid)
    assert lo.tolist() == [(c - 0.6).tolist(), [0.3 - 0.2] * 5]
    assert hi.tolist() == [(c + 0.6).tolist(), [0.3 + 0.2] * 5]
    lo, hi = TerminalAtLeast(0.7).bands(grid)
    assert lo.tolist() == [[-math.inf] * 4 + [0.7]] and hi.tolist() == [[math.inf] * 5]
    lo, hi = Intersection((Ball(line, 0.6), TerminalAtLeast(2.0), Ball(flat, 0.5))).bands(grid)
    assert lo.tolist() == [[max(a - 0.6, 0.3 - 0.5) for a in c[:4]] + [2.0]]
    assert hi.tolist() == [[min(a + 0.6, 0.3 + 0.5) for a in c]]
    # events that are not tubes of a scalar path
    two = UnionOfBalls(PathSet([line, flat]), (0.6, 0.2))
    for event in (
        Ball(constant_path(grid, 0.0, 2), 1.0),
        DistanceAtLeast(PathSet([line]), 0.4),
        TerminalAtLeast(0.7, coordinate=1),
        Intersection((Ball(line, 0.6), DistanceAtLeast(PathSet([line]), 0.4))),
        Intersection((TerminalAtLeast(0.7), two)),
    ):
        assert event.bands(grid) is None
    # a center on another grid is refused, as by the ball's hits
    other = TimeGrid(1.0, 8)
    for event in (Ball(line, 0.6), Intersection((TerminalAtLeast(0.7), Ball(line, 0.6)))):
        with pytest.raises(ShapeMismatchError):
            event.bands(other)


@pytest.mark.parametrize("seed", range(6))
def test_inside_some_tube_everywhere_equals_hits_away_from_the_edges(seed):
    # c -+ r rounds, so a row on or within a rounding of a tube's edge can
    # disagree with |v - c| < r; rows are kept only if every point is at
    # least 8 ulps of |c| + r from every edge, and many are placed 16-64 such
    # ulps inside or outside one
    rng = np.random.default_rng(seed)
    steps, k, count = int(rng.integers(1, 40)), int(rng.integers(1, 5)), 2000
    grid = TimeGrid(1.0, steps)
    centers = rng.standard_normal((k, steps + 1)).cumsum(axis=1)
    radii = tuple(rng.uniform(0.2, 1.5, size=k))
    event = UnionOfBalls(PathSet([DiscretePath(grid, c) for c in centers]), radii)
    lo, hi = event.bands(grid)
    ulp = np.spacing(np.abs(centers) + np.array(radii)[:, None])
    pick = rng.integers(k, size=count)
    values = centers[pick] + rng.uniform(0.0, 1.6, size=(count, 1)) * rng.uniform(-1.0, 1.0, (count, steps + 1))
    for _ in range(2 * count):
        row, t, j = rng.integers(count), rng.integers(steps + 1), rng.integers(k)
        edge = (lo, hi)[rng.integers(2)][j, t]
        values[row, t] = edge + rng.choice((-1.0, 1.0)) * rng.uniform(16.0, 64.0) * ulp[j, t]
    gap = 8 * ulp[:, None]
    keep = ((np.abs(values[None] - lo[:, None]) > gap) & (np.abs(values[None] - hi[:, None]) > gap)).all(axis=(0, 2))
    inside = ((values[None] > lo[:, None]) & (values[None] < hi[:, None])).all(axis=2).any(axis=0)
    hits = event.hits(values[..., None])
    assert np.array_equal(inside[keep], hits[keep])
    assert keep.sum() > count // 2 and 0 < hits[keep].sum() < keep.sum()
