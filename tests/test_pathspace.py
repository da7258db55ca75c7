import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uldplab import estimators
from uldplab.estimators import CHUNK, mc_probability
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
    # 41 grid points span every screening chunk; near_frac 0.97 keeps most
    # rows open after the first chunk (one full pass), 0.03 settles most
    # of them at t = 0 (gathered chunks to the end)
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
    # a nan radius or threshold would make every margin nan
    with pytest.raises(ValueError):
        UnionOfBalls(members, (1.0, math.nan, 1.0, 1.0))
    with pytest.raises(ValueError):
        DistanceAtLeast(members, math.nan)
    # paths off the event's grid are refused, not cut or broadcast
    for bad in (values[:, :-1], values[:, :33], np.concatenate([values, values[:, :1]], axis=1)):
        for event in events[:7]:
            with pytest.raises(ShapeMismatchError):
                event.hits(bad)


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
    # a lone job's balls are tested from one start, so it is screened
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
@pytest.mark.parametrize("setting", ["dyadic", "far"])
def test_extremes_flags_equal_margin_signs_near_the_edge(monkeypatch, model, tilted, nan_rows, setting):
    grid = TimeGrid(1.0, 64)
    eps = 0.1
    tilt = constant_control(grid, 0.75) if tilted else None
    if setting == "dyadic":
        # the dz sweep at m = 6: start 1/64 lies exactly 1/64 from the center of ball 5, of radius 1/64
        starts = [(s,) for s in DYADIC] + [(0.0,)]
        union = UnionOfBalls(PathSet([line_path(grid, s, 1.0) for s in DYADIC]), tuple(s / 2 for s in DYADIC))
        # rows from each start along its own ball, and from 1/64 along ball 5 after t = 0
        own = list(zip(starts, union.centers, union.radii)) + [(starts[5], union.centers.members[4], union.radii[4])]
    else:
        # starts at +-1e6, each ball on the slope-1 line from one start's effective start
        starts = [(-1e6,), (1e6,)]
        lines = [line_path(grid, float(model.effective_start(np.array(x), eps)[0]), 1.0) for x in starts]
        union = UnionOfBalls(PathSet(lines), (0.3, 0.3))
        own = list(zip(starts, union.centers, union.radii))
    inc = np.concatenate(
        [_edge_increments(model, grid, eps, tilt, x, c, r) for x, c, r in own]
        + [np.random.default_rng(3).standard_normal((200, grid.steps, 1)) * math.sqrt(grid.dt)]
    )
    if nan_rows:
        inc[[5, 60, 250], [0, 31, 63], 0] = np.nan
    jobs = [(x, union, tilt) for x in starts]
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
        margins = union.margins(simulate_batch(model, grid, x, eps, tilt, inc))
        assert np.array_equal(hits, margins > 0.0)
        seen_edge.append(np.abs(margins[near]) < 1e-12 * max(1.0, abs(x[0])))
    # the crafted rows do reach the edge of the ball they follow
    assert sum(map(np.count_nonzero, seen_edge)) >= 2 * len(own)
