import hashlib
import json
import math

import numpy as np
import pytest

from uldplab import estimators, rates, scenarios
from uldplab.estimators import CHUNK, Constant, EpsilonSchedule
from uldplab.models import DriftSpec, FiniteSDE, NoiseSpec, TranslatedBM
from uldplab.pathspace import (
    Ball,
    DistanceAtLeast,
    PathSet,
    TimeGrid,
    UnionOfBalls,
    constant_path,
    line_path,
)
from uldplab.uldp import (
    CheckBudgets,
    IndexSetSample,
    _setwise_gaps,
    _verdict,
    dzuldp_gaps,
    eulp_gap,
    event_rate_bound,
    fwuldp_gaps,
    gap_sum,
    luldp_gaps,
    make_families,
    subseed,
    ulp_gap,
)


GRID = TimeGrid(1.0, 64)
BM = TranslatedBM()
TINY = CheckBudgets(mc_samples=300, level_count=6, s_levels=2, seed=0, hold_threshold=0.25)


def test_subseed_is_deterministic_and_tag_sensitive():
    a = subseed(7, "fw", "lower", 0, 1)
    assert a == subseed(7, "fw", "lower", 0, 1)
    assert a != subseed(7, "fw", "lower", 0, 2)
    assert a != subseed(8, "fw", "lower", 0, 1)
    assert 0 <= a < 2**63


def test_index_set_sample_validation():
    with pytest.raises(ValueError):
        IndexSetSample("bad", [(0.0,)], tag="open")
    with pytest.raises(ValueError):
        IndexSetSample("empty", [])
    s = IndexSetSample("pts", [(3.0,), (-4.0,)])
    assert s.tag == "bounded"
    assert s.radius == 4.0
    t = IndexSetSample("all", [(0.0,)], tag="all-subsets")
    assert t.radius is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("tilt", "gradient"),
        ("mc_samples", 0),
        ("level_count", 0),
        ("s_levels", 0),
        ("s_levels", -1),
        ("constant_pool", -1),
        ("hold_threshold", -0.1),
        ("hold_threshold", math.nan),
        ("hold_threshold", math.inf),
    ],
)
def test_budgets_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        CheckBudgets(**{field: value})


def test_gap_sum_sentinel_table():
    assert gap_sum(-0.3, 0.5) == pytest.approx(0.2)
    assert gap_sum(-math.inf, 0.5) == -math.inf
    assert gap_sum(-0.3, math.inf) == math.inf
    # a vacuous rate side dominates even a zero-hit probability
    assert gap_sum(-math.inf, math.inf) == math.inf


def test_event_rate_bound_finds_the_line_witness():
    event = Ball(line_path(GRID, 0.0, 1.0), 0.1)
    assert event_rate_bound(BM, GRID, [(0.0, event, False)], (0.0,), s_max=2.0, count=24, seed=3) == [[0.5]]


def test_event_rate_bound_eta_shrinks_open_sets():
    event = Ball(line_path(GRID, 0.0, 0.0), 0.5)
    (plain,), (shrunk,) = event_rate_bound(BM, GRID, [(0.0, event, False)], (0.0, 0.6), s_max=2.0, count=8, seed=1)
    assert plain == 0.0
    assert shrunk > 0.0


def test_event_rate_bound_eta_fattens_closed_sets():
    event = DistanceAtLeast(PathSet([line_path(GRID, 0.0, 0.0)]), 0.5)
    (far,), (fat,) = event_rate_bound(BM, GRID, [(0.0, event, True)], (0.1, 0.6), s_max=2.0, count=8, seed=1)
    assert far > 0.0
    assert fat == 0.0


def test_event_rate_bound_empty_event_is_vacuous():
    # nothing reachable from 0 sits 50 away at level 2
    event = DistanceAtLeast(PathSet([line_path(GRID, 0.0, 0.0)]), 50.0)
    assert event_rate_bound(BM, GRID, [(0.0, event, True)], (0.0,), s_max=2.0, count=16, seed=2) == [[math.inf]]


def test_escape_set_rate_is_exactly_the_pool_line():
    # members must climb to sup-distance 1.5 from the flat path; the
    # cheapest admissible path is the straight line, energy 1.5^2/2
    F = DistanceAtLeast(PathSet([line_path(GRID, 0.0, 0.0)]), 1.5)
    ((value,),) = event_rate_bound(
        BM, GRID, [(0.0, F, True)], (0.0,), s_max=2.0, count=24, seed=5, constant_pool=16
    )
    assert value == 1.125


@pytest.mark.parametrize(
    "model", [BM, FiniteSDE(dim=2, drift=DriftSpec(name="scaled-sine"))], ids=lambda m: m.name
)
def test_event_rate_bound_batch_equals_each_one_job_call_bit_for_bit(model):
    # open and closed jobs at two starts (one repeated), read at two etas
    grid = TimeGrid(1.0, 16)
    near = constant_path(grid, 0.3, model.dim)
    jobs = [
        (0.0, Ball(near, 0.6), False),
        (0.5, Ball(near, 0.6), False),
        (0.0, DistanceAtLeast(PathSet([near]), 0.7), True),
        (0.5, UnionOfBalls(PathSet([near, constant_path(grid, -0.4, model.dim)]), (0.2, 0.4)), True),
    ]
    etas = (0.05, 0.3)
    batch = event_rate_bound(model, grid, jobs, etas, s_max=2.0, count=12, seed=7, constant_pool=4)
    assert len(batch) == len(etas) and all(len(values) == len(jobs) for values in batch)
    for j, job in enumerate(jobs):
        for e, eta in enumerate(etas):
            ((alone,),) = event_rate_bound(model, grid, [job], (eta,), s_max=2.0, count=12, seed=7, constant_pool=4)
            assert np.float64(batch[e][j]).tobytes() == np.float64(alone).tobytes()
    assert any(math.isfinite(v) and v > 0 for values in batch for v in values)


def test_escape_upper_bound_holds_at_desk_scale():
    F = DistanceAtLeast(PathSet([line_path(GRID, 0.0, 0.0)]), 1.5)
    budgets = CheckBudgets(mc_samples=2000, level_count=24, seed=11, hold_threshold=0.25)
    (report,) = dzuldp_gaps(
        BM,
        GRID,
        IndexSetSample("origin", [(0.0,)]),
        None,
        F,
        EpsilonSchedule((0.25,)),
        budgets,
        s_max=2.0,
    )
    assert report.definition == "dzuldp-upper"
    assert report.trend.verdict == "holds-trend"
    assert report.cells[0].inputs["inf_rate"] == 1.125
    assert report.cells[0].gap <= 0.25


def test_dyadic_ball_union_is_unreachable_from_the_closure_point():
    # balls around lines from 2^-n with radii 2^-(n-1+2): starts differ
    # by 2^-n > radius, so from 0 no finite-rate path enters the union
    centers = PathSet([line_path(GRID, 2.0**-n, 1.0) for n in range(1, 7)])
    radii = tuple(2.0 ** -(n + 1) for n in range(1, 7))
    G = UnionOfBalls(centers, radii)
    # while an interior start reaches its own ball along the slope-one line
    ((from_zero, from_member),) = event_rate_bound(
        BM, GRID, [(0.0, G, False), (2.0**-3, G, False)], (0.0,), s_max=2.0, count=24, seed=4
    )
    assert from_zero == math.inf
    assert from_member == 0.5


def test_make_families_constants():
    anchors = [line_path(GRID, 0.0, 0.0), line_path(GRID, 0.0, 1.0)]
    fam = make_families("lower", 2.0, 0.5, anchors)
    assert len(fam.members) == 2
    assert fam.bound == 2.0
    assert fam.lipschitz == 4.0
    for m in fam.members:
        assert m.lipschitz() == pytest.approx(fam.lipschitz)
    up = make_families("upper", 1.0, 0.25, [PathSet(anchors)])
    assert up.lipschitz == 8.0
    with pytest.raises(ValueError):
        make_families("sideways", 1.0, 0.5, anchors)
    for j, delta in ((-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, 0.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="need j >= 0 and delta > 0"):
            make_families("lower", j, delta, anchors)


def test_verdict_branches():
    th = 0.25
    assert _verdict("lower", [], th) == "inconclusive"
    assert _verdict("lower", [(0.1, -0.1), (0.05, -0.2)], th) == "holds-trend"
    assert _verdict("lower", [(0.1, -0.5)], th) == "fails"
    assert _verdict("lower", [(0.1, -math.inf)], th) == "fails-sentinel"
    assert _verdict("lower", [(0.1, math.inf), (0.05, math.inf)], th) == "vacuous"
    assert _verdict("upper", [(0.1, 0.1), (0.05, -math.inf)], th) == "holds-trend"
    assert _verdict("upper", [(0.1, 0.5)], th) == "fails"
    assert _verdict("upper", [(0.1, math.inf)], th) == "vacuous"
    assert _verdict("laplace", [(0.1, 0.4), (0.05, 0.2)], th) == "holds-trend"
    assert _verdict("laplace", [(0.1, 0.1), (0.05, 0.4)], th) == "fails"
    assert _verdict("laplace", [(0.1, math.inf)], th) == "fails-sentinel"


def test_fwuldp_report_schema(tmp_path):
    lower, upper = fwuldp_gaps(
        BM,
        GRID,
        IndexSetSample("origin", [(0.0,)]),
        s0=0.25,
        delta=0.4,
        schedule=EpsilonSchedule((0.2, 0.1)),
        budgets=TINY,
    )
    doc = lower.to_json()
    assert set(doc) == {"definition", "model", "A", "params", "cells", "aggregates", "trend"}
    assert doc["definition"] == "fwuldp-lower"
    assert len(doc["cells"]) == 2
    assert {"eps", "gap", "min_gap", "max_gap", "sentinel_cells", "vacuous_cells"} <= set(
        doc["aggregates"][0]
    )
    out = tmp_path / "report.json"
    lower.save_json(str(out))
    assert json.loads(out.read_text())["definition"] == "fwuldp-lower"
    csv = upper.cells_csv()
    assert csv.splitlines()[0] == "definition,eps,x,extra,gap,phat,log_value,rate"
    assert len(csv.splitlines()) == 1 + len(upper.cells)


def test_fwuldp_rejects_bad_params():
    for s0, delta in ((0.25, 0.0), (math.nan, 0.4), (math.inf, 0.4), (0.25, math.nan), (0.25, math.inf)):
        with pytest.raises(ValueError, match="need s0 >= 0 and delta > 0"):
            fwuldp_gaps(
                BM,
                GRID,
                IndexSetSample("origin", [(0.0,)]),
                s0=s0,
                delta=delta,
                schedule=EpsilonSchedule((0.2,)),
                budgets=TINY,
            )


def test_fwuldp_report_bytes_are_pinned(tmp_path):
    # the auto-constant tilt on a stepped model, with a repeated start
    model = FiniteSDE(dim=2, drift=DriftSpec("scaled-sine"), noise=NoiseSpec("diagonal-bounded"))
    starts = IndexSetSample("repeat", [(0.0, 0.0), (0.5, -0.5), (0.0, 0.0)])
    budgets = CheckBudgets(mc_samples=300, level_count=5, s_levels=2, seed=0, tilt="auto-constant")
    reports = fwuldp_gaps(model, TimeGrid(1.0, 16), starts, 0.5, 0.4, EpsilonSchedule((0.2, 0.1)), budgets)
    digests = {}
    for report in reports:
        out = tmp_path / f"{report.definition}.json"
        report.save_json(str(out))
        digests[report.definition] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == {
        "fwuldp-lower": "da44eaafa6581ecf662038f1d0f46861608e17d6267f8d56b2899d4d099bc05d",
        "fwuldp-upper": "6902c76e91e40956bd3e83f7cf341d90bb969de641235cadf2a929e629ab9874",
    }


def test_fw_outputs_do_not_depend_on_the_worker_count(monkeypatch, pinned_run, tmp_path):
    # the reports of the pinned-bytes test above and a pinned FW scenario
    model = FiniteSDE(dim=2, drift=DriftSpec("scaled-sine"), noise=NoiseSpec("diagonal-bounded"))
    starts = IndexSetSample("repeat", [(0.0, 0.0), (0.5, -0.5), (0.0, 0.0)])
    budgets = CheckBudgets(mc_samples=300, level_count=5, s_levels=2, seed=0, tilt="auto-constant")

    def outputs(tag, scenario):
        reports = fwuldp_gaps(model, TimeGrid(1.0, 16), starts, 0.5, 0.4, EpsilonSchedule((0.2, 0.1)), budgets)
        paths = [tmp_path / f"{tag}-{report.definition}.json" for report in reports]
        for report, path in zip(reports, paths):
            report.save_json(str(path))
        paths.append(tmp_path / f"{tag}-scenario.json")
        scenario.save_json(str(paths[-1]))
        return [path.read_bytes() for path in paths]

    default = outputs("default", pinned_run("bm-fwuldp-holds"))
    monkeypatch.setattr(estimators, "_WORKERS", 1)
    assert outputs("one", scenarios.run("bm-fwuldp-holds")) == default


def test_set_wise_and_laplace_outputs_do_not_depend_on_the_worker_count(monkeypatch, pinned_run, tmp_path):
    # each dz-lower-bounded estimate has 13 blocks and each Laplace value below 3; the
    # 6 one-block LU estimates and the 3 one-block ULP estimates run side by side
    fam = make_families("lower", 0.5, 0.4, [line_path(GRID, 0.0, 0.0), line_path(GRID, 1.0, 0.5)])
    budgets = CheckBudgets(mc_samples=2 * CHUNK + 100, level_count=6, s_levels=2, seed=0, hold_threshold=0.25)
    names = ("dz-lower-bounded", "y-luldp-holds", "ulp-counter")

    def outputs(tag, run):
        report = eulp_gap(BM, GRID, IndexSetSample("pair", [(0.0,), (1.0,)]), fam, EpsilonSchedule((0.2,)), budgets)
        paths = [tmp_path / f"{tag}-eulp.json"] + [tmp_path / f"{tag}-{name}.json" for name in names]
        report.save_json(str(paths[0]))
        for name, path in zip(names, paths[1:]):
            run(name).save_json(str(path))
        return [path.read_bytes() for path in paths]

    default = outputs("default", pinned_run)
    monkeypatch.setattr(estimators, "_WORKERS", 1)
    assert outputs("one", scenarios.run) == default


def test_fwuldp_draws_each_level_set_once(monkeypatch):
    # one draw for the lower sample and one per s-level, whatever the number of starts
    calls = []
    draw = rates._level_set_controls

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(rates, "_level_set_controls", counted)
    fwuldp_gaps(
        BM, GRID, IndexSetSample("three", [(0.0,), (1.0,), (-1.0,)]), 0.5, 0.4, EpsilonSchedule((0.2,)), TINY
    )
    assert len(calls) == 1 + TINY.s_levels


def test_translation_identity_across_starts():
    # same substreams + start-last addition: gap cells repeat across x
    lower, upper = fwuldp_gaps(
        BM,
        GRID,
        IndexSetSample("spread", [(-5.0,), (0.0,), (5.0,)], tag="all-subsets"),
        s0=0.25,
        delta=0.4,
        schedule=EpsilonSchedule((0.2, 0.1)),
        budgets=TINY,
    )
    for report in (lower, upper):
        for eps in (0.2, 0.1):
            gaps = [c.gap for c in report.cells if c.eps == eps]
            assert len(gaps) == 3
            assert gaps[0] == gaps[1] == gaps[2]


def test_ulp_gap_of_zero_functional_is_exactly_zero():
    report = ulp_gap(
        BM,
        GRID,
        IndexSetSample("origin", [(0.0,)]),
        Constant(0.0),
        EpsilonSchedule((0.2, 0.1)),
        TINY,
        s_max=1.0,
    )
    assert all(c.gap == 0.0 for c in report.cells)
    assert report.trend.verdict == "holds-trend"


def test_eulp_cells_enumerate_family_members():
    fam = make_families("lower", 0.5, 0.5, [line_path(GRID, 0.0, 0.0)])
    report = eulp_gap(
        BM,
        GRID,
        IndexSetSample("origin", [(0.0,)]),
        fam,
        EpsilonSchedule((0.2,)),
        TINY,
    )
    assert len(report.cells) == 1
    assert report.cells[0].extra == {"h": 0}
    assert math.isfinite(report.cells[0].gap)


def test_eulp_report_bytes_are_pinned(tmp_path):
    # two starts and two members, each member with its own rate and Laplace seeds
    fam = make_families("lower", 0.5, 0.4, [line_path(GRID, 0.0, 0.0), line_path(GRID, 1.0, 0.5)])
    report = eulp_gap(
        BM, GRID, IndexSetSample("pair", [(0.0,), (1.0,)]), fam, EpsilonSchedule((0.2, 0.1)), TINY
    )
    out = tmp_path / "eulp.json"
    report.save_json(str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "38b8ea938d0931e3c9b4c642118154b4e0852cb1d7ba0ce801f3c600978c7253"
    )


def test_luldp_requires_positive_etas_and_tags_cells():
    bad_etas = [((0.2, bad), "etas must be positive and finite") for bad in (0.0, math.nan, math.inf)]
    for etas, message in bad_etas + [((), "etas must be nonempty")]:
        with pytest.raises(ValueError, match=message):
            luldp_gaps(
                BM,
                GRID,
                IndexSetSample("origin", [(0.0,)]),
                Ball(line_path(GRID, 0.0, 0.0), 0.5),
                None,
                etas=etas,
                schedule=EpsilonSchedule((0.2,)),
                budgets=TINY,
            )
    (report,) = luldp_gaps(
        BM,
        GRID,
        IndexSetSample("origin", [(0.0,)]),
        Ball(line_path(GRID, 0.0, 0.0), 0.5),
        None,
        etas=(0.2, 0.1),
        schedule=EpsilonSchedule((0.2,)),
        budgets=TINY,
    )
    assert [c.extra["eta"] for c in report.cells] == [0.2, 0.1]
    # the probability side is on the plain set: one estimate per (eps, x), shared by every eta
    first, second = report.cells
    for key in ("seed", "phat", "hits"):
        assert first.inputs[key] == second.inputs[key]


def test_sentinel_cells_serialize_as_strings():
    # an event far beyond Monte Carlo resolution: zero hits, -inf gaps
    far = DistanceAtLeast(PathSet([line_path(GRID, 0.0, 0.0)]), 60.0)
    (report,) = dzuldp_gaps(
        BM,
        GRID,
        IndexSetSample("origin", [(0.0,)]),
        None,
        far,
        EpsilonSchedule((0.1,)),
        CheckBudgets(mc_samples=50, level_count=4, seed=0),
        s_max=2.0,
    )
    doc = report.to_json()
    assert doc["cells"][0]["gap"] == "inf"  # vacuous: nothing reachable at level 2
    text = json.dumps(doc)
    assert "Infinity" not in text


@pytest.mark.parametrize("tag", ["dz", "lu"])
def test_sweep_batched_reports_equal_the_per_entry_reports(tag):
    # one set-wise call over a nested sweep: every entry shares the noise
    # blocks, tilt scans and rate pools of its starts, and must still get
    # exactly the reports it gets from its own checker call
    grid = TimeGrid(1.0, 16)
    schedule = EpsilonSchedule((0.2, 0.1))
    budgets = CheckBudgets(
        mc_samples=CHUNK + 17, level_count=6, constant_pool=4, seed=3, tilt="auto-constant"
    )
    etas = (0.0,) if tag == "dz" else (0.2, 0.1)
    entries = []
    for slope, m in ((1.0, 1), (1.0, 2), (1.0, 3), (0.5, 3)):
        starts = [2.0**-n for n in range(1, m + 1)]
        centers = PathSet([line_path(grid, s, slope) for s in starts])
        open_event = UnionOfBalls(centers, tuple(2.0**-n for n in range(1, m + 1)))
        closed_event = None if m == 2 else DistanceAtLeast(centers, 0.4)
        points = [(s,) for s in starts] + [(starts[-1],)]  # the last start twice
        entries.append((IndexSetSample(f"{slope}-m{m}", points), open_event, closed_event))

    batched = _setwise_gaps(tag, BM, grid, entries, etas, schedule, budgets, 1.0)
    for entry, reports in zip(entries, batched):
        if tag == "dz":
            alone = dzuldp_gaps(BM, grid, *entry, schedule, budgets, s_max=1.0)
        else:
            alone = luldp_gaps(BM, grid, *entry, etas, schedule, budgets, s_max=1.0)
        assert [r.to_json() for r in reports] == [r.to_json() for r in alone]

    # the sweep exercises what it is meant to: hits that differ by start, and
    # two tilt groups (slope-1 and slope-0.5 centers) with different weights
    lower = {(r.index_set["label"], c.eps, c.x): c.inputs for (r, *_) in batched for c in r.cells}
    assert lower[("1.0-m3", 0.1, (0.5,))]["hits"] != lower[("1.0-m3", 0.1, (0.125,))]["hits"]
    assert min(v["hits"] for v in lower.values()) > 0
    assert lower[("1.0-m3", 0.1, (0.5,))]["ess"] != lower[("0.5-m3", 0.1, (0.5,))]["ess"]
