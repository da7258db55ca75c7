"""Finite-sample checkers for five uniform large deviation definitions.

Each checker turns one definition into a family of measurable gap
quantities.  A gap compares an estimated log probability (or Laplace
functional) against the matching rate-side quantity so that the
definition predicts a sign in the small-noise limit: lower-bound gaps
should approach something >= 0, upper-bound gaps something <= 0, and
Laplace gaps should shrink to 0.  Reports keep every cell with its
provenance (estimates, rates, seeds) and attach a fitted trend plus a
coarse verdict.

Conventions
-----------
* Probabilities of events are always taken on the plain set; shrinking
  (eta > 0) and fattening (eta < 0) apply to the rate side only.
* Set infima of the rate function are estimated from level-set samples
  plus a deterministic pool of constant-slope controls; they are upper
  bounds of the true infimum.  An empty filter gives +inf and makes the
  corresponding bound vacuous: the gap is reported as +inf.
* A zero-hit probability keeps its -inf sentinel; a lower gap built
  from it is -inf, which is what the counterexamples predict.
* All sub-seeds are derived from the budget seed with stable hashing
  and never depend on the index point x, so index sets sharing a model
  family share their noise (common random numbers).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .estimators import (
    CappedDistance,
    CappedSetDistance,
    EpsilonSchedule,
    EquicontinuousFamily,
    LogProbEstimate,
    TestFunction,
    _laplace_batch,
    _probability_batch,
    _start_key,
)
from .models import Control, ProcessModel, _skeleton_stacks, constant_control, model_to_spec
from .pathspace import Ball, DistanceAtLeast, EventSpec, TimeGrid
from .rates import _inf_h_plus_I_starts, _level_sets, _pool_min, rate_candidates

__all__ = [
    "subseed",
    "IndexSetSample",
    "CheckBudgets",
    "CheckCell",
    "TrendInfo",
    "CheckReport",
    "event_rate_bound",
    "fwuldp_gaps",
    "dzuldp_gaps",
    "ulp_gap",
    "eulp_gap",
    "luldp_gaps",
    "make_families",
    "scenario",
    "gap_sum",
]


def subseed(seed: int, *tags) -> int:
    """Stable 63-bit sub-seed from a master seed and a tag tuple."""
    text = repr((int(seed),) + tuple(tags)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class IndexSetSample:
    """Finite stand-in for the index set of starting points.

    ``tag`` records the class of subsets of the state space the sample
    is meant to represent: "all-subsets", "bounded" (with ``radius``)
    or "compact".
    """

    label: str
    points: tuple
    tag: str = "bounded"
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in ("all-subsets", "bounded", "compact"):
            raise ValueError(f"unknown index-set tag {self.tag!r}")
        pts = tuple(tuple(float(v) for v in np.atleast_1d(p)) for p in self.points)
        if not pts:
            raise ValueError("index set sample must be nonempty")
        object.__setattr__(self, "points", pts)
        if self.tag == "bounded" and self.radius is None:
            r = max(max(abs(v) for v in p) for p in pts)
            object.__setattr__(self, "radius", float(r))


@dataclass(frozen=True)
class CheckBudgets:
    """Sampling budgets and estimator policy for one checker run."""

    mc_samples: int = 2000
    level_count: int = 24
    constant_pool: int = 16
    s_levels: int = 8
    seed: int = 0
    tilt: str = "none"  # "none" | "level-member" | "auto-constant"
    hold_threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.tilt not in ("none", "level-member", "auto-constant"):
            raise ValueError(f"unknown tilt policy {self.tilt!r}")
        for name, least in (("mc_samples", 1), ("level_count", 1), ("s_levels", 1), ("constant_pool", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if not 0 <= self.hold_threshold < math.inf:
            raise ValueError("hold_threshold must be nonnegative and finite")


@dataclass
class CheckCell:
    eps: float
    x: tuple[float, ...]
    extra: dict
    gap: float
    inputs: dict


@dataclass
class TrendInfo:
    slope: float
    verdict: str


@dataclass
class CheckReport:
    definition: str
    model: dict
    index_set: dict
    params: dict
    cells: list[CheckCell]
    aggregates: list[dict]
    trend: TrendInfo

    def to_json(self) -> dict:
        return _jsonable(
            {
                "definition": self.definition,
                "model": self.model,
                "A": self.index_set,
                "params": self.params,
                "cells": [
                    {"eps": c.eps, "x": c.x, "extra": c.extra, "gap": c.gap, "inputs": c.inputs}
                    for c in self.cells
                ],
                "aggregates": self.aggregates,
                "trend": {"slope": self.trend.slope, "verdict": self.trend.verdict},
            }
        )

    def save_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    def cells_csv(self) -> str:
        lines = ["definition,eps,x,extra,gap,phat,log_value,rate"]
        for c in self.cells:
            xs = ";".join(format(v, ".17g") for v in c.x)
            row = [
                self.definition,
                format(c.eps, ".17g"),
                xs,
                json.dumps(_jsonable(c.extra), separators=(",", ":")),
                _fmt_float(c.gap),
                _fmt_float(c.inputs.get("phat")),
                _fmt_float(c.inputs.get("log_value")),
                _fmt_float(c.inputs.get("rate")),
            ]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _fmt_float(v) -> str:
    return "" if v is None else format(float(v), ".17g")


def _jsonable(obj):
    """Recursively convert to JSON-safe values; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def gap_sum(log_prob: float, rate_side: float) -> float:
    """Combine a log-probability with a rate-side value.

    +inf on the rate side means the bound is vacuous and dominates; a
    -inf sentinel in the probability makes a lower gap -inf.
    """
    if math.isinf(rate_side) and rate_side > 0:
        return math.inf
    if math.isinf(log_prob) and log_prob < 0:
        return -math.inf
    return log_prob + rate_side


def _fit_slope(pairs: list[tuple[float, float]]) -> float:
    finite = [(e, g) for e, g in pairs if math.isfinite(g)]
    if len(finite) < 2:
        return math.nan
    e = np.array([p[0] for p in finite])
    g = np.array([p[1] for p in finite])
    return float(np.polyfit(e, g, 1)[0])


def _estimate_csv_inputs(est: LogProbEstimate) -> dict:
    return {
        "phat": est.p_hat,
        "log_value": est.log_value,
        "ci": [est.ci_low, est.ci_high],
        "hits": est.hit_count,
        "n": est.n,
        "ess": est.ess,
        "zero_hit": est.zero_hit,
        "seed": est.seed,
        "rule_of_three": est.p_rule_of_three,
    }


# ---------------------------------------------------------------------------
# tilt policies


def _auto_constant_tilt(grid: TimeGrid, channels: int, scan, event: EventSpec) -> Control | None:
    """Constant channel-0 control whose eps-skeleton best enters the event.

    Reads ``scan``, a 1-d grid of constants and their stacked
    eps-skeletons from one start, and keeps the margin maximizer (ties
    to the smaller |c|).  For ball-like events
    this lands on the center tilt; a centering tilt is still variance
    reducing even when the deterministic path stays outside the event.
    The scanned skeletons are scored by one margin call.
    """
    cs, paths = scan
    best: tuple[float, float] | None = None
    for c, margin in zip(cs.tolist(), event.margins(paths).tolist()):
        if best is None or margin > best[1] or (margin == best[1] and abs(c) < abs(best[0])):
            best = (c, margin)
    if best[0] == 0.0:
        return None
    return constant_control(grid, best[0], channels)


def _estimate_probabilities(
    model: ProcessModel,
    grid: TimeGrid,
    eps: float,
    jobs,
    budgets: CheckBudgets,
    seed: int,
    speed,
) -> list[LogProbEstimate]:
    """One estimate per (x, event, member tilt) job, all from the noise of one seed.

    Each job's tilt follows the budget policy; an absent or all-zero
    tilt means plain Monte Carlo.  The auto-constant scan's controls are
    built once per call, stepped from the distinct starts in one walk and
    scored against each job's event.
    """
    scans: dict = {}
    if budgets.tilt == "auto-constant":
        cs = np.linspace(-3.0, 3.0, 121)
        controls = [constant_control(grid, float(c), model.channels) for c in cs]
        starts = {_start_key(model, x): x for x, _, _ in jobs}
        scans = dict(zip(starts, _skeleton_stacks(model, grid, starts.values(), controls, eps)))
    resolved = []
    for x, event, member_tilt in jobs:
        tilt: Control | None = None
        if budgets.tilt == "level-member":
            tilt = member_tilt
        elif budgets.tilt == "auto-constant":
            tilt = _auto_constant_tilt(grid, model.channels, (cs, scans[_start_key(model, x)]), event)
        if tilt is not None and not np.any(tilt.values):
            tilt = None
        resolved.append((x, event, tilt))
    del scans  # so sampling's peak memory does not hold the scanned skeletons
    return _probability_batch(model, grid, eps, resolved, budgets.mc_samples, seed, speed)


# ---------------------------------------------------------------------------
# rate side of set bounds


def _membership_costs(margins: np.ndarray, eta: float, closed: bool) -> np.ndarray:
    """0 for a candidate in the eta-shrunk open (eta-fattened closed) set, +inf outside it."""
    inside = margins >= -eta if closed else margins > eta
    return np.where(inside, 0.0, math.inf)


def event_rate_bound(
    model: ProcessModel,
    grid: TimeGrid,
    x,
    event: EventSpec,
    s_max: float,
    count: int,
    seed: int,
    constant_pool: int = 16,
    eta: float = 0.0,
    closed: bool = False,
) -> tuple[float, int | None]:
    """Upper-bound estimate of inf { I_x(phi) : phi in the (shrunk) event }.

    Membership of a candidate is margin > eta (open sets) or
    margin >= -eta (closed sets, where eta fattens).  Returns +inf and
    None when no candidate qualifies.
    """
    energies, (paths,) = rate_candidates(model, grid, (x,), s_max, count, seed, constant_pool)
    return _pool_min(energies, _membership_costs(event.margins(paths), eta, closed))


# ---------------------------------------------------------------------------
# Freidlin-Wentzell style gaps


def fwuldp_gaps(
    model: ProcessModel,
    grid: TimeGrid,
    index_set: IndexSetSample,
    s0: float,
    delta: float,
    schedule: EpsilonSchedule,
    budgets: CheckBudgets,
) -> list[CheckReport]:
    """Lower and upper Freidlin-Wentzell gap reports.

    Lower cells: min over sampled level-set members phi of
    a(eps) log P(rho(X, phi) < delta) + I(phi); should stay above a
    small negative slack when the definition holds.  Upper cells: max
    over s in a grid of [0, s0] of
    a(eps) log P(dist(X, level set at s) >= delta) + s; should stay
    below a small positive slack.  Level-set seeds and Monte Carlo
    seeds never depend on x, so each level set is drawn once per call
    and walked from every start.
    """
    if not 0 <= s0 < math.inf or not 0 < delta < math.inf:
        raise ValueError("need s0 >= 0 and delta > 0, both finite")
    params = {"eps": list(schedule.eps), "delta": delta, "s0": s0, "budgets": asdict(budgets)}
    lower_cells: list[CheckCell] = []
    upper_cells: list[CheckCell] = []

    points = index_set.points
    samples = _level_sets(model, grid, points, s0, budgets.level_count, subseed(budgets.seed, "fw", "level", s0))
    s_grid = [s0 * k / (budgets.s_levels - 1) for k in range(budgets.s_levels)] if budgets.s_levels > 1 else [s0]
    upper_samples = [
        _level_sets(model, grid, points, s, budgets.level_count, subseed(budgets.seed, "fw", "upper-level", si))
        for si, s in enumerate(s_grid)
    ]

    for ei, eps in enumerate(schedule.eps):
        # one batch over the starts per member and per level: the seed is x-free
        member_rows: list[list[dict]] = [[] for _ in points]
        for k in range(len(samples[0])):
            jobs = [
                (pt, Ball(sample.paths.members[k], delta), sample.controls[k]) for pt, sample in zip(points, samples)
            ]
            ests = _estimate_probabilities(
                model, grid, eps, jobs, budgets, subseed(budgets.seed, "fw", "lower", ei, k), schedule.speed
            )
            for rows, sample, est in zip(member_rows, samples, ests):
                rows.append({"member": k, "rate": sample.energies[k], **_estimate_csv_inputs(est)})
        s_rows: list[list[dict]] = [[] for _ in points]
        for si, (s, level_samples) in enumerate(zip(s_grid, upper_samples)):
            jobs = [(pt, DistanceAtLeast(level.paths, delta), None) for pt, level in zip(points, level_samples)]
            ests = _estimate_probabilities(
                model, grid, eps, jobs, budgets, subseed(budgets.seed, "fw", "upper", ei, si), schedule.speed
            )
            for rows, est in zip(s_rows, ests):
                rows.append({"s": s, **_estimate_csv_inputs(est)})

        for pt, rows, levels in zip(points, member_rows, s_rows):
            lower_cells.append(_fw_cell(eps, pt, rows, min, "member", "rate", "members"))
            upper_cells.append(_fw_cell(eps, pt, levels, max, "s", "s", "levels"))

    return [
        _assemble(f"fwuldp-{kind}", model, index_set, params, cells, schedule, budgets, kind)
        for kind, cells in (("lower", lower_cells), ("upper", upper_cells))
    ]


def _fw_cell(eps: float, x, rows: list[dict], pick, label: str, rate_key: str, rows_key: str) -> CheckCell:
    """FW cell of the row that ``pick`` (min or max) takes by gap; all ``rows`` go under ``rows_key``."""
    best = pick(rows, key=lambda r: gap_sum(r["log_value"], r[rate_key]))
    return CheckCell(
        eps=eps,
        x=x,
        extra={label: best[label]},
        gap=gap_sum(best["log_value"], best[rate_key]),
        inputs={"phat": best["phat"], "log_value": best["log_value"], "rate": best[rate_key], rows_key: rows},
    )


# ---------------------------------------------------------------------------
# Dembo-Zeitouni style gaps


def dzuldp_gaps(
    model: ProcessModel,
    grid: TimeGrid,
    index_set: IndexSetSample,
    open_event: EventSpec | None,
    closed_event: EventSpec | None,
    schedule: EpsilonSchedule,
    budgets: CheckBudgets,
    s_max: float = 2.0,
) -> list[CheckReport]:
    """Gap reports for the open lower bound and the closed upper bound.

    Lower gap cells combine a(eps) log P(X in G) with sup over x of the
    estimated I_x(G); per-eps aggregates take the inf over x, matching
    liminf inf_x a log P >= -sup_x I_x(G).  Upper gap cells combine
    a(eps) log P(X in F) with inf over x of I_x(F), matching
    limsup sup_x a log P <= -inf_x I_x(F).  This is ``luldp_gaps`` at
    the single margin eta = 0, with its own seeds and no eta tags.
    """
    return _setwise_gaps(
        "dz", model, grid, [(index_set, open_event, closed_event)], (0.0,), schedule, budgets, s_max
    )[0]


# seed tag of each set-wise definition -> prefix of its report names
_SETWISE_NAMES = {"dz": "dzuldp", "lu": "luldp"}


def _setwise_plan(entries, slot: int):
    """The (x, event, no member tilt) jobs of every entry whose event ``entry[slot]`` is set.

    Returns the jobs and, per such entry, its index and the slice of
    the jobs that are its starts, in index-set order.
    """
    jobs: list = []
    spans = []
    for e, entry in enumerate(entries):
        if entry[slot] is not None:
            points = entry[0].points
            spans.append((e, slice(len(jobs), len(jobs) + len(points))))
            jobs.extend((pt, entry[slot], None) for pt in points)
    return jobs, spans


def _setwise_gaps(
    tag: str,
    model: ProcessModel,
    grid: TimeGrid,
    entries,
    etas: tuple[float, ...],
    schedule: EpsilonSchedule,
    budgets: CheckBudgets,
    s_max: float,
) -> list[list[CheckReport]]:
    """Set-wise lower and upper gap reports of each (index set, open event, closed event) entry.

    An entry's reports are what it would get on its own, lower before
    upper, with one block of cells per eta.  The rate side of the open
    (closed) event is shrunk (fattened) by eta; the probability side
    stays on the plain set, so each (eps, x) estimate is drawn once and
    shared by every eta, and each start's rate candidates are scored
    once per event and filtered per eta.  The seeds depend on neither
    the entry nor x, so for each (kind, eps) the jobs of every entry run
    as one batch on one noise stream, and one ``rate_candidates`` call
    steps the rate candidates from every distinct start of every entry.
    Nothing is kept past the call.  Only the "lu" definition records eta
    in its params and cells.
    """
    tags_eta = tag == "lu"
    reports: list[list[CheckReport]] = [[] for _ in entries]
    # one params dict per entry, shared by its reports: a sweep records its m there
    params = [
        {
            "eps": list(schedule.eps),
            **({"eta": list(etas)} if tags_eta else {}),
            "s_max": s_max,
            "budgets": asdict(budgets),
        }
        for _ in entries
    ]
    sides = [
        (kind, closed, side_key, side_of, *_setwise_plan(entries, slot))
        for kind, slot, closed, side_key, side_of in (
            ("lower", 1, False, "sup_rate", max),
            ("upper", 2, True, "inf_rate", min),
        )
    ]
    starts = {_start_key(model, pt): pt for *_, jobs, _ in sides for pt, _, _ in jobs}
    energies, stacks = rate_candidates(
        model, grid, list(starts.values()), s_max, budgets.level_count,
        subseed(budgets.seed, tag, "rate"), budgets.constant_pool,
    )
    pools = dict(zip(starts, stacks))  # start key -> its candidates' skeletons

    for kind, closed, side_key, side_of, jobs, spans in sides:
        if not jobs:
            continue
        estimates = [
            _estimate_probabilities(
                model, grid, eps, jobs, budgets, subseed(budgets.seed, tag, kind, ei), schedule.speed
            )
            for ei, eps in enumerate(schedule.eps)
        ]
        margins = [event.margins(pools[_start_key(model, pt)]) for pt, event, _ in jobs]
        for e, span in spans:
            points = entries[e][0].points
            cells = []
            for eta in etas:
                rates = [_pool_min(energies, _membership_costs(m, eta, closed))[0] for m in margins[span]]
                side = side_of(rates)
                for eps, row in zip(schedule.eps, estimates):
                    for pt, rate, est in zip(points, rates, row[span]):
                        cells.append(
                            CheckCell(
                                eps=eps,
                                x=pt,
                                extra={"eta": eta} if tags_eta else {},
                                gap=gap_sum(est.log_value, side),
                                inputs={
                                    "rate": rate,
                                    side_key: side,
                                    **_estimate_csv_inputs(est),
                                },
                            )
                        )
            reports[e].append(
                _assemble(
                    f"{_SETWISE_NAMES[tag]}-{kind}", model, entries[e][0], params[e], cells, schedule, budgets, kind
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Laplace principles


def ulp_gap(
    model: ProcessModel,
    grid: TimeGrid,
    index_set: IndexSetSample,
    h: TestFunction,
    schedule: EpsilonSchedule,
    budgets: CheckBudgets,
    s_max: float | None = None,
) -> CheckReport:
    """Signed Laplace gaps laplace + inf(h + I) per (eps, x).

    The uniform Laplace principle predicts the absolute value shrinks;
    cells keep the sign so counterexamples (gap bounded away below 0)
    stay visible.  ``s_max`` defaults to twice the bound of h.  This is
    ``eulp_gap`` over the one-member family {h}, with its own seeds and
    no member index.
    """
    s_hi = 2.0 * float(h.bound()) if s_max is None else s_max
    return _laplace_gaps("ulp", model, grid, index_set, (h,), {}, schedule, budgets, s_hi)


def eulp_gap(
    model: ProcessModel,
    grid: TimeGrid,
    index_set: IndexSetSample,
    family: EquicontinuousFamily,
    schedule: EpsilonSchedule,
    budgets: CheckBudgets,
    s_max: float | None = None,
) -> CheckReport:
    """Laplace gaps uniform over an equibounded equicontinuous family."""
    s_hi = 2.0 * family.bound if s_max is None else s_max
    described = {
        "family": {"size": len(family.members), "bound": family.bound, "lipschitz": family.lipschitz}
    }
    return _laplace_gaps("eulp", model, grid, index_set, family.members, described, schedule, budgets, s_hi)


def _laplace_gaps(
    tag: str,
    model: ProcessModel,
    grid: TimeGrid,
    index_set: IndexSetSample,
    members,
    described: dict,
    schedule: EpsilonSchedule,
    budgets: CheckBudgets,
    s_max: float,
) -> CheckReport:
    """Laplace gap cells laplace + inf(h + I) per (eps, x, member h), in that order.

    ``described`` joins the params after ``s_max``.  Each member's rate
    side is one search over the index set and each (eps, member) Laplace
    estimate one batch over it; no seed depends on x.  Only "eulp" tags
    seeds and cells with the member index, and only "ulp" records the
    sample size n in its cells.
    """
    per_member = tag == "eulp"
    marks = [(hi,) if per_member else () for hi in range(len(members))]  # each member's seed tail
    n_input = {} if per_member else {"n": budgets.mc_samples}
    points = index_set.points
    params = {"eps": list(schedule.eps), "s_max": s_max, **described, "budgets": asdict(budgets)}
    inf_vals = [
        _inf_h_plus_I_starts(
            model, grid, points, h, s_max, budgets.level_count,
            subseed(budgets.seed, tag, "inf", *mark), budgets.constant_pool,
        )
        for h, mark in zip(members, marks)
    ]
    cells = []
    for ei, eps in enumerate(schedule.eps):
        laps = [
            _laplace_batch(
                model, grid, eps, points, h, budgets.mc_samples,
                subseed(budgets.seed, tag, "laplace", ei, *mark), schedule.speed,
            )
            for h, mark in zip(members, marks)
        ]
        for pi, pt in enumerate(points):
            for hi, (by_start, infs) in enumerate(zip(laps, inf_vals)):
                lap, inf_val = by_start[pi], infs[pi][0]
                cells.append(
                    CheckCell(
                        eps=eps,
                        x=pt,
                        extra={"h": hi} if per_member else {},
                        gap=lap + inf_val,
                        inputs={"laplace": lap, "inf_h_plus_I": inf_val, **n_input},
                    )
                )
    return _assemble(tag, model, index_set, params, cells, schedule, budgets, "laplace")


# ---------------------------------------------------------------------------
# locally uniform (shrunk/fattened) gaps


def luldp_gaps(
    model: ProcessModel,
    grid: TimeGrid,
    index_set: IndexSetSample,
    open_event: EventSpec | None,
    closed_event: EventSpec | None,
    etas: tuple[float, ...],
    schedule: EpsilonSchedule,
    budgets: CheckBudgets,
    s_max: float = 2.0,
) -> list[CheckReport]:
    """Gap reports with eta-shrunk (lower) and eta-fattened (upper) rate sides.

    Probabilities are estimated on the plain sets; only the rate-side
    membership filter moves by eta.  Cells carry their eta in ``extra``.
    """
    if not all(0 < e < math.inf for e in etas):
        raise ValueError("etas must be positive and finite")
    return _setwise_gaps(
        "lu", model, grid, [(index_set, open_event, closed_event)], etas, schedule, budgets, s_max
    )[0]


# ---------------------------------------------------------------------------
# test-function families


def make_families(
    kind: str,
    j: float,
    delta: float,
    anchors,
) -> EquicontinuousFamily:
    """Equicontinuous family of capped-distance test functions.

    ``kind = "lower"``: one member per anchor path,
    psi -> j min(rho(psi, anchor)/delta, 1), declared modulus j/delta.
    ``kind = "upper"``: one member per anchor path set,
    psi -> j - j min(2 dist(psi, anchors)/delta, 1), declared modulus
    2 j/delta.
    """
    if not j >= 0 or not delta > 0:
        raise ValueError("need j >= 0 and delta > 0")
    if kind == "lower":
        members = tuple(CappedDistance(a, j, 2.0 * delta) for a in anchors)
        return EquicontinuousFamily(members, bound=j, lipschitz=j / delta)
    if kind == "upper":
        members = tuple(CappedSetDistance(a, j, delta, inverted=True) for a in anchors)
        return EquicontinuousFamily(members, bound=j, lipschitz=2.0 * j / delta)
    raise ValueError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# assembly


def _assemble(
    definition: str,
    model: ProcessModel,
    index_set: IndexSetSample,
    params: dict,
    cells: list[CheckCell],
    schedule: EpsilonSchedule,
    budgets: CheckBudgets,
    kind: str,
) -> CheckReport:
    aggregates = []
    pairs = []
    for eps in schedule.eps:
        rows = [c for c in cells if c.eps == eps]
        if not rows:
            continue
        gaps = [c.gap for c in rows]
        if kind == "lower":
            agg = min(gaps)
        elif kind == "upper":
            agg = max(gaps)
        else:  # laplace defect
            agg = max(abs(g) if math.isfinite(g) else math.inf for g in gaps)
        aggregates.append(
            {
                "eps": eps,
                "gap": agg,
                "min_gap": min(gaps),
                "max_gap": max(gaps),
                "sentinel_cells": sum(1 for g in gaps if math.isinf(g) and g < 0),
                "vacuous_cells": sum(1 for g in gaps if math.isinf(g) and g > 0),
            }
        )
        pairs.append((eps, agg))
    slope = _fit_slope(pairs)
    verdict = _verdict(kind, pairs, budgets.hold_threshold)
    return CheckReport(
        definition=definition,
        model=model_to_spec(model),
        index_set=asdict(index_set),
        params=params,
        cells=cells,
        aggregates=aggregates,
        trend=TrendInfo(slope=slope, verdict=verdict),
    )


def _verdict(kind: str, pairs: list[tuple[float, float]], threshold: float) -> str:
    if not pairs:
        return "inconclusive"
    gaps = [g for _, g in pairs]
    if kind == "lower":
        if any(math.isinf(g) and g < 0 for g in gaps):
            return "fails-sentinel"
        if all(math.isinf(g) and g > 0 for g in gaps):
            return "vacuous"
        return "holds-trend" if min(g for g in gaps if math.isfinite(g)) >= -threshold else "fails"
    if kind == "upper":
        if any(math.isinf(g) and g > 0 for g in gaps):
            return "vacuous"
        # a -inf cell (event below Monte Carlo resolution) satisfies the bound
        return "holds-trend" if max(gaps) <= threshold else "fails"
    # laplace: defect of the final (smallest) eps decides
    last = pairs[-1][1]
    if not math.isfinite(last):
        return "fails-sentinel"
    return "holds-trend" if last <= threshold else "fails"


def scenario(name: str, seed: int | None = None, out: str | None = None):
    """Run a pre-registered scenario by name; see ``uldplab.scenarios``."""
    from . import scenarios

    return scenarios.run(name, seed=seed, out=out)
