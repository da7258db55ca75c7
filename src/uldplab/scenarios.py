"""Pre-registered experiment configurations with pinned seeds.

Each scenario is a JSON file under ``uldplab/configs`` naming a model,
a time grid, a finite index-set surrogate, an epsilon schedule, sampling
budgets and an ``expected`` block of qualitative claims.  Running a
scenario produces the gap reports plus a list of named pass/fail checks
against the expected block, so the counterexample constructions double
as regression tests.

The index sets and event families here are finite surrogates for the
quantified objects in the definitions (all starts in an unbounded set,
all open sets, and so on); reports label them as such via the index-set
tag and the pinned parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .estimators import EpsilonSchedule, MinOverCenters
from .models import model_from_spec
from .pathspace import PathSet, TimeGrid, UnionOfBalls, _write_json, constant_path, line_path
from .uldp import (
    CheckBudgets,
    CheckReport,
    IndexSetSample,
    _jsonable,
    _setwise_gaps,
    fwuldp_gaps,
    luldp_gaps,
    ulp_gap,
)

__all__ = ["SCENARIO_NAMES", "ScenarioCheck", "ScenarioResult", "load_config", "run"]

SCENARIO_NAMES = (
    "bm-fwuldp-holds",
    "y-fwuldp-fails",
    "y-luldp-holds",
    "ulp-counter",
    "dz-lower-unbounded",
    "dz-lower-bounded",
    "dz-hausdorff-discontinuity",
    "spde-fwuldp",
)


@dataclass
class ScenarioCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class ScenarioResult:
    name: str
    seed: int
    operation: str
    reports: list[CheckReport]
    summary: dict
    checks: list[ScenarioCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "operation": self.operation,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
            "summary": _jsonable(self.summary),
            "reports": [r.to_json() for r in self.reports],
        }

    def save_json(self, path: str) -> None:
        _write_json(path, self.to_json())


def load_config(name: str) -> dict:
    if name not in SCENARIO_NAMES:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}")
    text = resources.files("uldplab").joinpath(f"configs/{name}.json").read_text()
    return json.loads(text)


def run(name: str, seed: int | None = None, out: str | None = None) -> ScenarioResult:
    cfg = load_config(name)
    if seed is not None:
        cfg = {**cfg, "seed": int(seed)}
    builder = _BUILDERS[cfg["operation"]]
    result = builder(cfg)
    if out is not None:
        result.save_json(out)
    return result


# ---------------------------------------------------------------------------
# shared plumbing


def _setting(cfg: dict):
    """The model, time grid, eps schedule, budgets and ``params`` block of a scenario config."""
    grid = TimeGrid(float(cfg.get("horizon", 1.0)), int(cfg["steps"]))
    schedule = EpsilonSchedule(tuple(float(e) for e in cfg["eps"]))
    budgets = CheckBudgets(**{**cfg.get("budgets", {}), "seed": int(cfg["seed"])})
    return model_from_spec(cfg["model"]), grid, schedule, budgets, cfg["params"]


def _index(cfg: dict) -> IndexSetSample:
    a = cfg["index_set"]
    return IndexSetSample(
        label=a["label"],
        points=tuple(tuple(float(v) for v in p) for p in a["points"]),
        tag=a.get("tag", "bounded"),
        radius=a.get("radius"),
    )


def _by_tag(reports: list[CheckReport], tag: str) -> CheckReport:
    for r in reports:
        if r.definition == tag:
            return r
    raise KeyError(f"no report with tag {tag!r}")


def _final_eps(report: CheckReport) -> float:
    return report.aggregates[-1]["eps"]


def _bound(name: str, what: str, got: float, limit: float, floor: bool = False) -> ScenarioCheck:
    """The check ``got >= limit`` (a floor) or ``got <= limit`` (a cap): "<what> <got> vs floor|cap <limit>"."""
    passed = got >= limit if floor else got <= limit
    return ScenarioCheck(name, passed, f"{what} {got:.4g} vs {'floor' if floor else 'cap'} {limit}")


def _verdict_checks(reports: list[CheckReport], expected: dict) -> list[ScenarioCheck]:
    out = []
    for tag, want in expected.get("verdicts", {}).items():
        rep = _by_tag(reports, tag)
        got = rep.trend.verdict
        out.append(ScenarioCheck(f"verdict:{tag}", got == want, f"got {got!r}, want {want!r}"))
    return out


def _cell_key(cell) -> str:
    """Cell serialization with the start x stripped, for cross-x comparison."""
    payload = {"eps": cell.eps, "extra": cell.extra, "gap": cell.gap, "inputs": cell.inputs}
    return json.dumps(_jsonable(payload), sort_keys=True)


def _translation_identical(reports: list[CheckReport]) -> tuple[bool, str]:
    for rep in reports:
        groups: dict = {}
        for cell in rep.cells:
            groups.setdefault(cell.eps, []).append(cell)
        for eps, cells in groups.items():
            keys = {_cell_key(c) for c in cells}
            if len(keys) != 1:
                return False, f"{rep.definition}: cells differ across x at eps={eps:g}"
    return True, "all gap cells identical across starts"


# ---------------------------------------------------------------------------
# builders


def _run_fwuldp(cfg: dict) -> ScenarioResult:
    model, grid, sched, budgets, p = _setting(cfg)
    reports = fwuldp_gaps(model, grid, _index(cfg), float(p["s0"]), float(p["delta"]), sched, budgets)
    lower = _by_tag(reports, "fwuldp-lower")
    upper = _by_tag(reports, "fwuldp-upper")
    summary = {
        "final_eps": _final_eps(lower),
        "lower": {"verdict": lower.trend.verdict, "final_gap": lower.aggregates[-1]["gap"]},
        "upper": {"verdict": upper.trend.verdict, "final_gap": upper.aggregates[-1]["gap"]},
    }
    exp = cfg.get("expected", {})
    checks = _verdict_checks(reports, exp)
    if exp.get("cells_translation_identical"):
        ok, detail = _translation_identical(reports)
        checks.append(ScenarioCheck("cells-translation-identical", ok, detail))
    if "lower_sentinel_zero_hits" in exp:
        want_n = int(exp["lower_sentinel_zero_hits"]["n"])
        rows = [m for c in lower.cells for m in c.inputs["members"]]
        ok = bool(rows) and all(m["hits"] == 0 and m["n"] == want_n for m in rows)
        detail = f"{len(rows)} member estimates, all 0 hits out of {want_n}" if ok else (
            "some member estimate had hits > 0 or a different sample count"
        )
        checks.append(ScenarioCheck("lower-sentinel-zero-hits", ok, detail))
    if "lower_final_min_ge" in exp:
        checks.append(
            _bound(
                "lower-final-min", "final lower gap", summary["lower"]["final_gap"],
                float(exp["lower_final_min_ge"]), floor=True,
            )
        )
    if "upper_final_max_le" in exp:
        checks.append(
            _bound(
                "upper-final-max", "final upper gap", summary["upper"]["final_gap"], float(exp["upper_final_max_le"])
            )
        )
    return ScenarioResult(cfg["name"], int(cfg["seed"]), cfg["operation"], reports, summary, checks)


def _sweep_starts(rule: str, m: int) -> list[float]:
    if rule == "dyadic":
        return [2.0**-n for n in range(1, m + 1)]
    if rule == "integer":
        return [float(n) for n in range(1, m + 1)]
    raise ValueError(f"unknown start rule {rule!r}")


def _run_dz_sweep(cfg: dict) -> ScenarioResult:
    """Lower-bound gap sweep over truncations of a shrinking-ball union.

    The open set is a union of sup-norm balls around slope-1 lines from
    the sampled starts with geometrically shrinking radii; the sweep
    grows the truncation level m and records how the worst estimated
    log probability drops while the rate side stays put.

    Every m is one entry of a single set-wise checker call.  Its seeds
    depend on neither m nor the start, so each eps draws every noise
    block once for all m, each start's tilt scan and rate candidates are
    stepped once, and each m's report equals what ``dzuldp_gaps`` gives
    that m alone.  Sampling memory is one block plus one bit per sample
    per (m, start) job.
    """
    model, grid, sched, budgets, p = _setting(cfg)
    rule = p["start_rule"]
    slope = float(p.get("slope", 1.0))
    rbase = float(p["radius"]["base"])
    roff = int(p["radius"]["offset"])
    s_max = float(p.get("s_max", 1.0))
    include_zero = bool(p.get("include_zero", False))
    m_values = [int(v) for v in (p.get("m_values") or [p["m"]])]
    tag = cfg["index_set"].get("tag", "bounded")
    label = cfg["index_set"]["label"]

    entries = []
    for m in m_values:
        starts = _sweep_starts(rule, m)
        centers = PathSet([line_path(grid, s, slope) for s in starts])
        radii = tuple(rbase ** -(n + roff) for n in range(1, m + 1))
        points = [[s] for s in starts] + ([[0.0]] if include_zero else [])
        aset = IndexSetSample(label=f"{label}-m{m}", points=tuple(tuple(q) for q in points), tag=tag)
        entries.append((aset, UnionOfBalls(centers, radii), None))
    swept = _setwise_gaps("dz", model, grid, entries, (0.0,), sched, budgets, s_max)

    reports: list[CheckReport] = []
    rows: list[dict] = []
    for m, (_, event, _), (rep,) in zip(m_values, entries, swept):
        rep.params["m"] = m
        rep.params["radii"] = list(event.radii)
        reports.append(rep)
        cells = [c for c in rep.cells if c.eps == sched.eps[-1]]
        rows.append(
            {
                "m": m,
                "inf_log": min(c.inputs["log_value"] for c in cells),
                "sup_rate": max(c.inputs["rate"] for c in cells),
                "sentinels": sum(1 for c in cells if c.inputs["zero_hit"]),
                "verdict": rep.trend.verdict,
            }
        )
    summary = {"sweep": rows, "eps": list(sched.eps)}
    exp = cfg.get("expected", {})
    checks: list[ScenarioCheck] = []
    if "sup_rate_le" in exp:
        worst = max(r["sup_rate"] for r in rows)
        checks.append(_bound("sup-rate", "max over m of sup_x rate", worst, float(exp["sup_rate_le"])))
    if "drop_ge" in exp:
        need = float(exp["drop_ge"])
        first, last = rows[0]["inf_log"], rows[-1]["inf_log"]
        ok = last <= first - need
        checks.append(
            ScenarioCheck(
                "inf-log-drop",
                ok,
                f"inf log went {first:.4g} -> {last:.4g} over m {rows[0]['m']} -> {rows[-1]['m']}",
            )
        )
    if "final_verdict" in exp:
        got = rows[-1]["verdict"]
        want = exp["final_verdict"]
        checks.append(ScenarioCheck("final-verdict", got == want, f"got {got!r}, want {want!r}"))
    if exp.get("swap_cell_finite"):
        cells = [c for c in reports[-1].cells if c.x == (0.0,)]
        ok = bool(cells) and all(math.isfinite(c.inputs["log_value"]) for c in cells)
        checks.append(
            ScenarioCheck(
                "swap-cell-finite",
                ok,
                "x = 0 cells have finite log probability" if ok else "x = 0 cell missing or -inf",
            )
        )
    return ScenarioResult(cfg["name"], int(cfg["seed"]), cfg["operation"], reports, summary, checks)


def _run_ulp(cfg: dict) -> ScenarioResult:
    model, grid, sched, budgets, p = _setting(cfg)
    j = float(p["j"])
    m = int(p["m"])
    wbase = float(p.get("weight_base", 2.0))
    centers = PathSet([line_path(grid, float(n), 1.0) for n in range(1, m + 1)])
    weights = tuple(wbase**n for n in range(1, m + 1))
    h = MinOverCenters(centers, weights, cap=j)
    s_max = float(p["s_max"]) if "s_max" in p else None
    report = ulp_gap(model, grid, _index(cfg), h, sched, budgets, s_max=s_max)
    final_cells = [c for c in report.cells if c.eps == sched.eps[-1]]
    min_signed = min(c.gap for c in final_cells)
    summary = {
        "final_eps": sched.eps[-1],
        "final_min_signed_gap": min_signed,
        "final_defect": report.aggregates[-1]["gap"],
        "verdict": report.trend.verdict,
    }
    exp = cfg.get("expected", {})
    checks = _verdict_checks([report], exp)
    if "final_min_gap_le" in exp:
        what = f"min signed gap at eps={sched.eps[-1]:g} is"
        checks.append(_bound("final-min-gap", what, min_signed, float(exp["final_min_gap_le"])))
    return ScenarioResult(cfg["name"], int(cfg["seed"]), cfg["operation"], [report], summary, checks)


def _run_luldp(cfg: dict) -> ScenarioResult:
    model, grid, sched, budgets, p = _setting(cfg)
    aset = _index(cfg)
    radius = float(p["radius"])
    etas = tuple(float(e) for e in p["etas"])
    s_max = float(p.get("s_max", 2.0))
    centers = PathSet([constant_path(grid, pt[0]) for pt in aset.points])
    event = UnionOfBalls(centers, (radius,) * len(aset.points))
    reports = luldp_gaps(model, grid, aset, event, None, etas, sched, budgets, s_max=s_max)
    lower = reports[0]
    per_eta = {
        eta: min(c.gap for c in lower.cells if c.extra.get("eta") == eta) for eta in etas
    }
    summary = {
        "radius": radius,
        "etas": list(etas),
        "min_gap_by_eta": per_eta,
        "verdict": lower.trend.verdict,
    }
    exp = cfg.get("expected", {})
    checks = _verdict_checks(reports, exp)
    if "lower_min_ge" in exp:
        eta = float(exp["lower_min_ge"]["eta"])
        got = per_eta[eta]
        check = _bound(
            "lower-min-at-eta", f"min gap over cells at eta={eta:g} is", got, float(exp["lower_min_ge"]["value"]),
            floor=True,
        )
        check.passed = check.passed and math.isfinite(got)  # a vacuous (+inf) gap does not hold the bound
        checks.append(check)
    return ScenarioResult(cfg["name"], int(cfg["seed"]), cfg["operation"], reports, summary, checks)


_BUILDERS = {
    "fwuldp": _run_fwuldp,
    "dz-ball-sweep": _run_dz_sweep,
    "ulp": _run_ulp,
    "luldp": _run_luldp,
}
