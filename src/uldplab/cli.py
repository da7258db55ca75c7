"""Command line front end.

Subcommands map onto the library layers: ``simulate`` and ``rate`` are
single-object utilities, ``level-set`` and ``estimate`` expose the
sampling machinery, ``check`` runs a flag-expressible definition
checker, ``scenario`` replays a pinned configuration with its expected
verdicts, and ``converge`` runs the uniform convergence experiment.

Exit codes: 0 success, 1 scenario expected-verdict failure, 2 config
error (the message names the violated precondition) or a model state
that became non-finite (the message names the step).  All output is a
pure function of (flags, seed); ``--threads`` only bounds worker
parallelism.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .convergence import control_conv
from .estimators import EpsilonSchedule, LogProbEstimate, mc_probability
from .models import NumericalBlowupError, _noise_block, load_model, simulate_batch, skeleton
from .pathspace import (
    FLOAT_FMT,
    DiscretePath,
    DistanceAtLeast,
    PathSet,
    TimeGrid,
    UnionOfBalls,
)
from .rates import export_level_set, rate_closed_form, rate_variational, sample_level_set
from .scenarios import SCENARIO_NAMES
from .scenarios import run as run_scenario
from .uldp import (
    CheckBudgets,
    IndexSetSample,
    _jsonable,
    dzuldp_gaps,
    fwuldp_gaps,
    luldp_gaps,
    subseed,
)

class CliError(Exception):
    """Raised for precondition violations detected at the CLI layer."""


def _fmt(v: float) -> str:
    return format(float(v), FLOAT_FMT)


def _parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"--x expects comma-separated floats, got {text!r}") from exc


def _parse_schedule(args) -> EpsilonSchedule:
    if getattr(args, "eps_grid", None):
        parts = args.eps_grid.split(":")
        if len(parts) != 3:
            raise CliError("--eps-grid expects lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise CliError("--eps-grid expects lo:hi:count with numeric fields") from exc
        return EpsilonSchedule.geometric(lo, hi, count)
    if getattr(args, "eps", None):
        values = sorted({float(e) for e in args.eps}, reverse=True)
        return EpsilonSchedule(tuple(values))
    raise CliError("need --eps (repeatable) or --eps-grid lo:hi:count")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid_from(args) -> TimeGrid:
    return TimeGrid(args.horizon, args.grid_steps)


def _single_eps(args) -> float:
    if not getattr(args, "eps", None):
        raise CliError("need --eps")
    if len(args.eps) != 1:
        raise CliError("this subcommand takes exactly one --eps")
    return float(args.eps[0])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    grid = _grid_from(args)
    x = _parse_vector(args.x)
    eps = _single_eps(args)
    n = args.samples
    increments = _noise_block(grid, model.channels, args.seed, 0, n)
    values = simulate_batch(model, grid, np.array(x), eps, None, increments)
    if args.format == "csv":
        if n == 1:
            text = DiscretePath(grid, values[0]).to_csv()
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            dim = values.shape[2]
            writer.writerow(
                ["t"] + [f"p{i}_x{j}" for i in range(n) for j in range(dim)]
            )
            for k in range(grid.steps + 1):
                row = [format(grid.times[k], FLOAT_FMT)]
                for i in range(n):
                    row.extend(format(values[i, k, j], FLOAT_FMT) for j in range(dim))
                writer.writerow(row)
            text = buf.getvalue()
    else:
        doc = {
            "model": args.model,
            "x": list(x),
            "eps": eps,
            "seed": args.seed,
            "times": [float(t) for t in grid.times],
            "paths": [vals.tolist() for vals in values],
        }
        text = json.dumps(_jsonable(doc), indent=2) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_rate(args) -> int:
    model = load_model(args.model)
    path = DiscretePath.from_csv(args.path)
    x = _parse_vector(args.x)
    try:
        value = rate_closed_form(model, path.grid, np.array(x), path).value
    except TypeError:
        value = rate_variational(model, path.grid, np.array(x), path).value
    print(_fmt(value))
    return 0


def _cmd_level_set(args) -> int:
    model = load_model(args.model)
    grid = _grid_from(args)
    x = _parse_vector(args.x)
    if args.s0 is None or not 0 <= args.s0 < math.inf:
        raise CliError("level-set needs a finite --s0 >= 0 (the rate level)")
    sample = sample_level_set(model, grid, np.array(x), args.s0, args.samples, args.seed)
    if args.out:
        manifest = export_level_set(sample, args.out)
        print(manifest)
    else:
        doc = {
            "x": list(x),
            "level": sample.level,
            "count": len(sample.paths),
            "energies": list(sample.energies),
            "seed": sample.seed,
        }
        sys.stdout.write(json.dumps(_jsonable(doc), indent=2) + "\n")
    return 0


def _cmd_estimate(args) -> int:
    model = load_model(args.model)
    grid = _grid_from(args)
    x = _parse_vector(args.x)
    if args.delta is None or not 0 < args.delta < math.inf:
        raise CliError("estimate needs a finite --delta > 0 (departure threshold)")
    schedule = _parse_schedule(args)
    center = skeleton(model, grid, np.array(x))
    event = DistanceAtLeast(PathSet([center]), args.delta)
    rows = []
    for i, eps in enumerate(schedule.eps):
        rows.append(
            mc_probability(
                model,
                grid,
                np.array(x),
                eps,
                event,
                args.samples,
                subseed(args.seed, "cli-estimate", i),
                speed=schedule.speed,
            )
        )
    if args.format == "csv":
        text = LogProbEstimate.CSV_HEADER + "\n" + "\n".join(r.csv_row() for r in rows) + "\n"
    else:
        doc = [
            {
                "eps": r.eps,
                "x": list(r.x),
                "p_hat": r.p_hat,
                "ci": [r.ci_low, r.ci_high],
                "log_value": r.log_value,
                "zero_hit": r.zero_hit,
                "hit_count": r.hit_count,
                "n": r.n,
                "ess": r.ess,
                "seed": r.seed,
            }
            for r in rows
        ]
        text = json.dumps(_jsonable(doc), indent=2) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_check(args) -> int:
    definition = args.definition
    # a flag the definition does not read is refused rather than silently dropped
    if args.eta and definition != "luldp":
        raise CliError(f"{definition} takes no --eta (only luldp shrinks and fattens its sets)")
    if args.s0 is not None and definition != "fwuldp":
        raise CliError(f"{definition} takes no --s0 (only fwuldp samples a rate level set)")
    model = load_model(args.model)
    grid = _grid_from(args)
    if not args.x:
        raise CliError("check needs at least one --x start")
    points = [_parse_vector(t) for t in args.x]
    index = IndexSetSample(label="cli", points=tuple(points), tag=args.tag)
    schedule = _parse_schedule(args)
    budgets = CheckBudgets(mc_samples=args.samples, seed=args.seed, tilt=args.tilt)
    if definition == "fwuldp":
        if args.s0 is None or args.delta is None:
            raise CliError("fwuldp needs --s0 and --delta")
        if not 0 <= args.s0 < math.inf:
            raise CliError("fwuldp needs a finite --s0 >= 0 (the rate level)")
        if not 0 < args.delta < math.inf:
            raise CliError("fwuldp needs a finite --delta > 0 (radius around the level-set members)")
        reports = fwuldp_gaps(model, grid, index, args.s0, args.delta, schedule, budgets)
    else:
        if args.delta is None or not 0 < args.delta < math.inf:
            raise CliError(f"{definition} needs a finite --delta > 0 (ball radius around the skeletons)")
        centers = PathSet([skeleton(model, grid, np.array(p)) for p in points])
        open_event = UnionOfBalls(centers, (args.delta,) * len(points))
        closed_event = DistanceAtLeast(centers, args.delta)
        if definition == "dzuldp":
            reports = dzuldp_gaps(
                model, grid, index, open_event, closed_event, schedule, budgets
            )
        else:
            if not args.eta:
                raise CliError("luldp needs at least one --eta > 0")
            reports = luldp_gaps(
                model,
                grid,
                index,
                open_event,
                closed_event,
                tuple(sorted(args.eta, reverse=True)),
                schedule,
                budgets,
            )
    if args.format == "csv":
        text = "".join(r.cells_csv() for r in reports)
    else:
        text = json.dumps([r.to_json() for r in reports], indent=2) + "\n"
    _emit(text, args.out)
    for r in reports:
        sys.stderr.write(f"{r.definition}: {r.trend.verdict}\n")
    return 0


def _cmd_scenario(args) -> int:
    result = run_scenario(args.name, seed=args.seed, out=args.out)
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {result.name}: {check.name} ({check.detail})")
    print(f"scenario {result.name}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def _cmd_converge(args) -> int:
    model = load_model(args.model)
    grid = _grid_from(args)
    if not args.x:
        raise CliError("converge needs at least one --x start")
    points = [_parse_vector(t) for t in args.x]
    index = IndexSetSample(label="cli", points=tuple(points), tag=args.tag)
    if args.delta is None or not 0 < args.delta < math.inf:
        raise CliError("converge needs a finite --delta > 0")
    if not 0 <= args.control_bound < math.inf:
        raise CliError("converge needs a finite --control-bound >= 0")
    schedule = _parse_schedule(args)
    table = control_conv(
        model,
        grid,
        index,
        args.control_bound,
        args.delta,
        schedule,
        control_count=args.controls,
        n=args.samples,
        seed=args.seed,
        threads=args.threads,
    )
    if args.format == "csv":
        text = table.to_csv()
    else:
        text = json.dumps(table.to_json(), indent=2) + "\n"
    _emit(text, args.out)
    sys.stderr.write(f"median-error slope: {_fmt(table.slope)}\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uldplab",
        description="Numerical laboratory for uniform large deviations checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=True):
        p.add_argument("--model", required=True, help="builtin name or JSON spec file")
        p.add_argument("--grid-steps", type=int, default=64)
        p.add_argument("--horizon", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("simulate", help="sample controlled paths")
    common(p)
    p.add_argument("--x", required=True, help="start, comma-separated for vectors")
    p.add_argument("--eps", action="append", help="noise level")
    p.add_argument("--samples", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rate", help="rate of a path stored as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--path", required=True, help="CSV path file (t,x0,... header)")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("level-set", help="sample a rate-function level set (JSON, or a CSV directory with --out)")
    common(p, formats=False)
    p.add_argument("--x", required=True)
    p.add_argument("--s0", type=float, default=None, help="rate level")
    p.add_argument("--samples", type=int, default=16, help="member count")
    p.set_defaults(func=_cmd_level_set)

    p = sub.add_parser("estimate", help="departure probability from the skeleton")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--eps", action="append")
    p.add_argument("--eps-grid", default=None, help="lo:hi:count geometric")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("check", help="run a definition checker")
    common(p)
    p.add_argument(
        "--definition",
        required=True,
        choices=("fwuldp", "dzuldp", "luldp"),
    )
    p.add_argument("--x", action="append", help="start, repeatable")
    p.add_argument("--tag", choices=("all-subsets", "bounded", "compact"), default="bounded")
    p.add_argument("--eps", action="append")
    p.add_argument("--eps-grid", default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--s0", type=float, default=None)
    p.add_argument("--eta", type=float, action="append")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--tilt", choices=("none", "level-member", "auto-constant"), default="none")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("scenario", help="replay a pinned scenario with expected verdicts")
    p.add_argument("name", choices=SCENARIO_NAMES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("converge", help="uniform convergence table over (x, u)")
    common(p)
    p.add_argument("--x", action="append")
    p.add_argument("--tag", choices=("all-subsets", "bounded", "compact"), default="bounded")
    p.add_argument("--eps", action="append")
    p.add_argument("--eps-grid", default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--control-bound", type=float, default=4.0, help="squared L2 radius")
    p.add_argument("--controls", type=int, default=20)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "samples", 1) < 1:  # every sampling subcommand has --samples
            raise CliError("--samples must be >= 1")
        return args.func(args)
    except CliError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalBlowupError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
