import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from uldplab import estimators
from uldplab.estimators import Constant, EpsilonSchedule
from uldplab.models import GalerkinSPDE, TranslatedBM, skeletons, zero_control
from uldplab.pathspace import Ball, TimeGrid, line_path
from uldplab.scenarios import run
from uldplab.uldp import CheckBudgets, IndexSetSample, dzuldp_gaps, fwuldp_gaps

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_traced_bench_run_ends_in_a_strict_json_result():
    # a traced pass wraps the program's layer calls from outside; the run
    # must still exit 0 with a correct, strict-JSON result as its last line
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dz-sweep", "--trace", "1", "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    assert "absent wrap targets" not in proc.stdout


def test_tracer_finds_every_target_and_sees_the_rate_side_and_laplace_calls():
    # the tracer wraps functions by name from outside src/, so the checkers
    # must reach the rate side, the noise draws and the stepping through those
    # names; they plan their estimates, which a direct call runs alone
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        tracer = module.Tracer()
        tracer.install()
        try:
            run("ulp-counter")
            budgets = CheckBudgets(mc_samples=64, level_count=4, s_levels=2)
            grid, origin = TimeGrid(1.0, 16), IndexSetSample("origin", [(0.0,)])
            fwuldp_gaps(TranslatedBM(), grid, origin, 0.25, 0.4, EpsilonSchedule((0.2,)), budgets)
            dzuldp_gaps(
                TranslatedBM(), grid, origin, Ball(line_path(grid, 0.0, 0.5), 0.4), None,
                EpsilonSchedule((0.2,)), budgets,
            )
            skeletons(GalerkinSPDE(modes=2, channels=2), grid, [(0.0,)], [zero_control(grid, 2)])
            checked = len(tracer.spans)
            job = (0.0, Ball(line_path(grid, 0.0, 0.5), 0.4), None)
            estimators.mc_probability(TranslatedBM(), grid, 0.2, [job], 64, 1)
            estimators.laplace_functional(TranslatedBM(), grid, [(0.0,)], 0.2, Constant(0.5), 64, 1)
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[spec.name]
    assert tracer.absent == []
    names = {span.name for span in tracer.spans[:checked]}
    for name in ("rates.sample_level_set", "rates.inf_h_plus_I", "models.noise", "uldp.rate_search", "models.step"):
        assert name in names, name
    direct = {span.name for span in tracer.spans[checked:]}
    assert {"estimators.mc_probability", "estimators.laplace_functional"} <= direct
