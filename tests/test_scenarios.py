import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from uldplab.scenarios import SCENARIO_NAMES, load_config, run


def test_registry_is_complete():
    assert len(SCENARIO_NAMES) == 8
    assert "bm-fwuldp-holds" in SCENARIO_NAMES
    assert "spde-fwuldp" in SCENARIO_NAMES
    for name in SCENARIO_NAMES:
        cfg = load_config(name)
        assert cfg["name"] == name
        assert "seed" in cfg
        assert "expected" in cfg


# the top-level keys the loader and the builders read, plus the title
CONFIG_KEYS = {
    "name", "title", "operation", "model", "horizon", "steps", "eps", "seed", "budgets", "params", "index_set",
    "expected",
}


@pytest.mark.parametrize("name", sorted(SCENARIO_NAMES))
def test_configs_hold_only_keys_the_builders_read(name):
    # a key nothing reads is a knob that looks live but is not
    assert sorted(set(load_config(name)) - CONFIG_KEYS) == []


def test_unknown_scenario_is_rejected():
    with pytest.raises(KeyError):
        load_config("made-up")
    with pytest.raises(KeyError):
        run("made-up")


def test_ulp_counterexample_gap_is_minus_half(pinned_run):
    # min-over-lines functional with unit cap: the signed gap bottoms out
    # at -cap + horizon/2 no matter how small eps gets
    result = pinned_run("ulp-counter")
    assert result.passed
    assert result.summary["final_min_signed_gap"] == -0.5
    assert result.summary["verdict"] == "fails"


def test_start_leak_kills_lower_bound_but_not_local_variant(pinned_run):
    leak = pinned_run("y-fwuldp-fails")
    assert leak.passed
    assert any(r.trend.verdict == "fails-sentinel" for r in leak.reports)
    local = pinned_run("y-luldp-holds")
    assert local.passed
    assert local.reports[0].trend.verdict == "holds-trend"


def test_unbounded_ball_sweep_keeps_rate_while_probability_vanishes(pinned_run):
    result = pinned_run("dz-lower-unbounded")
    assert result.passed
    row = result.summary["sweep"][0]
    # the nearest ball keeps the rate side at 1/2 while every sampled
    # path misses the union, so the lower bound fails by sentinel
    assert row["sup_rate"] == 0.5
    assert row["verdict"] == "fails-sentinel"


def test_hausdorff_swap_scenario_passes(pinned_run):
    result = pinned_run("dz-hausdorff-discontinuity")
    assert result.passed


def test_scenario_result_serializes(tmp_path):
    out = tmp_path / "res.json"
    result = run("ulp-counter", out=str(out))
    doc = json.loads(out.read_text())
    assert doc["name"] == "ulp-counter"
    assert doc["passed"] is True
    assert {"name", "passed", "detail"} <= set(doc["checks"][0])
    assert doc["reports"][0]["definition"] == "ulp"


def test_seed_override_is_recorded():
    result = run("ulp-counter", seed=123)
    assert result.seed == 123


def test_translated_bm_scenario_holds_both_bounds(pinned_run):
    result = pinned_run("bm-fwuldp-holds")
    assert result.passed
    verdicts = {r.definition: r.trend.verdict for r in result.reports}
    assert verdicts["fwuldp-lower"] == "holds-trend"
    assert verdicts["fwuldp-upper"] == "holds-trend"


def test_spectral_scenario_holds_both_bounds(pinned_run):
    result = pinned_run("spde-fwuldp")
    assert result.passed
    verdicts = {r.definition: r.trend.verdict for r in result.reports}
    assert set(verdicts.values()) == {"holds-trend"}


DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


@pytest.mark.parametrize(
    "name",
    [
        "dz-lower-unbounded",
        "dz-hausdorff-discontinuity",
        "y-luldp-holds",
        "y-fwuldp-fails",
        "dz-lower-bounded",
        "bm-fwuldp-holds",
        "spde-fwuldp",
        "ulp-counter",
    ],
)
def test_scenario_output_bytes_match_the_pinned_digest(name, pinned_run, tmp_path):
    # start-batched sampling, the early-exit membership kernels and the
    # one-call ball sweep must reproduce the per-start, full-margin,
    # per-m output byte for byte
    out = tmp_path / f"{name}.json"
    pinned_run(name).save_json(str(out))
    want = json.loads(DIGESTS.read_text())[name]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_a_vacuous_gap_fails_the_eta_floor(monkeypatch):
    # eta 0.6 shrinks the radius-0.5 balls to nothing, so no rate candidate
    # qualifies and every gap is +inf: above any floor, yet no bound holds
    from uldplab import scenarios

    cfg = load_config("y-luldp-holds")
    cfg = {
        **cfg,
        "params": {**cfg["params"], "etas": [0.6]},
        "expected": {"lower_min_ge": {"eta": 0.6, "value": -0.3}},
    }
    monkeypatch.setattr(scenarios, "load_config", lambda name: cfg)
    (check,) = run("y-luldp-holds").checks
    assert check.name == "lower-min-at-eta"
    assert not check.passed
    assert check.detail == "min gap over cells at eta=0.6 is inf vs floor -0.3"


def _run_all_scenarios_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_scenarios.py"
    spec = importlib.util.spec_from_file_location("run_all_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_scenarios_runs_each_seed_of_a_seed_range(tmp_path, capsys):
    script = _run_all_scenarios_script()
    name = "dz-lower-unbounded"
    assert script.main(["--only", name, "--seeds", "3:4", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2/2 scenario runs passed"
    for seed in (3, 4):
        run(name, seed=seed, out=str(tmp_path / "want.json"))
        assert (tmp_path / f"{name}-seed{seed}.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    for bad in ("4:3", "3", "a:b", "3:4:5"):
        with pytest.raises(SystemExit) as exc:
            script.main(["--only", name, "--seeds", bad])
        assert exc.value.code == 2
