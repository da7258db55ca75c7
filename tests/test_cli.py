import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uldplab
from uldplab.cli import main
from uldplab.pathspace import DiscretePath, TimeGrid, line_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_of_the_unit_line_prints_half(tmp_path, capsys):
    f = tmp_path / "line.csv"
    line_path(TimeGrid(1.0, 64), 0.0, 1.0).save_csv(str(f))
    code, out, _ = run_cli(
        capsys, "rate", "--model", "translated-bm", "--x", "0", "--path", str(f)
    )
    assert code == 0
    assert out.strip() == "0.5"


def test_rate_of_a_ragged_csv_exits_two_naming_the_line(tmp_path, capsys):
    f = tmp_path / "ragged.csv"
    f.write_text("t,x0\n0,0\n0.5,0.5,9\n1,1\n")
    code, out, err = run_cli(capsys, "rate", "--model", "translated-bm", "--x", "0", "--path", str(f))
    assert code == 2
    assert out == ""
    assert "CSV line 3 " in err


def test_rate_reports_inf_on_start_mismatch(tmp_path, capsys):
    f = tmp_path / "line.csv"
    line_path(TimeGrid(1.0, 64), 1.0, 1.0).save_csv(str(f))
    code, out, _ = run_cli(
        capsys, "rate", "--model", "translated-bm", "--x", "0", "--path", str(f)
    )
    assert code == 0
    assert out.strip() == "inf"


def test_simulate_single_sample_csv_feeds_rate(tmp_path, capsys):
    f = tmp_path / "path.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--model", "translated-bm",
        "--x", "0",
        "--eps", "0.1",
        "--samples", "1",
        "--seed", "5",
        "--format", "csv",
        "--out", str(f),
    )
    assert code == 0
    path = DiscretePath.from_csv(str(f))
    assert path.grid == TimeGrid(1.0, 64)
    code, out, _ = run_cli(
        capsys, "rate", "--model", "translated-bm", "--x", "0", "--path", str(f)
    )
    assert code == 0
    assert float(out) > 0.0


def test_simulate_multi_sample_csv_has_labeled_columns(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--model", "translated-bm",
        "--x", "0",
        "--eps", "0.1",
        "--samples", "3",
        "--format", "csv",
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["t", "p0_x0", "p1_x0", "p2_x0"]
    assert len(out.splitlines()) == 66


def test_simulate_json_document_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--model", "perturbed-bm",
        "--x", "1.5",
        "--eps", "0.2",
        "--samples", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "perturbed-bm"
    assert len(doc["paths"]) == 2
    # start leak: paths open at (1 + eps) x
    assert doc["paths"][0][0][0] == pytest.approx(1.8)


def test_estimate_csv_and_json_agree(tmp_path, capsys):
    args = [
        "estimate",
        "--model", "translated-bm",
        "--x", "0",
        "--eps", "0.1",
        "--eps", "0.05",
        "--delta", "0.5",
        "--samples", "2000",
        "--seed", "3",
    ]
    code, out_json, _ = run_cli(capsys, *args)
    assert code == 0
    rows = json.loads(out_json)
    assert [r["eps"] for r in rows] == [0.1, 0.05]
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    lines = out_csv.splitlines()
    assert lines[0] == "eps,x,phat,ci_lo,ci_hi,log_value,zero_hit,ess,n,seed"
    assert float(lines[1].split(",")[2]) == rows[0]["p_hat"]


def test_estimate_requires_delta(capsys):
    code, _, err = run_cli(
        capsys,
        "estimate",
        "--model", "translated-bm",
        "--x", "0",
        "--eps", "0.1",
    )
    assert code == 2
    assert "delta" in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_estimate_rejects_non_finite_eps(eps, capsys):
    code, out, err = run_cli(
        capsys,
        "estimate", "--model", "translated-bm", "--x", "0", "--eps", eps, "--delta", "0.5",
    )
    assert code == 2
    assert out == ""
    assert err.strip() == "config error: eps values must be positive and finite"


def test_eps_grid_parsing(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--model", "translated-bm",
        "--x", "0",
        "--eps-grid", "0.05:0.2:3",
        "--delta", "0.5",
        "--samples", "500",
    )
    assert code == 0
    eps = [r["eps"] for r in json.loads(out)]
    assert eps[0] == pytest.approx(0.2)
    assert eps[-1] == pytest.approx(0.05)
    assert len(eps) == 3
    code, _, err = run_cli(
        capsys,
        "estimate",
        "--model", "translated-bm",
        "--x", "0",
        "--eps-grid", "0.2:0.05:3",
        "--delta", "0.5",
    )
    assert code == 2
    assert "config error" in err


def test_level_set_export_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "ls"
    code, out, _ = run_cli(
        capsys,
        "level-set",
        "--model", "translated-bm",
        "--x", "0",
        "--s0", "1.0",
        "--samples", "5",
        "--out", str(out_dir),
    )
    assert code == 0
    with open(out.strip()) as fh:
        manifest = json.load(fh)
    assert manifest["count"] == 5
    code, out, _ = run_cli(
        capsys,
        "level-set",
        "--model", "translated-bm",
        "--x", "0",
        "--s0", "1.0",
        "--samples", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["energies"][0] == 0.0
    assert max(doc["energies"]) <= 1.0 + 1e-12


def test_check_fwuldp_small_budget(capsys):
    code, out, err = run_cli(
        capsys,
        "check",
        "--model", "translated-bm",
        "--definition", "fwuldp",
        "--x", "0",
        "--eps", "0.2",
        "--eps", "0.1",
        "--s0", "0.25",
        "--delta", "0.4",
        "--samples", "400",
        "--seed", "1",
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["definition"] for r in reports] == ["fwuldp-lower", "fwuldp-upper"]
    assert "fwuldp-lower:" in err


def test_check_luldp_needs_eta(capsys):
    code, _, err = run_cli(
        capsys,
        "check",
        "--model", "translated-bm",
        "--definition", "luldp",
        "--x", "0",
        "--eps", "0.1",
        "--delta", "0.4",
        "--samples", "200",
    )
    assert code == 2
    assert "eta" in err


@pytest.mark.parametrize("definition", ["ulp", "eulp"])
def test_check_rejects_laplace_definitions(definition, capsys):
    # ulp and eulp need a functional family, which no flag expresses:
    # they are not offered, so the parser refuses them with exit status 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "--model", "translated-bm", "--definition", definition, "--x", "0", "--eps", "0.1"])
    assert exc.value.code == 2
    assert f"invalid choice: '{definition}'" in capsys.readouterr().err


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--x", "0", "--eps", "0.1"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


CONVERGE = ["converge", "--eps-grid", "0.01:0.1:3", "--delta", "0.3"]


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(CONVERGE + ["--samples", "0"], id="0"),
        pytest.param(CONVERGE + ["--samples", "-2"], id="-2"),
        # every sampling subcommand shares the check
        pytest.param(["simulate", "--eps", "0.1", "--samples", "0"], id="simulate-0"),
        pytest.param(["level-set", "--s0", "1", "--samples", "0"], id="level-set-0"),
        pytest.param(["estimate", "--eps", "0.1", "--delta", "0.3", "--samples", "0"], id="estimate-0"),
        pytest.param(
            ["check", "--definition", "dzuldp", "--eps", "0.1", "--delta", "0.3", "--samples", "0"],
            id="check-0",
        ),
    ],
)
def test_converge_rejects_nonpositive_samples(command, capsys):
    code, out, err = run_cli(capsys, command[0], "--model", "translated-bm", "--x", "0", *command[1:])
    assert code == 2
    assert out == ""
    assert err.strip() == "config error: --samples must be >= 1"


DELTA_COMMANDS = [
    ["converge", "--eps-grid", "0.01:0.1:3", "--samples", "20", "--controls", "3"],
    ["estimate", "--eps", "0.1", "--samples", "20"],
    ["check", "--definition", "dzuldp", "--eps-grid", "0.05:0.2:2", "--samples", "20"],
    ["check", "--definition", "luldp", "--eps-grid", "0.05:0.2:2", "--eta", "0.1", "--samples", "20"],
    ["check", "--definition", "fwuldp", "--eps", "0.1", "--s0", "0.5", "--samples", "20"],
]


@pytest.mark.parametrize(
    "command", [[c[0], "--delta", delta, *c[1:]] for delta in ("nan", "inf") for c in DELTA_COMMANDS]
)
def test_nan_delta_exits_two(command, capsys):
    # nan > 0 and nan <= 0 are both false, so a nan delta must fail the positivity
    # check; an infinite delta would make every departure event empty
    code, out, err = run_cli(capsys, command[0], "--model", "translated-bm", "--x", "0", *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and "--delta > 0" in err


@pytest.mark.parametrize("bound", ["nan", "inf", "-1"])
def test_converge_rejects_a_bad_control_bound(bound, capsys):
    code, out, err = run_cli(
        capsys, "converge", "--model", "translated-bm", "--x", "0", "--eps-grid", "0.01:0.1:3",
        "--delta", "0.3", "--samples", "20", "--controls", "3", "--control-bound", bound,
    )
    assert code == 2
    assert out == ""
    assert err.strip() == "config error: converge needs a finite --control-bound >= 0"


def test_check_luldp_rejects_nan_eta(capsys):
    # the error names the flag; a bad margin after a good one is caught too
    for eta in ("nan", "0", "-1", "inf"):
        code, out, err = run_cli(
            capsys,
            "check", "--model", "translated-bm", "--definition", "luldp", "--x", "0", "--x", "1",
            "--eps-grid", "0.05:0.2:2", "--delta", "0.5", "--eta", "0.1", "--eta", eta, "--samples", "500",
        )
        assert code == 2
        assert out == ""
        assert err.strip() == "config error: luldp needs every --eta finite and > 0 (the shrink/fatten margin)"


@pytest.mark.parametrize("model", ["translated-bm", "finite-sde"])
@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_simulate_rejects_non_finite_eps(model, eps, capsys):
    # eps < 0 is false for nan, so the old check let it through to nan paths
    code, out, err = run_cli(capsys, "simulate", "--model", model, "--x", "0", "--eps", eps, "--samples", "1")
    assert code == 2
    assert out == ""
    assert err.strip() == "config error: eps must be nonnegative and finite"


@pytest.mark.parametrize("model", ["translated-bm", "finite-sde"])
def test_simulate_rejects_a_non_finite_start(model, capsys):
    for x in ("nan", "inf"):
        code, out, err = run_cli(capsys, "simulate", "--model", model, "--x", x, "--eps", "0.1", "--samples", "1")
        assert code == 2
        assert out == ""
        assert err.strip() == "config error: start must be finite"
    # far finite starts still simulate
    for x in ("1e6", "1000"):
        code, out, _ = run_cli(capsys, "simulate", "--model", model, "--x", x, "--eps", "0.1", "--samples", "1")
        assert code == 0
        assert out


@pytest.mark.parametrize(
    "command",
    [
        ["check", "--definition", "fwuldp", "--eps", "0.1", "--delta", "0.3", "--samples", "20"],
        ["level-set", "--samples", "4"],
    ],
)
def test_infinite_s0_names_the_flag(command, capsys):
    code, out, err = run_cli(capsys, command[0], "--model", "translated-bm", "--x", "0", "--s0", "inf", *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and "finite --s0" in err


BLOWUP_SPEC = {"variant": "finite-sde", "dim": 1, "drift": {"name": "linear", "matrix": [[1e9]]}}


def test_numerical_blowup_is_reported_in_one_line(tmp_path, capsys):
    spec = tmp_path / "blowup.json"
    spec.write_text(json.dumps(BLOWUP_SPEC))
    # a real process, so any numpy warning printed to stderr would show
    proc = _run_subprocess(
        "simulate", "--model", str(spec), "--x", "0", "--eps", "0.1", "--samples", "2"
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical error: finite SDE state became non-finite at step ")
    code, out, err = run_cli(
        capsys,
        "converge", "--model", str(spec), "--x", "0", "--eps-grid", "0.01:0.1:3",
        "--delta", "0.3", "--samples", "20", "--controls", "3",
    )
    assert code == 2
    assert out == ""
    (line,) = err.strip().splitlines()
    assert line.startswith("numerical error: finite SDE state became non-finite at step ")


def _run_subprocess(*argv):
    # the child imports the package from where this process found it
    path = [str(Path(uldplab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-m", "uldplab.cli", *argv],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )


def test_outputs_are_byte_identical_across_runs_and_threads():
    base = [
        "converge",
        "--model", "translated-bm",
        "--x", "0",
        "--x", "1",
        "--eps", "0.1",
        "--eps", "0.05",
        "--delta", "0.3",
        "--controls", "5",
        "--samples", "40",
        "--seed", "7",
        "--format", "csv",
    ]
    first = _run_subprocess(*base, "--threads", "1")
    second = _run_subprocess(*base, "--threads", "1")
    third = _run_subprocess(*base, "--threads", "3")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == third.stdout
    assert first.stdout.splitlines()[0] == "eps,sup_prob,median_err,q90_err"


def test_estimate_byte_identical_across_runs():
    args = [
        "estimate",
        "--model", "swapped-bm",
        "--x", "0",
        "--eps", "0.1",
        "--delta", "0.4",
        "--samples", "3000",
        "--seed", "11",
        "--format", "csv",
    ]
    a = _run_subprocess(*args)
    b = _run_subprocess(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_scenario_subcommand_writes_result_and_exits_clean(tmp_path, capsys):
    out = tmp_path / "res.json"
    code, stdout, _ = run_cli(capsys, "scenario", "ulp-counter", "--out", str(out))
    assert code == 0
    assert "scenario ulp-counter: PASS" in stdout
    assert all(
        line.startswith("[PASS]") for line in stdout.splitlines() if line.startswith("[")
    )
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_check_output_bytes_match_the_pinned_digest(bench_workloads, tmp_path):
    # the benchmark's README check command: its fwuldp level sets run
    # through the stacked-control skeleton walk
    out = tmp_path / "cli-check.json"
    assert main([*bench_workloads.CLI_CHECK_ARGS, "--out", str(out)]) == 0
    want = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())["cli-check"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


CHECK_PIN = ["--model", "translated-bm", "--x", "0", "--x", "0.5", "--delta", "0.3", "--samples", "200", "--seed", "2"]


@pytest.mark.parametrize(
    "argv, want",
    [
        pytest.param(
            ["check", "--definition", "dzuldp", *CHECK_PIN, "--eps", "0.2", "--eps", "0.005"],
            "91109a1e6e4808d88a08a6ad0f07d0f750e77f1b48ae64d35c0ad9aec4867224",
            id="dzuldp-json",
        ),
        pytest.param(
            [
                "check", "--definition", "luldp", *CHECK_PIN, "--eps", "0.2", "--eps", "0.02",
                "--eta", "0.05", "--eta", "0.5",
            ],
            "38fef7be3d0cce6330898c9e05e82ebd43bd09f95950b00e3c5f7dadb9b7d73e",
            id="luldp-json",
        ),
        # eta 0.5 empties the shrunk ball (an inf rate) and eps 0.005 misses the
        # closed set (a -inf log value), so both non-finite spellings are pinned
        pytest.param(
            [
                "check", "--definition", "luldp", *CHECK_PIN, "--eps", "0.2", "--eps", "0.005",
                "--eta", "0.05", "--eta", "0.5", "--format", "csv",
            ],
            "361cf285d2013fe4189435ddd08bb1ee1fc3b906b0c3d7652a696c81b9a7f8d6",
            id="luldp-csv",
        ),
        pytest.param(
            [
                "estimate", "--model", "translated-bm", "--x", "0", "--eps", "0.5", "--eps", "0.02",
                "--delta", "1.5", "--samples", "200", "--seed", "4", "--format", "csv",
            ],
            "01d561c10eaf6f764cc25e3b0312d1f1d88ee7e8f8cee75006c5cc3019623e98",
            id="estimate-csv",
        ),
    ],
)
def test_output_bytes_are_pinned(argv, want, tmp_path):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


@pytest.mark.parametrize(
    "command, flag",
    [
        pytest.param(["level-set", "--s0", "1", "--format", "csv"], "--format", id="level-set-format"),
        pytest.param(
            ["check", "--definition", "fwuldp", "--eps", "0.1", "--s0", "0.5", "--delta", "0.3", "--eta", "0.1"],
            "--eta",
            id="fwuldp-eta",
        ),
        pytest.param(
            ["check", "--definition", "dzuldp", "--eps", "0.1", "--delta", "0.3", "--eta", "0.1"], "--eta", id="dzuldp-eta"
        ),
        pytest.param(
            ["check", "--definition", "dzuldp", "--eps", "0.1", "--delta", "0.3", "--s0", "0.5"], "--s0", id="dzuldp-s0"
        ),
        pytest.param(
            ["check", "--definition", "luldp", "--eps", "0.1", "--delta", "0.3", "--eta", "0.1", "--s0", "0.5"],
            "--s0",
            id="luldp-s0",
        ),
    ],
)
def test_flags_a_command_ignores_exit_two(command, flag, capsys):
    # a flag that would not change the output is refused, not silently dropped
    try:
        code = main([command[0], "--model", "translated-bm", "--x", "0", "--samples", "20", *command[1:]])
    except SystemExit as exc:  # argparse refuses flags a subcommand does not register
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert flag in err
