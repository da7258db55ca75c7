import json
import os
import subprocess
import sys
from pathlib import Path

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
