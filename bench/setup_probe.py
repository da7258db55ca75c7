"""One fresh-interpreter set-up: import uldplab, load the configs, build the models.

``run.py`` times this script from spawn to exit, several times, and
reports the median as ``setup_s``.

Usage: python3 bench/setup_probe.py WORKLOAD SEED   (SEED is an integer or "pinned")
"""

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src")]

from workloads import WORKLOADS  # noqa: E402  (imports uldplab)

if __name__ == "__main__":
    name, seed = sys.argv[1], sys.argv[2]
    WORKLOADS[name].setup(None if seed == "pinned" else int(seed))
