"""Sweep eps * log P(X_T >= c) down to small noise and compare with the
exact Gaussian tail.

The terminal event on scaled Brownian motion has a closed form, so this
doubles as an end-to-end audit of the tilted estimator: the table shows
the raw hit fraction collapsing while the tilted estimate keeps tracking
the oracle.

Usage:
    python scripts/rare_event_sweep.py [--c 1.0] [--n 100000] [--seed 2024]
"""

import argparse
import math
import sys

from uldplab.estimators import is_probability
from uldplab.models import TranslatedBM, constant_control
from uldplab.pathspace import TerminalAtLeast, TimeGrid


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c", type=float, default=1.0, help="terminal threshold")
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument(
        "--eps", type=float, nargs="*", default=[0.2, 0.1, 0.05, 0.02, 0.01, 0.005]
    )
    args = ap.parse_args(argv)

    model = TranslatedBM()
    grid = TimeGrid(1.0, 64)
    event = TerminalAtLeast(args.c)
    # drift straight at the threshold: the asymptotically optimal tilt
    tilt = constant_control(grid, args.c)
    limit = -args.c**2 / 2.0

    print(f"{'eps':>8} {'p_hat':>12} {'eps*log p':>11} {'oracle':>11} {'ess':>9}")
    worst = 0.0
    for eps in sorted(args.eps, reverse=True):
        est = is_probability(model, grid, 0.0, eps, event, tilt, args.n, seed=args.seed)
        oracle = eps * math.log(0.5 * math.erfc(args.c / math.sqrt(2.0 * eps)))  # the normal tail at c / sqrt(eps)
        worst = max(worst, abs(est.log_value - oracle))
        print(
            f"{eps:8.4f} {est.p_hat:12.4e} {est.log_value:11.5f} "
            f"{oracle:11.5f} {est.ess:9.1f}"
        )
    print(f"limit -c^2/2 = {limit:.5f}; worst |estimate - oracle| = {worst:.2e}")
    return 0 if worst < 0.01 else 1


if __name__ == "__main__":
    sys.exit(main())
