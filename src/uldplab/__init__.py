"""Numerical laboratory for uniform large deviations checks.

Layers, bottom up: discrete path space and events (``pathspace``),
process models and noise (``models``), rate functions and level sets
(``rates``), Monte Carlo and tilted estimators (``estimators``), the
five definition checkers (``uldp``), uniform convergence experiments
(``convergence``), pinned scenarios (``scenarios``) and the CLI
(``cli``).
"""

from .convergence import ConvergenceTable, control_conv, moment_bound_check, weak_continuity_check
from .estimators import (
    CappedSetDistance,
    Constant,
    EpsilonSchedule,
    EquicontinuousFamily,
    LogProbEstimate,
    MinOverCenters,
    TestFunction,
    band_probability,
    is_probability,
    laplace_functional,
    mc_probability,
    quadrature_probability,
)
from .models import (
    Control,
    FiniteSDE,
    GalerkinSPDE,
    PerturbedBM,
    ProcessModel,
    SwappedBM,
    TranslatedBM,
    constant_control,
    load_model,
    simulate_batch,
    sine_control,
    skeleton,
    zero_control,
)
from .pathspace import (
    Ball,
    DiscretePath,
    DistanceAtLeast,
    EventSpec,
    PathSet,
    TimeGrid,
    UnionOfBalls,
    constant_path,
    hausdorff,
    line_path,
    sup_metric,
)
from .rates import (
    LevelSetSample,
    RateValue,
    inf_h_plus_I,
    rate_closed_form,
    rate_variational,
    sample_level_set,
)
from .scenarios import SCENARIO_NAMES, ScenarioResult
from .scenarios import run as run_scenario
from .uldp import (
    CheckBudgets,
    CheckCell,
    CheckReport,
    IndexSetSample,
    TrendInfo,
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

__version__ = "0.1.0"
