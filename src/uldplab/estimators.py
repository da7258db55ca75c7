"""Probability and Laplace-functional estimators at small noise.

Estimates are organized around a noise schedule eps_1 > eps_2 > ...,
and log probabilities are reported on the eps * log scale that the large
deviation bounds live on; a zero-hit estimate carries an explicit -inf
sentinel plus the one-sided rule-of-three bound 3/n so downstream
comparisons stay meaningful.

Importance sampling of probabilities uses Girsanov tilting by a
deterministic control u: simulate the controlled process and reweight
each sample by

    exp( -(1/sqrt(eps)) sum_i u_i . dW_i  -  (1/(2 eps)) |u|^2_{L2} )

with dW the raw increments.  This is exactly unbiased for the discrete
models since the tilt acts on the increment distribution itself.

Sampling is deterministic and schedule independent: sample index k
always reads its noise from the counter-based substream of block
k // CHUNK, so the same (config, seed) reproduces byte-identical
estimates no matter how work is batched or threaded.

Estimates at different starts that share a seed read the same block,
drawn once: the block is the outer loop and the start the inner one.
Jobs at one start with one tilt share its simulated paths, whatever
their events.  On the translated family the path at x is x plus a core
built once per sub-block and tilt, so a ball is decided from two numbers
per sample instead: the max and min over t > 0 of the core minus the
ball's shape (its center minus the center's first value), formed once
per shape, sub-block and tilt and read by every start and radius.  A
start more than the radius from the center at t = 0 misses that ball on
every row at no cost; rows within a few roundings of the radius take
their whole distance (``pathspace._ball_from_extremes``).  A ``Ball``
is a union of one ball and takes the same route.  The exact oracle
``band_probability`` reads an event's one tube from ``EventSpec.bands``
and propagates the Brownian density through it: translated family only.

Each estimate is a plan (``_Plan``): its noise blocks and how to finish
it.  A checker lists the plans of all its estimates, and
``_run_estimates`` runs every block of every plan through one ``_map`` on
``_WORKERS`` threads, then finishes the plans in list order.  Each
block's noise is drawn whole, and the block is stepped and screened in
row sub-blocks whose path array holds at most ``_SUB_BLOCK_BYTES`` per
start.  Peak sampling memory is therefore, per worker, one whole block
of noise, one sub-block of paths per start of the walk (a stepped family
walks all the starts of a group at once; the translated family holds its
core and one buffer of that size for the block) and one bool per block sample
per job, plus, at the start being tested, one bool per sub-block sample
per decided ball and two floats per sub-block sample per ball shape; and
for every plan of the call one bit per sample per job (and one weight
per sample per distinct tilt).  Every draw, step and screen acts row by
row, and each block writes only its own slice of its plan's outputs, so
neither the sub-block size, the number of starts, the worker count nor
the order in which blocks run changes a bit, and each estimate equals
the one its start would get alone.  Reductions over samples (sums, the
effective sample size, log-sum-exp) run after every block is done.  The
log-sum-exp is ``_logsumexp``, scipy's algorithm repeated op for op in
numpy, so estimates need numpy alone and match what
``scipy.special.logsumexp`` gives bit for bit.
"""

from __future__ import annotations

import concurrent.futures
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .models import (
    Control,
    ProcessModel,
    TranslatedBM,
    _noise_block,
    _translated_core,
    simulate_batch,
    simulate_starts,
)
from .pathspace import (
    FLOAT_FMT,
    DiscretePath,
    EventSpec,
    PathSet,
    ShapeMismatchError,
    TimeGrid,
    UnionOfBalls,
    _ball_from_extremes,
    _dist_batch,
    _member_distances,
)

__all__ = [
    "CHUNK",
    "Z95",
    "EpsilonSchedule",
    "LogProbEstimate",
    "TestFunction",
    "Constant",
    "CappedSetDistance",
    "MinOverCenters",
    "EquicontinuousFamily",
    "wilson_interval",
    "mc_probability",
    "is_probability",
    "laplace_functional",
    "quadrature_probability",
    "band_probability",
]

CHUNK = 8192
Z95 = 1.959963984540054
# the most bytes one sub-block's path array may hold: each worker holds
# its block's whole noise, and 1 MiB keeps the paths beside it small
_SUB_BLOCK_BYTES = 1 << 20
# threads for independent work (the noise blocks of a checker's
# estimates); no output depends on it, so it is neither a budget nor a
# CLI flag
_WORKERS = 2


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing noise levels; estimates at eps report eps * log values."""

    eps: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(e) for e in self.eps)
        if not vals:
            raise ValueError("empty schedule")
        if any(not 0 < e < math.inf for e in vals):
            raise ValueError("eps values must be positive and finite")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise ValueError("schedule must be strictly decreasing")
        object.__setattr__(self, "eps", vals)

    @staticmethod
    def geometric(lo: float, hi: float, count: int) -> "EpsilonSchedule":
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        if count < 1:
            raise ValueError("count must be >= 1")
        if count == 1:
            grid = (hi,)
        else:
            ratio = (lo / hi) ** (1.0 / (count - 1))
            grid = tuple(hi * ratio**k for k in range(count))
        return EpsilonSchedule(grid)


@dataclass(frozen=True)
class LogProbEstimate:
    """One probability estimate on the eps * log scale."""

    eps: float
    x: tuple[float, ...]
    p_hat: float
    ci_low: float
    ci_high: float
    hit_count: int
    n: int
    log_value: float
    zero_hit: bool
    ess: float
    seed: int
    p_rule_of_three: float | None = None
    degenerate: bool = False

    CSV_HEADER = "eps,x,phat,ci_lo,ci_hi,log_value,zero_hit,ess,n,seed"

    def csv_row(self) -> str:
        xs = ";".join(format(v, FLOAT_FMT) for v in self.x)
        fields = [
            format(self.eps, FLOAT_FMT),
            xs,
            format(self.p_hat, FLOAT_FMT),
            format(self.ci_low, FLOAT_FMT),
            format(self.ci_high, FLOAT_FMT),
            format(self.log_value, FLOAT_FMT),
            "1" if self.zero_hit else "0",
            format(self.ess, FLOAT_FMT),
            str(self.n),
            str(self.seed),
        ]
        return ",".join(fields)


def wilson_interval(hits: int, n: int, z: float = Z95) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # the endpoints are exact at the boundary counts; cancellation is not
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


# ---------------------------------------------------------------------------
# test functions (bounded continuous functionals of the path)


class TestFunction:
    """Bounded Lipschitz functional of a discrete path."""

    def bound(self) -> float:
        raise NotImplementedError

    def lipschitz(self) -> float:
        raise NotImplementedError

    def batch(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, path: DiscretePath) -> float:
        return float(self.batch(path.values[None])[0])


@dataclass(frozen=True)
class Constant(TestFunction):
    value: float

    def __post_init__(self) -> None:
        if math.isnan(self.value):
            raise ValueError("value must not be nan")

    def bound(self) -> float:
        return abs(self.value)

    def lipschitz(self) -> float:
        return 0.0

    def batch(self, values: np.ndarray) -> np.ndarray:
        return np.full(values.shape[0], self.value)


@dataclass(frozen=True)
class CappedSetDistance(TestFunction):
    """psi -> scale * min(2 dist(psi, targets) / width, 1), optionally inverted.

    The inverted form scale - scale * min(2 dist / width, 1) is the cap
    used against level sets in the upper-bound test families.
    """

    targets: PathSet
    scale: float
    width: float
    inverted: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.scale < math.inf:
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")
        if not 0 < self.width < math.inf:
            raise ValueError(f"width must be finite and > 0, got {self.width}")

    def bound(self) -> float:
        return self.scale

    def lipschitz(self) -> float:
        return 2.0 * self.scale / self.width

    def batch(self, values: np.ndarray) -> np.ndarray:
        d = _dist_batch(values, self.targets)
        capped = self.scale * np.minimum(2.0 * d / self.width, 1.0)
        return self.scale - capped if self.inverted else capped


@dataclass(frozen=True)
class MinOverCenters(TestFunction):
    """cap * min(1, min_n weight_n * rho(psi, center_n)).

    With geometrically growing weights this family is bounded but not
    equicontinuous; it is the standard witness separating the plain
    uniform Laplace principle from its equicontinuous strengthening.
    """

    centers: PathSet
    weights: tuple[float, ...]
    cap: float

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.centers):
            raise ShapeMismatchError("one weight per center required")
        if not 0 <= self.cap < math.inf:
            raise ValueError(f"cap must be finite and >= 0, got {self.cap}")
        if not all(0 < w < math.inf for w in self.weights):
            raise ValueError(f"weights must be finite and > 0, got {self.weights}")

    def bound(self) -> float:
        return self.cap

    def lipschitz(self) -> float:
        return self.cap * max(self.weights)

    def batch(self, values: np.ndarray) -> np.ndarray:
        dists = _member_distances(values, self.centers.stack)
        best = self.weights[0] * next(dists)
        for w, d in zip(self.weights[1:], dists):
            np.minimum(best, w * d, out=best)
        return self.cap * np.minimum(best, 1.0)


@dataclass(frozen=True)
class EquicontinuousFamily:
    """Family with a declared common bound and Lipschitz modulus.

    Construction validates every member against the declared constants;
    a member violating them (for instance the geometric-weight family
    above) is rejected with a ValueError.
    """

    members: tuple[TestFunction, ...]
    bound: float
    lipschitz: float

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("empty family")
        # a nan constant would pass every member: each comparison with it is False
        for name, value in (("bound", self.bound), ("lipschitz", self.lipschitz)):
            if not 0 <= value < math.inf:
                raise ValueError(f"declared {name} must be finite and >= 0, got {value}")
        for k, m in enumerate(self.members):
            if m.bound() > self.bound * (1 + 1e-12):
                raise ValueError(
                    f"member {k} has bound {m.bound()} above the declared {self.bound}"
                )
            if m.lipschitz() > self.lipschitz * (1 + 1e-12):
                raise ValueError(
                    f"member {k} has Lipschitz constant {m.lipschitz()} above the declared {self.lipschitz}"
                )


# ---------------------------------------------------------------------------
# sampling machinery


def _map(fn, items, workers: int | None = None) -> list:
    """``[fn(item) for item in items]``, run on up to ``workers`` threads (default ``_WORKERS``).

    Results come back in item order, and an error is the one the first
    failing item raises, as in the serial loop.  The loop runs inline for
    one worker or one item.
    """
    items = list(items)
    workers = _WORKERS if workers is None else workers
    if workers < 2 or len(items) < 2:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class _Plan:
    """An estimate of n samples from seed: ``run_block`` per block of ``CHUNK``, then ``finish()``.

    ``run_block(offset, size, sub_blocks)`` writes only its block's slice
    of the outputs; ``sub_blocks`` yields ``(lo, increments)`` for the row
    slices of ``rows`` rows of the block's noise, lo counted from offset.
    """

    grid: TimeGrid
    channels: int
    n: int
    seed: int
    rows: int
    run_block: Callable
    finish: Callable


def _run_estimates(plans) -> list:
    """``[plan.finish() for plan in plans]`` once one ``_map`` has run every block of every plan.

    An error is the one the first failing block, plan by plan, raises.
    Each block's noise is drawn whole: drawn one sub-block at a time, it
    was freed piece by piece, glibc handed each piece back to the kernel,
    and every sub-block cost page faults.
    """
    plans = list(plans)

    def one(block):
        plan, offset = block
        size = min(CHUNK, plan.n - offset)
        inc = _noise_block(plan.grid, plan.channels, plan.seed, offset // CHUNK, size)
        plan.run_block(offset, size, ((lo, inc[lo : lo + plan.rows]) for lo in range(0, size, plan.rows)))

    _map(one, [(plan, offset) for plan in plans for offset in range(0, plan.n, CHUNK)])
    return [plan.finish() for plan in plans]


def _sub_block_rows(grid: TimeGrid, dim: int) -> int:
    """Rows per sub-block: a multiple of 8 in [8, CHUNK] whose paths fit ``_SUB_BLOCK_BYTES``."""
    rows = _SUB_BLOCK_BYTES // (8 * (grid.steps + 1) * dim) // 8 * 8
    return min(CHUNK, max(8, rows))


def _girsanov_log_weights(control: Control, increments: np.ndarray, eps: float) -> np.ndarray:
    u = control.values
    dot = np.einsum("bik,ik->b", increments, u)
    return -dot / math.sqrt(eps) - control.squared_l2 / (2.0 * eps)


def _finish_estimate(*, model, x, eps, hits, weights, ess, n, seed) -> LogProbEstimate:
    """One estimate from its hit flags; ``ess`` belongs to ``weights`` (None for plain MC)."""
    hit_count = int(np.sum(hits))
    zero = hit_count == 0
    if weights is None:
        p_hat = hit_count / n
        ci_low, ci_high = wilson_interval(hit_count, n)
        ess = float(n)
        degenerate = False
    else:
        contrib = weights * hits
        # exact zeros leave a correctly rounded sum unchanged; NaN and inf are nonzero
        p_hat = float(math.fsum(memoryview(contrib[np.flatnonzero(contrib)])) / n)
        se = float(np.std(contrib, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        ci_low = max(0.0, p_hat - Z95 * se)
        ci_high = min(1.0, p_hat + Z95 * se)
        degenerate = ess < 10.0
    if p_hat > 0.0:
        log_value = eps * math.log(p_hat)
    else:
        log_value = -math.inf
    start = model._as_state(x)
    return LogProbEstimate(
        eps=eps,
        x=tuple(float(v) for v in start),
        p_hat=p_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        hit_count=hit_count,
        n=n,
        log_value=log_value,
        zero_hit=zero,
        ess=ess,
        seed=seed,
        p_rule_of_three=(3.0 / n) if zero else None,
        degenerate=degenerate,
    )


def _start_key(model: ProcessModel, x) -> bytes:
    """Key of a start for sharing work: starts with one state vector simulate alike."""
    return model._as_state(x).tobytes()


def _extremes_plan(model: ProcessModel, grid: TimeGrid, jobs) -> tuple[dict, list]:
    """Which jobs of a translated-family batch ``mc_probability`` decides from per-sample extremes.

    Returns ``balls`` and ``shapes``: ``balls`` maps such a job's index to
    one ``(key, shape index, center, radius)`` per ball of its event, key
    an int per distinct (center, radius); ``shapes[s]`` is a ball shape
    ``center[1:, 0] - center[0, 0]``.  Every ball union (a ``Ball`` is the
    union of one) whose centers fit the grid is planned; other families
    plan nothing.
    """
    if not isinstance(model, TranslatedBM):
        return {}, []
    ids: dict = {}
    shapes: dict = {}  # shape bytes -> (index, shape)
    balls = {}
    for j, (_, event, _) in enumerate(jobs):
        if not isinstance(event, UnionOfBalls) or event.centers.stack.shape[1:] != (grid.steps + 1, 1):
            continue  # a union off the grid raises the shape error in its hits
        balls[j] = []
        for center, radius in zip(event.centers.stack, event.radii):
            shape = center[1:, 0] - center[0, 0]
            s = shapes.setdefault(shape.tobytes(), (len(shapes), shape))[0]
            balls[j].append((ids.setdefault((center.tobytes(), radius), len(ids)), s, center, radius))
    return balls, [shape for _, shape in shapes.values()]


def _shape_extremes(core: np.ndarray, shape: np.ndarray, buf: np.ndarray) -> tuple:
    """Per-row max and min of ``core[:, 1:, 0] - shape``, and a bound on ``|core|``; ``buf`` holds the differences."""
    diff = buf[: core.shape[0] * shape.size].reshape(core.shape[0], shape.size)
    np.subtract(core[:, 1:, 0], shape, out=diff)
    hi, lo = diff.max(axis=1), diff.min(axis=1)
    return hi, lo, max(abs(float(hi.max())), abs(float(lo.min()))) + float(np.abs(shape).max())


def _effective_sample_size(weights: np.ndarray) -> float:
    wsum = math.fsum(memoryview(weights))
    wsq = math.fsum(memoryview(weights * weights))
    return wsum * wsum / wsq if wsq > 0 else 0.0


def mc_probability(model: ProcessModel, grid: TimeGrid, eps: float, jobs, n: int, seed: int) -> list[LogProbEstimate]:
    """Estimates of P(X^eps_x in event), one per (x, event, tilt) job, all at eps, n and seed.

    A job whose tilt is None is plain Monte Carlo with a Wilson interval; a
    job with a tilt is Girsanov-tilted importance sampling.  This runs
    ``_probability_plan`` alone; a job's estimate equals the one it would
    get on its own, at any sub-block size and worker count, bit for bit.
    """
    return _run_estimates([_probability_plan(model, grid, eps, jobs, n, seed)])[0]


def _probability_plan(model: ProcessModel, grid: TimeGrid, eps: float, jobs, n: int, seed: int) -> _Plan:
    """The plan of ``mc_probability(model, grid, eps, jobs, n, seed)``.

    Each noise block is read by every job.  Jobs with equal tilts form
    one group that shares the simulated core, the Girsanov weights and
    their effective sample size.  Per row sub-block of ``_sub_block_rows``
    rows, each group simulates each distinct start once (a stepped family
    all of them in one walk), and every job at a start reads its paths
    before the next start's paths are read.
    On the translated family a ball-union job (``_extremes_plan``) reads
    no paths: each (start, ball) pair is decided from the group's per-row
    extremes of ``core - shape``, read from one dict by the jobs at that
    start, unless the sub-block's core is not finite.  Each job's flags are packed to bits once per block.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    keys = [
        None if tilt is None else (tilt.grid, tilt.values.shape, tilt.values.tobytes())
        for _, _, tilt in jobs
    ]
    # tilt key -> (tilt, start key -> (start, indices of its jobs))
    groups: dict = {}
    for j, (key, (x, _, tilt)) in enumerate(zip(keys, jobs)):
        starts = groups.setdefault(key, (tilt, {}))[1]
        starts.setdefault(_start_key(model, x), (x, []))[1].append(j)
    balls, shapes = _extremes_plan(model, grid, jobs)
    # tilt key -> indices of the shapes its planned jobs read
    group_shapes = {
        key: sorted({s for _, members in starts.values() for j in members for _, s, _, _ in balls.get(j, ())})
        for key, (_, starts) in groups.items()
    }
    step = _sub_block_rows(grid, model.dim)
    # one bit per sample per job; blocks start at multiples of CHUNK, so of 8
    hits = np.empty((len(jobs), (n + 7) // 8), dtype=np.uint8)
    weights = {key: np.empty(n) for key, (tilt, _) in groups.items() if tilt is not None}

    def screen(members, batch, rows, flags):
        for j in members:
            flags[j, rows] = jobs[j][1].hits(batch)

    def run_planned(tilt, starts, shape_ids, inc, rows, flags, buf):
        core = _translated_core(model, grid, eps, tilt, inc)
        buf = buf[: core.size]
        extremes = {s: _shape_extremes(core, shapes[s], buf) for s in shape_ids}
        # a nan or inf anywhere in the core (whose first column is zero) shows in a bound
        if not all(math.isfinite(scale) for _, _, scale in extremes.values()):
            extremes = {}
        paths = buf.reshape(core.shape)  # written only after the extremes are formed
        for x, members in starts.values():
            x_e = model.effective_start(model._as_state(x), eps)[0]
            planned = [j for j in members if j in balls and extremes]
            if len(planned) < len(members):
                screen([j for j in members if j not in planned], np.add(core, x_e, out=paths), rows, flags)
            decided: dict = {}  # ball key -> its flags at this start, None for no row
            for j in planned:
                out = flags[j, rows]
                out[:] = False
                for key, s, center, radius in balls[j]:
                    if key not in decided:
                        decided[key] = _ball_from_extremes(core, *extremes[s], x_e, center, radius)
                    if decided[key] is not None:
                        out |= decided[key]

    def run_block(offset, size, sub_blocks):
        flags = np.empty((len(jobs), size), dtype=bool)
        # one buffer per block for the planned groups: freeing one per sub-block cost page faults
        buf = np.empty(step * (grid.steps + 1)) if balls else None
        for lo, inc in sub_blocks:
            rows = slice(lo, lo + len(inc))
            for key, (tilt, starts) in groups.items():
                if group_shapes[key]:
                    run_planned(tilt, starts, group_shapes[key], inc, rows, flags, buf)
                else:
                    paths = simulate_starts(model, grid, [x for x, _ in starts.values()], eps, tilt, inc)
                    for (_, members), batch in zip(starts.values(), paths):
                        screen(members, batch, rows, flags)
                if tilt is not None:
                    weights[key][offset + lo : offset + rows.stop] = np.exp(_girsanov_log_weights(tilt, inc, eps))
        hits[:, offset // 8 : (offset + size + 7) // 8] = np.packbits(flags, axis=1)

    def finish():
        ess = {key: _effective_sample_size(w) for key, w in weights.items()}
        return [
            _finish_estimate(
                model=model, x=x, eps=eps, hits=np.unpackbits(packed, count=n).view(bool),
                weights=weights.get(key), ess=ess.get(key), n=n, seed=seed,
            )
            for (x, _, _), key, packed in zip(jobs, keys, hits)
        ]

    return _Plan(grid, model.channels, n, seed, step, run_block, finish)


def is_probability(
    model: ProcessModel,
    grid: TimeGrid,
    x,
    eps: float,
    event: EventSpec,
    tilt: Control,
    n: int,
    seed: int,
) -> LogProbEstimate:
    """Girsanov-tilted importance sampling estimate of P(X^eps_x in event): ``mc_probability`` of one job."""
    return mc_probability(model, grid, eps, [(x, event, tilt)], n, seed)[0]


def laplace_functional(
    model: ProcessModel, grid: TimeGrid, xs, eps: float, h: TestFunction, n: int, seed: int
) -> list[float]:
    """Estimates of eps * log E exp(-h(X^eps_x) / eps), one per start x in ``xs``.

    The exponent is max-shifted (log-sum-exp) before exponentiation, so
    constant h returns exactly -h and rare large values cannot
    underflow the whole sum.  This runs ``_laplace_plan`` alone: each
    noise block is read by every start, in row sub-blocks as in
    ``mc_probability``, and each value equals the one its start would get
    on its own.
    """
    return _run_estimates([_laplace_plan(model, grid, xs, eps, h, n, seed)])[0]


def _laplace_plan(model: ProcessModel, grid: TimeGrid, xs, eps: float, h: TestFunction, n: int, seed: int) -> _Plan:
    """The plan of ``laplace_functional(model, grid, xs, eps, h, n, seed)``."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    exponents = np.empty((len(xs), n))
    step = _sub_block_rows(grid, model.dim)

    def run_block(offset, size, sub_blocks):
        for lo, inc in sub_blocks:
            for row, paths in zip(exponents, simulate_starts(model, grid, xs, eps, None, inc)):
                row[offset + lo : offset + lo + len(inc)] = -h.batch(paths) / eps

    def finish():
        return [eps * float(_logsumexp(row) - math.log(n)) for row in exponents]

    return _Plan(grid, model.channels, n, seed, step, run_block, finish)


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-d float64 row, op for op as in scipy 1.17's ``logsumexp``.

    The shifted form of Blanchard, Higham and Higham (IMA J. Numer. Anal.
    41 (2021)): the m entries equal to the max are taken out of the sum,
    which is scaled by 1/m, so log1p keeps its precision.  Where that is not
    finite (the max is +-inf or NaN) the direct log(sum(exp(a))) stands.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.max(a)
        top = a == a_max
        m = np.float64(np.count_nonzero(top))
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
    if np.isfinite(out):
        return out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.log(np.sum(np.exp(a)))


# ---------------------------------------------------------------------------
# deterministic quadrature oracle for tiny grids


def _last_step_sections(
    margin_fn, combos: np.ndarray, lo: float, hi: float, scan: int = 257
) -> list[list[tuple[float, float]]]:
    """Per row of ``combos``, the subintervals of [lo, hi] where a continuous margin is positive.

    ``margin_fn(rows, zlast)`` scores a batch of (outer increments, last
    increment) pairs.  The scan is one batch; then every sign change of
    every row is bisected to 1e-13 absolute, all live brackets in one
    batch per step, and a bracket stops once it is that narrow.
    """
    zs = np.linspace(lo, hi, scan)
    pos = margin_fn(np.repeat(combos, scan, axis=0), np.tile(zs, len(combos))).reshape(len(combos), scan) > 0
    rows, cols = np.nonzero(pos[:, 1:] != pos[:, :-1])
    a, b, left_pos = zs[cols], zs[cols + 1], pos[rows, cols]  # a keeps the sign of its scan point
    live = np.arange(len(a))
    for _ in range(60):
        if not live.size:
            break
        mid = 0.5 * (a[live] + b[live])
        left = (margin_fn(combos[rows[live]], mid) > 0) == left_pos[live]
        a[live] = np.where(left, mid, a[live])
        b[live] = np.where(left, b[live], mid)
        live = live[b[live] - a[live] >= 1e-13]
    bounds: list[list[float]] = [[lo] if p else [] for p in pos[:, 0]]
    for r, root in zip(rows.tolist(), (0.5 * (a + b)).tolist()):
        bounds[r].append(root)
    for r in np.flatnonzero(pos[:, -1]):
        bounds[r].append(hi)
    return [list(zip(bd[::2], bd[1::2])) for bd in bounds]


def quadrature_probability(
    model: ProcessModel,
    grid: TimeGrid,
    x,
    eps: float,
    event: EventSpec,
    nodes: int = 20,
) -> float:
    """Quadrature value of P(X^eps_x in event) for small scalar grids.

    Tensor Gauss-Hermite over the Gaussian increments but the last; the
    final increment is integrated exactly against the normal density
    over the sections where the event margin is positive (found by scan
    and bisection), which removes the indicator discontinuity from the
    quadrature dimensions.  The nodes run in chunks of 512 tensor
    points, each one batch of scans and of bisection steps.
    """
    if model.channels != 1 or model.dim != 1:
        raise ShapeMismatchError("quadrature oracle covers scalar single-channel models")
    if grid.steps > 4:
        raise ValueError("quadrature oracle is for grids with at most 4 steps")
    from numpy.polynomial.hermite_e import hermegauss

    z, w = hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)  # weights of the standard normal density
    sdt = math.sqrt(grid.dt)
    steps = grid.steps
    outer = steps - 1

    # tensor grid over the outer increments
    if outer == 0:
        combos = np.zeros((1, 0))
        cw = np.ones(1)
    else:
        grids = np.meshgrid(*([z] * outer), indexing="ij")
        combos = np.stack([g.reshape(-1) for g in grids], axis=1)
        wgrids = np.meshgrid(*([w] * outer), indexing="ij")
        cw = np.ones(combos.shape[0])
        for g in wgrids:
            cw = cw * g.reshape(-1)

    def margins(rows: np.ndarray, zlast: np.ndarray) -> np.ndarray:
        inc = np.empty((zlast.shape[0], steps, 1))
        inc[:, :outer, 0] = rows * sdt
        inc[:, outer, 0] = zlast * sdt
        return event.margins(simulate_batch(model, grid, x, eps, None, inc))

    total = 0.0
    span = 10.0  # integrate the last increment over +-10 standard deviations
    for start in range(0, len(combos), 512):
        chunk = slice(start, start + 512)
        for sections, weight in zip(_last_step_sections(margins, combos[chunk], -span, span), cw[chunk]):
            mass = 0.0
            for a, b in sections:
                # the standard normal cdf is erfc(-z / sqrt 2) / 2
                mass += 0.5 * (math.erfc(-b / math.sqrt(2.0)) - math.erfc(-a / math.sqrt(2.0)))
            total += float(weight) * mass
    return total


# ---------------------------------------------------------------------------
# exact band-propagation oracle


def band_probability(
    model: ProcessModel,
    grid: TimeGrid,
    x,
    eps: float,
    event: EventSpec,
    nodes: int = 200,
) -> float:
    """Exact P(X^eps_x in event) for a one-tube event (``event.bands(grid)``) on the translated family.

    Propagates the Gaussian transition density through the per-time
    intervals of the event on Gauss-Legendre panels; smooth integrands
    make this converge to well below Monte Carlo resolution, so it
    serves as the reference the sampling estimators are audited against.
    Unlike the sampled estimators this treats interval endpoints as
    immaterial (the law is atomless).  The kernel is the Brownian one, so
    another family, or an event that is not one tube, raises TypeError.
    """
    from numpy.polynomial.legendre import leggauss

    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if not isinstance(model, TranslatedBM):
        raise TypeError(f"band oracle covers the translated family, not {model.name}")
    tube = event.bands(grid)
    if tube is None or len(tube[0]) != 1:
        raise TypeError(f"band oracle needs an event of one tube, not {type(event).__name__}")
    bands = list(zip(tube[0][0].tolist(), tube[1][0].tolist()))
    start = float(model.effective_start(model._as_state(x), eps)[0])
    lo0, hi0 = bands[0]
    if not lo0 < start < hi0:
        return 0.0
    sigma = math.sqrt(eps * grid.dt)
    # clip unbounded band ends to +-9 diffusion standard deviations
    def clipped(i: int) -> tuple[float, float]:
        lo, hi = bands[i]
        reach = 9.0 * sigma * math.sqrt(i)
        lo = max(lo, start - reach)
        hi = min(hi, start + reach)
        return lo, hi

    z, w = leggauss(nodes)

    def panel(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        half = 0.5 * (hi - lo)
        return lo + half * (z + 1.0), w * half

    def kernel(y: np.ndarray, zpts: np.ndarray) -> np.ndarray:
        d = y[:, None] - zpts[None, :]
        return np.exp(-0.5 * (d / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

    lo, hi = clipped(1)
    if hi <= lo:
        return 0.0
    pts, wts = panel(lo, hi)
    dens = kernel(pts, np.array([start]))[:, 0]
    for i in range(2, grid.steps + 1):
        lo, hi = clipped(i)
        if hi <= lo:
            return 0.0
        new_pts, new_wts = panel(lo, hi)
        dens = kernel(new_pts, pts) @ (wts * dens)
        pts, wts = new_pts, new_wts
    return float(np.dot(wts, dens))
