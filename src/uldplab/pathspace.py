"""Discrete path space: time grids, piecewise-linear paths, metrics, events.

Paths live on a uniform grid over [0, T] and take values in R^d.  All
metrics are evaluated at grid points only; the piecewise-linear
interpolant between grid points is implied but never sampled.  Events
are described by a small algebra of set specifications, each of which
reports a signed margin: positive means the path is inside the set,
negative means outside, and the magnitude is a (conservative) distance
to the boundary.  Shrunk and fattened versions of a set are obtained by
thresholding the margin, which is how the locally uniform definitions
consume events.

``EventSpec.hits(values)`` answers only the sign: for every input it is
bit for bit ``margins(values) > 0.0``, and it is what the probability
estimators read.  Balls, ball unions and distance-at-least sets answer
it without forming the margin: a row leaves a ball at its first grid
point with norm >= radius, a union skips balls for rows already inside
one, and a row leaves a distance-at-least set once its whole path lies
within the threshold of some member.  When more than half of the rows
are still open after the first grid point, the full distances are
formed in one pass instead.  For scalar paths x + core,
``_ball_from_extremes`` answers a ball from the per-row max and min of
core minus the ball's shape, with the same flags.  ``margins`` keeps the full distances for
the rate side, the tilt scan, quadrature and the CLI.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "TimeGrid",
    "DiscretePath",
    "PathSet",
    "EventSpec",
    "Ball",
    "UnionOfBalls",
    "DistanceAtLeast",
    "TerminalAtLeast",
    "Intersection",
    "sup_metric",
    "hausdorff",
    "line_path",
    "constant_path",
]

FLOAT_FMT = ".17g"


def _write_json(path: str, doc) -> None:
    """Write ``doc`` to ``path`` as JSON indented by 2, ending in a newline: the report file format."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


class ShapeMismatchError(ValueError):
    """Grids or dimensions of two objects do not agree."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = horizon."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        # i * dt rather than linspace so that dyadic horizons give exact
        # increments (t_{i+1} - t_i == dt bit-for-bit when dt is a power of 2)
        return np.arange(self.steps + 1) * self.dt


def _check_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    if a != b:
        raise ShapeMismatchError(f"grids differ: {a} vs {b}")


@dataclass(frozen=True)
class DiscretePath:
    """Values of a path at the grid points, shape (steps + 1, dim)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.steps + 1:
            raise ShapeMismatchError(
                f"values shape {v.shape} does not match grid with {self.grid.steps} steps"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def translate(self, offset) -> "DiscretePath":
        off = np.asarray(offset, dtype=float).reshape(-1)
        if off.size == 1 and self.dim != 1:
            off = np.full(self.dim, off[0])
        if off.size != self.dim:
            raise ShapeMismatchError(f"offset size {off.size} != dim {self.dim}")
        return DiscretePath(self.grid, self.values + off)

    def initial(self) -> np.ndarray:
        return self.values[0]

    def terminal(self) -> np.ndarray:
        return self.values[-1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t"] + [f"x{j}" for j in range(self.dim)])
        times = self.grid.times
        for i in range(self.grid.steps + 1):
            writer.writerow(
                [format(times[i], FLOAT_FMT)]
                + [format(self.values[i, j], FLOAT_FMT) for j in range(self.dim)]
            )
        return buf.getvalue()

    def save_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    @staticmethod
    def from_csv(text_or_path: str) -> "DiscretePath":
        if "\n" not in text_or_path:
            with open(text_or_path, "r", newline="") as fh:
                text = fh.read()
        else:
            text = text_or_path
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        if not header or header[0] != "t":
            raise ValueError("first CSV column must be t")
        for line, row in enumerate(body, start=2):
            if len(row) != len(header):
                raise ShapeMismatchError(f"CSV line {line} has {len(row)} fields but the header has {len(header)}")
        times = np.array([float(r[0]) for r in body])
        values = np.array([[float(c) for c in r[1:]] for r in body])
        if len(times) < 2:
            raise ValueError("need at least two grid points")
        horizon = float(times[-1])
        grid = TimeGrid(horizon, len(times) - 1)
        if not np.allclose(times, grid.times, rtol=0.0, atol=1e-9 * max(1.0, horizon)):
            raise ValueError("CSV times are not a uniform grid starting at 0")
        return DiscretePath(grid, values)


def line_path(grid: TimeGrid, start: float, slope: float) -> DiscretePath:
    """Scalar path start + slope * t."""
    return DiscretePath(grid, start + slope * grid.times)


def constant_path(grid: TimeGrid, value, dim: int | None = None) -> DiscretePath:
    v = np.asarray(value, dtype=float).reshape(-1)
    if dim is not None and v.size == 1:
        v = np.full(dim, v[0])
    return DiscretePath(grid, np.tile(v, (grid.steps + 1, 1)))


class PathSet:
    """Finite nonempty collection of paths on a common grid."""

    def __init__(self, members: list[DiscretePath]):
        if not members:
            raise ValueError("a path set must be nonempty")
        grid = members[0].grid
        dim = members[0].dim
        for p in members[1:]:
            _check_same_grid(grid, p.grid)
            if p.dim != dim:
                raise ShapeMismatchError("path dimensions differ inside a set")
        self.members = list(members)
        self.grid = grid
        self.dim = dim
        # stacked view (count, steps+1, dim) for vectorized distances
        self.stack = np.stack([p.values for p in members])

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _point_norms(diff: np.ndarray) -> np.ndarray:
    # diff: (..., steps+1, dim) -> euclidean norm in R^d at each grid point
    if diff.shape[-1] == 1:
        return np.abs(diff[..., 0])
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _norms_along_dim(diff: np.ndarray) -> np.ndarray:
    # diff: (..., steps+1, dim) -> sup over time of euclidean norm in R^d
    return np.max(_point_norms(diff), axis=-1)


def sup_metric(a: DiscretePath, b: DiscretePath) -> float:
    """sup over grid points of |a(t_i) - b(t_i)|_2."""
    _check_same_grid(a.grid, b.grid)
    if a.dim != b.dim:
        raise ShapeMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    return float(_norms_along_dim(a.values - b.values))


def _member_distances(values: np.ndarray, stack: np.ndarray):
    """Yield the sup distance of every row of ``values`` to each member of ``stack``.

    values: (B, steps+1, dim), stack: (count, steps+1, dim); each yield
    has shape (B,) and equals ``_norms_along_dim(values - member)``.
    Scalar paths reuse one (B, steps+1) buffer for all members.
    """
    if values.shape[-1] != 1 or stack.shape[-1] != 1:
        for member in stack:
            yield _norms_along_dim(values - member)
        return
    flat = values[..., 0]
    buf = np.empty(flat.shape)
    for member in stack:
        np.subtract(flat, member[:, 0], out=buf)
        np.abs(buf, out=buf)
        yield buf.max(axis=-1)


def _dist_batch(values: np.ndarray, target: PathSet) -> np.ndarray:
    """values: (B, steps+1, dim) -> distance of each row to the set."""
    dists = _member_distances(values, target.stack)
    best = next(dists)
    for d in dists:
        np.minimum(best, d, out=best)
    return best


# Grid columns read before each narrowing of the open rows: chunks of 1, 8,
# 24 and then the rest of the path.  A thin first chunk settles most rows
# that start away from a center; later ones amortize the gather.
_SCREEN_STOPS = (1, 9, 33)


def _within(values: np.ndarray, rows: np.ndarray, center: np.ndarray, bound: float, below) -> np.ndarray:
    """The entries of ``rows`` with ``below(norm, bound)`` at every grid point.

    norm is the per-point distance of a row of ``values`` (B, steps+1,
    dim) to ``center`` (steps+1, dim), formed exactly as in
    ``_norms_along_dim``, and ``below`` is ``np.less`` or
    ``np.less_equal``.  Columns of the open rows are gathered in the
    chunks of ``_SCREEN_STOPS`` and a row leaves at the first chunk with
    a failing point.  If more than half of all B rows are still open
    after a chunk, the sup distance of every row is formed in one pass
    instead, which costs no more than ``margins``.
    """
    if center.shape != values.shape[1:]:
        raise ShapeMismatchError(f"paths of shape {values.shape[1:]} vs center {center.shape}")
    cols = values.shape[1]
    start = 0
    for stop in (*(s for s in _SCREEN_STOPS if s < cols), cols):
        if not rows.size:
            break
        if start and 2 * rows.size > len(values):
            return rows[below(next(_member_distances(values, center[None]))[rows], bound)]
        part = slice(start, stop)
        rows = rows[below(_point_norms(values[rows, part] - center[part]), bound).all(axis=-1)]
        start = stop
    return rows


def _any_within(values: np.ndarray, centers: np.ndarray, radii, below) -> np.ndarray:
    """Flags of the rows of ``values`` within some center: ``below(norm, radius)`` at every grid point.

    ``below`` is ``np.less`` for open balls and ``np.less_equal`` for
    closed ones, as in ``_within``; each center tests only the rows that
    no earlier center caught.
    """
    out = np.zeros(len(values), dtype=bool)
    for center, r in zip(centers, radii):
        out[_within(values, np.flatnonzero(~out), center, r, below)] = True
    return out


# tau of ``_ball_from_extremes`` per unit of magnitude: 32 unit roundoffs,
# about three times the rounding its two ways of forming a distance can differ by
_EXTREMES_SLACK = 2.0**-48


def _ball_from_extremes(core, hi, lo, scale, x, center, radius) -> np.ndarray | None:
    """Rows of the scalar paths ``core + x`` inside the open ball, bit for bit as ``_any_within``; None for no row.

    ``core`` (B, steps+1, 1) has a zero first column, and ``hi`` and
    ``lo`` are the per-row max and min of ``core[:, 1:, 0] - shape``,
    shape being ``center[1:, 0] - center[0, 0]``; ``scale`` bounds
    ``|core|``.  Column 0 is x for every row, so it is decided once, as
    the exact test forms it.  At the later columns the path's distance
    is ``hi`` or ``lo`` plus ``x - center[0]`` up to a few roundings of
    the magnitudes involved, which the margin tau covers; rows within tau
    of the radius go through the exact screen.
    """
    x, c0 = float(x), float(center[0, 0])
    if not abs(x - c0) < radius:
        return None
    tau = _EXTREMES_SLACK * (scale + abs(x) + float(np.abs(center).max()) + radius)
    d = x - c0
    inside = (hi < radius - tau - d) & (lo > tau - radius - d)
    # rows not surely outside: with a non-finite tau, every row
    unsure = ~inside
    if math.isfinite(tau):
        unsure &= (hi <= radius + tau - d) & (lo >= -radius - tau - d)
    rows = np.flatnonzero(unsure)
    if rows.size:
        inside[rows[_within(core[rows] + x, np.arange(rows.size), center, radius, np.less)]] = True
    return inside


def hausdorff(a: PathSet, b: PathSet) -> float:
    """Hausdorff distance, the max of the two one-sided sup-inf distances."""
    _check_same_grid(a.grid, b.grid)
    if a.dim != b.dim:
        raise ShapeMismatchError("dimension mismatch between path sets")
    one = float(np.max(_dist_batch(a.stack, b)))
    two = float(np.max(_dist_batch(b.stack, a)))
    return max(one, two)


# ---------------------------------------------------------------------------
# events


class EventSpec:
    """Base class; subclasses implement a vectorized signed margin."""

    def margins(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hits(self, values: np.ndarray) -> np.ndarray:
        """Membership of each row, bit for bit ``self.margins(values) > 0.0``.

        Balls, ball unions and distance-at-least sets raise
        ``ShapeMismatchError`` for paths off the event's grid or dimension.
        """
        return self.margins(values) > 0.0

    def margin(self, path: DiscretePath) -> float:
        return float(self.margins(path.values[None])[0])


@dataclass(frozen=True)
class Ball(EventSpec):
    """Open sup-metric ball around a center path."""

    center: DiscretePath
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def margins(self, values: np.ndarray) -> np.ndarray:
        return self.radius - next(_member_distances(values, self.center.values[None]))

    def hits(self, values: np.ndarray) -> np.ndarray:
        return _any_within(values, self.center.values[None], (self.radius,), np.less)


@dataclass(frozen=True)
class UnionOfBalls(EventSpec):
    """Union of open balls; margin is the best single-ball margin."""

    centers: PathSet
    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.radii) != len(self.centers):
            raise ShapeMismatchError("one radius per center required")
        if not all(r > 0 for r in self.radii):
            raise ValueError("radii must be positive")

    def margins(self, values: np.ndarray) -> np.ndarray:
        dists = _member_distances(values, self.centers.stack)
        best = self.radii[0] - next(dists)
        for r, d in zip(self.radii[1:], dists):
            np.maximum(best, r - d, out=best)
        return best

    def hits(self, values: np.ndarray) -> np.ndarray:
        return _any_within(values, self.centers.stack, self.radii, np.less)


@dataclass(frozen=True)
class DistanceAtLeast(EventSpec):
    """Closed set {phi : dist(phi, targets) >= threshold}."""

    targets: PathSet
    threshold: float

    def __post_init__(self) -> None:
        if not self.threshold >= 0:
            raise ValueError("threshold must be nonnegative")

    def margins(self, values: np.ndarray) -> np.ndarray:
        return _dist_batch(values, self.targets) - self.threshold

    def hits(self, values: np.ndarray) -> np.ndarray:
        far = ~_any_within(values, self.targets.stack, (self.threshold,) * len(self.targets), np.less_equal)
        # a nan point makes every distance of its row nan, and so a miss,
        # even where an earlier point already showed the row far away
        if far.any():
            far &= ~np.isnan(values).any(axis=(1, 2))
        return far


@dataclass(frozen=True)
class TerminalAtLeast(EventSpec):
    """Closed halfspace {phi : phi(T)[coordinate] >= level}."""

    level: float
    coordinate: int = 0

    def margins(self, values: np.ndarray) -> np.ndarray:
        return values[:, -1, self.coordinate] - self.level


@dataclass(frozen=True)
class Intersection(EventSpec):
    parts: tuple[EventSpec, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("intersection of nothing")

    def margins(self, values: np.ndarray) -> np.ndarray:
        out = self.parts[0].margins(values)
        for part in self.parts[1:]:
            out = np.minimum(out, part.margins(values))
        return out
