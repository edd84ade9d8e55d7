"""Derivative-free maximization oracles: exhaustive grids, downhill simplex.

These exist to validate closed-form optima independently, so they favor
determinism over speed: no randomness anywhere, stable tie-breaks, and
reproducible evaluation counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._elementwise import FLOAT_MAX, check_range, check_scalar, np, ordered_sum

SIMPLEX_DIAMETER_TOL = 1e-9
SIMPLEX_MAX_EVALS = 100_000


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned box with a lattice resolution per dimension."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    resolution: tuple[int, ...]

    def __post_init__(self) -> None:
        if not len(self.lower) == len(self.upper) == len(self.resolution):
            raise ValueError("lower, upper and resolution must share a length")
        for lo, hi, res in zip(self.lower, self.upper, self.resolution):
            for x in (lo, hi):  # arrays, NaN and complex bounds fail here, before the order
                check_scalar("bounds", x, "scalars")
                check_range(x, -FLOAT_MAX, FLOAT_MAX, "bounds must be finite, got [{}, {}]", lo, hi)
            if not lo < hi:
                raise ValueError(f"need lower < upper, got [{lo}, {hi}]")
            if type(res) is not int and not isinstance(res, (int, np.integer)):
                raise ValueError(f"resolution must be an integer, got {res!r}")
            if res < 2:
                raise ValueError(f"resolution must be at least 2, got {res}")

    @classmethod
    def cube(cls, lower: float, upper: float, resolution: int, dim: int) -> SearchBox:
        return cls((lower,) * dim, (upper,) * dim, (resolution,) * dim)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, res)
            for lo, hi, res in zip(self.lower, self.upper, self.resolution)
        ]

    def contains(self, point: Sequence[float]) -> bool:
        # a NaN coordinate compares False, so it lies outside
        return all(lo <= x <= hi for x, lo, hi in zip(point, self.lower, self.upper))


@dataclass(frozen=True)
class SearchResult:
    argmax: np.ndarray
    value: float
    evaluations: int
    converged: bool = True


def _safe_value(objective: Callable[[np.ndarray], float], point: np.ndarray) -> float:
    # a point where the objective errors out simply loses the comparison
    try:
        value = float(objective(point))
    except Exception:
        return -math.inf
    return -math.inf if math.isnan(value) else value


def _lattice_values(objective: Callable[[np.ndarray], float], points: np.ndarray):
    """The objective at every point from one call on the (dim, N) lattice,
    or None when it does not evaluate arrays: it raised, or it returned
    anything but a float array of shape (N,)."""
    try:
        values = objective(points.T)
    except Exception:
        return None
    if not (
        isinstance(values, np.ndarray) and values.dtype == float and values.shape == points.shape[:1]
    ):
        return None
    return np.where(np.isnan(values), -math.inf, values)


def grid_maximize(
    objective: Callable[[np.ndarray], float], box: SearchBox
) -> SearchResult:
    """Evaluate every lattice point and return the best.

    The objective is first called once on the whole lattice, a (dim, N)
    array whose columns are the points. When that gives a float array of
    shape (N,), it holds the values; otherwise, when the call raises (an
    array call fails as a whole where one point fails) or returns anything
    else, the objective is called point by point on (dim,) arrays, and a
    point where it raises scores -inf. NaN scores -inf either way.

    Ties break to the lexicographically smallest argmax (first hit in
    C-order).
    """
    mesh = np.meshgrid(*box.axes(), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    values = _lattice_values(objective, points)
    if values is None:
        values = np.fromiter(
            (_safe_value(objective, pt) for pt in points), dtype=float, count=len(points)
        )
    best = int(np.argmax(values))
    return SearchResult(points[best].copy(), float(values[best]), len(points))


def _toward(a: list[float], b: list[float], t: float) -> list[float]:
    """a + t (a - b) per coordinate: every move of the simplex."""
    return [x + t * (x - y) for x, y in zip(a, b)]


def simplex_maximize(
    objective: Callable[[np.ndarray], float],
    start: np.ndarray,
    box: SearchBox,
) -> SearchResult:
    """Downhill-simplex ascent from start, confined to the box.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5. Stops when the
    vertex spread drops below 1e-9 in every coordinate or the evaluation
    budget runs out (converged=False then). Points outside the box score
    -inf, which keeps the walk inside without gradient projections.

    Each vertex is a (value, point) pair of Python floats; the objective
    still gets each point as a (dim,) array.
    """
    start = np.asarray(start, dtype=float)
    if start.shape != (box.dim,):
        raise ValueError(f"start must have shape ({box.dim},), got {start.shape}")
    first = start.tolist()
    if not box.contains(first):
        raise ValueError("start must lie inside the box")

    evals = 0

    def vertex(point: list[float]) -> tuple[float, list[float]]:
        nonlocal evals
        evals += 1
        value = _safe_value(objective, np.array(point)) if box.contains(point) else -math.inf
        return value, point

    simplex = [vertex(first)]
    for axis, hi in enumerate(box.upper):
        step = float(0.05 * (hi - box.lower[axis]))  # numpy-scalar bounds would give numpy points
        point = first.copy()
        # step outward, flipping direction at the wall
        point[axis] += step if point[axis] + step <= hi else -step
        simplex.append(vertex(point))

    while True:
        # stable: equal values keep their order, for the vertex returned out of budget too
        simplex.sort(key=lambda pair: pair[0], reverse=True)
        (top, best), (low, worst) = simplex[0], simplex[-1]
        points = [p for _, p in simplex]
        spread = max(max(x) - min(x) for x in zip(*points))
        if spread < SIMPLEX_DIAMETER_TOL or evals >= SIMPLEX_MAX_EVALS:
            return SearchResult(np.array(best), top, evals, evals < SIMPLEX_MAX_EVALS)

        # rows added in order, then divided, as numpy's mean over axis 0 does
        centroid = [ordered_sum(x) / box.dim for x in zip(*points[:-1])]
        reflected = vertex(_toward(centroid, worst, 1))
        if reflected[0] > top:
            expanded = vertex(_toward(centroid, worst, 2))
            simplex[-1] = expanded if expanded[0] > reflected[0] else reflected
        elif reflected[0] > simplex[-2][0]:
            simplex[-1] = reflected
        else:  # contract toward the reflection when it beats the worst vertex, else toward that
            outside = reflected[0] > low
            contracted = vertex(_toward(centroid, reflected[1] if outside else worst, -0.5))
            kept = contracted[0] >= reflected[0] if outside else contracted[0] > low
            if kept:
                simplex[-1] = contracted
            else:  # shrink toward the best vertex
                simplex[1:] = [vertex(_toward(best, p, -0.5)) for _, p in simplex[1:]]


def stationarity_check(
    objective: Callable[[np.ndarray], float],
    point: np.ndarray,
    step: float,
) -> float:
    """Largest central-difference gradient component at an interior point."""
    point = np.asarray(point, dtype=float)
    check_scalar("step", step)
    check_range(step, math.ulp(0.0), FLOAT_MAX, "step must be finite and positive, got {!r}")
    slopes = []
    for axis in range(point.size):
        offset = np.zeros_like(point)
        offset[axis] = step
        slopes.append((objective(point + offset) - objective(point - offset)) / (2.0 * step))
    # NaN when any slope is NaN, which Python's max would drop
    return float(np.max(np.abs(slopes), initial=0.0))
