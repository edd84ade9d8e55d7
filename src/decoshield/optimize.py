"""Derivative-free maximization oracles: exhaustive grids, downhill simplex.

These exist to validate closed-form optima independently, so they favor
determinism over speed: no randomness anywhere, stable tie-breaks, and
reproducible evaluation counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
            if not lo < hi:
                raise ValueError(f"need lower < upper, got [{lo}, {hi}]")
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

    def contains(self, point: np.ndarray) -> bool:
        return bool(
            np.all(point >= np.asarray(self.lower))
            and np.all(point <= np.asarray(self.upper))
        )


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


def grid_maximize(
    objective: Callable[[np.ndarray], float], box: SearchBox
) -> SearchResult:
    """Evaluate every lattice point and return the best.

    Ties break to the lexicographically smallest argmax (first hit in
    C-order).
    """
    mesh = np.meshgrid(*box.axes(), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    values = np.fromiter(
        (_safe_value(objective, pt) for pt in points), dtype=float, count=len(points)
    )
    best = int(np.argmax(values))
    return SearchResult(points[best].copy(), float(values[best]), len(points))


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
    """
    start = np.asarray(start, dtype=float)
    if start.shape != (box.dim,):
        raise ValueError(f"start must have shape ({box.dim},), got {start.shape}")
    if not box.contains(start):
        raise ValueError("start must lie inside the box")

    evals = 0

    def probe(point: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        if not box.contains(point):
            return -math.inf
        return _safe_value(objective, point)

    verts = [start.copy()]
    for axis in range(box.dim):
        step = 0.05 * (box.upper[axis] - box.lower[axis])
        vert = start.copy()
        # step outward, flipping direction at the wall
        vert[axis] += step if vert[axis] + step <= box.upper[axis] else -step
        verts.append(vert)
    verts = np.array(verts)
    vals = np.array([probe(v) for v in verts])

    while evals < SIMPLEX_MAX_EVALS:
        order = np.argsort(-vals, kind="stable")
        verts, vals = verts[order], vals[order]
        if float(np.max(np.ptp(verts, axis=0))) < SIMPLEX_DIAMETER_TOL:
            return SearchResult(verts[0].copy(), float(vals[0]), evals, True)

        centroid = verts[:-1].mean(axis=0)
        reflected = centroid + (centroid - verts[-1])
        f_r = probe(reflected)
        if f_r > vals[0]:
            expanded = centroid + 2.0 * (centroid - verts[-1])
            f_e = probe(expanded)
            if f_e > f_r:
                verts[-1], vals[-1] = expanded, f_e
            else:
                verts[-1], vals[-1] = reflected, f_r
            continue
        if f_r > vals[-2]:
            verts[-1], vals[-1] = reflected, f_r
            continue
        if f_r > vals[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
            f_c = probe(contracted)
            if f_c >= f_r:
                verts[-1], vals[-1] = contracted, f_c
                continue
        else:
            contracted = centroid - 0.5 * (centroid - verts[-1])
            f_c = probe(contracted)
            if f_c > vals[-1]:
                verts[-1], vals[-1] = contracted, f_c
                continue
        verts[1:] = verts[0] + 0.5 * (verts[1:] - verts[0])
        vals[1:] = [probe(v) for v in verts[1:]]

    top = int(np.argmax(vals))
    return SearchResult(verts[top].copy(), float(vals[top]), evals, False)


def stationarity_check(
    objective: Callable[[np.ndarray], float],
    point: np.ndarray,
    step: float,
) -> float:
    """Largest central-difference gradient component at an interior point."""
    point = np.asarray(point, dtype=float)
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    worst = 0.0
    for axis in range(point.size):
        offset = np.zeros_like(point)
        offset[axis] = step
        slope = (objective(point + offset) - objective(point - offset)) / (2.0 * step)
        worst = max(worst, abs(float(slope)))
    return worst
