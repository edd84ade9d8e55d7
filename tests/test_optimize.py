import math

import numpy as np
import pytest

import decoshield.optimize as optimize
from decoshield.channels import GadParams
from decoshield.optimize import (
    SearchBox,
    grid_maximize,
    simplex_maximize,
    stationarity_check,
)
from decoshield.qubit import optimal_strengths, protect_equatorial


def test_box_validation():
    with pytest.raises(ValueError, match="share a length"):
        SearchBox((0.0,), (1.0, 2.0), (5, 5))
    with pytest.raises(ValueError, match="lower < upper"):
        SearchBox((1.0,), (1.0,), (5,))
    with pytest.raises(ValueError, match="at least 2"):
        SearchBox((0.0,), (1.0,), (1,))


def test_box_helpers():
    box = SearchBox.cube(0.0, 2.0, 5, 3)
    assert box.dim == 3
    axes = box.axes()
    assert len(axes) == 3
    assert np.allclose(axes[0], [0.0, 0.5, 1.0, 1.5, 2.0])
    assert box.contains(np.array([0.0, 2.0, 1.0]))
    assert not box.contains(np.array([0.0, 2.1, 1.0]))


def test_grid_finds_quadratic_peak():
    box = SearchBox((0.0,), (1.0,), (101,))
    res = grid_maximize(lambda x: -((x[0] - 0.5) ** 2), box)
    assert abs(res.argmax[0] - 0.5) < 1e-12
    assert abs(res.value) < 1e-12
    assert res.evaluations == 101
    assert res.converged


def test_grid_tie_breaks_to_first_lattice_point():
    box = SearchBox.cube(0.0, 1.0, 3, 2)
    res = grid_maximize(lambda x: 1.0, box)
    assert np.allclose(res.argmax, [0.0, 0.0])


def test_grid_survives_erroring_objective():
    def touchy(x):
        if x[0] < 0.5:
            raise RuntimeError("pole")
        if x[0] > 0.9:
            return math.nan
        return x[0]

    res = grid_maximize(touchy, SearchBox((0.0,), (1.0,), (11,)))
    assert abs(res.argmax[0] - 0.9) < 1e-12


def test_grid_locates_fidelity_optimum():
    params = GadParams(0.8, 0.3)
    best = optimal_strengths(params)
    box = SearchBox.cube(1e-3, 2.0, 400, 2)
    res = grid_maximize(
        lambda x: protect_equatorial(params, x[0], x[1]).fidelity, box
    )
    assert abs(res.argmax[0] - best.m) < 0.01
    assert abs(res.argmax[1] - best.n) < 0.01
    assert res.value <= best.f_max + 1e-12


def test_simplex_converges_on_smooth_bowl():
    box = SearchBox.cube(-2.0, 2.0, 2, 2)

    def bowl(x):
        return -((x[0] - 0.3) ** 2) - 2.0 * (x[1] + 0.7) ** 2

    res = simplex_maximize(bowl, np.array([1.0, 1.0]), box)
    assert res.converged
    assert abs(res.argmax[0] - 0.3) < 1e-6
    assert abs(res.argmax[1] + 0.7) < 1e-6
    assert res.value > -1e-8


def test_simplex_starting_at_peak_stays_there():
    box = SearchBox.cube(-1.0, 1.0, 2, 2)
    res = simplex_maximize(lambda x: -float(x @ x), np.zeros(2), box)
    assert res.converged
    assert abs(res.value) < 1e-9


def test_simplex_beats_its_grid_seed():
    params = GadParams(0.6, 0.55)
    box = SearchBox.cube(1e-3, 2.0, 25, 2)
    fid = lambda x: protect_equatorial(params, x[0], x[1]).fidelity
    seed = grid_maximize(fid, box)
    refined = simplex_maximize(fid, seed.argmax, box)
    best = optimal_strengths(params)
    assert refined.value >= seed.value
    assert abs(refined.value - best.f_max) < 1e-9
    assert np.max(np.abs(refined.argmax - [best.m, best.n])) < 1e-3


def test_simplex_respects_box():
    box = SearchBox.cube(0.0, 1.0, 2, 2)
    res = simplex_maximize(lambda x: float(x[0] + x[1]), np.array([0.4, 0.4]), box)
    assert res.converged
    assert box.contains(res.argmax)
    assert abs(res.value - 2.0) < 1e-6


def test_simplex_start_validation():
    box = SearchBox.cube(0.0, 1.0, 2, 2)
    with pytest.raises(ValueError, match="shape"):
        simplex_maximize(lambda x: 0.0, np.zeros(3), box)
    with pytest.raises(ValueError, match="inside"):
        simplex_maximize(lambda x: 0.0, np.array([2.0, 0.5]), box)


def test_simplex_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(optimize, "SIMPLEX_MAX_EVALS", 20)
    box = SearchBox.cube(-2.0, 2.0, 2, 2)
    res = simplex_maximize(
        lambda x: -((x[0] - 0.3) ** 2) - (x[1] + 0.7) ** 2, np.array([1.5, 1.5]), box
    )
    assert not res.converged
    assert res.evaluations >= 20


def test_stationarity_check():
    grad = stationarity_check(lambda x: 3.0 * x[0] - 2.0 * x[1], np.zeros(2), 1e-4)
    assert abs(grad - 3.0) < 1e-9
    flat = stationarity_check(
        lambda x: -((x[0] - 0.25) ** 2), np.array([0.25]), 1e-5
    )
    assert flat < 1e-9
    with pytest.raises(ValueError, match="positive"):
        stationarity_check(lambda x: 0.0, np.zeros(1), 0.0)
