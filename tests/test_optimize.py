import math

import numpy as np

import decoshield.optimize as optimize
from decoshield.channels import GadParams
from decoshield.checks import BELL, PAIR_BOX, QUBIT_BOX, REF_PAIR
from decoshield.entangle import concurrence_lambda2, measured_coefficients
from decoshield.optimize import (
    SearchBox,
    grid_maximize,
    simplex_maximize,
    stationarity_check,
)
from decoshield.qubit import optimal_strengths, protect_equatorial


def test_box_helpers():
    box = SearchBox.cube(0.0, 2.0, 5, 3)
    assert box.dim == 3
    axes = box.axes()
    assert len(axes) == 3
    assert np.allclose(axes[0], [0.0, 0.5, 1.0, 1.5, 2.0])
    assert box.contains(np.array([0.0, 2.0, 1.0]))
    assert not box.contains(np.array([0.0, 2.1, 1.0]))
    assert not box.contains(np.array([0.0, math.nan, 1.0]))
    assert SearchBox((np.float32(0.1),), (np.float32(1.0),), (3,)).dim == 1


def test_grid_finds_quadratic_peak():
    box = SearchBox((0.0,), (1.0,), (101,))
    res = grid_maximize(lambda x: -((x[0] - 0.5) ** 2), box)
    assert abs(res.argmax[0] - 0.5) < 1e-12
    assert abs(res.value) < 1e-12
    assert res.evaluations == 101
    assert res.converged


def test_grid_tie_breaks_to_first_lattice_point():
    box = SearchBox.cube(0.0, 1.0, 3, 2)
    # point by point, then on the whole lattice at once
    for flat in (lambda x: 1.0, lambda x: np.ones(np.shape(x)[1:])):
        res = grid_maximize(flat, box)
        assert np.allclose(res.argmax, [0.0, 0.0])
        assert res.value == 1.0 and res.evaluations == 9
    for capped in (lambda x: min(x[0], 0.5), lambda x: np.minimum(x[0], 0.5)):
        res = grid_maximize(capped, box)
        assert np.allclose(res.argmax, [0.5, 0.0])


def test_grid_survives_erroring_objective():
    def touchy(x):
        if x[0] < 0.5:
            raise RuntimeError("pole")
        if x[0] > 0.9:
            return math.nan
        return x[0]

    def touchy_array(x):
        # an array call fails as a whole when one point fails
        if np.any(x[0] < 0.5):
            raise RuntimeError("pole")
        return np.where(x[0] > 0.9, math.nan, x[0])

    def nan_array(x):
        return np.where(x[0] > 0.9, math.nan, x[0])

    for objective in (touchy, touchy_array, nan_array):
        res = grid_maximize(objective, SearchBox((0.0,), (1.0,), (11,)))
        assert abs(res.argmax[0] - 0.9) < 1e-12
        assert res.value == res.argmax[0] and res.evaluations == 11


def _fidelity(params):
    return lambda pt: protect_equatorial(params, pt[0], pt[1]).fidelity


def _concurrence(ch1, ch2):
    return lambda pt: concurrence_lambda2(
        measured_coefficients(BELL, ch1, ch2, pt[0], 1.0), pt[1], pt[2]
    )


def test_grid_lattice_matches_point_by_point():
    # without damping, strengths of 1e-8 void the run: there the lattice
    # call raises and the grid goes point by point
    ideal = GadParams(1.0, 0.0)
    cases = [
        (_fidelity(GadParams(0.8, 0.3)), QUBIT_BOX, False),
        (_fidelity(ideal), SearchBox.cube(1e-8, 2.0, 9, 2), True),
        (_concurrence(*REF_PAIR), PAIR_BOX, False),
        (_concurrence(ideal, ideal), SearchBox.cube(1e-8, 2.0, 5, 3), True),
    ]
    for objective, box, voided in cases:
        calls = []

        def counted(x, objective=objective):
            calls.append(x.shape)
            return objective(x)

        lattice = grid_maximize(counted, box)
        # float() of an array raises, so this one is called point by point
        each = grid_maximize(lambda x, objective=objective: float(objective(x)), box)
        points = lattice.evaluations
        assert calls[0] == (box.dim, points)
        assert len(calls) == (1 + points if voided else 1)
        assert lattice.argmax.tobytes() == each.argmax.tobytes()
        assert np.float64(lattice.value).tobytes() == np.float64(each.value).tobytes()
        assert lattice.evaluations == each.evaluations == math.prod(box.resolution)


def test_reference_walks_are_pinned():
    # grid, then simplex from its argmax: the evaluation count and argmax
    # bytes of each, then the number of vertices the walk hands to the
    # objective; a vertex outside the box scores -inf without a call. The
    # first two were recorded with the simplex on numpy arrays, the last two
    # with it on lists of floats, before its step was rewritten
    fid = _fidelity(GadParams(0.8, 0.3))  # its maximum 0.9334 lies at (0.746, 0.671)
    cases = [
        (fid, QUBIT_BOX, [
            (1089, "2db29defa706e83ff4fdd478e906e43f"),
            (123, "0079502ec4dce73faecdf430d574e53f"),
        ], 123),
        (_concurrence(*REF_PAIR), PAIR_BOX, [
            (4913, "5a643bdf4f0dd83fa01a2fdd2406e03fa01a2fdd2406e03f"),
            (196, "eec815a437fbd53fe77ebb629e1de03fc04add40824bdc3f"),
        ], 196),
        # the box's n wall cuts below the maximum: the walk starts against it
        # and slides along it, 76 of its vertices outside
        (fid, SearchBox((1e-3, 1e-3), (4.0, 0.6), (9, 9)), [
            (81, "ba490c022b07e03fe7fba9f1d2cde03f"),
            (174, "9ef8d7ef7bbde53f620a2e333333e33f"),
        ], 98),
        # capped below the maximum, the fidelity has a plateau where a
        # contraction does not beat the worst vertex: the walk shrinks 27 times
        (lambda x: min(fid(x), 0.93), SearchBox.cube(1e-3, 4.0, 9, 2), [
            (81, "ba490c022b07e03fba490c022b07e03f"),
            (121, "2eb29defa706e83fb6a679c7293ae33f"),
        ], 121),
    ]
    for objective, box, pinned, called in cases:
        seed = grid_maximize(objective, box)
        calls = []
        walk = simplex_maximize(lambda x: calls.append(x) or objective(x), seed.argmax, box)
        assert walk.converged and walk.value >= seed.value
        assert [(r.evaluations, r.argmax.tobytes().hex()) for r in (seed, walk)] == pinned
        assert len(calls) == called


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
    assert refined.converged
    assert refined.value >= seed.value
    assert abs(refined.value - best.f_max) < 1e-9
    assert np.max(np.abs(refined.argmax - [best.m, best.n])) < 1e-3


def test_simplex_respects_box():
    box = SearchBox.cube(0.0, 1.0, 2, 2)
    res = simplex_maximize(lambda x: float(x[0] + x[1]), np.array([0.4, 0.4]), box)
    assert res.converged
    assert box.contains(res.argmax)
    assert abs(res.value - 2.0) < 1e-6


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
    assert abs(stationarity_check(lambda x: 3.0 * x[0], np.zeros(1), np.float32(1e-4)) - 3.0) < 1e-9
    flat = stationarity_check(
        lambda x: -((x[0] - 0.25) ** 2), np.array([0.25]), 1e-5
    )
    assert flat < 1e-9
    # a NaN slope is kept, not dropped as Python's max drops it
    assert math.isnan(stationarity_check(lambda x: math.nan, np.zeros(2), 1e-4))
