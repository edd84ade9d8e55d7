import numpy as np
import pytest

from decoshield.linalg import equatorial_state, ket_density
from decoshield.weakmeas import (
    PostSelectionError,
    WeakMeasurement,
    apply_postselected,
    physical_form,
)

RNG = np.random.default_rng(90412)


def test_pre_measurement_diagonal_layout():
    wm = WeakMeasurement.pre(0.3)
    assert np.allclose(wm.operator(), np.diag([1.0, 0.3]))
    wm2 = WeakMeasurement.pre(0.3, 0.7)
    # left strength belongs to the left tensor factor
    assert np.allclose(wm2.operator(), np.diag([1.0, 0.7, 0.3, 0.21]))
    assert len(wm.strengths) == 2 and len(wm2.strengths) == 4


def test_reversal_diagonal_layout():
    wm = WeakMeasurement.post(0.4)
    assert np.allclose(wm.operator(), np.diag([0.4, 1.0]))
    wm2 = WeakMeasurement.post(0.4, 0.9)
    # every basis state keeps a nonzero retention weight
    assert np.allclose(wm2.operator(), np.diag([0.36, 0.4, 0.9, 1.0]))
    assert np.all(np.abs(np.diag(wm2.operator())) > 0)


def test_strength_validation():
    with pytest.raises(ValueError, match="non-negative"):
        WeakMeasurement.pre(-0.1)
    with pytest.raises(ValueError, match="diagonal entries"):
        WeakMeasurement(strengths=(1.0, 0.5, 0.2))


def test_physical_form_rescales_only_above_one():
    op, scale = physical_form(WeakMeasurement.pre(0.6))
    assert scale == 1.0
    assert np.allclose(op, np.diag([1.0, 0.6]))
    op, scale = physical_form(WeakMeasurement.pre(2.5))
    assert abs(scale - 1.0 / 2.5) < 1e-15
    assert np.allclose(op, np.diag([0.4, 1.0]))
    # two-qubit rescale uses the largest entry, the product here
    op, scale = physical_form(WeakMeasurement.pre(2.0, 1.5))
    assert abs(scale - 1.0 / 3.0) < 1e-15
    assert np.max(np.abs(np.diag(op))) <= 1.0 + 1e-15


def test_postselected_probability_equatorial():
    rho = equatorial_state(0.0)
    for m in (0.2, 0.7, 1.0):
        _, prob = apply_postselected(WeakMeasurement.pre(m), rho)
        assert abs(prob - 0.5 * (1 + m * m)) < 1e-15
    # above one the operator is rescaled, costing probability m^2
    for m in (1.3, 2.0):
        _, prob = apply_postselected(WeakMeasurement.pre(m), rho)
        assert abs(prob - 0.5 * (1 + m * m) / (m * m)) < 1e-15


def test_postselected_state_is_normalized():
    for _ in range(25):
        m, n = RNG.uniform(0.05, 2.0, size=2)
        rho = equatorial_state(float(RNG.uniform(0, 2 * np.pi)))
        out, _ = apply_postselected(WeakMeasurement.pre(float(m)), rho)
        assert abs(out.trace() - 1.0) < 1e-12
        out, _ = apply_postselected(WeakMeasurement.post(float(n)), rho)
        assert abs(out.trace() - 1.0) < 1e-12


def test_impossible_postselection_raises():
    ground = ket_density(np.array([1.0, 0.0]))
    with pytest.raises(PostSelectionError):
        apply_postselected(WeakMeasurement.post(0.0), ground)


def test_matched_reversal_restores_state():
    # diag(1, m) followed by diag(m, 1) is proportional to the identity
    for m in (0.2, 0.5, 0.9):
        rho = equatorial_state(1.1)
        mid, p1 = apply_postselected(WeakMeasurement.pre(m), rho)
        out, p2 = apply_postselected(WeakMeasurement.post(m), mid)
        assert np.max(np.abs(out - rho)) < 1e-12
        assert abs(p1 * p2 - m * m) < 1e-12


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        apply_postselected(WeakMeasurement.pre(0.5), np.eye(4) / 4)
