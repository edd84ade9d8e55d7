import numpy as np
import pytest

from decoshield.channels import (
    GadParams,
    KrausChannel,
    apply_channel,
    apply_on_qubit,
    apply_via_dilation,
    check_trace_preserving,
    gad_channel,
)
from decoshield.linalg import validate_density

RNG = np.random.default_rng(77103)


def random_density(rng, dim=2):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / rho.trace()


def random_params(rng):
    return GadParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))


def test_params_validation():
    GadParams(0.0, 0.0)
    GadParams(1.0, 1.0)
    with pytest.raises(ValueError, match="p"):
        GadParams(-0.01, 0.5)
    with pytest.raises(ValueError, match="p"):
        GadParams(1.01, 0.5)
    with pytest.raises(ValueError, match="r"):
        GadParams(0.5, 1.2)


def test_kraus_channel_shape_checks():
    with pytest.raises(ValueError, match="shapes"):
        KrausChannel((np.eye(2), np.eye(4)))
    ch = KrausChannel((np.eye(2),))
    assert ch.dim == 2


def test_completeness_over_parameter_range():
    worst = 0.0
    for _ in range(100):
        worst = max(worst, check_trace_preserving(gad_channel(random_params(RNG))))
    # boundaries included
    for p in (0.0, 1.0):
        for r in (0.0, 1.0):
            worst = max(worst, check_trace_preserving(gad_channel(GadParams(p, r))))
    assert worst < 1e-14


def test_channel_outputs_are_valid_states():
    for _ in range(50):
        rho = apply_channel(gad_channel(random_params(RNG)), random_density(RNG))
        validate_density(rho)


def test_population_transfer_weights():
    p, r = 0.62, 0.37
    ch = gad_channel(GadParams(p, r))
    from_ground = apply_channel(ch, np.diag([1.0, 0.0]).astype(complex))
    assert abs(from_ground[0, 0] - (1 - r + p * r)) < 1e-15
    assert abs(from_ground[1, 1] - (1 - p) * r) < 1e-15
    from_excited = apply_channel(ch, np.diag([0.0, 1.0]).astype(complex))
    assert abs(from_excited[0, 0] - p * r) < 1e-15
    assert abs(from_excited[1, 1] - (1 - p * r)) < 1e-15


def test_coherence_shrinks_by_sqrt_survival():
    for _ in range(25):
        params = random_params(RNG)
        rho = random_density(RNG)
        out = apply_channel(gad_channel(params), rho)
        assert abs(out[0, 1] - np.sqrt(1 - params.r) * rho[0, 1]) < 1e-14


def test_thermal_state_is_fixed_point():
    for _ in range(25):
        params = random_params(RNG)
        thermal = np.diag([params.p, 1 - params.p]).astype(complex)
        out = apply_channel(gad_channel(params), thermal)
        assert np.max(np.abs(out - thermal)) < 1e-14


def test_full_decay_lands_on_thermal_state():
    # r = 1 erases the input entirely
    for _ in range(10):
        p = float(RNG.uniform(0, 1))
        out = apply_channel(gad_channel(GadParams(p, 1.0)), random_density(RNG))
        assert np.max(np.abs(out - np.diag([p, 1 - p]))) < 1e-14


def test_p_equal_one_reduces_to_plain_damping():
    r = 0.44
    ch = gad_channel(GadParams(1.0, r))
    for _ in range(10):
        rho = random_density(RNG)
        out = apply_channel(ch, rho)
        want = np.array(
            [
                [rho[0, 0] + r * rho[1, 1], np.sqrt(1 - r) * rho[0, 1]],
                [np.sqrt(1 - r) * rho[1, 0], (1 - r) * rho[1, 1]],
            ]
        )
        assert np.max(np.abs(out - want)) < 1e-14


def test_apply_channel_dimension_check():
    with pytest.raises(ValueError, match="mismatch"):
        apply_channel(gad_channel(GadParams(0.5, 0.5)), np.eye(4) / 4)


def test_apply_on_qubit_matches_kron_lift():
    for qubit in (0, 1):
        params = random_params(RNG)
        ch = gad_channel(params)
        rho = random_density(RNG, dim=4)
        got = apply_on_qubit(ch, rho, qubit)
        want = np.zeros_like(rho)
        for op in ch.operators:
            lifted = np.kron(op, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), op)
            want += lifted @ rho @ lifted.conj().T
        assert np.max(np.abs(got - want)) < 1e-14


def test_apply_on_qubit_leaves_other_factor_alone():
    params = GadParams(0.8, 0.6)
    other = random_density(RNG)
    target = random_density(RNG)
    joint = np.kron(target, other)
    out = apply_on_qubit(gad_channel(params), joint, 0)
    want = np.kron(apply_channel(gad_channel(params), target), other)
    assert np.max(np.abs(out - want)) < 1e-14
    with pytest.raises(ValueError, match="qubit"):
        apply_on_qubit(gad_channel(params), joint, 2)


def test_dilation_isometry_matches_kraus_action():
    worst = 0.0
    for _ in range(200):
        params = random_params(RNG)
        rho = random_density(RNG)
        via_kraus = apply_channel(gad_channel(params), rho)
        via_env = apply_via_dilation(params, rho)
        worst = max(worst, float(np.max(np.abs(via_kraus - via_env))))
    assert worst < 1e-12


def test_dilation_requires_single_qubit_state():
    with pytest.raises(ValueError, match="2x2"):
        apply_via_dilation(GadParams(0.5, 0.5), np.eye(4) / 4)
