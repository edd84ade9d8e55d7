import math

import numpy as np
import pytest

from decoshield.linalg import (
    PureQubit,
    dagger,
    equatorial_state,
    fidelity,
    ket_density,
    to_density,
    validate_density,
    wootters_concurrence,
)

RNG = np.random.default_rng(52901)


def random_density(rng, dim=2):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / rho.trace()


def test_pure_qubit_rejects_out_of_range_angles():
    with pytest.raises(ValueError):
        PureQubit(-0.1, 0.0)
    with pytest.raises(ValueError):
        PureQubit(math.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        PureQubit(1.0, 2.0 * math.pi)
    PureQubit(0.0, 0.0)
    PureQubit(math.pi, 6.28)


def test_to_density_is_projector_onto_bloch_direction():
    for theta, phi in [(0.3, 1.1), (math.pi / 2, 0.0), (2.9, 5.5)]:
        rho = to_density(PureQubit(theta, phi))
        validate_density(rho)
        assert abs((rho @ rho - rho).max()) < 1e-12  # pure
        ket = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
        assert np.allclose(rho, np.outer(ket, ket.conj()), atol=1e-12)


def test_equatorial_state_off_diagonal_phase():
    for phi in (0.0, 1.3, math.pi, 5.0):
        rho = equatorial_state(phi)
        assert abs(rho[0, 0] - 0.5) < 1e-15
        assert abs(rho[1, 1] - 0.5) < 1e-15
        assert abs(rho[0, 1] - 0.5 * np.exp(-1j * phi)) < 1e-15
    # angle wraps rather than being rejected
    assert np.allclose(equatorial_state(7.0), equatorial_state(7.0 - 2 * math.pi))


def test_ket_density_normalizes():
    rho = ket_density(np.array([2.0, 0.0]))
    assert np.allclose(rho, np.diag([1.0, 0.0]))
    rho = ket_density(np.array([1.0, 1j]))
    assert abs(rho.trace() - 1.0) < 1e-15


def test_dagger():
    a = np.array([[1.0, 2j], [0.0, 1.0]])
    assert np.allclose(dagger(a), a.conj().T)


def test_validate_density_rejects_defects():
    good = np.diag([0.25, 0.75]).astype(complex)
    validate_density(good)
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError, match="eigenvalue"):
        validate_density(np.diag([1.2, -0.2]))
    with pytest.raises(ValueError, match="shape"):
        validate_density(np.eye(3) / 3)


def test_fidelity_basic_properties():
    psi = equatorial_state(0.4)
    assert abs(fidelity(psi, psi) - 1.0) < 1e-15
    orth = equatorial_state(0.4 + math.pi)
    assert abs(fidelity(psi, orth)) < 1e-15
    mixed = np.diag([0.5, 0.5]).astype(complex)
    assert abs(fidelity(psi, mixed) - 0.5) < 1e-15
    with pytest.raises(ValueError, match="pure"):
        fidelity(mixed, psi)
    with pytest.raises(ValueError, match="mismatch"):
        fidelity(psi, np.eye(4) / 4)


def test_fidelity_against_expectation_value():
    for _ in range(50):
        theta = RNG.uniform(0, math.pi)
        phi = RNG.uniform(0, 2 * math.pi)
        psi = to_density(PureQubit(theta, phi))
        rho = random_density(RNG)
        ket = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
        direct = float(np.real(ket.conj() @ rho @ ket))
        assert abs(fidelity(psi, rho) - direct) < 1e-12


def test_wootters_concurrence_reference_states():
    bell = ket_density(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    assert abs(wootters_concurrence(bell) - 1.0) < 1e-12
    product = ket_density(np.array([1.0, 0.0, 0.0, 0.0]))
    assert wootters_concurrence(product) < 1e-12
    mixed = np.eye(4, dtype=complex) / 4.0
    assert wootters_concurrence(mixed) == 0.0


def test_wootters_concurrence_werner_closed_form():
    # q |Bell><Bell| + (1-q) I/4 has concurrence max(0, (3q - 1) / 2)
    bell = ket_density(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    for q in (0.1, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = q * bell + (1.0 - q) * np.eye(4) / 4.0
        want = max(0.0, (3.0 * q - 1.0) / 2.0)
        assert abs(wootters_concurrence(rho) - want) < 1e-12, q


def test_wootters_concurrence_partial_entanglement():
    for _ in range(25):
        a = RNG.uniform(0.05, 0.95)
        ket = np.array([math.sqrt(a), 0.0, 0.0, math.sqrt(1 - a)])
        # pure Schmidt state: concurrence is twice the amplitude product;
        # the rank-1 spectrum turns eigensolver rounding into sqrt(eps)-size
        # residues in the three vanishing lambdas, hence the loose bound
        got = wootters_concurrence(ket_density(ket))
        assert abs(got - 2.0 * math.sqrt(a * (1 - a))) < 1e-7


def test_wootters_concurrence_rejects_bad_input():
    with pytest.raises(ValueError, match="4x4"):
        wootters_concurrence(np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        wootters_concurrence(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
