import math

import numpy as np

from decoshield.linalg import (
    dagger,
    equatorial_state,
    fidelity,
    validate_density,
    wootters_concurrence,
)

RNG = np.random.default_rng(52901)


def random_density(rng, dim=2):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / rho.trace()


def pure(ket):
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj()) / np.vdot(ket, ket).real


def test_equatorial_state_off_diagonal_phase():
    for phi in (0.0, 1.3, math.pi, 5.0):
        rho = equatorial_state(phi)
        assert abs(rho[0, 0] - 0.5) < 1e-15
        assert abs(rho[1, 1] - 0.5) < 1e-15
        assert abs(rho[0, 1] - 0.5 * np.exp(-1j * phi)) < 1e-15
        # the projector onto the ket (|0> + e^{i phi} |1>) / sqrt(2)
        validate_density(rho)
        assert np.max(np.abs(rho - pure([1.0, np.exp(1j * phi)]))) < 1e-15
    # angle wraps rather than being rejected
    assert np.allclose(equatorial_state(7.0), equatorial_state(7.0 - 2 * math.pi))


def test_dagger():
    a = np.array([[1.0, 2j], [0.0, 1.0]])
    assert np.allclose(dagger(a), a.conj().T)


def test_validate_density_accepts_a_mixed_state():
    validate_density(np.diag([0.25, 0.75]).astype(complex))


def test_fidelity_basic_properties():
    psi = equatorial_state(0.4)
    assert abs(fidelity(psi, psi) - 1.0) < 1e-15
    orth = equatorial_state(0.4 + math.pi)
    assert abs(fidelity(psi, orth)) < 1e-15
    mixed = np.diag([0.5, 0.5]).astype(complex)
    assert abs(fidelity(psi, mixed) - 0.5) < 1e-15
    # stacks broadcast, each overlap with the bits of its lone call
    rhos = np.stack([random_density(RNG) for _ in range(3)])
    psis = np.stack([psi, orth])[:, None]
    got = fidelity(psis, rhos)
    assert got.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        assert got[i, j] == fidelity(psis[i, 0], rhos[j])


def test_fidelity_against_expectation_value():
    for _ in range(50):
        theta = RNG.uniform(0, math.pi)
        phi = RNG.uniform(0, 2 * math.pi)
        ket = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
        psi = pure(ket)
        rho = random_density(RNG)
        direct = float(np.real(ket.conj() @ rho @ ket))
        assert abs(fidelity(psi, rho) - direct) < 1e-12


def test_wootters_concurrence_reference_states():
    bell = pure(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    assert abs(wootters_concurrence(bell) - 1.0) < 1e-12
    product = pure(np.array([1.0, 0.0, 0.0, 0.0]))
    assert wootters_concurrence(product) < 1e-12
    mixed = np.eye(4, dtype=complex) / 4.0
    assert wootters_concurrence(mixed) == 0.0


def test_wootters_concurrence_werner_closed_form():
    # q |Bell><Bell| + (1-q) I/4 has concurrence max(0, (3q - 1) / 2)
    bell = pure(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
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
        got = wootters_concurrence(pure(ket))
        assert abs(got - 2.0 * math.sqrt(a * (1 - a))) < 1e-7


def test_wootters_concurrence_of_a_stack():
    # a (..., 4, 4) stack gives an array, each entry with the bits of its
    # lone call, which is a float
    bell = pure(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    states = [q * bell + (1.0 - q) * np.eye(4) / 4.0 for q in (0.2, 0.5, 1.0)]
    states += [random_density(RNG, 4) for _ in range(3)]
    got = wootters_concurrence(np.stack(states).reshape(2, 3, 4, 4))
    assert got.shape == (2, 3)
    for (i, j), rho in zip(np.ndindex(2, 3), states):
        lone = wootters_concurrence(rho)
        assert type(lone) is float and got[i, j] == lone
