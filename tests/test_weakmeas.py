import numpy as np

from decoshield.linalg import equatorial_state
from decoshield.weakmeas import _tensored, apply_postselected, measure_damp_reverse

RNG = np.random.default_rng(90412)
UNDAMPED = (np.eye(2, dtype=complex)[None],)  # the identity channel, on one qubit


def weights(m, n):
    """The route's output diagonal from a maximally mixed state, with an identity
    channel: the squared diagonals of both measurements, up to one common factor."""
    dim = 2 ** len(m)
    state, _ = measure_damp_reverse(np.eye(dim) / dim, m, n, UNDAMPED * len(m))
    return np.diagonal(state, axis1=-2, axis2=-1).real


def test_pre_measurement_diagonal_layout():
    # left strength belongs to the left tensor factor
    for m, diagonal in (((0.3,), [1.0, 0.3]), ((0.3, 0.7), [1.0, 0.7, 0.3, 0.21])):
        w = weights(m, (1.0,) * len(m))
        assert np.allclose(w / w[0], np.square(diagonal), rtol=0.0, atol=1e-15)
    # array strengths give a stack of diagonals, entry by entry
    stack = weights((np.array([0.3, 0.5]), 0.7), (1.0, 1.0))
    assert stack.shape == (2, 4)
    assert stack[1].tolist() == weights((0.5, 0.7), (1.0, 1.0)).tolist()
    # a float entry of a stack keeps its bits, the sign of a zero included, in
    # either factor; the route squares each entry, so only its builder shows it
    for tensor in (lambda s: (s, -0.0), lambda s: (-0.0, s)):
        want = [_tensored(tensor(s), "m").tobytes() for s in (0.3, 0.5)]
        assert [row.tobytes() for row in _tensored(tensor(np.array([0.3, 0.5])), "m")] == want


def test_reversal_diagonal_layout():
    # every basis state keeps a nonzero retention weight
    for n, diagonal in (((0.4,), [0.4, 1.0]), ((0.4, 0.9), [0.36, 0.4, 0.9, 1.0])):
        w = weights((1.0,) * len(n), n)
        assert np.allclose(w / w[-1], np.square(diagonal), rtol=0.0, atol=1e-15)
    assert weights((1.0, 1.0), (np.array([[0.4], [0.5]]), np.array([0.9, 0.8]))).shape == (2, 2, 4)


def test_physical_form_rescales_only_above_one():
    # the physical form divides the diagonal by its largest entry above
    # one: K rho K^dag = prob * state
    rho = equatorial_state(0.7)
    for diagonal, physical in (
        ([1.0, 0.6], [1.0, 0.6]),
        ([1.0, 2.5], [0.4, 1.0]),
        (np.array([1.0, 2.5], np.float32), [0.4, 1.0]),
        ([1.0, 1.5, 2.0, 3.0], [1 / 3, 0.5, 2 / 3, 1.0]),
    ):
        rho_n = np.kron(rho, rho) if len(physical) == 4 else rho
        state, prob = apply_postselected(diagonal, rho_n)
        k = np.asarray(physical)
        assert np.max(np.abs(prob * state - np.outer(k, k) * rho_n)) < 1e-15
    # a stack whose rows peak at different entries: each row as its lone call
    rows = np.array([[1.0, 0.6], [1.0, 2.5], [3.0, 0.5]])
    states, probs = apply_postselected(rows, rho)
    for diagonal, state, prob in zip(rows, states, probs):
        lone_state, lone_prob = apply_postselected(diagonal, rho)
        assert state.tobytes() == lone_state.tobytes() and prob == lone_prob


def test_postselected_probability_equatorial():
    rho = equatorial_state(0.0)
    for m in (0.2, 0.7, 1.0):
        _, prob = apply_postselected([1.0, m], rho)
        assert abs(prob - 0.5 * (1 + m * m)) < 1e-15
    # above one the operator is rescaled, costing probability m^2
    for m in (1.3, 2.0):
        _, prob = apply_postselected([1.0, m], rho)
        assert abs(prob - 0.5 * (1 + m * m) / (m * m)) < 1e-15


def test_postselected_state_is_normalized():
    for _ in range(25):
        m, n = RNG.uniform(0.05, 2.0, size=2)
        rho = equatorial_state(float(RNG.uniform(0, 2 * np.pi)))
        out, _ = apply_postselected([1.0, float(m)], rho)
        assert abs(out.trace() - 1.0) < 1e-12
        out, _ = apply_postselected([float(n), 1.0], rho)
        assert abs(out.trace() - 1.0) < 1e-12


def test_matched_reversal_restores_state():
    # diag(1, m) followed by diag(m, 1) is proportional to the identity
    for m in (0.2, 0.5, 0.9):
        rho = equatorial_state(1.1)
        mid, p1 = apply_postselected([1.0, m], rho)
        out, p2 = apply_postselected([m, 1.0], mid)
        assert np.max(np.abs(out - rho)) < 1e-12
        assert abs(p1 * p2 - m * m) < 1e-12
