from dataclasses import astuple

import numpy as np
import pytest

from decoshield.channels import (
    GadParams,
    apply_channel,
    apply_on_qubit,
    apply_via_dilation,
    check_trace_preserving,
    gad_channel,
)
from decoshield.entangle import EntangledInput, measured_coefficients, pipeline_state
from decoshield.linalg import validate_density
from decoshield.qubit import baseline_fidelity, g_value, optimal_strengths

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
    # arrays that broadcast together, every entry in [0, 1]
    GadParams(np.array([0.0, 1.0]), np.array([[0.5], [1.0]]))


def test_kraus_channel_shape_checks():
    ops = gad_channel(GadParams(0.3, 0.6))
    assert ops.shape == (4, 2, 2)
    # a stack of channels is the channels one by one
    p, r = np.array([0.0, 0.3, 1.0])[:, None], np.array([0.0, 0.6])
    stack = gad_channel(GadParams(p, r))
    assert stack.shape == (3, 2, 4, 2, 2)
    for i, j in np.ndindex(3, 2):
        assert stack[i, j].tobytes() == gad_channel(GadParams(p[i, 0], r[j])).tobytes()
    # a float parameter against an array: float and array entries mixed, and
    # every closed form on the channels has their shape, entry by entry the
    # lone call's bits, or refuses as the first refused lone call does
    mixed = GadParams(0.3, np.array([0.0, 0.6, 1.0])), GadParams(np.array([0.0, 0.3, 1.0]), 0.6)
    lone = [(0.3, ri) for ri in (0.0, 0.6, 1.0)], [(pi, 0.6) for pi in (0.0, 0.3, 1.0)]
    inp, other = EntangledInput.from_alpha_sq(0.4), GadParams(0.8, 0.3)
    closed_forms = (lambda ch: (baseline_fidelity(ch), g_value(ch)),
                    lambda ch: astuple(optimal_strengths(ch)),
                    lambda ch: astuple(measured_coefficients(inp, ch, other, 0.5, 1.0)))
    for params, points in zip(mixed, lone):
        assert [kraus.tobytes() for kraus in gad_channel(params)] == [
            gad_channel(GadParams(pi, ri)).tobytes() for pi, ri in points
        ]
        for fields in closed_forms:
            try:
                want = [fields(GadParams(pi, ri)) for pi, ri in points]
            except ValueError as err:
                with pytest.raises(ValueError) as exc:
                    fields(params)
                assert str(exc.value) == str(err)
                continue
            for k, field in enumerate(fields(params)):
                assert field.shape == (3,)
                assert [entry.tobytes() for entry in field] == [
                    np.asarray(values[k]).tobytes() for values in want
                ]
    # a stack of states is a stack of channel outputs, state by state
    rhos = np.stack([random_density(RNG) for _ in range(6)]).reshape(2, 3, 2, 2)
    out = apply_channel(ops, rhos)
    assert out.shape == (2, 3, 2, 2)
    for idx in np.ndindex(2, 3):
        assert out[idx].tobytes() == apply_channel(ops, rhos[idx]).tobytes()


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
    # each also equals the dilation's output: here p, r span [0, 1), where the
    # dilation-vs-kraus family draws [0.02, 0.98] and the endpoints only
    for _ in range(50):
        params, state = random_params(RNG), random_density(RNG)
        rho = apply_channel(gad_channel(params), state)
        validate_density(rho)
        assert np.max(np.abs(rho - apply_via_dilation(params, state))) < 1e-12


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


def test_apply_on_qubit_matches_kron_lift():
    for qubit in (0, 1):
        params = random_params(RNG)
        ch = gad_channel(params)
        rho = random_density(RNG, dim=4)
        got = apply_on_qubit(ch, rho, qubit)
        want = np.zeros_like(rho)
        for op in ch:
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
    # on a stack, each state gets the bits it gets on its own
    stack = np.stack([joint, np.kron(other, target)])
    for qubit in (0, 1):
        out = apply_on_qubit(gad_channel(params), stack, qubit)
        for i in range(2):
            alone = apply_on_qubit(gad_channel(params), stack[i], qubit)
            assert out[i].tobytes() == alone.tobytes()


def test_channel_stack_on_lone_state():
    # the output has the broadcast leading shape of channels and states,
    # each entry with the bits of the call on its own channel and state
    p, r = np.array([0.3, 0.6, 1.0]), np.array([0.2, 0.5, 0.0])
    stack = gad_channel(GadParams(p, r))
    inp = EntangledInput.from_alpha_sq(0.4)
    rho = inp.density()
    states = np.stack([rho, random_density(RNG, dim=4)])
    for qubit in (0, 1):
        out = apply_on_qubit(stack, rho, qubit)
        assert out.shape == (3, 4, 4)
        grid = apply_on_qubit(stack[:, None], states, qubit)
        assert grid.shape == (3, 2, 4, 4)
        for i in range(3):
            assert out[i].tobytes() == apply_on_qubit(stack[i], rho, qubit).tobytes()
            for j in range(2):
                assert grid[i, j].tobytes() == apply_on_qubit(stack[i], states[j], qubit).tobytes()
    other = GadParams(0.5, 0.5)
    state, prob = pipeline_state(inp, GadParams(p, r), other, 0.7, 1.1, 0.9, 1.2)
    assert state.shape == (3, 4, 4) and prob.shape == (3,)
    for i in range(3):
        one, one_prob = pipeline_state(inp, GadParams(p[i], r[i]), other, 0.7, 1.1, 0.9, 1.2)
        assert state[i].tobytes() == one.tobytes() and prob[i] == one_prob
