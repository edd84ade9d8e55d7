"""Array calls of the closed forms, and of the key-distribution pipeline,
equal scalar calls bit for bit, over strength arrays and channel arrays;
calls on numpy float64 scalars equal calls on Python floats.

Each property evaluates a function once on numpy arrays and once per
point on Python floats. Where every point succeeds, each array entry must
have the bits of the scalar result at that point, and every scalar result
must be a plain Python float or complex; where some point raises, the
array call must raise one of the same error types. A call on numpy
scalars is checked the same way, as the one point of the float call, and
where either raises both must raise the same error with the same message.
An all-float call takes its own path through the closed forms, so those
calls draw strengths at the edges of each range and products that overflow,
and one test runs every pair of those edges.
"""

import cmath
import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decoshield._elementwise import FLOAT_MAX, SQUARE_MAX, SQUARE_MIN
from decoshield.channels import GadParams, apply_via_dilation, gad_channel
from decoshield.entangle import (
    EntangledInput,
    XStateCoefficients,
    concurrence_lambda1,
    concurrence_lambda2,
    lambda2_max,
    measured_coefficients,
    optimal_parameters,
    optimal_reversal,
    optimized_protection,
    protected_state,
    reversed_state,
)
from decoshield.linalg import equatorial_state
from decoshield.qubit import (
    apply_protection,
    average_fidelity_six,
    baseline_fidelity,
    bb84_error_rate,
    g_value,
    optimal_strengths,
    protect_equatorial,
    qkd_error_rate,
)

PROPERTY = settings(max_examples=300)

unit = st.floats(0.0, 1.0)
channels = st.builds(GadParams, unit, unit)
strength = st.floats(0.0, 50.0, exclude_min=True)
strengths = st.lists(strength, min_size=1, max_size=6)
phases = st.floats(0.0, 2.0 * math.pi)
# each end of the strength ranges with its neighbours, and strengths whose
# products overflow the closed forms; then the ends of the azimuth's range
EDGES = [
    *(math.nextafter(x, to) for x in (0.0, SQUARE_MIN, SQUARE_MAX) for to in (-math.inf, math.inf)),
    0.0, SQUARE_MIN, SQUARE_MAX, 1e100,
]
EDGE_PHASES = [0.0, FLOAT_MAX, -FLOAT_MAX, math.inf, -math.inf, math.nan]
edge_strength = st.one_of(st.sampled_from(EDGES), strength)
# azimuth arrays over the whole finite range, and stacks of input amplitudes
azimuths = st.lists(st.one_of(phases, st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=4)
amplitudes = st.lists(
    st.tuples(unit, phases, phases).map(lambda w: (math.sqrt(w[0]) * cmath.exp(1j * w[1]),
                                                   math.sqrt(1.0 - w[0]) * cmath.exp(1j * w[2]))),
    min_size=1, max_size=4,
)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # PostSelectionError included
        return exc


def agree(array_result, point_results, *fields):
    """Check one call; True when every point succeeded."""
    errors = {type(r) for r in point_results if isinstance(r, Exception)}
    if errors:
        assert type(array_result) in errors
        return False
    assert not isinstance(array_result, Exception), array_result
    for field in fields:
        want = [field(r) for r in point_results]
        assert all(type(v) in (float, complex) for v in want), want
        want = np.array(want)
        got = np.asarray(field(array_result)).ravel().astype(want.dtype)
        assert got.tobytes() == want.tobytes()
    return True


def agree_f64(float_result, f64_result, *fields):
    """Check a call on numpy scalars against the call on the Python floats
    they hold: the same error and message, or agree's bits and types."""
    if isinstance(float_result, Exception) or isinstance(f64_result, Exception):
        assert (type(f64_result), str(f64_result)) == (type(float_result), str(float_result))
        return False
    return agree(float_result, [f64_result], *fields)


def each_f64(*values):
    """The values with each one in turn a numpy float64: one tuple per value."""
    return [tuple(np.float64(v) if j == i else v for j, v in enumerate(values))
            for i in range(len(values))]


def all_f64(*values):
    """The values all numpy float64: one tuple."""
    return [tuple(map(np.float64, values))]


def fields(*names):
    return [lambda r, k=k: getattr(r, k) for k in names]


def protect_with_f64(params, m, n, phi, variants=each_f64):
    """protect_equatorial on Python floats against the call on each variant
    of its inputs with numpy scalars: the same bits, or the same refusal."""
    want = outcome(protect_equatorial, params, m, n, phi)
    for p, r, mi, ni, azimuth in variants(params.p, params.r, m, n, phi):
        agree_f64(want, outcome(protect_equatorial, GadParams(p, r), mi, ni, azimuth),
                  *fields("fidelity", "success_prob"))


def measure_with_f64(inp, ch1, ch2, m1, m2, variants=each_f64):
    """measured_coefficients, as protect_with_f64."""
    want = outcome(measured_coefficients, inp, ch1, ch2, m1, m2)
    for p1, r1, p2, r2, mi, mj in variants(ch1.p, ch1.r, ch2.p, ch2.r, m1, m2):
        agree_f64(want, outcome(measured_coefficients, inp, GadParams(p1, r1), GadParams(p2, r2),
                                mi, mj), *fields("a", "b", "c", "d", "e"))


def reverse_with_f64(coeffs, n1, n2, variants=each_f64):
    """concurrence_lambda2 and reversed_state, as protect_with_f64, the
    record's four weights among the inputs."""
    want_lam2 = outcome(concurrence_lambda2, coeffs, n1, n2)
    want_state = outcome(reversed_state, coeffs, n1, n2)
    for ni, nj, *weights in variants(n1, n2, coeffs.a, coeffs.b, coeffs.c, coeffs.d):
        record = XStateCoefficients(*weights, coeffs.e)
        agree_f64(want_lam2, outcome(concurrence_lambda2, record, ni, nj), lambda lam2: lam2)
        got = outcome(reversed_state, record, ni, nj)
        if agree_f64(want_state, got, lambda out: out[1]):
            assert got[0].tobytes() == want_state[0].tobytes()


def as_f64(params):
    return GadParams(np.float64(params.p), np.float64(params.r))


def test_quiet_rule_keeps_numpy_settings():
    # an array call with an overflowing entry raises the ValueError it raises
    # under numpy's default settings when overflow and invalid values raise,
    # and leaves those settings as they were
    big = np.array([1.0, 1e100])
    ref, ch1, ch2 = GadParams(0.8, 0.3), GadParams(0.9, 0.5), GadParams(0.95, 0.3)
    bell = EntangledInput.from_alpha_sq(0.5)
    coeffs = measured_coefficients(bell, ch1, ch2, 1.0, 1.0)
    weight, zero, big_e = np.full(2, 0.1), np.zeros(2), np.array([0.1 + 0j, 1e154 + 0j])
    wide_e = XStateCoefficients(weight, weight, 0.1, 0.3, np.array([0.1, complex(9e307, 9e307)]))
    calls = [
        (protect_equatorial, ref, big, big),
        (qkd_error_rate, ref, big, big),
        (average_fidelity_six, ref, big, big),
        (optimal_strengths, GadParams(np.array([0.5, 1e-300]), 1.0)),
        (measured_coefficients, bell, ch1, ch2, big, big),
        (concurrence_lambda2, coeffs, big, big),
        (protected_state, bell, ch1, ch2, 1.0, 1.0, big, big),
        (reversed_state, coeffs, big, big),
        (optimized_protection, bell, ch1, ch2, big),
        (EntangledInput, np.array([0.6, complex(1.5e308, 1.5e308)]), 0.8),
        # concurrence arguments that overflow: |e| above half the float range,
        # and a non-physical record at large reversal strengths
        (concurrence_lambda1, wide_e),
        (concurrence_lambda2, wide_e, 1.0, 1.0),
        (concurrence_lambda2, XStateCoefficients(zero, 0.0, 0.0, 1.0, big_e), 1e77, 1e77),
    ]
    before = np.geterr()
    for fn, *args in calls:
        default = outcome(fn, *args)
        assert type(default) is ValueError, (fn, default)
        with np.errstate(over="raise", invalid="raise"):
            raising = np.geterr()
            err = outcome(fn, *args)
            assert np.geterr() == raising, fn
        assert (type(err), str(err)) == (ValueError, str(default)), fn
        assert np.geterr() == before, fn


def test_float_calls_at_every_pair_of_edges():
    # every pair of edge strengths, and each edge azimuth, on fixed channels,
    # each input a numpy scalar in turn; the properties below draw the edges
    # with random channels and make every input a numpy scalar at once
    ch1, ch2 = GadParams(0.8, 0.3), GadParams(0.95, 0.3)
    bell = EntangledInput.from_alpha_sq(0.5)
    coeffs = measured_coefficients(bell, ch1, ch2, 1.3, 1.0)
    for a, b in itertools.product(EDGES, repeat=2):
        for phi in EDGE_PHASES:
            protect_with_f64(ch1, a, b, phi)
        measure_with_f64(bell, ch1, ch2, a, b)
        reverse_with_f64(coeffs, a, b)


@PROPERTY
@given(channels, strengths, strengths, phases, edge_strength, edge_strength, azimuths)
def test_qubit_closed_forms(params, ms, ns, phi, em, en, phis):
    m, n = np.array(ms)[:, None], np.array(ns)[None, :]
    points = [(mi, ni) for mi in ms for ni in ns]

    each = [outcome(protect_equatorial, params, mi, ni, phi) for mi, ni in points]
    res = outcome(protect_equatorial, params, m, n, phi)
    if agree(res, each, *fields("fidelity", "success_prob")):
        want = np.array([r.output_state for r in each])
        assert res.output_state.reshape(want.shape).tobytes() == want.tobytes()

    # an azimuth array against the m axis, at the first n; and its equatorial states
    each = [outcome(protect_equatorial, params, mi, ns[0], a) for mi in ms for a in phis]
    res = outcome(protect_equatorial, params, m, ns[0], np.array(phis))
    if agree(res, each):
        want = np.array([r.output_state for r in each])
        assert res.output_state.reshape(want.shape).tobytes() == want.tobytes()
    want = np.array([equatorial_state(a) for a in phis])
    assert equatorial_state(np.array(phis)).tobytes() == want.tobytes()

    each = [outcome(average_fidelity_six, params, mi, ni) for mi, ni in points]
    agree(outcome(average_fidelity_six, params, m, n), each,
          *fields("f0", "f1", "fe", "favg"))

    each = [outcome(qkd_error_rate, params, mi, ni) for mi, ni in points]
    agree(outcome(qkd_error_rate, params, m, n), each, lambda rate: rate)

    # numpy scalars give plain floats with the bits, or the refusal, of the
    # float call, at edge strengths
    protect_with_f64(params, em, en, phi, all_f64)
    f64 = np.float64
    agree_f64(outcome(average_fidelity_six, params, em, en),
              outcome(average_fidelity_six, as_f64(params), f64(em), f64(en)),
              *fields("f0", "f1", "fe", "favg"))
    agree_f64(outcome(qkd_error_rate, params, em, en),
              outcome(qkd_error_rate, as_f64(params), f64(em), f64(en)), lambda rate: rate)


def test_stacked_inputs_have_the_bits_of_their_lone_records():
    # real amplitudes of either sign, and complex ones with a -0.0 imaginary
    # part: alpha conj(beta) has a zero part, whose sign each entry must keep
    pairs = [(0.6, -0.8), (-0.6, 0.8), (-0.6, -0.8), (0.6, 0.8), (-1.0, 0.0), (0.0, -1.0),
             (complex(0.6, -0.0), 0.8), (0.6, complex(-0.8, -0.0)),
             (complex(-0.6, -0.0), complex(0.8, -0.0))]
    ch1, ch2 = GadParams(0.9, 0.5), GadParams(0.95, 0.3)
    stack = EntangledInput(*(np.array(amps) for amps in zip(*pairs)))
    each = [measured_coefficients(EntangledInput(a, b), ch1, ch2, 1.3, 0.7) for a, b in pairs]
    assert agree(measured_coefficients(stack, ch1, ch2, 1.3, 0.7), each,
                 *fields("a", "b", "c", "d", "e"))


def test_lambda1_of_a_stack_has_the_bits_of_its_lone_records():
    # a stacked coherence beside float b and c: each entry's |e| is libm's,
    # as on its own record and in concurrence_lambda2
    rng = np.random.default_rng(5)
    e = rng.uniform(0.0, 0.3, 200) * np.exp(1j * rng.uniform(0.0, 6.3, 200))
    each = [concurrence_lambda1(XStateCoefficients(0.3, 0.1, 0.1, 0.3, complex(z))) for z in e]
    stack = XStateCoefficients(np.full(200, 0.3), 0.1, 0.1, 0.3, e)
    assert agree(concurrence_lambda1(stack), each, lambda lam: lam)


@PROPERTY
@given(channels, channels, unit, phases, strengths, strength, edge_strength, edge_strength,
       amplitudes)
def test_entangle_chain(ch1, ch2, alpha_sq, phase, ms, m2, em, en, pairs):
    alpha, beta = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq) * cmath.exp(1j * phase)
    inp = EntangledInput(alpha, beta)
    m1 = np.array(ms)
    xstate = fields("a", "b", "c", "d", "e")

    # numpy amplitudes, complex and real, give plain floats with the bits
    # of the call on the Python numbers they hold, at m1 = ms[0], m2 = 1
    for amps in ((alpha, beta), (alpha, abs(beta))):
        as_numpy = EntangledInput(*(np.complex128(a) if type(a) is complex else np.float64(a)
                                    for a in amps))
        assert (type(as_numpy.alpha), type(as_numpy.beta)) == tuple(map(type, amps))
        agree_f64(outcome(measured_coefficients, EntangledInput(*amps), ch1, ch2, ms[0], 1.0),
                  outcome(measured_coefficients, as_numpy, ch1, ch2, ms[0], 1.0), *xstate)
        agree_f64(outcome(optimal_parameters, EntangledInput(*amps), ch1, ch2),
                  outcome(optimal_parameters, as_numpy, ch1, ch2),
                  *fields("lambda1", "lambda2", "lambda2_max", "m_opt", "n1_opt", "n2_opt", "h",
                          "alpha_sq_opt", "success_prob"))

    # a stack of inputs on the first axis, the strengths ms on the second: each
    # entry with the bits of the record built from its two amplitudes
    stack = EntangledInput(*(np.array(amp)[:, None] for amp in zip(*pairs)))
    inputs = [EntangledInput(a, b) for a, b in pairs]
    assert stack.density()[:, 0].tobytes() == np.array([i.density() for i in inputs]).tobytes()
    each = [outcome(measured_coefficients, i, ch1, ch2, m, m2) for i in inputs for m in ms]
    agree(outcome(measured_coefficients, stack, ch1, ch2, m1, m2), each, *xstate)
    each = [outcome(protected_state, i, ch1, ch2, m, m2, m2, ms[-1]) for i in inputs for m in ms]
    res = outcome(protected_state, stack, ch1, ch2, m1, m2, m2, ms[-1])
    if agree(res, each, lambda res: res[1]):
        each = [reversed_state(coeffs, m2, ms[-1]) for coeffs, _ in each]
        res = reversed_state(res[0], m2, ms[-1])
        agree(res, each, lambda out: out[1])
        want = np.array([state for state, _ in each])
        assert res[0].reshape(want.shape).tobytes() == want.tobytes()

    # numpy scalars at edge strengths: the bits, or the refusal, of the float call
    measure_with_f64(inp, ch1, ch2, em, en, all_f64)
    agree_f64(outcome(optimized_protection, inp, ch1, ch2, em),
              outcome(optimized_protection, inp, as_f64(ch1), as_f64(ch2), np.float64(em)),
              *(lambda res, k=k: res[k] for k in range(4)))

    # lambda2_max on a stack of channels, a resetting one (zero penalty) among them
    reset = GadParams(1.0, 1.0)
    stack = GadParams(*(np.array(v) for v in zip(*((ch.p, ch.r) for ch in (ch1, ch2, reset)))))
    agree(lambda2_max(stack, ch2), [lambda2_max(ch, ch2) for ch in (ch1, ch2, reset)],
          lambda lam: lam)

    coeffs = outcome(measured_coefficients, inp, ch1, ch2, m1, m2)
    each_coeffs = [outcome(measured_coefficients, inp, ch1, ch2, m, m2) for m in ms]
    if not agree(coeffs, each_coeffs, *xstate, concurrence_lambda1):
        return
    # array weights with the Python complex coherence of one point
    first = each_coeffs[0]
    mixed = XStateCoefficients(coeffs.a, coeffs.b, coeffs.c, coeffs.d, first.e)
    want = np.array([XStateCoefficients(c.a, c.b, c.c, c.d, first.e).matrix() for c in each_coeffs])
    assert mixed.matrix().tobytes() == want.tobytes()

    reversal = outcome(optimal_reversal, coeffs)
    each_reversal = [outcome(optimal_reversal, c) for c in each_coeffs]
    f64 = np.float64
    first_f64 = XStateCoefficients(*(f64(v) for v in (first.a, first.b, first.c, first.d)), first.e)
    if agree_f64(each_reversal[0], outcome(optimal_reversal, first_f64),
                 lambda nn: nn[0], lambda nn: nn[1]):
        n1, n2 = each_reversal[0]
        agree_f64(outcome(concurrence_lambda2, first, n1, n2),
                  outcome(concurrence_lambda2, first, f64(n1), f64(n2)), lambda lam2: lam2)
    reverse_with_f64(first, en, em, all_f64)
    if not agree(reversal, each_reversal, lambda nn: nn[0], lambda nn: nn[1]):
        return

    agree(
        outcome(concurrence_lambda2, coeffs, *reversal),
        [outcome(concurrence_lambda2, c, *nn) for c, nn in zip(each_coeffs, each_reversal)],
        lambda lam2: lam2,
    )
    each = [outcome(reversed_state, c, *nn) for c, nn in zip(each_coeffs, each_reversal)]
    res = outcome(reversed_state, coeffs, *reversal)
    if agree(res, each, lambda out: out[1]):
        want = np.array([state for state, _ in each])
        assert res[0].reshape(want.shape).tobytes() == want.tobytes()
    agree(
        outcome(protected_state, inp, ch1, ch2, m1, m2, *reversal),
        [outcome(protected_state, inp, ch1, ch2, m, m2, *nn)
         for m, nn in zip(ms, each_reversal)],
        lambda res: res[1],
        *(lambda res, f=f: f(res[0]) for f in xstate),
    )


# the whole domain of the pipeline: channel boundaries drawn explicitly,
# strengths log-uniform over [1e-12, 50]
edge_unit = st.one_of(st.sampled_from([0.0, 1.0]), unit)
edge_channels = st.lists(st.tuples(edge_unit, edge_unit), min_size=1, max_size=6)
log_strengths = st.lists(
    st.floats(-12.0, math.log10(50.0)).map(lambda e: min(10.0 ** e, 50.0)),
    min_size=1, max_size=6,
)


@PROPERTY
@given(edge_channels, log_strengths, log_strengths, phases)
def test_pipeline_arrays(pairs, ms, ns, phi):
    # the channels as one (C, 1) array, and one by one
    stack = GadParams(*(np.array(v)[:, None] for v in zip(*pairs)))
    channels = [GadParams(p, r) for p, r in pairs]
    ops = gad_channel(stack)
    assert ops.shape == (len(pairs), 1, 4, 2, 2)
    assert ops.tobytes() == np.stack([gad_channel(ch) for ch in channels]).tobytes()
    for fn in (g_value, baseline_fidelity):
        agree(fn(stack), [fn(ch) for ch in channels], lambda v: v)
    agree(outcome(optimal_strengths, stack), [outcome(optimal_strengths, ch) for ch in channels],
          *fields("m", "n", "f_max"), lambda best: 1.0 * best.projective)
    # each channel against each m, at the first n
    for fn in (bb84_error_rate, qkd_error_rate):
        each = [outcome(fn, ch, mi, ns[0]) for ch in channels for mi in ms]
        agree(outcome(fn, stack, np.array(ms), ns[0]), each, lambda err: err)
    for fn, names in ((protect_equatorial, ("fidelity", "success_prob")),
                      (average_fidelity_six, ("f0", "f1", "fe", "favg"))):
        each = [outcome(fn, ch, mi, ns[0]) for ch in channels for mi in ms]
        agree(outcome(fn, stack, np.array(ms), ns[0]), each, *fields(*names))
    bell = EntangledInput.from_alpha_sq(0.5)
    each = [outcome(measured_coefficients, bell, ch, channels[0], mi, ns[0])
            for ch in channels for mi in ms]
    agree(outcome(measured_coefficients, bell, stack, channels[0], np.array(ms), ns[0]), each,
          *fields("a", "b", "c", "d", "e"))
    # the channel array against float strengths
    each = [outcome(measured_coefficients, bell, ch, channels[0], ms[0], ns[0]) for ch in channels]
    agree(outcome(measured_coefficients, bell, stack, channels[0], ms[0], ns[0]), each,
          *fields("a", "b", "c", "d", "e"))

    # the dilation: the (C, 1) channel stack against a stack of states
    states = np.stack([equatorial_state(phi), equatorial_state(phi + 1.0), np.eye(2) / 2 + 0j])
    want = np.array([[apply_via_dilation(ch, rho) for rho in states] for ch in channels])
    assert apply_via_dilation(stack, states).tobytes() == want.tobytes()

    params = channels[0]
    m, n = np.array(ms)[:, None], np.array(ns)[None, :]
    points = [(mi, ni) for mi in ms for ni in ns]

    each = [outcome(bb84_error_rate, params, mi, ni) for mi, ni in points]
    agree(outcome(bb84_error_rate, params, m, n), each, lambda err: err)

    rho = equatorial_state(phi)
    each = [outcome(apply_protection, params, mi, ni, rho) for mi, ni in points]
    res = outcome(apply_protection, params, m, n, rho)
    if agree(res, each, lambda out: out[1]):
        want = np.array([state for state, _ in each])
        assert res[0].reshape(want.shape).tobytes() == want.tobytes()
