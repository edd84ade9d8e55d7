"""Scalar-or-array evaluation of the closed forms.

Each closed form is written once and runs on Python floats or on numpy
arrays of strengths: scalar in, float out; array in, array out. Every
operation whose spelling depends on the type comes from one of two
namespaces, picked once per call by `namespace` from the strengths and
channel parameters: SCALAR keeps plain float arithmetic (no 0-d arrays,
no numpy scalars in results), ARRAY broadcasts; the closed forms branch on
nothing else. Besides the arithmetic (`minimum`, `maximum`, `sqrt`,
`modulus`, `pow`, `cos`, `sin`, `complex`), each has
`assemble(entries, shape, dtype)`, an array of that shape from its entries
in C order (for ARRAY a stack, one per point), `broadcast(*values)`,
`per_matrix(value)`, a value per point shaped to divide a stack of
matrices, `where(cond, a, b)`, a where cond holds and b elsewhere, and
`loud()`, whether an array call re-runs inside `quietly`.

Every array entry equals the scalar call at that point bit for bit. Real
`+ - * /` and sqrt are correctly rounded and minimum and maximum exact
either way, but numpy's SIMD power, complex modulus, cosine and sine
differ from libm's pow, hypot, cos and sin in the last ulp on some inputs,
so ARRAY routes those four through libm as well. Complex values are
assembled from real and imaginary parts computed in real arithmetic,
because numpy's complex product can differ from Python's in the sign of a
zero part.

The Kraus pipeline builds its measurement diagonals on the same two paths;
its matrix stages run on stacks, where the helpers here give each matrix the
bits it gets on its own.

Every check that takes arrays refuses through `reject`, naming the first
failing entry in C order as a Python scalar; NaN always fails. A range is
checked by `check_range` on closed ends only (0 < x is x >= math.ulp(0.0)),
one number by `check_scalar`. A record checks and shapes its own entries
once, when it is built (`GadParams` its channel parameters, whose population
transfer it also holds, `EntangledInput` its amplitudes, each pair of one
shape, `XStateCoefficients` its weights, in its own `__init__`); closed forms trust it.
The common call is all Python floats: `protect_equatorial`, `measured_coefficients`
and `entangle._reversal` first test that every input is a float inside its check's
range, and then skip `namespace` and the checks, calling the overflow and cutoff
checks only when their comparison fails: same bits, same refusals, same order.

numpy is imported on first use, through the handle `np` that every module
of the package imports from here: a query on Python floats (the `optimal`
subcommand, `--help`, a usage error) never loads it. The package modules
load the same way (see the package docstring): `import decoshield` loads
none, a one-qubit query this module, `linalg`, `channels`, `weakmeas`,
`qubit` and `cli`, a pair query also `entangle`, `verify` every module.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from types import ModuleType, SimpleNamespace


class _NumpyOnDemand(ModuleType):
    """numpy, imported on the first attribute read. That read copies numpy's
    namespace into the handle and makes it a plain module, so later reads
    cost what a read on numpy itself costs, with no hook left to call."""

    def __getattr__(self, name):
        import numpy

        vars(self).update(vars(numpy))
        self.__class__ = ModuleType
        return getattr(numpy, name)


np = _NumpyOnDemand("numpy")


def _libm(fn, x) -> np.ndarray:
    """fn, a function of one float, at each entry of x."""
    x = np.asarray(x)
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _libm_modulus(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _complex_array(re, im) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real = re
    out.imag = im
    return out


def loud() -> bool:
    """ARRAY's loud: whether numpy's overflow or invalid-value warnings are
    on, as outside quietly. SCALAR's is bool, False: floats never warn."""
    state = np.geterr()
    return not state["over"] == state["invalid"] == "ignore"


def quietly(fn, *args):
    """fn(*args) with numpy's overflow and invalid-value warnings off, so an entry that
    overflows turns inf or NaN for check_finite to name. A closed form re-runs itself
    here (`if xp.loud(): return quietly(<itself>, ...)`), pinned by the refusal table."""
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(*args)


def _assemble_array(entries, shape, dtype):
    shapes = {entry.shape for entry in entries if type(entry) not in (float, complex)}
    # the common stack has one shape, its own broadcast: skip the slow call
    lead = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    flat = np.zeros(lead + (len(entries),), dtype)
    for i, entry in enumerate(entries):
        flat[..., i] = entry
    return flat.reshape(lead + shape)


SCALAR = SimpleNamespace(
    minimum=min,
    maximum=max,
    sqrt=math.sqrt,
    modulus=abs,
    pow=pow,
    cos=math.cos,
    sin=math.sin,
    complex=complex,
    assemble=lambda entries, shape, dtype: np.array(entries, dtype).reshape(shape),
    broadcast=lambda *values: values,
    per_matrix=float,
    loud=bool,
    where=lambda cond, a, b: a if cond else b,
)


@functools.cache
def _array() -> SimpleNamespace:
    """ARRAY, built on the first array call: numpy is loaded by then."""
    return SimpleNamespace(
        minimum=np.minimum,
        maximum=np.maximum,
        sqrt=np.sqrt,
        modulus=_libm_modulus,
        pow=lambda x, y: _libm(lambda v: v ** y, x),
        cos=functools.partial(_libm, math.cos),
        sin=functools.partial(_libm, math.sin),
        complex=_complex_array,
        assemble=_assemble_array,
        broadcast=np.broadcast_arrays,
        # a value per point, shaped against a (..., d, d) stack
        per_matrix=lambda value: np.asarray(value)[..., None, None],
        loud=loud,
        where=np.where,
    )


def namespace(*values):
    """(xp, values): ARRAY when any value is a numpy array, otherwise
    SCALAR. Each numpy scalar becomes the Python float it holds, so that it
    overflows as floats do, and each array becomes float64, so that an
    integer array cannot wrap and a float32 one is computed as its numpy
    scalars are. A complex value becomes a complex array, not truncated, for
    the check that reads it to refuse by name. Other values are passed on as
    given."""
    for value in values:  # plain floats, the common call, test nothing else
        if type(value) is not float:
            break
    else:
        return SCALAR, values
    xp, converted = SCALAR, []
    for value in values:
        if type(value) is float:  # tested first: the common value
            pass
        elif isinstance(value, np.ndarray):
            xp, value = _array(), value if value.dtype.kind == "c" else np.asarray(value, float)
        elif isinstance(value, (complex, np.complexfloating)):
            value = np.asarray(value)
        elif isinstance(value, np.generic):
            value = float(value)
        converted.append(value)
    return xp, converted


def ordered_sum(terms):
    """terms[0] + terms[1] + ..., added left to right: numpy's reductions
    pick their summation order from the layout of the array."""
    return functools.reduce(operator.add, terms)


def real_trace(x: np.ndarray):
    """Real part of the trace of each matrix in a (..., d, d) stack, its
    diagonal added left to right: a float for one matrix."""
    diag = x.diagonal(0, -2, -1).real
    # one matrix: its diagonal as floats; a stack: one array per diagonal entry
    terms = diag.tolist() if diag.ndim == 1 else [diag[..., i] for i in range(diag.shape[-1])]
    return ordered_sum(terms)


def reject(ok, error, message: str, *values) -> None:
    """Return when every entry of the mask ok, a bool or an array, passes;
    otherwise raise error(message.format(*entries)), with `values` broadcast
    to ok and read at its first False entry in C order as Python scalars."""
    if ok is True or (ok is not False and np.logical_and.reduce(ok, axis=None)):  # np.all, bare
        return
    if ok is False and all(type(v) in (float, int, complex) for v in values):  # no numpy call
        raise error(message.format(*values))
    at = np.argmin(ok)
    raise error(message.format(*(np.broadcast_to(v, np.shape(ok)).item(at) for v in values)))


# the closed forms square every strength: a strength in [SQUARE_MIN,
# SQUARE_MAX] has a square that is finite and nonzero, and no wider range does
SQUARE_MIN = 1.5717277847026288e-162
SQUARE_MAX = math.sqrt(sys.float_info.max)
FLOAT_MAX = sys.float_info.max


def check_range(value, lower: float, upper: float, message: str, *shown):
    """value, once every entry is real and in [lower, upper]; otherwise
    ValueError(message.format(*shown)), `shown` (by default value) read as
    for reject, or as given for a value with no order, a Python complex or
    a list. Compares only: a Python float, valid or not, makes no numpy call. A
    numpy value meets the bounds as float64, so that a float32 one is not
    compared with FLOAT_MAX cast to its own type, which overflows."""
    if type(value) is not float and isinstance(value, (np.ndarray, np.generic)):
        lower, upper = np.float64(lower), np.float64(upper)
    try:
        ok = (lower <= value) & (value <= upper)
    except TypeError:  # no order: a Python complex or a list, each shown as given
        raise ValueError(message.format(*(shown or (value,)))) from None
    if ok is not True:  # a valid Python float skips the call below
        real = type(value) is float or np.isrealobj(value)
        reject(ok & real, ValueError, message, *(shown or (value,)))
    return value


def check_scalar(name: str, value, kind: str = "a scalar"):
    """value, once it is one number; otherwise ValueError giving its shape. Floats skip numpy."""
    if type(value) is not float and np.ndim(value):
        raise ValueError(f"{name} must be {kind}, got shape {np.shape(value)}")
    return value


def check_azimuth(phi):
    """phi, once every entry is finite and real; otherwise ValueError naming phi."""
    return check_range(phi, -FLOAT_MAX, FLOAT_MAX, "phi must be finite and real, got {!r}")


def check_strength(name: str, value, zero_ok: bool = False):
    """value, a Python int as the float it holds, once every entry is
    positive, or non-negative when zero_ok, with a finite square that is
    nonzero for a positive entry; otherwise ValueError naming the strength."""
    lower = 0.0 if zero_ok else SQUARE_MIN
    kind = "non-negative with a finite" if zero_ok else "positive with a finite nonzero"
    message = f"{name} must be finite and {kind} square, got {{!r}}"
    value = check_range(value, lower, SQUARE_MAX, message)
    return value if type(value) is np.ndarray else value * 1.0  # an int, to overflow as a float


def check_finite(value, names: str, *strengths):
    """value, once every entry is finite; otherwise ValueError giving the
    strengths `names` as floats at the first entry that is not, where the
    closed form built from them overflowed. value is non-negative; compares only."""
    ok = value <= FLOAT_MAX
    if ok is not True:  # a finite Python float skips the call below
        point = ", ".join(["{!r}"] * len(strengths))
        message = f"strengths {names} = {point} overflow the float range"
        reject(ok, ValueError, message, *(np.asarray(s, dtype=float) for s in strengths))
    return value
