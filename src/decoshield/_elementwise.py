"""Scalar-or-array evaluation of the closed forms.

Each closed form is written once and runs on Python floats or on numpy
arrays of strengths: scalar in, float out; array in, array out. The few
operations whose spelling depends on the type come from one of two
namespaces, picked once per call: SCALAR keeps plain float arithmetic
(no 0-d arrays, no numpy scalars in results), ARRAY broadcasts.

Every array entry equals the scalar call at that point bit for bit. Real
`+ - * /` and sqrt are correctly rounded and minimum and maximum exact
either way, but numpy's SIMD power and complex modulus differ from libm's
pow and hypot in the last ulp on some inputs, so ARRAY routes those two
through libm as well. Complex values are assembled from real and
imaginary parts computed in real arithmetic, because numpy's complex
product can differ from Python's in the sign of a zero part.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import numpy as np


def _libm_pow(x: np.ndarray, y: float) -> np.ndarray:
    return np.array([v ** y for v in x.ravel().tolist()]).reshape(x.shape)


def _libm_modulus(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _complex_array(re, im) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real = re
    out.imag = im
    return out


SCALAR = SimpleNamespace(
    all=bool,
    minimum=min,
    maximum=max,
    sqrt=math.sqrt,
    modulus=abs,
    pow=pow,
    complex=complex,
)
ARRAY = SimpleNamespace(
    all=np.all,
    minimum=np.minimum,
    maximum=np.maximum,
    sqrt=np.sqrt,
    modulus=_libm_modulus,
    pow=_libm_pow,
    complex=_complex_array,
)


def first_failure(values, ok):
    """The first entry of `values` where the mask `ok` is False, as a Python
    scalar; None when every entry passes."""
    if isinstance(ok, np.ndarray):
        return None if ok.all() else values[~ok].flat[0].item()
    return None if ok else values


# the closed forms square every strength: a strength in [SQUARE_MIN,
# SQUARE_MAX] has a square that is finite and nonzero, and no wider range does
SQUARE_MIN = 1.5717277847026288e-162
SQUARE_MAX = math.sqrt(sys.float_info.max)


def check_strength(name: str, value, zero_ok: bool = False) -> None:
    """Raise ValueError naming the strength unless every entry is positive,
    or non-negative when zero_ok, with a finite square that is nonzero for
    a positive entry. Compares only, so no entry can raise a numpy warning."""
    ok = ((0.0 <= value) if zero_ok else (SQUARE_MIN <= value)) & (value <= SQUARE_MAX)
    if ok is True:  # a valid Python float, without the call below
        return
    failed = first_failure(value, ok)
    if failed is not None:
        kind = "non-negative with a finite" if zero_ok else "positive with a finite nonzero"
        raise ValueError(f"{name} must be finite and {kind} square, got {failed!r}")
