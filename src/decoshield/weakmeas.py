"""Diagonal weak measurements and their post-selected application.

A pre-channel measurement diag(1, m) partially collapses toward |0>;
a post-channel reversal diag(n, 1) undoes the collapse probabilistically.
Two-qubit variants are tensor products of the single-qubit forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dagger

MIN_POSTSELECT_PROB = 1e-14


class PostSelectionError(ValueError):
    """Raised when the post-selected outcome has (numerically) zero probability."""


@dataclass(frozen=True)
class WeakMeasurement:
    """Diagonal measurement operator given by its non-negative diagonal entries."""

    strengths: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.strengths) not in (2, 4):
            raise ValueError("expected 2 or 4 diagonal entries")
        if not all(0.0 <= s < math.inf for s in self.strengths):
            raise ValueError(
                f"strengths must be finite and non-negative, got {self.strengths}"
            )

    @classmethod
    def pre(cls, *m: float) -> "WeakMeasurement":
        """diag(1, m) on each qubit, tensored together."""
        diag = np.array([1.0])
        for strength in m:
            diag = np.kron(diag, np.array([1.0, strength]))
        return cls(tuple(diag))

    @classmethod
    def post(cls, *n: float) -> "WeakMeasurement":
        """diag(n, 1) on each qubit, tensored together."""
        diag = np.array([1.0])
        for strength in n:
            diag = np.kron(diag, np.array([strength, 1.0]))
        return cls(tuple(diag))

    def operator(self) -> np.ndarray:
        """Raw (possibly unphysical) diagonal operator."""
        return np.diag(np.asarray(self.strengths, dtype=complex))


def physical_form(wm: WeakMeasurement) -> tuple[np.ndarray, float]:
    """Rescale so the operator is a valid measurement element (op^dag op <= I).

    Returns the rescaled operator and the applied scale 1 / max(1, strengths).
    Entries <= 1 are left untouched.
    """
    c_max = max(1.0, max(wm.strengths))
    scale = 1.0 / c_max
    return wm.operator() * scale, scale


def apply_postselected(
    wm: WeakMeasurement, rho: np.ndarray
) -> tuple[np.ndarray, float]:
    """Post-selected update: (K rho K^dag / w, w) with K the physical form.

    The probability w = tr(K rho K^dag) uses the rescaled operator, so a
    strength c > 1 suppresses the outcome by 1/c^2.
    """
    op, _ = physical_form(wm)
    if op.shape != rho.shape:
        raise ValueError(f"dimension mismatch: op {op.shape} vs rho {rho.shape}")
    raw = op @ rho @ dagger(op)
    prob = float(raw.trace().real)
    if prob < MIN_POSTSELECT_PROB:
        raise PostSelectionError(f"post-selection probability {prob:.3e} is zero")
    return raw / prob, prob
