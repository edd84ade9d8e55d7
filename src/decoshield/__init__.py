"""Weak-measurement protection of qubit states and two-qubit entanglement
passing through finite-temperature amplitude-damping channels."""

import types

from .channels import (
    GadParams,
    apply_channel,
    apply_on_qubit,
    apply_via_dilation,
    check_trace_preserving,
    gad_channel,
)
from .entangle import (
    ConcurrenceReport,
    EntangledInput,
    XStateCoefficients,
    channel_degraded_state,
    component_coefficients,
    concurrence_lambda1,
    concurrence_lambda2,
    lambda2_max,
    measured_coefficients,
    optimal_parameters,
    optimal_reversal,
    pipeline_state,
    protected_state,
    reversed_state,
)
from .linalg import (
    equatorial_state,
    fidelity,
    validate_density,
    wootters_concurrence,
)
from .optimize import (
    SearchBox,
    SearchResult,
    grid_maximize,
    simplex_maximize,
    stationarity_check,
)
from .qubit import (
    AverageFidelityReport,
    OptimalStrengths,
    ProtectionResult,
    apply_protection,
    average_fidelity_six,
    baseline_fidelity,
    bb84_error_rate,
    g_value,
    optimal_strengths,
    protect_equatorial,
    qkd_error_rate,
)
from .weakmeas import PostSelectionError, apply_postselected

# every public name the imports above bind; submodules are left out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)

__version__ = "0.1.0"
