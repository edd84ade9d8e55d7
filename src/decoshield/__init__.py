"""Weak-measurement protection of qubit states and two-qubit entanglement
passing through finite-temperature amplitude-damping channels.

Each public name is imported from its submodule on its first read here
(PEP 562), so a call loads only the modules it runs. `import decoshield`
loads no submodule. A one-qubit `decoshield optimal` query loads `cli`,
`_elementwise`, `linalg`, `channels`, `weakmeas` and `qubit`; a pair query
and the `entangle` sweep add `entangle`; the qubit sweeps load what the
one-qubit query does; `verify` adds `entangle`, `optimize` and `checks`.
numpy waits for the first array call (see `_elementwise`). A submodule is an
attribute of the package only once it is imported, directly or by reading
one of its names: after a bare `import decoshield`, `decoshield.qubit`
raises AttributeError.
"""

import importlib

# each public name and the submodule that defines it: the one statement of __all__
_HOMES = {
    **dict.fromkeys(("GadParams", "apply_channel", "apply_on_qubit", "apply_via_dilation",
                     "check_trace_preserving", "gad_channel"), "channels"),
    **dict.fromkeys(("ConcurrenceReport", "EntangledInput", "XStateCoefficients",
                     "channel_degraded_state", "component_coefficients", "concurrence_lambda1",
                     "concurrence_lambda2", "lambda2_max", "measured_coefficients",
                     "optimal_parameters", "optimal_reversal", "pipeline_state",
                     "protected_state", "reversed_state"), "entangle"),
    **dict.fromkeys(("equatorial_state", "fidelity", "validate_density",
                     "wootters_concurrence"), "linalg"),
    **dict.fromkeys(("SearchBox", "SearchResult", "grid_maximize", "simplex_maximize",
                     "stationarity_check"), "optimize"),
    **dict.fromkeys(("AverageFidelityReport", "OptimalStrengths", "ProtectionResult",
                     "apply_protection", "average_fidelity_six", "baseline_fidelity",
                     "bb84_error_rate", "g_value", "optimal_strengths", "protect_equatorial",
                     "qkd_error_rate"), "qubit"),
    **dict.fromkeys(("PostSelectionError", "apply_postselected"), "weakmeas"),
}
__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, read for the first time: import its module and bind the
    value here, so later reads are plain dict hits. Any other name raises
    AttributeError, which is what lets `from decoshield import cli` fall back
    to importing the submodule."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
