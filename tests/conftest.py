"""Test settings shared by every module.

Hypothesis properties run derandomized, so every run draws the same
examples, with no example database and no per-example deadline. A property
sets only its max_examples.
"""

from hypothesis import settings

# hypothesis also draws floats from the literals of the project modules
# loaded at the time; loading them all gives a test file run alone the
# examples it draws in the whole suite. The package root and `cli` load
# submodules only when a call needs them, so each is named here.
import decoshield.checks  # noqa: F401
import decoshield.cli  # noqa: F401
import decoshield.entangle  # noqa: F401
import decoshield.optimize  # noqa: F401

settings.register_profile("decoshield", deadline=None, derandomize=True, database=None)
settings.load_profile("decoshield")
