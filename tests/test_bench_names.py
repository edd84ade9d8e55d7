"""The benchmark's traced mode (`bench/run.py --trace 1`) reports each name
in its HOT_FUNCTIONS by looking it up among the functions it traced, which
are the public functions defined in each layer module. The names are read
from the script's source, without importing it."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import decoshield

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "bench" / "run.py"
# public names that no other module and no benchmark file uses, and why each is public
ALLOWED = {
    **dict.fromkeys(("AverageFidelityReport", "ConcurrenceReport", "OptimalStrengths",
                     "ProtectionResult", "XStateCoefficients"), "a result record callers read"),
    "PostSelectionError": "the error type of a void run, for callers to catch",
}


def test_hot_functions_are_public_layer_functions():
    tree = ast.parse(RUN.read_text())
    names = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["HOT_FUNCTIONS"]
    )
    assert names
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"decoshield.{layer}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name


def test_no_public_name_exists_only_for_the_tests():
    """Each name in decoshield.__all__ is used by code in a module other than
    its own (parsed, so a docstring mention does not count), appears in a
    benchmark file, or is allowed above."""
    used = {}
    for path in (ROOT / "src" / "decoshield").glob("*.py"):
        used[path.stem] = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))
        }
    bench = "\n".join(path.read_text() for path in RUN.parent.rglob("*")
                      if path.is_file() and "__pycache__" not in path.parts)
    assert ALLOWED.keys() <= set(decoshield.__all__)
    only_tests = []
    for name in decoshield.__all__:
        home = getattr(decoshield, name).__module__.rpartition(".")[2]
        elsewhere = any(name in names for module, names in used.items()
                        if module not in (home, "__init__"))
        if not (elsewhere or re.search(rf"\b{name}\b", bench) or name in ALLOWED):
            only_tests.append(name)
    assert only_tests == []
