"""The benchmark's traced mode (`bench/run.py --trace 1`) reports each name
in its HOT_FUNCTIONS by looking it up among the functions it traced, which
are the public functions defined in each layer module. The names are read
from the script's source, without importing it."""

import ast
import importlib
import inspect
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


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
