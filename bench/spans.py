"""Span tracer that instruments decoshield from the outside.

Every public function of the seven layer modules (and every public method
of the classes they define) is wrapped in place, in every namespace that
binds it: the package root re-exports names and `cli`, `qubit` and
`entangle` import with `from .x import y`, so patching only the defining
module would miss most calls. Nothing under `src/` changes.

A span is (name, parent, start_ns, end_ns). Spans stay in memory as flat
arrays while a traced round runs and are written once, at the end of the
run, by `save`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "qubit", "entangle", "channels", "weakmeas", "linalg", "optimize")
PACKAGE = "decoshield"
SEARCH_FUNCTIONS = ("optimize.grid_maximize", "optimize.simplex_maximize")


def _targets(module) -> dict[str, tuple[object, str, object]]:
    """Map qualified name -> (owner, attribute, original) for one layer."""
    layer = module.__name__.rsplit(".", 1)[1]
    found: dict[str, tuple[object, str, object]] = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found[f"{layer}.{attr}"] = (module, attr, obj)
        elif inspect.isclass(obj):
            for meth, member in vars(obj).items():
                if meth.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                    found[f"{layer}.{attr}.{meth}"] = (obj, meth, member)
    return found


class Tracer:
    """Install with `with tracer:`; spans accumulate until `take_round`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self.raised: Counter[str] = Counter()
        self.search_results: list[tuple[int, bool]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._rounds: list[dict[str, np.ndarray]] = []

    def _wrap(self, qualname: str, fn):
        if qualname not in self.names:
            self.names.append(qualname)
        nid = self.names.index(qualname)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, raised, clock = self._stack, self.raised, time.perf_counter_ns
        searches = self.search_results if qualname in SEARCH_FUNCTIONS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised[qualname] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if searches is not None:
                searches.append((result.evaluations, result.converged))
            return result

        return traced

    def __enter__(self) -> Tracer:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for qualname, (owner, attr, original) in _targets(module).items():
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(qualname, original.__func__))
                    self._patch(owner, attr, wrapped)
                elif inspect.isclass(owner):
                    self._patch(owner, attr, self._wrap(qualname, original))
                else:
                    wrappers[id(original)] = (original, self._wrap(qualname, original))
        # rebind module-level functions wherever a namespace holds them
        namespaces = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, hit[1])
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_round(self) -> dict[str, np.ndarray]:
        """Move the spans recorded so far into a finished round and return it."""
        spans = {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end": np.frombuffer(self._end, dtype=np.int64).copy(),
        }
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._rounds.append(spans)
        return spans

    def save(self, path: Path) -> None:
        """Write every finished round's spans to one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {"names": np.array(self.names)}
        for i, spans in enumerate(self._rounds):
            arrays.update({f"r{i}_{key}": value for key, value in spans.items()})
        np.savez(path, **arrays)


def aggregate(spans: dict[str, np.ndarray], n_names: int) -> dict[str, np.ndarray]:
    """Per-name call count, inclusive and self time (ns) of one round.

    Self time of a span is its duration minus the durations of its direct
    children; in one thread the children never overlap and lie inside the
    parent, so that is exactly the part of the span no child covers.
    """
    name, parent = spans["name"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    own = dur - covered
    return {
        "calls": np.bincount(name, minlength=n_names),
        "incl_ns": np.bincount(name, weights=dur, minlength=n_names),
        "self_ns": np.bincount(name, weights=own, minlength=n_names),
    }
