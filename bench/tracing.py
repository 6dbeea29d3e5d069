"""Outside-in tracing of the library's public functions.

Every public function of every layer module is replaced by a wrapper that
records one span: name, start, end, parent span and whether it raised. The
library imports functions by name (``from .linalg import inertia``), so each
wrapper replaces the binding in every ``matorder`` module namespace, not only
in the defining module; calls between modules therefore nest as spans too.
Spans stay in memory in flat arrays and are reduced to per-function counts,
self time (span minus child spans) and exceptions when the run ends.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from array import array
from typing import Callable, Dict, List

import numpy as np

LAYERS = (
    "linalg", "order", "localiso", "halfplane", "classify",
    "monotone", "sampling", "fileio", "suites", "cli",
)

HOT = (
    "linalg.as_square", "linalg.as_hermitian", "linalg.frob", "linalg.herm_part",
    "linalg.opnorm", "linalg.hermitian_eigen", "linalg.inertia", "linalg.is_invertible",
    "linalg.invertibility_margin", "localiso.in_zero_component", "localiso.in_shear_domain",
    "localiso.order_iso_apply", "localiso.shear_apply", "localiso.path_to_zero",
    "classify.block_map_apply", "classify.in_block_domain", "halfplane.apply_mobius",
    "halfplane.neg_inverse", "halfplane.fit_canonical", "localiso.identify_parameters",
    "classify.rational_effect_automorphism", "monotone.is_matrix_monotone",
    "sampling.random_unitary",
)

RUN_SUITE = "suites.run_suite"
PATH_TO_ZERO = "localiso.path_to_zero"


class Tracer:
    """Span recorder; ``install`` swaps the wrappers in, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.found = 0  # path_to_zero results with found=True
        self._stack = [-1]
        self._swapped: List[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, qual: str, fn: Callable) -> Callable:
        nid = self._id(qual)
        names, parents, starts, ends, raised = self.name, self.parent, self.start, self.end, self.raised
        stack, clock = self._stack, time.perf_counter
        is_suite, is_path = qual == RUN_SUITE, qual == PATH_TO_ZERO

        def traced(*args, **kwargs):
            idx = len(starts)
            span = nid
            if is_suite:
                span = self._id(f"{RUN_SUITE}:{args[0] if args else kwargs['name']}")
            names.append(span)
            parents.append(stack[-1])
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if is_path and result.found:
                self.found += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        originals: Dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"matorder.{layer}")
            if module is None:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "matorder" and not modname.startswith("matorder."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._swapped.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._swapped):
            setattr(module, attr, value)
        self._swapped.clear()

    def stats(self) -> dict:
        """Per span name: calls, self seconds, exceptions; plus top-level suite walls."""
        if not self.start:
            return {"functions": {}, "suite_walls": {}, "found": self.found}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        errors = np.bincount(name, weights=np.frombuffer(self.raised, dtype=np.int8), minlength=k)
        functions: Dict[str, dict] = {}
        for i in np.flatnonzero(calls):
            # run_suite spans carry the suite name after a colon; the function is one.
            _add(functions, self.names[i].split(":", 1)[0],
                 {"calls": int(calls[i]), "self_s": float(self_s[i]), "errors": int(errors[i])})
        # A suite's wall is its run_suite span when no other suite span encloses
        # it (report-determinism replays other suites at reduced trial counts).
        in_suites = np.array([n.startswith("suites.") for n in self.names])
        top = np.ones(dur.size, dtype=bool)
        top[has_parent] = ~in_suites[name[parent[has_parent]]]
        walls: Dict[str, List[float]] = {}
        for i in np.flatnonzero(top):
            label = self.names[name[i]]
            if label.startswith(RUN_SUITE + ":"):
                walls.setdefault(label.split(":", 1)[1], []).append(float(dur[i]))
        return {"functions": functions, "suite_walls": walls, "found": self.found}


def _add(functions: Dict[str, dict], key: str, rec: dict) -> None:
    acc = functions.setdefault(key, {"calls": 0, "self_s": 0.0, "errors": 0})
    for field in acc:
        acc[field] += rec[field]


def merge(parts: List[dict]) -> dict:
    """Combine ``Tracer.stats`` results from several processes."""
    functions: Dict[str, dict] = {}
    walls: Dict[str, List[float]] = {}
    for part in parts:
        for key, rec in part["functions"].items():
            _add(functions, key, rec)
        for suite, values in part["suite_walls"].items():
            walls.setdefault(suite, []).extend(values)
    return {"functions": functions, "suite_walls": walls, "found": sum(p["found"] for p in parts)}


def layer_metrics(stats: dict, suites: List[str]) -> Dict[str, float]:
    """Per-layer, hot-function and per-suite metrics from merged span statistics."""
    out: Dict[str, float] = {}
    per_fn = stats["functions"]
    for layer in LAYERS:
        recs = [rec for fn, rec in per_fn.items() if fn.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(r["calls"] for r in recs)
        out[f"{layer}.self_s"] = float(sum(r["self_s"] for r in recs))
        out[f"{layer}.errors"] = sum(r["errors"] for r in recs)
    for fn in HOT:
        rec = per_fn.get(fn, {"calls": 0, "self_s": 0.0})
        out[f"{fn}.calls"] = rec["calls"]
        out[f"{fn}.self_s"] = float(rec["self_s"])
    calls = per_fn.get(PATH_TO_ZERO, {"calls": 0})["calls"]
    out["localiso.path_to_zero.found_frac"] = stats["found"] / calls if calls else 0.0
    for suite in suites:
        values = stats["suite_walls"].get(suite)
        out[f"suites.{suite}.wall_s"] = statistics.median(values) if values else 0.0
    return out
