"""Spans recorded around degen's public functions, from outside the program.

The program imports most names with ``from .x import y``, so a function is
bound in every module that imports it.  `Tracer.install` therefore replaces
the function in *every* loaded ``degen`` module that holds it (for example
``degen.pipeline.todd_coxeter`` as well as ``degen.fpgroup.todd_coxeter``);
methods are replaced on their class.  `Tracer.uninstall` puts the originals
back, and `assert_clean` proves that no wrapper is left before an untraced
pass runs.

A span is ``(name, start, end, parent, phase, item)``: the phase is the
set-up or one pass of the run, the item the case or disk being processed.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

MARK = "_perfbench_span"

# (span name, defining module, attribute or Class.method)
SPANNED = (
    ("cli.main", "degen.cli", "main"),
    ("catalog.open_catalog", "degen.catalog", "open_catalog"),
    ("catalog.load", "degen.catalog", "Catalog.load"),
    ("pipeline.decide", "degen.pipeline", "decide"),
    ("pipeline.propagate_equalities", "degen.pipeline", "propagate_equalities"),
    ("pipeline.fork_certificate", "degen.pipeline", "fork_certificate"),
    ("relations.reduced_presentation", "degen.relations", "reduced_presentation"),
    ("fpgroup.todd_coxeter", "degen.fpgroup", "todd_coxeter"),
    ("complexes.validate", "degen.complexes", "PlanarComplex.validate"),
    ("complexes.classify_vertices", "degen.complexes", "PlanarComplex.classify_vertices"),
    ("invariants.branch_stats", "degen.invariants", "branch_stats"),
    ("invariants.chern", "degen.invariants", "chern"),
    ("enumerator.enumerate_maps", "degen.enumerator", "enumerate_maps"),
    ("enumerator.canonical_form", "degen.enumerator", "canonical_form"),
    ("enumerator.embed", "degen.enumerator", "embed"),
)

# Called once per vertex inside validate and classify_vertices: counted only,
# because a span per call would cost more than the call.
COUNTED = (("complexes.edge_planes", "degen.complexes", "PlanarComplex.edge_planes"),)

# Sizes read off a wrapped call's result.
RESULT_SIZES: dict[str, tuple[str, Callable[[Any], int]]] = {
    "relations.reduced_presentation": ("relators", lambda pres: len(pres.relators)),
    "enumerator.enumerate_maps": ("classes", len),
}


class TracingError(RuntimeError):
    """A wrapper is missing, left installed, or never fired."""


def _owner(module_name: str, attr: str):
    obj = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


def assert_clean() -> None:
    """Raise if any degen module or class still holds a tracing wrapper."""
    for name, module in list(sys.modules.items()):
        if not (name == "degen" or name.startswith("degen.")):
            continue
        for holder in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
            for attr, value in vars(holder).items():
                if hasattr(value, MARK):
                    raise TracingError(f"wrapper left on {name}.{attr}")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, phase, item]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)  # (phase, name)
        self.sizes: list[tuple[int, str, int]] = []  # (span index, kind, size)
        self.phase = ""
        self.item = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        size = RESULT_SIZES.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, self.item])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if size is not None:
                self.sizes.append((idx, size[0], size[1](result)))
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise TracingError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "degen" or n.startswith("degen.")]
        for make, table in ((self._span, SPANNED), (self._counter, COUNTED)):
            for name, module_name, attr in table:
                owner, key = _owner(module_name, attr)
                original = vars(owner)[key]
                wrapper = make(name, original)
                holders = [owner] if isinstance(owner, type) else [
                    m for m in modules if vars(m).get(key) is original
                ]
                for holder in holders:
                    self._patched.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    # -- summaries ----------------------------------------------------------

    def summary(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self seconds, and result sizes.

        A span's self time is its duration minus the durations of its direct
        children, so nested layers are never counted twice.
        """
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, span_phase, _item in self.spans:
            if parent >= 0 and span_phase == phase:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, parent, span_phase, _item) in enumerate(self.spans):
            if span_phase != phase:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[idx]
            if parent >= 0 and name == "enumerator.canonical_form":
                if self.spans[parent][0] == "enumerator.enumerate_maps":
                    out["enumerator.enumerate_maps"]["candidates"] += 1
        for idx, kind, size in self.sizes:
            name, _start, _end, _parent, span_phase, _item = self.spans[idx]
            if span_phase == phase:
                out[name][kind] += size
        for (span_phase, name), n in self.counts.items():
            if span_phase == phase:
                out[name]["calls"] += n
        return out

    def span_count(self, phase: str) -> int:
        return sum(1 for span in self.spans if span[4] == phase)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
