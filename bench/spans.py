"""Spans around the calls into each layer of ``sumfree``, recorded from outside.

A layer is one module of the package.  ``Tracer.install`` wraps every public
function defined in a layer module and rebinds each name in every loaded
``sumfree`` module that refers to it, so calls made through the package API
and calls one module makes into another both pass through a wrapper.  Private
helpers are not wrapped: their time counts as self time of the public
function that called them.

A span is ``[name, start, end, parent, item, route, value]``.  Spans stay in
memory until the pass ends.  ``route`` and ``value`` come from the call's
arguments or return value (which algorithm ran, how many nodes it searched),
so counts are exact and do not depend on the clock.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "dilation", "folner", "solver", "periodic", "measures", "harness")
ROOT = "bench.item"
OUTCOMES = ("periodic-containment", "density-drop", "ap-not-found", "falsified")


def _bitset_route(core):
    def route(args, kwargs):
        s = args[0]
        cap = kwargs.get("bitset_cap", args[2] if len(args) > 2 else core.DEFAULT_BITSET_CAP)
        return "bitset" if s and s.largest() <= cap else "enum"

    return route


def _defect_route(folner):
    def route(args, kwargs):
        cap = kwargs.get(
            "enumeration_cap", args[2] if len(args) > 2 else folner.DEFAULT_DEFECT_ENUMERATION_CAP
        )
        return "enum" if args[0].size() <= cap else "closed"

    return route


def _solver_algo(args, kwargs):
    return kwargs.get("algo", args[2] if len(args) > 2 else "bb")


class Tracer:
    """Records spans for one pass at a time; ``take`` hands them over and resets."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._item = -1

    def begin_item(self, item: int) -> None:
        self._item = item
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, perf_counter(), 0.0, None, item, None, None])

    def end_item(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, route_in=None, route_out=None, value_out=None):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            parent = stack[-1] if stack else None
            route = route_in(args, kwargs) if route_in else None
            span = [name, 0.0, 0.0, parent, self._item, route, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if route_out:
                span[5] = route_out(result)
            if value_out:
                span[6] = value_out(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Wrap every public function of every layer; returns how many were wrapped."""
        mods = {layer: sys.modules[f"sumfree.{layer}"] for layer in LAYERS}
        hooks = {
            "core.is_k_sum_free": {"route_in": _bitset_route(mods["core"])},
            "folner.defect": {"route_in": _defect_route(mods["folner"])},
            "dilation.extract_dilate_exhaustive": {"route_out": lambda r: r.method},
            "solver.max_k_sum_free": {
                "route_in": _solver_algo,
                "value_out": lambda r: r.nodes,
            },
            "solver.build_hypergraph": {"value_out": lambda r: len(r.edges)},
            "periodic.fls_step": {"route_out": lambda r: r.tag},
            "measures.build_nu": {"value_out": lambda r: len(r.weights)},
            "measures.build_mu": {"value_out": lambda r: len(r.weights)},
        }
        wrappers = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self._wrap(name, fn, **hooks.get(name, {}))
        for modname, mod in list(sys.modules.items()):
            if modname != "sumfree" and not modname.startswith("sumfree."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        return len(wrappers)


def durations(spans: list, scales=None) -> list[float]:
    """Each span's duration, times its item's factor to reference seconds if given."""
    if scales is None:
        return [s[2] - s[1] for s in spans]
    return [(s[2] - s[1]) * scales[s[4]] for s in spans]


def self_times(spans: list, dur: list[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = list(dur)
    for idx, s in enumerate(spans):
        if s[3] is not None:
            own[s[3]] -= dur[idx]
    return own


def layer_metrics(spans: list, scales=None) -> dict:
    """Per-layer busy time, self time and calls, plus the named function metrics.

    ``<layer>.busy_s`` sums the durations of the layer's outermost spans, so
    a layer calling itself is not counted twice.  Self times of all spans,
    the benchmark's own share included as ``bench.self_s``, add up to
    ``trace.item_s``.  Function metrics ending in ``.s`` are inclusive
    durations; those ending in ``.self_s`` exclude callees.  With ``scales``
    (per item index) every duration is in reference seconds.
    """
    durs = durations(spans, scales)
    own = self_times(spans, durs)
    m: dict = defaultdict(float)
    for layer in LAYERS:
        for key in ("busy_s", "self_s", "calls"):
            m[f"{layer}.{key}"] = 0 if key == "calls" else 0.0
    m["bench.self_s"] = m["trace.item_s"] = 0.0
    for idx, s in enumerate(spans):
        name, _start, _end, parent, _item, route, value = s
        dur = durs[idx]
        if name == ROOT:
            m["bench.self_s"] += own[idx]
            m["trace.item_s"] += dur
            continue
        layer = name.split(".", 1)[0]
        m[f"{layer}.self_s"] += own[idx]
        m[f"{layer}.calls"] += 1
        up = parent
        while up is not None and not spans[up][0].startswith(layer + "."):
            up = spans[up][3]
        if up is None:
            m[f"{layer}.busy_s"] += dur
        m[f"fn.{name}.s"] += dur
        m[f"fn.{name}.self_s"] += own[idx]
        m[f"fn.{name}.calls"] += 1
        if route is not None:
            m[f"fn.{name}.{route}.s"] += dur
            m[f"fn.{name}.{route}.self_s"] += own[idx]
            m[f"fn.{name}.{route}.calls"] += 1
        if value is not None:
            m[f"fn.{name}.value"] += value
            if route is not None:
                m[f"fn.{name}.{route}.value"] += value
    m["trace.spans"] = len(spans)
    return _named(m)


def _named(m: dict) -> dict:
    """Map the raw span sums onto the metric names listed in BENCHMARK.json."""

    def g(key):
        return m.get(key, 0.0)

    out = {k: v for k, v in m.items() if not k.startswith("fn.")}
    out.update(
        {
            "core.is_k_sum_free.self_s": g("fn.core.is_k_sum_free.self_s"),
            "core.is_k_sum_free.calls": int(g("fn.core.is_k_sum_free.calls")),
            "core.is_k_sum_free.bitset.calls": int(g("fn.core.is_k_sum_free.bitset.calls")),
            "core.is_k_sum_free.enum.calls": int(g("fn.core.is_k_sum_free.enum.calls")),
            "core.find_violation.self_s": g("fn.core.find_violation.self_s"),
            "core.find_violation.calls": int(g("fn.core.find_violation.calls")),
            "dilation.descent.s": g("fn.dilation.extract_dilate_exhaustive.descent.s"),
            "dilation.descent.items": int(g("fn.dilation.extract_dilate_exhaustive.descent.calls")),
            "dilation.sweep.s": g("fn.dilation.extract_dilate_exhaustive.sweep.s"),
            "dilation.sweep.items": int(g("fn.dilation.extract_dilate_exhaustive.sweep.calls")),
            "dilation.extract_folner.s": g("fn.dilation.extract_dilate_folner.s"),
            "dilation.extract_measure.s": g("fn.dilation.extract_dilate_measure.s"),
            "solver.build_hypergraph.s": g("fn.solver.build_hypergraph.s"),
            "solver.edges": int(g("fn.solver.build_hypergraph.value")),
            "solver.bb.s": g("fn.solver.max_k_sum_free.bb.self_s"),
            "solver.bb.nodes": int(g("fn.solver.max_k_sum_free.bb.value")),
            "solver.brute.s": g("fn.solver.max_k_sum_free.brute.self_s"),
            "solver.brute.nodes": int(g("fn.solver.max_k_sum_free.brute.value")),
            "folner.defect.s": g("fn.folner.defect.s"),
            "folner.defect.calls": int(g("fn.folner.defect.calls")),
            "folner.defect.enum.calls": int(g("fn.folner.defect.enum.calls")),
            "folner.defect.closed.calls": int(g("fn.folner.defect.closed.calls")),
            "folner.generate.calls": int(g("fn.folner.generate.calls")),
            "measures.build_nu.s": g("fn.measures.build_nu.s"),
            "measures.build_mu.s": g("fn.measures.build_mu.s"),
            "measures.support_points": int(
                g("fn.measures.build_nu.value") + g("fn.measures.build_mu.value")
            ),
            "periodic.verify_density_drop.s": g("fn.periodic.verify_density_drop.s"),
            "periodic.check_translate_inequality.s": g("fn.periodic.check_translate_inequality.s"),
            "periodic.fls_step.s": g("fn.periodic.fls_step.s"),
            "harness.random_drop_instance.s": g("fn.harness.random_drop_instance.s"),
            "harness.random_inequality_case.s": g("fn.harness.random_inequality_case.s"),
            "harness.grow_k_sum_free.s": g("fn.harness.grow_k_sum_free.s"),
        }
    )
    for tag in OUTCOMES:
        out[f"periodic.fls_step.outcome.{tag}"] = int(g(f"fn.periodic.fls_step.{tag}.calls"))
    bb_s = out["solver.bb.s"]
    out["solver.bb.nodes_per_s"] = out["solver.bb.nodes"] / bb_s if bb_s > 0 else 0.0
    for layer in LAYERS:
        out[f"{layer}.calls"] = int(out[f"{layer}.calls"])
    out["trace.spans"] = int(out["trace.spans"])
    return out
