"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces functions of the loaded `fedleak` modules with
wrappers that record a span (name, start, end, parent) per call, and
restores them afterwards. A function imported with `from x import y` is
a separate binding in every importing module, so each span spec names
the function where it is defined and the tracer patches every `fedleak`
module whose binding of that name is the same object. A function that
no longer exists is skipped: its metrics then read 0.

Spans stay in memory during the run; `dump` writes them at the end and
`summarize` turns them into calls, busy time and self time per name.
`overhead_estimate` gives the time the wrappers added.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from typing import Callable

# (span name, defining module, attribute path). A dotted attribute path
# patches a class attribute; anything else patches every matching
# binding in the loaded `fedleak` modules.
SPANS = (
    ("leakage.run_experiment", "fedleak.leakage", "run_experiment"),
    ("leakage.draw_gradient_samples", "fedleak.leakage", "draw_gradient_samples"),
    ("leakage.estimate_mode_leakage", "fedleak.leakage", "estimate_mode_leakage"),
    ("leakage.mi_1d", "fedleak.leakage", "_CellEstimator.mi_1d"),
    ("leakage.chebyshev_matrix", "fedleak.leakage", "_CellEstimator.chebyshev_matrix"),
    ("leakage.mi_fixed_set", "fedleak.leakage", "_CellEstimator.mi_fixed_set"),
    ("infotheory.knn_mi", "fedleak.infotheory", "knn_mi"),
    ("infotheory.kth_radius", "fedleak.infotheory", "_kth_neighbor_radius"),
    ("infotheory.strict_counts", "fedleak.infotheory", "_strict_counts"),
    ("infotheory.kdtree_build", "scipy.spatial", "cKDTree"),
    ("topology.generate_graph", "fedleak.topology", "generate_graph"),
    ("topology.metropolis_weights", "fedleak.topology", "metropolis_weights"),
    ("protocol.extract_observation", "fedleak.protocol", "extract_observation"),
    ("attack.attack_experiment", "fedleak.attack", "attack_experiment"),
    ("attack.invert_gradient", "fedleak.attack", "invert_gradient"),
    ("attack.ssim", "fedleak.attack", "ssim"),
    ("attack.make_blob_dataset", "fedleak.attack", "make_blob_dataset"),
    ("reporting.write_csv", "fedleak.reporting", "write_csv"),
    ("reporting.write_pgm", "fedleak.reporting", "write_pgm"),
    ("reporting.svg_line_chart", "fedleak.reporting", "svg_line_chart"),
)

# (counter name, defining module, attribute, increment). Counters add
# no span; the increment sees the tracer and the call's arguments.
COUNTERS = (
    # invert_gradient evaluates the softmax once per descent step.
    (
        "attack.steps",
        "fedleak.attack",
        "_softmax",
        lambda tr, args, kwargs: tr.innermost() == "attack.invert_gradient",
    ),
    (
        "reporting.bytes_written",
        "fedleak.reporting",
        "atomic_write_text",
        lambda tr, args, kwargs: len((args[1] if len(args) > 1 else kwargs["text"]).encode()),
    ),
)


# Counters taken from a span's result: span name -> (counter, count).
RESULT_COUNTERS = {
    "leakage.estimate_mode_leakage": ("leakage.pairs_estimated", lambda result: len(result.pairs)),
}


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    """estimate_mode_leakage gets one span name per mode."""
    if name == "leakage.estimate_mode_leakage":
        mode = args[0] if args else kwargs["mode"]
        return f"{name}.{getattr(mode, 'value', mode)}"
    return name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.counters: dict[str, int] = {name: 0 for name, *_ in COUNTERS}
        self.counters.update((name, 0) for name, _ in RESULT_COUNTERS.values())
        self.counter_calls = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def innermost(self) -> str | None:
        return self.names[self.spans[self._stack[-1]][0]] if self._stack else None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [self._name_id(name), 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        counter, count = RESULT_COUNTERS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            result = self.call(_span_name(name, args, kwargs), fn, *args, **kwargs)
            if counter:
                self.counters[counter] += count(result)
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn: Callable, increment: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.counter_calls += 1
            self.counters[name] += int(increment(self, args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------
    def _bindings(self, module_name: str, attr: str):
        """(owner, attribute name, original) for each place to patch."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return []
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                return []
            return [(cls, meth, vars(cls)[meth])]
        original = getattr(module, attr, None)
        if original is None:
            return []
        return [
            (mod, attr, original)
            for mod_name, mod in sorted(sys.modules.items())
            if (mod_name == "fedleak" or mod_name.startswith("fedleak."))
            and vars(mod).get(attr) is original
        ]

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every span and counter binding; fedleak must be imported."""
        for name, module_name, attr in SPANS:
            for owner, key, original in self._bindings(module_name, attr):
                self._patch(owner, key, self._span_wrapper(name, original))
        for name, module_name, attr, increment in COUNTERS:
            for owner, key, original in self._bindings(module_name, attr):
                self._patch(owner, key, self._counter_wrapper(name, original, increment))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- cost ------------------------------------------------------------
    def overhead_estimate(self, calls: int = 20000, rounds: int = 5) -> float:
        """Seconds the wrappers added to what this tracer recorded.

        That is the number of span and counter calls recorded, times the
        cost of one wrapper call over a bare call. The cost is timed here
        on a no-op, as the fastest of several rounds, so it does not
        depend on how fast the host ran during the traced call."""
        probe = Tracer()
        probe.counters["probe"] = 0

        def noop():
            return None

        def per_call(fn: Callable) -> float:
            best = math.inf
            for _ in range(rounds):
                probe.spans.clear()
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, time.perf_counter() - start)
            return best / calls

        bare = per_call(noop)
        span = per_call(probe._span_wrapper("probe", noop)) - bare
        counter = per_call(probe._counter_wrapper(
            "probe", noop, lambda tr, args, kwargs: tr.innermost() is None)) - bare
        return len(self.spans) * span + self.counter_calls * counter

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"names": self.names, "spans": self.spans, "counters": self.counters},
                handle,
            )


def summarize(names: list[str], spans: list) -> dict[str, dict[str, float]]:
    """Calls, busy time and self time per span name.

    Busy time sums a name's spans, skipping spans nested inside another
    span of the same name so recursion is not counted twice. Self time is
    a span's duration minus the durations of its direct children; the
    program is single-threaded at this level, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for idx, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_s"] += end - start
    return stats
