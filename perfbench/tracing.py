"""Span tracer for the traced run: wrappers around the public functions of each layer.

A span is one call of a wrapped function. Its self time is its duration minus
the durations of the spans it directly contains. Spans are aggregated per
function in memory; nothing is written until the caller asks for `metrics()`.

`installed()` replaces every binding of a target function object in every
loaded `holoent` module (cross-module `from ... import` bindings included) and
restores the originals on exit. Untimed-run children never install it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "fock", "holonomy", "entanglement", "adiabatic", "open_system")

TARGETS = {
    "cli": ("main",),
    "fock": ("dark_basis", "basis_state", "occupation_basis"),
    "holonomy": ("max_entropy_over_phase", "entropy_at_phase", "fock_lift", "multimode_lift",
                 "apply_holonomy", "u3"),
    "entanglement": ("density_from_pure", "reduce", "von_neumann_entropy_bits", "purity",
                     "renyi2_bits", "entanglement_entropy_bits", "partial_transpose",
                     "log_negativity"),
    "adiabatic": ("propagate_single_photon", "dark_holonomy", "fit_rotation_phase", "scan_leakage",
                  "diabatic_scan", "load_schedule"),
    "open_system": ("evolve",),
}

# work counts summed from one argument of each call: span -> (metric suffix, argument, attribute)
ARGUMENT_COUNTS = {
    "adiabatic.propagate_single_photon": ("steps", "schedule", "steps"),
    "open_system.evolve": ("steps", "cfg", "steps"),
}

# inner calls per outer call: outer span -> (metric suffix, inner span)
NESTED_RATIOS = {
    "holonomy.max_entropy_over_phase": ("evals", "holonomy.entropy_at_phase"),
    "adiabatic.fit_rotation_phase": ("lifts", "holonomy.multimode_lift"),
}


class Tracer:
    """Nested-span timer aggregating calls and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # [name, start, time covered by child spans]
        self._active: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    def enter(self, name: str) -> None:
        for outer, (_, inner) in NESTED_RATIOS.items():
            if inner == name and self._active[outer]:
                self.counts[(outer, inner)] += 1
        self._active[name] += 1
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        end = self._clock()
        name, start, covered = self._stack.pop()
        duration = end - start
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn):
        counted = ARGUMENT_COUNTS.get(name)
        signature = inspect.signature(fn) if counted else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                _, argument, attribute = counted
                try:
                    value = signature.bind(*args, **kwargs).arguments.get(argument)
                except TypeError:  # the call itself will raise; count nothing
                    value = None
                self.counts[name] += getattr(value, attribute, 0)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Values of every metric in `metric_units()` except the trace.* and checks.* ones."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            total = 0.0
            for fn in TARGETS[layer]:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = float(self.calls[name])
                out[f"{name}.self_s"] = float(self.self_s[name])
                total += self.self_s[name]
            out[f"{layer}.self_s"] = total
        for name, (suffix, _, _) in ARGUMENT_COUNTS.items():
            out[f"{name}.{suffix}"] = float(self.counts[name])
        for outer, (suffix, inner) in NESTED_RATIOS.items():
            calls = self.calls[outer]
            out[f"{outer}.{suffix}"] = self.counts[(outer, inner)] / calls if calls else 0.0
        return out


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in the order BENCHMARK.json lists them."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        for fn in TARGETS[layer]:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    for name, (suffix, _, _) in ARGUMENT_COUNTS.items():
        units[f"{name}.{suffix}"] = "count"
    for outer, (suffix, _) in NESTED_RATIOS.items():
        units[f"{outer}.{suffix}"] = f"{suffix}/call"
    units["trace.overhead"] = "ratio"
    units["checks.worst_margin"] = "ratio"
    return units


def _target_functions() -> dict[int, tuple[str, object]]:
    targets = {}
    for layer, names in TARGETS.items():
        module = sys.modules[f"holoent.{layer}"]
        for fn_name in names:
            fn = getattr(module, fn_name)
            targets[id(fn)] = (f"{layer}.{fn_name}", fn)
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every binding of the target functions in all loaded holoent modules."""
    targets = _target_functions()
    wrappers = {key: tracer.wrap(name, fn) for key, (name, fn) in targets.items()}
    patched = []
    try:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "holoent" or module_name.startswith("holoent.")):
                continue
            for attr, value in list(vars(module).items()):
                key = id(value)
                if key in targets and targets[key][1] is value:
                    setattr(module, attr, wrappers[key])
                    patched.append((module, attr, value))
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
