"""Outside-in spans around the public functions of each nhmc module.

The package binds names with ``from .x import y``, so a function is wrapped
at every module that calls it through such a name (its import site), not
only where it is defined.  ``KernelFamily.kernel_at`` and
``ExperimentConfig.from_file`` are wrapped on their classes.  A span records
its name, parent, start and end; a layer's self time is the span's duration
minus the time of its direct children.  Nothing in the program changes: the
wrappers are installed for one traced iteration and removed afterwards.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict
from functools import wraps

LAYERS = ("config", "kernels", "sampling", "ergodicity", "rates", "sumdist", "simulate", "cli")


def _arg(pos: int, key: str):
    return lambda args, kwargs: kwargs[key] if key in kwargs else args[pos]


def _steps(pos: int, key: str):
    get = _arg(pos, key)
    return lambda args, kwargs: {"steps": int(get(args, kwargs))}


def _sample_counts(args, kwargs):
    trials = len(_arg(0, "seeds")(args, kwargs))
    return {"trials": trials, "trial_steps": trials * int(_arg(3, "n")(args, kwargs))}


def _dp_cells(args, kwargs):
    """Partial-sum cells the DP sweeps, computed from n and the value range of f:
    step k carries (k - 1) * range + 1 cells, per merged state class."""
    f = _arg(2, "f")(args, kwargs)
    n = int(_arg(3, "n")(args, kwargs))
    values = [round(float(v)) for v in f.values]
    vrange = max(values) - min(values)
    return {"cells": n + vrange * n * (n - 1) // 2}


def _condition_name(args, kwargs):
    condition = _arg(1, "condition")(args, kwargs)
    return "ergodicity." + getattr(condition, "value", condition)


_PROPAGATE = _steps(3, "n")

# (module, attribute at that module, span name or name function, counter function)
TARGETS = (
    ("nhmc.cli", "run", "cli.run", None),
    ("nhmc.config", "ExperimentConfig.from_file", "config.parse", None),
    ("nhmc.kernels", "KernelFamily.kernel_at", "kernels.kernel_at", None),
    ("nhmc.kernels", "propagate", "kernels.propagate", _steps(2, "k")),
    ("nhmc.cli", "expected_sum", "kernels.propagate", _PROPAGATE),
    ("nhmc.simulate", "expected_sum", "kernels.propagate", _PROPAGATE),
    ("nhmc.simulate", "expected_step_values", "kernels.propagate", _PROPAGATE),
    ("nhmc.sumdist", "expected_sum", "kernels.propagate", _PROPAGATE),
    ("nhmc.simulate", "sample_paths", "sampling.sample_paths", _sample_counts),
    ("nhmc.cli", "condition_profile", _condition_name, None),
    ("nhmc.ergodicity", "dobrushin_delta", "ergodicity.dobrushin_delta", None),
    ("nhmc.cli", "stationary", "ergodicity.stationary", None),
    ("nhmc.ergodicity", "stationary", "ergodicity.stationary", None),
    ("nhmc.rates", "stationary", "ergodicity.stationary", None),
    ("nhmc.cli", "build_rate_model", "rates.build_rate_model", None),
    ("nhmc.simulate", "exact_sum_distribution", "sumdist.dp", _dp_cells),
    ("nhmc.cli", "simulate_sums", "simulate.sums", None),
    ("nhmc.simulate", "simulate_sums", "simulate.sums", None),
    ("nhmc.cli", "clt_diagnostic", "simulate.clt_diagnostic", None),
    ("nhmc.cli", "mdp_diagnostic", "simulate.mdp", None),
    ("nhmc.cli", "martingale_check", "simulate.martingale", None),
)

# per-layer metric -> (unit, how it is read off the aggregated spans)
SPAN_METRICS = {
    "sampling.sample_s": ("s", "self", "sampling.sample_paths"),
    "sampling.trials": ("count", "counter", "sampling.sample_paths", "trials"),
    "sampling.trial_steps": ("count", "counter", "sampling.sample_paths", "trial_steps"),
    "simulate.sums_self_s": ("s", "self", "simulate.sums"),
    "simulate.martingale_self_s": ("s", "self", "simulate.martingale"),
    "simulate.mdp_self_s": ("s", "self", "simulate.mdp"),
    "simulate.clt_diagnostic_s": ("s", "self", "simulate.clt_diagnostic"),
    "sumdist.dp_s": ("s", "self", "sumdist.dp"),
    "sumdist.dp_cells": ("count_computed", "counter", "sumdist.dp", "cells"),
    "kernels.propagate_s": ("s", "self", "kernels.propagate"),
    "kernels.propagate_calls": ("count", "calls", "kernels.propagate"),
    "kernels.propagation_steps": ("count", "counter", "kernels.propagate", "steps"),
    "kernels.kernel_at_s": ("s", "self", "kernels.kernel_at"),
    "kernels.kernel_at_calls": ("count", "calls", "kernels.kernel_at"),
    "ergodicity.cesaro_product_average_s": ("s", "self", "ergodicity.cesaro_product_average"),
    "ergodicity.mean_kernel_deviation_s": ("s", "self", "ergodicity.mean_kernel_deviation"),
    "ergodicity.scaled_dobrushin_sum_s": ("s", "self", "ergodicity.scaled_dobrushin_sum"),
    "ergodicity.dobrushin_delta_s": ("s", "self", "ergodicity.dobrushin_delta"),
    "ergodicity.dobrushin_delta_calls": ("count", "calls", "ergodicity.dobrushin_delta"),
    "ergodicity.stationary_s": ("s", "self", "ergodicity.stationary"),
    "rates.build_rate_model_s": ("s", "self", "rates.build_rate_model"),
    "config.parse_s": ("s", "self", "config.parse"),
    "cli.self_s": ("s", "self", "cli.run"),
}
# throughputs: metric -> (numerator metric, denominator time metric)
RATE_METRICS = {
    "sampling.trial_steps_per_s": ("sampling.trial_steps", "sampling.sample_s"),
    "sumdist.dp_cells_per_s": ("sumdist.dp_cells", "sumdist.dp_s"),
}
# whole-layer self time, for the layers whose own spans are split above
LAYER_SELF = ("kernels", "sampling", "ergodicity", "rates", "sumdist", "simulate")

UNITS = {name: spec[0] for name, spec in SPAN_METRICS.items()}
UNITS.update({name: "1/s" for name in RATE_METRICS})
UNITS.update({f"{layer}.self_s": "s" for layer in LAYER_SELF})


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_time", "counters")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_time = 0.0
        self.counters: dict = {}

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time

    @property
    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name, count):
        stack = self._stack
        spans = self.spans

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name(args, kwargs) if callable(name) else name, parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                if count is not None:
                    span.counters = count(args, kwargs)
                spans.append(span)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        self.missing = []
        try:
            for module_name, attr, name, count in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner).get(leaf)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((owner, leaf, original))
                if isinstance(original, classmethod):
                    setattr(owner, leaf, classmethod(self._wrap(original.__func__, name, count)))
                else:
                    setattr(owner, leaf, self._wrap(original, name, count))
            if self.missing:
                print(f"tracer: not found, not traced: {', '.join(self.missing)}", file=sys.stderr)
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def reset(self) -> None:
        self.spans.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans collected since the last reset."""
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        layer_self: dict[str, float] = defaultdict(float)
        for span in self.spans:
            self_time[span.name] += span.self_time
            calls[span.name] += 1
            for key, value in span.counters.items():
                counters[span.name][key] += value
            layer_self[span.name.split(".")[0]] += span.self_time
        out: dict[str, float] = {}
        for metric, (_, kind, span_name, *key) in SPAN_METRICS.items():
            if kind == "self":
                out[metric] = self_time[span_name]
            elif kind == "calls":
                out[metric] = calls[span_name]
            else:
                out[metric] = counters[span_name][key[0]]
        for metric, (num, den) in RATE_METRICS.items():
            out[metric] = out[num] / out[den] if out[den] > 0 else 0.0
        for layer in LAYER_SELF:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out
