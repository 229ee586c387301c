"""Spans around the public functions of each ``fixsettle`` module.

``Tracer.install`` replaces each function named in ``WRAPPED`` by a wrapper
that records a span (name, start, end, parent) per call and, where a count
is defined, the work the call did.  The wrapper is bound under every name
the package has for the function (``cli`` imports ``simulate`` from
``systems``, for instance), so calls made through re-exported names are
traced too.  A name that no longer exists is recorded as absent.

Per-grid-point helpers such as the residual functions are not wrapped: a
span per point would cost more than the work it measures.  Their time is
part of the self time of the scan that calls them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


def _steps(ret, args, kwargs) -> Optional[int]:
    return len(ret.states) - 1


def _checked_points(ret, args, kwargs) -> Optional[int]:
    return int(ret.checked_points)


def _grid_length(ret, args, kwargs) -> Optional[int]:
    grid = args[1] if len(args) > 1 else kwargs["domain_grid"]
    return len(grid)


def _orbits(ret, args, kwargs) -> Optional[int]:
    grid = args[1] if len(args) > 1 else kwargs["x0_grid"]
    return len(grid)


SETTLING = ("measure_settling", "measure_first_entry", "settling_vs_epsilon",
            "phase1_bound", "phase2_bound", "settling_bound", "example_bound")

# (module, function, work count from (return value, args, kwargs) or None)
WRAPPED = (
    ("systems", "simulate", _steps),
    ("systems", "simulate_perturbed", _steps),
    ("lyapunov", "scan_conditions", _checked_points),
    ("lyapunov", "scan_trajectory", _checked_points),
    ("lyapunov", "estimate_lipschitz", _grid_length),
    *(("settling", name, None) for name in SETTLING),
    ("oracle", "sweep_settling", _orbits),
    ("oracle", "table1_reproduce", None),
    ("perturbation", "analyze_attractiveness", None),
    ("perturbation", "remark_tradeoff_table", None),
    ("perturbation", "perturbed_settling_bound", None),
    ("config", "load_config", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []        # [name, start, end, parent index]
        self.counts: Dict[int, int] = {}   # span index -> work count
        self.absent: List[str] = []
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable, count) -> Callable:
        spans, counts, stack = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    counts[index] = count(ret, args, kwargs)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass                   # a changed signature or result type: count unknown
            return ret

        return traced

    def install(self):
        for module_name, fn_name, count in WRAPPED:
            name = f"{module_name}.{fn_name}"
            try:
                module = importlib.import_module(f"fixsettle.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self._wrap(name, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "fixsettle" or mod_name.startswith("fixsettle."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> Dict[str, dict]:
        """Per wrapped name: calls, self time (duration minus the time its
        direct children cover) and summed work count."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            row["count"] += self.counts.get(i, 0)
        return dict(out)


def layer_metrics(summary: Dict[str, dict], bytes_written: int) -> Dict[str, float]:
    """The per-layer metrics of one pass, from ``Tracer.summary``."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def per(name):
        n = get(name, "count")
        return get(name, "self_s") / n * 1e6 if n else 0.0

    m = {}
    for fn in ("systems.simulate", "systems.simulate_perturbed"):
        m[f"{fn}.self_s"] = get(fn, "self_s")
        m[f"{fn}.steps"] = get(fn, "count")
        m[f"{fn}.us_per_step"] = per(fn)
    m["lyapunov.scan_conditions.self_s"] = get("lyapunov.scan_conditions", "self_s")
    m["lyapunov.scan_conditions.points"] = get("lyapunov.scan_conditions", "count")
    m["lyapunov.scan_conditions.us_per_point"] = per("lyapunov.scan_conditions")
    for fn in ("lyapunov.scan_trajectory", "lyapunov.estimate_lipschitz"):
        m[f"{fn}.self_s"] = get(fn, "self_s")
        m[f"{fn}.points"] = get(fn, "count")
    m["settling.self_s"] = sum(get(f"settling.{fn}", "self_s") for fn in SETTLING)
    m["oracle.sweep_settling.self_s"] = get("oracle.sweep_settling", "self_s")
    m["oracle.sweep_settling.orbits"] = get("oracle.sweep_settling", "count")
    m["oracle.table1_reproduce.self_s"] = get("oracle.table1_reproduce", "self_s")
    m["perturbation.analyze_attractiveness.self_s"] = get("perturbation.analyze_attractiveness", "self_s")
    m["perturbation.remark_tradeoff_table.self_s"] = get("perturbation.remark_tradeoff_table", "self_s")
    m["config.load_config.self_s"] = get("config.load_config", "self_s")
    m["config.load_config.calls"] = get("config.load_config", "calls")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    m["cli.bytes_written"] = bytes_written
    return m


# Which wrapped names each per-layer metric rests on, to mark it absent.
def metric_sources(metric: str) -> List[str]:
    if metric == "settling.self_s":
        return [f"settling.{fn}" for fn in SETTLING]
    if metric == "cli.bytes_written":
        return []
    return [metric.rsplit(".", 1)[0]]
