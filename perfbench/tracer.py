"""Span tracing of cfrkit's layers, installed from outside the package.

``Tracer.install`` replaces every binding of each traced function with a
wrapper that records a span (name, start, end, parent span, run id) in
memory. Names imported into other modules (``estimators`` and ``cli`` bind
``fit_empirical`` directly, for example) are found by identity across all
loaded ``cfrkit`` modules, so calls through any path are recorded.
``Tracer.uninstall`` puts the originals back. ``summarize`` turns the spans
of one run into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name. The span name is "<layer>.<group>": the
# group collects the functions that one per-layer metric sums over.
FUNCTIONS = {
    ("linelist", "parse_csv"): "linelist.parse_csv",
    ("linelist", "aggregate"): "linelist.aggregate",
    ("survival", "fit_empirical"): "survival.fit_empirical",
    ("survival", "fit_nb_mle"): "survival.fit_nb_mle",
    ("survival", "fit_zinb_mle"): "survival.fit_zinb_mle",
    ("survival", "nb_loglik"): "survival.loglik",
    ("survival", "zinb_loglik"): "survival.loglik",
    ("estimators", "estimate_series"): "estimators.estimate_series",
    ("estimators", "cfr_proposed"): "estimators.cfr_proposed",
    ("estimators", "cfr_garske"): "estimators.cfr_garske",
    ("estimators", "cfr_garske_mod"): "estimators.cfr_garske",
    ("estimators", "cfr_naive"): "estimators.cfr_naive",
    ("estimators", "cfr_final"): "estimators.cfr_final",
    ("estimators", "cfr_true"): "estimators.cfr_true",
    ("estimators", "p_hat_daily"): "estimators.p_hat_daily",
    ("estimators", "variance_cfr"): "estimators.variance_cfr",
    ("estimators", "confidence_interval"): "estimators.confidence_interval",
    ("estimators", "validate_assumptions"): "estimators.validate_assumptions",
    ("simulation", "simulate_replicate"): "simulation.simulate_replicate",
    ("simulation", "run_study"): "simulation.run_study",
    ("cli", "main"): "cli.main",
    ("cli", "_cmd_estimate"): "cli.estimate",
    ("cli", "_cmd_fit_survival"): "cli.fit_survival",
}

# (module, class, method) -> span name.
METHODS = {
    ("survival", "Empirical", "cdf"): "survival.cdf",
    ("survival", "NegBinomial", "cdf"): "survival.cdf",
    ("survival", "Zinb", "cdf"): "survival.cdf",
    ("survival", "Empirical", "sample"): "survival.sample",
    ("survival", "NegBinomial", "sample"): "survival.sample",
    ("survival", "Zinb", "sample"): "survival.sample",
    ("survival", "DelaySample", "from_linelist"): "survival.delay_sample",
}

def _table_bytes(table) -> int:
    """Bytes of the cases and deaths arrays plus the three cumulative tables
    EpidemicTable derives from them (computed from shapes, not measured)."""
    return 2 * int(table.cases.nbytes) + 3 * int(table.deaths.nbytes)


# Span name -> function(args, result) giving the span's work count.
COUNTS = {
    "linelist.parse_csv": lambda args, result: len(result),
    "linelist.aggregate": lambda args, result: _table_bytes(result),
    "survival.cdf": lambda args, result: int(np.size(args[1])),
    "estimators.estimate_series": lambda args, result: len(result),
}


class Tracer:
    """In-memory span recorder. Spans are lists
    ``[name, start, end, parent_index, run_id, count]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions and methods."""
        modules = [m for n, m in list(sys.modules.items()) if n == "cfrkit" or n.startswith("cfrkit.")]
        for (mod_name, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[f"cfrkit.{mod_name}"], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for (mod_name, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"cfrkit.{mod_name}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapper = self.wrap(name, raw)
            self._patch(cls, attr, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run, count in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "run": run, "count": count}
                    )
                    + "\n"
                )


def summarize(spans: list[list], run_id: int) -> dict[str, dict[str, float]]:
    """Per span name: ``s`` (time, counting only spans with no ancestor of the
    same name), ``self_s`` (time minus direct child spans), ``calls`` and
    ``count`` (summed work counts)."""
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0}
    )
    child_time: dict[int, float] = defaultdict(float)
    for index, (name, start, end, parent, run, count) in enumerate(spans):
        if run == run_id and parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent, run, count) in enumerate(spans):
        if run != run_id:
            continue
        entry = stats[name]
        duration = end - start
        entry["calls"] += 1
        entry["count"] += count
        entry["self_s"] += duration - child_time.get(index, 0.0)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += duration
    return dict(stats)
