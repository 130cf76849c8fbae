"""In-memory span tracer that times gtail's layers from outside the package.

While a :class:`Tracer` is installed, every module attribute of the ``gtail``
package that is bound to one of the :data:`TARGETS` (including re-bound
imports such as ``montecarlo.sample`` or ``gtail.evaluate``) is replaced by a
wrapper that records one span per call: (name, start, end, parent span,
op id, error class).  Nothing inside ``gtail`` is edited; uninstalling puts
the original objects back.

Spans are kept in memory for one workload round; :meth:`Tracer.fold` then
adds them to per-function totals.  Self time of a span is its duration minus
the durations of its direct child spans.  A target that no longer exists is
skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

#: (module, attribute path) of every traced function; the metric prefix is
#: ``<module>.<attribute path>``.
TARGETS = (
    ("cli", "main"),
    ("montecarlo", "simulate"),
    ("montecarlo", "run_cell"),
    ("montecarlo", "report_to_csv"),
    ("montecarlo", "dominance_map"),
    ("secondorder", "estimate_rho"),
    ("secondorder", "estimate_beta"),
    ("secondorder", "adaptive_k"),
    ("secondorder", "adaptive_estimate"),
    ("estimators", "evaluate"),
    ("estimators", "g1"),
    ("estimators", "g2"),
    ("estimators", "g3"),
    ("estimators", "hill"),
    ("estimators", "moment"),
    ("estimators", "moment_ratio"),
    ("estimators", "hme"),
    ("stats", "Sample.from_file"),
    ("stats", "Sample.from_values"),
    ("stats", "log_moment_profile"),
    ("stats", "stat_g"),
    ("distributions", "sample"),
    ("distributions", "substream"),
    ("distributions", "quantile"),
    ("asymptotics", "r_star"),
    ("asymptotics", "estimator_limit_constants"),
)


def _k_arg(args, kwargs, result):
    return kwargs["k"] if "k" in kwargs else args[1]


#: Work counts taken at a traced boundary: metric name -> (span name, counter).
WORK_COUNTS = {
    "stats.Sample.from_values.elements": ("stats.Sample.from_values",
                                          lambda args, kwargs, result: result.n),
    "stats.log_moment_profile.k_points": ("stats.log_moment_profile",
                                          lambda args, kwargs, result: len(result)),
    "stats.stat_g.k_points": ("stats.stat_g", _k_arg),
}


class Tracer:
    """Records spans for the traced gtail functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self.counts = {name: 0 for name in WORK_COUNTS}
        self._stack: list = []
        self._restore: list = []  # (owner, attribute, original object)
        # per function: calls, self seconds, inclusive seconds, errors
        self._totals = {f"{m}.{p}": [0, 0.0, 0.0, 0] for m, p in TARGETS}
        self._root_s = 0.0

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counters = [(metric, count) for metric, (span, count) in WORK_COUNTS.items()
                    if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id, error)
            for metric, count in counters:
                counts[metric] += count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        found = []
        for module_name, path in TARGETS:
            try:
                owner = importlib.import_module(f"gtail.{module_name}")
            except ImportError:
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is not None:
                found.append((f"{module_name}.{path}", owner, attr, raw))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gtail" or key.startswith("gtail."))]
        for name, owner, attr, raw in found:
            if isinstance(raw, classmethod):
                # one class object is shared by every module that imports it
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                self._restore.append((owner, attr, raw))
                continue
            wrapper = self._wrap(name, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def fold(self) -> None:
        """Add the finished spans to the per-function totals and drop them;
        called between rounds so that memory stays bounded."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, start, end, parent, _op, _err in spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, _op, err) in enumerate(spans):
            duration = end - start
            total = self._totals[name]
            total[0] += 1
            total[1] += duration - child[idx]
            total[2] += duration
            total[3] += err is not None
            if parent < 0:
                self._root_s += duration
        spans.clear()

    def summary(self, rounds: int, rounds_s: float) -> dict:
        """Per-layer metrics per workload round, over ``rounds`` traced
        rounds that took ``rounds_s`` seconds in all.  ``us_per_call`` is the
        mean inclusive duration of one call; ``trace.root_self_s`` is the
        round time that no span covers (the workload's own code around the
        entry points)."""
        self.fold()
        out = {}
        for name, (calls, self_s, total_s, errors) in self._totals.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.self_s"] = self_s / rounds
            out[f"{name}.us_per_call"] = 1e6 * total_s / calls if calls else 0.0
            out[f"{name}.errors"] = errors / rounds
        for metric, value in self.counts.items():
            out[metric] = value / rounds
        out["trace.root_self_s"] = (rounds_s - self._root_s) / rounds
        return out
