"""Outside-in tracing of dnstat's layers for the benchmark's traced run.

The tracer replaces public entry points where the calling module has
bound them (``detectors.level_density_limit``, ``cli.mkz_apply``, ...)
with wrappers that record a span per call: name, start, end and the
enclosing span.  Spans stay in memory until the operation ends.  Counts
of work are computed from the wrapped calls' arguments and return
values, never from timers, so they repeat exactly between runs.

``schedules`` does its work inside ``density`` calls and is measured as
part of them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
from time import perf_counter

# Layer-boundary entry points: (dnstat module, attribute, span name).
# The operator factory cli.lifted_operator is wrapped separately, so that
# the batch method of every operator it returns records korovkin.batch.
ENTRY_POINTS = (
    ("cli", "main", "cli.main"),
    ("cli", "st_dnp", "detectors.st_dnp"),
    ("cli", "st_dnm", "detectors.st_dnm"),
    ("cli", "st_dndc", "detectors.st_dndc"),
    ("detectors", "st_dnp", "detectors.st_dnp"),
    ("detectors", "st_dnm", "detectors.st_dnm"),
    ("detectors", "st_dndc", "detectors.st_dndc"),
    ("detectors", "counting_bound", "density.counting_bound"),
    ("detectors", "level_density_limit", "density.level_density_limit"),
    ("korovkin", "counting_bound", "density.counting_bound"),
    ("korovkin", "level_density_limit", "density.level_density_limit"),
    ("cli", "korovkin_check", "korovkin.check"),
    ("cli", "mkz_apply", "korovkin.mkz_apply"),
    ("korovkin", "mkz_apply", "korovkin.mkz_apply"),
    ("cli", "sample", "rvmodel.sample"),
    ("cli", "parse_weights", "config.parse_weights"),
    ("config", "parse_model", "config.parse_model"),
    ("config", "parse_weights", "config.parse_weights"),
)

DETECTOR_SPANS = ("detectors.st_dnp", "detectors.st_dnm", "detectors.st_dndc")
DENSITY_SPANS = ("density.counting_bound", "density.level_density_limit")
PARSE_SPANS = ("config.parse_model", "config.parse_weights")

# Spans each workload must fire; a span that stops firing means a module
# changed how it binds an entry point and the wrapping no longer sees it.
EXPECTED_SPANS = {
    "detect-long": {"cli.main", *DETECTOR_SPANS, *DENSITY_SPANS},
    "tabulated-models": {*PARSE_SPANS, *DETECTOR_SPANS, *DENSITY_SPANS},
    "repro": {
        "cli.main",
        *DETECTOR_SPANS,
        *DENSITY_SPANS,
        "korovkin.check",
        "korovkin.batch",
        "korovkin.mkz_apply",
        "rvmodel.sample",
        "config.parse_weights",
    },
}

# Per-layer metrics of a traced operation and their units.  Those in
# "count" or "ratio" are computed from calls, never timed, and must
# repeat exactly between runs.
LAYER_METRICS = {
    "density.counting_bound.calls": "count",
    "density.counting_bound.self_s": "s",
    "density.level_density_limit.calls": "count",
    "density.level_density_limit.self_s": "s",
    "density.windows": "count",
    "density.count.elements": "count",
    "density.plan.builds_per_distinct": "ratio",
    "detectors.runs": "count",
    "detectors.levels.self_s": "s",
    "rvmodel.levels.values": "count",
    "config.parse.calls": "count",
    "config.parse_s": "s",
    "korovkin.check.calls": "count",
    "korovkin.check.self_s": "s",
    "korovkin.batch.calls": "count",
    "korovkin.batch.self_s": "s",
    "korovkin.batch.grid_evals": "count",
    "korovkin.mkz_apply.calls": "count",
    "korovkin.mkz_apply.self_s": "s",
    "rvmodel.sample.calls": "count",
    "rvmodel.sample_s": "s",
    "rvmodel.sample.draws": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
}
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items() if unit != "s")


class Tracer:
    """Span recorder plus the work counts derived from wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts = {
            "density.windows": 0,
            "density.count.elements": 0,
            "rvmodel.levels.values": 0,
            "korovkin.batch.grid_evals": 0,
            "rvmodel.sample.draws": 0,
        }
        # (schedule, weights, DensityConfig) of every normalizer pass.
        self.plan_keys: list[tuple] = []

    def wrap(self, name, fn, on_return=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS, for the rest of the process."""
        hooks = {
            ("detectors", "counting_bound"): self._plan_pass,
            ("korovkin", "counting_bound"): self._plan_pass,
            ("detectors", "level_density_limit"): self._detector_density,
            ("korovkin", "level_density_limit"): self._density,
            ("cli", "sample"): self._sample,
        }
        for module_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(f"dnstat.{module_name}")
            hook = hooks.get((module_name, attr))
            setattr(module, attr, self.wrap(name, getattr(module, attr), hook))
        cli = importlib.import_module("dnstat.cli")
        cli.lifted_operator = self._traced_operator_factory(cli.lifted_operator)

    def _traced_operator_factory(self, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            ops = factory(*args, **kwargs)
            if ops.batch is None:
                return ops
            batch = self.wrap("korovkin.batch", ops.batch, self._batch)
            return dataclasses.replace(ops, batch=batch)

        return traced_factory

    def _plan_pass(self, args, result) -> None:
        self.plan_keys.append((args["schedule"], args["weights"], args["cfg"]))

    def _density(self, args, result) -> None:
        self._plan_pass(args, result)
        self.counts["density.windows"] += len(result.trace)
        self.counts["density.count.elements"] += sum(
            math.floor(p.normalizer) for p in result.trace
        )

    def _detector_density(self, args, result) -> None:
        self._density(args, result)
        self.counts["rvmodel.levels.values"] += len(args["levels"])

    def _batch(self, args, result) -> None:
        self.counts["korovkin.batch.grid_evals"] += len(args["fns"]) * len(args["ys"])

    def _sample(self, args, result) -> None:
        self.counts["rvmodel.sample.draws"] += int(args["count"])

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of the spans recorded so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            total_s[name] = total_s.get(name, 0.0) + (end - start)

        def total(table, names, zero=0):
            return sum((table.get(n, zero) for n in names), zero)

        distinct = len(set(self.plan_keys))
        out = {
            "cli.main.calls": calls.get("cli.main", 0),
            "cli.main.self_s": self_s.get("cli.main", 0.0),
            "detectors.runs": total(calls, DETECTOR_SPANS),
            "detectors.levels.self_s": total(self_s, DETECTOR_SPANS, 0.0),
            "density.plan.builds_per_distinct": len(self.plan_keys) / distinct if distinct else 0.0,
            "config.parse.calls": total(calls, PARSE_SPANS),
            "config.parse_s": total(total_s, PARSE_SPANS, 0.0),
            "korovkin.check.calls": calls.get("korovkin.check", 0),
            "korovkin.check.self_s": self_s.get("korovkin.check", 0.0),
            "korovkin.batch.calls": calls.get("korovkin.batch", 0),
            "korovkin.batch.self_s": self_s.get("korovkin.batch", 0.0),
            "korovkin.mkz_apply.calls": calls.get("korovkin.mkz_apply", 0),
            "korovkin.mkz_apply.self_s": self_s.get("korovkin.mkz_apply", 0.0),
            "rvmodel.sample.calls": calls.get("rvmodel.sample", 0),
            "rvmodel.sample_s": total_s.get("rvmodel.sample", 0.0),
        }
        for name in DENSITY_SPANS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out.update(self.counts)
        return out
