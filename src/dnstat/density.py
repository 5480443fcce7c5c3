"""Window-weighted densities of index predicates and tail-limit estimation.

The weighted density of a predicate at window index m counts the
integers n with 1 <= n <= floor(R_m) satisfying the predicate and
divides by R_m, where R_m is the window weight sum of the active
normalizer convention.  ``density_limit`` evaluates that density along a
horizon of window indices and reports whether the tail stays below a
tolerance.  A finite horizon cannot certify a limit, so the verdict can
also be Inconclusive when the tail oscillates; the full trace is always
returned so callers can tighten the run.

Traced runs read m, x_m, y_m, R_m and floor(R_m) from one memoized
``WindowPlan``, built from one ``bounds_array`` call over the traced
window indices; its R_m is exactly rounded, equal to ``convolution``.
Predicates of the separable form  w(m, n) * level(n) >= threshold  go
through ``level_density_limits``, which counts a matrix of level rows
(one row: ``level_density_limit``) in one pass, on one of two counting
paths picked from the weights:

- constant e (every weight preset): w(m, n) = e0 * g(n) for n <= y_m
  does not depend on m, so each row's hits are computed once up to the
  largest min(k_m, y_m) and each window reads its count off their
  cumulative sum, in O(k_max + trace length) per row;
- tabulated or computed e: each window builds its weights from the
  plan's e and g tables once and counts every row against them, in
  O(sum of k_m) per row.

Both give the same counts bit for bit.  Arbitrary callables go through
``density_limit``, vectorized when the predicate accepts arrays and per
index otherwise.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .schedules import (
    DeferredSchedule,
    DegenerateNormalizerError,
    NormalizerMode,
    WeightError,
    WeightScheme,
    WeightSeq,
    convolution,
)

__all__ = [
    "DensityConfig",
    "Verdict",
    "TracePoint",
    "ConvergenceVerdict",
    "WindowPlan",
    "window_plan",
    "counting_bound",
    "weighted_density",
    "density_limit",
    "level_density_limit",
    "level_density_limits",
    "dn_stat_limit",
    "trace_csv",
]

# Hard cap on floor(R_m); counting ranges beyond this indicate a weight
# scheme this engine is not meant for.
_COUNT_CAP = 2_000_000

# Traces longer than this are subsampled outside the tail window.
_TRACE_CAP = 1000

# Window plans kept per process: a detector run needs one, and a few more
# cover callers that alternate between schedules or weights.
_PLAN_CACHE_SIZE = 4


class Verdict(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DensityConfig:
    """Finite-horizon settings for density limit runs.

    ``tail_fraction`` selects the trailing share of window indices whose
    maximum density decides the verdict; the tail is always traced
    densely even when the head is subsampled.
    """

    horizon: int = 10_000
    tail_fraction: float = 0.2
    tolerance: float = 0.02
    mode: NormalizerMode = NormalizerMode.REGULAR

    def __post_init__(self) -> None:
        if self.horizon < 10:
            raise ValueError(f"horizon {self.horizon} rejected as underpowered (need >= 10)")
        if not (0.0 < self.tail_fraction <= 1.0):
            raise ValueError(f"tail_fraction must be in (0, 1], got {self.tail_fraction}")
        if not self.tolerance > 0.0:  # NaN fails too
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.tail_length() < 2:
            raise ValueError("tail window must contain at least 2 points")

    def tail_length(self) -> int:
        return max(2, int(round(self.tail_fraction * self.horizon)))

    def tail_start(self) -> int:
        return self.horizon - self.tail_length() + 1


@dataclass(frozen=True)
class TracePoint:
    """One density evaluation: (m, R_m, count, d_m)."""

    m: int
    normalizer: float
    count: int
    density: float


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of a density limit run.

    ``tail_max`` is the maximum density over the tail window.  The
    verdict is Converges exactly when tail_max < tolerance; above the
    tolerance it is Diverges unless the tail moves by more than the
    tolerance in both directions, which is reported as Inconclusive.
    Sub-tolerance oscillation never blocks a Converges verdict.
    """

    verdict: Verdict
    trace: tuple[TracePoint, ...]
    tail_max: float
    config: DensityConfig
    extras: Mapping[str, object] = field(default_factory=dict)

    def tail_points(self) -> tuple[TracePoint, ...]:
        start = self.config.tail_start()
        return tuple(p for p in self.trace if p.m >= start)

    def summary(self) -> dict[str, object]:
        return {
            "verdict": self.verdict.value,
            "tail_max": self.tail_max,
            "horizon": self.config.horizon,
            "tail_fraction": self.config.tail_fraction,
            "tolerance": self.config.tolerance,
            "normalizer_mode": self.config.mode.value,
            "trace_points": len(self.trace),
        }


def _trace_indices(cfg: DensityConfig) -> list[int]:
    """Window indices to evaluate: dense tail plus a subsampled head."""
    tail_start = cfg.tail_start()
    head = list(range(1, tail_start))
    if len(head) > _TRACE_CAP:
        head = np.unique(np.linspace(1, tail_start - 1, _TRACE_CAP).astype(np.int64)).tolist()
    return head + list(range(tail_start, cfg.horizon + 1))


@dataclass(frozen=True, eq=False)
class WindowPlan:
    """The window rows a run evaluates: m, x_m, y_m, R_m and k_m = floor(R_m).

    ``e`` and ``g`` hold the weight values from index 0 up to the largest
    index the run reads, as far as a tabulated sequence reaches; both
    cover at least every index R_m reads.  Plans are shared between
    callers, so every array is read-only.
    """

    ms: np.ndarray
    x: np.ndarray
    y: np.ndarray
    R: np.ndarray
    k: np.ndarray
    e: np.ndarray
    g: np.ndarray

    @property
    def k_max(self) -> int:
        return int(self.k.max())


def _table(seq: WeightSeq, need: int, reach: int) -> np.ndarray:
    """Values of seq at 0..top with top >= need (what R_m reads), extended
    towards reach (what counting reads) as far as a table goes."""
    if seq.table is not None:
        reach = min(reach, len(seq.table) - 1)
    return seq.array(max(need, reach))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def window_plan(
    schedule: DeferredSchedule, weights: WeightScheme, cfg: DensityConfig
) -> WindowPlan:
    """Window plan of a traced run, built once per (schedule, weights, cfg).

    R_m is the exactly rounded sum of the window products, equal to
    ``convolution`` bit for bit: ``width * (e0 * g0)`` when both weight
    sequences are constant (what fsum returns for ``width`` equal terms),
    and ``math.fsum`` over each window's products otherwise.  Raises
    DegenerateNormalizerError at the first m with R_m <= 0, and
    ValueError where floor(R_m) exceeds the counting cap.
    """
    ms = np.array(_trace_indices(cfg), dtype=np.int64)
    x, y = schedule.bounds_array(ms)
    literal = cfg.mode is NormalizerMode.LITERAL
    w_top = int((y - x).max()) - 1
    y_top = int(y.max())
    # Counting reads e(y_m - n) * g(n) for 1 <= n <= min(k_m, y_m).
    e = _table(weights.e, y_top if literal else w_top, y_top - 1)
    g = _table(weights.g, w_top if literal else y_top, y_top)
    if weights.e.constant is not None and weights.g.constant is not None:
        r = (y - x).astype(np.float64) * (weights.e.constant * weights.g.constant)
    else:
        # LITERAL pairs e(v) with g(y_m - v), REGULAR g(n) with e(y_m - n).
        head, tail = (e, g) if literal else (g, e)
        r = np.array([
            math.fsum((head[xv + 1 : yv + 1] * tail[: yv - xv][::-1]).tolist())
            for xv, yv in zip(x.tolist(), y.tolist())
        ])
    bad = np.flatnonzero(~(r > 0.0) | (r >= _COUNT_CAP + 1))
    if bad.size:
        m, rm = int(ms[bad[0]]), float(r[bad[0]])
        if not rm > 0.0:
            raise DegenerateNormalizerError(f"degenerate normalizer at m={m}: R_m={rm}")
        raise ValueError(f"floor(R_m)={math.floor(rm)} at m={m} exceeds counting cap {_COUNT_CAP}")
    plan = WindowPlan(ms, x, y, r, np.floor(r).astype(np.int64), e, g)
    for arr in (plan.ms, plan.x, plan.y, plan.R, plan.k, plan.e, plan.g):
        arr.flags.writeable = False
    return plan


def weighted_density(
    pred: Callable[[int, int], bool],
    schedule: DeferredSchedule,
    weights: WeightScheme,
    m: int,
    mode: NormalizerMode = NormalizerMode.REGULAR,
) -> float:
    """Density (1/R_m) * |{n : n <= floor(R_m), pred(m, n)}| in [0, 1]."""
    r = convolution(schedule, weights, m, mode)
    if r <= 0.0:
        raise DegenerateNormalizerError(f"degenerate normalizer at m={m}: R_m={r}")
    if math.floor(r) > _COUNT_CAP:
        raise ValueError(f"floor(R_m)={math.floor(r)} at m={m} exceeds counting cap {_COUNT_CAP}")
    return sum(1 for n in range(1, math.floor(r) + 1) if pred(m, n)) / r


def _assemble(
    points: list[TracePoint],
    cfg: DensityConfig,
    extras: Mapping[str, object] | None,
) -> ConvergenceVerdict:
    tail_start = cfg.tail_start()
    tail = [p.density for p in points if p.m >= tail_start]
    tail_max = max(tail)
    if tail_max < cfg.tolerance:
        verdict = Verdict.CONVERGES
    else:
        diffs = np.diff(np.asarray(tail))
        up = float(diffs.max(initial=0.0))
        down = float(-diffs.min(initial=0.0))
        # Oscillation guard: moving more than the tolerance in both
        # directions means the tail has not settled.
        verdict = Verdict.INCONCLUSIVE if min(up, down) > cfg.tolerance else Verdict.DIVERGES
    return ConvergenceVerdict(verdict, tuple(points), tail_max, cfg, dict(extras or {}))


def density_limit(
    pred: Callable[[int, int], bool],
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DensityConfig,
) -> ConvergenceVerdict:
    """Density trace of a generic predicate over m = 1..horizon.

    The predicate may accept a numpy array as its second argument and
    return a boolean array; that path is probed once and used when it
    works, otherwise evaluation falls back to one call per index.  A
    predicate failure is raised as RuntimeError naming the index.
    """
    plan = window_plan(schedule, weights, cfg)
    vector_ok: bool | None = None
    points: list[TracePoint] = []
    for m, r, k in zip(plan.ms.tolist(), plan.R.tolist(), plan.k.tolist()):
        try:
            if vector_ok is None:
                vector_ok = _probe_vector_pred(pred, m)
            if vector_ok and k > 0:
                narr = np.arange(1, k + 1, dtype=np.int64)
                mask = np.asarray(pred(m, narr), dtype=bool)
                if mask.shape != narr.shape:
                    raise ValueError("vectorized predicate returned a wrong shape")
                count = int(np.count_nonzero(mask))
            else:
                count = sum(1 for n in range(1, k + 1) if pred(m, n))
        except Exception as exc:
            raise RuntimeError(f"density evaluation failed at m={m}: {exc}") from exc
        points.append(TracePoint(m, r, count, count / r))
    return _assemble(points, cfg, None)


def _probe_vector_pred(pred: Callable, m: int) -> bool:
    try:
        probe = pred(m, np.arange(1, 3, dtype=np.int64))
    except Exception:
        return False
    arr = np.asarray(probe)
    return arr.dtype == bool and arr.shape == (2,)


def counting_bound(
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DensityConfig,
) -> int:
    """Largest floor(R_m) over the window indices a run will evaluate.

    Level sequences fed to the detectors must be defined at least this
    far; the bound is also the engine's per-index work ceiling.
    """
    return window_plan(schedule, weights, cfg).k_max


def level_density_limit(
    levels: Callable[[int], float] | np.ndarray,
    threshold: float,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DensityConfig,
    extras: Mapping[str, object] | None = None,
) -> ConvergenceVerdict:
    """Density limit of the separable predicate w(m, n) * level(n) >= threshold.

    ``levels`` is indexed by n starting at 1 (an array is read as
    levels[n-1]).  This is the workhorse behind the sequence and
    random-variable detectors; weights enter as a per-index multiplier,
    indices with no defined weight (beyond y_m) count as weight 0.  It
    is the one-row case of ``level_density_limits``.
    """
    if not isinstance(levels, np.ndarray):
        k_max = counting_bound(schedule, weights, cfg)
        levels = np.fromiter((float(levels(n)) for n in range(1, k_max + 1)), np.float64, k_max)
    rows = np.asarray(levels, dtype=np.float64)[np.newaxis]
    return level_density_limits(rows, threshold, schedule, weights, cfg, [extras or {}])[0]


def level_density_limits(
    level_rows: np.ndarray,
    threshold: float,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DensityConfig,
    extras: Sequence[Mapping[str, object]] | None = None,
) -> list[ConvergenceVerdict]:
    """``level_density_limit`` of every row of a (rows x k_max) level matrix.

    One pass over the windows counts every row, so the same verdicts come
    out as from one call per row.  Constant e counts each row through one
    cumulative hit count (``_prefix_counts``); other weights build each
    window's weights e(y_m - n) * g(n) once for all rows
    (``_window_counts``).  ``extras`` holds one mapping per row.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    plan = window_plan(schedule, weights, cfg)
    k_max = plan.k_max
    rows = np.asarray(level_rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"level rows must form a matrix, got shape {rows.shape}")
    if rows.shape[1] < k_max:
        raise ValueError(f"levels array too short: need {k_max}, got {rows.shape[1]}")

    count = _prefix_counts if weights.e.constant is not None else _window_counts
    counts = count(plan, rows, threshold, weights.label)
    verdicts = []
    for i, row_counts in enumerate(counts.tolist()):
        points = [
            TracePoint(m, r, c, c / r)
            for m, r, c in zip(plan.ms.tolist(), plan.R.tolist(), row_counts)
        ]
        merged = dict(extras[i] if extras else {})
        merged.setdefault("threshold", threshold)
        verdicts.append(_assemble(points, cfg, merged))
    return verdicts


def _window_counts(
    plan: WindowPlan, rows: np.ndarray, threshold: float, label: str
) -> np.ndarray:
    """Counts of every row at every traced window, window by window.

    Each window's weights are built once for all rows.  Indices past
    y_m weigh 0 and never reach a positive threshold, so only n <=
    min(k_m, y_m) are compared.
    """
    counts = np.zeros((len(rows), len(plan.ms)), dtype=np.int64)
    for i, (m, yv, k) in enumerate(zip(plan.ms.tolist(), plan.y.tolist(), plan.k.tolist())):
        if k == 0:
            continue
        keff = min(k, yv)
        if yv > len(plan.e) or keff >= len(plan.g):
            raise WeightError(f"weights '{label}' end before the counting range at m={m}")
        w = plan.e[yv - keff : yv][::-1] * plan.g[1 : keff + 1]
        counts[:, i] = (w * rows[:, : len(w)] >= threshold).sum(axis=1)
    return counts


def _prefix_counts(
    plan: WindowPlan, rows: np.ndarray, threshold: float, label: str
) -> np.ndarray:
    """Counts of every row at every traced window when e is constant.

    w(m, n) = e0 * g(n) for n <= y_m does not depend on m, so window m
    counts the hits among n <= min(k_m, y_m) of one fixed sequence per
    row, read off their cumulative count.  Indices past y_m weigh 0 and
    never reach a positive threshold.
    """
    keff = np.minimum(plan.k, plan.y)
    short = np.flatnonzero(keff >= len(plan.g))
    if short.size:
        m = int(plan.ms[short[0]])
        raise WeightError(f"weights '{label}' end before the counting range at m={m}")
    top = int(keff.max())
    w = plan.e[0] * plan.g[1 : top + 1]
    cum = np.zeros(top + 1, dtype=np.int64)
    counts = np.empty((len(rows), len(keff)), dtype=np.int64)
    for row, out in zip(rows, counts):
        np.cumsum(w * row[:top] >= threshold, out=cum[1:])
        out[:] = cum[keff]
    return counts


def dn_stat_limit(
    seq: Callable[[int], float],
    candidate: float,
    eps: float,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DensityConfig,
) -> ConvergenceVerdict:
    """Statistical-limit check of a real sequence against a candidate.

    Evaluates d_m = (1/R_m) |{n <= floor(R_m) : w(m, n) |seq(n) - candidate| >= eps}|
    along the horizon and applies the tail verdict rule.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    cand = float(candidate)
    return level_density_limit(
        lambda n: abs(float(seq(n)) - cand),
        eps,
        schedule,
        weights,
        cfg,
        extras={"candidate": cand, "eps": eps},
    )


def trace_csv(verdict: ConvergenceVerdict) -> str:
    """Trace as CSV text with columns m, R_m, count, d_m."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "R_m", "count", "d_m"])
    for p in verdict.trace:
        writer.writerow([p.m, repr(p.normalizer), p.count, repr(p.density)])
    return buf.getvalue()

