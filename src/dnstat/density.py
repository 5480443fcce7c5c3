"""Window sums and means, window-weighted densities and tail-limit estimation.

The weighted density of a predicate at window index m counts the
integers n with 1 <= n <= floor(R_m) satisfying the predicate and
divides by R_m, where R_m is the window weight sum of the active
normalizer convention.  ``density_limit`` evaluates that density along a
horizon of window indices and reports whether the tail stays below a
tolerance.  A finite horizon cannot certify a limit, so the verdict can
also be Inconclusive when the tail oscillates; the trace is always
returned, as read-only columns, so callers can tighten the run.

Traced runs read m, x_m, y_m, R_m and floor(R_m) from one memoized
``WindowPlan``, built from one ``bounds_array`` call over the traced
window indices; its R_m is exactly rounded, equal to ``math.fsum``.
``window_means`` reads R_m at m = 1..horizon from the same code.  Its
numerator products do not depend on m when e is constant, so each is the
difference of two exact prefix sums; other weights sum them like R_m.
Non-constant weights sum their window products in chunks of consecutive
windows on one of two branches, picked per chunk from the products:

- int64 limbs, when every nonzero product is normal, the exponents
  (frexp) of the products span at most 9 and no window sum can pass
  2^1023: the products are scaled to exact integers, summed per window
  in two 32-bit limbs and rounded once;
- ``math.fsum`` over each window's products otherwise.

Both return the correctly rounded sum, so R_m does not depend on the
branch.
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

Both give the same counts bit for bit.  Arbitrary predicates go through
``density_limit``, one call per traced window on its whole index array.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .schedules import (
    DeferredSchedule,
    NormalizerMode,
    WeightError,
    WeightScheme,
    WeightSeq,
    array_result,
    check_normalizer,
    fsum_or_inf,
)

__all__ = [
    "CountCapError",
    "DensityConfig",
    "Verdict",
    "TracePoint",
    "ConvergenceVerdict",
    "WindowPlan",
    "window_plan",
    "counting_bound",
    "window_means",
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

# Products per chunk of the exact window sums (``_window_sums``).
_SUM_CHUNK = 2**14

# Window plans kept per process: a detector run needs one, and a few more
# cover callers that alternate between schedules or weights.
_PLAN_CACHE_SIZE = 4


class CountCapError(ValueError):
    """floor(R_m) exceeds the counting cap; a shorter horizon keeps it below."""


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
    """One row of a verdict's trace: (m, R_m, count, d_m)."""

    m: int
    normalizer: float
    count: int
    density: float


@dataclass(frozen=True, eq=False)
class ConvergenceVerdict:
    """Outcome of a density limit run.

    The trace is four read-only columns, one entry per traced window: ``ms``,
    ``R`` (both the window plan's), ``count`` and ``density`` = count / R;
    ``trace`` is their row view.  ``tail_max`` is the maximum density over
    the tail window.  The verdict is Converges exactly when tail_max <
    tolerance; above the tolerance it is Diverges unless the tail moves by
    more than the tolerance in both directions, which is reported as
    Inconclusive.  Sub-tolerance oscillation never blocks a Converges verdict.
    """

    verdict: Verdict
    ms: np.ndarray
    R: np.ndarray
    count: np.ndarray
    density: np.ndarray
    tail_max: float
    config: DensityConfig
    extras: Mapping[str, object] = field(default_factory=dict)

    @property
    def trace(self) -> tuple[TracePoint, ...]:
        """The columns as rows, built on access; only ``perfbench/tracing.py`` reads it."""
        rows = zip(self.ms.tolist(), self.R.tolist(), self.count.tolist(), self.density.tolist())
        return tuple(TracePoint(*row) for row in rows)

    def summary(self) -> dict[str, object]:
        return {
            "verdict": self.verdict.value,
            "tail_max": self.tail_max,
            "horizon": self.config.horizon,
            "tail_fraction": self.config.tail_fraction,
            "tolerance": self.config.tolerance,
            "normalizer_mode": self.config.mode.value,
            "trace_points": len(self.ms),
        }


def _trace_indices(cfg: DensityConfig) -> np.ndarray:
    """Window indices to evaluate: dense tail plus a subsampled head."""
    tail_start = cfg.tail_start()
    # Every head index when there are at most _TRACE_CAP, else that many spread
    # evenly; adjacent repeats are dropped (np.unique imports numpy.ma).
    head = np.linspace(1, tail_start - 1, min(tail_start - 1, _TRACE_CAP)).astype(np.int64)
    head = head[np.diff(head, prepend=0) > 0]
    return np.concatenate((head, np.arange(tail_start, cfg.horizon + 1, dtype=np.int64)))


@dataclass(frozen=True, eq=False)
class WindowPlan:
    """The window rows a run evaluates: m, x_m, y_m, R_m and k_m = floor(R_m).

    ``e`` and ``g`` hold the weight values from index 0 up to the largest
    index the run reads, as far as a tabulated sequence reaches; both
    cover at least every index R_m reads.  When both sequences are
    constant, R_m has a closed form and counting reads only e(0) and
    g(1..max min(k_m, y_m)), so ``e`` has one entry and ``g`` ends there.
    Plans are shared between callers, so every array is read-only.
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
    if seq.length is not None:
        reach = min(reach, seq.length - 1)
    return seq.array(max(need, reach))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def window_plan(
    schedule: DeferredSchedule, weights: WeightScheme, cfg: DensityConfig
) -> WindowPlan:
    """Window plan of a traced run, built once per (schedule, weights, cfg).

    R_m comes from ``_normalizers``.  At the first bad m it raises
    WeightError for an R_m that is not finite (a product or the sum
    overflowed), DegenerateNormalizerError for R_m <= 0, and
    CountCapError where floor(R_m) exceeds the counting cap.
    """
    ms = _trace_indices(cfg)
    x, y, r, e, g = _normalizers(schedule, weights, cfg.mode, ms)
    bad = np.flatnonzero(~(r > 0.0) | (r >= _COUNT_CAP + 1))
    if bad.size:
        r0, m0 = float(r[bad[0]]), int(ms[bad[0]])
        check_normalizer(r0, m0, weights.label)
        raise CountCapError(
            f"floor(R_m)={math.floor(r0)} at m={m0} exceeds counting cap {_COUNT_CAP}"
        )
    k = np.floor(r).astype(np.int64)
    if weights.e.constant is not None and weights.g.constant is not None:
        # Counting reads e(0) and g(1..min(k_m, y_m)), known once k_m is.
        g = weights.g.array(int(np.minimum(k, y).max()))
    plan = WindowPlan(ms, x, y, r, k, e, g)
    for arr in (plan.ms, plan.x, plan.y, plan.R, plan.k, plan.e, plan.g):
        arr.flags.writeable = False
    return plan


def _normalizers(
    schedule: DeferredSchedule, weights: WeightScheme, mode: NormalizerMode, ms: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(x, y, R, e, g) at the window indices ms, R_m exactly rounded and unchecked.

    R_m is ``width * (e0 * g0)`` when both weight sequences are constant
    (what fsum returns for ``width`` equal terms), with e and g one value
    each; otherwise ``_window_sums`` of the mode's pairing over the
    ``_table`` values of e and g.
    """
    x, y = schedule.bounds_array(ms)
    if weights.e.constant is not None and weights.g.constant is not None:
        r = (y - x).astype(np.float64) * (weights.e.constant * weights.g.constant)
        return x, y, r, weights.e.array(0), weights.g.array(0)
    literal = mode is NormalizerMode.LITERAL
    w_top = int((y - x).max()) - 1
    y_top = int(y.max())
    # Counting reads e(y_m - n) * g(n) for 1 <= n <= min(k_m, y_m).
    e = _table(weights.e, y_top if literal else w_top, y_top - 1)
    g = _table(weights.g, w_top if literal else y_top, y_top)
    # LITERAL pairs e(v) with g(y_m - v), REGULAR g(n) with e(y_m - n).
    r = _window_sums(*((e, g) if literal else (g, e)), x, y)
    return x, y, r, e, g


def window_means(
    seq: Callable[[np.ndarray], np.ndarray],
    schedule: DeferredSchedule,
    weights: WeightScheme,
    horizon: int,
    mode: NormalizerMode = NormalizerMode.REGULAR,
) -> tuple[np.ndarray, np.ndarray]:
    """(R_m, t_m) for m = 1..horizon: t_m = (1/R_m) * sum of w(m, n) * seq(n) over the window.

    ``seq`` maps an int64 array of indices n >= 1 to floats.  R_m is the
    window plan's; ``mode`` selects only its pairing.  The numerator sums
    the products (e(y_m - n) * g(n)) * seq(n) exactly, rounded once: by
    ``_prefix_sums`` when e is constant, else by ``_window_sums`` with seq
    as a third factor.  At the first m where R_m or the numerator fails,
    ``check_normalizer`` raises for R_m, else WeightError.
    """
    x, y, r, e, _ = _normalizers(schedule, weights, mode, np.arange(1, horizon + 1))
    y_top = int(y.max())
    g = weights.g.array(y_top)
    ns = np.arange(1, y_top + 1, dtype=np.int64)
    values = array_result(seq(ns), ns.shape, np.float64, "sequence")
    if weights.e.constant is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            num = _prefix_sums((e[0] * g[1:]) * values, x, y)
    else:
        num = _window_sums(g, e, x, y, np.concatenate(([0.0], values)))
    bad = np.flatnonzero(~((r > 0.0) & (r < np.inf) & np.isfinite(num)))
    if bad.size:
        i = int(bad[0])
        check_normalizer(float(r[i]), i + 1, weights.label)
        raise WeightError(
            f"weights '{weights.label}' give no finite weighted sum of the sequence"
            f" at m={i + 1}: {num[i]}"
        )
    with np.errstate(over="ignore"):  # an inf t_m, as float division gives
        return r, num / r


def _prefix_sums(terms: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of terms[n - 1] over x_m < n <= y_m, per window.

    Scaled by the largest denominator (a power of two), every finite term
    is an exact Python int, and a window sum is the difference of two
    prefix sums, divided back with one correct rounding (inf on overflow,
    as ``fsum_or_inf``).  The first window with a term that is not finite
    gets ``fsum_or_inf`` of its terms, and the windows after it nan.
    """
    finite = np.isfinite(terms)
    values = np.where(finite, terms, 0.0).tolist()
    scale = max(v.as_integer_ratio()[1] for v in values)
    ratios = map(float.as_integer_ratio, values)
    prefix = [0, *itertools.accumulate(num * (scale // den) for num, den in ratios)]
    fault = np.concatenate(([0], np.cumsum(~finite)))
    clean = (fault[y] == fault[x]).tolist()
    sums = np.full(len(x), math.nan)
    for i, (xv, yv) in enumerate(zip(x.tolist(), y.tolist())):
        if not clean[i]:
            sums[i] = fsum_or_inf(terms[xv:yv].tolist())
            break
        try:
            sums[i] = (prefix[yv] - prefix[xv]) / scale
        except OverflowError:
            sums[i] = math.inf
    return sums


def _window_sums(
    head: np.ndarray,
    tail: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    factor: np.ndarray | None = None,
) -> np.ndarray:
    """Exactly rounded sum of head[n] * tail[y_m - n] over x_m < n <= y_m, per window,
    each product times factor[n] when a factor is given.

    Consecutive windows are summed in chunks of about ``_SUM_CHUNK``
    products (a wider window is a chunk of its own), so the temporaries
    stay small.
    """
    ends = np.cumsum(y - x)
    sums = np.empty(len(x))
    start = 0
    while start < len(x):
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _SUM_CHUNK, side="right")))
        xs, ys = x[start:stop].tolist(), y[start:stop].tolist()
        sums[start:stop] = _chunk_sums(head, tail, xs, ys, factor)
        start = stop
    return sums


def _chunk_sums(
    head: np.ndarray, tail: np.ndarray, xs: list[int], ys: list[int], factor: np.ndarray | None
) -> list[float]:
    """Window sums of one chunk: int64 limbs when exact, ``math.fsum`` otherwise.

    The products are the same doubles either way.  When every nonzero
    product is normal with its frexp exponent in [e_min, e_min + 9], each
    is an integer multiple of 2^(e_min - 53), and ldexp by 53 - e_min
    makes it an exact integer below 2^62 in magnitude (the rule reads
    magnitudes, so a factor may be negative).  Its low and high 32-bit
    limbs are summed per window in int64 without overflow (a window under
    2^31 terms), joined as a Python int and rounded once by ``float``.
    The ldexp back adds no second rounding: an int of 2^53 or more gives
    a normal result, at least 2^e_min, and a smaller int is exact.  The
    sum stays below 2^1023 when e_max plus the bit length of the widest
    window is at most 1023.  Any other chunk goes through fsum.
    """
    widths = [yv - xv for xv, yv in zip(xs, ys)]
    starts = np.cumsum([0] + widths[:-1])
    terms = np.empty(sum(widths))
    # An inf or nan product makes its window sum fail, which is reported.
    with np.errstate(over="ignore", invalid="ignore"):
        for xv, yv, at in zip(xs, ys, starts.tolist()):
            out = terms[at : at + yv - xv]
            np.multiply(head[xv + 1 : yv + 1], tail[: yv - xv][::-1], out=out)
            if factor is not None:
                out *= factor[xv + 1 : yv + 1]
    size = np.abs(terms)
    top = float(size.max())
    low = float(size.min(where=size > 0.0, initial=math.inf))
    widest = max(widths)
    if math.isfinite(top) and low < math.inf and widest < 2**31:
        e_min, e_max = math.frexp(low)[1], math.frexp(top)[1]
        if e_min >= -1021 and e_max - e_min <= 9 and e_max + widest.bit_length() <= 1023:
            shift = 53 - e_min
            ints = np.ldexp(terms, shift, out=terms).astype(np.int64)
            lo = np.add.reduceat(ints & 0xFFFFFFFF, starts).tolist()
            hi = np.add.reduceat(ints >> 32, starts).tolist()
            return [math.ldexp(float((h << 32) + l), -shift) for h, l in zip(hi, lo)]
    return [fsum_or_inf(terms[at : at + w].tolist()) for at, w in zip(starts.tolist(), widths)]


def _assemble(
    plan: WindowPlan,
    count: np.ndarray,
    density: np.ndarray,
    cfg: DensityConfig,
    extras: Mapping[str, object],
) -> ConvergenceVerdict:
    """Tail rule on one row of densities; count and density become read-only."""
    tail = density[np.searchsorted(plan.ms, cfg.tail_start()) :]
    tail_max = float(tail.max())
    if tail_max < cfg.tolerance:
        verdict = Verdict.CONVERGES
    else:
        diffs = np.diff(tail)
        up = float(diffs.max(initial=0.0))
        down = float(-diffs.min(initial=0.0))
        # Oscillation guard: moving more than the tolerance in both
        # directions means the tail has not settled.
        verdict = Verdict.INCONCLUSIVE if min(up, down) > cfg.tolerance else Verdict.DIVERGES
    count.flags.writeable = density.flags.writeable = False
    return ConvergenceVerdict(verdict, plan.ms, plan.R, count, density, tail_max, cfg, extras)


def density_limit(
    pred: Callable[[int, np.ndarray], np.ndarray],
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DensityConfig,
) -> ConvergenceVerdict:
    """Density trace of a generic predicate over m = 1..horizon.

    Each traced m with k_m > 0 calls ``pred(m, ns)`` once, on the int64
    array ns = 1..k_m, for a boolean array of ns's shape or one boolean
    for all of them (``array_result``).  A predicate failure is raised as
    RuntimeError naming the index.
    """
    plan = window_plan(schedule, weights, cfg)
    counts = np.zeros(len(plan.ms), dtype=np.int64)
    for i in np.flatnonzero(plan.k).tolist():
        m, ns = int(plan.ms[i]), np.arange(1, plan.k[i] + 1)
        try:
            counts[i] = np.count_nonzero(array_result(pred(m, ns), ns.shape, bool, "predicate"))
        except Exception as exc:
            raise RuntimeError(f"density evaluation failed at m={m}: {exc}") from exc
    return _assemble(plan, counts, counts / plan.R, cfg, {})


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
    levels: np.ndarray,
    threshold: float,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DensityConfig,
    extras: Mapping[str, object] | None = None,
) -> ConvergenceVerdict:
    """Density limit of the separable predicate w(m, n) * level(n) >= threshold.

    ``levels`` is an array read as levels[n-1] for n >= 1.  This is the
    workhorse behind the sequence and random-variable detectors; weights
    enter as a per-index multiplier, indices with no defined weight
    (beyond y_m) count as weight 0.  It is the one-row case of
    ``level_density_limits``.
    """
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
    return [
        _assemble(plan, c, d, cfg, {"threshold": threshold, **x})
        for c, d, x in zip(counts, counts / plan.R, extras or [{}] * len(rows))
    ]


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
    seq: Callable[[np.ndarray], np.ndarray],
    candidate: float,
    eps: float,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DensityConfig,
) -> ConvergenceVerdict:
    """Statistical-limit check of a real sequence against a candidate.

    Evaluates d_m = (1/R_m) |{n <= floor(R_m) : w(m, n) |seq(n) - candidate| >= eps}|
    along the horizon and applies the tail verdict rule.  ``seq`` maps an
    int64 array of indices n >= 1 to floats, as in ``window_means``.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    cand = float(candidate)
    ns = np.arange(1, counting_bound(schedule, weights, cfg) + 1)
    return level_density_limit(
        np.abs(array_result(seq(ns), ns.shape, np.float64, "sequence") - cand),
        eps,
        schedule,
        weights,
        cfg,
        extras={"candidate": cand, "eps": eps},
    )


def trace_csv(verdict: ConvergenceVerdict) -> str:
    """Trace as CSV text with columns m, R_m, count, d_m; floats by repr."""
    v = verdict
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "R_m", "count", "d_m"])
    writer.writerows(zip(v.ms.tolist(), v.R.tolist(), v.count.tolist(), v.density.tolist()))
    return buf.getvalue()

