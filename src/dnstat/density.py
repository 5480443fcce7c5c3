"""Window sums and means, window-weighted densities and tail-limit estimation.

The weighted density of a predicate at window index m counts the
integers n with 1 <= n <= floor(R_m) satisfying the predicate and
divides by R_m, where R_m is the window weight sum of the active
normalizer convention.  ``density_limit`` evaluates that density along a
horizon of window indices and reports whether the tail stays below a
tolerance.  A finite horizon cannot certify a limit, so the verdict can
also be Inconclusive when the tail oscillates; the trace is always
returned, as read-only columns, so callers can tighten the run.

Traced runs read m, x_m, y_m and R_m from one memoized ``WindowPlan``,
built from one ``bounds_array`` call over the traced window indices;
``window_means`` reads R_m at m = 1..horizon from the same code.
``_pair_sums`` decides how every window sum, R_m and the mean's numerator
alike, is formed.  With both weight sides constant, R_m is the closed form
(y_m - x_m) * (e0 * g0); every other sum is the exactly rounded sum of its
products, summed in int64 limbs and rounded once, read off prefix sums
when a constant weight side leaves each product depending on one index,
and otherwise formed in chunks of windows (``_window_sums``).
The weight is 0 past y_m, so window m counts n <= n_m = min(floor(R_m), y_m),
and level rows reach ``counting_bound``, the largest n_m, below the counting cap.
Predicates of the separable form  w(m, n) * level(n) >= threshold  go
through ``level_density_limits``, which counts a matrix of level rows
(one row: ``level_density_limit``) in one pass, on one counting path for
every weight kind.  The rounded product (e * g(n)) * level(n) never
decreases in e >= 0, so against the least and largest e counting reads,
each (row, n) entry hits in every window, in none, or is open.  Sure
hits are found once per row and summed once, between the sorted distinct
ends of the windows' ranges, which is all constant e (the ``ones`` and
``example1`` presets) needs.  With e held as ranks in its sorted
distinct values, an open entry hits where rank(e) >= q(n), the number of
distinct e that miss, found by a binary search over those values with
the same products, and a chunk of windows, in order of width, compares
its rank rows with q over the open span at once.  The counts are those
of the products, bit for bit.  Arbitrary predicates go
through ``density_limit``, one call per traced window on its whole index
array.
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
    NormalizerMode,
    WeightError,
    WeightScheme,
    array_result,
    check_normalizer,
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

# Hard cap on the last index a window counts (n_m; floor(R_m) for a generic
# predicate); beyond it lies a weight scheme this engine is not meant for.
_COUNT_CAP = 2_000_000

# Traces longer than this are subsampled outside the tail window.
_TRACE_CAP = 1000

# Products per chunk of ``_window_sums``: one reduceat pair on the one-digit
# route, one ``_exact_sums`` call otherwise, whose few buffers of this
# length stay small.
_SUM_CHUNK = 2**14

# Entries per block of ``_window_counts``' hit tests and rank search
# (``_rank_thresholds`` holds a few temporaries per entry): small blocks
# reuse freed memory where whole-row temporaries would fault in fresh pages.
_CUTOFF_BLOCK = 2**12

# Rank entries per level row that ``_window_counts`` compares at once, in one reused buffer.
_COUNT_CHUNK = 2**15

# Window plans kept per process: a detector run needs one, and a few more
# cover callers that alternate between schedules or weights.
_PLAN_CACHE_SIZE = 4


def _check_positive_finite(name: str, value: float) -> None:
    if not value > 0.0:  # NaN fails too
        raise ValueError(f"{name} must be positive, got {value}")
    if math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value}")


class CountCapError(ValueError):
    """A window's counting range passes the counting cap; a shorter horizon keeps it below."""


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
        _check_positive_finite("tolerance", self.tolerance)
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
    """The window rows a run evaluates: m, x_m, y_m and R_m.

    A plan holds no weight values: counting fetches its own
    (``_counted_range``).  Plans are shared between callers, so every
    array is read-only.
    """

    ms: np.ndarray
    x: np.ndarray
    y: np.ndarray
    R: np.ndarray


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def window_plan(
    schedule: DeferredSchedule, weights: WeightScheme, cfg: DensityConfig
) -> WindowPlan:
    """Window plan of a traced run, built once per (schedule, weights, cfg).

    R_m is ``_pair_sums`` of the mode's pairing.  At the first bad m it raises
    WeightError for an R_m that is not finite (a product or the sum
    overflowed) and DegenerateNormalizerError for R_m <= 0.
    """
    ms = _trace_indices(cfg)
    x, y = schedule.bounds_array(ms)
    r = _pair_sums(weights, cfg.mode, x, y)
    bad = np.flatnonzero(~((r > 0.0) & (r < math.inf)))
    if bad.size:
        check_normalizer(float(r[bad[0]]), int(ms[bad[0]]), weights.label)
    plan = WindowPlan(ms, x, y, r)
    for arr in (plan.ms, plan.x, plan.y, plan.R):
        arr.flags.writeable = False
    return plan


def _capped(name: str, n: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Counting ranges n, floats, as int64; CountCapError at the first m where n passes the cap."""
    big = np.flatnonzero(n > _COUNT_CAP)
    if big.size:
        i = big[0]
        raise CountCapError(f"{name}={n[i]:.0f} at m={ms[i]} exceeds counting cap {_COUNT_CAP}")
    return n.astype(np.int64)


def window_means(
    seq: Callable[[np.ndarray], np.ndarray],
    schedule: DeferredSchedule,
    weights: WeightScheme,
    horizon: int,
    mode: NormalizerMode = NormalizerMode.REGULAR,
) -> tuple[np.ndarray, np.ndarray]:
    """(R_m, t_m) for m = 1..horizon: t_m = (1/R_m) * sum of w(m, n) * seq(n) over the window.

    ``seq`` maps an int64 array of indices n >= 1 to floats.  R_m is the window plan's;
    ``mode`` selects only its pairing.  The numerator, the exactly rounded sum of
    (e(y_m - n) * g(n)) * seq(n), is the REGULAR pairing's ``_pair_sums`` with seq as a factor.
    At the first m where R_m or the numerator fails, ``check_normalizer`` raises for R_m, else
    WeightError.
    """
    x, y = schedule.bounds_array(np.arange(1, horizon + 1))
    r = _pair_sums(weights, mode, x, y)
    ns = np.arange(1, int(y.max()) + 1, dtype=np.int64)
    values = array_result(seq(ns), ns.shape, np.float64, "sequence")
    num = _pair_sums(weights, NormalizerMode.REGULAR, x, y, np.concatenate(([0.0], values)))
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


def _pair_sums(
    weights: WeightScheme, mode: NormalizerMode, x: np.ndarray, y: np.ndarray, factor=None
) -> np.ndarray:
    """Exactly rounded window sums of the mode's pairing, each product times factor[n] if given.

    The one place a window sum's route is decided.  LITERAL pairs a head e(v) with a tail
    g(y_m - v), REGULAR a head g(n) with a tail e(y_m - n), for x_m < v, n <= y_m.  With both
    sides constant and no factor, the sum is (y_m - x_m) * (e0 * g0), what fsum returns for
    y_m - x_m equal terms.  Products of one index (n: constant tail; y_m - n: constant head, no
    factor) are formed once, in order of n, and each window is read off their prefix sums
    (``_exact_sums``); else ``_window_sums``.
    """
    flip = 1 if mode is NormalizerMode.LITERAL else -1
    y_top, width = int(y.max()), int((y - x).max())
    # e before g, a constant side as its one value, else as far as the windows read it.
    e, g = (np.broadcast_to(s.array(0), n + 1) if s.constant is not None else s.array(n)
            for s, n in zip((weights.e, weights.g), (y_top, width - 1)[::flip]))
    (head, h), (tail, t) = ((weights.e, e), (weights.g, g))[::flip]
    with np.errstate(over="ignore", invalid="ignore"):  # a bad product fails its window
        if head.constant is not None and tail.constant is not None and factor is None:
            return (y - x).astype(np.float64) * (e[0] * g[0])
        if tail.constant is not None:  # every index an edge: window m runs from edge x_m to y_m
            terms = h[1:] * t[0] if factor is None else (h[1:] * t[0]) * factor[1:]
            return _exact_sums(terms, np.arange(y_top + 1), x, y)
        if head.constant is not None and factor is None:  # window m sums t[0:y_m - x_m]
            return _exact_sums(h[0] * t, np.arange(width + 1), np.zeros_like(x), y - x)
    return _window_sums(h, t, x, y, factor)


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
    products (a wider window is a chunk of its own), so the buffers stay
    small.  When ``_one_digit_shift`` finds that every product, scaled by
    2^shift, is an integer below 2^62, the head is scaled once, so each
    chunk's float products are those integers.  They are cast once into
    an int64 buffer, ``_limb_sums`` sums them per window in two passes,
    and ``_rounded`` rounds each window's sum once.
    Other tables (a span of more than 9 binades, products below 2^-1021,
    values that are not finite) pass each chunk's products to
    ``_exact_sums``.
    """
    # Rebased to the first index any window reads, so only the slices read are scaled.
    lo, top, width = int(x.min()) + 1, int(y.max()) + 1, int((y - x).max())
    x, y, head = x - lo, y - lo, head[lo:top]
    factor = None if factor is None else factor[lo:top]
    shift = _one_digit_shift((head, tail[:width]) + (() if factor is None else (factor,)))
    rev = tail[:width][::-1].copy()
    bounds = np.concatenate(([0], np.cumsum(y - x)))
    buf = np.empty(min(int(bounds[-1]), max(_SUM_CHUNK, width)))
    if shift is not None:
        head, digits = np.ldexp(head, shift), np.empty(len(buf), dtype=np.int64)
        limbs = np.empty((2, len(x)), dtype=np.int64)
    sums = np.empty(len(x))
    start = 0
    while start < len(x):
        stop = max(start + 1, int(np.searchsorted(bounds, bounds[start] + _SUM_CHUNK, "right")) - 1)
        at = bounds[start : stop + 1] - bounds[start]
        terms = buf[: int(at[-1])]
        # An inf or nan product makes its window sum fail, which is reported.
        with np.errstate(over="ignore", invalid="ignore"):
            for xv, yv, a in zip(x[start:stop].tolist(), y[start:stop].tolist(), at.tolist()):
                out = terms[a : a + yv - xv]
                np.multiply(head[xv + 1 : yv + 1], rev[width - yv + xv :], out=out)
                if factor is not None:
                    out *= factor[xv + 1 : yv + 1]
        if shift is None:
            sums[start:stop] = _exact_sums(terms, at, slice(None, -1), slice(1, None))
        else:
            chunk = digits[: len(terms)]
            np.copyto(chunk, terms, casting="unsafe")
            _limb_sums(chunk, at[:-1], limbs[0, start:stop], limbs[1, start:stop])
        start = stop
    return sums if shift is None else _rounded(limbs, shift)


def _one_digit_shift(sides: tuple[np.ndarray, ...]) -> int | None:
    """The shift of ``_window_sums``' one-digit route for these table slices, or None.

    Products multiply the sides left to right.  The largest and least
    nonzero magnitudes of the sides bound every product and every partial
    product, as rounding never decreases.  With shift = max(0, 53 - e_min),
    e_min the frexp exponent of the least bound, every nonzero product is
    a multiple of 2^-shift.  The route applies when the bounds are finite;
    the least partial products are at least 2^-1021, so every exact one is
    at least 2^-1022 and rounds in the normal range, where scaling the
    head by 2^shift scales every rounded product by 2^shift exactly; every
    scaled partial product is finite; and every scaled product is below 2^62.
    """
    tops, bots = [], []
    for side in sides:
        mag = np.abs(side)
        tops.append((tops[-1] if tops else 1.0) * float(mag.max()))
        bots.append((bots[-1] if bots else 1.0) * float(mag.min(where=mag > 0.0, initial=math.inf)))
    if not (all(map(math.isfinite, tops + bots)) and min(bots[1:]) >= 2.0**-1021):
        return None
    shift = max(0, 53 - math.frexp(bots[-1])[1])
    fits = math.frexp(tops[-1])[1] + shift <= 62
    return shift if fits and all(math.frexp(t)[1] + shift <= 1024 for t in tops) else None


def _limb_sums(digits: np.ndarray, starts: np.ndarray, high: np.ndarray, low: np.ndarray) -> None:
    """Per segment of int64 ``digits`` from each of ``starts``, the sums of their
    signed high and unsigned low 32-bit limbs, into ``high`` and ``low``.

    Two ``np.add.reduceat`` passes: the digits' own sum wraps mod 2^64, and
    less the high limbs' sum times 2^32 it leaves the low limbs' sum, exact
    for fewer than 2^31 digits.  ``digits`` is overwritten.
    """
    np.add.reduceat(digits, starts, out=low)
    np.add.reduceat(np.right_shift(digits, 32, out=digits), starts, out=high)
    np.subtract(low, np.left_shift(high, 32), out=low)


def _rounded(limbs: np.ndarray, shift: int) -> np.ndarray:
    """Per column, its limbs' sum divided by 2^shift, rounded once; ±inf past the float range.

    ``limbs`` holds row pairs (high, low) of int64 limb sums from the top
    62-bit digit down, so a column's value is the sum over its digits j of
    (high * 2^32 + low) * 2^(62 j).
    """
    rows = limbs.tolist()
    joined = [(h << 32) + w for h, w in zip(rows[0], rows[1])]
    for high, low in zip(rows[2::2], rows[3::2]):
        joined = [(v << 62) + (h << 32) + w for v, h, w in zip(joined, high, low)]
    # A quotient of magnitude (2^54 - 1) * 2^970 or more rounds past the largest double.
    den, cap = 1 << shift, ((1 << 54) - 1) << (970 + shift)
    return np.array([v / den if abs(v) < cap else math.inf if v > 0 else -math.inf for v in joined])


def _exact_sums(
    terms: np.ndarray, edges: np.ndarray, lo: np.ndarray | slice, hi: np.ndarray | slice
) -> np.ndarray:
    """Exactly rounded sum of terms[edges[lo][i]:edges[hi][i]] per window i, ±inf on overflow.

    ``edges`` increases strictly and ends at len(terms); ``lo`` and ``hi``
    index it, as arrays or slices, so a window is a run of the segments
    between consecutive edges.  Scaled by 2^shift, shift = max(0, 53 - e_min)
    with e_min the frexp exponent of the smallest nonzero |term|, each term
    is an exact integer below 2^(e_max + shift).  Its signed base-2^62
    digits are taken from the top by ldexp and trunc into one int64
    buffer.  ``_limb_sums`` sums each digit's two 32-bit limbs per
    segment, and a cumulative sum across segments, in int64, exactly for
    fewer than 2^31 terms; ``_rounded`` joins each window's limb sums and
    rounds them once.  The first window holding a term that is not finite
    gets the plain IEEE sum of its terms (inf or nan, by Python float adds,
    which raise no warning), and the windows after it nan.
    """
    work = np.abs(terms)
    top = float(work.max())
    if not math.isfinite(top):
        finite = np.isfinite(terms)
        sums = _exact_sums(np.where(finite, terms, 0.0), edges, lo, hi)
        fault = np.concatenate(([0], np.cumsum(~finite)))[edges]
        dirty = np.flatnonzero(fault[hi] > fault[lo])
        if dirty.size:
            i = int(dirty[0])
            sums[i] = sum(terms[edges[lo][i] : edges[hi][i]].tolist())
            sums[i + 1 :] = math.nan
        return sums
    # The smallest nonzero |term|, by a masked pass only when some term is zero.
    smallest = float(work.min()) or float(work.min(where=work > 0.0, initial=top))
    e_max, shift = math.frexp(top)[1], max(0, 53 - math.frexp(smallest)[1])
    digits = (e_max + shift + 61) // 62
    # Few buffers, reused: fresh memory costs a page fault per 4 KiB, more than the arithmetic.
    rest = terms.copy() if digits > 1 else terms
    digit = np.empty(len(terms), dtype=np.int64)
    # Row pairs (high, low limbs) from the top digit down; column c + 1 sums segment c.
    prefix = np.zeros((2 * digits, len(edges)), dtype=np.int64)
    for row, j in enumerate(reversed(range(digits))):
        # Digit j, bits 62j to 62j + 61 of the scaled term; rest keeps the bits below.
        np.copyto(digit, np.ldexp(rest, shift - 62 * j, out=work), casting="unsafe")
        if j:
            top_bits = np.ldexp(np.trunc(work, out=work), 62 * j - shift, out=work)
            np.subtract(rest, top_bits, out=rest)
        _limb_sums(digit, edges[:-1], prefix[2 * row, 1:], prefix[2 * row + 1, 1:])
    np.cumsum(prefix, axis=1, out=prefix)
    return _rounded(prefix[:, hi] - prefix[:, lo], shift)


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

    Each traced m with k_m = floor(R_m) > 0 calls ``pred(m, ns)`` once, on
    the int64 array ns = 1..k_m, for a boolean array of ns's shape or one
    boolean for all of them (``array_result``).  A k_m past the counting
    cap raises CountCapError, a predicate failure RuntimeError naming m.
    """
    plan = window_plan(schedule, weights, cfg)
    k = _capped("floor(R_m)", np.floor(plan.R), plan.ms)
    counts = np.zeros(len(plan.ms), dtype=np.int64)
    for i in np.flatnonzero(k).tolist():
        m, ns = int(plan.ms[i]), np.arange(1, k[i] + 1)
        try:
            counts[i] = np.count_nonzero(array_result(pred(m, ns), ns.shape, bool, "predicate"))
        except Exception as exc:
            raise RuntimeError(f"density evaluation failed at m={m}: {exc}") from exc
    return _assemble(plan, counts, counts / plan.R, cfg, {})


def counting_bound(schedule: DeferredSchedule, weights: WeightScheme, cfg: DensityConfig) -> int:
    """The last index counting reads: max over the run's windows of n_m = min(floor(R_m), y_m).

    Level rows fed to ``level_density_limits`` must be defined at least this far.  Raises
    CountCapError where n_m passes the counting cap and WeightError where the weights end
    before the counting range.
    """
    return int(_counted_range(schedule, weights, cfg)[1][-1])


def level_density_limit(
    levels: np.ndarray,
    threshold: float,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DensityConfig,
    extras: Mapping[str, object] | None = None,
) -> ConvergenceVerdict:
    """Density limit of the separable predicate w(m, n) * level(n) >= threshold.

    ``levels`` is an array read as levels[n-1] for n = 1..``counting_bound``.
    This is the workhorse behind the sequence and random-variable detectors;
    weights enter as a per-index multiplier, indices with no defined weight
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
    """``level_density_limit`` of every row of a level matrix at least ``counting_bound`` wide.

    One pass over the windows counts every row, so the same verdicts come
    out as from one call per row.  ``_counted_range`` decides which
    indices each window counts and fetches the weights they read, and
    ``_window_counts`` counts them for every weight kind: the entries the
    e table's range decides once per row, the open rest against per-index
    rank thresholds in each window (none when e is constant).
    ``threshold`` must be positive and finite.  ``extras`` is None or
    holds one mapping per row.
    """
    _check_positive_finite("threshold", threshold)
    counted = _counted_range(schedule, weights, cfg)
    plan, top = counted[0], int(counted[1][-1])
    rows = np.asarray(level_rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"level rows must form a matrix, got shape {rows.shape}")
    if rows.shape[1] < top:
        raise ValueError(f"levels array too short: need top = {top} entries, got {rows.shape[1]}")
    if extras is not None and len(extras) != len(rows):
        raise ValueError(f"extras holds {len(extras)} mappings for {len(rows)} level rows")

    counts = _window_counts(rows, threshold, counted)
    return [
        _assemble(plan, c, d, cfg, {"threshold": threshold, **x})
        for c, d, x in zip(counts, counts / plan.R, extras or [{}] * len(rows))
    ]


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _counted_range(
    schedule: DeferredSchedule, weights: WeightScheme, cfg: DensityConfig
) -> tuple[WindowPlan, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(plan, steps, at_step, values, ranks, g): window m counts n = 1..n_m, n_m = min(k_m, y_m).

    Indices past y_m weigh 0 and never reach a positive threshold.  k_m = floor(R_m) stays a
    float, so any finite R_m is safe, until n_m passes the counting cap (CountCapError).  n_m is
    steps[at_step], with ``steps`` the sorted distinct n_m after 0.  Window m reads g(1..n_m)
    and e(y_m - n): e(0) alone when e is constant, else e up to y_m - 1.  At the first window
    with n_m > 0 whose reads pass the end of a table (``WeightSeq.length``) it raises
    WeightError; else e and g are fetched up to their largest read, a constant g as g(0)
    broadcast to that length.  e comes as sorted distinct ``values`` and ``ranks`` in them.
    """
    plan = window_plan(schedule, weights, cfg)
    n = _capped("min(floor(R_m), y_m)", np.minimum(np.floor(plan.R), plan.y), plan.ms)
    counted = n > 0
    e_top = np.zeros_like(n) if weights.e.constant is not None else plan.y - 1
    e_len, g_len = (math.inf if s.length is None else s.length for s in (weights.e, weights.g))
    bad = np.flatnonzero(counted & ((e_top >= e_len) | (n >= g_len)))
    if bad.size:
        m = int(plan.ms[bad[0]])
        raise WeightError(f"weights '{weights.label}' end before the counting range at m={m}")
    e = weights.e.array(int(e_top.max(where=counted, initial=0)))
    g = weights.g.array(0 if weights.g.constant is not None else int(n.max()))
    (steps, at_step), (values, ranks) = _distinct(np.concatenate(([0], n))), _distinct(e)
    for arr in (steps, at_step, values, ranks):
        arr.flags.writeable = False
    return plan, steps, at_step[1:], values, ranks, np.broadcast_to(g, int(steps[-1]) + 1)


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct x and each entry's rank in them: uint16 below 2^16 entries, else uint32."""
    # np.sort and np.unique page in more numpy code; an argsort 128 KB, which sorted x skips.
    order = np.argsort(x, kind="stable") if (np.diff(x) < 0).any() else np.arange(len(x))
    first = np.concatenate(([True], np.diff(x[order]) > 0))
    ranks = np.empty(len(x), np.uint16 if len(x) < 2**16 else np.uint32)
    ranks[order] = np.cumsum(first) - 1
    return x[order[first]], ranks


def _window_counts(rows: np.ndarray, threshold: float, counted: tuple) -> np.ndarray:
    """Counts of every row at every traced window, over ``_counted_range``'s indices.

    Index n hits at window m when (e(y_m - n) * g(n)) * level(n) >= threshold, which never
    turns false as e grows: an entry that hits at e_lo = min e hits in every window, and
    window m counts those with n <= n_m from one running sum over the sure hits between
    steps; one that misses at e_hi = max e never hits (constant e leaves no other).  The open
    rest, over the rows holding one and the span [a, b) of their open columns, hits where
    rank(e) >= q(n), the number of distinct e that miss (``_rank_thresholds``); a chunk of
    windows, in order of width, is compared at once.
    """
    plan, steps, at_step, values, ranks, g = counted
    top = int(steps[-1])
    g, levels = g[1 : top + 1], rows[:, :top]
    e_lo, e_hi = float(values[0]), float(values[-1])
    counts = np.empty((len(rows), len(at_step)), dtype=np.int64)
    sure, unsure = np.empty(top, dtype=bool), np.zeros(top, dtype=bool)
    below = np.zeros(len(steps), dtype=np.int64)  # sure hits at columns below each step
    found = {}  # per row holding an open entry: its open columns and their q
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(levels):
            for j in range(0, top, _CUTOFF_BLOCK):
                cs = slice(j, j + _CUTOFF_BLOCK)
                np.greater_equal((e_lo * g[cs]) * row[cs], threshold, out=sure[cs])
                if e_hi > e_lo:
                    np.greater((e_hi * g[cs]) * row[cs] >= threshold, sure[cs], out=unsure[cs])
            np.cumsum(np.add.reduceat(sure, steps[:-1], dtype=np.int64), out=below[1:])
            counts[i] = below[at_step]
            cols = np.flatnonzero(unsure)
            if cols.size:
                q = np.empty(len(cols), dtype=ranks.dtype)
                for j in range(0, len(cols), _CUTOFF_BLOCK):
                    cs = cols[j : j + _CUTOFF_BLOCK]
                    q[j : j + _CUTOFF_BLOCK] = _rank_thresholds(values, g[cs], row[cs], threshold)
                found[i] = cols, q
    if not found:
        return counts
    live = np.array(list(found))
    a = min(int(cols[0]) for cols, _ in found.values())
    b = max(int(cols[-1]) for cols, _ in found.values()) + 1
    # Decided entries never hit: their q is len(values).
    q = np.full((len(live), b - a), len(values), dtype=ranks.dtype)
    for r, (cols, q_open) in enumerate(found.values()):
        q[r, cols - a] = q_open
    # An open entry misses at e_lo, so q >= 1 and rank 0 never hits; q = len(values) never hits.
    # Row len(e) - y_m + a, column j: the rank of e(y_m - n) at n = a + j + 1; padding never hits.
    padded = np.concatenate((ranks[::-1], np.zeros(b - a, dtype=ranks.dtype)))
    view = np.lib.stride_tricks.sliding_window_view(padded, b - a)
    width = np.clip(steps[at_step] - a, 0, b - a)
    wins = np.flatnonzero(width)[np.argsort(width[width > 0], kind="stable")]
    at, width = len(ranks) - plan.y[wins] + a, width[wins]
    hits = np.empty((len(live), len(wins)), dtype=np.int64)
    buf = np.empty(len(live) * max(_COUNT_CHUNK, int(width[-1])), dtype=bool)
    # Chunks [start, stop) of k windows, k * (their largest width) <= _COUNT_CHUNK or k = 1.
    starts, ws, cols = [0], width.tolist(), np.arange(b - a)
    for i, w in enumerate(ws):
        if i > starts[-1] and (i + 1 - starts[-1]) * w > _COUNT_CHUNK:
            starts.append(i)
    for start, stop in zip(starts, starts[1:] + [len(wins)]):
        lo, hi = ws[start], ws[stop - 1]
        hit = buf[: len(live) * (stop - start) * hi].reshape(len(live), stop - start, hi)
        np.greater_equal(view[at[start:stop], :hi], q[:, np.newaxis, :hi], out=hit)
        if lo < hi:  # columns at or past a window's width hold indices past its n_m
            hit[:, :, lo:] &= cols[lo:hi] < width[start:stop, np.newaxis]
        np.add.reduce(hit.view(np.uint8), axis=2, dtype=ranks.dtype, out=hits[:, start:stop])
    counts[live[:, np.newaxis], wins] += hits
    return counts


def _rank_thresholds(
    values: np.ndarray, g: np.ndarray, levels: np.ndarray, threshold: float
) -> np.ndarray:
    """Per entry j, q: how many of the sorted distinct ``values`` miss, that is, fail
    (v * g[j]) * levels[j] >= threshold.

    With g[j] >= 0 the rounded products never decrease as v grows, so the values that
    hit form a suffix and e hits exactly where rank(e) >= q.  q is found by a branchless
    binary search over indices into ``values``, ceil(log2(len(values) + 1)) steps of one
    probe per entry, with the products and comparison counting makes.  Every value
    misses (q = len(values)) for a level <= 0 or nan, or g[j] = 0.
    """
    size, q = len(values), np.zeros(levels.shape, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in (1 << k for k in reversed(range(size.bit_length()))):
            up = q + step
            hit = (values[np.minimum(up, size) - 1] * g) * levels >= threshold
            np.copyto(q, up, where=(up <= size) & ~hit)
    return q


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
    int64 array of indices n >= 1 to floats, as in ``window_means``, here n = 1..``counting_bound``.
    A candidate that is not finite and a nan sequence value are ValueErrors: a nan deviation
    never counts.
    """
    _check_positive_finite("eps", eps)
    cand = float(candidate)
    if not math.isfinite(cand):
        raise ValueError(f"candidate must be finite, got {cand}")
    ns = np.arange(1, counting_bound(schedule, weights, cfg) + 1)
    values = array_result(seq(ns), ns.shape, np.float64, "sequence")
    nan = np.flatnonzero(np.isnan(values))
    if nan.size:
        raise ValueError(f"sequence value at n={int(nan[0]) + 1} is nan")
    return level_density_limit(
        np.abs(values - cand),
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

