"""Shared fixtures and independent oracles for the test suite.

Oracles here re-derive quantities with plain loops, separately from the
library's vectorized paths, so a test never checks an implementation
against itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from dnstat.density import window_plan
from dnstat.rvmodel import support_model
from dnstat.schedules import (
    Affine,
    DeferredSchedule,
    NormalizerMode,
    ScheduleError,
    WeightError,
    WeightScheme,
    WeightSeq,
    check_normalizer,
    schedule_preset,
    weight_preset,
)


@pytest.fixture
def cesaro() -> DeferredSchedule:
    return schedule_preset("cesaro")


@pytest.fixture
def deferred() -> DeferredSchedule:
    return schedule_preset("example")


@pytest.fixture
def stretch() -> DeferredSchedule:
    return schedule_preset("stretch")


@pytest.fixture
def ones() -> WeightScheme:
    return weight_preset("ones")


def scalar(seq: WeightSeq):
    """A weight sequence's ``fn`` called on one Python int, as a Python float."""
    return lambda n: float(seq.fn(n))


def brute_normalizer(
    schedule: DeferredSchedule,
    weights: WeightScheme,
    m: int,
    mode: NormalizerMode = NormalizerMode.REGULAR,
) -> float:
    """Window weight sum by direct loop."""
    xv, yv = int(schedule.x(m)), int(schedule.y(m))
    e, g = scalar(weights.e), scalar(weights.g)
    total = 0.0
    for n in range(xv + 1, yv + 1):
        if mode is NormalizerMode.LITERAL:
            total += e(n) * g(yv - n)
        else:
            total += e(yv - n) * g(n)
    return total


def window_sum(terms) -> float:
    """A window sum by the rule ``density._exact_sums`` documents.

    Finite terms: ``math.fsum``, and where its partial sums pass the float
    range, the exact sum (as a Fraction) rounded once, or inf with its sign
    where that passes the range too.  A window holding a term that is not
    finite: Python's plain float ``sum`` of the terms in order.
    """
    terms = list(terms)
    if not all(map(math.isfinite, terms)):
        return sum(terms)
    try:
        return math.fsum(terms)
    except OverflowError:
        exact = sum(map(Fraction, terms))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def fsum_normalizer(
    schedule: DeferredSchedule,
    weights: WeightScheme,
    m: int,
    mode: NormalizerMode = NormalizerMode.REGULAR,
) -> float:
    """R_m as one fsum over the window's products, one scalar weight call each."""
    xv, yv = schedule.bounds(m)
    e, g = scalar(weights.e), scalar(weights.g)
    if mode is NormalizerMode.LITERAL:
        return window_sum(e(v) * g(yv - v) for v in range(xv + 1, yv + 1))
    return window_sum(e(yv - n) * g(n) for n in range(xv + 1, yv + 1))


def fsum_window_mean(
    seq,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    m: int,
    mode: NormalizerMode = NormalizerMode.REGULAR,
) -> tuple[float, float]:
    """(R_m, t_m) of one window by fsum loops, for a sequence on int indices.

    Raises as ``window_means`` does at m: R_m's error first, then
    WeightError for a numerator that is not finite.
    """
    r = fsum_normalizer(schedule, weights, m, mode)
    check_normalizer(r, m, weights.label)
    xv, yv = schedule.bounds(m)
    e, g = scalar(weights.e), scalar(weights.g)
    num = window_sum(e(yv - n) * g(n) * float(seq(n)) for n in range(xv + 1, yv + 1))
    if not math.isfinite(num):
        raise WeightError(
            f"weights '{weights.label}' give no finite weighted sum of the sequence"
            f" at m={m}: {num}"
        )
    return r, num / r


def one_window(schedule: DeferredSchedule, m: int) -> DeferredSchedule:
    """A schedule whose every window is window m of ``schedule``."""
    xv, yv = schedule.bounds(m)
    return DeferredSchedule(Affine(0, xv), Affine(0, yv), f"{schedule.label}@{m}")


def brute_weight(schedule: DeferredSchedule, weights: WeightScheme, m: int, n: int) -> float:
    yv = int(schedule.y(m))
    if yv - n < 0:
        return 0.0
    return scalar(weights.e)(yv - n) * scalar(weights.g)(n)


def brute_density_count(pred, schedule, weights, m, mode=NormalizerMode.REGULAR) -> tuple[int, float]:
    """(count, R_m) of the density definition by direct loop."""
    r = brute_normalizer(schedule, weights, m, mode)
    count = sum(1 for n in range(1, math.floor(r) + 1) if pred(m, n))
    return count, r


def brute_stat_count(seq, candidate, eps, schedule, weights, m, mode=NormalizerMode.REGULAR) -> int:
    """|{n <= floor(R_m) : w(m, n) |seq(n) - candidate| >= eps}|, one scalar seq call per n."""
    k = math.floor(fsum_normalizer(schedule, weights, m, mode))
    return sum(
        1
        for n in range(1, k + 1)
        if brute_weight(schedule, weights, m, n) * abs(float(seq(n)) - candidate) >= eps
    )


def floor_r(schedule: DeferredSchedule, weights: WeightScheme, cfg) -> np.ndarray:
    """floor(R_m) at a run's traced windows, from its window plan's R_m, as int64.

    The generic predicate path counts n up to floor(R_m); level counting reads
    only n <= min(floor(R_m), y_m), so rows this wide hold every level it reads.
    """
    return np.floor(window_plan(schedule, weights, cfg).R).astype(np.int64)


def reference_bounds(schedule: DeferredSchedule, ms) -> list[tuple[int, int]]:
    """(x_m, y_m) by one Python-int evaluation per m, raising at the first bad m."""
    out = []
    for m in ms:
        if m < 1:
            raise ScheduleError(f"window index must be >= 1, got m={m}")
        xv = int(schedule.x(m))
        yv = int(schedule.y(m))
        if xv < 0:
            raise ScheduleError(f"schedule violation at m={m}: x(m)={xv} is negative")
        if xv >= yv:
            raise ScheduleError(f"schedule violation at m={m}: x(m)={xv} >= y(m)={yv}")
        out.append((xv, yv))
    return out


def _example1_support(m: int) -> list[tuple[float, float, float]]:
    p = 1.0 / math.sqrt(m)
    return [(float(m), 0.0, p), (0.0, 0.0, 1.0 - p)]


def _bernoulli_shift_support(m: int) -> list[tuple[float, float, float]]:
    shift = 1.0 / m
    return [(0.0 + shift, 0.0, 0.5), (1.0 + shift, 1.0, 0.5)]


# Per-index supports of every MODEL_ZOO preset, written as plain Python
# closures apart from the library's array laws.
REFERENCE_SUPPORTS = {
    "example1": _example1_support,
    "example2": lambda m: [(1.0, 0.0, 0.5), (0.0, 1.0, 0.5)],
    "degenerate:0": lambda m: [(0.0, 0.0, 1.0)],
    "degenerate:2.5": lambda m: [(2.5, 2.5, 1.0)],
    "deterministic:1/m": lambda m: [(1.0 / m, 0.0, 1.0)],
    "deterministic:1/m^2": lambda m: [(1.0 / (m * m), 0.0, 1.0)],
    "deterministic:1+1/m": lambda m: [(1.0 + 1.0 / m, 1.0, 1.0)],
    "deterministic:2-1/m": lambda m: [(2.0 - 1.0 / m, 2.0, 1.0)],
    "bernoulli_shift": _bernoulli_shift_support,
}


# Per-index closure oracles for the derived models: each reads its inputs' atoms(m) at every
# index, and support_model checks each distinct law.  Descriptions match the library's, so
# error messages compare too.


def closure_map_values(model, f):
    def support(m):
        return [(float(f(a)), float(f(b)), p) for a, b, p in model.atoms(m)]

    return support_model(support, f"mapped({model.description})")


def closure_alt_limit(model, h):
    def support(m):
        return [(a, float(h(b)), p) for a, b, p in model.atoms(m)]

    return support_model(support, f"altlimit({model.description})")


def closure_combined(model_a, model_b, op):
    def support(m):
        out = []
        for a1, b1, p1 in model_a.atoms(m):
            for a2, b2, p2 in model_b.atoms(m):
                p = p1 * p2
                if p > 0.0:
                    out.append((float(op(a1, a2)), float(op(b1, b2)), p))
        return out

    return support_model(support, f"combined({model_a.description},{model_b.description})")


def closure_tail_pair(model, a):
    """(Y_n, Y_a) under an independent coupling, as ``cauchy_index_search`` runs it."""
    fixed = model.atoms(a)

    def support(m):
        out = []
        for am, _, pm in model.atoms(m):
            for aa, _, pa in fixed:
                p = pm * pa
                if p > 0.0:
                    out.append((am, aa, p))
        return out

    return support_model(support, f"tailpair({model.description},a={a})")


def brute_exceedance(atoms, eps: float) -> float:
    """P(|Y_n - Y| >= eps) as a plain fsum over the atoms of Y_n's law, model.atoms(n)."""
    return math.fsum(p for a, b, p in atoms if abs(a - b) >= eps)


def brute_moment(atoms, r: float) -> float:
    """E|Y_n - Y|^r as a plain fsum over model.atoms(n), Python's float pow."""
    return math.fsum(p * abs(a - b) ** r for a, b, p in atoms)


def brute_cdf(atoms, t: float) -> float:
    """P(Y_n <= t) as a plain fsum over model.atoms(n)."""
    return math.fsum(p for a, _, p in atoms if a <= t)


def same_columns(a, b) -> bool:
    """Whether two verdicts hold equal trace columns."""
    columns = ("ms", "R", "count", "density")
    return all(np.array_equal(getattr(a, c), getattr(b, c)) for c in columns)


def is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n
