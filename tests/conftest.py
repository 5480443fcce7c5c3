"""Shared fixtures and independent oracles for the test suite.

Oracles here re-derive quantities with plain loops, separately from the
library's vectorized paths, so a test never checks an implementation
against itself.
"""

from __future__ import annotations

import math

import pytest

from dnstat.schedules import (
    DeferredSchedule,
    NormalizerMode,
    ScheduleError,
    WeightScheme,
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


def brute_normalizer(
    schedule: DeferredSchedule,
    weights: WeightScheme,
    m: int,
    mode: NormalizerMode = NormalizerMode.REGULAR,
) -> float:
    """Window weight sum by direct loop."""
    xv, yv = int(schedule.x(m)), int(schedule.y(m))
    total = 0.0
    for n in range(xv + 1, yv + 1):
        if mode is NormalizerMode.LITERAL:
            total += weights.e(n) * weights.g(yv - n)
        else:
            total += weights.e(yv - n) * weights.g(n)
    return total


def brute_weight(schedule: DeferredSchedule, weights: WeightScheme, m: int, n: int) -> float:
    yv = int(schedule.y(m))
    if yv - n < 0:
        return 0.0
    return weights.e(yv - n) * weights.g(n)


def brute_density_count(pred, schedule, weights, m, mode=NormalizerMode.REGULAR) -> tuple[int, float]:
    """(count, R_m) of the density definition by direct loop."""
    r = brute_normalizer(schedule, weights, m, mode)
    count = sum(1 for n in range(1, math.floor(r) + 1) if pred(m, n))
    return count, r


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


def brute_exceedance(atoms, eps: float) -> float:
    """P(|Y_n - Y| >= eps) as a plain fsum over the atoms of Y_n's law, model.atoms(n)."""
    return math.fsum(p for a, b, p in atoms if abs(a - b) >= eps)


def brute_moment(atoms, r: float) -> float:
    """E|Y_n - Y|^r as a plain fsum over model.atoms(n), Python's float pow."""
    return math.fsum(p * abs(a - b) ** r for a, b, p in atoms)


def brute_cdf(atoms, t: float) -> float:
    """P(Y_n <= t) as a plain fsum over model.atoms(n)."""
    return math.fsum(p for a, _, p in atoms if a <= t)


def is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n
