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
        elif weights.override is not None:
            total += weights.override(m, n)
        else:
            total += weights.e(yv - n) * weights.g(n)
    return total


def brute_weight(schedule: DeferredSchedule, weights: WeightScheme, m: int, n: int) -> float:
    if weights.override is not None:
        return weights.override(m, n)
    yv = int(schedule.y(m))
    if yv - n < 0:
        return 0.0
    return weights.e(yv - n) * weights.g(n)


def brute_density_count(pred, schedule, weights, m, mode=NormalizerMode.REGULAR) -> tuple[int, float]:
    """(count, R_m) of the density definition by direct loop."""
    r = brute_normalizer(schedule, weights, m, mode)
    count = sum(1 for n in range(1, math.floor(r) + 1) if pred(m, n))
    return count, r


def brute_exceedance(model, n: int, eps: float) -> float:
    """P(|Y_n - Y| >= eps) as a plain fsum over the raw support."""
    return math.fsum(float(p) for a, b, p in model.support(n) if abs(float(a) - float(b)) >= eps)


def brute_moment(model, n: int, r: float) -> float:
    """E|Y_n - Y|^r as a plain fsum over the raw support, Python's float pow."""
    return math.fsum(float(p) * abs(float(a) - float(b)) ** r for a, b, p in model.support(n))


def brute_cdf(model, n: int, t: float) -> float:
    """P(Y_n <= t) as a plain fsum over the raw support."""
    return math.fsum(float(p) for a, _, p in model.support(n) if float(a) <= t)


def is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n
