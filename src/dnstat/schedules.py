"""Deferred window schedules, weight schemes and the window-mean transform.

A deferred schedule is a pair of integer sequences (x_m, y_m) with
x_m < y_m and y_m unbounded; the window at index m is the integer range
x_m+1 .. y_m.  x and y are evaluated on int64 arrays of window indices
(``bounds_array``; ``bounds`` is its one-index view).  A weight scheme
carries two non-negative sequences (e_n) and (g_n); the weight of slot n
inside window m is

    w(m, n) = e(y_m - n) * g(n).

Two normalizer conventions exist for the window weight sum R_m.
REGULAR sums the same w(m, n) that the mean's numerator uses, so the
transform maps every constant sequence to that constant.  LITERAL sums
the mirrored pairing e(v) * g(y_m - v) instead; the two coincide when
both weight sequences are constant but differ in general.  LITERAL is
kept for fidelity with the classical convolution display and is always
recorded in outputs so downstream consumers can tell which convention
produced a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ScheduleError",
    "WeightError",
    "DegenerateNormalizerError",
    "NormalizerMode",
    "Affine",
    "DeferredSchedule",
    "WeightSeq",
    "WeightScheme",
    "window",
    "window_weight",
    "convolution",
    "dn_mean",
    "constant_seq",
    "identity_seq",
    "SCHEDULE_PRESETS",
    "WEIGHT_PRESETS",
    "schedule_preset",
    "weight_preset",
]


class ScheduleError(ValueError):
    """A schedule violated x(m) < y(m) or produced a bad index."""


class WeightError(ValueError):
    """A weight sequence produced a negative or undefined value."""


class DegenerateNormalizerError(ValueError):
    """The window weight sum is zero; means and densities refuse to divide."""


class NormalizerMode(Enum):
    """Convention used for the window normalizer R_m."""

    REGULAR = "regular"
    LITERAL = "literal"


@dataclass(frozen=True)
class Affine:
    """Integer affine map m -> a*m + b, on an int or an int64 index array."""

    a: int
    b: int

    def __call__(self, m: int | np.ndarray) -> int | np.ndarray:
        # Bounded in Python ints first: int64 arithmetic would wrap silently.
        top = int(np.abs(m).max(initial=0))
        if abs(self.a) * top + abs(self.b) >= 2**63:
            raise ScheduleError(f"affine map {self.spec()} overflows int64 for m up to {top}")
        return self.a * m + self.b

    def spec(self) -> str:
        if self.a == 0:
            return str(self.b)
        head = "m" if self.a == 1 else f"{self.a}m"
        if self.b == 0:
            return head
        return f"{head}{self.b:+d}"


@dataclass(frozen=True)
class DeferredSchedule:
    """The index-window pair (x_m, y_m); window m is x_m+1 .. y_m; x, y map int64 arrays."""

    x: Callable[[np.ndarray], np.ndarray]
    y: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def bounds_array(self, ms: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Validated int64 (x_m, y_m) at every index of ms; errors name the first bad m."""
        ms = np.asarray(ms, dtype=np.int64)
        try:
            x = np.asarray(self.x(ms), dtype=np.int64)
            y = np.asarray(self.y(ms), dtype=np.int64)
        except ScheduleError as exc:
            raise ScheduleError(f"schedule '{self.label}': {exc}") from None
        bad = np.flatnonzero((ms < 1) | (x < 0) | (x >= y))
        if bad.size:
            m, xv, yv = (int(v[bad[0]]) for v in (ms, x, y))
            if m < 1:
                raise ScheduleError(f"window index must be >= 1, got m={m}")
            if xv < 0:
                raise ScheduleError(f"schedule violation at m={m}: x(m)={xv} is negative")
            raise ScheduleError(f"schedule violation at m={m}: x(m)={xv} >= y(m)={yv}")
        return x, y

    def bounds(self, m: int) -> tuple[int, int]:
        """Validated (x_m, y_m) for one index."""
        x, y = self.bounds_array([m])
        return int(x[0]), int(y[0])

    def validate(self, horizon: int) -> None:
        """Check x < y on 1..horizon and that y keeps growing over it.

        Unboundedness of y is not decidable from finitely many values; the
        growth check (the second half of the horizon attains a larger
        maximum than the first half) is the practical witness used here.
        """
        _, y = self.bounds_array(np.arange(1, horizon + 1))
        half = horizon // 2
        if horizon >= 4 and y[half:].max() <= y[:half].max():
            raise ScheduleError(
                f"schedule '{self.label}' shows no growth of y over horizon {horizon}"
            )


def window(schedule: DeferredSchedule, m: int) -> range:
    """Inclusive integer window x_m+1 .. y_m as a range object."""
    xv, yv = schedule.bounds(m)
    return range(xv + 1, yv + 1)


@dataclass(frozen=True)
class WeightSeq:
    """Non-negative sequence defined on n >= 0.

    ``constant`` is set when every value equals a known constant, which
    lets bulk evaluation skip per-index calls.  ``table`` holds explicit
    values for tabulated sequences; indices beyond the table are an
    error (tables carry exactly the data the caller supplied).
    """

    fn: Callable[[int], float]
    label: str = ""
    constant: float | None = None
    table: tuple[float, ...] | None = None

    def __call__(self, n: int) -> float:
        if n < 0:
            raise WeightError(f"weight sequence index must be >= 0, got {n}")
        if self.constant is not None:
            return self.constant
        if self.table is not None:
            if n >= len(self.table):
                raise WeightError(
                    f"tabulated weights '{self.label}' end at index "
                    f"{len(self.table) - 1}, requested {n}"
                )
            return self.table[n]
        value = float(self.fn(n))
        if value < 0:
            raise WeightError(f"weight sequence '{self.label}' negative at n={n}: {value}")
        return value

    def array(self, n_max: int) -> np.ndarray:
        """Values at indices 0..n_max as a float64 array."""
        if self.constant is not None:
            return np.full(n_max + 1, self.constant, dtype=np.float64)
        if self.table is not None:
            if n_max >= len(self.table):
                raise WeightError(
                    f"tabulated weights '{self.label}' end at index "
                    f"{len(self.table) - 1}, requested up to {n_max}"
                )
            return np.asarray(self.table[: n_max + 1], dtype=np.float64)
        out = np.fromiter((float(self.fn(i)) for i in range(n_max + 1)), np.float64, n_max + 1)
        if np.any(out < 0):
            bad = int(np.argmax(out < 0))
            raise WeightError(f"weight sequence '{self.label}' negative at n={bad}")
        return out


def _ones() -> WeightSeq:
    return WeightSeq(lambda n: 1.0, "ones", constant=1.0)


def _identity() -> WeightSeq:
    return WeightSeq(float, "identity")


def tabulated(values: Sequence[float], label: str = "tabulated") -> WeightSeq:
    vals = tuple(float(v) for v in values)
    if any(v < 0 for v in vals):
        raise WeightError(f"tabulated weights '{label}' contain a negative value")
    return WeightSeq(lambda n: vals[n], label, table=vals)


@dataclass(frozen=True)
class WeightScheme:
    """Weight pair (e, g): w(m, n) = e(y_m - n) * g(n).

    Arguments with y_m - n < 0 fall outside e's domain and get weight 0.
    """

    e: WeightSeq
    g: WeightSeq
    label: str = ""


def window_weight(schedule: DeferredSchedule, weights: WeightScheme, m: int, n: int) -> float:
    """w(m, n) for any n >= 1, zero when e's argument would be negative."""
    _, yv = schedule.bounds(m)
    if yv - n < 0:
        return 0.0
    return weights.e(yv - n) * weights.g(n)


def convolution(
    schedule: DeferredSchedule,
    weights: WeightScheme,
    m: int,
    mode: NormalizerMode = NormalizerMode.REGULAR,
) -> float:
    """Window weight sum R_m under the chosen normalizer convention.

    Returns a non-negative float; a zero result is the degenerate case
    that downstream means and densities must refuse to divide by.
    Summation uses math.fsum, so the result does not depend on term
    order or platform.
    """
    xv, yv = schedule.bounds(m)
    if mode is NormalizerMode.LITERAL:
        return math.fsum(weights.e(v) * weights.g(yv - v) for v in range(xv + 1, yv + 1))
    return math.fsum(weights.e(yv - n) * weights.g(n) for n in range(xv + 1, yv + 1))


def dn_mean(
    seq: Callable[[int], float],
    schedule: DeferredSchedule,
    weights: WeightScheme,
    m: int,
    mode: NormalizerMode = NormalizerMode.REGULAR,
) -> float:
    """Weighted window mean t_m = (1/R_m) * sum over the window of w(m, n) seq(n).

    The numerator always uses w(m, n); ``mode`` selects only the
    normalizer convention.  REGULAR therefore reproduces constants
    exactly (up to summation rounding), LITERAL generally does not.
    """
    r = convolution(schedule, weights, m, mode)
    if r <= 0.0:
        raise DegenerateNormalizerError(f"degenerate normalizer at m={m}: R_m={r}")
    xv, yv = schedule.bounds(m)
    # n <= y_m throughout the window, so every slot has its weight e(y_m - n) * g(n).
    num = math.fsum(
        weights.e(yv - n) * weights.g(n) * float(seq(n)) for n in range(xv + 1, yv + 1)
    )
    return num / r


def constant_seq(c: float) -> Callable[[int], float]:
    value = float(c)
    return lambda n: value


def identity_seq(n: int) -> float:
    return float(n)


# Named presets used by the config surface and the CLI.
SCHEDULE_PRESETS: dict[str, DeferredSchedule] = {
    # Plain expanding window 1..m.
    "cesaro": DeferredSchedule(Affine(0, 0), Affine(1, 0), "cesaro"),
    # The deferred window 2m..4m-1 of width 2m used by the worked examples.
    "example": DeferredSchedule(Affine(2, -1), Affine(4, -1), "example"),
    # Deferred window m+1..4m of width 3m; the operator checks default to it.
    "stretch": DeferredSchedule(Affine(1, 0), Affine(4, 0), "stretch"),
}

WEIGHT_PRESETS: dict[str, WeightScheme] = {
    "ones": WeightScheme(_ones(), _ones(), label="ones"),
    "identity": WeightScheme(_identity(), _ones(), label="identity"),
    # The worked examples pin the density prefactor to 1/(window width);
    # unit weights on the deferred window reproduce that normalizer, so the
    # example preset is unit weights under another name.
    "example1": WeightScheme(_ones(), _ones(), label="example1"),
}


def schedule_preset(name: str) -> DeferredSchedule:
    try:
        return SCHEDULE_PRESETS[name]
    except KeyError:
        raise ScheduleError(f"unknown schedule preset '{name}'") from None


def weight_preset(name: str) -> WeightScheme:
    try:
        return WEIGHT_PRESETS[name]
    except KeyError:
        raise WeightError(f"unknown weight preset '{name}'") from None
