"""Deferred window schedules, weight schemes and normalizer conventions.

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
produced a number.  The window sums R_m and the means over the windows
are computed on arrays in ``dnstat.density`` (``window_plan``,
``window_means``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

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
    "check_normalizer",
    "array_result",
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


def array_result(value: object, shape: tuple[int, ...], dtype: type, name: str) -> np.ndarray:
    """A caller-supplied function's result on inputs of ``shape``, as ``dtype``: an
    array of that shape, or a scalar that stands for every entry; else ValueError."""
    out = np.asarray(value, dtype=dtype)
    if out.shape == shape:
        return out
    if out.ndim:
        raise ValueError(f"{name} returned shape {out.shape} for inputs of shape {shape}")
    return np.full(shape, out)


@dataclass(frozen=True)
class WeightSeq:
    """Non-negative sequence defined on n >= 0.

    ``fn`` maps an int64 index array to its values (``array_result``);
    ``constant``, set when every value equals a known constant, lets bulk
    evaluation skip it.  ``length`` is the number of values of a
    tabulated sequence; indices beyond the table are an error (tables
    carry exactly the data the caller supplied).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    constant: float | None = None
    length: int | None = None

    def array(self, n_max: int) -> np.ndarray:
        """Values at indices 0..n_max as a float64 array; each must be finite and >= 0."""
        if self.constant is not None:
            if not 0.0 <= self.constant < math.inf:
                raise _weight_fault(self.label, 0, self.constant)
            return np.full(n_max + 1, self.constant, dtype=np.float64)
        if self.length is not None and n_max >= self.length:
            raise WeightError(
                f"tabulated weights '{self.label}' end at index "
                f"{self.length - 1}, requested up to {n_max}"
            )
        ns = np.arange(n_max + 1)
        out = array_result(self.fn(ns), ns.shape, np.float64, f"weights '{self.label}'")
        bad = np.flatnonzero(~((out >= 0.0) & (out < np.inf)))
        if bad.size:
            raise _weight_fault(self.label, int(bad[0]), float(out[bad[0]]))
        return out


def _weight_fault(label: str, n: int, value: float) -> WeightError:
    fault = "negative" if value < 0 else "not finite"
    return WeightError(f"weight sequence '{label}' {fault} at n={n}: {value}")


def real_values(values: Iterable, what: str, error: type[ValueError]) -> list[float]:
    """``values`` as floats; ``error`` at a bool or a non-number, as ``config`` rules for files."""
    values = list(values)
    if not set(map(type, values)) <= {float, int, np.float64}:
        for v in values:
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
                raise error(f"{what} must be a number, got {v!r}")
    return list(map(float, values))


def tabulated(values: Sequence[float], label: str = "tabulated") -> WeightSeq:
    arr = np.array(real_values(values, f"each entry of weights '{label}'", WeightError))
    arr.flags.writeable = False
    # A closure, not the bound arr.__getitem__: WeightSeq must stay hashable,
    # and it hashes and compares by the closure, not by the values.
    seq = WeightSeq(lambda n: arr[n], label, length=len(arr))
    seq.array(len(arr) - 1)  # WeightError at the first negative or non-finite value
    return seq


@dataclass(frozen=True)
class WeightScheme:
    """Weight pair (e, g): w(m, n) = e(y_m - n) * g(n).

    Arguments with y_m - n < 0 fall outside e's domain and get weight 0.
    """

    e: WeightSeq
    g: WeightSeq
    label: str = ""


def check_normalizer(r: float, m: int, label: str) -> None:
    """Raise WeightError for an R_m that is not finite, DegenerateNormalizerError for R_m <= 0."""
    if not math.isfinite(r):
        raise WeightError(f"weights '{label}' give no finite window sum at m={m}: R_m={r}")
    if not r > 0.0:
        raise DegenerateNormalizerError(f"degenerate normalizer at m={m}: R_m={r}")


def constant_seq(c: float) -> Callable[[np.ndarray], np.ndarray]:
    value = float(c)
    return lambda n: np.full(np.shape(n), value)


def identity_seq(n: np.ndarray) -> np.ndarray:
    return np.asarray(n, dtype=np.float64)


# Named presets used by the config surface and the CLI.
SCHEDULE_PRESETS: dict[str, DeferredSchedule] = {
    # Plain expanding window 1..m.
    "cesaro": DeferredSchedule(Affine(0, 0), Affine(1, 0), "cesaro"),
    # The deferred window 2m..4m-1 of width 2m used by the worked examples.
    "example": DeferredSchedule(Affine(2, -1), Affine(4, -1), "example"),
    # Deferred window m+1..4m of width 3m; the operator checks default to it.
    "stretch": DeferredSchedule(Affine(1, 0), Affine(4, 0), "stretch"),
}

_ONES = WeightSeq(constant_seq(1.0), "ones", constant=1.0)
WEIGHT_PRESETS: dict[str, WeightScheme] = {
    "ones": WeightScheme(_ONES, _ONES, label="ones"),
    "identity": WeightScheme(WeightSeq(identity_seq, "identity"), _ONES, label="identity"),
    # The worked examples pin the density prefactor to 1/(window width);
    # unit weights on the deferred window reproduce that normalizer, so the
    # example preset is unit weights under another name.
    "example1": WeightScheme(_ONES, _ONES, label="example1"),
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
