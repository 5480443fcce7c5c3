"""Positive linear operator sequences on C[0,1] and Korovkin condition checks.

The base operator is the Meyer-Konig-Zeller construction

    M_m(f, y) = (1-y)^(m+1) * sum_{t>=0} f(t/(t+m)) C(m+t, t) y^t,

whose coefficient sequence is exactly the negative binomial mass
function with m+1 successes and failure probability y.  The node
convention t/(t+m) makes the operator reproduce constants and the
identity exactly (C(m+t, t) t/(t+m) telescopes to C(m+t-1, t-1)); the
second moment has no elementary closed form.  Coefficients are
accumulated in log space, so large m and y near 1 neither overflow nor
underflow through the intermediate products.

``mkz_apply`` sums the series from t = 0 and truncates it once the
running term ratio y (m+t+1)/(t+1) has entered the geometric regime and
the bounded remainder (tail mass times the sup of |f|) drops below the
requested tolerance; past ``_SERIES_CAP`` terms it raises
``SeriesCapError``.  The tables behind ``lifted_operator(...).batch``
sum each grid point over a certified two-sided window [t0, t1] around
the mode instead.  Half of the budget tail_tol / max sup|f| goes to
each side: t1 is the smallest index whose right tail bound
c_t1 rho/(1-rho), rho = y (m+t1+1)/(t1+1), fits its half, and t0 the
largest whose left tail bound c_t0 rho/(1-rho), rho = t0/(y (m+t0)),
fits its half (t0 = 0 if none does).  A window of more than
``_SERIES_CAP`` terms t1 - t0 + 1 raises ``SeriesCapError``.

``batch`` takes an array of indices.  One search finds the edges of
every (index, point) row at once: each row gallops out from 12 standard
deviations past the mode and bisects the bracket, on log C(m+t, t) from
Stirling's series, with no node table.  Each index then builds its node
table, and evaluates the functions, only over the blocks of 512
consecutive t that its windows cover, and sums each point with one
matrix-vector product.  ``korovkin_check`` takes a tuple of sequences
and calls each one's ``batch`` once per block of consecutive indices,
at most ``_BLOCK_ROWS`` (index, point, side) rows each.  Lifted
sequences read the base table through a memo of the last block, keyed
by its exact inputs, so the lifts of one check share one computation
per block.  ``tail_tol`` is set once, on the operator.

Lifted variants multiply M_n by a positive factor: 1 + F_Y for the limit
law of the two-coordinate counterexample (``rvmodel.limit_cdf``; F_Y > 0
on [0, 1], so the deviation persists at every index) or 1 + an indicator of the
perfect squares (a window-density-zero index set, giving a sequence
that converges statistically although not ordinarily).  Each sequence is
tabulated by ``lifted_operator(...).batch``; ``mkz_apply`` is M_m at one point.

The condition checker forms the sup-norm deviation sequence of the
operator on the test triple {1, z, z^2} and on caller functions, and
runs the statistical-limit machinery on each.  On deterministic real
sequences the three stochastic modes coincide, so the checker takes no
mode; the command line echoes its ``--tag`` as provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .density import (
    ConvergenceVerdict,
    DensityConfig,
    Verdict,
    _check_positive_finite,
    counting_bound,
    level_density_limit,  # noqa: F401  unused; perfbench/tracing.py wraps this binding
    level_density_limits,
)
from .rvmodel import limit_cdf, model_preset
from .schedules import DeferredSchedule, NormalizerMode, WeightScheme, array_result

__all__ = [
    "SampledFunction",
    "OperatorSequence",
    "Perturbation",
    "SeriesCapError",
    "mkz_apply",
    "sup_distance",
    "lifted_operator",
    "KorovkinConfig",
    "KorovkinReport",
    "korovkin_check",
    "MomentFormAudit",
    "audit_quadratic_moment",
    "ONE",
    "IDENTITY",
    "SQUARE",
    "CUBE",
    "EXP",
    "DIST_HALF",
    "function_preset",
]

_SERIES_CAP = 1_000_000
_DEFAULT_GRID_POINTS = 257
# Rows (index, grid point, side) per operator batch in korovkin_check; it
# bounds the window search's temporaries, about 200 bytes per row.
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class SampledFunction:
    """Total bounded function on [0,1].

    ``evaluation`` maps an array of points to their values (plain
    arithmetic does; use numpy ufuncs for exp and abs), or to one scalar
    for all of them.  ``values`` makes that one call, and is the only way
    dnstat evaluates a function, at interior points and endpoints alike.
    Boundedness is checked on an evaluation grid, as is the sup estimate
    used by the series tail bound, so wildly oscillating functions need a
    caller supplied bound instead.
    """

    evaluation: Callable
    label: str = ""

    def values(self, ys: np.ndarray) -> np.ndarray:
        name = f"function '{self.label}'"
        try:
            out = self.evaluation(ys)
        except Exception as exc:
            raise ValueError(f"{name} failed on an array of points: {exc}") from exc
        return array_result(out, ys.shape, np.float64, name)


def as_sampled(f) -> SampledFunction:
    if isinstance(f, SampledFunction):
        return f
    return SampledFunction(f, getattr(f, "__name__", "f"))


@lru_cache(maxsize=256)
def _sup_abs(f: SampledFunction) -> float:
    grid = np.linspace(0.0, 1.0, 1025)
    sup = float(np.max(np.abs(f.values(grid))))
    if not math.isfinite(sup):
        raise ValueError(f"function '{f.label}' is unbounded on the check grid")
    return sup


ONE = SampledFunction(lambda y: y * 0 + 1.0, "1")
IDENTITY = SampledFunction(lambda y: y * 1.0, "z")
SQUARE = SampledFunction(lambda y: y * y, "z^2")
CUBE = SampledFunction(lambda y: y * y * y, "y^3")
EXP = SampledFunction(np.exp, "e^y")
DIST_HALF = SampledFunction(lambda y: np.abs(y - 0.5), "|y-1/2|")

_FUNCTION_PRESETS = {
    "1": ONE,
    "y": IDENTITY,
    "identity": IDENTITY,
    "y^2": SQUARE,
    "y^3": CUBE,
    "exp": EXP,
    "e^y": EXP,
    "|y-1/2|": DIST_HALF,
}


def function_preset(name: str) -> SampledFunction:
    try:
        return _FUNCTION_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown function preset '{name}'") from None


# ---------------------------------------------------------------------------
# Series evaluation


class SeriesCapError(RuntimeError):
    """A certified series needs more than ``_SERIES_CAP`` terms."""


def _required_length(m: int, y: float, log_budget: float) -> int:
    """Smallest truncation index T with a certified tail below the budget.

    The tail past T is bounded by c_T * rho/(1 - rho) once the running
    ratio rho = y (m+T+1)/(T+1) is below one; the scan starts past the
    coefficient peak, where that is guaranteed.
    """
    peak = y * (m + 1) / (1.0 - y)
    t = int(peak + 10.0 * math.sqrt(max(y * (m + 1), 1.0)) / (1.0 - y) + 50.0)
    lg_m1 = math.lgamma(m + 1)
    base = (m + 1) * math.log1p(-y)
    log_y = math.log(y)
    while True:
        if t > _SERIES_CAP:
            raise SeriesCapError(
                f"series tail did not certify within {_SERIES_CAP} terms at m={m}, y={y}"
            )
        rho = y * (m + t + 1) / (t + 1)
        if rho < 1.0:
            log_c = base + t * log_y + math.lgamma(m + t + 1) - math.lgamma(t + 1) - lg_m1
            if log_c + math.log(rho / (1.0 - rho)) <= log_budget:
                return t
        t = int(t * 1.25) + 16


def _coefficients(m: int, y: float, t_end: int) -> np.ndarray:
    """Negative-binomial coefficients c_0..c_{t_end} at (m, y), log-space."""
    ts = np.arange(1, t_end + 1, dtype=np.float64)
    log_c = np.empty(t_end + 1)
    log_c[0] = (m + 1) * math.log1p(-y)
    np.cumsum(np.log(y * (m + ts) / ts), out=log_c[1:])
    log_c[1:] += log_c[0]
    return np.exp(log_c)


def _check_tail_tol(tail_tol: float) -> None:
    # The coefficients sum to 1, so a budget of 1 or more lets a window drop them all.
    if not 0.0 < tail_tol < 1.0:  # NaN fails too
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")


def mkz_apply(f, m: int, y: float, tail_tol: float = 1e-10) -> float:
    """Evaluate the base operator at one point by certified truncation.

    y = 1 returns f(1), the operator's limit there.  The truncation
    error is below tail_tol in absolute value (using the grid-estimated
    sup of |f|).
    """
    fn = as_sampled(f)
    if m < 1:
        raise ValueError(f"operator index must be >= 1, got {m}")
    _check_tail_tol(tail_tol)
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"evaluation point must lie in [0, 1], got {y}")
    if y == 0.0 or y == 1.0:
        return float(fn.values(np.array([y], dtype=np.float64))[0])
    sup = max(_sup_abs(fn), 1e-300)
    t_end = _required_length(m, y, math.log(tail_tol) - math.log(sup))
    c = _coefficients(m, y, t_end)
    ts = np.arange(t_end + 1, dtype=np.float64)
    return float(np.dot(fn.values(ts / (ts + m)), c))


# Stirling's remainder lgamma(n+1) - (n+1/2) log n + n - log sqrt(2 pi) for
# n < 16, where its asymptotic series is not yet accurate to a few ulps.
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_STIRLERR_SMALL = np.array(
    [0.0] + [math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI for n in range(1, 16)]
)
# Window search: every row first probes this many standard deviations out
# from the mode (heavy right tails at small m reach past 10), then four
# times farther per probe while rejected.
_FIRST_PROBE = 12.0
# Series indices per block of the node table; each block starts from an
# exact Stirling value, so rounding never accumulates past one block.
_BLOCK = 512
_BLOCK_OFFSETS = np.arange(_BLOCK, dtype=np.float64)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """lgamma(n+1) - (n+1/2) log n + n - log sqrt(2 pi), integer-valued n >= 1."""
    r = 1.0 / (n * n)
    out = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / n
    small = n < 16
    if small.any():
        out[small] = _STIRLERR_SMALL[n[small].astype(np.intp)]
    return out


def _log_binom(m: int | np.ndarray, t: np.ndarray) -> np.ndarray:
    """log C(m+t, t) for integer-valued float t >= 0 and m >= 1, to a few ulps of its size.

    m is one index or an array that broadcasts against t.  Written as
    (t+1/2) log(1+m/t) + (m+1/2) log(1+t/m) - log sqrt(2 pi (m+t)) plus
    Stirling remainders, so no term is much larger than the result.
    """
    m = np.asarray(m, dtype=np.float64)
    const = _HALF_LOG_2PI + _stirlerr(np.atleast_1d(m))
    with np.errstate(divide="ignore", invalid="ignore"):
        n = m + t
        out = (t + 0.5) * np.log1p(m / t)
        out += (m + 0.5) * np.log1p(t / m)
        out -= 0.5 * np.log(n) + const.reshape(m.shape)
        out += _stirlerr(n) - _stirlerr(t)
    out[t == 0.0] = 0.0
    return out


def _certified(m, t, y, log_c, side, log_budget):
    """Whether the series tail beyond t on ``side`` is within the budget.

    Right (side +1): sum_{s>t} c_s <= c_t rho/(1-rho), rho = y(m+t+1)/(t+1),
    valid once rho < 1.  Left (side -1): sum_{s<t} c_s <= c_t rho/(1-rho),
    rho = t/(y(m+t)), valid while rho < 1; at t = 0 that tail is empty.
    Each ratio is monotone on its side of the mode, so the geometric bound
    holds.  With u = t + [right] and v = y(m+u), rho/(1-rho) is v/(u-v) on
    the right and u/(v-u) on the left; where rho >= 1 it is negative or
    infinite, and the comparison fails.
    """
    right = side > 0
    u = t + right
    v = y * (m + u)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(right, v, u) / (side * (u - v))
        return log_c + np.log(x) <= log_budget


def _cap_error(m: int, y: float, terms: str) -> SeriesCapError:
    return SeriesCapError(
        f"the certified series window [t0, t1] at m={m}, y={y!r} needs {terms} terms, "
        f"past the cap of {_SERIES_CAP} terms t1 - t0 + 1 summed per point"
    )


class _Scratch:
    """Float64 buffers that one operator sequence reuses from index to index.

    The node table, the function values and the coefficients take a few
    hundred kilobytes to megabytes per index; fresh arrays of that size
    cost page faults on every call, a large share of the kernel's time.
    Buffers only grow, by half again when they must.  Not for concurrent
    use.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            grown = 0 if buffer is None else buffer.size + buffer.size // 2
            buffer = self._buffers[name] = np.empty(max(size, grown))
        return buffer[:size].reshape(shape)


def _blocks(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sorted ids of the blocks of _BLOCK indices that cover every [lo_i, hi_i]."""
    first, last = lo // _BLOCK, hi // _BLOCK
    spans = last - first + 1
    ids = np.sort(np.arange(int(spans.sum())) - np.repeat(np.cumsum(spans) - spans - first, spans))
    return ids[np.concatenate([[True], ids[1:] != ids[:-1]])]


class _Nodes:
    """Blocks of consecutive series indices t, with log C(m+t, t) at each.

    ``lin`` holds the rows t, 1 and log C(m+t, t), so that its product with
    (log y, (m+1) log(1-y), 1) is log c_t at every node.  Each block is a
    cumulative sum of log(1 + m/t) from an exact Stirling first value.
    """

    def __init__(self, m: int, lo: np.ndarray, hi: np.ndarray, scratch: _Scratch) -> None:
        self.blocks = _blocks(lo, hi)
        self.lin = scratch.take("nodes", 3, len(self.blocks) * _BLOCK)
        t = self.lin[0].reshape(-1, _BLOCK)
        np.add.outer(self.blocks * float(_BLOCK), _BLOCK_OFFSETS, out=t)
        self.lin[1] = 1.0
        log_binom = self.lin[2].reshape(-1, _BLOCK)
        with np.errstate(divide="ignore"):
            np.divide(m, t, out=log_binom)
        np.log1p(log_binom, out=log_binom)
        log_binom[:, 0] = _log_binom(m, t[:, 0])
        np.cumsum(log_binom, axis=1, out=log_binom)

    def index(self, t: np.ndarray) -> np.ndarray:
        """Position in ``lin`` of each index t, which must lie in a covered block."""
        ti = t.astype(np.int64)
        b = ti // _BLOCK
        return np.searchsorted(self.blocks, b) * _BLOCK + (ti - b * _BLOCK)


def _windows(m: np.ndarray, y: np.ndarray, log_budget: float) -> tuple[np.ndarray, np.ndarray]:
    """Certified windows [t0, t1] of the rows (m_i, y_i), interior points y_i.

    t1 is the smallest index whose right tail bound is within log_budget,
    t0 the largest whose left tail bound is.  Both are searched as offsets
    d from the mode: rows 0..R-1 hold t1 = mode + d, rows R..2R-1 hold
    t0 = mode - d.  On each row the certified offsets form a ray [d*, inf)
    (a left offset reaching t = 0 is always certified).  Every row gallops
    out from 12 standard deviations, four times farther per probe, until
    a probe is certified; offsets past the cap are not probed, since such
    a window is too wide to sum.  The bracket (last rejected, first
    certified] is then bisected on every row at once.  Coefficients come
    from ``_log_binom``, so the search builds no node table.
    """
    n_rows = len(y)
    mode = np.floor(y * m / (1.0 - y))
    side = np.repeat([1.0, -1.0], n_rows)
    mm, pivot, yy = (np.concatenate([a, a]) for a in (m, mode, y))
    log_y, base = np.log(yy), (mm + 1) * np.log1p(-yy)
    step = np.maximum(np.sqrt((mm + 1) * yy) / (1.0 - yy), 1.0)
    reach = np.where(side > 0, _SERIES_CAP + 1.0, np.minimum(pivot, _SERIES_CAP + 1.0))

    def certified(rows: np.ndarray, d: np.ndarray) -> np.ndarray:
        t = pivot[rows] + side[rows] * d
        log_c = base[rows] + t * log_y[rows] + _log_binom(mm[rows], t)
        return _certified(mm[rows], t, yy[rows], log_c, side[rows], log_budget)

    lo = np.full(2 * n_rows, -1.0)
    hi = np.empty(2 * n_rows)
    rows = np.arange(2 * n_rows)
    while len(rows):
        d = np.minimum(np.ceil(step[rows] * _FIRST_PROBE), reach[rows])
        ok = certified(rows, d)
        hi[rows[ok]] = d[ok]
        rows, d = rows[~ok], d[~ok]
        stuck = rows[d >= reach[rows]]  # rejected all the way to the cap
        if len(stuck):
            raise _cap_error(int(mm[stuck[0]]), float(yy[stuck[0]]), f"more than {_SERIES_CAP}")
        lo[rows] = d
        step[rows] *= 4.0

    rows = np.flatnonzero(hi - lo > 1.0)
    while len(rows):
        mid = np.floor(0.5 * (lo[rows] + hi[rows]))
        ok = certified(rows, mid)
        hi[rows[ok]] = mid[ok]
        lo[rows[~ok]] = mid[~ok]
        rows = rows[hi[rows] - lo[rows] > 1.0]
    return (mode - hi[n_rows:]).astype(np.int64), (mode + hi[:n_rows]).astype(np.int64)


def _mkz_table(
    fns: Sequence[SampledFunction],
    ms: np.ndarray,
    ys: np.ndarray,
    tail_tol: float,
    scratch: _Scratch,
) -> np.ndarray:
    """M_m(f_j, y_i) for every index m of ms, function and grid point.

    Each interior point sums only its certified window [t0, t1]; half of
    the budget tail_tol / max sup|f| goes to each side.  One search finds
    the windows of every (index, point) row.  Per index, the windows then
    share one table of log C(m+t, t), built only over the blocks of
    consecutive t that they cover, and one (functions x nodes) array of
    f(t/(t+m)), so each window is a contiguous slice: one matrix-vector
    product per point.
    """
    ys = np.asarray(ys, dtype=np.float64)
    out = np.empty((len(ms), len(fns), len(ys)))
    inner = (ys > 0.0) & (ys < 1.0)
    out[:, :, ~inner] = [fn.values(ys[~inner]) for fn in fns]
    cols = np.flatnonzero(inner)
    if len(cols) == 0 or len(ms) == 0:
        return out
    y = ys[cols]
    sup = max(max(_sup_abs(fn), 1e-300) for fn in fns)
    log_budget = math.log(tail_tol) - math.log(sup) - math.log(2.0)
    t0, t1 = _windows(np.repeat(ms.astype(np.float64), len(y)), np.tile(y, len(ms)), log_budget)
    terms = t1 - t0 + 1
    if terms.max() > _SERIES_CAP:
        worst = int(np.argmax(terms))
        raise _cap_error(int(ms[worst // len(y)]), float(y[worst % len(y)]), str(terms[worst]))

    log_y, log_1my, ones = np.log(y), np.log1p(-y), np.ones(len(y))
    for b, m in enumerate(ms.tolist()):
        rows = slice(b * len(y), (b + 1) * len(y))
        nodes = _Nodes(m, t0[rows], t1[rows], scratch)
        lin = nodes.lin
        u = scratch.take("nodes_u", lin.shape[1])
        np.add(lin[0], m, out=u)
        np.divide(lin[0], u, out=u)
        f_vals = scratch.take("values", len(fns), lin.shape[1])
        for j, fn in enumerate(fns):
            f_vals[j] = fn.values(u)
        coef = np.stack([log_y, (m + 1) * log_1my, ones], axis=1)
        starts = nodes.index(t0[rows]).tolist()
        widths = terms[rows]
        offsets = (np.cumsum(widths) - widths).tolist()
        widths = widths.tolist()
        c = scratch.take("coefficients", sum(widths))
        for a, n, k, row in zip(starts, widths, offsets, coef):
            np.matmul(row, lin[:, a : a + n], out=c[k : k + n])
        np.exp(c, out=c)
        for i, a, n, k in zip(cols.tolist(), starts, widths, offsets):
            out[b, :, i] = f_vals[:, a : a + n] @ c[k : k + n]
    return out


# ---------------------------------------------------------------------------
# Lifted operators


class Perturbation(Enum):
    """Multiplicative lift applied on top of the base operator."""

    NONE = "none"
    NULL_SET = "nullset"
    CDF_FACTOR = "cdffactor"


@dataclass(frozen=True)
class OperatorSequence:
    """Indexed family of positive linear operators on sampled functions.

    ``batch(ns, fns, ys)`` tabulates the operators of the indices ns, an
    array of integers >= 1, at once: shape (len(ns), len(fns), len(ys)).
    One point of the base operator is ``mkz_apply``.  ``notes`` go into
    every Korovkin report on the sequence.
    """

    label: str
    batch: Callable[[np.ndarray, Sequence[SampledFunction], np.ndarray], np.ndarray]
    notes: tuple[str, ...] = ()


# The base table of the last block that any lifted sequence tabulated, keyed
# by its exact inputs, so that the lifts of one Korovkin check share it.  An
# index's rows do not depend on the block around it, so a hit equals a
# recomputation.
_last_base: dict[tuple, np.ndarray] = {}


def _base_table(
    fns: Sequence[SampledFunction], ms: np.ndarray, ys: np.ndarray, tail_tol: float, scratch: _Scratch
) -> np.ndarray:
    """``_mkz_table`` through the one-block memo; the table is read-only."""
    ys = np.asarray(ys, dtype=np.float64)
    key = (ms.tobytes(), tuple(fns), ys.tobytes(), tail_tol)
    table = _last_base.get(key)
    if table is None:
        table = _mkz_table(fns, ms, ys, tail_tol, scratch)
        table.flags.writeable = False
        _last_base.clear()
        _last_base[key] = table
    return table


def lifted_operator(perturbation: Perturbation, tail_tol: float) -> OperatorSequence:
    """The MKZ operator sequence times the perturbation's factor at (n, y).

    ``tail_tol`` bounds the truncation error of every entry; it has no
    default, and it is the only tolerance a Korovkin check reads.
    ``batch`` reads the base table of its block through a memo of the
    last block tabulated, shared by every lifted sequence; the bare
    sequence returns that table, read-only.  It reuses its scratch
    buffers from one call to the next, so sequences must not be
    evaluated from several threads at once.
    """
    _check_tail_tol(tail_tol)
    scratch = _Scratch()
    example2 = model_preset("example2").model

    def batch(ns: np.ndarray, fns: Sequence[SampledFunction], ys: np.ndarray) -> np.ndarray:
        ms = np.asarray(ns, dtype=np.int64)
        if ms.ndim != 1 or (ms < 1).any():
            raise ValueError(f"operator indices must be a 1-D array of integers >= 1, got {ns!r}")
        tables = _base_table(fns, ms, ys, tail_tol, scratch)
        if perturbation is Perturbation.NONE:
            return tables
        if perturbation is Perturbation.NULL_SET:
            squares = np.array([math.isqrt(n) ** 2 == n for n in ms.tolist()], dtype=bool)
            return tables * np.where(squares, 2.0, 1.0)[:, None, None]
        return tables * (1.0 + limit_cdf(example2, ys))

    label = "mkz" if perturbation is Perturbation.NONE else f"mkz+{perturbation.value}"
    if perturbation is not Perturbation.CDF_FACTOR:
        return OperatorSequence(label, batch)
    return OperatorSequence(label, batch, (
        "the lift factor 1 + F(y) never falls below 1, so the unit test-function "
        "deviation persists at every index; the verdict reported is the measured one",
    ))


# ---------------------------------------------------------------------------
# Sup distance and the condition checker


def sup_distance(fa, fb, grid: Sequence[float] | None = None) -> float:
    """Max of |fa - fb| over the grid (257 equispaced points by default)."""
    ys = np.linspace(0.0, 1.0, _DEFAULT_GRID_POINTS) if grid is None else np.asarray(grid, float)
    if len(ys) == 0:
        raise ValueError("sup distance needs a nonempty grid")
    return float(np.max(np.abs(as_sampled(fa).values(ys) - as_sampled(fb).values(ys))))


@dataclass(frozen=True)
class KorovkinConfig:
    """Settings for a condition-checker run.

    The series truncation tolerance is not among them: it belongs to the
    operator sequence (``lifted_operator(perturbation, tail_tol)``).  The
    tolerance default differs from the density module's: at the
    checker's default horizon of 200 the perfect-square index set still
    has tail densities near 0.045, so certifying statistical nullity of
    that set needs a tolerance above it.
    """

    horizon: int = 200
    eps: float = 0.5
    grid_points: int = 65
    tolerance: float = 0.05
    tail_fraction: float = 0.2
    mode: NormalizerMode = NormalizerMode.REGULAR

    def __post_init__(self) -> None:
        _check_positive_finite("eps", self.eps)
        if self.grid_points < 2:
            raise ValueError(f"grid size must be at least 2, got {self.grid_points}")
        self.density()

    def density(self) -> DensityConfig:
        return DensityConfig(
            horizon=self.horizon,
            tail_fraction=self.tail_fraction,
            tolerance=self.tolerance,
            mode=self.mode,
        )


@dataclass(frozen=True)
class KorovkinReport:
    """Per-condition and per-conclusion verdicts with their sup-norm traces."""

    conditions: Mapping[str, ConvergenceVerdict]
    conclusions: Mapping[str, ConvergenceVerdict]
    operator: str
    cfg: KorovkinConfig
    notes: tuple[str, ...]

    @property
    def all_conditions_converge(self) -> bool:
        return all(v.verdict is Verdict.CONVERGES for v in self.conditions.values())

    def sup_trace(self, label: str) -> np.ndarray:
        verdict = self.conditions.get(label) or self.conclusions[label]
        return verdict.extras["levels"]

    def to_json_dict(self) -> dict[str, object]:
        return {
            "operator": self.operator,
            "grid_points": self.cfg.grid_points,
            "horizon": self.cfg.horizon,
            "eps": self.cfg.eps,
            "normalizer_mode": self.cfg.mode.value,
            "conditions": {k: v.summary() for k, v in self.conditions.items()},
            "conclusions": {k: v.summary() for k, v in self.conclusions.items()},
            "all_conditions_converge": self.all_conditions_converge,
            "notes": list(self.notes),
        }

    def table(self) -> str:
        lines = [f"{'function':10} {'role':10} {'verdict':13} tail_max"]
        for role, verdicts in (("condition", self.conditions), ("conclusion", self.conclusions)):
            for label, v in verdicts.items():
                lines.append(f"{label:10} {role:10} {v.verdict.value:13} {v.tail_max!r}")
        return "\n".join(lines)


def _operator_tables(
    ops: OperatorSequence, ns: np.ndarray, fns: Sequence[SampledFunction], grid: np.ndarray
) -> np.ndarray:
    """``ops.batch(ns, fns, grid)``; an error names the first index that fails on its own."""
    try:
        return ops.batch(ns, fns, grid)
    except Exception as exc:
        if len(ns) > 1:
            singles = [_operator_tables(ops, ns[i : i + 1], fns, grid) for i in range(len(ns))]
            return np.concatenate(singles)
        wrapper = SeriesCapError if isinstance(exc, SeriesCapError) else RuntimeError
        raise wrapper(f"operator evaluation failed at n={ns[0]}: {exc}") from exc


def korovkin_check(
    ops: tuple[OperatorSequence, ...],
    f_list: Sequence[SampledFunction],
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: KorovkinConfig,
) -> tuple[KorovkinReport, ...]:
    """Run the three-condition check and the conclusion check for each f.

    Forms s_n = sup over the grid of |M_n(f, y) - f(y)| up to the last
    index counting reads (``counting_bound``) for the test triple and each
    caller function, then applies the statistical limit detector to
    every s sequence.  ``ops`` is a nonempty tuple of operator
    sequences; the check returns one report per sequence, in the same
    order.  Blocks of consecutive indices with at most ``_BLOCK_ROWS``
    (index, grid point, side) rows each, or one index when its grid alone
    has more, are tabulated by every sequence in turn with the same
    functions, so lifted sequences share each block's base table.  A nan
    sup deviation, which would never count, is a ValueError naming the
    function and the first n, as are two different functions under one label.
    """
    if not (isinstance(ops, tuple) and ops and all(isinstance(s, OperatorSequence) for s in ops)):
        raise ValueError("korovkin_check needs a nonempty tuple of operator sequences")
    if not f_list:
        raise ValueError("korovkin_check needs at least one conclusion function")
    fns = [ONE, IDENTITY, SQUARE] + [as_sampled(f) for f in f_list]
    for i, fn in enumerate(fns):  # reports and traces are keyed by label
        if any(other.label == fn.label and other != fn for other in fns[:i]):
            raise ValueError(f"two different functions share the label '{fn.label}'")
    density_cfg = cfg.density()
    top = counting_bound(schedule, weights, density_cfg)

    grid = np.linspace(0.0, 1.0, cfg.grid_points)
    targets = np.stack([fn.values(grid) for fn in fns])
    sup_dev = np.empty((len(ops), len(fns), top))
    per_call = max(1, _BLOCK_ROWS // (2 * len(grid)))
    for first in range(1, top + 1, per_call):
        ns = np.arange(first, min(first + per_call, top + 1))
        for seq, dev in zip(ops, sup_dev):
            tables = _operator_tables(seq, ns, fns, grid)
            dev[:, ns - 1] = np.max(np.abs(tables - targets), axis=2).T

    reports = []
    for seq, dev in zip(ops, sup_dev):
        nan = np.argwhere(np.isnan(dev.T))
        if len(nan):
            n, j = nan[0].tolist()
            raise ValueError(f"{seq.label}: sup deviation of '{fns[j].label}' at n={n + 1} is nan")
        # One counting pass over the 3 + F rows: every row has the threshold cfg.eps.
        extras = [{"levels": row, "function": fn.label} for row, fn in zip(dev, fns)]
        verdicts = level_density_limits(dev, cfg.eps, schedule, weights, density_cfg, extras)
        conditions = {fn.label: v for fn, v in zip(fns[:3], verdicts)}
        conclusions = {fn.label: v for fn, v in zip(fns[3:], verdicts[3:])}
        reports.append(KorovkinReport(conditions, conclusions, seq.label, cfg, seq.notes))
    return tuple(reports)


# ---------------------------------------------------------------------------
# Second-moment closed-form audit


@dataclass(frozen=True)
class MomentFormAudit:
    """Comparison of the truncated series against a quoted closed form."""

    m: int
    y: float
    series_value: float
    quoted_value: float
    difference: float
    agrees: bool

    def note(self) -> str | None:
        if self.agrees:
            return None
        return (
            f"erratum: quoted second-moment closed form disagrees with the series at "
            f"(m={self.m}, y={self.y}): series {self.series_value!r}, "
            f"closed form {self.quoted_value!r}, difference {self.difference!r}; "
            f"the series value is authoritative"
        )


def audit_quadratic_moment(
    m: int = 50, y: float = 0.5, tail_tol: float = 1e-10, threshold: float = 1e-3
) -> MomentFormAudit:
    """Audit the quoted closed form y^2 (m+2)/(m+1) + y/(m+1) for M_m(u^2, y).

    The truncated series is the authority; the closed form is a claim
    under audit, never ground truth.
    """
    series = mkz_apply(SQUARE, m, y, tail_tol)
    quoted = y * y * (m + 2) / (m + 1) + y / (m + 1)
    diff = abs(series - quoted)
    return MomentFormAudit(m, y, series, quoted, diff, diff <= threshold)
