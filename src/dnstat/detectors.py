"""Detectors for the three statistical convergence modes of RV sequences.

Each detector reduces to a window-weighted density run over a level
sequence evaluated at the counting index n:

  probability mode   level(n) = P(|Y_n - Y| >= eps),   threshold delta
  mean mode          level(n) = E|Y_n - Y|^r,          threshold eps
  distribution mode  level(n) = |F_{Y_n}(t) - F_Y(t)|, threshold eps,
                     one level row per evaluation point t

Counting reads level(n) for n up to ``counting_bound``, so each level row
ends there, and the model's limit law is checked there.  Rows are filled
from ``RVSequenceModel.law_table`` on one chunk of indices at a time:
each level is computed once per distinct law of a chunk's table (of all
chunks' tables, when they share their atoms, as a tabulated model's do),
as an exactly rounded sum equal to ``math.fsum`` over the law's atoms
(|Y_n - Y|^r by Python's float pow unless r = 1), and gathered per n.
The distribution detector counts every grid point's row in one window
pass (``level_density_limits``).

The distribution detector requires evaluation points where the limit
distribution function is continuous (else GridError); the default grid
takes midpoints between adjacent limit atoms plus one flanking point on
each side, which satisfies that requirement automatically.

The suite helpers exercise the algebra-of-limits assertions, the
continuous-mapping property and the moment bound as finite-horizon
property checks; they verify observed behaviour, they do not prove
theorems.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .density import (
    ConvergenceVerdict,
    DensityConfig,
    Verdict,
    _check_positive_finite,
    counting_bound,
    level_density_limit,
    level_density_limits,
)
from .rvmodel import (
    LawTable,
    RVSequenceModel,
    _coupled,
    abs_moment,
    combine_independent,
    exceedance_prob,
    limit_cdf,
    map_values,
    prob_limits_equal,
    with_alt_limit,
)
from .schedules import DeferredSchedule, WeightScheme

__all__ = [
    "GridError",
    "DetectorConfig",
    "default_grid",
    "st_dnp",
    "st_dnm",
    "st_dndc",
    "MarkovCheck",
    "markov_bound_check",
    "AssertionResult",
    "AlgebraSuiteReport",
    "algebra_suite",
    "continuous_map_check",
    "cauchy_index_search",
]

# Indices per chunk of level rows: a chunk's float row is 64 KB, under glibc's 128 KB
# mmap threshold, so chunk buffers are reused from the heap, not faulted in afresh.
_LEVEL_CHUNK = 2**13


@dataclass(frozen=True)
class DetectorConfig:
    """Shared detector parameters.

    ``eps`` and ``delta`` are the exceedance and density thresholds of
    the probability mode; the mean mode thresholds the weighted moment
    at ``eps`` and uses order ``r``; the distribution mode evaluates at
    ``grid`` of finite points (None picks the automatic continuity-safe grid).
    """

    eps: float = 0.5
    delta: float = 0.5
    r: float = 1.0
    grid: tuple[float, ...] | None = None
    density: DensityConfig = field(default_factory=DensityConfig)

    def __post_init__(self) -> None:
        _check_positive_finite("eps", self.eps)
        _check_positive_finite("delta", self.delta)
        if not self.r >= 1.0:  # NaN fails too
            raise ValueError(f"moment order must be >= 1, got {self.r}")
        if np.isinf(self.r):
            raise ValueError(f"r must be finite, got {self.r}")
        if self.grid is not None and not np.isfinite(self.grid).all():
            raise ValueError(f"grid points must be finite, got {self.grid}")


class GridError(ValueError):
    """A distribution-mode grid is empty or has a point on a limit-law atom."""


def default_grid(model: RVSequenceModel) -> tuple[float, ...]:
    """Continuity-safe evaluation points for the limit law.

    Midpoints between adjacent limit atoms, flanked by one point half a unit below the
    smallest atom and half a unit above the largest.  No point sits on an atom: a midpoint
    with no double between its atoms is dropped, and a flank that rounds onto its atom
    moves to the next double out.  Where a + b overflows, the midpoint is a / 2 + b / 2.
    """
    atoms = [v for v, _ in model.limit_atoms()]
    pairs = list(zip(atoms, atoms[1:]))
    halves = ((a + b) / 2.0 if math.isfinite(a + b) else a / 2.0 + b / 2.0 for a, b in pairs)
    midpoints = (t for (a, b), t in zip(pairs, halves) if a < t < b)
    lo = min(atoms[0] - 0.5, math.nextafter(atoms[0], -math.inf))
    hi = max(atoms[-1] + 0.5, math.nextafter(atoms[-1], math.inf))
    return (lo, *midpoints, hi)


def st_dnp(
    model: RVSequenceModel,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DetectorConfig,
) -> ConvergenceVerdict:
    """Statistical convergence in probability over the weighted windows."""
    top = _checked_top(model, schedule, weights, cfg)
    return level_density_limit(
        _level_rows(model, top, lambda laws: laws.exceedance(cfg.eps))[0],
        cfg.delta,
        schedule,
        weights,
        cfg.density,
        extras={"detector": "dnp", "eps": cfg.eps, "delta": cfg.delta},
    )


def st_dnm(
    model: RVSequenceModel,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DetectorConfig,
) -> ConvergenceVerdict:
    """Statistical convergence in r-th mean."""
    top = _checked_top(model, schedule, weights, cfg)
    return level_density_limit(
        _level_rows(model, top, lambda laws: laws.moment(cfg.r))[0],
        cfg.eps,
        schedule,
        weights,
        cfg.density,
        extras={"detector": "dnm", "eps": cfg.eps, "r": cfg.r},
    )


def st_dndc(
    model: RVSequenceModel,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DetectorConfig,
) -> ConvergenceVerdict:
    """Statistical convergence in distribution at every grid point.

    Per-point verdicts are returned in extras["points"]; the overall
    verdict Converges only when every point converges, the trace columns
    shown are the worst point's.
    """
    grid = cfg.grid if cfg.grid is not None else default_grid(model)
    if not grid:
        raise GridError("distribution detector needs a nonempty grid")
    limit_values = {v for v, _ in model.limit_atoms()}
    for t in grid:
        if t in limit_values:
            raise GridError(f"grid point {t!r} sits on a limit-law atom (discontinuity)")

    top = _checked_top(model, schedule, weights, cfg)
    # The limit law does not depend on n: one limit CDF for the whole grid.
    limit = limit_cdf(model, np.asarray(grid, dtype=np.float64)).tolist()
    gaps = [lambda laws, t=t, f=f: np.abs(laws.cdf(t) - f) for t, f in zip(grid, limit)]
    rows = _level_rows(model, top, *gaps)
    verdicts = level_density_limits(
        rows,
        cfg.eps,
        schedule,
        weights,
        cfg.density,
        extras=[{"detector": "dndc", "eps": cfg.eps, "point": t} for t in grid],
    )
    per_point = dict(zip(grid, verdicts))

    worst = max(per_point.values(), key=lambda v: v.tail_max)
    # The gravest verdict of any point: Diverges, then Inconclusive, then Converges.
    seen = {v.verdict for v in per_point.values()}
    overall = next(v for v in (Verdict.DIVERGES, Verdict.INCONCLUSIVE, Verdict.CONVERGES) if v in seen)
    return replace(
        worst,
        verdict=overall,
        extras={"detector": "dndc", "eps": cfg.eps, "grid": tuple(grid), "points": per_point},
    )


def _checked_top(
    model: RVSequenceModel,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DetectorConfig,
) -> int:
    """The run's ``counting_bound``, after checking the model's limit law there against m = 1."""
    top = counting_bound(schedule, weights, cfg.density)
    model.check_limit_law(top)
    return top


def _level_rows(
    model: RVSequenceModel, top: int, *levels: Callable[[LawTable], np.ndarray]
) -> np.ndarray:
    """One row per level function at n = 1..top, from ``model.law_table`` on a chunk at a time.

    Each function maps a table of distinct laws (``index`` None) to one level per law.  A table
    that shares its atom arrays with the last chunk's (a tabulated model's do) reuses its
    levels, so each of its distinct laws is levelled once per call.
    """
    rows, atoms = np.empty((len(levels), top)), (None, None, None)
    for lo in range(0, top, _LEVEL_CHUNK):
        laws = model.law_table(np.arange(lo + 1, min(lo + _LEVEL_CHUNK, top) + 1, dtype=np.int64))
        if not all(map(operator.is_, atoms, (laws.a, laws.b, laws.p))):
            distinct = replace(laws, index=None)
            atoms, per_law = (laws.a, laws.b, laws.p), [f(distinct) for f in levels]
        for row, level in zip(rows[:, lo : lo + _LEVEL_CHUNK], per_law):
            row[:] = level if laws.index is None else level[laws.index]
    return rows


# ---------------------------------------------------------------------------
# Markov bound


@dataclass(frozen=True)
class MarkovCheck:
    """Outcome of one moment-bound comparison."""

    ok: bool
    margin: float
    exceedance: float
    bound: float


def markov_bound_check(model: RVSequenceModel, m: int, eps: float, r: float) -> MarkovCheck:
    """Check P(|Y_m - Y| >= eps) <= E|Y_m - Y|^r / eps^r on exact values."""
    exc = exceedance_prob(model, m, eps)
    bound = abs_moment(model, m, r) / eps**r
    return MarkovCheck(exc <= bound, bound - exc, exc, bound)


# ---------------------------------------------------------------------------
# Algebra-of-limits suite


@dataclass(frozen=True)
class AssertionResult:
    """Observed truth of one algebraic implication."""

    name: str
    inputs: str
    premises: Mapping[str, str]
    conclusion: str
    holds: bool
    note: str = ""

    def to_json_dict(self) -> dict[str, object]:
        return {
            "assertion": self.name,
            "inputs": self.inputs,
            "premises": dict(self.premises),
            "conclusion": self.conclusion,
            "holds": self.holds,
            "note": self.note,
        }


@dataclass(frozen=True)
class AlgebraSuiteReport:
    results: tuple[AssertionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.holds for r in self.results)

    def to_json_dict(self) -> dict[str, object]:
        return {"passed": self.passed, "assertions": [r.to_json_dict() for r in self.results]}


def _constant_limit(model: RVSequenceModel) -> float | None:
    atoms = model.limit_atoms()
    return atoms[0][0] if len(atoms) == 1 else None


def algebra_suite(
    model_a: RVSequenceModel,
    model_b: RVSequenceModel,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DetectorConfig,
) -> AlgebraSuiteReport:
    """Observed truth of the limit-algebra assertions on a model pair.

    Derived models are built by pointwise transformation of the joint
    supports; two-model combinations use an independent coupling.  Each
    record states the premise verdicts, the conclusion verdict and
    whether the implication held at this horizon.
    """
    run = lambda model: st_dnp(model, schedule, weights, cfg)  # noqa: E731
    va = run(model_a)
    vb = run(model_b)
    a_conv = va.verdict is Verdict.CONVERGES
    b_conv = vb.verdict is Verdict.CONVERGES
    results: list[AssertionResult] = []

    # (1) Uniqueness: converging to two candidate limits forces them to
    # agree almost surely.  The alternative limit is an atom-wise
    # transform h(Y); the identity transform must co-converge, a shifted
    # one must not (unless the shift fixes the support).
    for tag, h in (("identity", lambda v: v), ("shift+1", lambda v: v + 1.0)):
        alt = with_alt_limit(model_a, h)
        v_alt = run(alt)
        both = a_conv and v_alt.verdict is Verdict.CONVERGES
        p_eq = prob_limits_equal(model_a, h)
        results.append(
            AssertionResult(
                "uniqueness",
                f"{model_a.description} vs alt limit {tag}",
                {"original": va.verdict.value, "alternative": v_alt.verdict.value},
                f"P(limits equal) = {p_eq!r}",
                (not both) or p_eq == 1.0,
                "vacuous premise" if not both else "",
            )
        )

    # (2) Squaring preserves convergence.
    v_sq = run(map_values(model_a, lambda v: v * v))
    results.append(
        AssertionResult(
            "square",
            model_a.description,
            {"original": va.verdict.value},
            v_sq.verdict.value,
            (not a_conv) or v_sq.verdict is Verdict.CONVERGES,
        )
    )

    ya = _constant_limit(model_a)
    zb = _constant_limit(model_b)
    # The product model of (3) and (5), run once.
    v_prod = run(combine_independent(model_a, model_b, lambda u, v: u * v))

    # (3) Product of sequences with constant limits.
    if ya is not None and zb is not None:
        results.append(
            AssertionResult(
                "product_constant_limits",
                f"{model_a.description} * {model_b.description}",
                {"left": va.verdict.value, "right": vb.verdict.value},
                f"{v_prod.verdict.value} (target {ya * zb!r})",
                (not (a_conv and b_conv)) or v_prod.verdict is Verdict.CONVERGES,
            )
        )
    else:
        results.append(
            AssertionResult(
                "product_constant_limits",
                f"{model_a.description} * {model_b.description}",
                {},
                "skipped",
                True,
                "needs constant limits on both sides",
            )
        )

    # (4) Quotient, hypothesis: the denominator's limit is a nonzero constant.
    if zb is None or zb == 0.0:
        results.append(
            AssertionResult(
                "quotient",
                f"{model_a.description} / {model_b.description}",
                {},
                "rejected",
                True,
                "denominator limit must be a nonzero constant",
            )
        )
    else:
        v_quot = run(combine_independent(model_a, model_b, _safe_div))
        results.append(
            AssertionResult(
                "quotient",
                f"{model_a.description} / {model_b.description}",
                {"numerator": va.verdict.value, "denominator": vb.verdict.value},
                f"{v_quot.verdict.value} (target {(ya / zb)!r})" if ya is not None else v_quot.verdict.value,
                (not (a_conv and b_conv)) or v_quot.verdict is Verdict.CONVERGES,
            )
        )

    # (5) Product with possibly random limits, independent coupling.
    results.append(
        AssertionResult(
            "product_random_limits",
            f"{model_a.description} * {model_b.description}",
            {"left": va.verdict.value, "right": vb.verdict.value},
            v_prod.verdict.value,
            (not (a_conv and b_conv)) or v_prod.verdict is Verdict.CONVERGES,
        )
    )

    # (6) Tail comparison against a fixed index.
    a_found = cauchy_index_search(model_a, schedule, weights, cfg)
    results.append(
        AssertionResult(
            "tail_index",
            model_a.description,
            {"original": va.verdict.value},
            f"a = {a_found}" if a_found is not None else "none found",
            (not a_conv) or a_found is not None,
        )
    )
    return AlgebraSuiteReport(tuple(results))


def _safe_div(u: float, v: float) -> float:
    if v == 0.0:
        raise ZeroDivisionError("denominator sequence hit an exact zero atom")
    return u / v


def continuous_map_check(
    model: RVSequenceModel,
    f: Callable[[float], float],
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DetectorConfig,
) -> ConvergenceVerdict:
    """Probability-mode verdict of the pushforward (f(Y_m), f(Y)).

    The caller declares f uniformly continuous; nothing here verifies
    that, the check only measures the pushforward's convergence.
    """
    return st_dnp(map_values(model, f), schedule, weights, cfg)


def cauchy_index_search(
    model: RVSequenceModel,
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: DetectorConfig,
    a_max: int = 32,
) -> int | None:
    """Smallest fixed index a whose tail-comparison density converges.

    Runs the probability detector on the pair (Y_n, Y_a) under an
    independent coupling for a = 1, 2, ... and returns the first a whose
    verdict is Converges, or None when a_max is exhausted.  The claim
    being exercised is existential, so a bounded search is the honest
    finite rendition.
    """
    tail = lambda am, _bm, aa, _ba: (am, aa)  # noqa: E731
    for a in range(1, a_max + 1):
        fixed = model.law_table(np.array([a], dtype=np.int64))
        pair = _coupled((model.law_table, lambda ns, t=fixed: t), tail, f"tailpair({model.description},a={a})")
        if st_dnp(pair, schedule, weights, cfg).verdict is Verdict.CONVERGES:
            return a
    return None
