"""Positive linear operator sequences on C[0,1] and Korovkin condition checks.

The base operator is the Meyer-Konig-Zeller construction

    M_m(f, y) = (1-y)^(m+1) * sum_{t>=0} f(t/(t+m)) C(m+t, t) y^t,

whose coefficient sequence is exactly the negative binomial mass
function with m+1 successes and failure probability y.  The node
convention t/(t+m) makes the operator reproduce constants and the
identity exactly (C(m+t, t) t/(t+m) telescopes to C(m+t-1, t-1)); the
second moment has no elementary closed form.  The series is
truncated once the running term ratio y (m+t+1)/(t+1) has entered the
geometric regime and the bounded remainder (tail mass times the sup of
|f|) drops below the requested tolerance.  Coefficients are accumulated
in log space, so large m and y near 1 neither overflow nor underflow
through the intermediate products.

Lifted variants multiply M_n by a positive factor: the two-coordinate
counterexample's distribution function (which never vanishes, so its
deviation from 1 persists at every index) or an indicator of the
perfect squares (a window-density-zero index set, giving a sequence
that converges statistically although not ordinarily).  Each sequence is
tabulated by ``lifted_operator(...).batch``; ``mkz_apply`` is M_m at one point.

The condition checker forms the sup-norm deviation sequence of the
operator on the test triple {1, z, z^2} and on caller functions, and
runs the statistical-limit machinery on each.  On deterministic real
sequences the three stochastic modes coincide, so the mode is carried
as a provenance tag only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .density import ConvergenceVerdict, DensityConfig, counting_bound, level_density_limit
from .rvmodel import model_preset
from .schedules import DeferredSchedule, NormalizerMode, WeightScheme

__all__ = [
    "SampledFunction",
    "OperatorSequence",
    "Perturbation",
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


@dataclass(frozen=True)
class SampledFunction:
    """Total bounded function on [0,1].

    ``evaluation`` should accept scalars and numpy arrays (plain
    arithmetic does; use numpy ufuncs for exp and abs).  Boundedness is
    checked on an evaluation grid, as is the sup estimate used by the
    series tail bound, so wildly oscillating functions need a caller
    supplied bound instead.
    """

    evaluation: Callable
    label: str = ""

    def __call__(self, y):
        return self.evaluation(y)

    def values(self, ys: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(self.evaluation(ys), dtype=np.float64)
            if out.shape == ys.shape:
                return out
        except Exception:
            pass
        return np.fromiter((float(self.evaluation(float(y))) for y in ys), np.float64, len(ys))


def as_sampled(f, label: str = "") -> SampledFunction:
    if isinstance(f, SampledFunction):
        return f
    return SampledFunction(f, label or getattr(f, "__name__", "f"))


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
            raise RuntimeError(
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
    if t_end == 0:
        return np.array([(1.0 - y) ** (m + 1)])
    ts = np.arange(1, t_end + 1, dtype=np.float64)
    log_c = np.empty(t_end + 1)
    log_c[0] = (m + 1) * math.log1p(-y)
    np.cumsum(np.log(y * (m + ts) / ts), out=log_c[1:])
    log_c[1:] += log_c[0]
    return np.exp(log_c)


def mkz_apply(f, m: int, y: float, tail_tol: float = 1e-10) -> float:
    """Evaluate the base operator at one point by certified truncation.

    y = 1 returns f(1), the operator's limit there.  The truncation
    error is below tail_tol in absolute value (using the grid-estimated
    sup of |f|).
    """
    fn = as_sampled(f)
    if m < 1:
        raise ValueError(f"operator index must be >= 1, got {m}")
    if tail_tol <= 0.0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol}")
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"evaluation point must lie in [0, 1], got {y}")
    if y == 0.0 or y == 1.0:
        return float(fn(float(y)))
    sup = max(_sup_abs(fn), 1e-300)
    t_end = _required_length(m, y, math.log(tail_tol) - math.log(sup))
    c = _coefficients(m, y, t_end)
    ts = np.arange(t_end + 1, dtype=np.float64)
    return float(np.dot(fn.values(ts / (ts + m)), c))


def _mkz_table(
    fns: Sequence[SampledFunction], m: int, ys: np.ndarray, tail_tol: float
) -> np.ndarray:
    """M_m(f_j, y_i) for all functions and grid points, sharing the series work."""
    sups = [max(_sup_abs(fn), 1e-300) for fn in fns]
    log_budgets = [math.log(tail_tol) - math.log(s) for s in sups]
    log_budget = min(log_budgets)
    interior = [(i, float(y)) for i, y in enumerate(ys) if 0.0 < y < 1.0]
    lengths = {i: _required_length(m, y, log_budget) for i, y in interior}
    t_max = max(lengths.values(), default=0)

    ts = np.arange(1, t_max + 1, dtype=np.float64)
    log_fac = np.empty(t_max + 1)
    log_fac[0] = 0.0
    np.cumsum(np.log((m + ts) / ts), out=log_fac[1:])
    ts_full = np.arange(t_max + 1, dtype=np.float64)
    u = ts_full / (ts_full + m)
    f_vals = [fn.values(u) for fn in fns]

    out = np.empty((len(fns), len(ys)))
    for i, y in enumerate(np.asarray(ys, dtype=np.float64)):
        if y == 0.0 or y == 1.0:
            out[:, i] = [float(fn(float(y))) for fn in fns]
        else:
            t_end = lengths[i]
            lc = (m + 1) * math.log1p(-y) + ts_full[: t_end + 1] * math.log(y)
            lc += log_fac[: t_end + 1]
            c = np.exp(lc)
            for j in range(len(fns)):
                out[j, i] = float(np.dot(f_vals[j][: t_end + 1], c))
    return out


# ---------------------------------------------------------------------------
# Lifted operators


class Perturbation(Enum):
    """Multiplicative lift applied on top of the base operator."""

    NONE = "none"
    NULL_SET = "nullset"
    CDF_FACTOR = "cdffactor"


@lru_cache(maxsize=1)
def _example2_limit_law() -> tuple[tuple[float, float], ...]:
    return tuple(model_preset("example2").model.limit_atoms())


@dataclass(frozen=True)
class OperatorSequence:
    """Indexed family of positive linear operators on sampled functions.

    ``batch(n, fns, ys)`` tabulates the n-th operator (rows: functions,
    columns: grid points); one point of the base operator is ``mkz_apply``.
    """

    label: str
    batch: Callable[[int, Sequence[SampledFunction], np.ndarray], np.ndarray]


def lifted_operator(perturbation: Perturbation, tail_tol: float = 1e-10) -> OperatorSequence:
    """The MKZ operator sequence times the perturbation's factor at (n, y)."""
    if not tail_tol > 0.0:  # NaN fails too
        raise ValueError(f"tail_tol must be positive, got {tail_tol}")

    def batch(n: int, fns: Sequence[SampledFunction], ys: np.ndarray) -> np.ndarray:
        table = _mkz_table(fns, n, ys, tail_tol)
        if perturbation is Perturbation.NONE:
            return table
        if perturbation is Perturbation.NULL_SET:
            return table * (2.0 if math.isqrt(n) ** 2 == n else 1.0)
        # 1 + F(y) for the limit law F, summed as rvmodel.cdf sums it.
        law = _example2_limit_law()
        factor = [1.0 + math.fsum(p for v, p in law if v <= y) for y in map(float, ys)]
        return table * np.array(factor)

    label = "mkz" if perturbation is Perturbation.NONE else f"mkz+{perturbation.value}"
    return OperatorSequence(label, batch)


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

    The tolerance default differs from the density module's: at the
    checker's default horizon of 200 the perfect-square index set still
    has tail densities near 0.045, so certifying statistical nullity of
    that set needs a tolerance above it.
    """

    horizon: int = 200
    eps: float = 0.5
    grid_points: int = 65
    tail_tol: float = 1e-8
    tolerance: float = 0.05
    tail_fraction: float = 0.2
    mode: NormalizerMode = NormalizerMode.REGULAR

    def __post_init__(self) -> None:
        for name in ("eps", "tail_tol"):
            if not getattr(self, name) > 0.0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
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
    mode_tag: str
    operator: str
    grid_points: int
    horizon: int
    eps: float
    normalizer_mode: NormalizerMode
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def all_conditions_converge(self) -> bool:
        from .density import Verdict  # noqa: PLC0415

        return all(v.verdict is Verdict.CONVERGES for v in self.conditions.values())

    def sup_trace(self, label: str) -> np.ndarray:
        verdict = self.conditions.get(label) or self.conclusions[label]
        return verdict.extras["levels"]

    def to_json_dict(self) -> dict[str, object]:
        return {
            "operator": self.operator,
            "mode": self.mode_tag,
            "grid_points": self.grid_points,
            "horizon": self.horizon,
            "eps": self.eps,
            "normalizer_mode": self.normalizer_mode.value,
            "conditions": {k: v.summary() for k, v in self.conditions.items()},
            "conclusions": {k: v.summary() for k, v in self.conclusions.items()},
            "all_conditions_converge": self.all_conditions_converge,
            "notes": list(self.notes),
        }

    def table(self) -> str:
        lines = [f"{'function':10} {'role':10} {'verdict':13} tail_max"]
        for label, v in self.conditions.items():
            lines.append(f"{label:10} {'condition':10} {v.verdict.value:13} {v.tail_max!r}")
        for label, v in self.conclusions.items():
            lines.append(f"{label:10} {'conclusion':10} {v.verdict.value:13} {v.tail_max!r}")
        return "\n".join(lines)


def korovkin_check(
    ops: OperatorSequence,
    mode_tag: str,
    f_list: Sequence[SampledFunction],
    schedule: DeferredSchedule,
    weights: WeightScheme,
    cfg: KorovkinConfig,
) -> KorovkinReport:
    """Run the three-condition check and the conclusion check for each f.

    Forms s_n = sup over the grid of |ops.batch(n, f, y) - f(y)| for the test
    triple and for each caller function, then applies the statistical
    limit detector to every s sequence.  All stochastic modes agree on
    deterministic sequences, so mode_tag is provenance only.
    """
    if not f_list:
        raise ValueError("korovkin_check needs at least one conclusion function")
    if mode_tag not in ("dnp", "dnm", "dndc"):
        raise ValueError(f"unknown mode tag '{mode_tag}'")
    density_cfg = cfg.density()
    n_max = counting_bound(schedule, weights, density_cfg)

    grid = np.linspace(0.0, 1.0, cfg.grid_points)
    fns = [ONE, IDENTITY, SQUARE] + [as_sampled(f) for f in f_list]
    targets = np.stack([fn.values(grid) for fn in fns])
    sup_dev = np.empty((len(fns), n_max))
    for n in range(1, n_max + 1):
        try:
            table = ops.batch(n, fns, grid)
        except Exception as exc:
            raise RuntimeError(f"operator evaluation failed at n={n}: {exc}") from exc
        sup_dev[:, n - 1] = np.max(np.abs(table - targets), axis=1)

    def run(j: int) -> ConvergenceVerdict:
        return level_density_limit(
            sup_dev[j],
            cfg.eps,
            schedule,
            weights,
            density_cfg,
            extras={"levels": sup_dev[j], "function": fns[j].label},
        )

    conditions = {fns[j].label: run(j) for j in range(3)}
    conclusions = {fns[j].label: run(j) for j in range(3, len(fns))}
    notes = []
    if "cdffactor" in ops.label:
        notes.append(
            "the lift factor 1 + F(y) never falls below 1, so the unit test-function "
            "deviation persists at every index; the verdict reported is the measured one"
        )
    return KorovkinReport(
        conditions,
        conclusions,
        mode_tag,
        ops.label,
        cfg.grid_points,
        cfg.horizon,
        cfg.eps,
        cfg.mode,
        tuple(notes),
    )


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
