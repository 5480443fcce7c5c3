"""Exactly computable random-variable sequence models.

A model is the joint law of the pair (Y_m, Y) for every index m, given
as a finite list of (y_m value, y value, probability) atoms.  The joint
form is the primitive on purpose: the two-coordinate counterexample in
the distribution-convergence study has marginals that converge while the
joint does not, and all three detectors need exact joint quantities.

Every probabilistic operation here is an exact finite sum.  A seeded
Monte Carlo sampler (counter-based, keyed by (seed, m)) provides the
independent empirical oracle the test suite compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .schedules import DeferredSchedule, WeightScheme, schedule_preset, weight_preset

__all__ = [
    "ModelError",
    "RVSequenceModel",
    "EmpiricalEstimate",
    "SampleBatch",
    "LIMIT",
    "exceedance_prob",
    "abs_moment",
    "cdf",
    "sample",
    "map_values",
    "with_alt_limit",
    "prob_limits_equal",
    "combine_independent",
    "model_preset",
    "ModelBundle",
    "MODEL_ZOO",
]

PROB_TOL = 1e-12

# Sentinel for the limit law in cdf queries.
LIMIT = "limit"


class ModelError(ValueError):
    """The model's support failed validation at some index."""


@dataclass(frozen=True)
class RVSequenceModel:
    """Finite-support joint law of (Y_m, Y) per index m."""

    support: Callable[[int], Sequence[tuple[float, float, float]]]
    description: str = ""

    def atoms(self, m: int) -> list[tuple[float, float, float]]:
        """Validated support triples at index m."""
        if m < 1:
            raise ModelError(f"model index must be >= 1, got {m}")
        triples = [(float(a), float(b), float(p)) for a, b, p in self.support(m)]
        if not triples:
            raise ModelError(f"model '{self.description}' has empty support at m={m}")
        total = math.fsum(p for _, _, p in triples)
        if abs(total - 1.0) > PROB_TOL:
            raise ModelError(
                f"model '{self.description}' probabilities sum to {total!r} at m={m}"
            )
        for a, b, p in triples:
            if p < 0:
                raise ModelError(f"model '{self.description}' negative probability at m={m}")
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ModelError(f"model '{self.description}' non-finite value at m={m}")
        return triples

    def limit_atoms(self, m: int = 1) -> list[tuple[float, float]]:
        """Marginal law of the limit coordinate Y at index m, merged and sorted.

        The limit marginal must not depend on m for a well-formed model;
        it is read off at m = 1, and ``check_limit_law`` tests that.
        """
        merged: dict[float, float] = {}
        for _, b, p in self.atoms(m):
            merged[b] = merged.get(b, 0.0) + p
        return sorted((v, p) for v, p in merged.items() if p > 0.0)

    def check_limit_law(self, m: int) -> None:
        """Raise ModelError unless the limit marginal at m is the one at m = 1.

        Values must be equal and probabilities within PROB_TOL.
        """
        first, here = self.limit_atoms(1), self.limit_atoms(m)
        same_values = [v for v, _ in first] == [v for v, _ in here]
        if not same_values or any(abs(p - q) > PROB_TOL for (_, p), (_, q) in zip(first, here)):
            raise ModelError(
                f"model '{self.description}' has a limit marginal at m={m} that differs "
                f"from the one at m=1: {here!r} vs {first!r}; the limit law must not depend on m"
            )


def exceedance_prob(model: RVSequenceModel, m: int, eps: float) -> float:
    """Exact P(|Y_m - Y| >= eps)."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    return math.fsum(p for a, b, p in model.atoms(m) if abs(a - b) >= eps)


def abs_moment(model: RVSequenceModel, m: int, r: float) -> float:
    """Exact E|Y_m - Y|^r for r >= 1."""
    if r < 1.0:
        raise ValueError(f"moment order must be >= 1, got {r}")
    return math.fsum(p * abs(a - b) ** r for a, b, p in model.atoms(m))


def cdf(model: RVSequenceModel, which: int | str, t: float) -> float:
    """Exact P(Y_m <= t) for which = m, or P(Y <= t) for which = LIMIT.

    Right-continuous by construction: atoms at t are included.
    """
    if which == LIMIT:
        return math.fsum(p for v, p in model.limit_atoms() if v <= t)
    return math.fsum(p for a, _, p in model.atoms(int(which)) if a <= t)


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class SampleBatch:
    """Joint samples of (Y_m, Y) drawn from one counter-based stream.

    The stream is keyed by (seed, m); a given (seed, m, draw index)
    always yields the same pair, independent of any other stream.
    """

    values_m: np.ndarray
    values_y: np.ndarray
    m: int
    seed: int

    @property
    def count(self) -> int:
        return len(self.values_m)

    def _prob(self, hits: np.ndarray) -> EmpiricalEstimate:
        n = self.count
        p_hat = float(np.count_nonzero(hits)) / n
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
        return EmpiricalEstimate(p_hat, stderr, n, self.seed)

    def exceedance_prob(self, eps: float) -> EmpiricalEstimate:
        return self._prob(np.abs(self.values_m - self.values_y) >= eps)

    def abs_moment(self, r: float) -> EmpiricalEstimate:
        powers = np.abs(self.values_m - self.values_y) ** r
        est = float(np.mean(powers))
        spread = float(np.std(powers, ddof=1)) if self.count > 1 else 0.0
        return EmpiricalEstimate(est, spread / math.sqrt(self.count), self.count, self.seed)

    def cdf(self, which: int | str, t: float) -> EmpiricalEstimate:
        column = self.values_y if which == LIMIT else self.values_m
        return self._prob(column <= t)


def sample(model: RVSequenceModel, m: int, count: int, seed: int) -> SampleBatch:
    """Draw count iid joint samples by inverse CDF over the finite support."""
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    triples = model.atoms(m)
    a_vals = np.asarray([a for a, _, _ in triples])
    b_vals = np.asarray([b for _, b, _ in triples])
    cum = np.cumsum(np.asarray([p for _, _, p in triples]))
    cum[-1] = np.inf  # guard the top edge against rounding in the cumsum
    key = np.array([np.uint64(seed % (1 << 64)), np.uint64(m)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    idx = np.searchsorted(cum, gen.random(count), side="right")
    return SampleBatch(a_vals[idx], b_vals[idx], m, seed)


# ---------------------------------------------------------------------------
# Model transforms (pointwise on joint supports)


def map_values(
    model: RVSequenceModel,
    f: Callable[[float], float],
    description: str | None = None,
) -> RVSequenceModel:
    """Pushforward model (f(Y_m), f(Y)) with the same atom probabilities."""

    def support(m: int) -> list[tuple[float, float, float]]:
        return [(float(f(a)), float(f(b)), p) for a, b, p in model.atoms(m)]

    return RVSequenceModel(support, description or f"mapped({model.description})")


def with_alt_limit(
    model: RVSequenceModel,
    h: Callable[[float], float],
    description: str | None = None,
) -> RVSequenceModel:
    """Same Y_m coordinate, limit coordinate replaced by h(Y)."""

    def support(m: int) -> list[tuple[float, float, float]]:
        return [(a, float(h(b)), p) for a, b, p in model.atoms(m)]

    return RVSequenceModel(support, description or f"altlimit({model.description})")


def prob_limits_equal(model: RVSequenceModel, h: Callable[[float], float]) -> float:
    """Exact P(Y = h(Y)) under the model's limit coordinate."""
    return math.fsum(p for _, b, p in model.atoms(1) if b == float(h(b)))


def combine_independent(
    model_a: RVSequenceModel,
    model_b: RVSequenceModel,
    op: Callable[[float, float], float],
    description: str | None = None,
) -> RVSequenceModel:
    """Joint model (op(Am, Bm), op(A, B)) under an independent coupling.

    The per-index laws of the two inputs do not determine a joint law;
    independence is the coupling adopted for the algebra-of-limits
    checks.
    """

    def support(m: int) -> list[tuple[float, float, float]]:
        out = []
        for a1, b1, p1 in model_a.atoms(m):
            for a2, b2, p2 in model_b.atoms(m):
                p = p1 * p2
                if p > 0.0:
                    out.append((float(op(a1, a2)), float(op(b1, b2)), p))
        return out

    name = description or f"combined({model_a.description},{model_b.description})"
    return RVSequenceModel(support, name)


# ---------------------------------------------------------------------------
# Built-in models


def _example1_support(m: int) -> list[tuple[float, float, float]]:
    p = 1.0 / math.sqrt(m)
    return [(float(m), 0.0, p), (0.0, 0.0, 1.0 - p)]


def _example2_support(m: int) -> list[tuple[float, float, float]]:
    return [(1.0, 0.0, 0.5), (0.0, 1.0, 0.5)]


def degenerate_model(c: float) -> RVSequenceModel:
    value = float(c)
    return RVSequenceModel(lambda m: [(value, value, 1.0)], f"degenerate({value!r})")


def deterministic_model(
    f: Callable[[int], float], limit: float, label: str
) -> RVSequenceModel:
    """Point mass at f(m) with constant limit."""
    lim = float(limit)
    return RVSequenceModel(lambda m: [(float(f(m)), lim, 1.0)], f"deterministic({label})")


def bernoulli_shift_model() -> RVSequenceModel:
    """Y uniform on {0, 1}; Y_m = Y + 1/m.  A converging random-limit model."""

    def support(m: int) -> list[tuple[float, float, float]]:
        shift = 1.0 / m
        return [(0.0 + shift, 0.0, 0.5), (1.0 + shift, 1.0, 0.5)]

    return RVSequenceModel(support, "bernoulli_shift")


_DETERMINISTIC_FORMS: dict[str, tuple[Callable[[int], float], float]] = {
    "1/m": (lambda m: 1.0 / m, 0.0),
    "1/m^2": (lambda m: 1.0 / (m * m), 0.0),
    "1+1/m": (lambda m: 1.0 + 1.0 / m, 1.0),
    "2-1/m": (lambda m: 2.0 - 1.0 / m, 2.0),
}


@dataclass(frozen=True)
class ModelBundle:
    """A model plus the schedule and weights its reproduction runs use."""

    model: RVSequenceModel
    schedule: DeferredSchedule
    weights: WeightScheme


def model_preset(spec: str) -> ModelBundle:
    """Resolve a model spec string to a bundle.

    Accepted forms: ``example1``, ``example2``, ``bernoulli_shift``,
    ``degenerate:<c>`` and ``deterministic:<form>`` where <form> is one
    of 1/m, 1/m^2, 1+1/m, 2-1/m or a float constant.
    """
    deferred = schedule_preset("example")
    cesaro = schedule_preset("cesaro")
    ones = weight_preset("ones")
    if spec == "example1":
        return ModelBundle(RVSequenceModel(_example1_support, "example1"), deferred, ones)
    if spec == "example2":
        return ModelBundle(RVSequenceModel(_example2_support, "example2"), deferred, ones)
    if spec == "bernoulli_shift":
        return ModelBundle(bernoulli_shift_model(), cesaro, ones)
    kind, colon, form = spec.partition(":")
    if kind == "deterministic" and form in _DETERMINISTIC_FORMS:
        fn, limit = _DETERMINISTIC_FORMS[form]
        return ModelBundle(deterministic_model(fn, limit, form), cesaro, ones)
    if spec == "degenerate" or (colon and kind in ("degenerate", "deterministic")):
        try:
            value = float(form) if colon else 0.0
        except ValueError:
            raise ModelError(f"bad constant in model spec '{spec}'") from None
        return ModelBundle(degenerate_model(value), cesaro, ones)
    raise ModelError(f"unknown model spec '{spec}'")


# Registry used by the property suites; every entry is exactly computable.
MODEL_ZOO: tuple[str, ...] = (
    "example1",
    "example2",
    "degenerate:0",
    "degenerate:2.5",
    "deterministic:1/m",
    "deterministic:1/m^2",
    "deterministic:1+1/m",
    "deterministic:2-1/m",
    "bernoulli_shift",
)
