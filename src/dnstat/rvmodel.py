"""Exactly computable random-variable sequence models.

A model is the joint law of the pair (Y_m, Y) for every index m, given
as a finite list of (y_m value, y value, probability) atoms.  The joint
form is the primitive on purpose: the two-coordinate counterexample in
the distribution-convergence study has marginals that converge while the
joint does not, and all three detectors need exact joint quantities.

Every probabilistic operation here is an exact finite sum.  The
detectors read a model through its array view, ``RVSequenceModel.laws``:
the index of the law used at each n = 1..k_max plus each distinct law's
atoms, validated once per law.  A tabulated model validates its rows
when it is built and reads the index off its table; example1,
bernoulli_shift and the deterministic forms have closed forms in numpy
(valid by construction); any other support callable is called once per
n and its distinct laws collected.  Exceedance, moment and
distribution-function levels are computed once per distinct law and
gathered per n.  Each level equals the plain ``math.fsum`` over the
atoms bit for bit, since a last-bit change can flip a threshold tie: a
single IEEE add is exactly rounded, so laws of at most two atoms are
summed by numpy and wider ones by ``math.fsum`` per law, and
|Y_n - Y|^r is Python's float pow (numpy's ``**`` differs in the last
bit for some r), except at r = 1.

``atoms(m)``, ``exceedance_prob``, ``abs_moment`` and ``cdf`` are
one-index views.  A seeded Monte Carlo sampler (counter-based, keyed by
(seed, m)) provides the independent empirical oracle the test suite
compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .schedules import DeferredSchedule, WeightScheme, schedule_preset, weight_preset

__all__ = [
    "ModelError",
    "RVSequenceModel",
    "LawTable",
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
    "tabulated_model",
    "model_preset",
    "ModelBundle",
    "MODEL_ZOO",
]

PROB_TOL = 1e-12

# Sentinel for the limit law in cdf queries.
LIMIT = "limit"

Triple = tuple[float, float, float]


class ModelError(ValueError):
    """The model's support failed validation at some index."""


def _checked(triples: Sequence[Sequence[float]], description: str, m: int) -> list[Triple]:
    """The law at index m as float triples, after the support checks."""
    law = [(float(a), float(b), float(p)) for a, b, p in triples]
    if not law:
        raise ModelError(f"model '{description}' has empty support at m={m}")
    total = math.fsum(p for _, _, p in law)
    if abs(total - 1.0) > PROB_TOL:
        raise ModelError(f"model '{description}' probabilities sum to {total!r} at m={m}")
    for a, b, p in law:
        if p < 0:
            raise ModelError(f"model '{description}' negative probability at m={m}")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ModelError(f"model '{description}' non-finite value at m={m}")
    return law


def _limit_law(law: Sequence[Triple]) -> list[tuple[float, float]]:
    """Marginal law of the limit coordinate Y, merged and sorted."""
    merged: dict[float, float] = {}
    for _, b, p in law:
        merged[b] = merged.get(b, 0.0) + p
    return sorted((v, p) for v, p in merged.items() if p > 0.0)


def _check_limit_law(
    description: str, m: int, here: list[tuple[float, float]], first: list[tuple[float, float]]
) -> None:
    """Raise ModelError unless the limit marginal at m (here) is the one at m = 1 (first)."""
    same_values = [v for v, _ in first] == [v for v, _ in here]
    if not same_values or any(abs(p - q) > PROB_TOL for (_, p), (_, q) in zip(first, here)):
        raise ModelError(
            f"model '{description}' has a limit marginal at m={m} that differs "
            f"from the one at m=1: {here!r} vs {first!r}; the limit law must not depend on m"
        )


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| in one new array."""
    d = np.subtract(a, b)
    return np.abs(d, out=d)


def _power(x: np.ndarray, r: float) -> np.ndarray:
    """x ** r by Python's float pow; numpy's ``**`` can differ in the last bit."""
    if r == 1.0:
        return x
    return np.array([v**r for v in x.tolist()], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class LawTable:
    """The laws of a model at n = 1..k, each distinct law stored once.

    ``a``, ``b`` and ``p`` hold one array per atom slot j (a 2-D array's
    rows, or separate arrays): atom j's y_n value, y value and
    probability in every distinct law, one entry per law.  A law with
    fewer atoms is padded with (0, 0, 0), which adds an exact 0 to every
    level.  Law ``index[n - 1]`` is the one used at n; ``index`` is None
    when every n has a law of its own, law n - 1.
    """

    index: np.ndarray | None
    a: Sequence[np.ndarray]
    b: Sequence[np.ndarray]
    p: Sequence[np.ndarray]

    def exceedance(self, eps: float) -> np.ndarray:
        """P(|Y_n - Y| >= eps) for n = 1..k."""
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        return self._levels(lambda a, b, p: np.where(_gap(a, b) >= eps, p, 0.0))

    def moment(self, r: float) -> np.ndarray:
        """E|Y_n - Y|^r for n = 1..k."""
        if r < 1.0:
            raise ValueError(f"moment order must be >= 1, got {r}")

        def term(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
            d = _power(_gap(a, b), r)
            d *= p
            return d

        return self._levels(term)

    def cdf(self, t: float) -> np.ndarray:
        """P(Y_n <= t) for n = 1..k; atoms at t are included."""
        return self._levels(lambda a, b, p: np.where(a <= t, p, 0.0))

    def _levels(self, term: Callable[..., np.ndarray]) -> np.ndarray:
        """Exactly rounded sum of term(atom) over each law, gathered per n.

        Works one atom (row) at a time, so no (laws x atoms) temporary
        is formed for laws of at most two atoms.
        """
        terms = (term(a, b, p) for a, b, p in zip(self.a, self.b, self.p))
        if len(self.p) <= 2:
            # A single IEEE add is exactly rounded, as fsum is.
            per_law = next(terms)
            for t in terms:
                per_law += t
        else:
            columns = [t.tolist() for t in terms]
            per_law = np.array([math.fsum(law) for law in zip(*columns)], dtype=np.float64)
        return per_law if self.index is None else per_law[self.index]


def _pack(laws: Sequence[Sequence[Triple]], index: np.ndarray | None) -> LawTable:
    """LawTable of validated laws, padded to the widest."""
    cube = np.zeros((max(map(len, laws), default=1), len(laws), 3))
    for i, law in enumerate(laws):
        cube[: len(law), i] = law
    cube.flags.writeable = False  # tables are shared between calls
    return LawTable(index, cube[..., 0], cube[..., 1], cube[..., 2])


def _collected_laws(model: RVSequenceModel, k_max: int) -> LawTable:
    """LawTable of any support callable: one call per n, one check per distinct law."""
    position: dict[tuple, int] = {}
    laws: list[list[Triple]] = []
    index = []
    for n in range(1, k_max + 1):
        key = tuple(map(tuple, model.support(n)))
        i = position.get(key)
        if i is None:
            i = position[key] = len(laws)
            laws.append(_checked(key, model.description, n))
        index.append(i)
    return _pack(laws, np.array(index, dtype=np.intp))


@dataclass(frozen=True)
class RVSequenceModel:
    """Finite-support joint law of (Y_m, Y) per index m.

    ``law_table``, when set, builds the array view ``laws(k_max)``
    directly (closed forms, tables); otherwise ``support`` is called once
    per index.
    """

    support: Callable[[int], Sequence[tuple[float, float, float]]]
    description: str = ""
    law_table: Callable[[int], LawTable] | None = field(default=None, repr=False, compare=False)

    def atoms(self, m: int) -> list[tuple[float, float, float]]:
        """Validated support triples at index m."""
        if m < 1:
            raise ModelError(f"model index must be >= 1, got {m}")
        return _checked(self.support(m), self.description, m)

    def laws(self, k_max: int) -> LawTable:
        """Array view of the laws at n = 1..k_max, each distinct law validated once."""
        if self.law_table is not None:
            return self.law_table(k_max)
        return _collected_laws(self, k_max)

    def limit_atoms(self, m: int = 1) -> list[tuple[float, float]]:
        """Marginal law of the limit coordinate Y at index m, merged and sorted.

        The limit marginal must not depend on m for a well-formed model;
        it is read off at m = 1, and ``check_limit_law`` tests that.
        """
        return _limit_law(self.atoms(m))

    def check_limit_law(self, m: int) -> None:
        """Raise ModelError unless the limit marginal at m is the one at m = 1.

        Values must be equal and probabilities within PROB_TOL.
        """
        first = self.limit_atoms(1)
        _check_limit_law(self.description, m, self.limit_atoms(m), first)


def _one_law(model: RVSequenceModel, m: int) -> LawTable:
    return _pack([model.atoms(m)], None)


def exceedance_prob(model: RVSequenceModel, m: int, eps: float) -> float:
    """Exact P(|Y_m - Y| >= eps)."""
    return float(_one_law(model, m).exceedance(eps)[0])


def abs_moment(model: RVSequenceModel, m: int, r: float) -> float:
    """Exact E|Y_m - Y|^r for r >= 1."""
    return float(_one_law(model, m).moment(r)[0])


def cdf(model: RVSequenceModel, which: int | str, t: float) -> float:
    """Exact P(Y_m <= t) for which = m, or P(Y <= t) for which = LIMIT.

    Right-continuous by construction: atoms at t are included.
    """
    if which == LIMIT:
        return math.fsum(p for v, p in model.limit_atoms() if v <= t)
    return float(_one_law(model, int(which)).cdf(t)[0])


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


def _example1_laws(k_max: int) -> LawTable:
    n = np.arange(1.0, k_max + 1.0)
    p = 1.0 / np.sqrt(n)
    zero = np.broadcast_to(0.0, n.shape)
    return LawTable(None, (n, zero), (zero, zero), (p, 1.0 - p))


def _single_law_model(law: list[Triple], description: str) -> RVSequenceModel:
    """The same law at every index."""

    def law_table(k_max: int) -> LawTable:
        return _pack([_checked(law, description, 1)], np.zeros(k_max, dtype=np.intp))

    return RVSequenceModel(lambda m: law, description, law_table)


def degenerate_model(c: float) -> RVSequenceModel:
    value = float(c)
    return _single_law_model([(value, value, 1.0)], f"degenerate({value!r})")


def deterministic_model(
    f: Callable[[int], float], limit: float, label: str
) -> RVSequenceModel:
    """Point mass at f(m) with constant limit; f also takes an array of indices."""
    lim = float(limit)

    def law_table(k_max: int) -> LawTable:
        a = np.asarray(f(np.arange(1.0, k_max + 1.0)), dtype=np.float64)
        b, p = (np.broadcast_to(v, a.shape) for v in (lim, 1.0))
        return LawTable(None, (a,), (b,), (p,))

    return RVSequenceModel(
        lambda m: [(float(f(m)), lim, 1.0)], f"deterministic({label})", law_table
    )


def bernoulli_shift_model() -> RVSequenceModel:
    """Y uniform on {0, 1}; Y_m = Y + 1/m.  A converging random-limit model."""

    def support(m: int) -> list[tuple[float, float, float]]:
        shift = 1.0 / m
        return [(0.0 + shift, 0.0, 0.5), (1.0 + shift, 1.0, 0.5)]

    def law_table(k_max: int) -> LawTable:
        shift = 1.0 / np.arange(1, k_max + 1)
        zero, one, half = (np.broadcast_to(v, shift.shape) for v in (0.0, 1.0, 0.5))
        return LawTable(None, (shift, 1.0 + shift), (zero, one), (half, half))

    return RVSequenceModel(support, "bernoulli_shift", law_table)


def tabulated_model(
    rows: Mapping[int, Sequence[Sequence[float]]], description: str = "tabulated"
) -> RVSequenceModel:
    """Law rows[m] at each tabulated index m, the largest index's law elsewhere.

    Every row is validated once, here, and its limit marginal must be the
    one at m = 1 (values equal, probabilities within PROB_TOL); otherwise
    ModelError names the row.  The array view reads each n's law off the
    table.
    """
    keys = sorted(rows)
    if keys[0] < 1:
        raise ModelError(f"model '{description}' has a law at m={keys[0]}; indices start at 1")
    laws = {m: _checked(rows[m], description, m) for m in keys}
    top = laws[keys[-1]]
    first = _limit_law(laws.get(1, top))
    for m, law in laws.items():
        _check_limit_law(description, m, _limit_law(law), first)
    table = _pack(list(laws.values()), None)

    def law_table(k_max: int) -> LawTable:
        index = np.full(k_max, len(keys) - 1, dtype=np.intp)
        for i, m in enumerate(keys):
            if m <= k_max:
                index[m - 1] = i
        return replace(table, index=index)

    return RVSequenceModel(lambda m: laws.get(m, top), description, law_table)


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
        model = RVSequenceModel(_example1_support, "example1", _example1_laws)
        return ModelBundle(model, deferred, ones)
    if spec == "example2":
        model = _single_law_model([(1.0, 0.0, 0.5), (0.0, 1.0, 0.5)], "example2")
        return ModelBundle(model, deferred, ones)
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
