"""Exactly computable random-variable sequence models.

A model is the joint law of the pair (Y_m, Y) for every index m, given
as a finite list of (y_m value, y value, probability) atoms.  The joint
form is the primitive on purpose: the two-coordinate counterexample in
the distribution-convergence study has marginals that converge while the
joint does not, and all three detectors need exact joint quantities.

Every probabilistic operation here is an exact finite sum.  A model has
one law source, ``RVSequenceModel.law_table``, which maps an int64 array
of indices to the ``LawTable`` of the laws there: each distinct law's
atoms once, plus the law used at each index.  example1, bernoulli_shift
and the deterministic forms are closed forms in numpy; a tabulated model
validates its rows when built and binary-searches its keys;
``support_model`` calls a per-index support callable once per index and
validates each distinct law of a call once.  The detectors call
``law_table`` on one chunk of indices at a time, up to the last index
counting reads.  Exceedance, moment and distribution-function levels are
computed once per distinct law of a table and gathered per n; a
tabulated model's tables share their read-only atom arrays, so the
detectors level its laws once per call.  Each level equals the plain
``math.fsum`` over the atoms bit for bit, since a last-bit change can
flip a threshold tie: a single IEEE add is exactly rounded, so laws of
at most two atoms are summed by numpy and wider ones by ``math.fsum``
per law, and |Y_n - Y|^r is Python's float pow (numpy's ``**`` differs
in the last bit for some r), except at r = 1.

``atoms(m)`` (the atoms of positive probability), ``exceedance_prob``,
``abs_moment`` and ``cdf`` are one-index views of the same table;
``cdf(model, LIMIT, t)`` is the one-point view of ``limit_cdf``.  A
seeded Monte Carlo sampler (counter-based, keyed by (seed, m)) provides
the independent empirical oracle the test suite compares against; it
streams its draws in chunks and keeps them as atom indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .schedules import DeferredSchedule, WeightScheme, real_values, schedule_preset, weight_preset

__all__ = [
    "ModelError",
    "RVSequenceModel",
    "support_model",
    "LawTable",
    "EmpiricalEstimate",
    "SampleBatch",
    "LIMIT",
    "exceedance_prob",
    "abs_moment",
    "cdf",
    "limit_cdf",
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
    """The law at index m as float triples of positive probability, after the support checks."""
    where = f"each atom value of '{description}' at m={m}"
    real_values((v for atom in triples for v in atom), where, ModelError)
    law = [(float(a), float(b), float(p)) for a, b, p in triples]
    if not law:
        raise ModelError(f"model '{description}' has empty support at m={m}")
    total = math.fsum(p for _, _, p in law)
    if not abs(total - 1.0) <= PROB_TOL:  # NaN fails too
        raise ModelError(f"model '{description}' probabilities sum to {total!r} at m={m}")
    for a, b, p in law:
        if p < 0:
            raise ModelError(f"model '{description}' negative probability at m={m}")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ModelError(f"model '{description}' non-finite value at m={m}")
    return [atom for atom in law if atom[2] > 0.0]


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
    """|a - b| in one new array, inf where the difference passes the float range."""
    with np.errstate(over="ignore"):
        d = np.subtract(a, b)
    return np.abs(d, out=d)


def _check_eps(eps: float) -> None:
    if not eps > 0.0:  # NaN fails too
        raise ValueError(f"eps must be positive, got {eps}")


def _check_order(r: float) -> None:
    if not r >= 1.0:  # NaN fails too
        raise ValueError(f"moment order must be >= 1, got {r}")


def _check_point(t: float) -> None:
    if math.isnan(t):
        raise ValueError(f"cdf points must not be nan, got {t}")


def _power(x: np.ndarray, r: float) -> np.ndarray:
    """x ** r for x >= 0 by Python's float pow, inf where it overflows; numpy's ``**`` can
    differ in the last bit."""
    if r == 1.0:
        return x
    return np.array([_pow(v, r) for v in x.tolist()], dtype=np.float64)


def _pow(v: float, r: float) -> float:
    try:
        return v**r
    except OverflowError:  # the correctly rounded power is past the largest double
        return math.inf


@dataclass(frozen=True, eq=False)
class LawTable:
    """The laws of a model at an array of indices, each distinct law stored once.

    ``a``, ``b`` and ``p`` hold one array per atom slot j (a 2-D array's
    rows, or separate arrays): atom j's y_n value, y value and
    probability in every distinct law, one entry per law.  A law with
    fewer atoms is padded with (0, 0, 0), which adds an exact 0 to every
    level.  Law ``index[i]`` is the one used at the i-th index asked
    for; ``index`` is None when every index has a law of its own, law i.
    """

    index: np.ndarray | None
    a: Sequence[np.ndarray]
    b: Sequence[np.ndarray]
    p: Sequence[np.ndarray]

    def exceedance(self, eps: float) -> np.ndarray:
        """P(|Y_n - Y| >= eps) at each index."""
        _check_eps(eps)
        return self._levels(lambda a, b, p: np.where(_gap(a, b) >= eps, p, 0.0))

    def moment(self, r: float) -> np.ndarray:
        """E|Y_n - Y|^r at each index."""
        _check_order(r)

        def term(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
            d = _power(_gap(a, b), r)
            d *= p
            return d

        return self._levels(term)

    def cdf(self, t: float) -> np.ndarray:
        """P(Y_n <= t) at each index; atoms at t are included."""
        _check_point(t)
        return self._levels(lambda a, b, p: np.where(a <= t, p, 0.0))

    def _levels(self, term: Callable[..., np.ndarray]) -> np.ndarray:
        """Exactly rounded sum of term(atom) over each law, gathered per index.

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


def _collected_laws(
    support: Callable[[int], Sequence[Sequence[float]]], description: str, ns: np.ndarray
) -> LawTable:
    """LawTable of a support callable: one call per index, one check per distinct law."""
    position: dict[tuple, int] = {}
    laws: list[list[Triple]] = []
    index = []
    for n in ns.tolist():
        key = tuple(map(tuple, support(n)))
        i = position.get(key)
        if i is None:
            i = position[key] = len(laws)
            laws.append(_checked(key, description, n))
        index.append(i)
    return _pack(laws, np.array(index, dtype=np.intp))


@dataclass(frozen=True)
class RVSequenceModel:
    """Finite-support joint law of (Y_m, Y) per index m.

    ``law_table`` maps an int64 array of indices (each >= 1) to the
    ``LawTable`` of the laws at those indices, every law validated.
    """

    law_table: Callable[[np.ndarray], LawTable]
    description: str = ""

    def atoms(self, m: int) -> list[tuple[float, float, float]]:
        """The (y_m value, y value, probability) atoms of positive probability at index m."""
        table = _one_law(self, m)
        j = 0 if table.index is None else int(table.index[0])
        return [
            (float(a[j]), float(b[j]), float(p[j]))
            for a, b, p in zip(table.a, table.b, table.p)
            if p[j] > 0.0
        ]

    def laws(self, k_max: int) -> LawTable:
        """The laws at n = 1..k_max, each distinct law stored once."""
        return self.law_table(np.arange(1, k_max + 1, dtype=np.int64))

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
    if m < 1:
        raise ModelError(f"model index must be >= 1, got {m}")
    return model.law_table(np.array([m], dtype=np.int64))


def support_model(
    support: Callable[[int], Sequence[Sequence[float]]], description: str = ""
) -> RVSequenceModel:
    """Model of support(m), the (y_m value, y value, probability) atoms at index m.

    ModelError names the first index of a bad law.
    """
    return RVSequenceModel(partial(_collected_laws, support, description), description)


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
        return float(limit_cdf(model, t))
    return float(_one_law(model, int(which)).cdf(t)[0])


def limit_cdf(model: RVSequenceModel, ts: float | np.ndarray) -> np.ndarray:
    """Exact P(Y <= t) at each t of ts: one fsum per distinct prefix of the sorted limit atoms."""
    if np.isnan(ts).any():
        raise ValueError(f"cdf points must not be nan, got {ts}")
    law = model.limit_atoms()
    k = np.searchsorted([v for v, _ in law], ts, side="right")
    prefix = {j: math.fsum(p for _, p in law[:j]) for j in set(np.ravel(k).tolist())}
    return np.vectorize(prefix.__getitem__, otypes=[np.float64])(k)


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    stderr: float
    samples: int
    seed: int


# Uniforms drawn per generator call; successive calls continue one stream,
# so a batch's draws do not depend on this size.
_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Joint samples of (Y_m, Y) drawn from one counter-based stream.

    The stream is keyed by (seed, m); a given (seed, m, draw index)
    always yields the same pair, independent of any other stream.  Draws
    are kept as indices into the atoms ``a_vals`` and ``b_vals`` (uint8
    up to 256 atoms), and every estimate decides its event or power once
    per atom and gathers it per draw; ``values_m`` and ``values_y``
    gather the value columns on each access.  Batches compare and hash by
    identity, as their array fields have no single truth value.
    """

    atom: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    m: int
    seed: int

    @property
    def count(self) -> int:
        return len(self.atom)

    @property
    def values_m(self) -> np.ndarray:
        return self.a_vals[self.atom]

    @property
    def values_y(self) -> np.ndarray:
        return self.b_vals[self.atom]

    def _prob(self, hit_atom: np.ndarray) -> EmpiricalEstimate:
        n = self.count
        p_hat = float(np.count_nonzero(hit_atom[self.atom])) / n
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
        return EmpiricalEstimate(p_hat, stderr, n, self.seed)

    def exceedance_prob(self, eps: float) -> EmpiricalEstimate:
        _check_eps(eps)
        return self._prob(_gap(self.a_vals, self.b_vals) >= eps)

    def abs_moment(self, r: float) -> EmpiricalEstimate:
        _check_order(r)
        powers = (_gap(self.a_vals, self.b_vals) ** r)[self.atom]
        est = float(np.mean(powers))
        spread = float(np.std(powers, ddof=1)) if self.count > 1 else 0.0
        return EmpiricalEstimate(est, spread / math.sqrt(self.count), self.count, self.seed)

    def cdf(self, which: int | str, t: float) -> EmpiricalEstimate:
        """P(Y_m <= t) for which = m, or P(Y <= t) for which = LIMIT."""
        if which != LIMIT and which != self.m:
            raise ValueError(f"cdf of a batch drawn at m={self.m} asked at {which!r}")
        _check_point(t)
        return self._prob((self.b_vals if which == LIMIT else self.a_vals) <= t)


def sample(model: RVSequenceModel, m: int, count: int, seed: int) -> SampleBatch:
    """Draw count iid joint samples by inverse CDF over the finite support.

    The uniforms are drawn and mapped to atom indices in chunks, so no
    count-long float or int64 array is formed.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    triples = model.atoms(m)
    a_vals = np.asarray([a for a, _, _ in triples])
    b_vals = np.asarray([b for _, b, _ in triples])
    cum = np.cumsum(np.asarray([p for _, _, p in triples]))
    cum[-1] = np.inf  # guard the top edge against rounding in the cumsum
    key = np.array([np.uint64(seed % (1 << 64)), np.uint64(m)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    atom = np.empty(count, dtype=np.min_scalar_type(len(triples) - 1))
    for lo in range(0, count, _SAMPLE_CHUNK):
        hi = min(lo + _SAMPLE_CHUNK, count)
        atom[lo:hi] = np.searchsorted(cum, gen.random(hi - lo), side="right")
    return SampleBatch(atom, a_vals, b_vals, m, seed)


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

    return support_model(support, description or f"mapped({model.description})")


def with_alt_limit(
    model: RVSequenceModel,
    h: Callable[[float], float],
    description: str | None = None,
) -> RVSequenceModel:
    """Same Y_m coordinate, limit coordinate replaced by h(Y)."""

    def support(m: int) -> list[tuple[float, float, float]]:
        return [(a, float(h(b)), p) for a, b, p in model.atoms(m)]

    return support_model(support, description or f"altlimit({model.description})")


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
    return support_model(support, name)


# ---------------------------------------------------------------------------
# Built-in models


def _example1_laws(ns: np.ndarray) -> LawTable:
    n = ns.astype(np.float64)
    p = 1.0 / np.sqrt(n)
    zero = np.broadcast_to(0.0, n.shape)
    return LawTable(None, (n, zero), (zero, zero), (p, 1.0 - p))


def deterministic_model(
    f: Callable[[np.ndarray], np.ndarray], limit: float, label: str
) -> RVSequenceModel:
    """Point mass at f(m) with constant limit; f maps a float array of indices."""
    lim = float(limit)

    def law_table(ns: np.ndarray) -> LawTable:
        a = np.asarray(f(ns.astype(np.float64)), dtype=np.float64)
        b, p = (np.broadcast_to(v, a.shape) for v in (lim, 1.0))
        return LawTable(None, (a,), (b,), (p,))

    return RVSequenceModel(law_table, f"deterministic({label})")


def bernoulli_shift_model() -> RVSequenceModel:
    """Y uniform on {0, 1}; Y_m = Y + 1/m.  A converging random-limit model."""

    def law_table(ns: np.ndarray) -> LawTable:
        shift = 1.0 / ns
        zero, one, half = (np.broadcast_to(v, shift.shape) for v in (0.0, 1.0, 0.5))
        return LawTable(None, (shift, 1.0 + shift), (zero, one), (half, half))

    return RVSequenceModel(law_table, "bernoulli_shift")


def tabulated_model(
    rows: Mapping[int, Sequence[Sequence[float]]], description: str = "tabulated"
) -> RVSequenceModel:
    """Law rows[m] at each tabulated index m, the largest index's law elsewhere.

    Every row is validated once, here, and its limit marginal must be the
    one at m = 1 (values equal, probabilities within PROB_TOL); otherwise
    ModelError names the row.  Indices are looked up by binary search.
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
    # A key past the int64 range matches no index; clipping keeps the lookup int64.
    lookup = np.array([min(m, 2**63 - 1) for m in keys], dtype=np.int64)
    top_row = len(keys) - 1

    def law_table(ns: np.ndarray) -> LawTable:
        pos = np.minimum(np.searchsorted(lookup, ns), top_row)
        return replace(table, index=np.where(lookup[pos] == ns, pos, top_row))

    return RVSequenceModel(law_table, description)


_DETERMINISTIC_FORMS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], float]] = {
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
        model = RVSequenceModel(_example1_laws, "example1")
        return ModelBundle(model, deferred, ones)
    if spec == "example2":
        model = tabulated_model({1: [(1.0, 0.0, 0.5), (0.0, 1.0, 0.5)]}, "example2")
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
        model = tabulated_model({1: [(value, value, 1.0)]}, f"degenerate({value!r})")
        return ModelBundle(model, cesaro, ones)
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
