"""Exactly computable random-variable sequence models.

A model is the joint law of the pair (Y_m, Y) for every index m, given
as a finite list of (y_m value, y value, probability) atoms.  The joint
form is the primitive on purpose: the two-coordinate counterexample in
the distribution-convergence study has marginals that converge while the
joint does not, and all three detectors need exact joint quantities.

Every probabilistic operation here is an exact finite sum.  A model has
one law source, ``RVSequenceModel.law_table``, which maps an int64 array
of indices to the ``LawTable`` of the laws there: three (atom slot ×
distinct law) arrays a, b and p, plus the law used at each index.
example1, bernoulli_shift and the deterministic forms are closed forms in
numpy; a tabulated model validates its rows when built and binary-searches
its keys; ``support_model``, for a caller's own support, calls it once per
index and validates each distinct law of a call once; a derived model (the
transforms, the detectors' tail pairs) couples its inputs' tables and maps
each live atom of each distinct law once.  The detectors call
``law_table`` on one chunk of indices at a time, up to the last index
counting reads.  An exceedance, moment or distribution-function level is
one array expression over a whole table and one exact sum over its slots,
gathered per n; a tabulated model's tables share their read-only arrays,
so the detectors level its laws once per call.  Every sum of
probabilities is exactly rounded (``math.fsum`` bit for bit, inf past the
float range), since a last-bit change can flip a threshold tie:
``_law_sums`` sums a 2-D array over its rows (levels, the limit CDF over
the atoms, coupled law totals), ``_fsum`` a list (law totals,
limit-marginal probabilities, P(Y = h(Y)), the sampler's inverse-CDF
edges).  |Y_n - Y|^r is Python's float pow (numpy's ``**`` differs in the
last bit for some r), except at r = 1.

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
from functools import partial, reduce
from itertools import groupby
from operator import itemgetter, mul
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
    total = _fsum([p for _, _, p in law])
    if not abs(total - 1.0) <= PROB_TOL:  # NaN fails too
        raise ModelError(f"model '{description}' probabilities sum to {total!r} at m={m}")
    for a, b, p in law:
        if p < 0:
            raise ModelError(f"model '{description}' negative probability at m={m}")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ModelError(f"model '{description}' non-finite value at m={m}")
    return [atom for atom in law if atom[2] > 0.0]


def _fsum(values: Sequence[float]) -> float:
    """``math.fsum``, or where its partial sums pass the float range, the exact sum rounded
    once: ±inf past the range, or the plain sum where a value is not finite."""
    try:
        return math.fsum(values)
    except OverflowError:
        if not all(map(math.isfinite, values)):
            return sum(values)
    # Every float is an integer over a power of two, so one division rounds the exact sum.
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    num = sum(n * (den // d) for n, d in ratios)
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _law_sums(terms: np.ndarray) -> np.ndarray:
    """Column by column, the exactly rounded sum of a 2-D array's rows (inf past the float range,
    where the caller ignores overflow): numpy adds two (an add rounds once), ``_fsum`` more."""
    if len(terms) > 2:
        return np.array([_fsum(column) for column in terms.T.tolist()], dtype=np.float64)
    return np.add(terms[0], terms[1]) if len(terms) == 2 else terms[0]


def _limit_law(law: Sequence[Triple]) -> list[tuple[float, float]]:
    """Limit marginal: each value of Y, sorted, with the ``_fsum`` of its probabilities."""
    by_value = groupby(sorted(law, key=itemgetter(1)), key=itemgetter(1))
    return [(v, _fsum([p for _, _, p in atoms])) for v, atoms in by_value]


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
    return np.array([_pow(v, r) for v in x.ravel().tolist()], dtype=np.float64).reshape(x.shape)


def _pow(v: float, r: float) -> float:
    try:
        return v**r
    except OverflowError:  # the correctly rounded power is past the largest double
        return math.inf


@dataclass(frozen=True, eq=False)
class LawTable:
    """The laws of a model at an array of indices, each distinct law stored once.

    ``a``, ``b`` and ``p`` are float arrays of shape (atom slots, laws):
    entry [j, i] is atom j's y_n value, y value and probability in law i.
    A law with fewer atoms is padded with (0, 0, 0), which adds an exact
    0 to every level, so a level is one expression over the table.  Law
    ``index[i]`` is the one used at the i-th index asked for; ``index``
    is None when every index has a law of its own, law i.
    """

    index: np.ndarray | None
    a: np.ndarray
    b: np.ndarray
    p: np.ndarray

    def law(self, j: int) -> list[Triple]:
        """Law j's (y_n value, y value, probability) atoms of positive probability."""
        return [atom for atom in zip(*(v[:, j].tolist() for v in (self.a, self.b, self.p))) if atom[2] > 0.0]

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
        """``_law_sums`` of term(a, b, p) on the whole table, gathered per index; a term or a
        sum past the float range reads inf, with no warning."""
        with np.errstate(over="ignore"):
            per_law = _law_sums(term(self.a, self.b, self.p))
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
        return table.law(0 if table.index is None else int(table.index[0]))

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
    """Exact P(Y <= t) at each t of ts: ``_law_sums`` over the atoms at m = 1 with y value <= t."""
    if np.isnan(ts).any():
        raise ValueError(f"cdf points must not be nan, got {ts}")
    _, b, p = np.array(model.atoms(1)).T[:, :, np.newaxis]
    return _law_sums(np.where(b <= np.ravel(ts), p, 0.0)).reshape(np.shape(ts))


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
        n, powers = self.count, _power(_gap(self.a_vals, self.b_vals), r)[self.atom]
        with np.errstate(over="ignore"):  # past the float range, both read inf
            est, k = float(np.mean(powers)), math.frexp(float(powers.max()))[1]
            spread = 0.0 if n == 1 else est
            if n > 1 and est < math.inf:  # scaled by 2^-k (exact if normal), squares stay in range
                spread = math.ldexp(float(np.std(np.ldexp(powers, -k, out=powers), ddof=1)), k)
        return EmpiricalEstimate(est, spread / math.sqrt(n), n, self.seed)

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
    a_vals, b_vals, probs = np.array(model.atoms(m)).T
    # Edge i is the exactly rounded total of atoms 0..i, which a 53-bit uniform falls below
    # with just that probability; the top edge is inf.
    cum = np.array([*(_fsum(probs[: i + 1].tolist()) for i in range(len(probs) - 1)), np.inf])
    key = np.array([np.uint64(seed % (1 << 64)), np.uint64(m)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    atom = np.empty(count, dtype=np.min_scalar_type(len(probs) - 1))
    for lo in range(0, count, _SAMPLE_CHUNK):
        hi = min(lo + _SAMPLE_CHUNK, count)
        atom[lo:hi] = np.searchsorted(cum, gen.random(hi - lo), side="right")
    return SampleBatch(atom, a_vals, b_vals, m, seed)


# ---------------------------------------------------------------------------
# Model transforms (pointwise on joint supports)


def _coupled(
    sources: Sequence[Callable[[np.ndarray], LawTable]], values: Callable[..., tuple], description: str
) -> RVSequenceModel:
    """The independent coupling of k >= 1 law sources (a one-index table holds at every index).

    A coupled law's slots are the a-major outer product of its inputs', its p the product of
    theirs in input order.  values maps a live slot's (a_1, b_1, ..., a_k, b_k) to its (y_m, y),
    once per live slot of each distinct coupled law, laws in the order of their first indices.
    ``_checked``'s rules hold each law, so ModelError names the first index of a bad one.
    """

    def law_table(ns: np.ndarray) -> LawTable:
        tables = [source(ns) for source in sources]
        keys = [np.broadcast_to(np.arange(t.p.shape[1]) if t.index is None else t.index, ns.shape)
                for t in tables]
        code = np.ravel_multi_index(keys, [t.p.shape[1] for t in tables])
        first, index = np.arange(len(ns)), None  # codes that strictly increase: law i at index i
        if (np.diff(code) <= 0).any():
            _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
            first, index = np.unique(first[inverse], return_inverse=True)  # laws by their first index
        inputs = [[v[:, key[first]] for v in (t.a, t.b, t.p)] for t, key in zip(tables, keys)]
        shape = [len(q) for _, _, q in inputs]
        at = np.unravel_index(np.arange(math.prod(shape)), shape)  # each slot's input slots, a-major
        p = reduce(mul, [q[i] for (_, _, q), i in zip(inputs, at)])
        law, slot = np.nonzero(p.T > 0.0)  # the live slots, law by law
        args = [v[i[slot], law].tolist() for (a, b, _), i in zip(inputs, at) for v in (a, b)]
        table, mapped = LawTable(index, np.zeros(p.shape), np.zeros(p.shape), p), []
        try:
            for v in zip(*args):
                mapped += values(*v)
        finally:  # index order meets a bad law before a later law whose values fail
            done = len(mapped) // 2
            table.a[slot[:done], law[:done]], table.b[slot[:done], law[:done]] = np.reshape(mapped, (-1, 2)).T
            ok = (abs(_law_sums(p) - 1.0) <= PROB_TOL) & np.isfinite((table.a, table.b)).all((0, 1))
            bad = np.flatnonzero(~ok[: law[done] if done < len(law) else len(first)])
            if len(bad):
                _checked(table.law(bad[0]), description, int(ns[first[bad[0]]]))
        return table

    return RVSequenceModel(law_table, description)


def map_values(
    model: RVSequenceModel,
    f: Callable[[float], float],
    description: str | None = None,
) -> RVSequenceModel:
    """Pushforward model (f(Y_m), f(Y)) with the same atom probabilities."""
    pair = lambda a, b: (float(f(a)), float(f(b)))  # noqa: E731
    return _coupled((model.law_table,), pair, description or f"mapped({model.description})")


def with_alt_limit(
    model: RVSequenceModel,
    h: Callable[[float], float],
    description: str | None = None,
) -> RVSequenceModel:
    """Same Y_m coordinate, limit coordinate replaced by h(Y)."""
    pair = lambda a, b: (a, float(h(b)))  # noqa: E731
    return _coupled((model.law_table,), pair, description or f"altlimit({model.description})")


def prob_limits_equal(model: RVSequenceModel, h: Callable[[float], float]) -> float:
    """Exact P(Y = h(Y)) under the model's limit coordinate."""
    return _fsum([p for _, b, p in model.atoms(1) if b == float(h(b))])


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
    pair = lambda a1, b1, a2, b2: (float(op(a1, a2)), float(op(b1, b2)))  # noqa: E731
    name = description or f"combined({model_a.description},{model_b.description})"
    return _coupled((model_a.law_table, model_b.law_table), pair, name)


# ---------------------------------------------------------------------------
# Built-in models


def _example1_laws(ns: np.ndarray) -> LawTable:
    """Y = 0; Y_n = n with probability 1/sqrt(n), else 0: rows filled in place, no table-size temporary."""
    a, p = np.empty((2, len(ns))), np.empty((2, len(ns)))
    a[0], a[1] = ns, 0.0
    np.subtract(1.0, np.divide(1.0, np.sqrt(a[0]), out=p[0]), out=p[1])
    return LawTable(None, a, np.broadcast_to(0.0, a.shape), p)


def _deterministic_laws(f: Callable[[np.ndarray], np.ndarray], limit: float, ns: np.ndarray) -> LawTable:
    """Point mass at f(n) with constant limit; f maps a float array of indices."""
    a = f(ns.astype(np.float64))[np.newaxis]
    return LawTable(None, a, np.broadcast_to(limit, a.shape), np.broadcast_to(1.0, a.shape))


def _bernoulli_shift_laws(ns: np.ndarray) -> LawTable:
    """Y uniform on {0, 1}; Y_n = Y + 1/n.  A converging random-limit model."""
    shift = 1.0 / ns
    a = np.stack((shift, 1.0 + shift))
    return LawTable(None, a, np.broadcast_to([[0.0], [1.0]], a.shape), np.broadcast_to(0.5, a.shape))


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
        return ModelBundle(RVSequenceModel(_bernoulli_shift_laws, "bernoulli_shift"), cesaro, ones)
    kind, colon, form = spec.partition(":")
    if kind == "deterministic" and form in _DETERMINISTIC_FORMS:
        fn, limit = _DETERMINISTIC_FORMS[form]
        model = RVSequenceModel(partial(_deterministic_laws, fn, limit), f"deterministic({form})")
        return ModelBundle(model, cesaro, ones)
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
