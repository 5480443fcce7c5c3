"""Exact model operations, transforms and the Monte Carlo oracle."""

from __future__ import annotations

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnstat.config import ConfigError, parse_model
from dnstat.density import DensityConfig
from dnstat.detectors import DetectorConfig, Verdict, st_dndc, st_dnm, st_dnp
from dnstat.rvmodel import (
    LIMIT,
    MODEL_ZOO,
    LawTable,
    ModelError,
    RVSequenceModel,
    abs_moment,
    cdf,
    combine_independent,
    exceedance_prob,
    limit_cdf,
    map_values,
    model_preset,
    prob_limits_equal,
    sample,
    support_model,
    tabulated_model,
    with_alt_limit,
)

from conftest import REFERENCE_SUPPORTS, brute_cdf, brute_exceedance, brute_moment


# Three atoms share the limit value 0, whose probability 0.1 + 0.2 + 0.3 rounds
# to 0.6000000000000001 when added in order.
DECIMAL_LAW = {1: [(0.0, 0.0, 0.1), (0.0, 0.0, 0.2), (0.0, 0.0, 0.3), (1.0, 1.0, 0.4)]}
MAX = 1.7976931348623157e308


@st.composite
def decimal_laws(draw):
    """Atoms whose limit values repeat, with probabilities c / 10^d that sum to 1 in decimal."""
    digits = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(1, 10**digits - 1), max_size=7, unique=True)))
    bounds = [0, *cuts, 10**digits]
    values = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                           min_size=len(bounds) - 1, max_size=len(bounds) - 1))
    return [(b + i, b, (hi - lo) / 10**digits)
            for i, (b, lo, hi) in enumerate(zip(values, bounds, bounds[1:]))]


@pytest.fixture
def ex1() -> RVSequenceModel:
    return model_preset("example1").model


@pytest.fixture
def ex2() -> RVSequenceModel:
    return model_preset("example2").model


class TestExactOperations:
    def test_exceedance_two_point_model(self, ex1):
        assert exceedance_prob(ex1, 16, 0.5) == 0.25

    def test_exceedance_discordant_pairs(self, ex2):
        for m in (1, 2, 7, 100):
            assert exceedance_prob(ex2, m, 0.5) == 1.0

    def test_exceedance_degenerate(self):
        deg = model_preset("degenerate:3.5").model
        assert exceedance_prob(deg, 9, 0.5) == 0.0

    def test_moment_values(self, ex1):
        assert abs_moment(ex1, 100, 1.0) == 10.0
        assert abs_moment(ex1, 16, 2.0) == 64.0
        assert abs_moment(model_preset("degenerate:2").model, 3, 1.5) == 0.0

    def test_moment_matches_direct_sum(self, ex1):
        for m in (2, 9, 30):
            direct = sum(p * abs(a - b) ** 1.5 for a, b, p in ex1.atoms(m))
            assert abs_moment(ex1, m, 1.5) == pytest.approx(direct, rel=1e-15)

    def test_moment_order_below_one_rejected(self, ex1):
        with pytest.raises(ValueError):
            abs_moment(ex1, 4, 0.5)

    def test_cdf_limit_values(self, ex2):
        assert cdf(ex2, LIMIT, -0.5) == 0.0
        assert cdf(ex2, LIMIT, 0.5) == 0.5
        assert cdf(ex2, LIMIT, 1.5) == 1.0

    def test_cdf_at_index(self, ex1):
        assert cdf(ex1, 25, 0.0) == 0.8

    def test_cdf_below_support(self, ex1, ex2):
        assert cdf(ex1, 7, -3.0) == 0.0
        assert cdf(ex2, 7, -3.0) == 0.0

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda m: exceedance_prob(m, 4, math.nan), "eps must be positive, got nan"),
            (lambda m: abs_moment(m, 4, math.nan), "moment order must be >= 1, got nan"),
            (lambda m: cdf(m, 4, math.nan), "cdf points must not be nan"),
            (lambda m: cdf(m, LIMIT, math.nan), "cdf points must not be nan"),
            (lambda m: limit_cdf(m, np.array([0.5, math.nan])), "cdf points must not be nan"),
        ],
    )
    def test_nan_arguments_rejected(self, ex1, call, match):
        with pytest.raises(ValueError, match=match):
            call(ex1)

    @pytest.mark.parametrize("spec", [*MODEL_ZOO, "decimal"])
    def test_limit_cdf_equals_an_fsum_over_the_limit_atoms(self, spec):
        model = tabulated_model(DECIMAL_LAW) if spec == "decimal" else model_preset(spec).model
        atoms = model.atoms(1)
        values = [v for v, _ in model.limit_atoms()]
        ts = values + [v + d for v in values for d in (-0.25, 0.25)] + [-math.inf, math.inf]
        got = limit_cdf(model, np.array(ts))
        want = [math.fsum(p for _, v, p in atoms if v <= t) for t in ts]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert [cdf(model, LIMIT, t).hex() for t in ts] == [v.hex() for v in want]

    def test_a_sequence_equal_to_its_limit_has_its_limit_law(self):
        # Y_n = Y at every n, with a limit atom of probability 0.1 + 0.2 + 0.3.
        model = tabulated_model(DECIMAL_LAW)
        assert model.limit_atoms() == [(0.0, 0.6), (1.0, 0.4)]
        for t in (-1.0, 0.0, 0.5, 1.0, 2.0):
            assert cdf(model, LIMIT, t) == cdf(model, 1, t)
        bundle = model_preset("example1")
        cfg = DetectorConfig(eps=1e-17, density=DensityConfig(horizon=100))
        for detector in (st_dnp, st_dnm, st_dndc):
            v = detector(model, bundle.schedule, bundle.weights, cfg)
            assert (v.verdict, v.tail_max) == (Verdict.CONVERGES, 0.0)

    @given(law=decimal_laws())
    @settings(max_examples=200, deadline=None)
    def test_limit_law_sums_equal_fsums_over_the_raw_atoms(self, law):
        model = tabulated_model({1: law})
        atoms = model.atoms(1)
        values = sorted({b for _, b, _ in atoms})
        want = [(v, math.fsum(p for _, b, p in atoms if b == v)) for v in values]
        assert [(v.hex(), p.hex()) for v, p in model.limit_atoms()] == [
            (v.hex(), p.hex()) for v, p in want
        ]
        ts = [t for v in values for t in (math.nextafter(v, -math.inf), v,
                                          math.nextafter(v, math.inf))]
        got = limit_cdf(model, np.array(ts)).tolist()
        assert [v.hex() for v in got] == [
            math.fsum(p for _, b, p in atoms if b <= t).hex() for t in ts
        ]

    @given(
        spec=st.sampled_from(MODEL_ZOO),
        m=st.integers(min_value=1, max_value=50),
        t1=st.floats(min_value=-5, max_value=5, allow_nan=False),
        t2=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_cdf_monotone_with_unit_limits(self, spec, m, t1, t2):
        model = model_preset(spec).model
        lo, hi = sorted((t1, t2))
        assert cdf(model, m, lo) <= cdf(model, m, hi)
        assert cdf(model, m, -1e9) == 0.0
        assert cdf(model, m, 1e9) == 1.0


class TestValidation:
    def test_probability_sum_off_rejected(self):
        bad = support_model(lambda m: [(0.0, 0.0, 0.7)], "bad-sum")
        with pytest.raises(ModelError, match="sum"):
            exceedance_prob(bad, 1, 0.5)

    def test_negative_probability_rejected(self):
        bad = support_model(lambda m: [(0.0, 0.0, 1.5), (1.0, 0.0, -0.5)], "neg")
        with pytest.raises(ModelError):
            abs_moment(bad, 1, 1.0)

    def test_empty_support_rejected(self):
        with pytest.raises(ModelError, match="empty"):
            support_model(lambda m: [], "empty").atoms(1)

    @pytest.mark.parametrize(
        "atom", [("0.5", 1.0, 1.0), (0.5, True, 1.0), (0.5, 1.0, np.True_), (0.5, None, 1.0)]
    )
    def test_atom_values_that_are_not_numbers_are_rejected(self, atom):
        bad = next(v for v in atom if isinstance(v, (str, bool, np.bool_)) or v is None)
        message = f"^each atom value of 'api' at m=2 must be a number, got {re.escape(repr(bad))}$"
        with pytest.raises(ModelError, match=message):
            tabulated_model({1: [(0.5, 1.0, 1.0)], 2: [atom]}, "api")
        numpy_atom = (np.float32(0.5), 1, np.int64(1))
        assert tabulated_model({1: [numpy_atom]}).atoms(1) == [(0.5, 1.0, 1.0)]

    def test_model_index_below_one_is_rejected(self, ex1):
        for ask in (lambda: ex1.atoms(0), lambda: exceedance_prob(ex1, 0, 0.5)):
            with pytest.raises(ModelError, match="^model index must be >= 1, got 0$"):
                ask()

    def test_non_finite_value_rejected(self):
        bad = support_model(lambda m: [(math.inf, 0.0, 1.0)], "inf")
        with pytest.raises(ModelError):
            bad.atoms(2)


class TestTransforms:
    def test_map_values_squares_the_pair(self, ex1):
        squared = map_values(ex1, lambda v: v * v)
        atoms = squared.atoms(3)
        assert atoms[0][0] == 9.0
        assert exceedance_prob(squared, 16, 0.5) == 0.25

    def test_combine_independent_point_masses(self):
        a = model_preset("deterministic:1+1/m").model
        b = model_preset("deterministic:2-1/m").model
        prod = combine_independent(a, b, lambda u, v: u * v)
        (ym, y, p), = prod.atoms(4)
        assert p == 1.0
        assert ym == (1 + 0.25) * (2 - 0.25)
        assert y == 2.0

    def test_alt_limit_and_equality_probability(self, ex2):
        shifted = with_alt_limit(ex2, lambda v: v + 1.0)
        assert {b for _, b, _ in shifted.atoms(1)} == {1.0, 2.0}
        assert prob_limits_equal(ex2, lambda v: v) == 1.0
        assert prob_limits_equal(ex2, lambda v: v + 1.0) == 0.0
        # squaring fixes both atoms of a {0, 1} limit law
        assert prob_limits_equal(ex2, lambda v: v * v) == 1.0
        assert prob_limits_equal(ex2, lambda v: max(v, 0.5)) == 0.5

    def test_limit_atoms_merge_and_sort(self, ex2):
        assert model_preset("example2").model.limit_atoms() == [(0.0, 0.5), (1.0, 0.5)]
        assert model_preset("example1").model.limit_atoms() == [(0.0, 1.0)]


class TestSampler:
    def test_reproducible_streams(self, ex1):
        a = sample(ex1, 16, 4096, 99)
        b = sample(ex1, 16, 4096, 99)
        assert np.array_equal(a.values_m, b.values_m)
        assert np.array_equal(a.values_y, b.values_y)

    def test_edges_are_the_exactly_rounded_cumulative_probabilities(self, monkeypatch):
        # Added in order, 0.1 + 0.2 + 0.3 is 0.6000000000000001; the exact sum rounds to 0.6,
        # the value cdf gives.  A 53-bit uniform falls below an edge on that grid with the
        # edge's own probability, so a uniform at cdf(model, 1, i) draws atom i + 1.
        model = tabulated_model({1: [(float(i), 0.0, p) for i, p in enumerate((0.1, 0.2, 0.3, 0.4))]})
        edges = [cdf(model, 1, float(i)) for i in range(3)]
        assert edges[2] == 0.6
        uniforms = [u for e in edges for u in (math.nextafter(e, 0.0), e)]

        class Fixed:
            def __init__(self, bit_generator):
                pass

            def random(self, size):
                return np.array(uniforms[:size])

        monkeypatch.setattr(np.random, "Generator", Fixed)
        assert sample(model, 1, len(uniforms), 0).atom.tolist() == [0, 1, 1, 2, 2, 3]

    def test_batches_compare_and_hash_by_identity(self, ex1):
        a, b = sample(ex1, 16, 100, 1), sample(ex1, 16, 100, 1)
        assert a == a and a != b and hash(a) == hash(a)
        assert len({a, b}) == 2
        assert np.array_equal(a.atom, b.atom)

    def test_streams_differ_across_indices_and_seeds(self, ex1):
        base = sample(ex1, 16, 4096, 99)
        other_m = sample(ex1, 17, 4096, 99)
        other_seed = sample(ex1, 16, 4096, 100)
        assert not np.array_equal(base.values_m, other_m.values_m)
        assert not np.array_equal(base.values_m, other_seed.values_m)

    def test_exceedance_estimate_matches_exact(self, ex1):
        est = sample(ex1, 16, 1_000_000, 2024).exceedance_prob(0.5)
        assert est.stderr == pytest.approx(
            math.sqrt(est.estimate * (1 - est.estimate) / 1_000_000), rel=1e-12
        )
        assert abs(est.estimate - 0.25) <= 4 * est.stderr

    def test_moment_estimate_matches_exact(self, ex1):
        est = sample(ex1, 16, 1_000_000, 7).abs_moment(2.0)
        assert abs(est.estimate - 64.0) <= 4 * est.stderr

    def test_marginal_estimate_two_coordinate_model(self, ex2):
        batch = sample(ex2, 5, 1_000_000, 31)
        est = batch.cdf(5, 0.5)  # P(Y_5 <= 0.5) = P(Y_5 = 0) = 0.5
        assert abs(est.estimate - 0.5) <= 4 * est.stderr
        est_limit = batch.cdf(LIMIT, 0.5)
        assert abs(est_limit.estimate - 0.5) <= 4 * est_limit.stderr

    def test_degenerate_samples_are_exact(self):
        deg = model_preset("degenerate:1.25").model
        batch = sample(deg, 3, 10_000, 5)
        est = batch.exceedance_prob(0.5)
        assert est.estimate == 0.0
        assert est.stderr == 0.0
        assert np.all(batch.values_m == 1.25)

    def test_zero_probability_atoms_never_drawn(self):
        spiked = support_model(
            lambda m: [(0.0, 0.0, 0.5), (99.0, 0.0, 0.0), (1.0, 0.0, 0.5)], "spiked"
        )
        batch = sample(spiked, 2, 100_000, 11)
        assert not np.any(batch.values_m == 99.0)

    def test_count_must_be_positive(self, ex1):
        with pytest.raises(ValueError):
            sample(ex1, 3, 0, 1)


def one_shot_atoms(model: RVSequenceModel, m: int, count: int, seed: int) -> np.ndarray:
    """Atom indices of all count draws mapped at once, as the unchunked sampler did."""
    cum = np.cumsum([p for _, _, p in model.atoms(m)])
    cum[-1] = np.inf
    key = np.array([seed, m], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return np.searchsorted(cum, gen.random(count), side="right")


class TestChunkedSampler:
    """Draws streamed in chunks of 2^16 and kept as atom indices."""

    @pytest.mark.parametrize("count", [1, 2**16 - 1, 2**16, 2**16 + 1, 1_000_000])
    def test_atoms_equal_the_one_shot_draws(self, ex1, count):
        batch = sample(ex1, 16, count, 2024)
        assert batch.atom.dtype == np.uint8
        assert batch.count == count
        assert np.array_equal(batch.atom, one_shot_atoms(ex1, 16, count, 2024))

    def test_more_than_256_atoms_draw_on_a_wider_dtype(self):
        wide = support_model(
            lambda m: [(float(i), 0.0, (i + 1) / 45_150) for i in range(300)], "wide"
        )
        batch = sample(wide, 3, 2**16 + 5, 8)
        assert batch.atom.dtype == np.uint16
        assert np.array_equal(batch.atom, one_shot_atoms(wide, 3, 2**16 + 5, 8))
        assert batch.atom.max() > 255
        assert np.array_equal(batch.values_m, batch.atom.astype(np.float64))

    def test_value_columns_gather_the_drawn_atoms(self, ex2):
        batch = sample(ex2, 5, 1000, 3)
        atoms = np.array(ex2.atoms(5))[one_shot_atoms(ex2, 5, 1000, 3)]
        assert np.array_equal(batch.values_m, atoms[:, 0])
        assert np.array_equal(batch.values_y, atoms[:, 1])

    def test_exceedance_estimate_allocates_no_count_long_float_array(self, ex1):
        sample(ex1, 16, 10, 1).exceedance_prob(0.5)  # imports and caches warm
        tracemalloc.start()
        try:
            sample(ex1, 16, 10**6, 17).exceedance_prob(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("spec,m", [("example1", 16), ("example2", 5)])
    @pytest.mark.parametrize("r", [1.0, 2.0, 2.5])
    def test_moment_per_atom_equals_the_gathered_columns(self, spec, m, r):
        batch = sample(model_preset(spec).model, m, 100_000, 41)
        powers = np.abs(batch.values_m - batch.values_y) ** r
        est = batch.abs_moment(r)
        assert est.estimate == float(np.mean(powers))
        assert est.stderr == float(np.std(powers, ddof=1)) / math.sqrt(batch.count)

    def test_estimates_decide_each_atom_as_the_value_columns_do(self, ex2):
        batch = sample(ex2, 5, 10_000, 12)
        gap = np.abs(batch.values_m - batch.values_y)
        for eps in (0.5, 1.0, 1.5):
            assert batch.exceedance_prob(eps).estimate == np.count_nonzero(gap >= eps) / 10_000
        for t in (-1.0, 0.0, 0.5, 1.0):
            assert batch.cdf(5, t).estimate == np.count_nonzero(batch.values_m <= t) / 10_000
            limit = np.count_nonzero(batch.values_y <= t) / 10_000
            assert batch.cdf(LIMIT, t).estimate == limit

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda b: b.cdf(9, 0.5), "cdf of a batch drawn at m=5 asked at 9"),
            (lambda b: b.cdf("y", 0.5), "cdf of a batch drawn at m=5 asked at 'y'"),
            (lambda b: b.cdf(5, math.nan), "cdf points must not be nan"),
            (lambda b: b.cdf(LIMIT, math.nan), "cdf points must not be nan"),
            (lambda b: b.exceedance_prob(math.nan), "eps must be positive, got nan"),
            (lambda b: b.exceedance_prob(0.0), "eps must be positive, got 0.0"),
            (lambda b: b.abs_moment(math.nan), "moment order must be >= 1, got nan"),
            (lambda b: b.abs_moment(0.5), "moment order must be >= 1, got 0.5"),
        ],
    )
    def test_bad_arguments_are_rejected(self, ex2, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(sample(ex2, 5, 100, 1))


class TestConfigModels:
    def test_tabulated_model_round_trip(self):
        spec = {
            "per_m": {
                "1": [[0.0, 0.0, 1.0]],
                "2": [[1.0, 0.0, 0.25], [0.0, 0.0, 0.75]],
            },
            "description": "table",
        }
        model = parse_model(spec)
        assert exceedance_prob(model, 2, 0.5) == 0.25
        # Indices beyond the table repeat the largest tabulated law.
        assert exceedance_prob(model, 9, 0.5) == 0.25

    def test_preset_specs_parse(self):
        for spec in MODEL_ZOO:
            model = parse_model(spec)
            model.atoms(3)

    def test_unknown_spec_rejected(self):
        from dnstat.config import ConfigError

        with pytest.raises(ConfigError):
            parse_model("nonsense")


@st.composite
def tabulated_models(draw):
    """Random tables: gaps between keys, differing atom counts, one limit law."""
    keys = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True))
    limit_values = draw(
        st.lists(st.integers(-8, 8).map(lambda k: k / 4.0), min_size=1, max_size=3, unique=True)
    )
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(limit_values),
                            max_size=len(limit_values)))
    limit_probs = [w / math.fsum(weights) for w in weights]
    rows = {}
    for key in keys:
        row = []
        for b, q in zip(limit_values, limit_probs):
            parts = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
            offsets = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, -1.0, 0.3]),
                                    min_size=len(parts), max_size=len(parts)))
            row += [(b + d, b, q * w / math.fsum(parts)) for w, d in zip(parts, offsets)]
        rows[key] = row
    return tabulated_model(rows, "random-table")


def zoo_model(spec: str) -> RVSequenceModel:
    return model_preset(spec).model


law_models = st.one_of(
    st.sampled_from(MODEL_ZOO).map(zoo_model),
    tabulated_models(),
    st.tuples(st.sampled_from(MODEL_ZOO), st.sampled_from(MODEL_ZOO)).map(
        lambda pair: combine_independent(zoo_model(pair[0]), zoo_model(pair[1]), lambda u, v: u * v)
    ),
    st.sampled_from(MODEL_ZOO).map(lambda spec: map_values(zoo_model(spec), math.cos)),
    st.sampled_from(MODEL_ZOO).map(
        lambda spec: with_alt_limit(zoo_model(spec), lambda v: v / 3.0 + 0.1)
    ),
)


def same_bits(got: np.ndarray, want: list[float]) -> bool:
    want_arr = np.array(want, dtype=np.float64)
    return got.dtype == np.float64 and got.tobytes() == want_arr.tobytes()


def float_bits(atoms) -> list[tuple[str, ...]]:
    return [tuple(float(v).hex() for v in atom) for atom in atoms]


# Atom values whose gaps and powers pass the float range, and probabilities whose sums do:
# law tables are summed as they are, so levels must be exact whatever the probabilities.
TABLE_VALUES = (0.0, 0.5, -1.0, 3.0, 1e-200, 1e200, -1e200, 1.5e308, -1.5e308)
TABLE_PROBS = (0.1, 0.25, 1 / 3, 0.5, 1e-300, 1e300, MAX)


@st.composite
def law_tables(draw):
    """(LawTable, its laws' live atoms): 1, 2 or up to 70 slots, (0, 0, 0) padding below the
    live atoms of each law, and now and then an index that gathers the laws."""
    slots = draw(st.sampled_from([1, 2]) | st.integers(3, 70))
    atom = st.tuples(st.sampled_from(TABLE_VALUES), st.sampled_from(TABLE_VALUES),
                     st.sampled_from(TABLE_PROBS))
    laws = draw(st.lists(st.lists(atom, min_size=1, max_size=slots), min_size=1, max_size=4))
    cube = np.zeros((slots, len(laws), 3))
    for i, law in enumerate(laws):
        cube[: len(law), i] = law
    index = draw(st.none() | st.lists(st.integers(0, len(laws) - 1), min_size=1, max_size=6))
    table = LawTable(None if index is None else np.array(index), *np.moveaxis(cube, 2, 0))
    return table, laws if index is None else [laws[i] for i in index]


def overflowing_fsum(terms) -> float:
    """``math.fsum``, inf where the sum passes the float range (the terms are never negative)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def power_term(a: float, b: float, p: float, r: float) -> float:
    """p * |a - b|^r by Python's float pow, inf where the power passes the float range."""
    try:
        return p * abs(a - b) ** r
    except OverflowError:
        return math.inf


class TestLawTables:
    """Array levels against plain fsum loops over the atoms, bit for bit."""

    @given(drawn=law_tables(), eps=st.sampled_from([0.25, 1.0, 1e300]), pick=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_each_level_is_an_fsum_over_each_laws_atoms(self, drawn, eps, pick):
        table, laws = drawn

        def fsums(term):
            return [overflowing_fsum([term(*atom) for atom in law]) for law in laws]

        assert same_bits(table.exceedance(eps), fsums(lambda a, b, p: p if abs(a - b) >= eps else 0.0))
        for r in (1.0, 1.5, 2.0, 3.7):
            assert same_bits(table.moment(r), fsums(lambda a, b, p, r=r: power_term(a, b, p, r)))
        atoms = [atom for law in laws for atom in law]
        t = atoms[pick % len(atoms)][0]  # on an atom
        assert same_bits(table.cdf(t), fsums(lambda a, b, p: p if a <= t else 0.0))

    def test_a_level_runs_its_term_once_per_table(self, monkeypatch):
        # 16 laws of 64 atoms each: one term call on the (64, 16) arrays, not one per slot.
        rng = random.Random(0)
        rows = {m: [(b + rng.uniform(-1, 1) / m, b, 1 / 64) for b in range(8) for _ in range(8)]
                for m in range(1, 17)}
        laws, shapes, levels = tabulated_model(rows).laws(20), [], LawTable._levels

        def counted(table, term):
            def spy(a, b, p):
                shapes.append((a.shape, b.shape, p.shape))
                return term(a, b, p)

            return levels(table, spy)

        monkeypatch.setattr(LawTable, "_levels", counted)
        for level in (lambda: laws.exceedance(0.5), lambda: laws.moment(2.0), lambda: laws.cdf(3.0)):
            shapes.clear()
            assert level().shape == (20,)
            assert shapes == [((64, 16),) * 3]

    @pytest.mark.parametrize("spec", MODEL_ZOO)
    def test_preset_atoms_equal_the_reference_supports(self, spec):
        model = model_preset(spec).model
        reference = REFERENCE_SUPPORTS[spec]
        for n in [*range(1, 61), 10**4, 10**6]:
            want = [atom for atom in reference(n) if atom[2] > 0.0]
            assert float_bits(model.atoms(n)) == float_bits(want), (spec, n)

    @given(
        model=law_models,
        k_max=st.integers(1, 60),
        eps=st.sampled_from([0.25, 0.5, 1.0, 1.75]),
        r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        at=st.integers(1, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_levels_equal_the_fsum_oracles(self, model, k_max, eps, r, at):
        laws = model.laws(k_max)
        atoms = [model.atoms(n) for n in range(1, k_max + 1)]
        assert same_bits(laws.exceedance(eps), [brute_exceedance(law, eps) for law in atoms])
        assert same_bits(laws.moment(r), [brute_moment(law, r) for law in atoms])
        # Evaluation points on, just below and just above the atoms of some law.
        values = {a for a, _, _ in model.atoms(min(at, k_max))}
        points = {t for v in values for t in (v, math.nextafter(v, -math.inf),
                                               math.nextafter(v, math.inf))}
        for t in sorted(points) + [-1e9, 1e9]:
            assert same_bits(laws.cdf(t), [brute_cdf(law, t) for law in atoms])
        # The one-index views agree with the same oracles.
        assert exceedance_prob(model, at, eps) == brute_exceedance(model.atoms(at), eps)
        assert abs_moment(model, at, r) == brute_moment(model.atoms(at), r)

    def test_tabulated_law_index_follows_the_table(self):
        rows = {2: [(0.0, 0.0, 1.0)], 5: [(1.0, 0.0, 0.5), (0.0, 0.0, 0.5)]}
        laws = tabulated_model(rows).laws(7)
        # m = 2 has its row; 1, 3, 4 and past the table use the top row, 5.
        assert laws.index.tolist() == [1, 0, 1, 1, 1, 1, 1]
        assert laws.exceedance(0.5).tolist() == [0.5, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5]

    def test_keys_past_int64_are_looked_up(self):
        # Indices are int64; a key beyond that range is the top row but matches no index.
        rows = {1: [(0.0, 0.0, 1.0)], 10**20: [(1.0, 0.0, 0.5), (0.0, 0.0, 0.5)]}
        assert tabulated_model(rows).laws(3).index.tolist() == [0, 1, 1]

    def test_each_distinct_law_is_checked_once(self):
        calls = []

        def support(m):
            calls.append(m)
            return [(1.0, 0.0, 0.5), (0.0, 0.0, 0.5)] if m % 2 else [(0.0, 0.0, 1.0)]

        laws = support_model(support, "alternating").laws(9)
        assert calls == list(range(1, 10))
        assert laws.index.tolist() == [0, 1] * 4 + [0]
        assert laws.a.shape == (2, 2)

    def test_bad_law_is_named_at_its_first_index(self):
        model = support_model(lambda m: [(0.0, 0.0, 1.0 if m < 4 else 0.7)], "bad-from-4")
        with pytest.raises(ModelError, match="sum to 0.7 at m=4"):
            model.laws(10)


class TestTabulatedLimitLaw:
    def test_row_with_another_limit_law_is_rejected(self):
        # Rows 1 and 3 agree, row 2 has limit 1: the m = 1 and k_max check alone passes it.
        spec = {"per_m": {"1": [[0, 0, 1]], "2": [[1, 1, 1]], "3": [[0, 0, 1]]}}
        with pytest.raises(ConfigError, match=r"limit marginal at m=2 .*m=1"):
            parse_model(spec)

    def test_without_a_row_for_one_the_top_row_is_the_reference(self):
        rows = {2: [(0.0, 0.0, 1.0)], 5: [(0.0, 1.0, 1.0)]}
        with pytest.raises(ModelError, match="at m=2 "):
            tabulated_model(rows)

    def test_probabilities_within_tolerance_pass(self):
        rows = {1: [(0.0, 0.0, 0.5), (1.0, 1.0, 0.5)],
                2: [(0.0, 0.0, 0.5 + 1e-13), (1.0, 1.0, 0.5 - 1e-13)]}
        assert tabulated_model(rows).laws(3).index.tolist() == [0, 1, 1]

    def test_index_below_one_is_rejected(self):
        with pytest.raises(ConfigError, match="indices start at 1"):
            parse_model({"per_m": {"0": [[0, 0, 1]], "1": [[0, 0, 1]]}})


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFloatRange:
    """Moments past the float range and atoms of zero probability."""

    HUGE = [(0.0, 0.0, 0.5), (1e200, 0.0, 0.5)]
    LAW = [(0.0, 0.0, 0.5), (1.0, 0.0, 0.5)]
    # Its gap 3e308 overflows, and its moment term would be 0 * inf = nan.
    ZERO_ATOM = (1.5e308, -1.5e308, 0.0)

    @pytest.mark.parametrize("build", [tabulated_model, support_model])
    def test_a_moment_past_the_float_range_is_inf(self, build):
        model = build({1: self.HUGE}) if build is tabulated_model else build(lambda m: self.HUGE)
        assert abs_moment(model, 1, 1.0) == 5e199
        assert abs_moment(model, 1, 2.0) == math.inf
        assert model.laws(3).moment(2.0).tolist() == [math.inf] * 3

    @pytest.mark.parametrize("build", [tabulated_model, support_model])
    def test_a_zero_probability_atom_leaves_levels_and_verdicts_as_they_are(self, build):
        def model_of(law):
            return build({1: law}) if build is tabulated_model else build(lambda m: law)

        with_zero, without = model_of([*self.LAW, self.ZERO_ATOM]), model_of(self.LAW)
        assert with_zero.atoms(4) == without.atoms(4) == self.LAW
        laws = [model.laws(50) for model in (with_zero, without)]
        for level in (lambda t: t.exceedance(0.5), lambda t: t.moment(2.0),
                      lambda t: t.cdf(0.5), lambda t: t.cdf(-1e308)):
            assert level(laws[0]).tobytes() == level(laws[1]).tobytes()
        bundle = model_preset("example1")
        cfg = DetectorConfig(r=2.0, density=DensityConfig(horizon=100))
        for detector in (st_dnp, st_dnm, st_dndc):
            got, want = (detector(model, bundle.schedule, bundle.weights, cfg)
                         for model in (with_zero, without))
            assert (got.verdict, got.tail_max) == (want.verdict, want.tail_max)
            assert got.count.tolist() == want.count.tolist()
        assert st_dnm(without, bundle.schedule, bundle.weights, cfg).verdict is Verdict.DIVERGES

    @pytest.mark.parametrize("build", [tabulated_model, support_model])
    @pytest.mark.parametrize("law", [
        [(MAX, 0.0, 1.0000000000001)],  # the term MAX * p overflows
        [(MAX, 0.0, 0.3), (MAX, 0.0, 0.3), (MAX, 0.0, 0.4000000000001)],  # fsum overflows
        [(MAX, 0.0, 0.5), (MAX, 0.0, 0.5000000000001)],  # one numpy add overflows
        [(MAX, -MAX, 1e-300), (MAX, 0.0, 0.5), (MAX, 0.0, 0.5000000000001)],  # and an inf term
    ])
    def test_a_law_sum_past_the_float_range_is_inf(self, build, law):
        model = build({1: law}) if build is tabulated_model else build(lambda m: law)
        assert abs_moment(model, 1, 1.0) == math.inf
        assert model.laws(3).moment(1.0).tolist() == [math.inf] * 3

    @pytest.mark.parametrize("law", [[(0.0, 0.0, 1e308), (1.0, 0.0, 1e308)],
                                     [(0.0, 0.0, 1e308)] * 2 + [(1.0, 0.0, -1e308)]])
    def test_probabilities_past_the_float_range_are_a_model_error(self, law):
        # The second total is 1e308 exactly, though its partial sums pass the range.
        with pytest.raises(ModelError, match=r"probabilities sum to (inf|1e\+308) at m=1$"):
            tabulated_model({1: law})
        with pytest.raises(ModelError, match=r"probabilities sum to (inf|1e\+308) at m=1$"):
            support_model(lambda m: law).atoms(1)

    def test_a_sampled_moment_past_the_float_range_is_inf(self):
        model = tabulated_model({1: self.HUGE})
        batch = sample(model, 1, 1000, 1)
        r1, r2 = batch.abs_moment(1.0), batch.abs_moment(2.0)
        # The exact second moment passes the range; the spread of the first powers does not,
        # though their squared deviations from the mean do.
        n, k = batch.count, int(np.count_nonzero(batch.atom))
        spread = 1e200 * math.sqrt(k * (n - k) / (n * (n - 1)))
        assert r1.estimate == float(np.mean(batch.values_m))
        assert r1.stderr == pytest.approx(spread / math.sqrt(n), rel=1e-12)
        assert (r2.estimate, r2.stderr) == (math.inf, math.inf)
        # One draw has no spread, of the huge atom's power too.
        seed = next(s for s in range(100) if sample(model, 1, 1, s).atom[0] == 1)
        one = sample(model, 1, 1, seed).abs_moment(2.0)
        assert (one.estimate, one.stderr) == (math.inf, 0.0)
