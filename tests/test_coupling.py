"""Derived models (transforms, products, tail pairs) against the per-index closure oracles."""

from __future__ import annotations

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnstat import detectors
from dnstat.density import DensityConfig, counting_bound
from dnstat.detectors import (
    DetectorConfig,
    GridError,
    cauchy_index_search,
    st_dndc,
    st_dnm,
    st_dnp,
)
from dnstat.rvmodel import (
    MODEL_ZOO,
    ModelError,
    RVSequenceModel,
    combine_independent,
    map_values,
    model_preset,
    tabulated_model,
    with_alt_limit,
)
from dnstat.schedules import schedule_preset, weight_preset

from conftest import (
    closure_alt_limit,
    closure_combined,
    closure_map_values,
    closure_tail_pair,
    same_columns,
)

DETECTORS = (st_dnp, st_dnm, st_dndc)

# Limit laws of the drawn tables: a point mass, two halves, an atom of probability 1e-200
# (so products of two such atoms underflow to 0), and two atoms whose total is 1 + 8e-13,
# inside PROB_TOL, while a product of two such laws totals about 1 + 1.6e-12, outside it.
LIMIT_LAWS = (
    [(0.0, 1.0)],
    [(0.5, 0.5), (2.0, 0.5)],
    [(2.0, 1e-200), (1.0, 1.0)],
    [(0.0, 0.5 + 4e-13), (1.0, 0.5 + 4e-13)],
)
# y_m values: zero atoms, values whose squares or quotients pass the float range.
VALUES = (0.0, 0.5, -1.0, 1.0, 3.0, 1e200, 1e-200, -2.5)

MAPS = (
    lambda v: v * v,
    lambda v: v + 1.0,
    lambda v: math.inf if v > 2.0 else v,
    lambda v: math.nan if v < 0.0 else -v,
)
OPS = (operator.mul, operator.add, detectors._safe_div)


@st.composite
def small_tables(draw):
    """A tabulated model of a few rows of different widths (padding slots in its table)."""
    limit = draw(st.sampled_from(LIMIT_LAWS))
    rows = {}
    for m in draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True)):
        row = []
        for b, q in limit:
            parts = draw(st.integers(1, 1 if q < 1e-100 else 3))
            row += [(draw(st.sampled_from(VALUES)), b, q / parts)] * parts
        rows[m] = row
    return tabulated_model(rows, "drawn")


models = st.one_of(st.sampled_from(MODEL_ZOO).map(lambda spec: model_preset(spec).model), small_tables())


def outcome(call):
    """call()'s value, or the type and message of the error it raised."""
    try:
        return call()
    except (ModelError, ZeroDivisionError, GridError) as exc:
        return type(exc), str(exc)


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def verdict_bits(verdict) -> tuple:
    columns = (verdict.ms, verdict.R, verdict.count, verdict.density)
    return verdict.verdict, float(verdict.tail_max).hex(), *(np.asarray(c).tobytes() for c in columns)


def assert_same_model(got: RVSequenceModel, want: RVSequenceModel, at: list[int], k_max: int) -> None:
    """Atoms, level rows and detector runs of two models equal bit for bit, errors included."""

    def same(read) -> bool:
        return outcome(lambda: read(got)) == outcome(lambda: read(want))

    def rows(model):
        laws = model.laws(k_max)
        points = (-1.0, 0.0, 0.25, 1.0, 2.0, 4.0, 1e300)
        levels = [laws.exceedance(0.5), laws.moment(1.0), laws.moment(2.0), *(laws.cdf(t) for t in points)]
        return [level.tobytes() for level in levels]

    for m in at:
        assert same(lambda model: [bits(atom) for atom in model.atoms(m)]), m
    assert same(rows)
    bundle = model_preset("example1")
    cfg = DetectorConfig(r=2.0, density=DensityConfig(horizon=12))
    for detector in DETECTORS:
        assert same(lambda model: verdict_bits(detector(model, bundle.schedule, bundle.weights, cfg))), detector


class TestAgainstClosures:
    @given(
        model=models,
        f=st.sampled_from(MAPS),
        at=st.lists(st.integers(1, 60), min_size=1, max_size=4),
        k_max=st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_maps_and_alternative_limits(self, model, f, at, k_max):
        assert_same_model(map_values(model, f), closure_map_values(model, f), at, k_max)
        assert_same_model(with_alt_limit(model, f), closure_alt_limit(model, f), at, k_max)

    @given(
        pair=st.tuples(models, models),
        op=st.sampled_from(OPS),
        at=st.lists(st.integers(1, 60), min_size=1, max_size=4),
        k_max=st.integers(0, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_independent_products(self, pair, op, at, k_max):
        got = combine_independent(*pair, op)
        assert_same_model(got, closure_combined(*pair, op), at, k_max)

    @given(model=models, at=st.lists(st.integers(1, 60), min_size=1, max_size=4), k_max=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_tail_pairs(self, model, at, k_max):
        pairs, run = [], detectors.st_dnp

        def recorded(pair, *args):
            pairs.append(pair)
            return run(pair, *args)

        bundle = model_preset("example1")
        cfg = DetectorConfig(density=DensityConfig(horizon=12))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detectors, "st_dnp", recorded)
            outcome(lambda: cauchy_index_search(model, bundle.schedule, bundle.weights, cfg, a_max=3))
        for a, pair in enumerate(pairs, start=1):
            assert_same_model(pair, closure_tail_pair(model, a), at, k_max)

    def test_products_of_laws_at_the_tolerance_edge_are_rejected(self):
        # Each law totals 1 + 8e-13; the product's total, about 1 + 1.6e-12, is not within 1e-12.
        edge = tabulated_model({1: [(0.0, 0.0, 0.5 + 4e-13), (1.0, 1.0, 0.5 + 4e-13)]}, "edge")
        product = combine_independent(edge, edge, operator.mul)
        with pytest.raises(ModelError, match=r"^model 'combined\(edge,edge\)' probabilities sum to 1\.0000000000016"):
            product.atoms(3)
        assert outcome(lambda: product.laws(5)) == outcome(lambda: closure_combined(edge, edge, operator.mul).laws(5))

    def test_the_first_index_decides_between_a_bad_law_and_a_failing_map(self):
        # 1e200 / 1e-200 is inf at m = 2, and m = 3 divides by a zero atom: whichever index
        # comes first in the call names the error, as the closure's index-by-index build does.
        num = tabulated_model({1: [(1.0, 1.0, 1.0)], 2: [(1e200, 1.0, 1.0)]}, "num")
        den = tabulated_model({1: [(1.0, 1.0, 1.0)], 2: [(1e-200, 1.0, 1.0)], 3: [(0.0, 1.0, 1.0)]}, "den")
        got = combine_independent(num, den, detectors._safe_div)
        want = closure_combined(num, den, detectors._safe_div)
        for ns, error in (([1, 2, 3, 4], ModelError), ([3, 2], ZeroDivisionError), ([1, 3], ZeroDivisionError)):
            ns = np.array(ns, dtype=np.int64)
            results = [outcome(lambda: model.law_table(ns) and None) for model in (got, want)]
            assert results[0] == results[1] and results[0][0] is error, ns

class TestChunksAndCalls:
    def test_a_square_past_one_level_chunk_equals_its_closure(self):
        bundle = model_preset("example1")
        cfg = DetectorConfig(r=2.0, density=DensityConfig(horizon=4200))
        top = counting_bound(bundle.schedule, bundle.weights, cfg.density)
        assert top == 8400 > detectors._LEVEL_CHUNK
        square = lambda v: v * v  # noqa: E731
        got, want = map_values(bundle.model, square), closure_map_values(bundle.model, square)
        for detector in DETECTORS:
            runs = [detector(model, bundle.schedule, bundle.weights, cfg) for model in (got, want)]
            assert verdict_bits(runs[0]) == verdict_bits(runs[1]), detector.__name__
            assert same_columns(*runs)

    @pytest.mark.parametrize("detector", DETECTORS)
    def test_the_map_runs_once_per_live_slot_of_each_distinct_law(self, monkeypatch, detector):
        rows_a = {1: [(0.0, 0.0, 1.0)], 4: [(1.0, 0.0, 0.5), (0.5, 0.0, 0.5)], 9: [(2.0, 0.0, 1.0)]}
        rows_b = {1: [(1.0, 1.0, 0.25), (3.0, 1.0, 0.75)], 6: [(1.0, 1.0, 1.0)]}
        table_a, table_b = tabulated_model(rows_a, "a"), tabulated_model(rows_b, "b")
        example1 = model_preset("example1").model

        def row(rows, n):
            return n if n in rows else max(rows)

        derived = {
            "square": (map_values, (table_a,), lambda ns: [(row(rows_a, n),) for n in ns],
                       lambda key: len(rows_a[key[0]])),
            "product": (combine_independent, (table_a, table_b),
                        lambda ns: [(row(rows_a, n), row(rows_b, n)) for n in ns],
                        lambda key: len(rows_a[key[0]]) * len(rows_b[key[1]])),
            "with example1": (combine_independent, (table_b, example1),
                              lambda ns: [(row(rows_b, n), n) for n in ns],
                              lambda key: len(rows_b[key[0]]) * (1 if key[1] == 1 else 2)),
        }
        inputs = {id(table_a), id(table_b), id(example1)}
        atoms, read = [], RVSequenceModel.atoms

        def recorded_atoms(model, m):
            atoms.append(id(model))
            return read(model, m)

        monkeypatch.setattr(RVSequenceModel, "atoms", recorded_atoms)
        monkeypatch.setattr(detectors, "_LEVEL_CHUNK", 7)
        schedule, weights = schedule_preset("example"), weight_preset("ones")
        cfg = DetectorConfig(density=DensityConfig(horizon=10))
        for build, models, laws_at, live in derived.values():
            calls, asked = [0], []

            def counted(*values):
                calls[0] += 1
                return math.prod(values)

            model = build(*models, counted)
            spy = RVSequenceModel(lambda ns: asked.append(ns.tolist()) or model.law_table(ns), model.description)
            atoms.clear()
            detector(spy, schedule, weights, cfg)
            # f or op runs once per coordinate: twice per live slot of each distinct law of a call.
            assert calls[0] == 2 * sum(live(key) for ns in asked for key in dict.fromkeys(laws_at(ns)))
            assert len(asked) > 3
            assert not inputs & set(atoms)

    def test_laws_of_their_own_at_each_index_are_not_deduplicated(self, monkeypatch):
        # example1 has a law of its own at every index, and the tail pair's fixed side one
        # law, so the coupled codes strictly increase: law i is the one at index i.
        bundle, square = model_preset("example1"), lambda v: v * v
        example1, pairs, run, uniques, unique = bundle.model, [], detectors.st_dnp, [], np.unique

        def recorded(pair, *args):
            pairs.append(pair)
            return run(pair, *args)

        monkeypatch.setattr(np, "unique", lambda *args, **kwargs: uniques.append(args) or unique(*args, **kwargs))
        monkeypatch.setattr(detectors, "st_dnp", recorded)
        cfg = DetectorConfig(eps=0.5, delta=0.8, density=DensityConfig(horizon=12))
        cauchy_index_search(example1, bundle.schedule, bundle.weights, cfg, a_max=3)
        assert len(pairs) == 3
        derived = [
            (map_values(example1, square), closure_map_values(example1, square)),
            (with_alt_limit(example1, square), closure_alt_limit(example1, square)),
            (combine_independent(example1, example1, operator.mul),
             closure_combined(example1, example1, operator.mul)),
            *((pair, closure_tail_pair(example1, a)) for a, pair in enumerate(pairs, start=1)),
        ]
        for got, want in derived:
            assert got.laws(40).index is None
            assert_same_model(got, want, [1, 2, 7, 40], 40)
        assert uniques == []

    def test_the_tail_search_reads_no_atoms_of_its_input(self, monkeypatch):
        bundle, atoms, read = model_preset("example1"), [], RVSequenceModel.atoms

        def recorded_atoms(model, m):
            atoms.append(model)
            return read(model, m)

        monkeypatch.setattr(RVSequenceModel, "atoms", recorded_atoms)
        cfg = DetectorConfig(eps=0.5, delta=0.8, density=DensityConfig(horizon=1000))
        assert cauchy_index_search(bundle.model, bundle.schedule, bundle.weights, cfg) == 2
        assert atoms and not any(model is bundle.model for model in atoms)
