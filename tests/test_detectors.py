"""Detector verdicts on the built-in models and the theorem property suites."""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest

from dnstat import detectors
from dnstat.config import parse_weights
from dnstat.density import (
    DensityConfig,
    Verdict,
    counting_bound,
    level_density_limit,
)
from dnstat.detectors import (
    DetectorConfig,
    GridError,
    algebra_suite,
    cauchy_index_search,
    continuous_map_check,
    default_grid,
    markov_bound_check,
    st_dndc,
    st_dnm,
    st_dnp,
)
from dnstat.korovkin import KorovkinConfig
from dnstat.rvmodel import (
    MODEL_ZOO,
    LawTable,
    ModelError,
    RVSequenceModel,
    limit_cdf,
    model_preset,
    support_model,
    tabulated_model,
)
from dnstat.schedules import (
    NormalizerMode,
    WeightScheme,
    WeightSeq,
    schedule_preset,
    weight_preset,
)

from conftest import brute_cdf, floor_r, same_columns


def cfg_at(horizon: int, **kw) -> DetectorConfig:
    density = DensityConfig(horizon=horizon)
    return DetectorConfig(density=density, **kw)


def run_bundle(spec: str, detector, cfg: DetectorConfig):
    bundle = model_preset(spec)
    return detector(bundle.model, bundle.schedule, bundle.weights, cfg)


class TestProbabilityDetector:
    def test_example1_converges(self):
        v = run_bundle("example1", st_dnp, cfg_at(2000, eps=0.5, delta=0.5))
        assert v.verdict is Verdict.CONVERGES

    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
    def test_example2_diverges_for_any_delta_below_one(self, delta):
        v = run_bundle("example2", st_dnp, cfg_at(2000, eps=0.5, delta=delta))
        assert v.verdict is Verdict.DIVERGES
        tail = v.ms >= v.config.tail_start()
        assert np.array_equal(v.density[tail], np.floor(v.R[tail]) / v.R[tail])

    def test_degenerate_converges(self):
        v = run_bundle("degenerate:4", st_dnp, cfg_at(500))
        assert v.verdict is Verdict.CONVERGES
        assert v.tail_max == 0.0


class TestMeanDetector:
    def test_example1_diverges_with_unbounded_moments(self):
        cfg = cfg_at(2000, eps=0.5, r=1.0)
        v = run_bundle("example1", st_dnm, cfg)
        assert v.verdict is Verdict.DIVERGES
        bundle = model_preset("example1")
        k_max = int(floor_r(bundle.schedule, bundle.weights, cfg.density).max())
        levels = bundle.model.laws(k_max).moment(1.0)
        # the raw moment sequence the detector thresholds: E|Y_n - Y| = sqrt(n)
        assert levels[3] == 2.0
        assert levels[99] == 10.0

    def test_degenerate_converges(self):
        v = run_bundle("degenerate:0", st_dnm, cfg_at(500, r=2.0))
        assert v.verdict is Verdict.CONVERGES

    def test_vanishing_point_mass_converges(self):
        v = run_bundle("deterministic:1/m", st_dnm, cfg_at(1000, eps=0.5, r=2.0))
        assert v.verdict is Verdict.CONVERGES


class TestDistributionDetector:
    def test_example2_converges_exactly(self):
        v = run_bundle(
            "example2", st_dndc, cfg_at(2000, eps=0.5, grid=(-0.5, 0.25, 0.75, 1.5))
        )
        assert v.verdict is Verdict.CONVERGES
        for point_verdict in v.extras["points"].values():
            assert point_verdict.tail_max == 0.0

    def test_example1_converges_on_a_safe_grid(self):
        v = run_bundle("example1", st_dndc, cfg_at(2000, eps=0.5, grid=(-1.0, 0.5)))
        assert v.verdict is Verdict.CONVERGES

    def test_degenerate_on_grid_avoiding_the_atom(self):
        v = run_bundle("degenerate:2", st_dndc, cfg_at(500, grid=(1.5, 2.5)))
        assert v.verdict is Verdict.CONVERGES

    def test_empty_grid_is_rejected(self):
        with pytest.raises(GridError, match="^distribution detector needs a nonempty grid$"):
            run_bundle("example2", st_dndc, cfg_at(100, grid=()))

    def test_grid_on_an_atom_is_rejected(self):
        with pytest.raises(GridError, match="atom"):
            run_bundle("degenerate:2", st_dndc, cfg_at(500, grid=(2.0,)))

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"eps": math.nan}, "eps must be positive, got nan"),
            ({"eps": -1.0}, "eps must be positive, got -1.0"),
            ({"eps": math.inf}, "eps must be finite, got inf"),
            ({"delta": math.nan}, "delta must be positive, got nan"),
            ({"delta": math.inf}, "delta must be finite, got inf"),
            ({"r": math.nan}, "moment order must be >= 1, got nan"),
            ({"r": 0.5}, "moment order must be >= 1, got 0.5"),
            ({"r": math.inf}, "r must be finite, got inf"),
        ],
    )
    def test_config_values_are_checked(self, kw, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cfg_at(500, **kw)
        if "eps" in kw:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                KorovkinConfig(**kw)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_grid_point_that_is_not_finite_is_rejected(self, t):
        with pytest.raises(ValueError, match="grid points must be finite"):
            cfg_at(500, grid=(t, 0.5))

    def test_default_grids_flank_and_interleave_atoms(self):
        assert default_grid(model_preset("example2").model) == (-0.5, 0.5, 1.5)
        assert default_grid(model_preset("example1").model) == (-0.5, 0.5)
        assert default_grid(model_preset("degenerate:2").model) == (1.5, 2.5)

    @pytest.mark.parametrize(
        "atoms, grid",
        [
            # No double lies between the atoms: the midpoint rounds onto one.
            ((1.0, math.nextafter(1.0, 2.0)), (0.5, 1.5000000000000002)),
            # Half a unit is below half an ulp: both flanks round onto their atoms.
            ((1e17, 2e17), (math.nextafter(1e17, 0.0), 1.5e17, math.nextafter(2e17, math.inf))),
            # a + b overflows: the midpoint is a / 2 + b / 2, not dropped.
            ((1e308, 1.5e308), (9.999999999999998e307, 1.25e308, 1.5000000000000002e308)),
            ((-1.5e308, -1e308), (-1.5000000000000002e308, -1.25e308, -9.999999999999998e307)),
        ],
    )
    def test_default_grid_steps_off_atoms_that_rounding_lands_on(self, atoms, grid):
        model = tabulated_model({1: [(a, a, 0.5) for a in atoms]}, "close-atoms")
        assert default_grid(model) == grid
        assert not set(grid) & set(atoms)
        v = st_dndc(model, schedule_preset("example"), weight_preset("ones"), cfg_at(50))
        assert v.verdict is Verdict.CONVERGES
        assert tuple(v.extras["points"]) == grid


def assert_points_count_brute_gap_rows(model, schedule, weights, cfg):
    """Each dndc point's verdict equals a one-row count of its plain-loop gap row."""
    v = st_dndc(model, schedule, weights, cfg)
    k_max = int(floor_r(schedule, weights, cfg.density).max())
    atoms = [model.atoms(n) for n in range(1, k_max + 1)]
    for t, point in v.extras["points"].items():
        limit = math.fsum(p for _, y, p in model.atoms(1) if y <= t)
        row = np.array([abs(brute_cdf(law, t) - limit) for law in atoms])
        alone = level_density_limit(row, cfg.eps, schedule, weights, cfg.density)
        assert same_columns(point, alone)
        assert point.tail_max == alone.tail_max
    # The overall verdict shows the worst point's columns.
    worst = max(v.extras["points"].values(), key=lambda p: p.tail_max)
    assert v.count is worst.count and v.density is worst.density


class TestDistributionGrid:
    @pytest.mark.parametrize("spec", MODEL_ZOO)
    def test_presets_count_every_point_in_one_pass(self, spec):
        bundle = model_preset(spec)
        # No preset has a limit atom on the grid; 1 + 1e-9 sits next to one.
        cfg = cfg_at(300, eps=0.25, grid=(-0.5, 0.25, 0.5, 1.0 + 1e-9, 2.25))
        assert_points_count_brute_gap_rows(bundle.model, bundle.schedule, bundle.weights, cfg)

    def test_tabulated_model_and_weights_count_window_by_window(self):
        rng = random.Random(3)
        rows = {
            m: [(b + rng.choice([0.0, 0.5, 1.0 / m]), b, 0.125) for b in (0.0, 1.0) for _ in range(4)]
            for m in (1, 2, 3, 7)
        }
        model = tabulated_model(rows, "tab")
        weights = parse_weights({
            "e": [rng.choice([0.5, 1.0, 1.5]) for _ in range(700)],
            "g": [rng.choice([0.5, 1.0, 1.5]) for _ in range(700)],
        })
        density = DensityConfig(horizon=150, mode=NormalizerMode.LITERAL)
        cfg = DetectorConfig(eps=0.125, density=density)
        assert_points_count_brute_gap_rows(model, schedule_preset("example"), weights, cfg)


def clipped_weights() -> WeightScheme:
    """Constant e = 3 and g = 1.25: floor(R_m) passes y_m on the example schedule: top < k_max."""
    e, g = (WeightSeq(lambda n, c=c: c, "c", constant=c) for c in (3.0, 1.25))
    return WeightScheme(e, g, "clipped")


def level_model(name: str):
    """A MODEL_ZOO preset's model, a tabulated model, or a support model of 2- and 3-atom laws."""
    if name == "tabulated":
        law = lambda m: [(1.0 / m, 0.0, 0.25), (2.0 + m, 0.0, 0.25), (1.5, 1.0, 0.5)]  # noqa: E731
        return tabulated_model({m: law(m) for m in (1, 3, 8, 9)}, "tab")
    if name == "support":

        def support(m):
            if m % 5:
                return [(1.0 / m, 0.0, 0.5), (2.0, 1.0, 0.5)]
            return [(1.0 / m, 0.0, 0.25), (3.0 + 1.0 / m, 0.0, 0.25), (2.0, 1.0, 0.5)]

        return support_model(support, "widths")
    return model_preset(name).model


def level_functions(model):
    """Exceedance, moment (by Python's pow) and one CDF gap per default grid point."""
    grid = default_grid(model)
    limit = limit_cdf(model, np.asarray(grid)).tolist()
    gaps = [lambda laws, t=t, f=f: np.abs(laws.cdf(t) - f) for t, f in zip(grid, limit)]
    return [lambda laws: laws.exceedance(0.5), lambda laws: laws.moment(1.5), *gaps]


class TestLevelRows:
    @pytest.mark.parametrize(
        "chunk, top", [(1, 21), (7, 21), (7, 23), (2**13, 2**13), (2**13, 2**13 + 5)]
    )
    @pytest.mark.parametrize("name", [*MODEL_ZOO, "tabulated", "support"])
    def test_chunked_rows_equal_one_shot_rows(self, monkeypatch, name, chunk, top):
        model = level_model(name)
        functions = level_functions(model)
        laws = model.laws(top)
        one_shot = np.array([f(laws) for f in functions])
        monkeypatch.setattr(detectors, "_LEVEL_CHUNK", chunk)
        rows = detectors._level_rows(model, top, *functions)
        assert rows.shape == one_shot.shape
        assert rows.tobytes() == one_shot.tobytes()

    @pytest.mark.parametrize("detector", [st_dnp, st_dnm, st_dndc])
    def test_law_table_is_asked_one_chunk_at_a_time_up_to_top(self, monkeypatch, detector):
        base, calls = model_preset("example1").model, []

        def law_table(ns):
            calls.append(ns.tolist())
            return base.law_table(ns)

        schedule, weights, cfg = schedule_preset("example"), clipped_weights(), cfg_at(60)
        k_max = int(floor_r(schedule, weights, cfg.density).max())
        top = counting_bound(schedule, weights, cfg.density)
        assert top < k_max and top % 6 > 1
        monkeypatch.setattr(detectors, "_LEVEL_CHUNK", 6)
        v = detector(RVSequenceModel(law_table, "recorded"), schedule, weights, cfg)
        assert same_columns(v, detector(base, schedule, weights, cfg))
        chunks = [ns for ns in calls if len(ns) > 1]
        assert [n for ns in chunks for n in ns] == list(range(1, top + 1))
        assert max(map(len, chunks)) == 6
        # The other lookups are the limit law's, at m = 1 and at top, the last law a row reads.
        assert {n for ns in calls if len(ns) == 1 for n in ns} == {1, top}

    @pytest.mark.parametrize("detector", [st_dnp, st_dnm, st_dndc])
    def test_tabulated_laws_are_levelled_once_per_call(self, monkeypatch, detector):
        levelled, levels = [], LawTable._levels

        def recorded(table, term):
            levelled.append(len(table.p[0]))
            return levels(table, term)

        monkeypatch.setattr(LawTable, "_levels", recorded)
        monkeypatch.setattr(detectors, "_LEVEL_CHUNK", 7)
        schedule, weights, cfg = schedule_preset("example"), weight_preset("ones"), cfg_at(20)
        chunks = -(-counting_bound(schedule, weights, cfg.density) // 7)
        for name in ("tabulated", "example1"):
            model = level_model(name)
            rows = len(default_grid(model)) if detector is st_dndc else 1
            levelled.clear()
            detector(model, schedule, weights, cfg)
            # The table's 4 distinct laws once per row; example1's laws once per chunk.
            assert levelled == [4] * rows if name == "tabulated" else len(levelled) == chunks * rows
            assert chunks > 2


class TestLimitLawCheck:
    @pytest.mark.parametrize("detector", [st_dnp, st_dnm, st_dndc])
    def test_limit_marginal_that_depends_on_m_is_rejected(self, detector):
        # Y = m: the limit law at top = 200 is not the one at m = 1.
        model = support_model(lambda m: [(m, m, 1.0)], "y=m")
        cesaro, ones = schedule_preset("cesaro"), weight_preset("ones")
        with pytest.raises(ModelError, match=r"m=200 .*m=1"):
            detector(model, cesaro, ones, cfg_at(200))

    @pytest.mark.parametrize("detector", [st_dnp, st_dnm, st_dndc])
    def test_the_law_is_checked_at_top_the_last_law_a_row_reads(self, detector):
        # Y moves from 0 to 1 past top: no count reads those laws, so the run goes ahead.
        schedule, weights, cfg = schedule_preset("example"), clipped_weights(), cfg_at(60)
        top = counting_bound(schedule, weights, cfg.density)
        assert top < floor_r(schedule, weights, cfg.density).max()
        moved = support_model(lambda m: [(0.0, float(m > top), 1.0)], "moves past top")
        v = detector(moved, schedule, weights, cfg)
        assert same_columns(v, detector(model_preset("degenerate:0").model, schedule, weights, cfg))
        with pytest.raises(ModelError, match=f"m={top + 1} .*m=1"):
            moved.check_limit_law(top + 1)


class TestMarkovBound:
    def test_example1_margin(self):
        check = markov_bound_check(model_preset("example1").model, 16, 1.0, 2.0)
        assert check.ok
        assert check.margin == 63.75
        assert check.exceedance == 0.25
        assert check.bound == 64.0

    def test_degenerate_zero_margin(self):
        check = markov_bound_check(model_preset("degenerate:1").model, 4, 1.0, 1.0)
        assert check.ok
        assert (check.exceedance, check.bound, check.margin) == (0.0, 0.0, 0.0)

    def test_example2_tight_bound(self):
        check = markov_bound_check(model_preset("example2").model, 5, 1.0, 1.0)
        assert check.ok
        assert check.margin == 0.0


class TestAlgebraSuite:
    def test_point_mass_pair_passes_all_assertions(self):
        a = model_preset("deterministic:1+1/m")
        b = model_preset("deterministic:2-1/m")
        cfg = cfg_at(1000, eps=0.5, delta=0.8)
        report = algebra_suite(a.model, b.model, a.schedule, a.weights, cfg)
        assert report.passed
        by_name = {}
        for r in report.results:
            by_name.setdefault(r.name, r)
        assert "target 0.5" in by_name["quotient"].conclusion

    def test_example1_square_converges(self):
        e1 = model_preset("example1")
        b = model_preset("deterministic:2-1/m")
        cfg = cfg_at(1000, eps=0.5, delta=0.8)
        report = algebra_suite(e1.model, b.model, e1.schedule, e1.weights, cfg)
        assert report.passed
        squares = [r for r in report.results if r.name == "square"]
        assert squares[0].conclusion == "converges"

    def test_quotient_with_zero_limit_is_rejected(self):
        a = model_preset("deterministic:1+1/m")
        zero = model_preset("deterministic:1/m")
        cfg = cfg_at(1000, eps=0.5, delta=0.8)
        report = algebra_suite(a.model, zero.model, a.schedule, a.weights, cfg)
        quotient = [r for r in report.results if r.name == "quotient"][0]
        assert quotient.conclusion == "rejected"
        assert "nonzero" in quotient.note

    def test_random_limit_product(self):
        shift = model_preset("bernoulli_shift")
        cfg = cfg_at(1000, eps=0.5, delta=0.8)
        report = algebra_suite(shift.model, shift.model, shift.schedule, shift.weights, cfg)
        product = [r for r in report.results if r.name == "product_random_limits"][0]
        assert product.holds
        assert product.conclusion == "converges"

    def test_report_serializes(self):
        a = model_preset("degenerate:1")
        cfg = cfg_at(200, eps=0.5, delta=0.8)
        report = algebra_suite(a.model, a.model, a.schedule, a.weights, cfg)
        payload = report.to_json_dict()
        assert payload["passed"] is True
        assert len(payload["assertions"]) == 7


class TestContinuousMap:
    def test_identity_map_matches_the_plain_detector(self):
        e1 = model_preset("example1")
        cfg = cfg_at(2000, eps=0.5, delta=0.5)
        direct = st_dnp(e1.model, e1.schedule, e1.weights, cfg)
        mapped = continuous_map_check(e1.model, lambda t: t, e1.schedule, e1.weights, cfg)
        assert direct.verdict is mapped.verdict
        assert np.array_equal(direct.count, mapped.count)

    def test_bounded_reshaping_map(self):
        e1 = model_preset("example1")
        cfg = cfg_at(2000, eps=0.25, delta=0.5)
        v = continuous_map_check(
            e1.model, lambda t: t / (1 + abs(t)), e1.schedule, e1.weights, cfg
        )
        assert v.verdict is Verdict.CONVERGES

    def test_cosine_map(self):
        e1 = model_preset("example1")
        cfg = cfg_at(2000, eps=0.5, delta=0.5)
        v = continuous_map_check(e1.model, math.cos, e1.schedule, e1.weights, cfg)
        assert v.verdict is Verdict.CONVERGES


class TestTailIndexSearch:
    def test_example1_finds_a_small_index(self):
        e1 = model_preset("example1")
        cfg = cfg_at(1000, eps=0.5, delta=0.8)
        assert cauchy_index_search(e1.model, e1.schedule, e1.weights, cfg) == 2

    def test_degenerate_finds_the_first_index(self):
        d = model_preset("degenerate:7")
        cfg = cfg_at(500, eps=0.5, delta=0.5)
        assert cauchy_index_search(d.model, d.schedule, d.weights, cfg) == 1


class TestImplicationChains:
    """Small seeded sweep; the acceptance suite runs the full 100-instance version."""

    def test_mean_implies_probability_and_probability_implies_distribution(self):
        rng = random.Random(7)
        non_vacuous_mp = 0
        non_vacuous_pd = 0
        for _ in range(20):
            spec = rng.choice(MODEL_ZOO)
            bundle = model_preset(spec)
            cfg = cfg_at(
                2000,
                eps=rng.choice([0.25, 0.5]),
                delta=rng.choice([0.25, 0.5]),
                r=rng.choice([1.0, 2.0]),
            )
            vm = st_dnm(bundle.model, bundle.schedule, bundle.weights, cfg)
            vp = st_dnp(bundle.model, bundle.schedule, bundle.weights, cfg)
            vd = st_dndc(bundle.model, bundle.schedule, bundle.weights, cfg)
            if vm.verdict is Verdict.CONVERGES:
                non_vacuous_mp += 1
                assert vp.verdict is Verdict.CONVERGES, spec
            if vp.verdict is Verdict.CONVERGES:
                non_vacuous_pd += 1
                assert vd.verdict is Verdict.CONVERGES, spec
        assert non_vacuous_mp >= 3
        assert non_vacuous_pd >= 3

    def test_counterexample_separation_regressions(self):
        cfg = cfg_at(2000, eps=0.5, delta=0.5, r=1.0)
        e1 = model_preset("example1")
        assert st_dnp(e1.model, e1.schedule, e1.weights, cfg).verdict is Verdict.CONVERGES
        assert st_dnm(e1.model, e1.schedule, e1.weights, cfg).verdict is Verdict.DIVERGES
        e2 = model_preset("example2")
        assert st_dndc(e2.model, e2.schedule, e2.weights, cfg).verdict is Verdict.CONVERGES
        assert st_dnp(e2.model, e2.schedule, e2.weights, cfg).verdict is Verdict.DIVERGES
