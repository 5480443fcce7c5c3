"""Weighted densities, tail-limit estimation and the real-sequence detector."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dnstat.density import (
    ConvergenceVerdict,
    DensityConfig,
    Verdict,
    counting_bound,
    density_limit,
    dn_stat_limit,
    level_density_limit,
    level_density_limits,
    trace_csv,
    weighted_density,
    window_plan,
)
from dnstat.detectors import DetectorConfig, st_dndc
from dnstat.rvmodel import model_preset
from dnstat.schedules import (
    DegenerateNormalizerError,
    DeferredSchedule,
    Affine,
    NormalizerMode,
    WeightError,
    WeightScheme,
    WeightSeq,
    constant_seq,
    convolution,
    schedule_preset,
    tabulated,
    weight_preset,
)

from conftest import brute_density_count, brute_normalizer, brute_weight, is_square


def squares_pred(m, n):
    if isinstance(n, np.ndarray):
        roots = np.floor(np.sqrt(n.astype(np.float64))).astype(np.int64)
        return roots * roots == n
    return is_square(int(n))


class TestWeightedDensity:
    def test_false_pred(self, cesaro, ones):
        assert weighted_density(lambda m, n: False, cesaro, ones, 10) == 0.0

    def test_true_pred_unit_weights(self, cesaro, ones):
        assert weighted_density(lambda m, n: True, cesaro, ones, 10) == 1.0

    def test_squares_at_r_100(self, cesaro, ones):
        assert weighted_density(squares_pred, cesaro, ones, 100) == 0.10

    def test_degenerate_normalizer_rejected(self, cesaro):
        zeros = WeightScheme(tabulated([0.0] * 40), tabulated([0.0] * 40), label="z")
        with pytest.raises(DegenerateNormalizerError):
            weighted_density(lambda m, n: True, cesaro, zeros, 5)

    @given(m=st.integers(min_value=1, max_value=80), k=st.integers(min_value=2, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_monotone_inclusion_and_complement(self, m, k):
        sched = schedule_preset("example")
        ones = weight_preset("ones")
        pred_a = lambda mm, n: n % (2 * k) == 0  # noqa: E731
        pred_b = lambda mm, n: n % k == 0  # noqa: E731
        da = weighted_density(pred_a, sched, ones, m)
        db = weighted_density(pred_b, sched, ones, m)
        assert da <= db
        # Complement identity holds exactly at the integer-count level.
        ca, r = brute_density_count(pred_a, sched, ones, m)
        cna, _ = brute_density_count(lambda mm, n: not pred_a(mm, n), sched, ones, m)
        assert ca + cna == math.floor(r)
        dna = weighted_density(lambda mm, n: not pred_a(mm, n), sched, ones, m)
        assert da + dna == pytest.approx(math.floor(r) / r, rel=1e-15)

    @given(m=st.integers(min_value=1, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_density_in_unit_interval(self, m):
        sched = schedule_preset("stretch")
        idw = weight_preset("identity")
        d = weighted_density(squares_pred, sched, idw, m)
        assert 0.0 <= d <= 1.0


class TestDensityLimit:
    def test_false_pred_converges_to_zero(self, cesaro, ones):
        v = density_limit(lambda m, n: False, cesaro, ones, DensityConfig(horizon=500))
        assert v.verdict is Verdict.CONVERGES
        assert v.tail_max == 0.0

    def test_squares_converge_at_default_horizon(self, cesaro, ones):
        v = density_limit(squares_pred, cesaro, ones, DensityConfig(horizon=10_000))
        assert v.verdict is Verdict.CONVERGES
        # Exact tail maximum: the tail window starts at m = 8001 where
        # floor(sqrt(8001)) = 89 squares lie at or below the bound.
        assert v.tail_max == 89 / 8001

    def test_evens_diverge_to_one_half(self, cesaro, ones):
        v = density_limit(lambda m, n: n % 2 == 0, cesaro, ones, DensityConfig(horizon=2000))
        assert v.verdict is Verdict.DIVERGES
        assert v.tail_max == pytest.approx(0.5, abs=1e-3)

    def test_finite_modification_keeps_the_verdict(self, cesaro, ones):
        # Changing a predicate on finitely many indices cannot move the
        # limit; at a finite horizon the modified set must stay small
        # against tolerance * R over the tail for the verdict to match.
        cfg = DensityConfig(horizon=10_000)
        base = density_limit(squares_pred, cesaro, ones, cfg)
        dropped = density_limit(
            lambda m, n: squares_pred(m, n) & (n > 20), cesaro, ones, cfg
        )
        added = density_limit(
            lambda m, n: squares_pred(m, n) | (n <= 20), cesaro, ones, cfg
        )
        assert base.verdict is dropped.verdict is added.verdict is Verdict.CONVERGES
        diverging = density_limit(lambda m, n: n % 2 == 0, cesaro, ones, cfg)
        modified = density_limit(
            lambda m, n: (n % 2 == 0) & (n > 20), cesaro, ones, cfg
        )
        assert diverging.verdict is modified.verdict is Verdict.DIVERGES

    def test_oscillating_tail_is_inconclusive(self, cesaro, ones):
        v = density_limit(lambda m, n: m % 2 == 0, cesaro, ones, DensityConfig(horizon=200))
        assert v.verdict is Verdict.INCONCLUSIVE

    def test_trace_is_subsampled_with_dense_tail(self, cesaro, ones):
        cfg = DensityConfig(horizon=10_000)
        v = density_limit(lambda m, n: False, cesaro, ones, cfg)
        ms = [p.m for p in v.trace]
        tail_start = cfg.tail_start()
        tail = [m for m in ms if m >= tail_start]
        assert tail == list(range(tail_start, 10_001))
        assert len(ms) - len(tail) <= 1000
        assert ms[0] == 1

    def test_error_names_the_failing_index(self, cesaro, ones):
        def pred(m, n):
            if m == 37:
                raise RuntimeError("boom")
            return False

        with pytest.raises(RuntimeError, match="m=37"):
            density_limit(pred, cesaro, ones, DensityConfig(horizon=100))

    def test_predicate_error_with_a_two_argument_constructor(self, cesaro, ones):
        class CodedError(Exception):
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")

        def pred(m, n):
            if m == 12:
                raise CodedError(7, "bad index")
            return False

        with pytest.raises(RuntimeError, match="m=12: 7: bad index") as info:
            density_limit(pred, cesaro, ones, DensityConfig(horizon=100))
        assert isinstance(info.value.__cause__, CodedError)

    def test_plan_errors_keep_their_type(self, cesaro):
        zeros = WeightScheme(tabulated([0.0] * 200), tabulated([0.0] * 200), label="z")
        with pytest.raises(DegenerateNormalizerError, match="^degenerate normalizer at m=1:"):
            density_limit(lambda m, n: False, cesaro, zeros, DensityConfig(horizon=100))

    def test_underpowered_horizon_rejected(self):
        with pytest.raises(ValueError, match="underpowered"):
            DensityConfig(horizon=5)

    def test_matches_brute_counts_on_a_small_horizon(self, deferred, ones):
        cfg = DensityConfig(horizon=60, tail_fraction=0.5, tolerance=0.1)
        v = density_limit(squares_pred, deferred, ones, cfg)
        for point in v.trace:
            count, r = brute_density_count(squares_pred, deferred, ones, point.m)
            assert point.count == count
            assert point.normalizer == pytest.approx(r, rel=1e-14)
            assert point.density == count / point.normalizer


class TestLevelEngine:
    def test_levels_callable_and_array_agree(self, cesaro, ones):
        cfg = DensityConfig(horizon=300, tolerance=0.05)
        levels = np.array([1.0 / n for n in range(1, 301)])
        va = level_density_limit(levels, 0.25, cesaro, ones, cfg)
        vb = level_density_limit(lambda n: 1.0 / n, 0.25, cesaro, ones, cfg)
        assert [p.count for p in va.trace] == [p.count for p in vb.trace]
        assert va.verdict is vb.verdict is Verdict.CONVERGES

    def test_short_level_array_rejected(self, cesaro, ones):
        with pytest.raises(ValueError, match="too short"):
            level_density_limit(np.zeros(3), 0.5, cesaro, ones, DensityConfig(horizon=100))


@st.composite
def plan_inputs(draw):
    """A growing schedule, a weight scheme, a normalizer mode and a horizon."""
    if draw(st.booleans()):
        schedule = schedule_preset(draw(st.sampled_from(["cesaro", "example", "stretch"])))
    else:
        ax = draw(st.integers(0, 3))
        bx = draw(st.integers(0, 5))
        ay = ax + draw(st.integers(1, 3))
        by = bx + draw(st.integers(1 - (ay - ax), 5))
        schedule = DeferredSchedule(Affine(ax, bx), Affine(ay, by), "random")
    horizon = draw(st.integers(10, 24))
    top = schedule.y(horizon)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ones", "identity", "table", "constant"]))
    if kind == "table":
        e = tabulated(rng.uniform(0.1, 5.0, top + 1), "rand-e")
        weights = WeightScheme(e, tabulated(rng.uniform(0.1, 5.0, top + 1), "rand-g"), label="t")
    elif kind == "constant":
        c = float(rng.uniform(0.1, 5.0))
        weights = WeightScheme(WeightSeq(lambda n: c, "c", constant=c), weight_preset("ones").g)
    else:
        weights = weight_preset(kind)
    mode = draw(st.sampled_from(list(NormalizerMode)))
    # Regular identity weights sum to zero over a window of width 1.
    width = schedule.y(1) - schedule.x(1)
    assume(not (kind == "identity" and mode is NormalizerMode.REGULAR and width == 1))
    cfg = DensityConfig(horizon=horizon, tail_fraction=0.5, tolerance=0.1, mode=mode)
    return schedule, weights, cfg, rng


class TestWindowPlan:
    @given(inputs=plan_inputs())
    @settings(max_examples=60, deadline=None)
    def test_plan_matches_convolution_and_brute_counts(self, inputs):
        schedule, weights, cfg, rng = inputs
        plan = window_plan(schedule, weights, cfg)
        assert np.array_equal(plan.k, np.floor(plan.R))
        for m, r in zip(plan.ms.tolist(), plan.R.tolist()):
            assert r == convolution(schedule, weights, m, cfg.mode)
            assert r == pytest.approx(brute_normalizer(schedule, weights, m, cfg.mode), rel=1e-13)
        levels = rng.uniform(0.0, 2.0, plan.k_max)
        v = level_density_limit(levels, 1.0, schedule, weights, cfg)
        for point in v.trace:
            brute = sum(
                1
                for n in range(1, math.floor(point.normalizer) + 1)
                if brute_weight(schedule, weights, point.m, n) * levels[n - 1] >= 1.0
            )
            assert point.count == brute

    def test_regular_e_table_covering_only_the_widths(self, deferred, cesaro, ones):
        cfg = DensityConfig(horizon=50, tail_fraction=0.5, tolerance=0.1)
        # The widest windows are 100 (example) and 50 (cesaro) indices
        # wide; regular sums read e below the width, counting below y_m.
        short = WeightScheme(tabulated([1.5] * 100, "short-e"), ones.g, label="short")
        assert counting_bound(deferred, short, cfg) == 150
        v = density_limit(squares_pred, deferred, short, cfg)
        assert v.trace[-1].normalizer == convolution(deferred, short, 50)
        with pytest.raises(WeightError, match="counting range at m="):
            level_density_limit(np.ones(150), 1.0, deferred, short, cfg)
        cesaro_short = WeightScheme(tabulated([1.5] * 50, "short-e"), ones.g, label="short")
        v = level_density_limit(np.ones(75), 1.0, cesaro, cesaro_short, cfg)
        # floor(R_50) = 75, but only n <= y_50 = 50 carry a weight.
        assert v.trace[-1].count == 50

    def test_one_plan_per_detector_run(self):
        bundle = model_preset("example2")
        cfg = DetectorConfig(density=DensityConfig(horizon=200))
        window_plan.cache_clear()
        v = st_dndc(bundle.model, bundle.schedule, bundle.weights, cfg)
        info = window_plan.cache_info()
        assert info.misses == 1
        # One lookup for the run's k_max, then one for counting the whole grid.
        assert len(v.extras["grid"]) == 3
        assert info.hits == 1

    def test_arrays_are_read_only(self, deferred):
        plan = window_plan(deferred, weight_preset("identity"), DensityConfig(horizon=20))
        for arr in (plan.ms, plan.x, plan.y, plan.R, plan.k, plan.e, plan.g):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


@st.composite
def counting_path_inputs(draw):
    """Constant e0 given as a constant sequence and as a table of the same value."""
    if draw(st.booleans()):
        schedule = schedule_preset(draw(st.sampled_from(["cesaro", "example", "stretch"])))
    else:
        ax = draw(st.integers(0, 3))
        bx = draw(st.integers(0, 5))
        ay = ax + draw(st.integers(1, 3))
        by = bx + draw(st.integers(1 - (ay - ax), 5))
        schedule = DeferredSchedule(Affine(ax, bx), Affine(ay, by), "random")
    horizon = draw(st.integers(10, 24))
    top = schedule.y(horizon)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # e0 = 3 lifts floor(R_m) past y_m on `example`, where counting clips.
    e0 = draw(st.sampled_from([0.5, 1.0, 3.0]))
    g_kind = draw(st.sampled_from(["constant", "identity", "table"]))
    if g_kind == "constant":
        c = float(rng.uniform(0.1, 5.0))
        g = WeightSeq(lambda n: c, "c", constant=c)
    elif g_kind == "identity":
        g = weight_preset("identity").g
    else:
        g = tabulated(rng.uniform(0.1, 5.0, top + 1), "rand-g")
    mode = draw(st.sampled_from(list(NormalizerMode)))
    width = schedule.y(1) - schedule.x(1)
    assume(not (g_kind == "identity" and mode is NormalizerMode.REGULAR and width == 1))
    const_e = WeightScheme(WeightSeq(lambda n: e0, "e0", constant=e0), g, label="const")
    table_e = WeightScheme(tabulated([e0] * (top + 1), "e0-table"), g, label="table")
    cfg = DensityConfig(horizon=horizon, tail_fraction=0.5, tolerance=0.1, mode=mode)
    return schedule, const_e, table_e, cfg, rng


class TestCountingPaths:
    """Constant e counts through one cumulative hit count, tabulated e per window."""

    @given(inputs=counting_path_inputs(), threshold=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_both_paths_give_the_brute_counts(self, inputs, threshold):
        schedule, const_e, table_e, cfg, rng = inputs
        k_max = counting_bound(schedule, const_e, cfg)
        # Levels on a coarse dyadic grid make exact ties with the threshold.
        levels = np.where(
            rng.random(k_max) < 0.5,
            rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 4.0], k_max),
            rng.uniform(0.0, 4.0, k_max),
        )
        fast = level_density_limit(levels, threshold, schedule, const_e, cfg)
        slow = level_density_limit(levels, threshold, schedule, table_e, cfg)
        assert fast.trace == slow.trace
        assert fast.tail_max == slow.tail_max
        for point in fast.trace:
            brute = sum(
                1
                for n in range(1, math.floor(point.normalizer) + 1)
                if brute_weight(schedule, const_e, point.m, n) * levels[n - 1] >= threshold
            )
            assert point.count == brute

    @given(
        inputs=counting_path_inputs(),
        threshold=st.sampled_from([0.5, 1.0, 2.0]),
        n_rows=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_over_many_rows_matches_one_call_per_row(self, inputs, threshold, n_rows):
        schedule, const_e, table_e, cfg, rng = inputs
        k_max = counting_bound(schedule, const_e, cfg)
        # Levels on a coarse dyadic grid make exact ties with the threshold.
        rows = np.where(
            rng.random((n_rows, k_max)) < 0.5,
            rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 4.0], (n_rows, k_max)),
            rng.uniform(0.0, 4.0, (n_rows, k_max)),
        )
        for weights in (const_e, table_e):
            extras = [{"row": i} for i in range(n_rows)]
            together = level_density_limits(rows, threshold, schedule, weights, cfg, extras)
            assert len(together) == n_rows
            for i, verdict in enumerate(together):
                alone = level_density_limit(rows[i], threshold, schedule, weights, cfg)
                assert verdict.trace == alone.trace
                assert verdict.tail_max == alone.tail_max
                assert verdict.verdict is alone.verdict
                assert verdict.extras == {"row": i, "threshold": threshold}

    def test_level_rows_are_checked(self, cesaro, ones):
        cfg = DensityConfig(horizon=100)
        with pytest.raises(ValueError, match="too short"):
            level_density_limits(np.zeros((2, 3)), 0.5, cesaro, ones, cfg)
        with pytest.raises(ValueError, match="matrix"):
            level_density_limits(np.zeros(100), 0.5, cesaro, ones, cfg)

    def test_short_g_table_fails_at_the_same_m(self, deferred):
        # Literal R_m reads g below the window width 2m, counting up to
        # min(floor(R_m), y_m) = min(6m, 4m - 1): a g table of 80 values
        # covers every R_m at horizon 40 and ends at m = 21 for counting.
        cfg = DensityConfig(horizon=40, mode=NormalizerMode.LITERAL)
        g = tabulated([1.0] * 80, "short-g")
        const_e = WeightScheme(WeightSeq(lambda n: 3.0, "e0", constant=3.0), g, label="const")
        table_e = WeightScheme(tabulated([3.0] * 160, "e0-table"), g, label="table")
        for weights in (const_e, table_e):
            with pytest.raises(WeightError, match=r"counting range at m=21$"):
                level_density_limit(np.ones(240), 1.0, deferred, weights, cfg)


class TestDnStatLimit:
    def test_constant_sequence_converges(self, cesaro, ones):
        v = dn_stat_limit(constant_seq(3.0), 3.0, 0.5, cesaro, ones, DensityConfig(horizon=500))
        assert v.verdict is Verdict.CONVERGES
        assert v.tail_max == 0.0

    def test_square_indicator_converges(self, cesaro, ones):
        seq = lambda n: 1.0 if is_square(n) else 0.0  # noqa: E731
        v = dn_stat_limit(seq, 0.0, 0.5, cesaro, ones, DensityConfig(horizon=10_000))
        assert v.verdict is Verdict.CONVERGES
        assert v.tail_max == 89 / 8001

    def test_alternating_sequence_diverges(self, cesaro, ones):
        v = dn_stat_limit(
            lambda n: (-1.0) ** n, 0.0, 0.5, cesaro, ones, DensityConfig(horizon=1000)
        )
        assert v.verdict is Verdict.DIVERGES
        assert v.tail_max == 1.0

    @given(scale_pow=st.integers(min_value=-6, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_power_of_two_scaling_keeps_the_verdict(self, scale_pow):
        # Power-of-two scaling is exact in binary floating point, so the
        # weighted comparisons are bitwise unchanged; arbitrary scales
        # could flip exact-boundary comparisons by rounding.
        sched = schedule_preset("cesaro")
        ones = weight_preset("ones")
        lam = 2.0**scale_pow
        seq = lambda n: 1.0 / n + 0.25  # noqa: E731
        cfg = DensityConfig(horizon=400, tolerance=0.05)
        base = dn_stat_limit(seq, 0.25, 0.5, sched, ones, cfg)
        scaled = dn_stat_limit(
            lambda n: lam * seq(n), lam * 0.25, lam * 0.5, sched, ones, cfg
        )
        assert base.verdict is scaled.verdict
        assert [p.count for p in base.trace] == [p.count for p in scaled.trace]

    def test_eps_must_be_positive(self, cesaro, ones):
        with pytest.raises(ValueError, match="eps"):
            dn_stat_limit(constant_seq(0.0), 0.0, 0.0, cesaro, ones, DensityConfig(horizon=100))

    def test_degenerate_normalizer_propagates(self, cesaro):
        zeros = WeightScheme(tabulated([0.0] * 200), tabulated([0.0] * 200), label="z")
        with pytest.raises(DegenerateNormalizerError, match="m=1"):
            dn_stat_limit(constant_seq(1.0), 0.0, 0.5, cesaro, zeros, DensityConfig(horizon=100))


class TestVerdictShape:
    def test_trace_csv_columns(self, cesaro, ones):
        v = density_limit(lambda m, n: False, cesaro, ones, DensityConfig(horizon=50))
        text = trace_csv(v)
        lines = text.strip().splitlines()
        assert lines[0] == "m,R_m,count,d_m"
        assert len(lines) == 1 + len(v.trace)

    def test_summary_records_the_mode(self, cesaro, ones):
        cfg = DensityConfig(horizon=50, mode=NormalizerMode.LITERAL)
        v = density_limit(lambda m, n: False, cesaro, ones, cfg)
        assert v.summary()["normalizer_mode"] == "literal"

    def test_tail_points_cover_the_tail_window(self, cesaro, ones):
        cfg = DensityConfig(horizon=100, tail_fraction=0.25)
        v = density_limit(lambda m, n: False, cesaro, ones, cfg)
        assert [p.m for p in v.tail_points()] == list(range(76, 101))
