"""Weighted densities, tail-limit estimation and the real-sequence detector."""

from __future__ import annotations

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dnstat import density
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
    _exact_sums,
    _window_sums,
    window_means,
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
    schedule_preset,
    tabulated,
    weight_preset,
)

from conftest import (
    brute_density_count,
    brute_normalizer,
    brute_stat_count,
    brute_weight,
    floor_r,
    fsum_normalizer,
    fsum_window_mean,
    is_square,
    one_window,
    same_columns,
    window_sum,
)


def squares_pred(m, n):
    if isinstance(n, np.ndarray):
        roots = np.floor(np.sqrt(n.astype(np.float64))).astype(np.int64)
        return roots * roots == n
    return is_square(int(n))


def density_at(pred, schedule, weights, m):
    """d_m from ``density_limit``, with every m up to the horizon traced."""
    cfg = DensityConfig(horizon=max(10, m), tail_fraction=1.0)
    return float(density_limit(pred, schedule, weights, cfg).density[m - 1])


class TestWeightedDensity:
    def test_false_pred(self, cesaro, ones):
        assert density_at(lambda m, n: False, cesaro, ones, 10) == 0.0

    def test_true_pred_unit_weights(self, cesaro, ones):
        assert density_at(lambda m, n: True, cesaro, ones, 10) == 1.0

    def test_squares_at_r_100(self, cesaro, ones):
        assert density_at(squares_pred, cesaro, ones, 100) == 0.10

    def test_degenerate_normalizer_rejected(self, cesaro):
        zeros = WeightScheme(tabulated([0.0] * 40), tabulated([0.0] * 40), label="z")
        with pytest.raises(DegenerateNormalizerError):
            density_at(lambda m, n: True, cesaro, zeros, 5)

    @given(m=st.integers(min_value=1, max_value=80), k=st.integers(min_value=2, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_monotone_inclusion_and_complement(self, m, k):
        sched = schedule_preset("example")
        ones = weight_preset("ones")
        pred_a = lambda mm, n: n % (2 * k) == 0  # noqa: E731
        pred_b = lambda mm, n: n % k == 0  # noqa: E731
        da = density_at(pred_a, sched, ones, m)
        db = density_at(pred_b, sched, ones, m)
        assert da <= db
        # Complement identity holds exactly at the integer-count level.
        ca, r = brute_density_count(pred_a, sched, ones, m)
        cna, _ = brute_density_count(lambda mm, n: not pred_a(mm, n), sched, ones, m)
        assert ca + cna == math.floor(r)
        dna = density_at(lambda mm, n: np.logical_not(pred_a(mm, n)), sched, ones, m)
        assert da + dna == pytest.approx(math.floor(r) / r, rel=1e-15)

    @given(m=st.integers(min_value=1, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_density_in_unit_interval(self, m):
        sched = schedule_preset("stretch")
        idw = weight_preset("identity")
        d = density_at(squares_pred, sched, idw, m)
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
        ms = v.ms.tolist()
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

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, math.nan])
    def test_tail_fraction_outside_the_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"^tail_fraction must be in \(0, 1\], got"):
            DensityConfig(horizon=100, tail_fraction=fraction)

    def test_scalar_only_predicate_names_the_first_index(self, deferred, ones):
        # int() of a two-element index array fails: the predicate is called
        # once per window on its whole index array, never per index.
        with pytest.raises(RuntimeError, match="^density evaluation failed at m=1:"):
            density_limit(lambda m, n: is_square(int(n)), deferred, ones, DensityConfig(horizon=20))

    def test_predicate_result_of_the_wrong_shape_names_the_index(self, deferred, ones):
        with pytest.raises(RuntimeError, match=r"at m=1: predicate returned shape \(1, 2\)"):
            density_limit(lambda m, n: (n > 1)[None], deferred, ones, DensityConfig(horizon=20))

    def test_matches_brute_counts_on_a_small_horizon(self, deferred, ones):
        cfg = DensityConfig(horizon=60, tail_fraction=0.5, tolerance=0.1)
        v = density_limit(squares_pred, deferred, ones, cfg)
        for m, r, c, d in zip(v.ms.tolist(), v.R.tolist(), v.count.tolist(), v.density.tolist()):
            count, brute_r = brute_density_count(squares_pred, deferred, ones, m)
            assert c == count
            assert r == pytest.approx(brute_r, rel=1e-14)
            assert d == count / r


class TestLevelEngine:
    def test_levels_callable_and_array_agree(self, cesaro, ones):
        cfg = DensityConfig(horizon=300, tolerance=0.05)
        levels = np.array([1.0 / n for n in range(1, 301)])
        va = level_density_limit(levels, 0.25, cesaro, ones, cfg)
        vb = dn_stat_limit(lambda n: 1.0 / n, 0.0, 0.25, cesaro, ones, cfg)
        assert np.array_equal(va.count, vb.count)
        assert va.verdict is vb.verdict is Verdict.CONVERGES

    def test_short_level_array_rejected(self, cesaro, ones):
        with pytest.raises(ValueError, match="too short"):
            level_density_limit(np.zeros(3), 0.5, cesaro, ones, DensityConfig(horizon=100))

    def test_rows_end_at_top_not_at_k_max(self, deferred):
        # e = 3 lifts floor(R_m) past y_m: counting reads n <= top < k_max.
        e, g = (WeightSeq(lambda n, c=c: c, "c", constant=c) for c in (3.0, 1.25))
        weights, cfg = WeightScheme(e, g, "c"), DensityConfig(horizon=300)
        top, k = counting_bound(deferred, weights, cfg), floor_r(deferred, weights, cfg)
        plan, k_max = window_plan(deferred, weights, cfg), int(k.max())
        assert top == int(np.minimum(k, plan.y).max()) < k_max
        levels = np.cos(np.arange(k_max))
        with pytest.raises(ValueError, match=f"need top = {top} entries, got {top - 1}"):
            level_density_limit(levels[: top - 1], 0.5, deferred, weights, cfg)
        v = level_density_limit(levels[:top], 0.5, deferred, weights, cfg)
        assert same_columns(v, level_density_limit(levels, 0.5, deferred, weights, cfg))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=1, max_size=80),
        st.lists(st.integers(0, 80), min_size=1, max_size=40),
    )
    @example([True, False, True], [3, 0, 1, 0, 3, 2])
    def test_sure_counts_by_running_sum_equal_binary_search(self, sure, ns):
        # Constant e leaves no open entry: every count is a sure count.
        sure = np.array(sure)
        n = np.minimum(ns, len(sure)).astype(np.int64)
        steps, at_step = density._distinct(np.concatenate(([0], n)))
        top = int(steps[-1])
        counted = (None, steps, at_step[1:], np.ones(1), np.zeros(1, np.uint16), np.ones(top + 1))
        counts = density._window_counts(sure[np.newaxis].astype(np.float64), 0.5, counted)
        assert counts[0].tolist() == np.searchsorted(np.flatnonzero(sure), n).tolist()


def weight_table(kind: str, rng: np.random.Generator, size: int) -> np.ndarray:
    """Table values whose products take one or many 62-bit digits, or sum past 2^1023.

    spread<s> alternates values with frexp exponents 0 and -s, so its
    products with 1 span exactly s: up to s = 9 one digit holds every
    product, s = 10 and 63 take two digits, s = 200 five.  zeros take one
    or two; subnormal (some subnormal products) and wide (values from
    1e-300 to 1e300) take dozens.  near-overflow values lie between 2^999
    and 2^1022, so a window of a few such terms sums past 2^1023.
    """
    if kind == "near-overflow":
        return np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(1000, 1023, size))
    if kind == "zeros":
        return np.where(rng.random(size) < 0.2, 0.0, rng.uniform(0.1, 5.0, size))
    if kind == "subnormal":
        tiny = rng.integers(1, 2**40, size) * 5e-324
        return np.where(rng.random(size) < 0.3, tiny, rng.uniform(0.1, 5.0, size))
    if kind == "wide":
        return 10.0 ** rng.uniform(-300.0, 300.0, size)
    spread = int(kind.removeprefix("spread"))
    return rng.uniform(0.5, 1.0, size) * 2.0 ** (-spread * (np.arange(size) % 2))


# Kinds of ``boundary_tables``: least-ulp and head-past fall just outside the one-digit route.
BOUNDARY_KINDS = ("signed9", "least", "least-ulp", "head-edge", "head-past")


def boundary_tables(
    kind: str, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """(head, tail) of window sums on either side of a limit of the one-digit route.

    signed9: signs and zeros in both tables, magnitudes over exactly 9
    binades.  least: odd indices give the least product bound 2^-1021
    exactly; least-ulp puts it one ulp below.  head-edge: heads below 2^1000
    and products near 2^29 (shift 24), so the scaled head ends just below
    2^1024; head-past halves the tail, so the shift is 25 and the scaled
    head overflows.  Every product is a normal double.
    """
    odd = np.arange(size) % 2 == 1
    if kind == "signed9":
        signs = rng.choice([-1.0, 1.0], size)
        head = np.where(rng.random(size) < 0.2, 0.0, weight_table("spread9", rng, size) * signs)
        return head, np.where(rng.random(size) < 0.2, 0.0, rng.choice([-1.0, 1.0], size))
    if kind in ("least", "least-ulp"):
        low = 2.0**-511 if kind == "least" else math.nextafter(2.0**-511, 0.0)
        head = np.where(odd, 2.0**-510, rng.uniform(1.0, 2.0, size) * 2.0**-510)
        return head, np.where(odd, low, rng.uniform(1.0, 2.0, size) * 2.0**-511)
    scale = 2.0**-970 if kind == "head-edge" else 2.0**-971
    head = np.where(odd, 0.5, rng.uniform(0.5, 1.0, size)) * 2.0**1000
    return head, np.where(odd, 0.5, rng.uniform(0.5, 1.0, size)) * scale


# Tables set against a constant on the other side in ``plan_inputs`` and the prefix-route tests.
ONE_SIDE_TABLES = ("zeros", "subnormal", "spread63", "spread200", "near-overflow")


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
    kind = draw(st.sampled_from([
        "ones", "identity", "table", "constant", "zeros", "subnormal",
        "spread9", "spread10", "spread63", "spread200", "near-overflow",
        *(f"{side}-const-{table}" for side in "eg" for table in ONE_SIDE_TABLES),
    ]))
    if "-const-" in kind:
        # One constant side and one table: R_m is read off prefix sums.
        side, _, table = kind.split("-", 2)
        c = float(rng.uniform(0.1, 5.0))
        const = WeightSeq(lambda n: c, "c", constant=c)
        values = tabulated(weight_table(table, rng, top + 1), table)
        e, g = (const, values) if side == "e" else (values, const)
        weights = WeightScheme(e, g, label=kind)
    elif kind == "table":
        e = tabulated(rng.uniform(0.1, 5.0, top + 1), "rand-e")
        weights = WeightScheme(e, tabulated(rng.uniform(0.1, 5.0, top + 1), "rand-g"), label="t")
    elif kind in ("zeros", "subnormal"):
        e, g = (tabulated(weight_table(kind, rng, top + 1), side) for side in "eg")
        weights = WeightScheme(e, g, label=kind)
    elif kind.startswith("spread") or kind == "near-overflow":
        # g = 1 makes the products the e values, so the spread is exact.
        e = tabulated(weight_table(kind, rng, top + 1), kind)
        weights = WeightScheme(e, tabulated([1.0] * (top + 1), "one-g"), label=kind)
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
        ms = range(1, cfg.horizon + 1)
        expected = [fsum_normalizer(schedule, weights, m, cfg.mode) for m in ms]
        # A window of zero weights is degenerate, which other tests cover.
        assume(min(expected) > 0.0)
        # near-overflow weights put R_m past the float range, or floor(R_m) past the counting cap.
        inf = [m for m, r in zip(ms, expected) if math.isinf(r)]
        if inf:
            with pytest.raises(WeightError, match=f"at m={inf[0]}: "):
                window_plan(schedule, weights, cfg)
            return
        plan = window_plan(schedule, weights, cfg)
        assert plan.ms.tolist() == list(range(1, cfg.horizon + 1))
        assert [r.hex() for r in plan.R.tolist()] == [r.hex() for r in expected]
        for m, r in zip(plan.ms.tolist(), plan.R.tolist()):
            assert r == pytest.approx(brute_normalizer(schedule, weights, m, cfg.mode), rel=1e-13)
        k = [math.floor(r) for r in expected]
        top = counting_bound(schedule, weights, cfg)
        assert top == max(min(kv, schedule.y(m)) for m, kv in zip(ms, k))
        levels = rng.uniform(0.0, 2.0, top)
        level_list = levels.tolist()  # Python floats: a product past the float range is inf
        v = level_density_limit(levels, 1.0, schedule, weights, cfg)
        assert np.array_equal(v.ms, density._trace_indices(cfg))
        assert v.R is plan.R

        def hit(m, n):
            # Past top, n passes y_m in every window that counts it, where w(m, n) = 0.
            return n <= top and brute_weight(schedule, weights, m, n) * level_list[n - 1] >= 1.0

        big = [m for m, kv in zip(ms, k) if kv > 2_000_000]
        if big:
            # Only the generic predicate reads n up to floor(R_m), so only it meets the cap;
            # level counting reads n <= y_m, where the weight is 0 past y_m.
            with pytest.raises(
                density.CountCapError,
                match=rf"^floor\(R_m\)={k[big[0] - 1]} at m={big[0]} exceeds counting cap 2000000$",
            ):
                density_limit(squares_pred, schedule, weights, cfg)
            brute = [
                sum(hit(m, n) for n in range(1, min(k[m - 1], schedule.y(m)) + 1))
                for m in v.ms.tolist()
            ]
            assert v.count.tolist() == brute
            return
        brute = [brute_density_count(hit, schedule, weights, m, cfg.mode)[0] for m in v.ms.tolist()]
        assert v.count.tolist() == brute
        assert [d.hex() for d in v.density.tolist()] == [
            (c / r).hex() for c, r in zip(brute, plan.R.tolist())
        ]

    @given(
        kind=st.sampled_from([
            "zeros", "subnormal", "wide", "spread9", "spread10", "spread11",
            "spread63", "spread200", "near-overflow", *BOUNDARY_KINDS, "mean",
        ]),
        preset=st.sampled_from(["cesaro", "example", "stretch"]),
        mode=st.sampled_from(list(NormalizerMode)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_window_sums_equal_convolution_on_both_branches(self, kind, preset, mode, seed):
        # R_m past the float range never reaches a plan, so the sums are
        # checked directly, over a range of weights no plan would accept,
        # against the fsum oracle and against ``_exact_sums`` of the products.
        schedule = schedule_preset(preset)
        x, y = schedule.bounds_array(np.arange(1, 41))
        rng = np.random.default_rng(seed)
        size = int(y.max()) + 1
        literal = mode is NormalizerMode.LITERAL
        if kind == "mean":
            # Pool-shaped weights and a signed factor within two binades.
            e, g = (tabulated(np.round(rng.uniform(0.5, 1.5, size), 4), side) for side in "eg")
            weights = WeightScheme(e, g, label="pool")

            def scalar_seq(n):
                return (-1.0) ** n * (1.0 + n % 3 / 4)

            with mock.patch.object(density, "_exact_sums", wraps=density._exact_sums) as general:
                r, t = window_means(np.vectorize(scalar_seq), schedule, weights, 40, mode)
            assert not general.called
            for m in range(1, 41):
                want = fsum_window_mean(scalar_seq, schedule, weights, m, mode)
                assert (r[m - 1].hex(), t[m - 1].hex()) == (want[0].hex(), want[1].hex()), m
            return
        if kind in BOUNDARY_KINDS:
            head, tail = boundary_tables(kind, rng, size)
        else:
            e = weight_table(kind, rng, size)
            if kind in ("zeros", "subnormal"):
                g = weight_table(kind, rng, size)
            else:
                g = rng.uniform(0.5, 1.5, size) if kind == "wide" else np.ones(size)
            head, tail = (e, g) if literal else (g, e)
        with mock.patch.object(density, "_exact_sums", wraps=density._exact_sums) as general:
            sums = _window_sums(head, tail, x, y)
        if kind in BOUNDARY_KINDS or kind in ("spread9", "spread10"):
            assert general.called == (kind in ("spread10", "least-ulp", "head-past"))
        windows = [
            [float(head[n]) * float(tail[yv - n]) for n in range(xv + 1, yv + 1)]
            for xv, yv in zip(x.tolist(), y.tolist())
        ]
        edges = np.concatenate(([0], np.cumsum([len(w) for w in windows])))
        terms = np.array([v for w in windows for v in w])
        exact = _exact_sums(terms, edges, slice(None, -1), slice(1, None))
        for m, (r, s, w) in enumerate(zip(sums.tolist(), exact.tolist(), windows), 1):
            assert r.hex() == s.hex() == window_sum(w).hex(), m

    @pytest.mark.parametrize("mode", list(NormalizerMode))
    @pytest.mark.parametrize("low, high", [(0.5, 1.5), (2.0, 4.0)])
    def test_benchmark_and_guard_weights_take_the_one_digit_route(self, deferred, low, high, mode):
        # Tables at 4 decimals, as the benchmark pool ([0.5, 1.5]) and the CI
        # level guard ([2, 4]) draw them: every window sum takes one digit.
        rng = np.random.default_rng(7)
        e, g = (tabulated(np.round(rng.uniform(low, high, 1000), 4), side) for side in "eg")
        weights = WeightScheme(e, g, label="tables")
        cfg = DensityConfig(horizon=200, mode=mode)
        window_plan.cache_clear()
        with mock.patch.object(density, "_exact_sums", side_effect=AssertionError("general route")):
            plan = window_plan(deferred, weights, cfg)
        for m, r in zip(plan.ms.tolist(), plan.R.tolist()):
            assert r.hex() == fsum_normalizer(deferred, weights, m, mode).hex(), m

    @pytest.mark.parametrize("spread", [9, 10, 11, 63, 200])
    def test_wide_windows_at_the_spread_limit(self, spread):
        # Windows of 7,000m terms, 70,000 at m = 10, each its own chunk.  Half
        # the terms sit at the top of the spread, so one int64 accumulator
        # would overflow; spreads 63 and 200 cut each term into two and five
        # 62-bit digits.
        rng = np.random.default_rng(spread)
        size = 70_001
        g = weight_table(f"spread{spread}", rng, size)
        rng.shuffle(g[1:])
        schedule = DeferredSchedule(Affine(0, 0), Affine(7000, 0), "wide")
        weights = WeightScheme(tabulated([1.0] * size), tabulated(g), label="wide")
        window_plan.cache_clear()
        plan = window_plan(schedule, weights, DensityConfig(horizon=10))
        assert int((plan.y - plan.x).max()) > 2**16
        for yv, r in zip(plan.y.tolist(), plan.R.tolist()):
            assert r.hex() == math.fsum(g[1 : yv + 1].tolist()).hex()

    @pytest.mark.parametrize("table", [*ONE_SIDE_TABLES, "identity"])
    @pytest.mark.parametrize("side", ["e", "g"])
    @pytest.mark.parametrize("preset", ["cesaro", "example", "stretch"])
    @pytest.mark.parametrize("mode", list(NormalizerMode))
    def test_one_constant_side_never_reaches_the_chunk_route(self, mode, preset, side, table):
        # R_m with one constant side comes off prefix sums, equal to the chunk
        # route's sums and the fsum oracle's bit for bit, up to and including
        # the first window that is not finite.
        schedule = schedule_preset(preset)
        ms = np.arange(1, 61)
        x, y = schedule.bounds_array(ms)
        size = int(y.max()) + 1
        if table == "identity":
            values, seq = np.arange(size, dtype=np.float64), weight_preset("identity").e
        else:
            values = weight_table(table, np.random.default_rng(len(table)), size)
            seq = tabulated(values, table)
        const = WeightSeq(lambda n: 1.5, "c", constant=1.5)
        weights = WeightScheme(*((const, seq) if side == "e" else (seq, const)), label=table)
        with mock.patch.object(density, "_window_sums", side_effect=AssertionError("chunk route")):
            r = density._pair_sums(weights, mode, x, y)
        e, g = (np.full(size, 1.5), values) if side == "e" else (values, np.full(size, 1.5))
        chunk = _window_sums(*((e, g) if mode is NormalizerMode.LITERAL else (g, e)), x, y)
        bad = np.flatnonzero(~np.isfinite(chunk))
        stop = int(bad[0]) + 1 if bad.size else len(ms)
        assert np.isfinite(r[: stop - 1]).all()
        assert [v.hex() for v in r[:stop].tolist()] == [v.hex() for v in chunk[:stop].tolist()]
        for m in ms[:stop].tolist():
            assert r[m - 1].hex() == fsum_normalizer(schedule, weights, m, mode).hex(), m

    @pytest.mark.parametrize("preset", ["cesaro", "example", "stretch"])
    @pytest.mark.parametrize("mode", list(NormalizerMode))
    def test_two_constant_sides_take_the_closed_form(self, mode, preset):
        # R_m = (y_m - x_m) * (e0 * g0), with no window summed: the fsum of the
        # window's equal products bit for bit.
        schedule = schedule_preset(preset)
        ms = np.arange(1, 61)
        x, y = schedule.bounds_array(ms)
        e, g = (WeightSeq(lambda n, c=c: c, str(c), constant=c) for c in (0.1, 0.7))
        weights = WeightScheme(e, g, label="constants")
        with mock.patch.object(density, "_exact_sums", side_effect=AssertionError("prefix route")), \
                mock.patch.object(density, "_window_sums", side_effect=AssertionError("chunk route")):
            r = density._pair_sums(weights, mode, x, y)
        for m in ms.tolist():
            assert r[m - 1].hex() == fsum_normalizer(schedule, weights, m, mode).hex(), m

    @pytest.mark.parametrize("lead", [0, 7])
    @pytest.mark.parametrize("side", ["e", "g"])
    @pytest.mark.parametrize("mode", list(NormalizerMode))
    def test_inf_products_of_a_constant_side_fail_where_the_chunk_route_does(
        self, deferred, mode, side, lead
    ):
        # A constant 1e200 against a table of 1e200 past its first `lead`
        # entries (1e-200, products of 1): the products there are inf, and the
        # first window holding one depends on the side and the mode.  Its R_m
        # is the chunk route's.
        values = np.array([1e-200] * lead + [1e200] * (160 - lead))
        const = WeightSeq(lambda n: 1e200, "big", constant=1e200)
        e, g = (const, tabulated(values)) if side == "e" else (tabulated(values), const)
        weights = WeightScheme(e, g, label="big")
        x, y = deferred.bounds_array(np.arange(1, 41))
        big = np.full(160, 1e200)
        e_arr, g_arr = (big, values) if side == "e" else (values, big)
        literal = mode is NormalizerMode.LITERAL
        chunk = _window_sums(*((e_arr, g_arr) if literal else (g_arr, e_arr)), x, y)
        m = int(np.flatnonzero(~np.isfinite(chunk))[0]) + 1
        assert (m > 1) == (lead > 0)
        with pytest.raises(WeightError, match=f"'big' give no finite window sum at m={m}: R_m=inf$"):
            window_plan(deferred, weights, DensityConfig(horizon=40, mode=mode))
        assert chunk[m - 1] == fsum_normalizer(deferred, weights, m, mode) == math.inf

    def test_window_sum_past_the_float_range_is_a_weight_error(self, deferred):
        # Every window holds at least two terms of 1e308, so R_1 overflows.
        big = WeightScheme(tabulated([1e308] * 41), weight_preset("ones").g, label="big")
        with pytest.raises(WeightError, match="'big' give no finite window sum at m=1"):
            window_plan(deferred, big, DensityConfig(horizon=10))
        with pytest.raises(WeightError, match="'big' give no finite window sum at m=1"):
            window_means(lambda n: n.astype(np.float64), deferred, big, 10)

    def test_regular_e_table_covering_only_the_widths(self, deferred, cesaro, ones):
        cfg = DensityConfig(horizon=50, tail_fraction=0.5, tolerance=0.1)
        # The widest windows are 100 (example) and 50 (cesaro) indices
        # wide; regular sums read e below the width, counting below y_m.
        short = WeightScheme(tabulated([1.5] * 100, "short-e"), ones.g, label="short")
        assert floor_r(deferred, short, cfg).max() == 150
        v = density_limit(squares_pred, deferred, short, cfg)
        assert v.R[-1] == fsum_normalizer(deferred, short, 50)
        with pytest.raises(WeightError, match="counting range at m="):
            level_density_limit(np.ones(150), 1.0, deferred, short, cfg)
        cesaro_short = WeightScheme(tabulated([1.5] * 50, "short-e"), ones.g, label="short")
        v = level_density_limit(np.ones(75), 1.0, cesaro, cesaro_short, cfg)
        # floor(R_50) = 75, but only n <= y_50 = 50 carry a weight.
        assert v.count[-1] == 50

    def test_one_plan_per_detector_run(self):
        bundle = model_preset("example2")
        cfg = DetectorConfig(density=DensityConfig(horizon=200))
        window_plan.cache_clear()
        density._counted_range.cache_clear()
        v = st_dndc(bundle.model, bundle.schedule, bundle.weights, cfg)
        assert len(v.extras["grid"]) == 3
        # One plan, read once, into one counted range: built for the run's bound, then
        # looked up for counting the whole grid.
        assert window_plan.cache_info()[:2] == (0, 1)
        assert density._counted_range.cache_info()[:2] == (1, 1)

    def test_identity_weights_count_past_the_cap_on_floor_r(self, deferred):
        # floor(R_m) = 2m(2m - 1) / 2 passes the cap at m = 1001, where level counting reads
        # n <= y_m = 4m - 1 only; the generic predicate reads n <= floor(R_m) and meets the cap.
        weights, cfg = weight_preset("identity"), DensityConfig(horizon=1001)
        message = "^floor\\(R_m\\)=2003001 at m=1001 exceeds counting cap 2000000$"
        with pytest.raises(density.CountCapError, match=message):
            density_limit(squares_pred, deferred, weights, cfg)
        top = counting_bound(deferred, weights, cfg)
        assert top == deferred.y(1001) == 4003
        levels = 1.0 / np.sqrt(np.arange(1, top + 1))
        v = level_density_limit(levels, 0.5, deferred, weights, cfg)
        assert v.ms[-1] == 1001 and v.verdict is Verdict.CONVERGES
        for i in (0, 1, len(v.ms) // 2, len(v.ms) - 1):
            m = int(v.ms[i])
            n_m = min(math.floor(v.R[i]), deferred.y(m))
            brute = sum(
                1 for n in range(1, n_m + 1)
                if brute_weight(deferred, weights, m, n) * levels[n - 1] >= 0.5
            )
            assert v.count[i] == brute

    @pytest.mark.parametrize("y", [2_000_000, 2_000_001])
    def test_the_cap_bounds_the_last_counted_index(self, ones, y):
        # Every window is 0 < n <= y with unit weights, so n_m = floor(R_m) = y_m = y.
        schedule = DeferredSchedule(Affine(0, 0), Affine(0, y), "flat")
        cfg = DensityConfig(horizon=10)
        if y > 2_000_000:
            message = f"^min\\(floor\\(R_m\\), y_m\\)={y} at m=1 exceeds counting cap 2000000$"
            with pytest.raises(density.CountCapError, match=message):
                counting_bound(schedule, ones, cfg)
            return
        assert counting_bound(schedule, ones, cfg) == y
        v = level_density_limit(np.ones(y), 1.0, schedule, ones, cfg)
        assert v.count.tolist() == [y] * 10

    def test_arrays_are_read_only(self, deferred):
        weights, cfg = weight_preset("identity"), DensityConfig(horizon=20)
        plan = window_plan(deferred, weights, cfg)
        arrays = [plan.ms, plan.x, plan.y, plan.R]
        # Verdict columns, from the generic and the level path.
        rows = np.ones((2, counting_bound(deferred, weights, cfg)))
        for v in [density_limit(squares_pred, deferred, weights, cfg)] + level_density_limits(
            rows, 1.0, deferred, weights, cfg
        ):
            arrays += [v.ms, v.R, v.count, v.density]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    @pytest.mark.parametrize("mode", list(NormalizerMode))
    @pytest.mark.parametrize("e0", [0.5, 3.0])
    def test_constant_weights_count_up_to_the_clipped_range(self, deferred, mode, e0):
        # e0 = 3 lifts floor(R_m) past y_m, where counting clips at y_m.
        e, g = (WeightSeq(lambda n, c=c: c, "c", constant=c) for c in (e0, 1.25))
        weights, cfg = WeightScheme(e, g, "c"), DensityConfig(horizon=300, mode=mode)
        plan, k = window_plan(deferred, weights, cfg), floor_r(deferred, weights, cfg)
        v = level_density_limit(np.ones(k.max()), 0.5, deferred, weights, cfg)
        assert np.array_equal(v.count, np.minimum(k, plan.y))
        assert (e0 == 3.0) == bool((k > plan.y).any())

        def hit(m, n):
            return brute_weight(deferred, weights, m, n) >= 0.5

        brute = [brute_density_count(hit, deferred, weights, m, mode)[0] for m in v.ms.tolist()]
        assert v.count.tolist() == brute

    @pytest.mark.parametrize("horizon", [10, 1250, 1251, 1300, 5000, 30_000, 100_003])
    def test_trace_indices_equal_the_unique_linspace(self, horizon):
        cfg = DensityConfig(horizon=horizon)
        tail_start = cfg.tail_start()
        head = np.arange(1, tail_start)
        if len(head) > 1000:
            head = np.unique(np.linspace(1, tail_start - 1, 1000).astype(np.int64))
        expected = np.concatenate((head, np.arange(tail_start, horizon + 1)))
        indices = density._trace_indices(cfg)
        assert indices.dtype == np.int64
        assert np.array_equal(indices, expected)


@st.composite
def mean_inputs(draw):
    """A sequence (array and scalar forms), schedule, weight scheme, horizon and mode."""
    if draw(st.booleans()):
        schedule = schedule_preset(draw(st.sampled_from(["cesaro", "example", "stretch"])))
    else:
        ax = draw(st.integers(0, 3))
        bx = draw(st.integers(0, 5))
        ay = ax + draw(st.integers(1, 3))
        by = bx + draw(st.integers(1 - (ay - ax), 5))
        schedule = DeferredSchedule(Affine(ax, bx), Affine(ay, by), "random")
    horizon = draw(st.integers(10, 30))
    size = schedule.y(horizon) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ones", "identity", "tables", "constant-e"]))
    table = draw(st.sampled_from([
        "zeros", "subnormal", "wide", "spread9", "spread10", "spread11",
        "spread63", "spread200", "near-overflow",
    ]))
    if kind == "tables":
        e, g = (tabulated(weight_table(table, rng, size), side) for side in "eg")
        weights = WeightScheme(e, g, label=table)
    elif kind == "constant-e":
        # Constant e with a tabulated g takes the prefix-sum numerator.
        e0 = float(rng.uniform(0.1, 5.0))
        e = WeightSeq(lambda n: e0, "e0", constant=e0)
        weights = WeightScheme(e, tabulated(weight_table(table, rng, size), "g"), label=table)
    else:
        weights = weight_preset(kind)
    c = draw(st.one_of(st.sampled_from([-3.7, 0.0, 0.1, 7.0]), st.floats(-1e3, 1e3)))
    if draw(st.booleans()):
        seqs = (lambda n: n.astype(np.float64), float)
    else:
        seqs = (lambda n: np.full(len(n), c), lambda n: c)
    mode = draw(st.sampled_from(list(NormalizerMode)))
    return seqs, schedule, weights, horizon, mode


class TestWindowMeans:
    @given(inputs=mean_inputs())
    @settings(max_examples=150, deadline=None)
    def test_bit_for_bit_against_the_fsum_oracle(self, inputs):
        (seq, scalar_seq), schedule, weights, horizon, mode = inputs
        try:
            want = [
                fsum_window_mean(scalar_seq, schedule, weights, m, mode)
                for m in range(1, horizon + 1)
            ]
        except (WeightError, DegenerateNormalizerError) as exc:
            # The same error, type and message, at the same first m.
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                window_means(seq, schedule, weights, horizon, mode)
            return
        r, t = window_means(seq, schedule, weights, horizon, mode)
        assert [(a.hex(), b.hex()) for a, b in zip(r.tolist(), t.tolist())] == [
            (a.hex(), b.hex()) for a, b in want
        ]
        plan = window_plan(schedule, weights, DensityConfig(horizon=horizon, mode=mode))
        assert [v.hex() for v in r[plan.ms - 1].tolist()] == [v.hex() for v in plan.R.tolist()]

    @given(
        side=st.sampled_from("eg"),
        table=st.sampled_from([*ONE_SIDE_TABLES, "wide", "spread9"]),
        preset=st.sampled_from(["cesaro", "example", "stretch"]),
        mode=st.sampled_from(list(NormalizerMode)),
        seq=st.sampled_from(["one", "signed", "identity"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_prefix_route_equals_the_fsum_oracle(self, side, table, preset, mode, seq, seed):
        # One constant side: R_m, summed without a factor, is read off prefix
        # sums in either mode.  The numerator, with seq as its factor, is too
        # when e is constant; with constant g its head is constant, so it takes
        # the chunk route.  Either way t_m equals the fsum oracle's hex for hex.
        schedule = schedule_preset(preset)
        size = schedule.y(30) + 1
        rng = np.random.default_rng(seed)
        const = WeightSeq(lambda n: 0.75, "c", constant=0.75)
        values = tabulated(weight_table(table, rng, size), table)
        weights = WeightScheme(*((const, values) if side == "e" else (values, const)), label=table)
        scalar_seq = {
            "one": lambda n: 1.0,
            "signed": lambda n: (-1.0) ** n * (1.0 + n % 3 / 4),
            "identity": float,
        }[seq]
        try:
            want = [fsum_window_mean(scalar_seq, schedule, weights, m, mode) for m in range(1, 31)]
        except (WeightError, DegenerateNormalizerError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                window_means(np.vectorize(scalar_seq), schedule, weights, 30, mode)
            return
        with mock.patch.object(density, "_window_sums", wraps=density._window_sums) as chunked:
            r, t = window_means(np.vectorize(scalar_seq), schedule, weights, 30, mode)
        assert chunked.call_count == (side == "g")
        assert [(a.hex(), b.hex()) for a, b in zip(r.tolist(), t.tolist())] == [
            (a.hex(), b.hex()) for a, b in want
        ]

    @pytest.mark.parametrize("table", ["spread9", "spread10", "spread63"])
    @pytest.mark.parametrize("scale", [1.0, 2.0**20])
    def test_signed_products_on_both_branches(self, deferred, table, scale):
        # (-1)^n n puts products of both signs into one chunk.  Spread 9 fits
        # one digit unless the negative products lie 2^20 past the positive
        # ones; spread 63 takes two or three digits, each carrying its sign.
        rng = np.random.default_rng(3)
        g = tabulated(weight_table(table, rng, 200), table)
        weights = WeightScheme(tabulated([1.0] * 200, "ones"), g, label=table)
        r, t = window_means(lambda n: n * np.where(n % 2, -scale, 1.0), deferred, weights, 40)
        for m in range(1, 41):
            want = fsum_window_mean(lambda n: n * (-scale if n % 2 else 1.0), deferred, weights, m)
            assert (r[m - 1].hex(), t[m - 1].hex()) == (want[0].hex(), want[1].hex()), m

    @pytest.mark.parametrize(
        "e", [WeightSeq(lambda n: 2.0, "two", constant=2.0), tabulated([2.0] * 15)]
    )
    def test_numerator_that_is_not_finite_is_named_by_its_fsum(self, cesaro, e):
        # Literal R_5 reads g(0..4), the numerator g(1..5): 2 * g(5) overflows, times 0 is nan.
        weights = WeightScheme(e, tabulated([1.0] * 5 + [1e308] * 10), label="big")
        with pytest.raises(WeightError, match=r"'big' .* of the sequence at m=5: nan$"):
            window_means(lambda n: np.zeros(len(n)), cesaro, weights, 10, NormalizerMode.LITERAL)

    @pytest.mark.parametrize(
        "e", [WeightSeq(lambda n: 0.25, "quarter", constant=0.25), tabulated([0.25] * 40)]
    )
    @pytest.mark.parametrize("mode", list(NormalizerMode))
    def test_finite_terms_past_the_float_range_keep_their_sign(self, deferred, e, mode):
        # Each product is -3 * 2^1020; window 3 of `example` (n = 6..11)
        # sums six of them, past -2^1024, while R_3 = 6 * 2^1020 is finite.
        weights = WeightScheme(e, tabulated([2.0**1022] * 40, "big-g"), label="big")
        message = r"'big' .* of the sequence at m=3: -inf$"
        with pytest.raises(WeightError, match=message):
            window_means(lambda n: np.full(len(n), -3.0), deferred, weights, 10, mode)
        with pytest.raises(WeightError, match=message):
            fsum_window_mean(lambda n: -3.0, deferred, weights, 3, mode)

    @pytest.mark.parametrize(
        "e", [WeightSeq(lambda n: 1.0, "one", constant=1.0), tabulated([1.0] * 4)]
    )
    @pytest.mark.parametrize("mode", list(NormalizerMode))
    def test_window_holding_minus_inf_beside_an_overflow_sums_to_minus_inf(self, cesaro, e, mode):
        # Every window is n = 1..3 with products -3.7 * (4e307, 4e307, 6e307):
        # two finite terms that sum past the float range, where math.fsum
        # raises, and -inf.  The plain float sum is -inf.
        schedule = one_window(cesaro, 3)
        weights = WeightScheme(e, tabulated([1.0, 4e307, 4e307, 6e307], "big-g"), label="big")
        message = r"'big' .* of the sequence at m=1: -inf$"
        with pytest.raises(WeightError, match=message):
            window_means(lambda n: np.full(len(n), -3.7), schedule, weights, 10, mode)
        with pytest.raises(WeightError, match=message):
            fsum_window_mean(lambda n: -3.7, schedule, weights, 1, mode)
        with pytest.raises(OverflowError, match="intermediate overflow"):
            math.fsum([-3.7 * 4e307, -3.7 * 4e307, -math.inf])

    @pytest.mark.parametrize("preset", ["ones", "identity"])
    def test_window_holding_plus_and_minus_inf_is_a_weight_error(self, deferred, preset):
        # Window 2 of `example` is n = 4..7, where e(y_2 - n) > 0 at n = 4, 5 for
        # both presets, so its products hold +inf and -inf; window 1 (n = 2, 3) is finite.
        def seq(n):
            return np.where(n == 4, np.inf, np.where(n == 5, -np.inf, n.astype(np.float64)))

        weights = weight_preset(preset)
        with pytest.raises(WeightError, match=rf"'{preset}' .* of the sequence at m=2: nan$"):
            window_means(seq, deferred, weights, 5)


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


# Subnormal and inexact weights, and levels whose products overflow or are
# not numbers, around the rank search's probes.
WEIGHT_POOL = [0.0, 5e-324, 1e-310, 0.1, 0.3, 1.0, 2.0, 3.0]
LEVEL_POOL = [0.0, 1 / 3, 1e300, 1.7e308, math.inf, math.nan, -1.0, 0.5, 1.0, 2.0, 5e-324]
CUTOFF_THRESHOLDS = [0.1, 0.3, 0.5, 1e-300]


@st.composite
def varying_e_inputs(draw):
    """A tabulated e and g drawn per index from ``WEIGHT_POOL`` or uniform, and level rows."""
    schedule = schedule_preset(draw(st.sampled_from(["cesaro", "example", "stretch"])))
    horizon = draw(st.integers(10, 24))
    mode = draw(st.sampled_from(list(NormalizerMode)))
    top = schedule.y(horizon)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def table(size):
        pooled = rng.random(size) < 0.7
        return np.where(pooled, rng.choice(WEIGHT_POOL, size), rng.uniform(0.0, 3.0, size))

    weights = WeightScheme(tabulated(table(top + 1), "e"), tabulated(table(top + 1), "g"), "var")
    cfg = DensityConfig(horizon=horizon, tail_fraction=0.5, tolerance=0.1, mode=mode)
    try:
        k_max = int(floor_r(schedule, weights, cfg).max())
    except DegenerateNormalizerError:
        assume(False)
    shape = (draw(st.integers(1, 3)), k_max)
    pooled = rng.random(shape) < 0.6
    rows = np.where(pooled, rng.choice(LEVEL_POOL, shape), rng.uniform(-0.5, 4.0, shape))
    return schedule, weights, cfg, rows


def brute_counts(verdict, schedule, weights, levels, threshold):
    """The counts of a verdict's windows by one Python-float product per index."""
    levels = levels.tolist()
    return [
        sum(
            1
            for n in range(1, math.floor(r) + 1)
            if brute_weight(schedule, weights, m, n) * levels[n - 1] >= threshold
        )
        for m, r in zip(verdict.ms.tolist(), verdict.R.tolist())
    ]


def cutoff_hit(e, g, level, threshold):
    """The counting predicate on one (e, g, level) triple, in float64."""
    with np.errstate(all="ignore"):
        return bool((np.float64(e) * g) * level >= threshold)


class TestCountingPaths:
    """One counting path: entries the e range decides, and the open rest per window."""

    @given(inputs=counting_path_inputs(), threshold=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_both_paths_give_the_brute_counts(self, inputs, threshold):
        schedule, const_e, table_e, cfg, rng = inputs
        k_max = int(floor_r(schedule, const_e, cfg).max())
        # Levels on a coarse dyadic grid make exact ties with the threshold.
        levels = np.where(
            rng.random(k_max) < 0.5,
            rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 4.0], k_max),
            rng.uniform(0.0, 4.0, k_max),
        )
        fast = level_density_limit(levels, threshold, schedule, const_e, cfg)
        slow = level_density_limit(levels, threshold, schedule, table_e, cfg)
        assert same_columns(fast, slow)
        assert fast.tail_max == slow.tail_max
        for m, r, c in zip(fast.ms.tolist(), fast.R.tolist(), fast.count.tolist()):
            brute = sum(
                1
                for n in range(1, math.floor(r) + 1)
                if brute_weight(schedule, const_e, m, n) * levels[n - 1] >= threshold
            )
            assert c == brute

    @given(
        inputs=varying_e_inputs(),
        threshold=st.sampled_from(CUTOFF_THRESHOLDS),
        block=st.sampled_from([5, density._CUTOFF_BLOCK]),
    )
    @settings(max_examples=80, deadline=None)
    def test_e_that_varies_by_index_gives_the_brute_counts(self, inputs, threshold, block):
        schedule, weights, cfg, rows = inputs
        # Blocks of 5 entries split the rank search across many calls.
        with mock.patch.object(density, "_CUTOFF_BLOCK", block):
            verdicts = level_density_limits(rows, threshold, schedule, weights, cfg)
        for verdict, levels in zip(verdicts, rows):
            want = brute_counts(verdict, schedule, weights, levels, threshold)
            assert verdict.count.tolist() == want

    def test_products_that_round_onto_the_threshold_hit(self, deferred):
        # Every window is window 10 of `example`; each level is the least
        # double with (e(y - n) * g(n)) * level >= threshold, and most of
        # these products round exactly onto the threshold.
        schedule = one_window(deferred, 10)
        e = tabulated([0.1, 0.3, 0.7, 1.1] * 15, "e")
        g = tabulated([0.3, 0.1, 1.3, 0.9, 1.7] * 12, "g")
        weights = WeightScheme(e, g, label="ties")
        cfg = DensityConfig(horizon=10, tail_fraction=1.0)
        k = int(floor_r(schedule, weights, cfg).max())
        threshold = 0.3
        w = np.array([brute_weight(schedule, weights, 10, n) for n in range(1, k + 1)])
        least = threshold / w
        while np.any(w * least < threshold):
            least = np.where(w * least < threshold, np.nextafter(least, np.inf), least)
        while np.any(lower := w * np.nextafter(least, 0.0) >= threshold):
            least = np.where(lower, np.nextafter(least, 0.0), least)
        assert np.count_nonzero(w * least == threshold) > k // 2
        for row, want in ((least, k), (np.nextafter(least, 0.0), 0)):
            v = level_density_limit(row, threshold, schedule, weights, cfg)
            assert v.count.tolist() == [want] * len(v.ms)
            assert v.count.tolist() == brute_counts(v, schedule, weights, row, threshold)

    @given(
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from(CUTOFF_THRESHOLDS),
        size=st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_rank_thresholds_count_the_values_that_miss(self, seed, threshold, size):
        rng = np.random.default_rng(seed)
        largest = np.finfo(np.float64).max
        # Sorted distinct e from zeros, subnormals, dyadic and inexact values, 1e300
        # and the largest double: 1 to 21 of them, so the search takes 1 to 5 steps.
        pool = np.concatenate((WEIGHT_POOL, [0.5, 1.5, 4.0, 1e300, largest], rng.uniform(0, 3, 8)))
        values = np.unique(rng.choice(pool, size))
        cols = 30
        g = np.where(rng.random(cols) < 0.6, rng.choice(WEIGHT_POOL, cols), rng.uniform(0, 3, cols))
        levels = np.where(
            rng.random((3, cols)) < 0.6,
            rng.choice(LEVEL_POOL, (3, cols)),
            rng.uniform(-0.5, 4.0, (3, cols)),
        )
        # Levels that put the threshold on a product of one of the values, mostly exactly.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            near = threshold / (rng.choice(values, (3, cols)) * g)
        levels = np.where(rng.random((3, cols)) < 0.3, near, levels)
        q = density._rank_thresholds(values, g, levels, threshold)
        for (i, j), rank in np.ndenumerate(q):
            misses = [not cutoff_hit(v, g[j], levels[i, j], threshold) for v in values.tolist()]
            # The values that hit form a suffix, and q counts the values before it.
            assert rank == sum(misses)
            assert misses == [k < rank for k in range(len(values))]

    @given(
        inputs=counting_path_inputs(),
        threshold=st.sampled_from([0.5, 1.0, 2.0]),
        n_rows=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_over_many_rows_matches_one_call_per_row(self, inputs, threshold, n_rows):
        schedule, const_e, table_e, cfg, rng = inputs
        k_max = int(floor_r(schedule, const_e, cfg).max())
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
                assert same_columns(verdict, alone)
                assert verdict.tail_max == alone.tail_max
                assert verdict.verdict is alone.verdict
                assert verdict.extras == {"row": i, "threshold": threshold}

    @pytest.mark.parametrize("chunk", [1, 5, density._COUNT_CHUNK])
    @pytest.mark.parametrize("mode", list(NormalizerMode))
    @pytest.mark.parametrize("e_kind", ["equal", "two-valued", "zeros-and-subnormals"])
    def test_entries_the_e_range_decides_and_the_open_rest(self, deferred, chunk, mode, e_kind):
        # With g = 1 and threshold 1, e in {1, 2} makes a level >= 1 hit in
        # every window, one below 0.5 miss in every window, and one in
        # [0.5, 1) open: it hits where e(y_m - n) = 2, exactly at 0.5.  An e
        # table holding 0 and subnormals leaves no entry sure.  Chunks of 1
        # and 5 entries are far smaller than one window.
        rng = np.random.default_rng(len(e_kind) + 7 * chunk)
        cfg = DensityConfig(horizon=24, tail_fraction=0.5, tolerance=0.1, mode=mode)
        size = deferred.y(24) + 1
        e = {
            "equal": [1.5] * size,
            "two-valued": rng.choice([1.0, 2.0], size),
            # Every other e positive, so that no R_m is 0.
            "zeros-and-subnormals": np.where(
                np.arange(size) % 2,
                rng.choice([0.0, 5e-324, 1e-310], size),
                rng.choice([1.0, 2.0], size),
            ),
        }[e_kind]
        weights = WeightScheme(tabulated(e, "e"), tabulated([1.0] * size, "g"), label=e_kind)
        plan, k = window_plan(deferred, weights, cfg), floor_r(deferred, weights, cfg)
        top, k_max = int(np.minimum(k, plan.y).max()), int(k.max())
        decided = rng.choice([0.0, 0.25, 0.4, 1.0, 3.0, -1.0, math.nan, math.inf], (5, k_max))
        rows = decided.copy()
        rows[1, 0] = 0.75  # the open span starts at column 0
        rows[2, top - 1] = 0.75  # and ends at top
        # Open from the middle on: windows with n_m <= top // 2 read no open column.
        rows[3, top // 2 :] = rng.choice([0.5, 0.75, 0.99], k_max - top // 2)
        rows[4] = np.where(rng.random(k_max) < 0.5, rng.uniform(0.0, 2.0, k_max), 0.5)
        rank_thresholds = density._rank_thresholds
        # Rows 0 and 3 alone: with e in {1, 2} the open span starts at top // 2.
        for part in (rows, rows[[0, 3]]):
            calls = []
            spy = lambda *args: calls.append(args) or rank_thresholds(*args)  # noqa: E731
            with mock.patch.object(density, "_COUNT_CHUNK", chunk), mock.patch.object(
                density, "_rank_thresholds", spy
            ):
                verdicts = level_density_limits(part, 1.0, deferred, weights, cfg)
            for verdict, levels in zip(verdicts, part):
                want = brute_counts(verdict, deferred, weights, levels, 1.0)
                assert verdict.count.tolist() == want
            if e_kind == "equal":
                assert calls == []  # no rank search, so no window pass
            else:
                assert calls
            # Every searched entry is open: it misses at the least e and hits at the largest.
            for values, g, levels, threshold in calls:
                with np.errstate(invalid="ignore"):  # 0 * inf
                    assert not ((values[0] * g) * levels >= threshold).any()
                assert ((values[-1] * g) * levels >= threshold).all()

    @pytest.mark.parametrize("chunk", sorted({1, 5, 2**14, density._COUNT_CHUNK}))
    @pytest.mark.parametrize("mode", list(NormalizerMode))
    @pytest.mark.parametrize("e_kind", ["repeated", "distinct"])
    def test_ranks_of_the_e_table_give_the_brute_counts(self, chunk, mode, e_kind):
        # Windows m + off < n <= m + off + 8 sum 8 products of e in [1, 4] and
        # g in {0.5, 1, 2}, so n_m = floor(R_m) rises and falls with m.  e takes
        # 5 values, each many times, or past off = 100,000 more than 2^16 distinct
        # ones, which need uint32 ranks.  Open levels 1 / (2 g(n)) and 1 / (4 g(n))
        # make the e values 2 and 4 the least that hit, exactly on the threshold.
        rng = np.random.default_rng(len(e_kind) + 11 * chunk + len(mode.value))
        off, p_pool = {"repeated": (1000, 1.0), "distinct": (100_000, 0.3)}[e_kind]
        schedule = DeferredSchedule(Affine(1, off), Affine(1, off + 8), "shifted")
        cfg = DensityConfig(horizon=24, tail_fraction=0.5, tolerance=0.1, mode=mode)
        size = off + 33
        e = np.where(
            rng.random(size) < p_pool,
            rng.choice([1.0, 1.5, 2.0, 3.0, 4.0], size),
            rng.uniform(1.0, 4.0, size),
        )
        e[:5] = [1.0, 1.5, 2.0, 3.0, 4.0]
        g_table = rng.choice([0.5, 1.0, 2.0], size)
        weights = WeightScheme(tabulated(e, "e"), tabulated(g_table, "g"), label=e_kind)
        plan = window_plan(schedule, weights, cfg)
        ranks = density._counted_range(schedule, weights, cfg)[4]
        assert ranks.dtype == (np.uint32 if e_kind == "distinct" else np.uint16)
        k = floor_r(schedule, weights, cfg)
        n = np.minimum(k, plan.y)
        assert np.any(np.diff(n) < 0) and np.any(np.diff(n) > 0)
        # Open columns [a, b): the window of least n_m reads one, some read all.
        a, b = int(n.min()) - 1, int(n.max()) - 2
        assert {1, b - a} <= set(np.clip(n - a, 0, b - a).tolist())
        g = g_table[1 : k.max() + 1]
        rows = rng.choice([0.0, -1.0, math.nan, 100.0], (3, k.max()))
        rows[:, a:b] = np.where(
            rng.random((3, b - a)) < 0.5,
            1.0 / (g[a:b] * rng.choice([2.0, 4.0], (3, b - a))),
            rng.uniform(0.25, 1.0, (3, b - a)) / g[a:b],
        )
        rows[0, [a, b - 1]] = 1.0 / (2.0 * g[[a, b - 1]])
        rank_thresholds, landed = density._rank_thresholds, set()

        def spy(values, *args):
            q = rank_thresholds(values, *args)
            landed.update(values[q[q < len(values)]].tolist())
            return q

        with mock.patch.object(density, "_COUNT_CHUNK", chunk), mock.patch.object(
            density, "_rank_thresholds", spy
        ):
            verdicts = level_density_limits(rows, 1.0, schedule, weights, cfg)
        assert {2.0, 4.0} <= landed
        for verdict, levels in zip(verdicts, rows):
            assert verdict.count.tolist() == brute_counts(verdict, schedule, weights, levels, 1.0)

    def test_level_rows_are_checked(self, cesaro, ones):
        cfg = DensityConfig(horizon=100)
        with pytest.raises(ValueError, match="too short"):
            level_density_limits(np.zeros((2, 3)), 0.5, cesaro, ones, cfg)
        with pytest.raises(ValueError, match="matrix"):
            level_density_limits(np.zeros(100), 0.5, cesaro, ones, cfg)

    @pytest.mark.parametrize("n_extras", [0, 1, 2, 4])
    def test_extras_must_hold_one_mapping_per_row(self, cesaro, ones, n_extras):
        # zip would pair one mapping with the first row only and drop the other verdicts.
        cfg = DensityConfig(horizon=100)
        rows = np.ones((3, counting_bound(cesaro, ones, cfg)))
        extras = [{"row": i} for i in range(4)]
        message = f"^extras holds {n_extras} mappings for 3 level rows$"
        with pytest.raises(ValueError, match=message):
            level_density_limits(rows, 0.5, cesaro, ones, cfg, extras[:n_extras])
        verdicts = level_density_limits(rows, 0.5, cesaro, ones, cfg, extras[:3])
        assert [v.extras["row"] for v in verdicts] == [0, 1, 2]
        assert len(level_density_limits(rows, 0.5, cesaro, ones, cfg)) == 3

    @pytest.mark.parametrize(
        "value, message",
        [(math.nan, "must be positive, got nan"), (math.inf, "must be finite, got inf")],
    )
    def test_threshold_and_eps_that_are_not_finite_are_rejected(self, cesaro, ones, value, message):
        cfg = DensityConfig(horizon=100)
        with pytest.raises(ValueError, match=f"^threshold {message}$"):
            level_density_limits(np.ones((2, 100)), value, cesaro, ones, cfg)
        with pytest.raises(ValueError, match=f"^eps {message}$"):
            dn_stat_limit(constant_seq(3.0), 1.0, value, cesaro, ones, cfg)

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
        seq = lambda n: squares_pred(0, n).astype(np.float64)  # noqa: E731
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
        assert np.array_equal(base.count, scaled.count)

    @given(
        form=st.sampled_from(["constant", "alternating", "reciprocal"]),
        c=st.floats(min_value=-4.0, max_value=4.0),
        candidate=st.sampled_from([0.0, 1.0, -0.5]),
        eps=st.floats(min_value=0.01, max_value=3.0),
        sched_name=st.sampled_from(["cesaro", "example", "stretch"]),
        weight_kind=st.sampled_from(["ones", "identity", "table"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mode=st.sampled_from(list(NormalizerMode)),
        horizon=st.integers(min_value=10, max_value=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_the_scalar_oracle(
        self, form, c, candidate, eps, sched_name, weight_kind, seed, mode, horizon
    ):
        # Each form on index arrays only (ints have no astype), for dnstat,
        # and on one Python int, for the oracle; both give the same doubles.
        seq, scalar_seq = {
            "constant": (lambda n: np.full(n.shape, c), lambda n: c),
            "alternating": (lambda n: c * (-1.0) ** n.astype(float), lambda n: c * (-1.0) ** n),
            "reciprocal": (lambda n: c / n.astype(float), lambda n: c / n),
        }[form]
        if weight_kind == "table":
            e = np.round(np.random.default_rng(seed).uniform(0.25, 4.0, 120), 4)
            weights = WeightScheme(tabulated(e, "e-table"), weight_preset("ones").g, "table")
        else:
            weights = weight_preset(weight_kind)
        # Window 1 of cesaro weighs only e(0) g(1) = 0 under identity weights.
        assume((sched_name, weight_kind, mode) != ("cesaro", "identity", NormalizerMode.REGULAR))
        schedule = schedule_preset(sched_name)
        cfg = DensityConfig(horizon=horizon, tail_fraction=1.0, mode=mode)
        v = dn_stat_limit(seq, candidate, eps, schedule, weights, cfg)
        assert v.ms.tolist() == list(range(1, horizon + 1))
        for m, count in zip(v.ms.tolist(), v.count.tolist()):
            assert count == brute_stat_count(scalar_seq, candidate, eps, schedule, weights, m, mode)

    def test_sequence_is_evaluated_only_where_counting_reads(self, stretch):
        # Identity weights make k_max = max floor(R_m) = 1,124,250 at horizon 500, where
        # counting reads n <= top = max min(k_m, y_m) = 2,000.
        weights, cfg = weight_preset("identity"), DensityConfig(horizon=500)
        top = counting_bound(stretch, weights, cfg)
        k_max = int(floor_r(stretch, weights, cfg).max())
        assert (top, k_max) == (2000, 1_124_250)
        seen = []

        def seq(n):
            seen.append(n.copy())
            return 1.0 / n

        v = dn_stat_limit(seq, 0.0, 0.25, stretch, weights, cfg)
        assert [n.tolist() for n in seen] == [list(range(1, top + 1))]
        # Oracle: the same levels tabulated up to k_max give the same counts.
        wide = level_density_limit(1.0 / np.arange(1, k_max + 1), 0.25, stretch, weights, cfg)
        assert same_columns(v, wide)
        assert (v.verdict, v.tail_max) == (wide.verdict, wide.tail_max)

    def test_sequence_result_of_the_wrong_shape_raises(self, cesaro, ones):
        with pytest.raises(ValueError, match=r"^sequence returned shape \(3,\)"):
            dn_stat_limit(lambda n: np.ones(3), 0.0, 0.5, cesaro, ones, DensityConfig(horizon=20))

    @pytest.mark.parametrize("candidate", [math.nan, math.inf, -math.inf])
    def test_candidate_that_is_not_finite_is_rejected(self, cesaro, ones, candidate):
        # |x - nan| >= eps never holds, so (-1)^n would read as converging to nan.
        cfg = DensityConfig(horizon=100)
        with pytest.raises(ValueError, match=f"^candidate must be finite, got {candidate}$"):
            dn_stat_limit(lambda n: (-1.0) ** n, candidate, 0.5, cesaro, ones, cfg)

    def test_nan_sequence_value_is_rejected(self, cesaro, ones):
        def seq(n):
            return np.where(n >= 7, np.nan, (-1.0) ** n)

        cfg = DensityConfig(horizon=100)
        with pytest.raises(ValueError, match="^sequence value at n=7 is nan$"):
            dn_stat_limit(seq, 0.0, 0.5, cesaro, ones, cfg)
        # An infinite value is a deviation like any other and counts.
        v = dn_stat_limit(lambda n: np.full(n.shape, np.inf), 0.0, 0.5, cesaro, ones, cfg)
        assert v.verdict is Verdict.DIVERGES

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
        assert len(lines) == 1 + len(v.ms)
        assert v.summary()["trace_points"] == len(v.ms)

    def test_summary_records_the_mode(self, cesaro, ones):
        cfg = DensityConfig(horizon=50, mode=NormalizerMode.LITERAL)
        v = density_limit(lambda m, n: False, cesaro, ones, cfg)
        assert v.summary()["normalizer_mode"] == "literal"

    def test_tail_points_cover_the_tail_window(self, cesaro, ones):
        # The tail rule reads m = 76..100: a density of 1 at m = 75 is
        # outside it, one at m = 76 inside.
        cfg = DensityConfig(horizon=100, tail_fraction=0.25)
        before = density_limit(lambda m, n: m == 75, cesaro, ones, cfg)
        assert (before.verdict, before.tail_max) == (Verdict.CONVERGES, 0.0)
        first = density_limit(lambda m, n: m == 76, cesaro, ones, cfg)
        assert (first.verdict, first.tail_max) == (Verdict.DIVERGES, 1.0)

    def test_trace_view_matches_the_columns(self, deferred, ones):
        v = density_limit(squares_pred, deferred, ones, DensityConfig(horizon=60))
        rows = [(p.m, p.normalizer, p.count, p.density) for p in v.trace]
        assert rows == list(
            zip(v.ms.tolist(), v.R.tolist(), v.count.tolist(), v.density.tolist())
        )
        assert [type(x) for x in rows[0]] == [int, float, int, float]
