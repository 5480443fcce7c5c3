"""Window, weight and mean transform behaviour."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnstat.density import DensityConfig, _pair_sums, level_density_limit, window_means
from dnstat.schedules import (
    Affine,
    DeferredSchedule,
    DegenerateNormalizerError,
    NormalizerMode,
    ScheduleError,
    WeightError,
    WeightScheme,
    WeightSeq,
    identity_seq,
    schedule_preset,
    tabulated,
    weight_preset,
)

from conftest import (
    brute_normalizer,
    brute_weight,
    fsum_normalizer,
    fsum_window_mean,
    one_window,
    reference_bounds,
)


def identity_array(n: np.ndarray) -> np.ndarray:
    return n.astype(np.float64)


def constant_array(c: float):
    return lambda n: np.full(len(n), c)


class TestWindow:
    # Window m is x_m+1 .. y_m.
    def test_deferred_window_m1(self, deferred):
        assert deferred.bounds(1) == (1, 3)

    def test_deferred_window_m2(self, deferred):
        assert deferred.bounds(2) == (3, 7)

    def test_smallest_plain_window(self, cesaro):
        assert cesaro.bounds(1) == (0, 1)

    def test_violation_names_the_index(self):
        bad = DeferredSchedule(Affine(5, 0), Affine(2, 0), "bad")
        with pytest.raises(ScheduleError, match="m=1"):
            bad.bounds(1)

    def test_index_below_one_rejected(self, cesaro):
        with pytest.raises(ScheduleError):
            cesaro.bounds(0)

    def test_negative_x_rejected(self):
        bad = DeferredSchedule(Affine(1, -5), Affine(2, 0), "bad")
        with pytest.raises(ScheduleError):
            bad.bounds(1)


class TestScheduleInvariants:
    @pytest.mark.parametrize("name", ["cesaro", "example", "stretch"])
    def test_presets_validate(self, name):
        schedule_preset(name).validate(500)

    @pytest.mark.parametrize("threshold", [10, 100, 1000])
    def test_window_top_is_unbounded(self, deferred, threshold):
        assert deferred.bounds_array(np.arange(1, 1001))[1].max() > threshold

    def test_stalled_schedule_rejected(self):
        flat = DeferredSchedule(Affine(0, 0), Affine(0, 7), "flat")
        with pytest.raises(ScheduleError, match="growth"):
            flat.validate(100)


class TestConvolution:
    """R_m of ``window_means``."""

    def test_unit_weights_both_modes(self, cesaro, ones):
        assert window_means(identity_array, cesaro, ones, 5)[0][4] == 5.0
        assert window_means(identity_array, cesaro, ones, 5, NormalizerMode.LITERAL)[0][4] == 5.0

    def test_index_pairing_differs_between_modes(self):
        # e(n) = n, g = 1 on the window 1..3 separates the conventions.
        sched = DeferredSchedule(Affine(0, 0), Affine(0, 3), "w3")
        idw = weight_preset("identity")
        assert window_means(identity_array, sched, idw, 3, NormalizerMode.LITERAL)[0][2] == 6.0
        assert window_means(identity_array, sched, idw, 3, NormalizerMode.REGULAR)[0][2] == 3.0

    def test_zero_weights_yield_degenerate_normalizer(self, cesaro):
        zeros = WeightScheme(tabulated([0.0] * 50), tabulated([0.0] * 50), label="zeros")
        r = _pair_sums(zeros, NormalizerMode.REGULAR, *cesaro.bounds_array(np.array([5])))
        assert r.tolist() == [0.0]
        # R_m = g(m) on cesaro when e = (1, 0, 0, ...): m = 5 is the first zero.
        gap = WeightScheme(
            tabulated([1.0] + [0.0] * 49), tabulated([0.0] + [1.0] * 4 + [0.0] * 45), label="gap"
        )
        with pytest.raises(DegenerateNormalizerError, match="m=5"):
            window_means(constant_array(1.0), cesaro, gap, 5)

    @given(m=st.integers(min_value=1, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_loop(self, m):
        sched = schedule_preset("example")
        idw = weight_preset("identity")
        for mode in NormalizerMode:
            r = window_means(identity_array, sched, idw, m, mode)[0]
            assert r[-1] == pytest.approx(
                brute_normalizer(sched, idw, m, mode), rel=1e-13, abs=0.0
            )
            assert r[-1] == fsum_normalizer(sched, idw, m, mode)

    @given(m=st.integers(min_value=1, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_constant_weights_make_modes_agree_exactly(self, m):
        sched = schedule_preset("example")
        halves = WeightScheme(
            tabulated([0.5] * 500, "h"), tabulated([0.25] * 500, "q"), label="halves"
        )
        regular = window_means(identity_array, sched, halves, m)[0]
        literal = window_means(identity_array, sched, halves, m, NormalizerMode.LITERAL)[0]
        assert np.array_equal(regular, literal)


class TestWindowWeight:
    def test_default_form(self, deferred):
        # The mean of the indicator of n = 7 is w(3, 7) / R_3, w(m, n) = e(y_m - n) * g(n).
        idw = weight_preset("identity")
        yv = deferred.y(3)
        r, t = window_means(lambda n: (n == 7).astype(np.float64), deferred, idw, 3)
        assert t[2] == float(yv - 7) / r[2]

    def test_out_of_domain_index_has_zero_weight(self, deferred):
        idw = weight_preset("identity")
        # floor(R_3) = 15 but y(3) = 11: n = 12..15 have no defined weight
        # pairing, and n = 11 has weight e(0) = 0, so 10 indices count.
        cfg = DensityConfig(horizon=10, tail_fraction=1.0)
        v = level_density_limit(np.full(400, 1e300), 1.0, deferred, idw, cfg)
        assert (v.R[2], deferred.y(3), v.count[2]) == (15.0, 11, 10)

    @pytest.mark.parametrize("bad, fault", [
        (math.inf, "not finite"), (math.nan, "not finite"), (-math.inf, "negative"),
    ])
    def test_weights_that_are_not_finite_name_the_index(self, bad, fault):
        with pytest.raises(WeightError, match=f"'t' {fault} at n=2"):
            tabulated([1.0, 1.0, bad, 1.0], "t")
        computed = WeightSeq(lambda n: np.where(n == 2, bad, 1.0), "f")
        with pytest.raises(WeightError, match=f"'f' {fault} at n=2"):
            computed.array(4)
        constant = WeightSeq(lambda n: bad, "c", constant=bad)
        with pytest.raises(WeightError, match=f"'c' {fault} at n=0"):
            constant.array(4)

    @pytest.mark.parametrize("bad", ["1.5", True, np.True_, None, b"2"])
    def test_values_that_are_not_numbers_are_rejected(self, bad):
        message = f"^each entry of weights 't' must be a number, got {re.escape(repr(bad))}$"
        with pytest.raises(WeightError, match=message):
            tabulated([1.5, bad], "t")

    def test_real_numbers_of_any_type_are_accepted(self):
        values = [1, 2.5, np.int64(3), np.float32(0.25), Fraction(1, 4)]
        assert tabulated(values).array(4).tolist() == [1.0, 2.5, 3.0, 0.25, 0.25]
        assert tabulated(np.arange(3)).array(2).tolist() == [0.0, 1.0, 2.0]

    def test_tabulated_range_is_enforced(self):
        short = tabulated([1.0, 2.0], "short")
        with pytest.raises(WeightError, match="end at index 1"):
            short.array(5)

    def test_tabulated_keeps_its_values_once(self):
        # The values live in the array fn indexes; the dataclass, which the
        # window plan cache hashes, holds only their count.
        seq = tabulated(range(80_000), "long")
        assert seq.length == 80_000 and seq.array(79_999)[-1] == 79_999.0
        assert all(not isinstance(v, (tuple, list)) for v in vars(seq).values())
        assert seq != tabulated(range(80_000), "long")  # equal by fn, as before


class TestDnMean:
    """t_m of ``window_means``."""

    def test_constant_sequence_regular(self, cesaro, ones):
        assert window_means(constant_array(7.0), cesaro, ones, 9)[1][8] == 7.0

    def test_identity_plain_window(self, cesaro, ones):
        assert window_means(identity_array, cesaro, ones, 4)[1][3] == 2.5

    def test_literal_denominator_case(self):
        # Direct-summation oracle: numerator sum of w(m,n) seq(n) over the
        # window, denominator the literal convolution.
        sched = DeferredSchedule(Affine(0, 0), Affine(0, 3), "w3")
        idw = weight_preset("identity")
        num = sum((3 - n) * 1.0 * n for n in range(1, 4))
        den = sum(n * 1.0 for n in range(1, 4))
        assert num / den == 4.0 / 6.0
        got = window_means(identity_array, sched, idw, 3, NormalizerMode.LITERAL)[1][2]
        assert got == pytest.approx(num / den, rel=1e-15)

    @given(
        c=st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
        m=st.integers(min_value=2, max_value=120),
        name=st.sampled_from(["cesaro", "example", "stretch"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_regular_mode_preserves_constants(self, c, m, name):
        # One window: cesaro's window 1 weighs e(0) * g(1) = 0 under identity weights.
        sched = one_window(schedule_preset(name), m)
        idw = weight_preset("identity")
        assert abs(window_means(constant_array(c), sched, idw, 1)[1][0] - c) <= 1e-12

    def test_numerator_uses_window_weights_in_both_modes(self, deferred):
        idw = weight_preset("identity")
        m = 4
        xv, yv = deferred.bounds(m)
        num = sum(brute_weight(deferred, idw, m, n) * float(n) for n in range(xv + 1, yv + 1))
        for mode in NormalizerMode:
            r, t = window_means(identity_array, deferred, idw, m, mode)
            assert t[-1] == pytest.approx(num / r[-1], rel=1e-13)
            assert fsum_window_mean(identity_seq, deferred, idw, m, mode) == (r[-1], t[-1])


class TestAffineSpec:
    def test_spec_rendering(self):
        assert Affine(2, -1).spec() == "2m-1"
        assert Affine(1, 0).spec() == "m"
        assert Affine(0, 0).spec() == "0"



def _bounds_or_error(fn):
    """fn()'s (x, y) pairs as Python ints, or the message of the ScheduleError it raised."""
    try:
        return [tuple(map(int, pair)) for pair in fn()]
    except ScheduleError as exc:
        return str(exc)


class TestBoundsArray:
    @given(
        ax=st.integers(-4, 4),
        bx=st.integers(-20, 20),
        ay=st.integers(-4, 4),
        by=st.integers(-20, 20),
        start=st.integers(-2, 3),
        count=st.integers(0, 40),
    )
    @example(ax=3, bx=0, ay=2, by=5, start=1, count=40)  # x >= y from m = 5 on
    @example(ax=-1, bx=3, ay=1, by=1, start=1, count=40)  # x < 0 from m = 4 on
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_index_loop(self, ax, bx, ay, by, start, count):
        schedule = DeferredSchedule(Affine(ax, bx), Affine(ay, by), "random")
        ms = list(range(start, start + count))
        want = _bounds_or_error(lambda: reference_bounds(schedule, ms))
        got = _bounds_or_error(lambda: zip(*schedule.bounds_array(np.array(ms, dtype=np.int64))))
        assert got == want
        if ms and isinstance(want, list):
            assert schedule.bounds(ms[-1]) == want[-1]

    def test_arrays_are_int64(self, deferred):
        x, y = deferred.bounds_array(np.arange(1, 4))
        assert x.dtype == y.dtype == np.int64
        assert x.tolist() == [1, 3, 5] and y.tolist() == [3, 7, 11]

    @pytest.mark.parametrize(
        "a, top, ok",
        [(2**62, 1, True), (2**62, 2, False), (2**62, 4, False), (2**70, 1, False)],
    )
    def test_affine_overflow_names_the_schedule(self, a, top, ok):
        # |a| * max(m) + |b| must stay below 2^63; int64 arithmetic would wrap.
        schedule = DeferredSchedule(Affine(0, 0), Affine(a, 0), "huge")
        ms = np.arange(1, top + 1)
        if ok:
            assert schedule.bounds_array(ms)[1].tolist() == [a * m for m in range(1, top + 1)]
        else:
            with pytest.raises(ScheduleError, match=r"^schedule 'huge': affine .*overflows int64"):
                schedule.bounds_array(ms)
