"""Window, weight and mean transform behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnstat.schedules import (
    Affine,
    DeferredSchedule,
    DegenerateNormalizerError,
    NormalizerMode,
    ScheduleError,
    WeightError,
    WeightScheme,
    constant_seq,
    convolution,
    dn_mean,
    identity_seq,
    schedule_preset,
    tabulated,
    weight_preset,
    window,
    window_weight,
)

from conftest import brute_normalizer, reference_bounds


class TestWindow:
    def test_deferred_window_m1(self, deferred):
        assert list(window(deferred, 1)) == [2, 3]

    def test_deferred_window_m2(self, deferred):
        assert list(window(deferred, 2)) == [4, 5, 6, 7]

    def test_smallest_plain_window(self, cesaro):
        assert list(window(cesaro, 1)) == [1]

    def test_violation_names_the_index(self):
        bad = DeferredSchedule(Affine(5, 0), Affine(2, 0), "bad")
        with pytest.raises(ScheduleError, match="m=1"):
            window(bad, 1)

    def test_index_below_one_rejected(self, cesaro):
        with pytest.raises(ScheduleError):
            window(cesaro, 0)

    def test_negative_x_rejected(self):
        bad = DeferredSchedule(Affine(1, -5), Affine(2, 0), "bad")
        with pytest.raises(ScheduleError):
            window(bad, 1)


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
    def test_unit_weights_both_modes(self, cesaro, ones):
        assert convolution(cesaro, ones, 5) == 5.0
        assert convolution(cesaro, ones, 5, NormalizerMode.LITERAL) == 5.0

    def test_index_pairing_differs_between_modes(self):
        # e(n) = n, g = 1 on the window 1..3 separates the conventions.
        sched = DeferredSchedule(Affine(0, 0), Affine(0, 3), "w3")
        idw = weight_preset("identity")
        assert convolution(sched, idw, 3, NormalizerMode.LITERAL) == 6.0
        assert convolution(sched, idw, 3, NormalizerMode.REGULAR) == 3.0

    def test_zero_weights_yield_degenerate_normalizer(self, cesaro):
        zeros = WeightScheme(tabulated([0.0] * 50), tabulated([0.0] * 50), label="zeros")
        assert convolution(cesaro, zeros, 5) == 0.0
        with pytest.raises(DegenerateNormalizerError, match="m=5"):
            dn_mean(constant_seq(1.0), cesaro, zeros, 5)

    @given(m=st.integers(min_value=1, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_loop(self, m):
        sched = schedule_preset("example")
        idw = weight_preset("identity")
        for mode in NormalizerMode:
            assert convolution(sched, idw, m, mode) == pytest.approx(
                brute_normalizer(sched, idw, m, mode), rel=1e-13, abs=0.0
            )

    @given(m=st.integers(min_value=1, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_constant_weights_make_modes_agree_exactly(self, m):
        sched = schedule_preset("example")
        halves = WeightScheme(
            tabulated([0.5] * 500, "h"), tabulated([0.25] * 500, "q"), label="halves"
        )
        assert convolution(sched, halves, m) == convolution(
            sched, halves, m, NormalizerMode.LITERAL
        )


class TestWindowWeight:
    def test_default_form(self, deferred):
        idw = weight_preset("identity")
        yv = deferred.y(3)
        assert window_weight(deferred, idw, 3, 7) == float(yv - 7)

    def test_out_of_domain_index_has_zero_weight(self, cesaro):
        idw = weight_preset("identity")
        # y(3) = 3, so n = 5 has no defined weight pairing.
        assert window_weight(cesaro, idw, 3, 5) == 0.0

    def test_tabulated_range_is_enforced(self):
        short = tabulated([1.0, 2.0], "short")
        with pytest.raises(WeightError, match="end at index 1"):
            short(5)


class TestDnMean:
    def test_constant_sequence_regular(self, cesaro, ones):
        assert dn_mean(constant_seq(7.0), cesaro, ones, 9) == 7.0

    def test_identity_plain_window(self, cesaro, ones):
        assert dn_mean(identity_seq, cesaro, ones, 4) == 2.5

    def test_literal_denominator_case(self):
        # Direct-summation oracle: numerator sum of w(m,n) seq(n) over the
        # window, denominator the literal convolution.
        sched = DeferredSchedule(Affine(0, 0), Affine(0, 3), "w3")
        idw = weight_preset("identity")
        num = sum((3 - n) * 1.0 * n for n in range(1, 4))
        den = sum(n * 1.0 for n in range(1, 4))
        assert num / den == 4.0 / 6.0
        got = dn_mean(identity_seq, sched, idw, 3, NormalizerMode.LITERAL)
        assert got == pytest.approx(num / den, rel=1e-15)

    @given(
        c=st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
        m=st.integers(min_value=2, max_value=120),
        name=st.sampled_from(["cesaro", "example", "stretch"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_regular_mode_preserves_constants(self, c, m, name):
        sched = schedule_preset(name)
        idw = weight_preset("identity")
        assert abs(dn_mean(constant_seq(c), sched, idw, m) - c) <= 1e-12

    def test_numerator_uses_window_weights_in_both_modes(self, deferred):
        idw = weight_preset("identity")
        m = 4
        num = sum(
            window_weight(deferred, idw, m, n) * float(n) for n in window(deferred, m)
        )
        for mode in NormalizerMode:
            r = convolution(deferred, idw, m, mode)
            assert dn_mean(identity_seq, deferred, idw, m, mode) == pytest.approx(
                num / r, rel=1e-13
            )


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
