"""Operator series accuracy, lifted variants and the condition checker."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import mpmath
except ImportError:  # only the oracle tests need it
    mpmath = None

from dnstat.density import Verdict
from dnstat import cli, korovkin
from dnstat.korovkin import (
    CUBE,
    DIST_HALF,
    EXP,
    IDENTITY,
    KorovkinConfig,
    ONE,
    OperatorSequence,
    Perturbation,
    SQUARE,
    SampledFunction,
    SeriesCapError,
    audit_quadratic_moment,
    function_preset,
    korovkin_check,
    lifted_operator,
    mkz_apply,
    sup_distance,
)
from dnstat.rvmodel import LIMIT, cdf, model_preset
from dnstat.schedules import schedule_preset, weight_preset


def rational_series(f_exact, m: int, y: Fraction, terms: int) -> float:
    """Exact-series oracle: rational partial sum of the operator's series.

    The coefficient recurrence c_{t+1} = c_t y (m+t+1)/(t+1) and the
    nodes t/(t+m) are evaluated in exact rational arithmetic; with a few
    hundred terms past the coefficient peak the neglected tail is far
    below float resolution for the (m, y) used here.
    """
    total = Fraction(0)
    coef = (Fraction(1) - y) ** (m + 1)
    for t in range(terms):
        node = Fraction(t, t + m) if t else Fraction(0)
        total += f_exact(node) * coef
        coef = coef * y * (m + t + 1) / (t + 1)
    return float(total)


class TestSeriesAgainstRationalOracle:
    @pytest.mark.parametrize(
        "m,y,terms",
        [(5, Fraction(1, 2), 700), (50, Fraction(1, 2), 900), (10, Fraction(1, 4), 400),
         (3, Fraction(3, 4), 1200)],
    )
    def test_second_power(self, m, y, terms):
        oracle = rational_series(lambda u: u * u, m, y, terms)
        assert mkz_apply(SQUARE, m, float(y), 1e-12) == pytest.approx(oracle, abs=5e-12)

    def test_third_power(self):
        oracle = rational_series(lambda u: u**3, 12, Fraction(2, 5), 600)
        assert mkz_apply(CUBE, 12, 0.4, 1e-12) == pytest.approx(oracle, abs=5e-12)


class TestOperatorPointValues:
    @pytest.mark.parametrize("m", [1, 7, 80])
    def test_normalization(self, m):
        assert mkz_apply(ONE, m, 0.5, 1e-10) == pytest.approx(1.0, abs=1e-10)

    def test_first_moment_is_reproduced(self):
        assert mkz_apply(IDENTITY, 50, 0.3, 1e-10) == pytest.approx(0.3, abs=1e-8)

    def test_endpoints_short_circuit(self):
        assert mkz_apply(CUBE, 9, 1.0) == 1.0
        assert mkz_apply(CUBE, 9, 0.0) == 0.0

    @pytest.mark.parametrize("y", [-0.1, 1.0000001, 2.0])
    def test_domain_rejected(self, y):
        with pytest.raises(ValueError):
            mkz_apply(ONE, 5, y)

    def test_bad_tail_tol_rejected(self):
        with pytest.raises(ValueError):
            mkz_apply(ONE, 5, 0.5, 0.0)

    @pytest.mark.parametrize("tail_tol", [1.0, 2.0, float("nan")])
    def test_tail_tol_must_lie_below_one(self, tail_tol):
        # NaN must fail the check itself, not run on into the series cap
        with pytest.raises(ValueError, match=r"tail_tol must lie in \(0, 1\)"):
            mkz_apply(ONE, 5, 0.5, tail_tol)

    def test_series_cap_is_enforced(self):
        # So close to 1 that certifying the tail would need ~5e12 terms.
        with pytest.raises(SeriesCapError, match="did not certify"):
            mkz_apply(ONE, 500, 1.0 - 1e-10)


class TestOperatorInvariants:
    def test_normalization_and_first_moment_on_the_default_grid(self):
        grid = np.linspace(0.0, 1.0, 257)
        ops = lifted_operator(Perturbation.NONE, 1e-10)
        target_one = np.ones_like(grid)
        for m in range(1, 201):
            table = ops.batch([m], [ONE, IDENTITY], grid)[0]
            assert float(np.max(np.abs(table[0] - target_one))) <= 1e-10
            assert float(np.max(np.abs(table[1] - grid))) <= 1e-10 + 1e-9

    def test_second_moment_decay(self):
        grid = np.linspace(0.0, 1.0, 257)
        ops = lifted_operator(Perturbation.NONE, 1e-10)
        dev = {}
        for m in (25, 50, 100, 200):
            table = ops.batch([m], [SQUARE], grid)[0]
            dev[m] = float(np.max(np.abs(table[0] - grid * grid)))
        assert dev[50] <= dev[25] + 1e-6
        assert dev[100] <= dev[50] + 1e-6
        assert dev[200] <= dev[100] + 1e-6
        assert dev[200] <= 0.5 * dev[100] + 1e-4

    def test_linearity_and_positivity_on_generated_functions(self):
        rng = random.Random(12345)
        ys = [0.0, 0.2, 0.45, 0.7, 0.95, 1.0]
        for _ in range(100):
            coeffs = [rng.uniform(0.0, 2.0) for _ in range(4)]

            def poly(u, c=tuple(coeffs)):
                return c[0] + c[1] * u + c[2] * u * u + c[3] * u * u * u

            f = SampledFunction(poly, "poly")
            g = SampledFunction(lambda u: np.exp(u) * 0.5, "halfexp")
            a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            combo = SampledFunction(lambda u, _a=a, _b=b: _a * poly(u) + _b * g(u), "combo")
            m = rng.randint(1, 40)
            y = rng.choice(ys)
            left = mkz_apply(combo, m, y, 1e-11)
            right = a * mkz_apply(f, m, y, 1e-11) + b * mkz_apply(g, m, y, 1e-11)
            assert abs(left - right) <= 1e-9
            # positivity: non-negative input, non-negative output
            assert mkz_apply(f, m, y, 1e-11) >= -1e-9


def lifted_value(perturbation: Perturbation, n: int, y: float) -> float:
    """One point of a lifted operator applied to the constant 1."""
    return lifted_operator(perturbation).batch([n], [ONE], np.array([y]))[0, 0, 0]


class TestLiftedOperators:
    def test_cdf_factor_at_one_half(self):
        assert lifted_value(Perturbation.CDF_FACTOR, 9, 0.5) == pytest.approx(1.5, abs=1e-9)

    def test_bare_is_the_identity_lift(self):
        assert lifted_value(Perturbation.NONE, 9, 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_null_set_factor_depends_on_squareness(self):
        assert lifted_value(Perturbation.NULL_SET, 8, 0.5) == pytest.approx(1.0, abs=1e-9)
        assert lifted_value(Perturbation.NULL_SET, 9, 0.5) == pytest.approx(2.0, abs=1e-9)

    def test_cdf_factor_jumps_at_the_right_edge(self):
        assert lifted_value(Perturbation.CDF_FACTOR, 4, 1.0) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 4, 17, 60])
    def test_cdf_factor_is_one_plus_the_limit_cdf_bit_for_bit(self, n):
        grid = np.linspace(0.0, 1.0, 65)
        model = model_preset("example2").model
        factor = np.array([1.0 + cdf(model, LIMIT, float(y)) for y in grid])
        base = lifted_operator(Perturbation.NONE).batch([n], [ONE, CUBE], grid)[0]
        lifted = lifted_operator(Perturbation.CDF_FACTOR).batch([n], [ONE, CUBE], grid)[0]
        assert np.array_equal(lifted, base * factor)

    @pytest.mark.parametrize("tail_tol", [0.0, -1.0, 1.0, 2.0, float("nan")])
    def test_bad_tail_tol_rejected(self, tail_tol):
        with pytest.raises(ValueError, match="tail_tol"):
            lifted_operator(Perturbation.NONE, tail_tol)
        with pytest.raises(ValueError, match="tail_tol"):
            KorovkinConfig(tail_tol=tail_tol)


def nb_log_coef(m: int, y, t: int):
    """log c_t = log C(m+t, t) + (m+1) log(1-y) + t log y, in mpmath."""
    return (mpmath.loggamma(m + t + 1) - mpmath.loggamma(t + 1) - mpmath.loggamma(m + 1)
            + (m + 1) * mpmath.log1p(-y) + t * mpmath.log(y))


def nb_tail_mass(m: int, y, t: int, side: int):
    """Mass of the coefficients beyond index t on one side, t included, in mpmath.

    Right: P(T >= t) = I_y(t, m+1); left: P(T <= t) = I_{1-y}(m+1, t+1).
    mpmath's betainc does not converge for m in the thousands near y = 1,
    so there the terms are summed from t outward until the geometric bound
    on the rest is below 1e-6 of the sum.
    """
    if m <= 200:
        if side > 0:
            return mpmath.betainc(t, m + 1, 0, y, regularized=True)
        return mpmath.betainc(m + 1, t + 1, 0, 1 - y, regularized=True)
    total, s, c = mpmath.mpf(0), t, mpmath.exp(nb_log_coef(m, y, t))
    while s >= 0:
        total += c
        rho = y * (m + s + 1) / (s + 1) if side > 0 else s / (y * (m + s))
        c *= rho
        s += side
        if rho < 1 and c * rho / (1 - rho) < total * mpmath.mpf("1e-6"):
            break
    return total


def tail_bound_ok(m: int, y, t: int, side: int, log_budget: float) -> bool:
    """The window certificate at edge t, evaluated in mpmath."""
    rho = y * (m + t + 1) / (t + 1) if side > 0 else t / (y * (m + t))
    if side < 0 and t == 0:
        return True
    return rho < 1 and nb_log_coef(m, y, t) + mpmath.log(rho / (1 - rho)) <= log_budget


@pytest.mark.skipif(mpmath is None, reason="the kernel oracle needs mpmath")
class TestKernelAgainstMpmath:
    """The two-sided certified windows and the table they give, against mpmath."""

    TOL = 1e-12
    POINTS = [1e-9, 1 / 64, 0.5, 63 / 64, 1 - 1e-4]

    @pytest.mark.parametrize("m", [1, 2, 10, 200, 3000])
    def test_windows_rows_and_masses(self, m):
        mpmath.mp.dps = 30
        log_budget = math.log(self.TOL) - math.log(2.0)  # sup|f| = 1, half per side
        ys = np.array(self.POINTS)
        if m >= 200:  # y = 1 - 1e-4 needs more than the cap there
            with pytest.raises(SeriesCapError, match="1000000"):
                korovkin._windows(np.full(len(ys), float(m)), ys, log_budget)
            ys = ys[:-1]
        t0, t1 = korovkin._windows(np.full(len(ys), float(m)), ys, log_budget)
        ops = lifted_operator(Perturbation.NONE, self.TOL)
        table = ops.batch([m], [ONE, IDENTITY, SQUARE], ys)[0]
        slack = self.TOL + 1e-12 + 1e-13 * m
        for y, a, b, col in zip(ys.tolist(), t0.tolist(), t1.tolist(), table.T):
            yv = mpmath.mpf(y)
            # edges are certified, and one step inward is not
            assert tail_bound_ok(m, yv, b, +1, log_budget)
            assert not tail_bound_ok(m, yv, b - 1, +1, log_budget)
            assert tail_bound_ok(m, yv, a, -1, log_budget)
            assert not tail_bound_ok(m, yv, a + 1, -1, log_budget)
            left = nb_tail_mass(m, yv, a - 1, -1) if a > 0 else mpmath.mpf(0)
            right = nb_tail_mass(m, yv, b + 1, +1)
            assert left <= math.exp(log_budget) and right <= math.exp(log_budget)
            assert abs(col[0] - 1.0) <= slack
            assert abs(col[1] - y) <= slack
            if m <= 50:
                # M(z^2) = 1 - 2(1-y) + (1-y)^(m+1) 2F1(m, m; m+1; y), since
                # C(m+t, t)/(t+m) = C(m+t-1, t)/m
                exact = 1 - 2 * (1 - yv) + (1 - yv) ** (m + 1) * mpmath.hyp2f1(m, m, m + 1, yv)
                assert abs(col[2] - float(exact)) <= slack

    @pytest.mark.parametrize("m", [1, 10, 200])
    def test_the_table_sums_exactly_the_half_budget_windows(self, m):
        # At tail_tol 1e-6 the dropped mass dwarfs rounding, so 1 - M(1, y)
        # must equal the mass outside windows certified for half the budget.
        mpmath.mp.dps = 30
        tol, ys = 1e-6, np.array([1 / 64, 0.5, 63 / 64])
        t0, t1 = korovkin._windows(np.full(len(ys), float(m)), ys, math.log(tol) - math.log(2.0))
        table = lifted_operator(Perturbation.NONE, tol).batch([m], [ONE], ys)[0]
        for y, a, b, value in zip(ys.tolist(), t0.tolist(), t1.tolist(), table[0]):
            yv = mpmath.mpf(y)
            outside = nb_tail_mass(m, yv, b + 1, +1)
            if a > 0:
                outside += nb_tail_mass(m, yv, a - 1, -1)
            assert abs((1.0 - value) - float(outside)) <= 1e-12 + 1e-13 * m

    def test_second_moment_identity_matches_the_rational_series(self):
        exact = 1 - 2 * mpmath.mpf(0.5) + mpmath.mpf(0.5) ** 6 * mpmath.hyp2f1(5, 5, 6, 0.5)
        assert float(exact) == pytest.approx(rational_series(lambda u: u * u, 5, Fraction(1, 2), 700), abs=1e-15)

    def test_a_window_past_the_cap_is_a_named_error(self):
        ops = lifted_operator(Perturbation.NONE, 1e-8)
        with pytest.raises(SeriesCapError, match=r"m=1, y=0\.99999.*cap of 1000000 terms t1 - t0 \+ 1"):
            ops.batch([1], [ONE], np.array([0.5, 1 - 1e-5]))

    def test_checker_names_the_index_of_a_cap_error(self):
        cfg = KorovkinConfig(horizon=30, grid_points=200_001)
        with pytest.raises(SeriesCapError, match="operator evaluation failed at n=1"):
            korovkin_check(lifted_operator(Perturbation.NONE, cfg.tail_tol), "dnp", [CUBE],
                           schedule_preset("stretch"), weight_preset("ones"), cfg)


class TestWindowSearch:
    """The table-free window search, tied to the node table the kernel sums."""

    @given(
        m=st.integers(min_value=1, max_value=3000),
        extra=st.lists(st.floats(min_value=1e-9, max_value=0.99), max_size=4),
        sup=st.sampled_from([0.5, 1.0, math.e]),
    )
    @settings(max_examples=60, deadline=None)
    def test_edges_are_certified_and_one_step_inward_is_not(self, m, extra, sup):
        ys = np.array([1e-9, 1 / 64, 0.5, 63 / 64, *extra])
        log_budget = math.log(1e-8) - math.log(sup) - math.log(2.0)  # korovkin's default tail_tol
        t0, t1 = korovkin._windows(np.full(len(ys), float(m)), ys, log_budget)
        nodes = korovkin._Nodes(m, np.maximum(t0 - 1, 0), t1 + 1, korovkin._Scratch())
        mode = np.floor(ys * m / (1.0 - ys))

        def certified(t, y, side):
            t = t.astype(np.float64)
            log_c = (m + 1) * np.log1p(-y) + t * np.log(y) + nodes.log_binom(t)
            return korovkin._certified(m, t, y, log_c, side, log_budget)

        assert certified(t1, ys, 1.0).all() and certified(t0, ys, -1.0).all()
        right, left = t1 > mode, t0 < mode  # an edge at the mode has no inward step
        assert not certified(t1[right] - 1, ys[right], 1.0).any()
        assert not certified(t0[left] + 1, ys[left], -1.0).any()

    def test_log_binom_takes_an_index_array_and_a_matrix_of_nodes(self):
        ms = np.array([1.0, 15.0, 16.0, 3000.0])
        t = np.tile([0.0, 1.0, 7.0, 15.0, 16.0, 511.0, 200000.0], (len(ms), 1))
        got = korovkin._log_binom(ms[:, None], t)
        for m, row, ts in zip(ms.tolist(), got, t):
            assert np.array_equal(row, korovkin._log_binom(int(m), ts))
            exact = [math.log(math.comb(int(m + v), int(v))) for v in ts]
            assert row.tolist() == pytest.approx(exact, rel=1e-13, abs=1e-15)


class TestIndexBlocks:
    """One batch over a block of indices equals one batch per index, bit for bit."""

    GRID = np.linspace(0.0, 1.0, 65)
    FNS = [ONE, IDENTITY, SQUARE, EXP, DIST_HALF]

    @pytest.mark.parametrize("perturbation", list(Perturbation))
    def test_a_block_equals_one_index_at_a_time(self, perturbation):
        per_call = korovkin._BLOCK_ROWS // (2 * len(self.GRID))
        ns = np.arange(per_call - 3, 2 * per_call + 4)  # squares, and two checker blocks' edges
        ops = lifted_operator(perturbation, 1e-8)
        block = ops.batch(ns, self.FNS, self.GRID)
        assert block.shape == (len(ns), len(self.FNS), len(self.GRID))
        one_by_one = np.stack([ops.batch([n], self.FNS, self.GRID)[0] for n in ns.tolist()])
        assert np.array_equal(block, one_by_one)

    def test_checker_traces_cross_block_boundaries_unchanged(self):
        cfg = KorovkinConfig(horizon=60, grid_points=len(self.GRID))
        ops = lifted_operator(Perturbation.NULL_SET, cfg.tail_tol)
        report = korovkin_check(
            ops, "dnp", [EXP], schedule_preset("stretch"), weight_preset("ones"), cfg
        )
        n_max = len(report.sup_trace("1"))
        assert n_max > 2 * (korovkin._BLOCK_ROWS // (2 * len(self.GRID)))
        fns = [ONE, IDENTITY, SQUARE, EXP]
        targets = np.stack([fn.values(self.GRID) for fn in fns])
        for n in range(1, n_max + 1):
            sup = np.max(np.abs(ops.batch([n], fns, self.GRID)[0] - targets), axis=1)
            assert [report.sup_trace(fn.label)[n - 1] for fn in fns] == sup.tolist()

    def test_checker_names_the_failing_index_inside_a_block(self):
        base = lifted_operator(Perturbation.NONE, 1e-8)

        def batch(ns, fns, ys):
            if 7 in np.asarray(ns):
                raise ArithmeticError("no value at 7")
            return base.batch(ns, fns, ys)

        cfg = KorovkinConfig(horizon=30, grid_points=9)
        with pytest.raises(RuntimeError, match="operator evaluation failed at n=7: no value at 7"):
            korovkin_check(OperatorSequence("mkz", batch), "dnp", [CUBE],
                           schedule_preset("stretch"), weight_preset("ones"), cfg)

    @pytest.mark.parametrize("ns", [5, [0, 1], [[1, 2]]])
    def test_indices_must_be_a_flat_array_of_positive_integers(self, ns):
        with pytest.raises(ValueError, match="operator indices"):
            lifted_operator(Perturbation.NONE).batch(ns, [ONE], self.GRID)


class TestSampledValues:
    GRID = np.linspace(0.0, 1.0, 5)

    def test_scalar_only_function_names_its_label(self):
        f = SampledFunction(lambda y: math.exp(y), "scalar-exp")
        with pytest.raises(ValueError, match="^function 'scalar-exp' failed on an array") as info:
            f.values(self.GRID)
        assert isinstance(info.value.__cause__, TypeError)
        assert f(0.5) == math.exp(0.5)  # one point still calls it directly

    def test_result_shapes(self):
        # An array of the grid's shape comes back as it is, a scalar fills the
        # grid, and any other shape is an error.
        out = np.zeros(5)
        assert SampledFunction(lambda y: out, "zeros").values(self.GRID) is out
        assert SampledFunction(lambda y: 2.0, "two").values(self.GRID).tolist() == [2.0] * 5
        column = SampledFunction(lambda y: np.reshape(y, (-1, 1)), "column")
        with pytest.raises(ValueError, match=r"^function 'column' returned shape \(5, 1\)"):
            column.values(self.GRID)

    def test_checker_names_a_scalar_only_conclusion_function(self):
        cfg = KorovkinConfig(horizon=20, grid_points=9)
        ops = lifted_operator(Perturbation.NONE, cfg.tail_tol)
        f = SampledFunction(lambda y: math.exp(y), "scalar-exp")
        with pytest.raises(ValueError, match="'scalar-exp'"):
            korovkin_check(ops, "dnp", [f], schedule_preset("stretch"), weight_preset("ones"), cfg)


class TestSupDistance:
    def test_identical_functions(self):
        assert sup_distance(IDENTITY, IDENTITY) == 0.0

    def test_identity_versus_square(self):
        assert sup_distance(IDENTITY, SQUARE) == 0.25

    def test_constants(self):
        assert sup_distance(ONE, SampledFunction(lambda y: y * 0.0, "0")) == 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sup_distance(ONE, ONE, grid=[])


class TestSeveralLifts:
    """One check over a tuple of lifts: the same reports as one check per lift."""

    F_LIST = [CUBE, EXP, DIST_HALF]
    CFG = KorovkinConfig(horizon=30, tolerance=0.07)  # 90 indices: two blocks

    @staticmethod
    def counted(monkeypatch) -> list:
        korovkin._last_base.clear()
        calls = []
        real = korovkin._mkz_table
        monkeypatch.setattr(korovkin, "_mkz_table", lambda *a: calls.append(a) or real(*a))
        return calls

    def check(self, ops, tag, cfg=None):
        return korovkin_check(ops, tag, self.F_LIST, schedule_preset("stretch"),
                              weight_preset("ones"), cfg or self.CFG)

    @pytest.mark.parametrize("first, second", list(itertools.product(Perturbation, repeat=2)))
    def test_a_tuple_call_equals_one_call_per_lift(self, first, second):
        tol = self.CFG.tail_tol
        pair = (lifted_operator(first, tol), lifted_operator(second, tol))
        reports = self.check(pair, ("dnp", "dndc"))
        assert isinstance(reports, tuple) and len(reports) == 2
        for perturbation, tag, report in zip((first, second), ("dnp", "dndc"), reports):
            korovkin._last_base.clear()  # the single call recomputes its tables
            single = self.check(lifted_operator(perturbation, tol), tag)
            assert (report.operator, report.mode_tag, report.notes) == (
                single.operator, single.mode_tag, single.notes)
            labels = list(report.conditions) + list(report.conclusions)
            assert labels == ["1", "z", "z^2", "y^3", "e^y", "|y-1/2|"]
            for role in ("conditions", "conclusions"):
                for label, v in getattr(report, role).items():
                    w = getattr(single, role)[label]
                    assert v.verdict is w.verdict
                    assert v.tail_max == w.tail_max
                    np.testing.assert_array_equal(report.sup_trace(label), single.sup_trace(label))

    def test_repro_makes_one_base_table_per_block(self, monkeypatch, capsys):
        calls = self.counted(monkeypatch)
        assert cli.main(["repro", "--skip-diff"]) == 0
        # 600 indices in blocks of 63 on the 65-point grid, shared by both lifts.
        assert len(calls) == 10
        assert "cdffactor condition 1: diverges" in capsys.readouterr().out

    def test_one_lift_makes_one_base_table_per_block(self, monkeypatch):
        calls = self.counted(monkeypatch)
        self.check(lifted_operator(Perturbation.NULL_SET, self.CFG.tail_tol), "dnp")
        assert [a[1].tolist() for a in calls] == [list(range(1, 64)), list(range(64, 91))]

    def test_memo_recomputes_when_any_input_changes(self, monkeypatch):
        calls = self.counted(monkeypatch)
        ns, fns, grid = np.arange(3, 9), [ONE, CUBE, EXP], np.linspace(0.0, 1.0, 17)
        bare = lifted_operator(Perturbation.NONE, 1e-8)
        table = bare.batch(ns, fns, grid)
        lifted_operator(Perturbation.CDF_FACTOR, 1e-8).batch(ns, fns, grid)
        assert len(calls) == 1
        changed = [
            (bare, ns + 1, fns, grid),
            (bare, ns, fns[::-1], grid),
            (bare, ns, fns, np.linspace(0.0, 1.0, 9)),
            (lifted_operator(Perturbation.NONE, 1e-9), ns, fns, grid),
        ]
        for ops, *inputs in changed:
            bare.batch(ns, fns, grid)  # the memo holds the first key again
            before = len(calls)
            ops.batch(*inputs)
            assert len(calls) == before + 1
        # The rows in the new order, not the memo's (their last bits may move).
        np.testing.assert_allclose(bare.batch(ns, fns[::-1], grid), table[:, ::-1], rtol=1e-14)
        # A caller cannot write into the memoized table; a lift's product is its own.
        with pytest.raises(ValueError, match="read-only"):
            bare.batch(ns, fns, grid)[0, 0, 0] = 5.0
        lifted_operator(Perturbation.NULL_SET, 1e-8).batch(ns, fns, grid)[...] = 0.0
        np.testing.assert_array_equal(bare.batch(ns, fns, grid), table)

    def test_cap_error_names_the_first_index(self):
        cfg = KorovkinConfig(horizon=30, grid_points=200_001)
        lifts = (Perturbation.NULL_SET, Perturbation.CDF_FACTOR)
        pair = tuple(lifted_operator(p, cfg.tail_tol) for p in lifts)
        with pytest.raises(SeriesCapError, match="operator evaluation failed at n=1"):
            self.check(pair, ("dnp", "dndc"), cfg)

    @pytest.mark.parametrize("ops, tags", [
        ((Perturbation.NONE, Perturbation.NULL_SET), ("dnp",)),
        ((Perturbation.NONE,), "dnp"),
        (Perturbation.NONE, ("dnp",)),
        ((), ()),
    ])
    def test_one_mode_tag_per_sequence(self, ops, tags):
        if isinstance(ops, tuple):
            ops = tuple(lifted_operator(p) for p in ops)
        else:
            ops = lifted_operator(ops)
        with pytest.raises(ValueError, match="operator sequence"):
            self.check(ops, tags)


class TestConditionChecker:
    def test_bare_operator_all_conditions_converge(self):
        cfg = KorovkinConfig(horizon=60, grid_points=33, tail_tol=1e-8, tolerance=0.05)
        report = korovkin_check(
            lifted_operator(Perturbation.NONE, cfg.tail_tol),
            "dnp",
            [CUBE],
            schedule_preset("stretch"),
            weight_preset("ones"),
            cfg,
        )
        assert report.all_conditions_converge
        for verdict in report.conditions.values():
            assert verdict.tail_max == 0.0
        assert report.conclusions["y^3"].verdict is Verdict.CONVERGES

    def test_null_set_instance_converges_despite_square_spikes(self):
        cfg = KorovkinConfig(horizon=100, grid_points=33, tail_tol=1e-8, tolerance=0.07)
        report = korovkin_check(
            lifted_operator(Perturbation.NULL_SET, cfg.tail_tol),
            "dnp",
            [CUBE],
            schedule_preset("stretch"),
            weight_preset("ones"),
            cfg,
        )
        assert report.all_conditions_converge
        # the sup trace spikes at square indices, ordinary convergence fails
        trace = report.sup_trace("1")
        assert trace[8] >= 0.5 and trace[24] >= 0.5
        assert trace[7] <= 1e-6

    def test_cdf_factor_instance_reports_the_measured_divergence(self):
        cfg = KorovkinConfig(horizon=40, grid_points=17, tail_tol=1e-8)
        report = korovkin_check(
            lifted_operator(Perturbation.CDF_FACTOR, cfg.tail_tol),
            "dndc",
            [CUBE],
            schedule_preset("stretch"),
            weight_preset("ones"),
            cfg,
        )
        assert not report.all_conditions_converge
        assert report.conditions["1"].verdict is Verdict.DIVERGES
        # grid includes y = 1 where the lift factor is 2
        assert report.conditions["1"].extras["levels"][0] == pytest.approx(1.0, abs=1e-8)
        assert report.notes

    def test_report_echoes_its_configuration(self):
        cfg = KorovkinConfig(horizon=30, grid_points=9, tail_tol=1e-6)
        report = korovkin_check(
            lifted_operator(Perturbation.NONE, cfg.tail_tol),
            "dndc",
            [EXP],
            schedule_preset("cesaro"),
            weight_preset("ones"),
            cfg,
        )
        payload = report.to_json_dict()
        assert payload["mode"] == "dndc"
        assert payload["grid_points"] == 9
        assert payload["horizon"] == 30
        assert payload["normalizer_mode"] == "regular"

    def test_mode_tag_is_validated(self):
        cfg = KorovkinConfig(horizon=30, grid_points=9)
        with pytest.raises(ValueError, match="mode tag"):
            korovkin_check(
                lifted_operator(Perturbation.NONE), "dnq", [CUBE], schedule_preset("cesaro"),
                weight_preset("ones"), cfg,
            )

    def test_conclusion_list_must_be_nonempty(self):
        cfg = KorovkinConfig(horizon=30, grid_points=9)
        with pytest.raises(ValueError, match="conclusion"):
            korovkin_check(
                lifted_operator(Perturbation.NONE), "dnp", [], schedule_preset("cesaro"),
                weight_preset("ones"), cfg,
            )


class TestMomentFormAudit:
    def test_series_value_matches_the_rational_oracle(self):
        oracle = rational_series(lambda u: u * u, 50, Fraction(1, 2), 900)
        audit = audit_quadratic_moment()
        assert audit.series_value == pytest.approx(oracle, abs=1e-11)

    def test_quoted_form_disagrees_and_is_logged(self):
        audit = audit_quadratic_moment()
        assert audit.quoted_value == pytest.approx(0.25 * 52 / 51 + 0.5 / 51, rel=1e-12)
        assert not audit.agrees
        note = audit.note()
        assert note is not None and "erratum" in note

    def test_function_presets_resolve(self):
        assert function_preset("y^3") is CUBE
        assert function_preset("|y-1/2|") is DIST_HALF
        with pytest.raises(ValueError):
            function_preset("sinh")
