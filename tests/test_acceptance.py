"""Acceptance gate: one test per criterion, each printing a pass line.

Runtime limits are part of the criteria and asserted; the suites use
seeded generators so every run checks the same instances.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import numpy as np

from dnstat.density import DensityConfig, Verdict, window_means
from dnstat.detectors import (
    DetectorConfig,
    markov_bound_check,
    st_dndc,
    st_dnm,
    st_dnp,
)
from dnstat.korovkin import (
    CUBE,
    DIST_HALF,
    EXP,
    IDENTITY,
    KorovkinConfig,
    ONE,
    Perturbation,
    SQUARE,
    audit_quadratic_moment,
    korovkin_check,
    lifted_operator,
)
from dnstat.rvmodel import (
    LIMIT,
    MODEL_ZOO,
    abs_moment,
    cdf,
    exceedance_prob,
    model_preset,
    sample,
)
from dnstat.schedules import (
    schedule_preset,
    tabulated,
    weight_preset,
    WeightScheme,
)

from conftest import floor_r, one_window

HORIZON = 10_000


def _elapsed_ok(t0: float, budget: float) -> float:
    dt = time.perf_counter() - t0
    assert dt <= budget, f"runtime {dt:.1f}s exceeded the {budget:.0f}s budget"
    return dt


def test_criterion_1_example1_reproduction():
    t0 = time.perf_counter()
    bundle = model_preset("example1")
    assert abs(exceedance_prob(bundle.model, 16, 0.5) - 0.25) <= 1e-12
    assert abs(abs_moment(bundle.model, 100, 1.0) - 10.0) <= 1e-12

    cfg = DetectorConfig(eps=0.5, delta=0.5, r=1.0, density=DensityConfig(horizon=HORIZON))
    v_prob = st_dnp(bundle.model, bundle.schedule, bundle.weights, cfg)
    assert v_prob.verdict is Verdict.CONVERGES
    assert v_prob.tail_max <= 0.02

    v_mean = st_dnm(bundle.model, bundle.schedule, bundle.weights, cfg)
    assert v_mean.verdict is Verdict.DIVERGES
    # The raw moment sequence the detector thresholds, up to its k_max.
    k_max = int(floor_r(bundle.schedule, bundle.weights, cfg.density).max())
    moments = bundle.model.laws(k_max).moment(1.0)
    assert moments[10_000 - 1] == 100.0
    assert moments[len(moments) - 1] > 100.0  # still growing at the trace end

    dt = _elapsed_ok(t0, 10.0)
    print(
        f"\nACCEPTANCE 1 PASS: example1 exact values, probability converges "
        f"(tail {v_prob.tail_max:.2e}), mean diverges; {dt:.1f}s"
    )


def test_criterion_2_example2_reproduction():
    t0 = time.perf_counter()
    bundle = model_preset("example2")
    for m in (1, 3, 17, 400):
        assert exceedance_prob(bundle.model, m, 0.5) == 1.0
    assert cdf(bundle.model, LIMIT, -0.5) == 0.0
    assert cdf(bundle.model, LIMIT, 0.5) == 0.5
    assert cdf(bundle.model, LIMIT, 1.5) == 1.0

    cfg = DetectorConfig(eps=0.5, delta=0.5, density=DensityConfig(horizon=HORIZON))
    v_dist = st_dndc(bundle.model, bundle.schedule, bundle.weights, cfg)
    assert v_dist.verdict is Verdict.CONVERGES
    for point_verdict in v_dist.extras["points"].values():
        assert point_verdict.tail_max == 0.0

    v_prob = st_dnp(bundle.model, bundle.schedule, bundle.weights, cfg)
    assert v_prob.verdict is Verdict.DIVERGES
    tail = v_prob.ms >= cfg.density.tail_start()
    assert np.array_equal(v_prob.density[tail], np.floor(v_prob.R[tail]) / v_prob.R[tail])

    dt = _elapsed_ok(t0, 5.0)
    print(
        f"\nACCEPTANCE 2 PASS: example2 exact values, distribution converges with "
        f"zero per-point tails, probability diverges at floor(R)/R; {dt:.1f}s"
    )


def test_criterion_3_mkz_operator(tmp_path):
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 257)
    ops = lifted_operator(Perturbation.NONE, 1e-10)
    dev2 = {}
    for m in (10, 50, 100, 200):
        table = ops.batch([m], [ONE, IDENTITY, SQUARE], grid)[0]
        dev_one = float(np.max(np.abs(table[0] - 1.0)))
        dev_id = float(np.max(np.abs(table[1] - grid)))
        dev2[m] = float(np.max(np.abs(table[2] - grid * grid)))
        if m in (10, 50, 200):
            assert dev_one <= 1e-8
            assert dev_id <= 1e-8
    assert dev2[200] <= 0.55 * dev2[100]

    audit = audit_quadratic_moment(m=50, y=0.5, tail_tol=1e-10, threshold=1e-3)
    erratum_note = audit.note()
    if erratum_note is not None:
        # Disagreement is documented, never a failure.
        with open(tmp_path / "erratum.log", "w") as fh:
            fh.write(erratum_note + "\n")

    dt = _elapsed_ok(t0, 30.0)
    state = "agreement" if audit.agrees else "erratum logged"
    print(
        f"\nACCEPTANCE 3 PASS: operator normalization and first moment within 1e-8, "
        f"second-moment decay {dev2[200] / dev2[100]:.3f} <= 0.55, closed form: {state}; "
        f"{dt:.1f}s"
    )


def test_criterion_4_korovkin_positive_instance():
    t0 = time.perf_counter()
    cfg = KorovkinConfig(horizon=200)
    (report,) = korovkin_check(
        (lifted_operator(Perturbation.NULL_SET, 1e-8),),
        [CUBE, EXP, DIST_HALF],
        schedule_preset("stretch"),
        weight_preset("ones"),
        cfg,
    )
    for label, verdict in report.conditions.items():
        assert verdict.verdict is Verdict.CONVERGES, label
        assert verdict.tail_max <= 0.05, label
    for label, verdict in report.conclusions.items():
        assert verdict.verdict is Verdict.CONVERGES, label

    dt = _elapsed_ok(t0, 60.0)
    tails = {k: round(v.tail_max, 4) for k, v in report.conditions.items()}
    print(
        f"\nACCEPTANCE 4 PASS: null-set lifted operator converges on all conditions "
        f"{tails} and on y^3, e^y, |y-1/2|; {dt:.1f}s"
    )


def test_criterion_5_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(20260808)

    # Markov bound on 100 generated instances.
    for _ in range(100):
        spec = rng.choice(MODEL_ZOO)
        model = model_preset(spec).model
        m = rng.randint(1, 100)
        eps = rng.choice([0.25, 0.5, 1.0, 2.0])
        r = rng.choice([1.0, 1.5, 2.0, 3.0])
        check = markov_bound_check(model, m, eps, r)
        assert check.ok, (spec, m, eps, r)

    # Implication chains on 100 generated instances.
    non_vacuous_mp = 0
    non_vacuous_pd = 0
    for _ in range(100):
        spec = rng.choice(MODEL_ZOO)
        bundle = model_preset(spec)
        schedule = (
            bundle.schedule
            if rng.random() < 0.5
            else schedule_preset(rng.choice(["cesaro", "example", "stretch"]))
        )
        cfg = DetectorConfig(
            eps=rng.choice([0.25, 0.5, 1.0]),
            delta=rng.choice([0.25, 0.5]),
            r=rng.choice([1.0, 2.0]),
            density=DensityConfig(horizon=2000),
        )
        v_mean = st_dnm(bundle.model, schedule, bundle.weights, cfg)
        v_prob = st_dnp(bundle.model, schedule, bundle.weights, cfg)
        if v_mean.verdict is Verdict.CONVERGES:
            non_vacuous_mp += 1
            assert v_prob.verdict is Verdict.CONVERGES, (spec, cfg.eps, cfg.delta, cfg.r)
        if v_prob.verdict is Verdict.CONVERGES:
            non_vacuous_pd += 1
            v_dist = st_dndc(bundle.model, schedule, bundle.weights, cfg)
            assert v_dist.verdict is Verdict.CONVERGES, (spec, cfg.eps, cfg.delta)
    assert non_vacuous_mp >= 20
    assert non_vacuous_pd >= 20

    # Regular-mode constant preservation on 100 generated instances.
    for _ in range(100):
        schedule = schedule_preset(rng.choice(["cesaro", "example", "stretch"]))
        m = rng.randint(2, 200)
        c = rng.uniform(-1000.0, 1000.0)
        kind = rng.choice(["ones", "identity", "table"])
        if kind == "table":
            top = schedule.y(m)
            values = [rng.uniform(0.1, 5.0) for _ in range(top + 1)]
            weights = WeightScheme(
                tabulated(values, "rand-e"), tabulated(values[::-1], "rand-g"), label="rand"
            )
        else:
            weights = weight_preset(kind)
        t = window_means(lambda n: np.full(len(n), c), one_window(schedule, m), weights, 1)[1]
        assert abs(t[0] - c) <= 1e-12

    # Monte Carlo against exact values, 1e6 samples per check.  The
    # 1e-12 floor covers zero-variance moment cases where the float mean
    # of identical values wobbles below the last digit.
    checks = 0
    for i in range(100):
        spec = MODEL_ZOO[i % len(MODEL_ZOO)]
        model = model_preset(spec).model
        m = rng.randint(1, 50)
        batch = sample(model, m, 1_000_000, seed=31_000 + i)
        kind = ("exceedance", "moment", "cdf")[i % 3]
        if kind == "exceedance":
            eps = rng.choice([0.25, 0.5, 1.0])
            exact = exceedance_prob(model, m, eps)
            est = batch.exceedance_prob(eps)
        elif kind == "moment":
            r = rng.choice([1.0, 2.0])
            exact = abs_moment(model, m, r)
            est = batch.abs_moment(r)
        else:
            t = rng.uniform(-0.25, 2.25)
            exact = cdf(model, m, t)
            est = batch.cdf(m, t)
        tol = max(4.0 * est.stderr, 1e-12 * (1.0 + abs(exact)))
        assert abs(est.estimate - exact) <= tol, (spec, m, kind)
        checks += 1
    assert checks == 100

    dt = _elapsed_ok(t0, 120.0)
    print(
        f"\nACCEPTANCE 5 PASS: markov bound 100/100, mean=>probability "
        f"({non_vacuous_mp} non-vacuous), probability=>distribution ({non_vacuous_pd} "
        f"non-vacuous), constant preservation 100/100, Monte Carlo 100/100; {dt:.1f}s"
    )


def test_criterion_6_repro_determinism():
    t0 = time.perf_counter()
    runs = [
        subprocess.run(
            [sys.executable, "-m", "dnstat.cli", "repro"],
            capture_output=True,
            timeout=300,
        )
        for _ in range(2)
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    assert b"snapshot: match" in runs[0].stdout
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE 6 PASS: repro output byte-identical across runs and matches "
          f"the committed snapshot; {dt:.1f}s")
