"""Acceptance suite: ten end-to-end checks of the library's core claims.

Each test is one criterion run at its stated scale and tolerance; pytest -v
gives one pass/fail line per criterion.  Diagnostic values print with -s.
All runs are seeded (master seed 7 unless noted) and deterministic.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from minweight.bounds import (
    cheap_set_prob_bound,
    mean_to_median_ratio_bound,
    split_cost,
    split_cost_minimum,
    upper_tail_bound,
)
from minweight.dual import (
    talagrand_certificate_check,
    talagrand_product_bound,
    talagrand_threshold,
)
from minweight.families import SpanningTreeFamily, WeightAssignment
from minweight.montecarlo import (
    ASSIGNMENT_LIMIT,
    SPANNING_TREE_LIMIT,
    ExperimentConfig,
    coupling_experiment,
    fit_exponent,
    run,
    split_experiment,
    summarize,
    tail_experiment,
)
from minweight.oracles import oracle_suite
from minweight.rngs import stream
from minweight.weights import BaseLaw, WeightSpec, sample


def test_criterion_01_spanning_tree_limit_constant():
    """Trees, q=1, n=200, 1000 trials: mean within 5% of zeta(3), < 30 s."""
    start = time.perf_counter()
    records = run(ExperimentConfig(family="trees", n=200, trials=1000))
    elapsed = time.perf_counter() - start
    mean = summarize([rec.value for rec in records]).mean
    rel = abs(mean - SPANNING_TREE_LIMIT) / SPANNING_TREE_LIMIT
    print(f"mean={mean:.6f} target={SPANNING_TREE_LIMIT:.6f} "
          f"rel={rel:.4f} elapsed={elapsed:.1f}s")
    assert rel <= 0.05
    assert elapsed < 30.0


def test_criterion_02_assignment_limit_constant():
    """Matchings, q=1, n=100, 500 trials: mean within 5% of pi^2/6, < 60 s."""
    start = time.perf_counter()
    records = run(ExperimentConfig(family="matchings", n=100, trials=500))
    elapsed = time.perf_counter() - start
    mean = summarize([rec.value for rec in records]).mean
    rel = abs(mean - ASSIGNMENT_LIMIT) / ASSIGNMENT_LIMIT
    print(f"mean={mean:.6f} target={ASSIGNMENT_LIMIT:.6f} "
          f"rel={rel:.4f} elapsed={elapsed:.1f}s")
    assert rel <= 0.05
    assert elapsed < 60.0


def test_criterion_03_fluctuation_exponent():
    """Tree optimum std over n in {50,100,200,400}, 2000 trials each:
    log-log slope in [-0.65, -0.35], and below the -q/(2(q+1)) decay cap
    -0.25 with 0.1 headroom."""
    config = ExperimentConfig(
        family="trees", n_grid=(50, 100, 200, 400), trials=2000
    )
    records = run(config)
    points = []
    for n in config.sizes:
        std = summarize([rec.value for rec in records if rec.n == n]).std
        points.append((n, std))
    fit = fit_exponent(points)
    print(f"points={[(n, round(s, 5)) for n, s in points]} slope={fit.slope:.4f}")
    assert -0.65 <= fit.slope <= -0.35
    assert fit.slope <= -0.25 + 0.1


def test_criterion_04_patch_cost_scaling():
    """Exact-patch cost at r=ceil(sqrt(n)) stays within a constant factor of
    r/n across n in {100,200,400}; the component patch never beats it."""
    for n in (100, 200, 400):
        r = math.ceil(math.sqrt(n))
        records = run(
            ExperimentConfig(family="trees", n=n, trials=300, kind="patch", r=r)
        )
        mean_cost = summarize([rec.patch_cost for rec in records]).mean
        normalized = mean_cost / (r / n)
        dominated = sum(
            1 for rec in records if rec.component_cost < rec.patch_cost
        )
        print(f"n={n} r={r}: normalized={normalized:.3f} "
              f"component_below_exact={dominated}")
        assert 0.1 <= normalized <= 10.0
        assert dominated == 0


def test_criterion_05_coupling_soundness():
    """10^6 coupled triples per (q, base, s): the sure inequality never
    fails, and the marginal/independence statistics clear alpha=0.01."""
    for q in (0.5, 1.0, 2.0):
        for base in (BaseLaw.UNIFORM_POWER, BaseLaw.EXPONENTIAL_POWER):
            for s in (0.1, 0.5):
                report = coupling_experiment(
                    WeightSpec(q=q, base=base), s, 1_000_000, master_seed=7
                )
                print(f"q={q} base={base.value} s={s}: "
                      f"violations={report.violations} "
                      f"min_p={min(report.ks_x_p, report.ks_green_p, report.ks_red_p, report.ks_pair_p, report.pearson_p, report.chi2_p):.4f}")
                assert report.violations == 0
                assert report.marginals_ok
                assert report.independence_ok


def test_criterion_06_oracle_equivalence():
    """Trees n<=5 and matchings n<=6, 100 seeded weight vectors: all five
    operations match exhaustive enumeration exactly."""
    checks = oracle_suite(vectors=100, master_seed=7)
    assert len(checks) == 50
    for check in checks:
        assert check.trials == 100
        assert check.agreed == check.trials, (
            f"{check.family} n={check.n} {check.operation}: "
            f"{check.agreed}/{check.trials}"
        )
    print("all 50 solver/oracle comparisons agreed on 100 vectors each")


def test_criterion_07_closed_form_cross_checks():
    """Split-cost minimum vs numeric minimization (1e-9 rel, 1000 inputs);
    orthant volumes exact at q=1 and within 3 SE of Monte Carlo at q=2;
    tail and mean/median constants at their closed-form values."""
    rng = stream(7, 701)
    worst = 0.0
    for _ in range(1000):
        b = float(rng.uniform(0.01, 10.0))
        a = b * float(rng.uniform(1.0, 100.0))
        p = float(rng.uniform(0.05, 5.0))
        res = split_cost_minimum(a, b, p)
        num = minimize_scalar(
            lambda s: split_cost(a, b, p, s),
            bounds=(1e-9, 1.0 - 1e-9),
            method="bounded",
            options={"xatol": 1e-13},
        )
        worst = max(worst, abs(res.minimum - num.fun) / num.fun)
    print(f"worst split-cost relative error: {worst:.2e}")
    assert worst <= 1e-9

    assert cheap_set_prob_bound(1.0, 2, 1.0) == 0.5
    assert cheap_set_prob_bound(1.0, 3, 1.0) == 0.16666666666666666

    mc = stream(7, 702)
    trials = 1_000_000
    x = mc.random((trials, 2)) ** 0.5  # q = 2 power-law base
    p_hat = float(np.mean(x.sum(axis=1) <= 0.5))
    p = cheap_set_prob_bound(2.0, 2, 0.5)
    se = math.sqrt(p * (1.0 - p) / trials)
    print(f"orthant volume q=2: exact={p:.6f} mc={p_hat:.6f} se={se:.2e}")
    assert abs(p_hat - p) <= 3.0 * se

    assert upper_tail_bound(2.0, 1.0) == 0.5
    assert abs(mean_to_median_ratio_bound(1.0) - 2.0 / math.log(2.0)) <= 1e-12


def test_criterion_08_sure_split_inequality():
    """Trees n=100, q=1, s=0.1, r=14, 200 trials: the coupled two-round
    bound holds surely, with zero violations."""
    config = ExperimentConfig(
        family="trees", n=100, trials=200, kind="split", r=14, s=0.1
    )
    report = split_experiment(config, run(config))
    print(f"violations={report.violations}/200 "
          f"median value={report.median_value:.4f} "
          f"composite={report.composite_bound:.4f}")
    assert report.violations == 0


def test_criterion_09_tail_bound_never_violated():
    """Trees n=50, q in {1,2}, 5000 trials: empirical survival at every
    grid point t stays below 2^(1-t^q) plus 3 binomial SE."""
    for q in (1.0, 2.0):
        config = ExperimentConfig(
            family="trees", n=50, trials=5000,
            spec=WeightSpec(q=q, base=BaseLaw.UNIFORM_POWER),
            t_grid=(1.0, 1.25, 1.5, 2.0, 2.5, 3.0),
        )
        report = tail_experiment(config, run(config))
        for j, t in enumerate(report.t_grid):
            limit = report.bound[j] + 3.0 * report.std_error[j]
            assert report.survival[j] <= limit, f"q={q} t={t}"
        print(f"q={q}: survival={np.round(report.survival, 4).tolist()} "
              f"bound={np.round(report.bound, 4).tolist()}")
        assert bool(report.within_bound.all())


def test_criterion_10_certified_concentration():
    """The budget-defect variable moves by at most 1 under any single
    weight change (200 perturbations), freezing the witness pins it, and
    the two-sided product bound exp(-t^2/4) holds on an n=50 ensemble."""
    fam = SpanningTreeFamily(50)
    spec = WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER)
    w = WeightAssignment(sample(spec, stream(7, 801), fam.ground_size))
    report = talagrand_certificate_check(
        fam, w, SPANNING_TREE_LIMIT, perturbations=200, master_seed=7
    )
    print(f"base defect={report.base_defect} max|delta|={report.max_abs_delta} "
          f"witness={report.witness_size}")
    assert report.perturbations == 200
    assert report.max_abs_delta <= 1
    assert report.lipschitz_ok
    assert report.nonwitness_increase_ok
    assert report.certificate_ok

    records = run(
        ExperimentConfig(
            family="trees", n=50, trials=2000, kind="dual",
            budget=SPANNING_TREE_LIMIT,
        )
    )
    defects = np.array([rec.defect for rec in records])
    ell = 49
    for t in (1.0, 2.0, 3.0):
        threshold = talagrand_threshold(ell, t)
        p_low = float((defects <= 0).mean())
        p_high = float((defects >= threshold).mean())
        var_low = p_low * (1.0 - p_low) / defects.size
        var_high = p_high * (1.0 - p_high) / defects.size
        se = math.sqrt(p_low ** 2 * var_high + p_high ** 2 * var_low)
        product = p_low * p_high
        bound = talagrand_product_bound(t)
        print(f"t={t}: product={product:.6f} bound={bound:.4f} se={se:.2e}")
        assert product <= bound + 3.0 * se
