"""Closed-form bound functions against independent numeric oracles.

Oracles: scipy.optimize.minimize_scalar for the split-cost minimum,
mpmath high-precision summation for the first-moment Markov total,
scipy.integrate.quad for the mean-to-median integral, and seeded Monte
Carlo for the orthant volume.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from minweight.bounds import (
    cheap_set_prob_bound,
    concentration_upper_bound,
    first_moment_lower_bound,
    fluctuation_exponent_bound,
    mean_to_median_ratio_bound,
    required_patch_radius,
    split_cost,
    split_cost_minimum,
    upper_tail_bound,
)
from minweight.dual import talagrand_product_bound, talagrand_threshold
from minweight.rngs import stream


class TestSplitCostMinimum:
    def test_reference_case(self):
        res = split_cost_minimum(4.0, 1.0, 1.0)
        assert res.split == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert res.minimum == pytest.approx(9.0, rel=1e-15)
        assert res.secant_bound == pytest.approx(10.0, rel=1e-15)

    def test_symmetric_case(self):
        res = split_cost_minimum(1.0, 1.0, 1.0)
        assert res.split == 0.5
        assert res.minimum == pytest.approx(4.0, rel=1e-15)

    def test_p_zero_is_constant(self):
        res = split_cost_minimum(3.0, 2.0, 0.0)
        assert res.minimum == pytest.approx(5.0, rel=1e-15)
        assert res.split == pytest.approx(2.0 / 5.0, rel=1e-15)

    def test_matches_numeric_minimizer(self):
        rng = stream(41)
        for _ in range(150):
            b = float(rng.uniform(0.01, 10.0))
            a = b * float(rng.uniform(1.0, 50.0))
            p = float(rng.uniform(0.1, 4.0))
            res = split_cost_minimum(a, b, p)
            num = minimize_scalar(
                lambda s: split_cost(a, b, p, s),
                bounds=(1e-9, 1.0 - 1e-9),
                method="bounded",
                options={"xatol": 1e-13},
            )
            assert res.minimum == pytest.approx(num.fun, rel=1e-9)
            assert res.split == pytest.approx(num.x, abs=1e-6)

    def test_is_global_minimum_on_grid(self):
        res = split_cost_minimum(7.0, 0.5, 2.0)
        for s in np.linspace(0.001, 0.999, 999):
            assert split_cost(7.0, 0.5, 2.0, s) >= res.minimum * (1 - 1e-12)
        assert split_cost(7.0, 0.5, 2.0, res.split) == \
            pytest.approx(res.minimum, rel=1e-12)

    def test_secant_dominates_minimum(self):
        rng = stream(42)
        for _ in range(200):
            b = float(rng.uniform(0.01, 5.0))
            a = b * float(rng.uniform(1.0, 100.0))
            p = float(rng.uniform(0.0, 4.0))
            res = split_cost_minimum(a, b, p)
            assert res.secant_bound >= res.minimum * (1 - 1e-12)

    def test_secant_tight_at_equal_args(self):
        for p in (0.5, 1.0, 2.0):
            res = split_cost_minimum(3.0, 3.0, p)
            assert res.secant_bound == pytest.approx(res.minimum, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            split_cost_minimum(1.0, 2.0, 1.0)  # a < b
        with pytest.raises(ValueError):
            split_cost_minimum(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            split_cost_minimum(1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            split_cost_minimum(math.inf, 1.0, 1.0)
        with pytest.raises(ValueError):
            split_cost(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            split_cost(1.0, 1.0, 1.0, 1.0)


class TestConcentrationUpperBound:
    def test_delegates_bit_exactly(self):
        rng = stream(43)
        for _ in range(100):
            level = float(rng.uniform(0.01, 5.0))
            scale = float(rng.uniform(0.01, 5.0))
            q = float(rng.uniform(0.25, 4.0))
            hi, lo = max(level, scale), min(level, scale)
            assert concentration_upper_bound(level, scale, q) == \
                split_cost_minimum(hi, lo, 1.0 / q).minimum

    def test_closed_form(self):
        for level, scale, q in [(1.2, 0.3, 1.0), (0.8, 0.8, 2.0), (2.0, 0.1, 0.5)]:
            e = q / (q + 1.0)
            direct = (level ** e + scale ** e) ** (1.0 / e)
            assert concentration_upper_bound(level, scale, q) == \
                pytest.approx(direct, rel=1e-12)

    def test_reference_value(self):
        got = concentration_upper_bound(1.2021, 0.05, 1.0)
        assert got == 1.7424264218864818

    def test_degenerate_scales(self):
        assert concentration_upper_bound(0.7, 0.0, 1.0) == 0.7
        assert concentration_upper_bound(0.0, 0.3, 2.0) == 0.3
        # q = 1 with equal arguments collapses to 4L
        assert concentration_upper_bound(0.25, 0.25, 1.0) == \
            pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            concentration_upper_bound(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            concentration_upper_bound(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            concentration_upper_bound(1.0, -1.0, 1.0)


class TestRequiredPatchRadius:
    def test_known_values(self):
        assert required_patch_radius(199, 0.05) == \
            pytest.approx(69.059436570956422, rel=1e-15)
        assert required_patch_radius(1, 0.05) == \
            pytest.approx(math.sqrt(8.0 * math.log(20.0)), rel=1e-15)

    def test_inverse_e_collapses(self):
        for ell in (1, 10, 100):
            assert required_patch_radius(ell, 1.0 / math.e) == \
                pytest.approx(math.sqrt(8.0 * ell), rel=1e-14)

    def test_monotone(self):
        assert required_patch_radius(100, 0.01) > required_patch_radius(100, 0.1)
        assert required_patch_radius(200, 0.05) > required_patch_radius(100, 0.05)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            required_patch_radius(0, 0.05)
        with pytest.raises(ValueError):
            required_patch_radius(10, 0.0)
        with pytest.raises(ValueError):
            required_patch_radius(10, 1.0)


class TestFirstMomentLowerBound:
    CASE = dict(q=1.0, ell0=16, ell1=64, beta=0.5, c=1.0, t=1.0)

    def test_frozen_reference(self):
        res = first_moment_lower_bound(**self.CASE)
        assert res.c0 == math.e
        assert res.c1 == pytest.approx(0.35783549024530675, rel=1e-12)
        assert res.l_lower == pytest.approx(0.52656128073101027, rel=1e-12)
        assert res.failure_prob_bound == math.exp(-16.0)
        assert res.log_markov_sum < -16.0

    def test_markov_sum_against_mpmath(self):
        res = first_moment_lower_bound(**self.CASE)
        mpmath.mp.dps = 60
        L = mpmath.mpf(res.l_lower)
        q = mpmath.mpf(1)
        total = mpmath.mpf(0)
        for m in range(16, 65):
            total += (
                mpmath.mpf(m) ** (mpmath.mpf("0.5") * m)
                * mpmath.gamma(1 + q) ** m
                / mpmath.gamma(1 + q * m)
                * L ** (q * m)
            )
        assert res.log_markov_sum == pytest.approx(float(mpmath.log(total)), rel=1e-10)

    def test_c0_past_gamma_overflow_against_mpmath(self):
        # Gamma(201) overflows a double, but c0 = c^(1/q) Gamma(1+q)^(1/q) e/q
        # is near 1, and the Markov total still meets the tail exp(-t ell0).
        res = first_moment_lower_bound(q=200.0, ell0=5, ell1=10, beta=0.5, c=3.0,
                                       t=0.1)
        with mpmath.workdps(60):
            q = mpmath.mpf(200)
            want = 3 ** (1 / q) * mpmath.gamma(1 + q) ** (1 / q) * mpmath.e / q
        assert res.c0 == pytest.approx(float(want), rel=1e-14)
        assert res.log_markov_sum < -0.1 * 5

    def test_refined_below_coarse(self):
        res = first_moment_lower_bound(**self.CASE)
        assert np.all(res.log_size_bounds_refined <= res.log_size_bounds + 1e-9)
        assert res.sizes[0] == 16 and res.sizes[-1] == 64
        assert res.small_sets_dominate  # beta < q

    def test_geometric_constant_is_maximal(self):
        res = first_moment_lower_bound(**self.CASE)
        q, ell0, t = 1.0, 16, 1.0

        def log_excess(c1):
            return q * ell0 * math.log(c1) - math.log1p(-c1 ** q) + t * ell0

        assert log_excess(res.c1) <= 1e-9
        assert log_excess(res.c1 * (1.0 + 1e-6)) > 0.0
        # At q = 1e12 the condition holds up to 1: c1 stops at its cap.
        capped = first_moment_lower_bound(1e12, 5, 10, 0.5, 3.0, 0.1)
        assert capped.c1 == 1.0 - 1e-12

    def test_beta_at_q_flattens_scale(self):
        a = first_moment_lower_bound(q=1.0, ell0=8, ell1=32, beta=1.0, c=1.0, t=1.0)
        b = first_moment_lower_bound(q=1.0, ell0=8, ell1=64, beta=1.0, c=1.0, t=1.0)
        assert not a.small_sets_dominate
        assert a.l_lower == b.l_lower  # exponent 1 - beta/q vanishes

    def test_beta_above_q_uses_large_side(self):
        a = first_moment_lower_bound(q=1.0, ell0=8, ell1=32, beta=2.0, c=1.0, t=1.0)
        b = first_moment_lower_bound(q=1.0, ell0=8, ell1=64, beta=2.0, c=1.0, t=1.0)
        assert b.l_lower < a.l_lower
        c_ = first_moment_lower_bound(q=1.0, ell0=8, ell1=32, beta=0.5, c=1.0, t=1.0)
        d = first_moment_lower_bound(q=1.0, ell0=8, ell1=64, beta=0.5, c=1.0, t=1.0)
        assert c_.l_lower == d.l_lower  # small sets dominate; ell1 is idle

    def test_rejects_bad_inputs(self):
        good = self.CASE
        for key, bad in [("q", 0.0), ("ell0", 0), ("beta", 0.0), ("c", 0.0),
                         ("t", 0.0)]:
            with pytest.raises(ValueError):
                first_moment_lower_bound(**{**good, key: bad})
        with pytest.raises(ValueError):
            first_moment_lower_bound(q=1.0, ell0=32, ell1=16, beta=0.5, c=1.0, t=1.0)
        with pytest.raises(ValueError):
            # tail condition unreachable by any representable c1
            first_moment_lower_bound(q=1.0, ell0=1, ell1=2, beta=0.5, c=1.0, t=1000.0)


class TestCheapSetProbBound:
    def test_exact_simplex_volumes(self):
        assert cheap_set_prob_bound(1.0, 2, 1.0) == 0.5
        assert cheap_set_prob_bound(1.0, 3, 1.0) == 0.16666666666666666
        assert cheap_set_prob_bound(1.0, 1, 0.5) == 0.5
        assert cheap_set_prob_bound(2.0, 2, 0.5) == 1.0 / 96.0

    def test_caps_at_one_and_zero(self):
        assert cheap_set_prob_bound(1.0, 1, 5.0) == 1.0
        assert cheap_set_prob_bound(1.0, 4, 0.0) == 0.0

    def test_log_path_consistent_with_direct(self):
        # m = 169 rides the direct path, m = 171 the log path; compare both
        # against the lgamma evaluation
        for m in (169, 171):
            got = cheap_set_prob_bound(1.0, m, 20.0)
            expect = math.exp(
                m * math.lgamma(2.0) - math.lgamma(1.0 + m) + m * math.log(20.0)
            )
            assert got == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_threshold(self):
        grid = [cheap_set_prob_bound(2.0, 3, L) for L in np.linspace(0.0, 2.0, 50)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))

    def test_uniform_base_monte_carlo_agreement(self):
        # with power-law base weights the orthant volume is the exact
        # probability, so Monte Carlo must straddle it
        rng = stream(44)
        trials = 200_000
        x = rng.random((trials, 2)) ** 0.5  # q = 2
        p_hat = float(np.mean(x.sum(axis=1) <= 0.5))
        p = cheap_set_prob_bound(2.0, 2, 0.5)
        se = math.sqrt(p * (1.0 - p) / trials)
        assert abs(p_hat - p) <= 3.0 * se

    def test_exponential_base_never_below_monte_carlo(self):
        rng = stream(45)
        trials = 200_000
        x = rng.standard_exponential((trials, 3))  # q = 1 exponential base
        p_hat = float(np.mean(x.sum(axis=1) <= 1.0))
        p = cheap_set_prob_bound(1.0, 3, 1.0)
        se = math.sqrt(max(p_hat, 1e-12) * (1.0 - p_hat) / trials)
        assert p_hat <= p + 3.0 * se

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cheap_set_prob_bound(0.0, 1, 1.0)
        with pytest.raises(ValueError):
            cheap_set_prob_bound(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            cheap_set_prob_bound(1.0, 1, -0.1)


class TestUpperTailBound:
    def test_values(self):
        assert upper_tail_bound(2.0, 1.0) == 0.5
        assert upper_tail_bound(3.0, 2.0) == 2.0 ** -8
        assert upper_tail_bound(1.0, 3.0) == 1.0
        assert upper_tail_bound(0.0, 1.0) == 1.0
        assert upper_tail_bound(0.5, 1.0) == 1.0

    def test_monotone_in_t(self):
        vals = [upper_tail_bound(t, 1.5) for t in np.linspace(0.0, 5.0, 60)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            upper_tail_bound(-0.1, 1.0)
        with pytest.raises(ValueError):
            upper_tail_bound(1.0, 0.0)


class TestFluctuationExponent:
    def test_values(self):
        assert fluctuation_exponent_bound(1.0) == -0.25
        assert fluctuation_exponent_bound(2.0) == pytest.approx(-1.0 / 3.0)

    def test_limits_and_monotonicity(self):
        grid = [fluctuation_exponent_bound(q) for q in (0.25, 0.5, 1, 2, 4, 8)]
        assert all(b < a for a, b in zip(grid, grid[1:]))
        assert fluctuation_exponent_bound(1e9) == pytest.approx(-0.5, abs=1e-8)
        with pytest.raises(ValueError):
            fluctuation_exponent_bound(0.0)


class TestMeanToMedianRatio:
    def test_q_one_closed_form(self):
        assert mean_to_median_ratio_bound(1.0) == \
            pytest.approx(2.0 / math.log(2.0), rel=1e-12)
        assert mean_to_median_ratio_bound(1.0) == 2.8853900817779268

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    def test_matches_tail_integral(self, q):
        # the ratio bound integrates the tail bound without its cap at 1:
        # integral of 2^(1 - t^q) dt over t >= 0
        oracle, err = quad(lambda t: 2.0 ** (1.0 - t ** q), 0.0, np.inf)
        assert err < 1e-6
        assert mean_to_median_ratio_bound(q) == pytest.approx(oracle, rel=1e-9)

    def test_reference_q_two(self):
        assert mean_to_median_ratio_bound(2.0) == pytest.approx(2.12893403886245, rel=1e-10)

    def test_limit_is_two(self):
        # decreasing through moderate q, then a shallow dip below 2 that
        # recovers toward the limit 2 from below
        grid = [mean_to_median_ratio_bound(q) for q in (0.5, 1, 2, 4, 8)]
        assert all(b < a for a, b in zip(grid, grid[1:]))
        assert 1.9 < mean_to_median_ratio_bound(8.0) < 2.0
        assert 1.999 < mean_to_median_ratio_bound(1e6) < 2.0
        with pytest.raises(ValueError):
            mean_to_median_ratio_bound(0.0)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: concentration_upper_bound(NAN, 0.0, 1.0),
    lambda: cheap_set_prob_bound(1.0, 3, NAN),
    lambda: upper_tail_bound(NAN, 1.0),
    lambda: talagrand_product_bound(NAN),
    lambda: talagrand_threshold(9, NAN),
], ids=["concentration-level", "ball-volume-L", "upper-tail-t",
        "talagrand-product-t", "talagrand-threshold-t"])
def test_nan_scalars_are_rejected(call):
    with pytest.raises(ValueError):
        call()
