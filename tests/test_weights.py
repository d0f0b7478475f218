"""Weight laws and the sure split coupling.

The coupling inequality is asserted with exact float comparison: the
construction clamps x to the bound, so any violation is a bug, not
rounding.  Marginal and independence checks are statistical, run on
fixed seeds at significance 0.01.
"""

import numpy as np
import pytest
from scipy import stats as sps

from minweight.rngs import stream
from minweight.weights import (
    BaseLaw,
    InvalidInput,
    WeightSpec,
    cdf,
    coupling_violations,
    iterated_coupling_batch,
    quantile,
    sample,
    split_coupling_batch,
)

SPECS = [
    WeightSpec(q=0.5, base=BaseLaw.UNIFORM_POWER),
    WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER),
    WeightSpec(q=2.0, base=BaseLaw.UNIFORM_POWER),
    WeightSpec(q=1.0, base=BaseLaw.EXPONENTIAL_POWER),
    WeightSpec(q=2.0, base=BaseLaw.EXPONENTIAL_POWER),
]


class TestWeightSpec:
    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            WeightSpec(q=0.0)
        with pytest.raises(ValueError):
            WeightSpec(q=-1.0)
        with pytest.raises(ValueError):
            WeightSpec(q=float("inf"))

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            WeightSpec(q=1.0, base="uniform")


class TestSample:
    def test_uniform_power_range(self):
        # q-th power uniform on (0,1] keeps every draw in (0,1]
        spec = WeightSpec(q=2.0, base=BaseLaw.UNIFORM_POWER)
        draws = sample(spec, stream(1), 10**5)
        assert np.all(draws > 0.0)
        assert np.all(draws <= 1.0)

    def test_power_law_is_uniform(self):
        spec = WeightSpec(q=2.0, base=BaseLaw.UNIFORM_POWER)
        draws = sample(spec, stream(2), 10**5)
        p = sps.kstest(draws**2, "uniform").pvalue
        assert p >= 0.01

    def test_exponential_mean(self):
        spec = WeightSpec(q=1.0, base=BaseLaw.EXPONENTIAL_POWER)
        draws = sample(spec, stream(3), 10**6)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_scalar_draw(self):
        spec = WeightSpec(q=1.0)
        x = sample(spec, stream(4))
        assert isinstance(x, float)
        assert 0.0 < x <= 1.0

    @pytest.mark.filterwarnings("error")
    def test_scalar_overflow_is_inf(self):
        # E^(1/q) overflows a float; the array draw gives inf, and so does this.
        spec = WeightSpec(q=1e-3, base=BaseLaw.EXPONENTIAL_POWER)
        assert sample(spec, stream(4)) == np.inf


class TestCdfQuantile:
    def test_uniform_identity(self):
        spec = WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER)
        assert cdf(spec, 0.25) == 0.25

    def test_sqrt_uniform(self):
        # P(U^{1/2} <= x) = x^2
        spec = WeightSpec(q=2.0, base=BaseLaw.UNIFORM_POWER)
        assert cdf(spec, 0.5) == 0.25

    def test_exponential_quantile(self):
        spec = WeightSpec(q=1.0, base=BaseLaw.EXPONENTIAL_POWER)
        assert quantile(spec, 1.0 - np.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", SPECS)
    def test_round_trip(self, spec):
        p = np.linspace(0.0, 0.999, 200)
        back = cdf(spec, quantile(spec, p))
        assert np.max(np.abs(back - p)) <= 1e-12

    def test_quantile_rejects_outside_unit(self):
        spec = WeightSpec(q=1.0)
        with pytest.raises(ValueError):
            quantile(spec, 1.5)
        with pytest.raises(ValueError):
            quantile(spec, -0.1)

    def test_cdf_vectorized_matches_scalar(self):
        spec = WeightSpec(q=2.0, base=BaseLaw.EXPONENTIAL_POWER)
        xs = np.array([0.0, 0.3, 1.0, 2.5])
        vec = cdf(spec, xs)
        for x, v in zip(xs, vec):
            assert cdf(spec, float(x)) == v


class TestSplitCoupling:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_sure_inequality_exact(self, spec, s):
        x, y, yp = split_coupling_batch(spec, s, stream(11), 10**4)
        assert coupling_violations(x, y, yp, s, spec.q) == 0

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("base", list(BaseLaw), ids=[b.value for b in BaseLaw])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_in_place_coupling_matches_plain_formula(self, s, base, q):
        # Every step of the coupling written out with fresh arrays: the
        # in-place batch must give the same bits.
        spec = WeightSpec(q=q, base=base)
        got = split_coupling_batch(spec, s, stream(19), 5000)
        rng, inv_q = stream(19), 1.0 / q
        if base is BaseLaw.UNIFORM_POWER:
            g, r = 1.0 - rng.random(5000), 1.0 - rng.random(5000)
        else:
            g, r = rng.exponential(size=5000), rng.exponential(size=5000)
        y, yp = g ** inv_q, r ** inv_q
        bound = np.minimum(y * (1.0 - s) ** -inv_q, yp * s ** -inv_q)
        x = bound
        if base is BaseLaw.UNIFORM_POWER:
            w = np.minimum(g / (1.0 - s), r / s)
            coupled = np.where(w * max(s, 1.0 - s) < 1.0, w - s * (1.0 - s) * w * w, 1.0)
            x = np.minimum(coupled ** inv_q, bound)
        for arr, want in zip(got, (x, y, yp)):
            assert arr.tobytes() == want.tobytes()

    def test_rejects_bad_fraction(self):
        spec = WeightSpec(q=1.0)
        for s in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_coupling_batch(spec, s, stream(0), 10)

    @pytest.mark.parametrize("spec", SPECS)
    def test_marginals_against_law(self, spec):
        x, y, yp = split_coupling_batch(spec, 0.3, stream(13), 10**5)
        for arr in (x, y, yp):
            p = sps.kstest(arr, lambda v: cdf(spec, v)).pvalue
            assert p >= 0.01

    def test_coupled_x_matches_direct_draws(self):
        # two-sample check: coupled x against an untouched direct sample
        spec = WeightSpec(q=2.0, base=BaseLaw.UNIFORM_POWER)
        x, _, _ = split_coupling_batch(spec, 0.5, stream(14), 10**5)
        direct = sample(spec, stream(15), 10**5)
        assert sps.ks_2samp(x, direct).pvalue >= 0.01

    def test_copies_independent(self):
        spec = WeightSpec(q=2.0, base=BaseLaw.UNIFORM_POWER)
        _, y, yp = split_coupling_batch(spec, 0.5, stream(16), 10**5)
        corr = np.corrcoef(y, yp)[0, 1]
        assert abs(corr) <= 0.01
        # quantile-binned chi-square independence
        by = np.searchsorted(np.quantile(y, (0.25, 0.5, 0.75)), y, side="right")
        br = np.searchsorted(np.quantile(yp, (0.25, 0.5, 0.75)), yp, side="right")
        table = np.bincount(4 * by + br, minlength=16).reshape(4, 4)
        assert sps.chi2_contingency(table).pvalue >= 0.01

    def test_exponential_min_stability_is_tight(self):
        # exponential base: x equals the clamp bound exactly, in the same
        # multiply-by-reciprocal-power form the violation counter uses
        spec = WeightSpec(q=1.0, base=BaseLaw.EXPONENTIAL_POWER)
        s = 0.4
        x, y, yp = split_coupling_batch(spec, s, stream(17), 1000)
        bound = np.minimum(y * (1.0 - s) ** -1.0, yp * s**-1.0)
        assert np.array_equal(x, bound)

    def test_monotone_in_base_draws(self):
        # raising both underlying base draws never lowers the coupled value
        from minweight.weights import _couple_base

        rng = stream(18)
        g = rng.random(1000)
        r = rng.random(1000)
        bump = 1.0 + rng.random(1000)
        for base in (BaseLaw.UNIFORM_POWER, BaseLaw.EXPONENTIAL_POWER):
            lo = _couple_base(g, r, 0.3, base)
            hi = _couple_base(g * bump, r * bump, 0.3, base)
            assert np.all(hi >= lo)


class TestIteratedCoupling:
    def test_k1_degenerate(self):
        spec = WeightSpec(q=2.0)
        x, copies = iterated_coupling_batch(spec, 1, stream(21), 500)
        assert np.array_equal(x, copies[0])

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_sure_inequality(self, spec, k):
        x, copies = iterated_coupling_batch(spec, k, stream(22), 10**4)
        bound = k ** (1.0 / spec.q) * copies.min(axis=0)
        assert np.all(x <= bound)

    def test_q2_k4_factor_two(self):
        # 4^{1/2} = 2: x never exceeds twice the smallest copy
        spec = WeightSpec(q=2.0, base=BaseLaw.UNIFORM_POWER)
        x, copies = iterated_coupling_batch(spec, 4, stream(23), 10**5)
        assert np.all(x <= 2.0 * copies.min(axis=0))

    def test_copy_marginals(self):
        spec = WeightSpec(q=1.0, base=BaseLaw.EXPONENTIAL_POWER)
        x, copies = iterated_coupling_batch(spec, 3, stream(24), 10**5)
        assert sps.kstest(x, lambda v: cdf(spec, v)).pvalue >= 0.01
        for row in copies:
            assert sps.kstest(row, lambda v: cdf(spec, v)).pvalue >= 0.01

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            iterated_coupling_batch(WeightSpec(q=1.0), 0, stream(0), 5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_draws_are_inf_silently(self, k):
        # As in sample and split_coupling_batch: inf, for WeightAssignment to reject.
        spec = WeightSpec(q=2e-3, base=BaseLaw.EXPONENTIAL_POWER)
        x, copies = iterated_coupling_batch(spec, k, stream(0), 1000)
        assert np.isinf(x).any() and np.isinf(copies).any()
        with np.errstate(over="ignore"):
            assert np.all(x <= k ** (1.0 / spec.q) * copies.min(axis=0))

    def test_overflowing_constant_is_rejected_input(self):
        # 3^(1/q) overflows a float at q = 1e-3, as split_constants' do.
        with pytest.raises(InvalidInput, match="overflow"):
            iterated_coupling_batch(WeightSpec(q=1e-3), 3, stream(0), 10)
