"""Experiment driver: reproducibility, summaries, and the report types."""

import math
import tracemalloc

import numpy as np
import pytest

from minweight.bounds import split_cost_minimum, upper_tail_bound
from minweight.families import SpanningTreeFamily
from minweight.montecarlo import (
    ExperimentConfig,
    _trial,
    build_family,
    coupling_experiment,
    fit_exponent,
    run,
    split_experiment,
    summarize,
    tail_experiment,
)
from minweight.rngs import stream, stream_id
from minweight.weights import BaseLaw, InvalidInput, WeightSpec

Q1 = WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER)


class TestExperimentConfig:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            ExperimentConfig(family="cliques", n=5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(family="trees", n=5, kind="walk")

    def test_exactly_one_size_spec(self):
        with pytest.raises(ValueError):
            ExperimentConfig(family="trees")
        with pytest.raises(ValueError):
            ExperimentConfig(family="trees", n=5, n_grid=(5, 10))

    def test_grids_strictly_increasing(self):
        with pytest.raises(ValueError):
            ExperimentConfig(family="trees", n_grid=(10, 10))
        with pytest.raises(ValueError):
            ExperimentConfig(family="trees", n_grid=(10, 5))
        with pytest.raises(ValueError):
            ExperimentConfig(family="trees", n=5, t_grid=(2.0, 1.0))

    def test_other_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(family="trees", n=5, trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(family="trees", n=5, master_seed=-1)

    def test_rejects_sizes_below_the_family_minimum(self):
        # the family's own size check, run before any family is built
        for family, n_grid in [("trees", (1, 5)), ("matchings", (0, 5))]:
            with pytest.raises(ValueError, match="need n >="):
                ExperimentConfig(family=family, n_grid=n_grid)
        ExperimentConfig(family="trees", n=2)
        ExperimentConfig(family="matchings", n=1)

    @pytest.mark.parametrize("kind, fields", [
        ("dual", {}), ("dual", {"r": 2}), ("patch", {}), ("split", {}),
        ("split", {"r": 2}), ("split", {"s": 0.5}),
    ])
    def test_rejects_a_kind_without_its_parameters(self, kind, fields):
        # Caught before any trial, not wrapped in the RuntimeError of trial 0.
        with pytest.raises(ValueError, match=f"{kind} experiment needs"):
            ExperimentConfig(family="trees", n=5, kind=kind, **fields)

    def test_rejects_bad_tail_grids(self):
        for t_grid in [(-1.0,), (float("nan"),)]:
            with pytest.raises(ValueError, match="non-negative"):
                ExperimentConfig(family="trees", n=5, t_grid=t_grid)

    def test_sizes_property(self):
        assert ExperimentConfig(family="trees", n=5).sizes == (5,)
        assert ExperimentConfig(family="trees", n_grid=(5, 9)).sizes == (5, 9)

    def test_build_family(self):
        assert build_family("trees", 6).ground_size == 15
        assert build_family("matchings", 4).ground_size == 16
        with pytest.raises(ValueError):
            build_family("paths", 4)


class TestRun:
    def test_bit_identical_reruns(self):
        config = ExperimentConfig(family="trees", n=9, trials=20, master_seed=3)
        assert run(config) == run(config)

    def test_record_depends_only_on_seed_size_index(self):
        short = run(ExperimentConfig(family="trees", n=9, trials=5, master_seed=3))
        long = run(ExperimentConfig(family="trees", n=9, trials=12, master_seed=3))
        assert long[:5] == short
        grid = run(
            ExperimentConfig(family="trees", n_grid=(7, 9), trials=5, master_seed=3)
        )
        assert grid[5:] == short  # n=9 block unaffected by the n=7 block

    def test_seed_changes_values(self):
        a = run(ExperimentConfig(family="trees", n=9, trials=5, master_seed=3))
        b = run(ExperimentConfig(family="trees", n=9, trials=5, master_seed=4))
        assert all(x.value != y.value for x, y in zip(a, b))

    def test_value_records(self):
        config = ExperimentConfig(
            family="matchings", n=6, trials=8, master_seed=5, spec=Q1
        )
        records = run(config)
        assert len(records) == 8
        for i, rec in enumerate(records):
            assert rec.trial == i
            assert rec.n == 6
            assert rec.q == 1.0
            assert rec.seed == stream_id(5, 6, i)
            assert rec.value > 0.0
            assert rec.defect is None and rec.patch_cost is None

    def test_error_message_names_trial_and_size(self):
        config = ExperimentConfig(family="trees", n=6, trials=3, kind="patch", r=9)
        with pytest.raises(RuntimeError, match=r"patch trial 0 at n=6"):
            run(config)  # r above ell = 5

    def test_dual_records_satisfy_duality(self):
        config = ExperimentConfig(
            family="trees", n=8, trials=40, master_seed=11,
            kind="dual", budget=1.0, r=2,
        )
        for rec in run(config):
            assert 0 <= rec.defect <= 7
            assert (rec.near_value <= 1.0) == (rec.defect <= 2)

    def test_patch_records(self):
        config = ExperimentConfig(
            family="trees", n=12, trials=25, master_seed=13, kind="patch", r=3,
        )
        for rec in run(config):
            assert rec.patch_cost >= 0.0
            assert rec.component_cost >= rec.patch_cost
        config = ExperimentConfig(
            family="matchings", n=6, trials=10, master_seed=13, kind="patch", r=2,
        )
        for rec in run(config):
            assert rec.patch_cost >= 0.0
            assert rec.component_cost is None

    @pytest.mark.parametrize("base", list(BaseLaw))
    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_value_trial_holds_one_weight_sized_array(self, base, q):
        # numpy reports its buffers to tracemalloc: a value trial on a
        # prebuilt family allocates its drawn vector once and copies it nowhere.
        n = 400
        fam = SpanningTreeFamily(n)
        config = ExperimentConfig(family="trees", n=n, spec=WeightSpec(q=q, base=base))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            _trial(config, fam, n, 0, stream_id(7, n, 0), stream(7, n, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 1.5 * 8 * fam.ground_size

    @pytest.mark.parametrize("base", list(BaseLaw))
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_split_trial_holds_four_weight_sized_arrays(self, base, q):
        # The coupling makes x, y and y' with one temporary, in place, and
        # the trial's weight vectors keep those three arrays uncopied.
        n = 400
        fam = SpanningTreeFamily(n)
        config = ExperimentConfig(family="trees", n=n, kind="split", r=5, s=0.5,
                                  spec=WeightSpec(q=q, base=base))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            _trial(config, fam, n, 0, stream_id(7, n, 0), stream(7, n, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 4.5 * 8 * fam.ground_size


class TestSummarize:
    def test_midpoint_median(self):
        s = summarize([4.0, 1.0, 3.0, 2.0])
        assert s.median == 2.5
        assert s.count == 4
        assert dict(s.quantiles)[0.25] == 1.5

    def test_permutation_invariant(self):
        values = list(np.random.default_rng(1).random(101))
        assert summarize(values) == summarize(values[::-1])

    def test_se_and_std(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        s = summarize(values)
        assert s.std == pytest.approx(np.std(values, ddof=1), rel=1e-15)
        assert s.se == pytest.approx(s.std / math.sqrt(5), rel=1e-15)
        assert s.mean == 3.0

    def test_quantiles_monotone(self):
        s = summarize(np.random.default_rng(2).random(500))
        levels = [p for p, _ in s.quantiles]
        values = [v for _, v in s.quantiles]
        assert levels == sorted(levels)
        assert values == sorted(values)
        assert s.median == dict(s.quantiles)[0.5]

    def test_degenerate(self):
        s = summarize([2.5])
        assert s.std == 0.0 and s.se == 0.0 and s.median == 2.5
        with pytest.raises(ValueError):
            summarize([])


class TestFitExponent:
    def test_recovers_exact_power_law(self):
        points = [(n, 3.0 * n ** -0.5) for n in (10, 20, 40, 80, 160)]
        fit = fit_exponent(points)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.residual < 1e-12

    def test_constant_statistic(self):
        fit = fit_exponent([(10, 2.0), (20, 2.0), (40, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_rejections(self):
        with pytest.raises(ValueError):
            fit_exponent([(10, 1.0), (20, 0.5)])
        with pytest.raises(ValueError):
            fit_exponent([(10, 1.0), (20, -0.5), (40, 0.2)])
        with pytest.raises(ValueError):
            fit_exponent([(10, 1.0), (10, 0.5), (10, 0.2)])


class TestSplitExperiment:
    CONFIG = ExperimentConfig(
        family="trees", n=10, trials=50, master_seed=7,
        kind="split", r=3, s=0.3, spec=Q1,
    )

    def test_sure_bounds_never_violated(self):
        report = split_experiment(self.CONFIG)
        assert report.violations == 0
        for rec in report.records:
            assert rec.value <= rec.envelope_bound
            assert rec.value <= rec.bound
            assert rec.slack == rec.bound - rec.value
            # the per-element envelope refines the two-block bound
            assert rec.envelope_bound <= rec.bound * (1 + 1e-12)

    def test_composite_and_best_split(self):
        report = split_experiment(self.CONFIG)
        assert report.composite_holds
        assert report.median_value <= report.composite_bound
        assert 0.0 <= report.best_split <= 1.0
        if report.median_green >= report.median_red > 0.0:
            expect = split_cost_minimum(
                report.median_green, report.median_red, 1.0
            ).split
            assert report.best_split == expect

    def test_full_radius_frees_green(self):
        config = ExperimentConfig(
            family="trees", n=6, trials=20, master_seed=7,
            kind="split", r=5, s=0.3, spec=Q1,
        )
        report = split_experiment(config)
        assert report.median_green == 0.0
        assert report.best_split == 1.0
        assert report.violations == 0

    def test_reproducible(self):
        a = split_experiment(self.CONFIG)
        b = split_experiment(self.CONFIG)
        assert a.records == b.records
        assert a.composite_bound == b.composite_bound


class TestTailExperiment:
    CONFIG = ExperimentConfig(
        family="trees", n=12, trials=400, master_seed=7,
        t_grid=(1.0, 1.5, 2.0, 3.0), spec=Q1,
    )

    def test_halves_and_survival(self):
        report = tail_experiment(self.CONFIG)
        values = np.array([rec.value for rec in report.records])
        assert values.size == 400
        assert report.mu_hat == summarize(values[:200]).median
        for j, t in enumerate(report.t_grid):
            manual = float((values[200:] > t * report.mu_hat).mean())
            assert report.survival[j] == manual
            assert report.bound[j] == upper_tail_bound(t, 1.0)

    def test_bounds_hold_at_seed(self):
        report = tail_experiment(self.CONFIG)
        assert bool(report.within_bound.all())
        assert report.mean_ok
        assert report.mean_value <= report.mean_bound

    def test_t_one_never_fails(self):
        report = tail_experiment(self.CONFIG)
        assert report.bound[0] == 1.0
        assert report.std_error[0] == 0.0
        assert bool(report.within_bound[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_experiment(ExperimentConfig(family="trees", n=12, trials=50))
        with pytest.raises(ValueError):
            tail_experiment(
                ExperimentConfig(
                    family="trees", n_grid=(6, 12), trials=50, t_grid=(1.0,)
                )
            )
        with pytest.raises(ValueError):
            tail_experiment(
                ExperimentConfig(family="trees", n=12, trials=1, t_grid=(1.0,))
            )


class TestCouplingExperiment:
    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            coupling_experiment(Q1, 0.5, trials=99)

    def test_clean_at_seed(self):
        report = coupling_experiment(Q1, 0.5, trials=4000, master_seed=7)
        assert report.violations == 0
        assert report.marginals_ok and report.independence_ok
        assert report.all_ok
        assert report.q == 1.0 and report.s == 0.5 and report.trials == 4000
        assert report.base == "uniform"

    def test_exponential_base(self):
        spec = WeightSpec(q=2.0, base=BaseLaw.EXPONENTIAL_POWER)
        report = coupling_experiment(spec, 0.1, trials=4000, master_seed=7)
        assert report.violations == 0
        assert report.all_ok
        assert report.base == "exponential"

    def test_negative_seed_is_rejected_input(self):
        with pytest.raises(InvalidInput, match="non-negative integers, got -1"):
            coupling_experiment(Q1, 0.5, trials=100, master_seed=-1)

    def test_reproducible(self):
        a = coupling_experiment(Q1, 0.3, trials=500, master_seed=9)
        b = coupling_experiment(Q1, 0.3, trials=500, master_seed=9)
        assert a == b
