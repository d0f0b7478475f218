"""Patch solvers: exactness, the component heuristic, patchability estimates."""

import operator
from dataclasses import fields
from functools import reduce

import numpy as np
import pytest

from minweight.families import (
    ExplicitFamily,
    MatchingFamily,
    SpanningTreeFamily,
    WeightAssignment,
)
from minweight.oracles import (
    member_subsets,
    oracle_cheapest_completion,
    oracle_patchability,
)
from minweight.patching import (
    GStrategy,
    PatchabilityEstimate,
    component_patch,
    estimate_patchability,
    exact_patch,
    min_outgoing_edge_count,
    sample_depleted_set,
)
from minweight.rngs import stream
from minweight.weights import BaseLaw, WeightSpec, sample

SPEC = WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER)


def _draw(fam, key):
    return WeightAssignment(sample(SPEC, stream(*key), fam.ground_size))


def _half_zero(fam, key):
    rng = stream(*key)
    zero = rng.random(fam.ground_size) < 0.5
    return WeightAssignment(np.where(zero, 0.0, rng.random(fam.ground_size)))


def _random_subset(fam, rng):
    size = int(rng.integers(0, fam.ground_size + 1))
    return tuple(sorted(rng.choice(fam.ground_size, size, replace=False)))


class TestExactPatch:
    def test_member_needs_nothing(self):
        fam = SpanningTreeFamily(5)
        w = _draw(fam, (51,))
        opt = fam.min_weight(w)
        res = exact_patch(fam, opt.witness, w)
        assert res.value == 0.0
        assert res.witness == ()

    def test_two_disjoint_edges(self):
        # G = {01, 23}; cheapest cross edge completes the tree
        fam = SpanningTreeFamily(4)
        vals = np.ones(6)
        g = (fam.edge_index(0, 1), fam.edge_index(2, 3))
        vals[fam.edge_index(0, 2)] = 0.2
        res = exact_patch(fam, g, WeightAssignment(vals))
        assert res.value == 0.2
        assert res.witness == (fam.edge_index(0, 2),)

    @pytest.mark.parametrize("make", [
        _draw,
        lambda fam, key: WeightAssignment(
            stream(*key).integers(0, 3, fam.ground_size).astype(float)
        ),
        _half_zero,
        lambda fam, key: WeightAssignment(
            stream(*key).choice([1e-300, 1.0, 1e300], fam.ground_size)
        ),
    ], ids=["uniform", "zeros-and-ties", "half-zero", "extreme"])
    @pytest.mark.parametrize("maker", [
        lambda: SpanningTreeFamily(5),
        lambda: MatchingFamily(4),
        lambda: ExplicitFamily(8, [(0, 1, 2), (2, 3, 4), (4, 5, 6, 7)]),
    ])
    def test_matches_enumeration(self, maker, make):
        fam = maker()
        rng = stream(52)
        for trial in range(30):
            w = make(fam, (52, trial))
            g = _random_subset(fam, rng)
            got = exact_patch(fam, g, w)
            cost, _ = oracle_cheapest_completion(fam, g, w)
            assert got.value == cost
            assert fam.min_patch_size(tuple(g) + got.witness) == 0

    def test_patch_disjoint_from_subset(self):
        fam = MatchingFamily(5)
        rng = stream(53)
        for trial in range(20):
            w = _draw(fam, (53, trial))
            g = _random_subset(fam, rng)
            res = exact_patch(fam, g, w)
            assert not set(res.witness) & set(g)

    def test_uniform_cost_never_exceeds_distance(self):
        # with weights in (0,1], patching r missing elements costs < r + 1
        fam = SpanningTreeFamily(12)
        rng = stream(54)
        for trial in range(20):
            w = _draw(fam, (54, trial))
            g = sample_depleted_set(
                fam, SPEC, 4, GStrategy.REMOVE_FROM_RANDOM_MEMBER, rng
            )
            res = exact_patch(fam, g, w)
            assert len(res.witness) == 4
            assert res.value <= 4.0

    @pytest.mark.parametrize("r", [1, 5, 20])
    def test_seeded_kruskal_above_threshold(self, r):
        # Distinct weights make the minimum spanning tree unique, so the
        # cheapest way to finish it minus r edges is those r edges.
        fam = SpanningTreeFamily(150)
        w = _draw(fam, (66, r))
        opt = fam.min_weight(w).witness
        removed = tuple(sorted(stream(67, r).choice(opt, r, replace=False).tolist()))
        g = tuple(e for e in opt if e not in removed)
        exact = exact_patch(fam, g, w)
        assert exact.witness == removed
        assert exact.value == w.total(removed)
        assert component_patch(fam, g, w).value >= exact.value
        # Every solve above ran on a head shorter than the ground set.
        assert w._memo.order.size < fam.ground_size


class TestComponentPatch:
    def test_spanning_subset_trivial(self):
        fam = SpanningTreeFamily(5)
        w = _draw(fam, (55,))
        tree = fam.min_weight(w).witness
        res = component_patch(fam, tree, w)
        assert res.value == 0.0 and res.witness == ()

    def test_rejects_matchings(self):
        fam = MatchingFamily(3)
        with pytest.raises(TypeError):
            component_patch(fam, (), _draw(fam, (56,)))

    def test_uses_exactly_distance_edges(self):
        fam = SpanningTreeFamily(10)
        rng = stream(57)
        for trial in range(30):
            w = _draw(fam, (57, trial))
            g = _random_subset(fam, rng)
            r = fam.min_patch_size(g)
            res = component_patch(fam, g, w)
            assert len(res.witness) == r
            assert fam.min_patch_size(tuple(g) + res.witness) == 0

    def test_dominates_exact(self):
        fam = SpanningTreeFamily(15)
        rng = stream(58)
        for trial in range(50):
            w = _draw(fam, (58, trial))
            g = _random_subset(fam, rng)
            heur = component_patch(fam, g, w)
            exact = exact_patch(fam, g, w)
            assert heur.value >= exact.value

    def test_single_merge_agrees_with_exact(self):
        # one missing merge: cheapest outgoing edge is the cheapest cross
        # edge, so heuristic and exact coincide
        fam = SpanningTreeFamily(9)
        rng = stream(59)
        for trial in range(20):
            w = _draw(fam, (59, trial))
            g = sample_depleted_set(
                fam, SPEC, 1, GStrategy.REMOVE_FROM_RANDOM_MEMBER, rng
            )
            heur = component_patch(fam, g, w)
            exact = exact_patch(fam, g, w)
            assert heur.value == exact.value


class TestMinOutgoingEdgeCount:
    def test_empty_subset(self):
        fam = SpanningTreeFamily(10)
        # all singletons: every non-last component sees at least one later one
        count = min_outgoing_edge_count(fam, ())
        assert count >= 1

    def test_balanced_split(self):
        fam = SpanningTreeFamily(8)
        comp_a = [(0, 1), (1, 2), (2, 3)]
        comp_b = [(4, 5), (5, 6), (6, 7)]
        g = fam.edge_indices(comp_a + comp_b)
        count = min_outgoing_edge_count(fam, g)
        assert count == 16  # 4 * 4 cross edges
        assert count >= min(8 / 2, 8 * 8 / 4)

    def test_spanning_subset_rejected(self):
        fam = SpanningTreeFamily(5)
        tree = fam.min_weight(_draw(fam, (60,))).witness
        with pytest.raises(ValueError):
            min_outgoing_edge_count(fam, tree)

    @pytest.mark.parametrize("n", [20, 50])
    def test_claimed_lower_bound(self, n):
        # the count never drops below min(n/2, n^2/(4 r^2)); the library
        # raises if it ever would, so surviving the sweep is the assertion
        fam = SpanningTreeFamily(n)
        rng = stream(61, n)
        r_max = int(np.ceil(np.sqrt(n)))
        for trial in range(250):
            r = int(rng.integers(1, r_max + 1))
            g = sample_depleted_set(
                fam, SPEC, r, GStrategy.REMOVE_FROM_RANDOM_MEMBER, rng
            )
            count = min_outgoing_edge_count(fam, g)
            assert count >= min(n / 2, n * n / (4 * r * r))


class TestSampleDepletedSet:
    def test_distance_is_r(self):
        fam = SpanningTreeFamily(12)
        rng = stream(62)
        for r in range(0, 8):
            for strategy in GStrategy:
                g = sample_depleted_set(fam, SPEC, r, strategy, rng)
                assert fam.min_patch_size(g) == r

    def test_matching_distance(self):
        fam = MatchingFamily(6)
        rng = stream(63)
        for r in range(0, 7):
            g = sample_depleted_set(
                fam, SPEC, r, GStrategy.REMOVE_FROM_OPTIMUM, rng
            )
            assert fam.min_patch_size(g) == r

    def test_adversarial_removes_heaviest(self):
        fam = SpanningTreeFamily(8)
        # same stream: the strategy draws its auxiliary weights first
        g_adv = sample_depleted_set(
            fam, SPEC, 3, GStrategy.ADVERSARIAL_HEAVIEST, stream(64)
        )
        aux = WeightAssignment(sample(SPEC, stream(64), fam.ground_size))
        member = fam.min_weight(aux).witness
        kept = sorted(member, key=lambda e: aux.values[e])[: len(member) - 3]
        assert g_adv == tuple(e for e in member if e in set(kept))

    def test_rejects_bad_r(self):
        fam = SpanningTreeFamily(5)
        with pytest.raises(ValueError):
            sample_depleted_set(fam, SPEC, 5, GStrategy.REMOVE_FROM_OPTIMUM,
                                stream(0))


class TestEstimatePatchability:
    def test_r_zero(self):
        fam = SpanningTreeFamily(6)
        est = estimate_patchability(
            fam, SPEC, r=0, eps=0.1, g_strategy=GStrategy.REMOVE_FROM_OPTIMUM,
            trials=10,
        )
        assert est.lam == 0.0

    def test_reproducible(self):
        fam = SpanningTreeFamily(10)
        kwargs = dict(r=3, eps=0.2, g_strategy=GStrategy.REMOVE_FROM_OPTIMUM,
                      trials=25, master_seed=9)
        a = estimate_patchability(fam, SPEC, **kwargs)
        b = estimate_patchability(fam, SPEC, **kwargs)
        assert a.lam == b.lam
        assert np.array_equal(a.costs, b.costs)

    def test_lambda_is_max_per_g_quantile(self):
        fam = SpanningTreeFamily(10)
        est = estimate_patchability(
            fam, SPEC, r=3, eps=0.2, g_strategy=GStrategy.REMOVE_FROM_OPTIMUM,
            trials=25, master_seed=9,
        )
        quantiles = np.quantile(est.costs, 0.8, axis=1, method="midpoint")
        assert est.lam == max(quantiles)
        assert est.per_g_quantiles == tuple(quantiles)

    def test_scaling_factor(self):
        # lambda tracks r/n within a small constant factor
        fam = SpanningTreeFamily(100)
        est = estimate_patchability(
            fam, SPEC, r=10, eps=0.05,
            g_strategy=GStrategy.REMOVE_FROM_RANDOM_MEMBER,
            trials=120, master_seed=7,
        )
        target = 10 / 100
        assert target / 3 <= est.lam <= target * 3

    def test_exhaustive_matches_direct_truth(self):
        # small explicit family: recompute the worst-case quantile by hand
        members = [(0, 1, 2), (2, 3, 4), (1, 4, 5)]
        fam = ExplicitFamily(6, members)
        trials = 40
        est = oracle_patchability(fam, SPEC, r=1, eps=0.25, trials=trials,
                                  master_seed=13)
        draws = [
            sample(SPEC, stream(13, 303, t), fam.ground_size)
            for t in range(trials)
        ]
        worst = -np.inf
        for mask in range(1 << 6):
            g = tuple(i for i in range(6) if mask >> i & 1)
            if fam.min_patch_size(g) > 1:
                continue
            costs = [
                exact_patch(fam, g, WeightAssignment(vals)).value
                for vals in draws
            ]
            worst = max(worst, np.quantile(costs, 0.75, method="midpoint"))
        assert est.lam == worst

    def test_exhaustive_costs_are_canonical_sums(self):
        # Members of 9-11 elements: patches of 8 or more elements are where
        # numpy's pairwise sum (cheapest_completion's total) and the
        # oracle's sequential sum part in the last ulp.
        members = [range(0, 9), range(3, 12), (0, 1, 2, 4, 5, 6, 7, 9, 10, 11),
                   (0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11)]
        fam = ExplicitFamily(12, members)
        trials = 20
        est = oracle_patchability(fam, SPEC, r=fam.ell, eps=0.1, trials=trials,
                                  master_seed=17)
        # At r = ell every member subset is a row, in ascending mask order.
        masks = member_subsets(fam).masks.tolist()
        assert est.g_samples == len(masks)
        draws = [
            WeightAssignment(sample(SPEC, stream(17, 303, t), fam.ground_size))
            for t in range(trials)
        ]
        long_patches = 0
        for row, mask in enumerate(masks):
            g = {i for i in range(12) if mask >> i & 1}
            if len(g) > 3:
                continue
            for t, w in enumerate(draws):
                folded = min(
                    reduce(operator.add, (w.values[e] for e in sorted(set(m) - g)), 0.0)
                    for m in members
                )
                assert est.costs[row, t] == folded, (g, t)
                found = fam.cheapest_completion(tuple(sorted(g)), w)
                if len(found.witness) <= 7:
                    assert found.value == folded, (g, t)
                else:
                    long_patches += 1
        assert long_patches > 50

    def test_exhaustive_rejects_large_ground(self):
        with pytest.raises(ValueError):
            oracle_patchability(SpanningTreeFamily(8), SPEC, r=2, eps=0.1, trials=5)

    def test_one_result_type_and_no_exhaustive_mode(self):
        assert [f.name for f in fields(PatchabilityEstimate)] == ["r", "eps", "costs"]
        with pytest.raises(TypeError):
            estimate_patchability(
                ExplicitFamily(3, [(0, 1), (1, 2)]), SPEC, r=1, eps=0.1,
                g_strategy=GStrategy.REMOVE_FROM_OPTIMUM, trials=5, exhaustive=True,
            )

    def test_rejects_bad_eps(self):
        fam = SpanningTreeFamily(5)
        with pytest.raises(ValueError):
            estimate_patchability(
                fam, SPEC, r=1, eps=0.0,
                g_strategy=GStrategy.REMOVE_FROM_OPTIMUM, trials=5,
            )

    def test_rejects_no_g_samples(self):
        fam = SpanningTreeFamily(5)
        with pytest.raises(ValueError, match="g_samples"):
            estimate_patchability(
                fam, SPEC, r=1, eps=0.1,
                g_strategy=GStrategy.REMOVE_FROM_OPTIMUM, trials=5, g_samples=0,
            )

