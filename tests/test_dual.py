"""Budget duals: exactness, duality, and the concentration certificates.

The n=7 spanning-tree check brute-forces all acyclic edge subsets (cycles
waste budget without lowering the patch distance, so forests suffice; that
reduction itself is verified against the full 2^N scan at n <= 5 in
test_oracles).  Weights accumulate in ascending edge order, matching the
canonical subset sums, so comparisons are exact.
"""

import math

import numpy as np
import pytest

from minweight.dual import (
    cheapest_within_distance,
    defect_under_budget,
    talagrand_certificate_check,
    talagrand_product_bound,
    talagrand_threshold,
)
from minweight.families import (
    ExplicitFamily,
    MatchingFamily,
    SpanningTreeFamily,
    WeightAssignment,
)
from minweight.oracles import (
    oracle_cheapest_within_distance,
    oracle_defect_under_budget,
)
from minweight.rngs import stream
from minweight.weights import BaseLaw, WeightSpec, sample

SPEC = WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER)


def _draw(fam, key):
    return WeightAssignment(sample(SPEC, stream(*key), fam.ground_size))


def _forest_scan(fam, values):
    """(edge_count, total) of every forest of K_n, ascending-order sums."""
    n = fam.n
    eu, ev = fam.edge_u, fam.edge_v
    num = fam.ground_size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    out = []

    def recurse(e, count, total):
        if e == num:
            out.append((count, total))
            return
        recurse(e + 1, count, total)  # skip edge e
        ra, rb = find(int(eu[e])), find(int(ev[e]))
        if ra != rb:
            parent[rb] = ra
            recurse(e + 1, count + 1, total + values[e])
            parent[rb] = rb

    recurse(0, 0, 0.0)
    return out


class TestDefectUnderBudget:
    def test_budget_zero(self):
        fam = SpanningTreeFamily(6)
        res = defect_under_budget(fam, _draw(fam, (71,)), 0.0)
        assert res.defect == fam.n - 1  # only the empty set is affordable
        assert res.witness == ()
        assert res.weight_used == 0.0

    def test_full_budget(self):
        fam = SpanningTreeFamily(6)
        w = _draw(fam, (72,))
        opt = fam.min_weight(w)
        res = defect_under_budget(fam, w, opt.value)
        assert res.defect == 0
        assert res.weight_used <= opt.value

    def test_rejects_negative_budget(self):
        fam = SpanningTreeFamily(4)
        with pytest.raises(ValueError):
            defect_under_budget(fam, _draw(fam, (73,)), -0.5)

    @pytest.mark.parametrize("maker", [
        lambda: SpanningTreeFamily(5),
        lambda: MatchingFamily(4),
        lambda: ExplicitFamily(7, [(0, 1, 2), (2, 3, 4), (3, 5, 6)]),
    ])
    def test_witness_certifies_defect(self, maker):
        fam = maker()
        for trial in range(25):
            w = _draw(fam, (74, trial))
            budget = float(trial) / 25 * 1.5 * fam.min_weight(w).value
            res = defect_under_budget(fam, w, budget)
            assert res.weight_used <= budget
            assert fam.min_patch_size(res.witness) == res.defect
            assert len(res.witness) <= fam.ell

    def test_monotone_in_budget(self):
        fam = MatchingFamily(5)
        w = _draw(fam, (75,))
        full = fam.min_weight(w).value
        budgets = np.linspace(0.0, 1.2 * full, 25)
        defects = [defect_under_budget(fam, w, b).defect for b in budgets]
        assert all(b <= a for a, b in zip(defects, defects[1:]))
        assert defects[0] == fam.n
        assert defects[-1] == 0


@pytest.mark.parametrize("fam", [
    SpanningTreeFamily(5),
    MatchingFamily(3),
    ExplicitFamily(4, [(0, 1), (2, 3)]),
], ids=["tree", "matching", "explicit"])
def test_wrong_weight_length_rejected(fam):
    w = WeightAssignment([0.3, 0.1, 0.2])
    with pytest.raises(ValueError):
        defect_under_budget(fam, w, 1.0)
    with pytest.raises(ValueError):
        cheapest_within_distance(fam, w, 1)


class TestCheapestWithinDistance:
    def test_r_zero_is_min_weight(self):
        for fam in (SpanningTreeFamily(7), MatchingFamily(5)):
            w = _draw(fam, (76,))
            assert cheapest_within_distance(fam, w, 0).value == \
                fam.min_weight(w).value

    def test_r_ell_is_empty(self):
        fam = SpanningTreeFamily(7)
        res = cheapest_within_distance(fam, _draw(fam, (77,)), fam.ell)
        assert res.value == 0.0
        assert res.witness == ()

    def test_rejects_r_beyond_ell(self):
        fam = SpanningTreeFamily(4)
        with pytest.raises(ValueError):
            cheapest_within_distance(fam, _draw(fam, (78,)), 4)

    def test_monotone_in_r(self):
        fam = MatchingFamily(6)
        w = _draw(fam, (79,))
        values = [
            cheapest_within_distance(fam, w, r).value
            for r in range(fam.ell + 1)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_witness_at_claimed_distance(self):
        fam = SpanningTreeFamily(8)
        w = _draw(fam, (80,))
        for r in range(fam.ell + 1):
            res = cheapest_within_distance(fam, w, r)
            assert fam.min_patch_size(res.witness) <= r
            assert w.total(res.witness) == res.value


class TestDuality:
    """value-within-r <= L  iff  defect-at-L <= r, on exhaustive grids."""

    @pytest.mark.parametrize("make", [
        _draw,
        lambda fam, key: WeightAssignment(
            stream(*key).integers(0, 3, fam.ground_size).astype(float)
        ),
    ], ids=["uniform", "zeros-and-ties"])
    @pytest.mark.parametrize("maker", [
        lambda: SpanningTreeFamily(5),
        lambda: MatchingFamily(4),
        lambda: ExplicitFamily(6, [(0, 1), (1, 2, 3), (4, 5)]),
    ])
    def test_equivalence(self, maker, make):
        fam = maker()
        for trial in range(15):
            w = make(fam, (81, trial))
            full = fam.min_weight(w).value
            for frac in np.linspace(0.0, 1.1, 12):
                budget = frac * full
                defect = defect_under_budget(fam, w, budget).defect
                assert defect == oracle_defect_under_budget(fam, w, budget)
                for r in range(fam.ell + 1):
                    near = cheapest_within_distance(fam, w, r).value
                    assert (near <= budget) == (defect <= r)


class TestSevenVertexBruteForce:
    """Exhaustive forest scan of K_7 (36961 acyclic subsets)."""

    def test_defect_and_distance(self):
        fam = SpanningTreeFamily(7)
        assert fam.ground_size == 21
        for trial in range(3):
            w = _draw(fam, (82, trial))
            scan = _forest_scan(fam, w.values)
            assert len(scan) == 36961
            half = 0.5 * fam.min_weight(w).value
            best_defect = min(
                (fam.n - 1) - count for count, total in scan if total <= half
            )
            assert defect_under_budget(fam, w, half).defect == best_defect
            for r in (0, 2, 4, 6):
                best_value = min(
                    total
                    for count, total in scan
                    if (fam.n - 1) - count <= r
                )
                assert cheapest_within_distance(fam, w, r).value == best_value


class TestMatchingLadderNecessity:
    """Cheapest-first greedy edge picking is NOT exact for matchings.

    On K_{2,2} with weights (1, 1.1, 1.1, 100) and budget 2.2, greedy takes
    the cheap diagonal edge first and then cannot afford a second disjoint
    edge, while the anti-diagonal pair (1.1, 1.1) fits exactly.  The ladder
    solver must find defect 0 here.
    """

    def test_counterexample(self):
        fam = MatchingFamily(2)
        w = WeightAssignment([1.0, 1.1, 1.1, 100.0])
        budget = 2.2

        # greedy simulation: cheapest vertex-disjoint affordable edges
        order = np.argsort(w.values, kind="stable")
        used_rows, used_cols, total, picked = set(), set(), 0.0, []
        for e in order:
            i, j = divmod(int(e), 2)
            if i in used_rows or j in used_cols:
                continue
            if total + w.values[e] > budget:
                continue
            picked.append(int(e))
            total += w.values[e]
            used_rows.add(i)
            used_cols.add(j)
        assert len(picked) == 1  # greedy strands itself on the 1.0 edge

        res = defect_under_budget(fam, w, budget)
        assert res.defect == 0
        assert res.witness == (1, 2)
        assert oracle_defect_under_budget(fam, w, budget) == 0

    @pytest.mark.parametrize("make", [
        _draw,
        lambda fam, key: WeightAssignment(
            stream(*key).integers(0, 3, fam.ground_size).astype(float)
        ),
        lambda fam, key: WeightAssignment(
            stream(*key).choice([1e-300, 1.0, 1e300], fam.ground_size)
        ),
    ], ids=["uniform", "zeros-and-ties", "extreme"])
    def test_ladder_matches_oracle_everywhere(self, make):
        for n in (2, 3, 4, 5):
            fam = MatchingFamily(n)
            for trial in range(10):
                w = make(fam, (83, n, trial))
                full = fam.min_weight(w).value
                for frac in (0.0, 0.3, 0.6, 0.9, 1.0, 1.3):
                    budget = frac * full
                    res = defect_under_budget(fam, w, budget)
                    assert res.defect == oracle_defect_under_budget(fam, w, budget)
                    assert res.weight_used <= budget
                    assert fam.min_patch_size(res.witness) == res.defect
                for r in range(n + 1):
                    assert (
                        cheapest_within_distance(fam, w, r).value
                        == oracle_cheapest_within_distance(fam, w, r)
                    )


class TestTalagrandBound:
    def test_values(self):
        assert talagrand_product_bound(0.0) == 1.0
        assert talagrand_product_bound(2.0) == pytest.approx(math.exp(-1.0))
        # at t = sqrt(8 ln 20): bound equals 0.05^2
        t = math.sqrt(8.0 * math.log(20.0))
        assert talagrand_product_bound(t) == pytest.approx(0.0025, rel=1e-12)

    def test_threshold(self):
        assert talagrand_threshold(49, 2.0) == 14.0
        assert talagrand_threshold(1, 0.0) == 0.0
        with pytest.raises(ValueError):
            talagrand_threshold(0, 1.0)
        with pytest.raises(ValueError):
            talagrand_product_bound(-1.0)


class TestCertificateCheck:
    @pytest.mark.parametrize("maker,seed", [
        (lambda: SpanningTreeFamily(6), 84),
        (lambda: MatchingFamily(5), 85),
        (lambda: ExplicitFamily(9, [(0, 1, 2, 3), (3, 4, 5), (5, 6, 7, 8)]), 86),
    ])
    def test_properties_hold(self, maker, seed):
        fam = maker()
        w = _draw(fam, (seed,))
        budget = 0.5 * fam.min_weight(w).value
        report = talagrand_certificate_check(fam, w, budget, perturbations=200)
        assert report.perturbations == 200
        assert report.max_abs_delta <= 1
        assert report.lipschitz_ok
        assert report.nonwitness_increase_ok
        assert report.certificate_ok
        assert report.witness_size <= fam.ell

    def test_single_weight_shift_never_jumps(self):
        # direct recomputation, independent of the packaged checker
        fam = SpanningTreeFamily(6)
        w = _draw(fam, (87,))
        budget = 0.4 * fam.min_weight(w).value
        base = defect_under_budget(fam, w, budget).defect
        rng = stream(88)
        for _ in range(100):
            coord = int(rng.integers(fam.ground_size))
            vals = w.values.copy()
            vals[coord] = rng.choice([1e18, vals[coord] * 3.0, 0.0])
            moved = defect_under_budget(fam, WeightAssignment(vals), budget)
            assert abs(moved.defect - base) <= 1

    def test_nonwitness_increase_keeps_defect(self):
        fam = SpanningTreeFamily(6)
        w = _draw(fam, (89,))
        budget = 0.4 * fam.min_weight(w).value
        base = defect_under_budget(fam, w, budget)
        others = sorted(set(range(fam.ground_size)) - set(base.witness))
        for coord in others[:20]:
            vals = w.values.copy()
            vals[coord] = 1e18
            moved = defect_under_budget(fam, WeightAssignment(vals), budget)
            assert moved.defect == base.defect
