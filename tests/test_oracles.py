"""The enumeration oracles themselves, checked against raw recomputation.

The dual oracles scan only the distinct subsets of members (member_subsets).
That is exhaustive: if S is any subset and member M* attains its defect
min over members of |M - S|, then S & M* has the same defect, and its
total, added in ascending index order, is no larger, because inserting a
non-negative term never lowers a later partial sum.  Here both dual
oracles are compared with a raw scan of all 2^N subsets on instances small
enough to enumerate completely.
"""

import math

import numpy as np
import pytest

from minweight import dual
from minweight.families import (
    _EXPLICIT_MAX_GROUND,
    ExplicitFamily,
    MatchingFamily,
    SpanningTreeFamily,
    WeightAssignment,
)
from minweight.oracles import (
    OracleCheck,
    _reduce_defects,
    member_subsets,
    oracle_cheapest_completion,
    oracle_cheapest_within_distance,
    oracle_defect_under_budget,
    oracle_min_patch_size,
    oracle_min_weight,
    oracle_patchability,
    oracle_suite,
)
from minweight.rngs import stream
from minweight.weights import BaseLaw, InvalidInput, WeightSpec, sample

SPEC = WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER)


def _explicit(ground_size, sizes, key):
    """Seeded members of the given sizes, none of them a superset of another."""
    rng = stream(*key)
    fam = ExplicitFamily(ground_size, [
        rng.choice(ground_size, size, replace=False) for size in sizes
    ])
    assert len(fam.enumerate_members()) == len(sizes)
    return fam


def _sequential_sum(values, subset):
    total = 0.0
    for e in subset:
        total += values[e]
    return total


class TestMemberSubsets:
    @pytest.mark.parametrize("fam", [
        SpanningTreeFamily(4),
        MatchingFamily(3),
        ExplicitFamily(6, [(0, 1, 2), (2, 3, 4, 5), (0, 5)]),
    ], ids=["tree", "matching", "explicit"])
    def test_rows_list_each_mask_ascending(self, fam):
        table = member_subsets(fam)
        num = fam.ground_size
        assert table.rows.shape == (table.masks.size, fam.ell)
        assert np.all(table.masks[1:] > table.masks[:-1])  # distinct
        member_masks = [sum(1 << e for e in m) for m in fam.enumerate_members()]
        for mask, row, defect in zip(table.masks, table.rows, table.defect):
            mask = int(mask)
            elems = [i for i in range(num) if mask >> i & 1]
            assert row.tolist() == elems + [num] * (fam.ell - len(elems))
            assert any(mask & ~mm == 0 for mm in member_masks)
            assert defect == min((mm & ~mask).bit_count() for mm in member_masks)

    @pytest.mark.parametrize("fam", [
        *(SpanningTreeFamily(n) for n in range(2, 7)),
        *(MatchingFamily(n) for n in range(1, 7)),
        ExplicitFamily(6, [(0, 1, 2), (2, 3), (0, 1, 4, 5)]),
        ExplicitFamily(8, [(0, 1, 2, 3, 4, 5, 6), (7,), (1, 7)]),
        ExplicitFamily(6, [(0, 1, 2), (2, 3, 4), (1, 4, 5)]),
    ], ids=[*(f"tree-{n}" for n in range(2, 7)),
            *(f"matching-{n}" for n in range(1, 7)),
            "explicit-unequal-6", "explicit-unequal-8", "explicit-equal-6"])
    def test_defects_equal_the_member_by_member_reduce(self, fam):
        # Where every member has ell elements the table reads a subset's
        # defect as ell - |S|; that closed form holds exactly there.
        table = member_subsets(fam)
        reduced = _reduce_defects(table.member_masks, table.masks)
        assert table.defect.dtype == reduced.dtype
        assert np.array_equal(table.defect, reduced)
        closed = fam.ell - np.bitwise_count(table.masks).astype(np.intp)
        uniform = all(len(m) == fam.ell for m in fam.enumerate_members())
        assert np.array_equal(closed, reduced) == uniform

    def test_one_table_per_family_object(self):
        fam = MatchingFamily(3)
        assert member_subsets(fam) is member_subsets(fam)

    def test_members_enumerated_once_per_family_object(self, monkeypatch):
        fam = SpanningTreeFamily(4)
        calls = []
        original = fam.enumerate_members
        monkeypatch.setattr(fam, "enumerate_members",
                            lambda: calls.append(1) or original())
        w = WeightAssignment(stream(22).random(fam.ground_size))
        for _ in range(2):
            oracle_min_weight(fam, w)
            oracle_min_patch_size(fam, (0, 1))
            oracle_cheapest_completion(fam, (0, 1), w)
            oracle_defect_under_budget(fam, w, 1.0)
        assert len(calls) == 1


class TestSubsetSums:
    def test_matches_canonical_totals(self):
        # One member of 10 elements: its table holds all 1024 subsets.
        # Each cost is the ascending sequential sum, which agrees bit for
        # bit with the assignment totals up to 7 elements (beyond that the
        # vectorized total regroups additions, ROADMAP item 1).
        values = stream(21).random(10)
        w = WeightAssignment(values)
        table = member_subsets(ExplicitFamily(10, [tuple(range(10))]))
        assert table.masks.size == 1024
        for row, cost in zip(table.rows, table.costs(w)):
            subset = tuple(int(e) for e in row if e < 10)
            assert cost == _sequential_sum(values, subset)
            if len(subset) <= 7:
                assert cost == w.total(subset)
            else:
                assert cost == pytest.approx(w.total(subset), rel=1e-12)

    def test_size_limit(self):
        # 2^21 subsets of one member exceed the table limit.
        with pytest.raises(ValueError, match="member-subset table"):
            member_subsets(ExplicitFamily(21, [tuple(range(21))]))


class TestTreeComponentTable:
    """A tree's member subsets are the forests of K_n, and a forest's
    defect is its component count minus one."""

    def test_small_cases(self):
        table = member_subsets(SpanningTreeFamily(4))
        assert table.masks.size == 38
        assert table.masks[0] == 0 and table.defect[0] == 3  # all singletons
        assert table.defect[table.masks == 1] == 2  # one edge
        fam = SpanningTreeFamily(4)
        for member in fam.enumerate_members():
            mask = sum(1 << e for e in member)
            assert table.defect[table.masks == mask] == 0

    def test_component_counts_by_edge_count(self):
        # rows are the forests of K_n, and one with k edges has n - k components
        for n, forests in [(2, 2), (3, 7), (4, 38), (5, 291), (6, 2932)]:
            table = member_subsets(SpanningTreeFamily(n))
            assert table.masks.size == forests
            assert np.all(table.defect == n - 1 - np.bitwise_count(table.masks))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="member-subset table"):
            member_subsets(SpanningTreeFamily(7))


class TestPartialMatchings:
    """A matching family's member subsets are the partial matchings of
    K_{n,n}, and a k-matching's defect is n - k."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_counts(self, n):
        table = member_subsets(MatchingFamily(n))
        sizes = np.bitwise_count(table.masks)
        expect = [math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1)]
        assert table.masks.size == sum(expect)
        if n == 6:
            assert table.masks.size == 13327
        assert np.bincount(sizes, minlength=n + 1).tolist() == expect
        assert np.all(table.defect == n - sizes)

    def test_rows_are_matchings(self):
        table = member_subsets(MatchingFamily(3))
        for row in table.rows:
            edges = [int(e) for e in row if e < 9]
            assert edges == sorted(edges)
            assert all(int(e) == 9 for e in row[len(edges):])  # sentinel padding
            assert len({e // 3 for e in edges}) == len(edges)
            assert len({e % 3 for e in edges}) == len(edges)

    def test_costs_match_canonical_totals(self):
        values = stream(22).random(16)
        w = WeightAssignment(values)
        table = member_subsets(MatchingFamily(4))
        for row, cost in zip(table.rows, table.costs(w)):
            assert cost == w.total(tuple(int(e) for e in row if e < 16))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="member-subset table"):
            member_subsets(MatchingFamily(8))


def _every_subset_total(values):
    """Total of every subset bitmask by the lowest-bit recursion: masks
    whose top bit is e extend the finished lower table, so each total adds
    its elements in ascending index order."""
    sums = np.zeros(1 << values.size)
    for e, value in enumerate(values):
        bit = 1 << e
        sums[bit : 2 * bit] = sums[:bit] + value
    return sums


def _every_subset_defect(fam):
    """min over members of |M - S| for every subset bitmask S."""
    masks = np.arange(1 << fam.ground_size, dtype=np.uint64)
    defects = np.full(masks.size, fam.ell, dtype=np.intp)
    for member in fam.enumerate_members():
        mm = np.uint64(sum(1 << e for e in member))
        np.minimum(defects, np.bitwise_count(mm & ~masks), out=defects)
    return defects


WEIGHTS = {
    "uniform": lambda rng, size: rng.random(size),
    "tied": lambda rng, size: rng.integers(1, 4, size) / 10.0,
    "zero": lambda rng, size: np.where(rng.random(size) < 0.5, 0.0, rng.random(size)),
    "extreme": lambda rng, size: rng.choice([1e-300, 1.0, 1e300], size),
}


def _agrees_with_full_scan(fam, key):
    """Both dual oracles against a scan of all 2^N subsets, for each kind of
    weights in WEIGHTS."""
    for index, (kind, draw) in enumerate(WEIGHTS.items()):
        values = draw(stream(29, *key, index), fam.ground_size)
        w = WeightAssignment(values)
        sums = _every_subset_total(values)
        defects = _every_subset_defect(fam)
        for r in range(fam.ell + 1):
            assert oracle_cheapest_within_distance(fam, w, r) == \
                float(sums[defects <= r].min()), (kind, r)
        # The full scan's defect at budget L: the least defect of a total <= L.
        order = np.argsort(sums, kind="stable")
        totals = sums[order]
        least = np.minimum.accumulate(defects[order])
        # Both sides are non-increasing step functions of the budget, and
        # the full scan steps only at its breakpoints, the attained totals
        # where the least defect drops.  Agreeing at each breakpoint and just
        # below it means agreeing at every budget, every attained total too.
        steps = totals[np.flatnonzero(np.diff(least, prepend=fam.ell + 1))]
        below = np.nextafter(steps[steps > 0], -np.inf)
        for budget in [*steps, *below, np.inf]:
            expected = least[np.searchsorted(totals, budget, side="right") - 1]
            assert oracle_defect_under_budget(fam, w, budget) == expected, \
                (kind, budget)


class TestForestRestrictionIsSound:
    """Tree oracles scan forests only; cyclic subsets pay for edges that
    cannot reduce the component count, so the full scan must agree."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_forest_only_scan_agrees(self, n):
        _agrees_with_full_scan(SpanningTreeFamily(n), (n,))


class TestMatchingRestrictionIsSound:
    """Matching oracles scan partial matchings only; dropping a subset's
    non-matching edges never hurts, so the full scan must agree."""

    def test_full_subset_scan_agrees(self):
        for n in (3, 4):
            _agrees_with_full_scan(MatchingFamily(n), (100 + n,))


class TestExplicitRestrictionIsSound:
    @pytest.mark.parametrize("fam", [
        _explicit(12, (9, 9, 10, 10, 11, 11), (28, 12, 18)),
        _explicit(16, (9, 10, 11, 12, 13, 15), (28, 16, 3)),
    ], ids=["ground-12", "ground-16"])
    def test_full_subset_scan_agrees(self, fam):
        _agrees_with_full_scan(fam, (200 + fam.ground_size,))


def _every_subset_patch_cost(fam, values):
    """Cheapest patch of every subset bitmask S: min over members M of the
    weights of M - S added in ascending index order (adding 0.0 for the
    elements of S is exact)."""
    masks = np.arange(1 << fam.ground_size, dtype=np.uint64)
    best = np.full(masks.size, np.inf)
    for member in fam.enumerate_members():
        total = np.zeros(masks.size)
        for e in sorted(member):
            total = total + np.where(masks >> np.uint64(e) & np.uint64(1), 0.0, values[e])
        np.minimum(best, total, out=best)
    return best


# Levels for the patchability draws; None keeps the uniform law of SPEC.
LEVELS = {"uniform": None, "ternary": (0.0, 1.0, 2.0),
          "extreme": (1e-300, 0.1, 0.7, 1.0, 1e300)}


class TestOraclePatchability:
    @pytest.mark.parametrize("levels", LEVELS.values(), ids=LEVELS.keys())
    @pytest.mark.parametrize("fam", [
        SpanningTreeFamily(3), SpanningTreeFamily(4), MatchingFamily(2),
        MatchingFamily(3), _explicit(10, (9, 9, 9, 9), (31, 10)),
    ], ids=["tree-3", "tree-4", "matching-2", "matching-3", "explicit-10"])
    def test_matches_a_full_subset_sweep(self, fam, levels, monkeypatch):
        if levels is not None:  # the same streams, each weight one of `levels`
            monkeypatch.setattr(WeightAssignment, "draw", classmethod(
                lambda cls, spec, rng, size: cls(rng.choice(levels, size))))
        trials, eps = 8, 0.25
        draws = [WeightAssignment.draw(SPEC, stream(5, 303, t), fam.ground_size)
                 for t in range(trials)]
        swept = np.column_stack([_every_subset_patch_cost(fam, w.values) for w in draws])
        defects = _every_subset_defect(fam)
        table = member_subsets(fam)
        for r in range(fam.ell + 1):
            est = oracle_patchability(fam, SPEC, r, eps, trials, master_seed=5)
            rows = table.masks[table.defect <= r].astype(np.intp)
            assert np.array_equal(est.costs, swept[rows]), r
            worst = np.quantile(swept[defects <= r], 1 - eps, axis=1, method="midpoint")
            assert est.lam == worst.max(), r

    def test_r_zero_is_free(self):
        est = oracle_patchability(MatchingFamily(3), SPEC, 0, 0.1, trials=4)
        assert est.lam == 0.0 and est.g_samples == 6

    @pytest.mark.parametrize("r, eps, trials", [(-1, 0.1, 4), (4, 0.1, 4),
                                                (1, 0.0, 4), (1, 0.1, 0)])
    def test_rejects_bad_arguments(self, r, eps, trials):
        with pytest.raises(ValueError):
            oracle_patchability(MatchingFamily(3), SPEC, r, eps, trials)


def test_explicit_family_at_the_ground_limit():
    # Members of at most 7 elements, where the production totals are the
    # ascending sequential sums too, so the two sides agree exactly.
    fam = ExplicitFamily(_EXPLICIT_MAX_GROUND, [
        (0, 5, 23), (1, 2, 3, 4), (6, 7, 20, 21, 22), (8, 23), (9, 10, 11, 12, 13),
    ])
    w = WeightAssignment(stream(27).random(_EXPLICIT_MAX_GROUND))
    optimum = fam.min_weight(w).value
    for budget in (0.0, 0.4 * optimum, optimum, 1.3 * optimum, np.inf):
        assert oracle_defect_under_budget(fam, w, budget) == \
            dual.defect_under_budget(fam, w, budget).defect
    for r in range(fam.ell + 1):
        assert oracle_cheapest_within_distance(fam, w, r) == \
            dual.cheapest_within_distance(fam, w, r).value


def test_budget_witness_matches_oracle_on_seven_by_seven_matchings():
    # The first exhaustive check of the budget search above n = 6, chord
    # floor included: at every attained total, just below it and at 0.
    # Seven weights add in the same order both ways, so totals agree.
    fam = MatchingFamily(7)
    laws = [(1.0, BaseLaw.UNIFORM_POWER), (0.5, BaseLaw.EXPONENTIAL_POWER),
            (3.0, BaseLaw.UNIFORM_POWER)]
    for index, (q, base) in enumerate(laws):
        spec = WeightSpec(q=q, base=base)
        w = WeightAssignment.draw(spec, stream(33, 7, index), fam.ground_size)
        totals = [fam.distance_witness(w, r).value for r in range(fam.ell + 1)]
        for budget in [*totals, *np.nextafter(totals[:-1], -np.inf)]:
            found = dual.defect_under_budget(fam, WeightAssignment(w.values), budget)
            assert found.defect == oracle_defect_under_budget(fam, w, budget), budget
            assert fam.min_patch_size(found.witness) == found.defect
            assert found.weight_used == w.total(found.witness) <= budget


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: pairwise total")
def test_production_defect_matches_oracle_beyond_eight_elements():
    # Tied decimal weights on members of 9-14 elements: WeightAssignment.total
    # adds the optimum's nine weights pairwise to 1.5999999999999999, while
    # in ascending order they add to 1.6000000000000003.  So at a budget of
    # the production optimum, production finds the optimum affordable
    # (defect 0) and the oracle does not (defect 1).
    fam = ExplicitFamily(16, [
        (0, 2, 4, 5, 6, 7, 8, 9, 11, 13, 14, 15),
        (1, 2, 4, 5, 8, 10, 11, 13, 14),
        (0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15),
        (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        (0, 3, 4, 6, 7, 8, 9, 12, 13, 14, 15),
    ])
    tenths = [1, 2, 2, 1, 2, 1, 1, 3, 2, 2, 3, 1, 3, 1, 2, 2]
    w = WeightAssignment(np.array(tenths) / 10.0)
    budget = fam.min_weight(w).value
    assert dual.defect_under_budget(fam, w, budget).defect == \
        oracle_defect_under_budget(fam, w, budget)


class TestMemberOracles:
    def test_min_weight_tie_break(self):
        fam = ExplicitFamily(4, [(0, 1), (2, 3)])
        w = WeightAssignment([0.25, 0.25, 0.3, 0.2])
        value, member = oracle_min_weight(fam, w)
        assert value == 0.5
        assert member == (0, 1)  # equal totals resolve to the smaller tuple

    def test_matches_solvers(self):
        fam = MatchingFamily(4)
        for trial in range(10):
            w = WeightAssignment(sample(SPEC, stream(25, trial), 16))
            value, member = oracle_min_weight(fam, w)
            solved = fam.min_weight(w)
            assert solved.value == value and solved.witness == member
            kept = member[:2]
            assert oracle_min_patch_size(fam, kept) == fam.min_patch_size(kept)
            mixed = stream(26, trial).integers(0, 16, size=12).tolist()  # repeats
            for g in (mixed, (), member):
                assert oracle_min_patch_size(fam, g) == fam.min_patch_size(g)
            cost, patch = oracle_cheapest_completion(fam, kept, w)
            assert set(patch).isdisjoint(kept)

    def test_completion_is_exhaustive(self):
        fam = ExplicitFamily(5, [(0, 1, 2), (2, 3, 4), (0, 4)])
        w = WeightAssignment([0.5, 0.1, 0.2, 0.9, 0.3])
        cost, patch = oracle_cheapest_completion(fam, (2,), w)
        # completing (2,) inside (0,1,2) costs 0.6, inside (2,3,4) costs 1.2
        assert cost == pytest.approx(0.6)
        assert patch == (0, 1)


class TestOracleSuite:
    def test_full_agreement(self):
        checks = oracle_suite(vectors=5, master_seed=11)
        assert len(checks) == 50  # 10 instances x 5 operations
        assert all(isinstance(c, OracleCheck) for c in checks)
        for check in checks:
            assert check.trials == 5
            assert check.agreed == check.trials, check
        assert {c.family for c in checks} == {"tree", "matching"}
        assert {c.n for c in checks if c.family == "tree"} == {2, 3, 4, 5}
        assert {c.n for c in checks if c.family == "matching"} == set(range(1, 7))
        assert {c.operation for c in checks} == {
            "min_weight",
            "min_patch_size",
            "exact_patch",
            "defect_under_budget",
            "cheapest_within_distance",
        }

    def test_negative_seed_is_rejected_input(self):
        with pytest.raises(InvalidInput, match="non-negative integers, got -1"):
            oracle_suite(vectors=1, master_seed=-1)

    def test_seed_sensitivity(self):
        # different master seeds draw different weight vectors but the
        # agreement record has the same shape
        a = oracle_suite(vectors=2, master_seed=1)
        b = oracle_suite(vectors=2, master_seed=2)
        assert [(c.family, c.n, c.operation) for c in a] == \
            [(c.family, c.n, c.operation) for c in b]
