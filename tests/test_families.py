"""Exact family solvers against enumeration and hand-computable cases."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minweight.dual import defect_under_budget
from minweight.families import (
    ExplicitFamily,
    MatchingFamily,
    SpanningTreeFamily,
    WeightAssignment,
    complete_graph_edges,
    prufer_decode,
)
from minweight.oracles import oracle_min_weight
from minweight.patching import GStrategy, component_patch, sample_depleted_set
from minweight.rngs import stream
from minweight.weights import BaseLaw, WeightSpec, sample

SPEC = WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER)


def _draw(fam, key):
    return WeightAssignment(sample(SPEC, stream(*key), fam.ground.size))


def _count_scans(monkeypatch):
    """Record, per call of the tree edge order, how many times it ran `scan`
    (1: the head sufficed, 2: the scan fell back to the full order)."""
    runs: list[int] = []
    original = SpanningTreeFamily._in_weight_order

    def counted(self, w, scan):
        calls = 0

        def counting_scan(order):
            nonlocal calls
            calls += 1
            return scan(order)

        result = original(self, w, counting_scan)
        runs.append(calls)
        return result

    monkeypatch.setattr(SpanningTreeFamily, "_in_weight_order", counted)
    return runs


def _count_k_matchings(monkeypatch):
    """Record every k that MatchingFamily._k_matching solves."""
    solved: list[int] = []
    original = MatchingFamily._k_matching

    def counted(self, values, k):
        solved.append(k)
        return original(self, values, k)

    monkeypatch.setattr(MatchingFamily, "_k_matching", counted)
    return solved


# (n, weight maker) pairs whose ground sets exceed the partial-selection
# threshold, so tree solvers first scan only the head of the weight order.
HEAD_CASES = {
    "uniform": (100, lambda fam, rng: rng.random(fam.ground.size)),
    "half-zero": (200, lambda fam, rng: np.where(
        rng.random(fam.ground.size) < 0.5, 0.0, rng.random(fam.ground.size)
    )),
    "all-ones": (200, lambda fam, rng: np.ones(fam.ground.size)),
    # The 3321 edges inside vertices 0..81 outnumber the head (864 edges),
    # so no scan can finish inside the head and every solver needs the
    # full order.
    "cheap-clique": (100, lambda fam, rng: np.where(fam.edge_v < 82, 1e-3, 1.0)
                     * rng.random(fam.ground.size)),
}


class TestWeightAssignment:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightAssignment([0.5, -0.1])

    def test_total_is_canonical_ascending_sum(self):
        w = WeightAssignment([0.1, 0.2, 0.3, 0.4, 0.5])
        total = 0.0
        for i in (0, 2, 4):
            total += w.values[i]
        assert w.total((0, 2, 4)) == total
        # order of the index argument must not matter
        assert w.total((4, 0, 2)) == total

    def test_immutability(self):
        w = WeightAssignment([1.0, 2.0])
        with pytest.raises(AttributeError):
            w.values = np.zeros(2)
        with pytest.raises(ValueError):
            w.values[0] = 7.0


class TestSpanningTreeFamily:
    def test_ground_set_shape(self):
        fam = SpanningTreeFamily(6)
        assert fam.ground.size == 15
        assert fam.ell == 5
        u, v = complete_graph_edges(6)
        assert fam.ground.labels[0] == (0, 1)
        assert fam.ground.labels[-1] == (4, 5)
        assert np.all(u < v)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            SpanningTreeFamily(1)

    def test_triangle(self):
        # two cheapest edges of a triangle
        fam = SpanningTreeFamily(3)
        w = WeightAssignment([0.1, 0.2, 0.3])
        res = fam.min_weight(w)
        assert res.value == 0.1 + 0.2
        assert res.witness == (0, 1)

    def test_equal_weights(self):
        fam = SpanningTreeFamily(4)
        res = fam.min_weight(WeightAssignment(np.ones(6)))
        assert res.value == 3.0
        assert len(res.witness) == 3

    def test_zero_edge_used(self):
        fam = SpanningTreeFamily(4)
        vals = np.ones(6)
        vals[3] = 0.0  # edge (1, 2)
        res = fam.min_weight(WeightAssignment(vals))
        assert res.value == 2.0
        assert 3 in res.witness

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_enumeration(self, n):
        fam = SpanningTreeFamily(n)
        for trial in range(20):
            w = _draw(fam, (31, n, trial))
            got = fam.min_weight(w)
            value, witness = oracle_min_weight(fam, w)
            assert got.value == value
            assert got.witness == witness

    def test_witness_is_member(self):
        fam = SpanningTreeFamily(8)
        res = fam.min_weight(_draw(fam, (32,)))
        assert len(res.witness) == fam.ell
        assert fam.min_patch_size(res.witness) == 0

    def test_min_patch_size_counts_components(self):
        fam = SpanningTreeFamily(5)
        # path 0-1-2-3-4 minus two edges leaves three components
        tree = fam.edge_indices([(0, 1), (1, 2), (2, 3), (3, 4)])
        assert fam.min_patch_size(tree) == 0
        assert fam.min_patch_size(tree[:2]) == 2
        assert fam.min_patch_size(()) == 4

    def test_monotone_in_subset(self):
        fam = SpanningTreeFamily(6)
        rng = stream(33)
        for _ in range(50):
            size = int(rng.integers(0, fam.ground.size))
            g = rng.choice(fam.ground.size, size, replace=False)
            extra = int(rng.integers(fam.ground.size))
            grown = np.append(g, extra)
            r0 = fam.min_patch_size(g)
            r1 = fam.min_patch_size(grown)
            assert r1 <= r0
            assert r0 - r1 <= 1

    def test_monotone_under_weight_decrease(self):
        fam = SpanningTreeFamily(7)
        rng = stream(34)
        w = _draw(fam, (34, 0))
        base = fam.min_weight(w).value
        for _ in range(20):
            shrunk = w.values * rng.uniform(0.0, 1.0, fam.ground.size)
            assert fam.min_weight(WeightAssignment(shrunk)).value <= base

    def test_edge_index_bijection(self):
        fam = SpanningTreeFamily(7)
        seen = set()
        for u in range(7):
            for v in range(u + 1, 7):
                i = fam.edge_index(u, v)
                assert fam.ground.labels[i] == (u, v)
                seen.add(i)
        assert seen == set(range(fam.ground.size))
        assert fam.edge_index(5, 2) == fam.edge_index(2, 5)
        with pytest.raises(ValueError):
            fam.edge_index(3, 3)

    def test_distance_beyond_ell_is_empty(self):
        fam = SpanningTreeFamily(4)
        assert fam.distance_witness(_draw(fam, (36,)), fam.ell + 1) == ()

    def test_budget_forest_prefix_property(self):
        # raising the budget only ever extends the kept forest
        fam = SpanningTreeFamily(8)
        w = _draw(fam, (35,))
        full = fam.min_weight(w).value
        prev: set = set()
        for budget in np.linspace(0.0, full, 12):
            kept = set(fam.budget_forest(w, budget))
            assert prev <= kept
            assert w.total(tuple(sorted(kept))) <= budget
            prev = kept
        assert len(prev) == fam.n - 1


@pytest.mark.parametrize("fam", [
    SpanningTreeFamily(5),
    MatchingFamily(3),
    ExplicitFamily(4, [(0, 1), (2, 3)]),
], ids=["tree", "matching", "explicit"])
def test_negative_distance_rejected(fam):
    with pytest.raises(ValueError, match="non-negative"):
        fam.distance_witness(_draw(fam, (38,)), -1)


@pytest.mark.parametrize("budget", [-1.0, float("nan")])
@pytest.mark.parametrize("fam", [
    SpanningTreeFamily(5),
    MatchingFamily(3),
    ExplicitFamily(4, [(0, 1), (2, 3)]),
], ids=["tree", "matching", "explicit"])
def test_bad_budget_rejected(fam, budget):
    with pytest.raises(ValueError, match="non-negative"):
        fam.budget_witness(_draw(fam, (39,)), budget)


# Boundary sizes: ell = 1 (trees n=2, matchings n=1) and ell = 2^j - 1
# (trees n=8, matchings n=7), where the gallop's last probe lands on ell.
_BUDGET_FAMILIES = (
    SpanningTreeFamily(2), SpanningTreeFamily(5), SpanningTreeFamily(8),
    MatchingFamily(1), MatchingFamily(4), MatchingFamily(7),
    ExplicitFamily(6, [(0, 1, 2), (2, 3), (0, 1, 4, 5)]),
    ExplicitFamily(8, [(0, 1, 2, 3, 4, 5, 6), (7,), (1, 7)]),
)
_BUDGET_WEIGHTS = {
    "uniform": lambda rng, size: rng.random(size),
    "zero": lambda rng, size: np.zeros(size),
    "tied": lambda rng, size: rng.integers(0, 3, size) / 2.0,
    "extreme": lambda rng, size: rng.choice([1e-300, 1.0, 1e300], size),
}


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    st.sampled_from(range(len(_BUDGET_FAMILIES))),
    st.sampled_from(sorted(_BUDGET_WEIGHTS)),
    st.integers(0, 2**32 - 1),
)
def test_budget_witness_is_the_smallest_affordable_distance(which, kind, seed):
    """budget_witness(w, L) = min{r : total(distance_witness(w, r)) <= L},
    with that witness, by a linear scan over r, at every attained total
    (defect 0 at the optimum), at 0 (defect ell under positive weights) and
    between consecutive totals."""
    fam = _BUDGET_FAMILIES[which]
    values = _BUDGET_WEIGHTS[kind](np.random.default_rng(seed), fam.ground.size)
    scan = [fam.distance_witness(WeightAssignment(values), r)
            for r in range(fam.ell + 1)]
    totals = sorted({WeightAssignment(values).total(s) for s in scan})
    budgets = totals + [0.0] + [(a + b) / 2 for a, b in zip(totals, totals[1:])]
    w = WeightAssignment(values)
    for budget in budgets:
        defect = next(r for r, s in enumerate(scan) if w.total(s) <= budget)
        assert fam.budget_witness(w, budget) == (defect, scan[defect])


class TestPrufer:
    def test_known_sequence(self):
        # sequence (3, 3, 3, 4) encodes the star-ish tree on 6 vertices
        edges = prufer_decode((3, 3, 3, 4), 6)
        assert sorted(edges) == [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)]

    def test_bijection_count(self):
        n = 5
        trees = {
            tuple(sorted(prufer_decode(seq, n)))
            for seq in itertools.product(range(n), repeat=n - 2)
        }
        assert len(trees) == n ** (n - 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            prufer_decode((0, 1), 5)

    def test_enumeration_uses_all_trees(self):
        fam = SpanningTreeFamily(5)
        members = fam.enumerate_members()
        assert len(members) == 125
        for m in set(members):
            assert fam.min_patch_size(m) == 0


class TestMatchingFamily:
    def test_tiny_cases(self):
        fam = MatchingFamily(1)
        res = fam.min_weight(WeightAssignment([0.37]))
        assert res.value == 0.37
        assert res.witness == (0,)

        fam2 = MatchingFamily(2)
        res2 = fam2.min_weight(WeightAssignment([1.0, 2.0, 3.0, 4.0]))
        assert res2.value == 5.0  # both pairings tie at 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            MatchingFamily(0)

    def test_identity_diagonal(self):
        n = 3
        fam = MatchingFamily(n)
        eps = 1e-3
        vals = np.ones(n * n)
        vals[[0, 4, 8]] = eps
        res = fam.min_weight(WeightAssignment(vals))
        assert res.witness == (0, 4, 8)
        assert res.value == eps + eps + eps

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_against_enumeration(self, n):
        fam = MatchingFamily(n)
        for trial in range(20):
            w = _draw(fam, (41, n, trial))
            got = fam.min_weight(w)
            value, witness = oracle_min_weight(fam, w)
            assert got.value == value
            assert got.witness == witness

    def test_min_patch_size(self):
        fam = MatchingFamily(4)
        matching = (0, 5, 10, 15)
        assert fam.min_patch_size(matching) == 0
        assert fam.min_patch_size(matching[:3]) == 1
        assert fam.min_patch_size(()) == 4
        # two edges sharing a column leave max matching 1
        assert fam.min_patch_size((0, 4)) == 3

    def test_min_patch_size_on_long_augmenting_chain(self):
        # Row i may use columns i and i+1, the last row columns n-1 and 0:
        # a greedy row-by-row search must augment along the whole chain.
        n = 1100
        fam = MatchingFamily(n)
        diagonal = [i * n + i for i in range(n)]
        chain = diagonal + [i * n + i + 1 for i in range(n - 1)] + [(n - 1) * n]
        assert fam.min_patch_size(chain) == 0
        assert fam.min_patch_size(diagonal[:-1]) == 1

    def test_distance_beyond_ell_is_empty(self):
        fam = MatchingFamily(3)
        assert fam.distance_witness(_draw(fam, (37,)), fam.ell + 1) == ()

    def test_budget_solves_each_k_once(self, monkeypatch):
        fam = MatchingFamily(100)
        w = WeightAssignment(np.random.default_rng(1).random(fam.ground.size))
        solved: list[int] = []
        original = MatchingFamily._k_matching

        def counted(self, values, k):
            solved.append(k)
            return original(self, values, k)

        monkeypatch.setattr(MatchingFamily, "_k_matching", counted)
        fam.budget_witness(w, 1.0)
        assert solved and len(solved) == len(set(solved))

    def test_budget_probes_stay_near_the_defect(self, monkeypatch):
        # The gallop probes r <= 2 defect - 1, never the large padded
        # problems around r = n/2 that a bisect over range(n) starts with.
        fam = MatchingFamily(100)
        w = WeightAssignment(np.random.default_rng(1).random(fam.ground.size))
        solved = _count_k_matchings(monkeypatch)
        defect = defect_under_budget(fam, w, 1.0).defect
        assert min(solved) >= fam.n - max(2 * defect - 1, 0)

    def test_min_weight_reads_the_budget_probe(self, monkeypatch):
        fam = MatchingFamily(100)
        w = WeightAssignment(np.random.default_rng(1).random(fam.ground.size))
        solved = _count_k_matchings(monkeypatch)
        defect_under_budget(fam, w, 1.0)
        del solved[:]
        fam.min_weight(w)
        assert solved == []

    def test_assignment_ladder_structure(self):
        fam = MatchingFamily(6)
        w = _draw(fam, (42,))
        costs, matchings = fam.assignment_ladder(w)
        assert costs.shape == (7,)
        assert costs[0] == 0.0 and matchings[0] == ()
        assert np.all(np.diff(costs) > 0)
        for k, m in enumerate(matchings):
            assert len(m) == k
            assert fam.min_patch_size(m) == fam.n - k
            assert w.total(m) == costs[k]
        assert costs[-1] == fam.min_weight(w).value

    def test_ladder_each_level_optimal(self):
        # level k beats every k-subset of every permutation
        n = 4
        fam = MatchingFamily(n)
        for trial in range(10):
            w = _draw(fam, (43, trial))
            costs, _ = fam.assignment_ladder(w)
            best = np.full(n + 1, np.inf)
            best[0] = 0.0
            for perm in itertools.permutations(range(n)):
                for k in range(1, n + 1):
                    for rows in itertools.combinations(range(n), k):
                        edges = tuple(sorted(r * n + perm[r] for r in rows))
                        best[k] = min(best[k], w.total(edges))
            assert np.array_equal(costs, best)


class TestExplicitFamily:
    def test_basic(self):
        fam = ExplicitFamily(3, [(0,), (1, 2)])
        res = fam.min_weight(WeightAssignment([5.0, 1.0, 1.0]))
        assert res.value == 2.0
        assert res.witness == (1, 2)
        assert fam.min_patch_size((1,)) == 1
        assert fam.min_patch_size(()) == 1  # smallest member has one element

    def test_all_pairs(self):
        members = list(itertools.combinations(range(4), 2))
        fam = ExplicitFamily(4, members)
        res = fam.min_weight(WeightAssignment([3.0, 1.0, 4.0, 1.0]))
        assert res.value == 2.0
        assert res.witness == (1, 3)

    def test_minimality_enforced(self):
        fam = ExplicitFamily(4, [(0, 1), (0, 1, 2), (2, 3)])
        assert (0, 1, 2) not in fam.members
        assert set(fam.members) == {(0, 1), (2, 3)}
        assert fam.ell == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ExplicitFamily(3, [])
        with pytest.raises(ValueError):
            ExplicitFamily(3, [(5,)])
        with pytest.raises(ValueError):
            ExplicitFamily(30, [(0,)])


class TestTieHandling:
    def test_equal_weights_deterministic(self):
        # repeated ties must resolve identically run to run
        fam = SpanningTreeFamily(5)
        vals = np.array([0.5] * fam.ground.size)
        first = fam.min_weight(WeightAssignment(vals))
        for _ in range(3):
            again = fam.min_weight(WeightAssignment(vals.copy()))
            assert again.witness == first.witness

    def test_tied_weights_match_oracle(self):
        # discrete weights force many exact ties
        fam = SpanningTreeFamily(5)
        rng = stream(44)
        for _ in range(20):
            vals = rng.integers(1, 4, fam.ground.size) / 4.0
            w = WeightAssignment(vals)
            got = fam.min_weight(w)
            value, _ = oracle_min_weight(fam, w)
            assert got.value == value

    def test_ties_prefer_smallest_index_above_threshold(self):
        # Equal weights: Kruskal in index order picks the star at vertex 0.
        fam = SpanningTreeFamily(200)
        assert fam.ground.size > SpanningTreeFamily._PARTITION_THRESHOLD
        res = fam.min_weight(WeightAssignment(np.ones(fam.ground.size)))
        assert res.witness == tuple(range(199))

    @pytest.mark.parametrize("case", list(HEAD_CASES))
    def test_head_of_order_matches_full_order(self, case, monkeypatch):
        n, make = HEAD_CASES[case]
        fam = SpanningTreeFamily(n)
        rng = stream(46, n)
        w = WeightAssignment(make(fam, rng))
        # Vertex n-1 is isolated in g, so only edges to it can finish g.
        g = tuple(e for e in fam.random_member(rng)[5:] if fam.edge_v[e] != n - 1)

        def solve(w):
            opt = fam.min_weight(w)
            return (
                opt,
                fam.distance_witness(w, 3),
                fam.budget_forest(w, 0.5 * opt.value),
                fam.cheapest_completion(g, w),
                component_patch(fam, g, w),
            )

        scans = _count_scans(monkeypatch)
        head = solve(w)
        if case == "cheap-clique":
            # Every order call really fell back to the full order: the Kruskal
            # chain (shared by min_weight, distance_witness and budget_forest),
            # cheapest_completion and component_patch.
            assert scans == [2] * 3
        monkeypatch.setattr(SpanningTreeFamily, "_PARTITION_THRESHOLD", 10**9)
        # A fresh vector: w's memo holds the head-based order.
        assert solve(WeightAssignment(w.values.copy())) == head

    @pytest.mark.parametrize("q", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("base", list(BaseLaw), ids=[b.value for b in BaseLaw])
    @pytest.mark.parametrize("n", [100, 400])
    def test_head_suffices_on_iid_weights(self, n, base, q, monkeypatch):
        # The head is sized so that i.i.d. weights essentially never need the
        # full order; a fallback here means it was cut too short.
        fam = SpanningTreeFamily(n)
        spec = WeightSpec(q=q, base=base)
        strategies = list(GStrategy)
        scans = _count_scans(monkeypatch)
        for draw in range(20):
            rng = stream(47, n, list(BaseLaw).index(base), int(2 * q), draw)
            g = sample_depleted_set(
                fam, spec, 1 + draw, strategies[draw % len(strategies)], rng
            )
            w = WeightAssignment(sample(spec, rng, fam.ground.size))
            opt = fam.min_weight(w)
            fam.distance_witness(w, n // 10)
            fam.budget_forest(w, 0.5 * opt.value)
            fam.cheapest_completion(g, w)
            component_patch(fam, g, w)
        # Per draw: one order call for the Kruskal chain (min_weight,
        # distance_witness, budget_forest), one each for cheapest_completion
        # and component_patch, plus the auxiliary optimum of the 13 draws
        # whose strategy is not a uniform random member.
        assert len(scans) == 3 * 20 + 13
        assert set(scans) == {1}
