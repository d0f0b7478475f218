"""Exact family solvers against enumeration and hand-computable cases."""

import itertools

import numpy as np
import pytest

from minweight.families import (
    ExplicitFamily,
    MatchingFamily,
    SpanningTreeFamily,
    WeightAssignment,
    complete_graph_edges,
    min_patch_size,
    min_weight,
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

    def counted(self, values, scan):
        calls = 0

        def counting_scan(order):
            nonlocal calls
            calls += 1
            return scan(order)

        result = original(self, values, counting_scan)
        runs.append(calls)
        return result

    monkeypatch.setattr(SpanningTreeFamily, "_in_weight_order", counted)
    return runs


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

    def test_module_level_wrappers(self):
        fam = ExplicitFamily(3, [(0, 1)])
        w = WeightAssignment([0.5, 0.25, 0.9])
        assert min_weight(fam, w).value == fam.min_weight(w).value
        assert min_patch_size(fam, (0,)) == 1


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

        def solve():
            opt = fam.min_weight(w)
            return (
                opt,
                fam.distance_witness(w, 3),
                fam.budget_forest(w, 0.5 * opt.value),
                fam.cheapest_completion(g, w),
                component_patch(fam, g, w),
            )

        scans = _count_scans(monkeypatch)
        head = solve()
        if case == "cheap-clique":
            # All five solvers really fell back to the full order.
            assert scans == [2] * 5
        monkeypatch.setattr(SpanningTreeFamily, "_PARTITION_THRESHOLD", 10**9)
        assert solve() == head

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
        assert len(scans) >= 5 * 20
        assert set(scans) == {1}
