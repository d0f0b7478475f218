"""The per-vector memo: distance answers, tree edge orders and chains; and
the tree family's subset memo.

A WeightAssignment has one memo slot, owned by the last family that read it.
Every family keeps its distance answers (SolveResults) there by r < ell
(every r >= ell is the empty set, never solved); a spanning-tree family
also keeps its edge order and Kruskal chain.  A spanning-tree family also
keeps the components of the last non-empty subset tuple it read, and
extends them for a tuple that starts with that tuple's own elements.  Every answer must equal the one a
fresh family gives on a fresh copy of the weights, whatever the call order
and whichever family owned the slot before, and each distinct witness of a
trial is summed once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minweight import families, montecarlo
from minweight.dual import cheapest_within_distance, defect_under_budget
from minweight.families import (
    ExplicitFamily,
    MatchingFamily,
    SolveResult,
    SpanningTreeFamily,
    WeightAssignment,
)
from minweight.patching import (
    GStrategy,
    _verify_patch,
    component_patch,
    estimate_patchability,
    exact_patch,
)
from minweight.rngs import stream
from minweight.weights import WeightSpec

SOLVERS = ("min_weight", "budget_witness", "distance_witness",
           "cheapest_completion", "component_patch")


def _solve(fam, w, name, g, param):
    """One tree solver call; `param` picks the distance or the budget."""
    if name == "min_weight":
        return fam.min_weight(w)
    if name == "budget_witness":
        opt = _copy(fam).min_weight(WeightAssignment(w.values))
        return fam.budget_witness(w, (param % 5) / 4 * opt.value)
    if name == "distance_witness":
        return fam.distance_witness(w, param % (fam.ell + 3))  # up to ell + 2
    if name == "cheapest_completion":
        return fam.cheapest_completion(g, w)
    return component_patch(fam, g, w)


def _copy(fam):
    """A fresh family equal to `fam`."""
    if isinstance(fam, ExplicitFamily):
        return ExplicitFamily(fam.ground_size, fam.enumerate_members())
    return type(fam)(fam.n)


def _fresh(fam, values, name, g, param):
    return _solve(_copy(fam), WeightAssignment(values.copy()), name, g, param)


def _depleted(fam, rng, r):
    member = fam.random_member(rng)
    keep = rng.permutation(len(member))[r:]
    return tuple(sorted(member[int(i)] for i in keep))


def _count_scans(monkeypatch):
    """Record each Kruskal scan (SpanningTreeFamily._kruskal) as its weight
    vector and the number of classes it starts from: n for a chain, fewer
    for a completion from a subset's components."""
    scans = []
    kruskal = SpanningTreeFamily._kruskal

    def counted(self, w, start):
        scans.append((w, start.count))
        return kruskal(self, w, start)

    monkeypatch.setattr(SpanningTreeFamily, "_kruskal", counted)
    return scans


class TestTreeOrderMemo:
    def test_dual_trial_runs_kruskal_once(self, monkeypatch):
        fam = SpanningTreeFamily(100)
        w = WeightAssignment(stream(61).random(fam.ground_size))
        scans = _count_scans(monkeypatch)
        defect_under_budget(fam, w, 0.6)
        cheapest_within_distance(fam, w, 10)
        fam.min_weight(w)
        assert scans == [(w, fam.n)]  # one Kruskal scan: the chain

    def test_patch_trial_builds_one_chain(self, monkeypatch):
        # Both patches of a depleted set at distance 10 and the optimum: the
        # completion scans from the set's 11 components, and the optimum
        # builds the one chain of w.
        fam = SpanningTreeFamily(100)
        rng = stream(65)
        w = WeightAssignment(rng.random(fam.ground_size))
        g = _depleted(fam, rng, 10)
        scans = _count_scans(monkeypatch)
        exact_patch(fam, g, w)
        component_patch(fam, g, w)
        fam.min_weight(w)
        assert scans == [(w, 11), (w, fam.n)]

    def test_patch_trial_builds_one_union_find_per_subset(self, monkeypatch):
        # The depleted set's components are merged once; the two checks
        # and the component patch read copies of them.
        fam = SpanningTreeFamily(100)
        rng = stream(66)
        w = WeightAssignment(rng.random(fam.ground_size))
        g = _depleted(fam, rng, 10)
        built = []
        init = families._UnionFind.__init__

        def counted(self, c):
            built.append(c)
            init(self, c)

        monkeypatch.setattr(families._UnionFind, "__init__", counted)
        exact_patch(fam, g, w)
        component_patch(fam, g, w)
        fam.min_weight(w)
        assert built == [fam.n, fam.n]  # g's components, then the chain's forest

    def test_split_trial_builds_chains_for_x_and_y_only(self, monkeypatch):
        # The red vector y' is only completed from the green witness's
        # r + 1 components: its memo has an order head and no chain.
        scans = _count_scans(monkeypatch)
        config = montecarlo.ExperimentConfig(family="trees", kind="split", n=100,
                                             r=10, s=0.1, trials=1)
        montecarlo.run(config)
        assert [count for _, count in scans] == [100, 100, 11]
        x, y, y_prime = (w for w, _ in scans)
        assert len({id(x), id(y), id(y_prime)}) == 3
        assert x._memo.chain is not None and y._memo.chain is not None
        assert y_prime._memo.order is not None and y_prime._memo.chain is None

    def test_patchability_cell_builds_no_chain(self, monkeypatch):
        fam = SpanningTreeFamily(60)
        scans = _count_scans(monkeypatch)
        estimate = estimate_patchability(fam, WeightSpec(1.0), 5, 0.2,
                                         GStrategy.REMOVE_FROM_RANDOM_MEMBER,
                                         trials=3, g_samples=2)
        assert estimate.costs.shape == (2, 3)
        assert [count for _, count in scans] == [6] * 6  # one completion a cell
        assert all(w._memo.chain is None for w, _ in scans)

    def test_verify_patch_on_a_tree_merges_only_the_patch(self, monkeypatch):
        fam = SpanningTreeFamily(100)
        rng = stream(67)
        w = WeightAssignment(rng.random(fam.ground_size))
        g = _depleted(fam, rng, 10)
        found = fam.cheapest_completion(g, w)  # g's components are now memoised
        merged = []
        merge = families._UnionFind.merge

        def counted(self, edges, us, vs, chosen):
            merged.append(list(edges))
            return merge(self, edges, us, vs, chosen)

        monkeypatch.setattr(families._UnionFind, "merge", counted)
        assert _verify_patch(fam, lambda subset, w: found, g, w) is found
        assert merged == [list(found.witness)]
        with pytest.raises(RuntimeError, match="solver bug"):  # still a real check
            _verify_patch(fam, lambda subset, w: SolveResult(0.0, found.witness[1:]),
                          g, w)

    @pytest.mark.parametrize("before", [None, ()], ids=["fresh", "after-empty"])
    def test_exact_patch_merges_the_subset_once(self, monkeypatch, before):
        # The completion merges g into its components once; the check reads
        # them from the subset memo.  An empty subset read before leaves no
        # key that every later tuple would extend.
        fam = SpanningTreeFamily(100)
        rng = stream(68)
        w = WeightAssignment(rng.random(fam.ground_size))
        g = _depleted(fam, rng, 10)
        if before is not None:
            assert fam.min_patch_size(before) == fam.ell
        merged = []
        merge = families._UnionFind.merge

        def counted(self, edges, us, vs, chosen):
            edges = list(edges)
            merged.extend(edges)
            return merge(self, edges, us, vs, chosen)

        monkeypatch.setattr(families._UnionFind, "merge", counted)
        exact_patch(fam, g, w)
        edges = set(g)
        assert sorted(e for e in merged if e in edges) == list(g)

    @pytest.mark.parametrize("solve", [
        lambda fam, g, w: fam.cheapest_completion(g, w),
        lambda fam, g, w: exact_patch(fam, g, w),
    ], ids=["cheapest_completion", "exact_patch"])
    def test_spanning_subset_needs_no_scan(self, solve):
        # A subset that already spans has the empty patch, found before the
        # edge order is sorted: the memo slot of w stays empty.
        fam = SpanningTreeFamily(40)
        rng = stream(63)
        w = WeightAssignment(rng.random(fam.ground_size))
        member = fam.random_member(rng)
        for g in (member, member + (0, 1)):  # a spanning tree, and with a cycle
            assert solve(fam, g, w) == SolveResult(0.0, ())
            assert w._memo is None

    def test_rescan_reads_a_one_shot_subset_again(self):
        # The edges inside vertices 0..29 outnumber the head, so the
        # completion's scan runs out of the head before it reaches vertex 39
        # and starts over on the whole order, from a saved copy of the
        # subset's components; the subset is read once, for its components.
        fam = SpanningTreeFamily(40)
        rng = stream(64)
        values = np.where(fam.edge_v < 30, 1e-3, 1.0) * rng.random(fam.ground_size)
        g = tuple(e for e in _depleted(fam, rng, 10) if fam.edge_v[e] != 39)
        expected = fam.cheapest_completion(g, WeightAssignment(values))
        w = WeightAssignment(values)
        assert fam.cheapest_completion(iter(g), w) == expected
        assert w._memo.order.size == fam.ground_size

    @pytest.mark.parametrize("n", [12, 100])
    def test_interleaved_vectors_and_families_match_fresh(self, n):
        rng = stream(62, n)
        fam_a, fam_b = SpanningTreeFamily(n), SpanningTreeFamily(n)
        first = rng.random(fam_a.ground_size)
        second = rng.integers(0, 3, fam_a.ground_size) / 2.0
        w1, w2 = WeightAssignment(first), WeightAssignment(second)
        w1_copy = WeightAssignment(w1.values)
        g = _depleted(fam_a, rng, n // 4)
        calls = [
            (fam_a, w1, "min_weight", 0), (fam_b, w1, "distance_witness", 3),
            (fam_a, w2, "budget_witness", 2), (fam_b, w1_copy, "component_patch", 0),
            (fam_a, w1, "budget_witness", 3), (fam_b, w2, "min_weight", 0),
            (fam_a, w1_copy, "distance_witness", 1), (fam_b, w2, "cheapest_completion", 0),
            (fam_a, w1, "cheapest_completion", 0), (fam_a, w2, "distance_witness", 5),
            (fam_b, w1, "min_weight", 0), (fam_a, w1_copy, "budget_witness", 1),
        ]
        for fam, w, name, param in calls:
            values = first if w is not w2 else second
            assert _solve(fam, w, name, g, param) == _fresh(fam, values, name, g, param)


    def test_subset_memo_reads_a_key_equal_by_value_as_a_miss(self):
        # Floats and bools equal to the key's integers are not integers: the
        # memo does not extend the key with them, and the fresh check rejects
        # them.  Numpy integers equal to the key's are read afresh.
        fam = SpanningTreeFamily(12)
        g = (0, 1, 5, 9, 20)
        assert fam.min_patch_size(g) == 6
        for bad in (tuple(float(e) for e in g), (0, True) + g[2:] + (3,),
                    tuple(np.float64(e) for e in g) + (3,)):
            with pytest.raises(ValueError, match="must be integers"):
                fam.min_patch_size(bad)
        assert fam.min_patch_size(tuple(np.int64(e) for e in g) + (3,)) == 5
        assert fam.min_patch_size(g + (3,)) == 5


class TestMatchingMemo:
    @pytest.mark.parametrize("n", [6, 40])
    def test_interleaved_vectors_and_families_match_fresh(self, n):
        rng = stream(63, n)
        fam_a, fam_b = MatchingFamily(n), MatchingFamily(n)
        first = rng.random(fam_a.ground_size)
        second = rng.integers(0, 3, fam_a.ground_size) / 2.0
        w1, w2 = WeightAssignment(first), WeightAssignment(second)
        w1_copy = WeightAssignment(w1.values)
        g = _depleted(fam_a, rng, n // 3)
        calls = [
            (fam_a, w1, "budget_witness", 2), (fam_b, w1, "distance_witness", 3),
            (fam_a, w2, "budget_witness", 1), (fam_b, w1_copy, "min_weight", 0),
            (fam_a, w1, "min_weight", 0), (fam_b, w2, "budget_witness", 3),
            (fam_a, w1_copy, "distance_witness", 1), (fam_b, w2, "cheapest_completion", 0),
            (fam_a, w1, "distance_witness", 1), (fam_a, w2, "distance_witness", 5),
            (fam_b, w1, "budget_witness", 4), (fam_a, w1_copy, "budget_witness", 2),
        ]
        for fam, w, name, param in calls:
            values = first if w is not w2 else second
            assert _solve(fam, w, name, g, param) == _fresh(fam, values, name, g, param)

    def test_tree_and_matching_families_share_one_vector(self):
        # K_9 and K_{6,6} both have 36 edges, so one vector serves both and
        # each call finds the other family's state in the slot.
        tree, matching = SpanningTreeFamily(9), MatchingFamily(6)
        values = stream(64).random(36)
        w = WeightAssignment(values)
        for param in range(6):
            for fam in (tree, matching):
                for name in ("min_weight", "distance_witness", "budget_witness"):
                    assert _solve(fam, w, name, (), param) == \
                        _fresh(fam, values, name, (), param)


_SHARED = {}  # (n, which) -> family, reused across examples


@st.composite
def _instances(draw):
    n = draw(st.one_of(st.integers(5, 30), st.just(100)))
    kind = draw(st.sampled_from(["uniform", "quarters", "half-zero", "all-zero"]))
    seed = draw(st.integers(0, 2**32 - 1))
    calls = draw(st.lists(
        st.tuples(st.sampled_from(SOLVERS), st.integers(0, 200), st.booleans()),
        min_size=1, max_size=8,
    ))
    return n, kind, seed, calls


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_instances())
def test_memoised_answers_match_fresh_objects(instance):
    n, kind, seed, calls = instance
    rng = np.random.default_rng(seed)
    size = n * (n - 1) // 2
    values = {
        "uniform": lambda: rng.random(size),
        "quarters": lambda: rng.integers(0, 5, size) / 4.0,  # zeros and ties
        "half-zero": lambda: np.where(rng.random(size) < 0.5, 0.0, rng.random(size)),
        "all-zero": lambda: np.zeros(size),
    }[kind]()
    w = WeightAssignment(values)
    for name, param, which in calls:
        fam = _SHARED.setdefault((n, which), SpanningTreeFamily(n))
        g = _depleted(fam, np.random.default_rng([seed, param]), 1 + param % (n - 1))
        assert _solve(fam, w, name, g, param) == _fresh(fam, values, name, g, param)



# How a subset memo call extends its base subset g: the tuple's other
# elements, and the form the family reads (a tuple unless named).
_EXTENSIONS = ("none", "patch", "duplicates", "inside", "numpy-ints",
               "prefix-only", "float-prefix", "iterator", "ndarray", "out-of-range",
               "mutate", "after-empty")
_SUBSET_SOLVERS = ("min_patch_size", "cheapest_completion", "component_patch",
                   "min_outgoing_edge_count")


def _outcome(call):
    """call()'s answer, or the type of the ValueError it raised."""
    try:
        return call()
    except ValueError as err:
        return type(err)


def _subset_solve(fam, w, name, subset):
    if name == "min_patch_size":
        return _outcome(lambda: fam.min_patch_size(subset))
    if name == "cheapest_completion":
        return _outcome(lambda: fam.cheapest_completion(subset, w))
    if name == "component_patch":
        return _outcome(lambda: component_patch(fam, subset, w))
    return _outcome(lambda: fam.min_outgoing_edge_count(subset))


def _extended(fam, values, g, how, rng):
    """The subset of one step as a tuple, before it takes the form `how`
    names: g plus the elements `how` adds."""
    size = fam.ground_size
    if how == "patch":
        return g + _copy(fam).cheapest_completion(g, WeightAssignment(values)).witness
    if how == "duplicates":
        return g + g[: 1 + len(g) // 2] + g[:1]
    if how == "inside":  # edges whose ends lie in one component of g
        root = _copy(fam)._classes(g).roots()
        inside = np.flatnonzero(root[fam.edge_u] == root[fam.edge_v])
        return g + tuple(rng.choice(inside, size=min(3, inside.size)).tolist())
    if how == "numpy-ints":
        return g + tuple(np.int64(e) for e in rng.integers(0, size, 3))
    if how == "prefix-only":  # a different subset that starts like g
        return g[: len(g) // 2] + tuple(rng.integers(0, size, 4).tolist())
    if how == "float-prefix":  # equal to g by value, but not integers
        return tuple(float(e) for e in g) + g[:1]
    if how in ("iterator", "ndarray"):
        return g + tuple(rng.integers(0, size, 2).tolist())
    return g


@st.composite
def _subset_memo_instances(draw):
    n = draw(st.sampled_from([2, 3, 5, 12, 30]))
    seed = draw(st.integers(0, 2**32 - 1))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(_SUBSET_SOLVERS), st.sampled_from(_EXTENSIONS),
                  st.integers(0, 1), st.integers(0, 2**16)),
        min_size=1, max_size=12,
    ))
    return n, seed, steps


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_subset_memo_instances())
def test_subset_memo_answers_match_fresh_objects(instance):
    # Every step reads one of two base subsets, plain or extended, so the
    # memo's key is hit, extended, missed and replaced in every order.
    n, seed, steps = instance
    fam = SpanningTreeFamily(n)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 4, fam.ground_size) / 4.0  # ties and zeros
    w = WeightAssignment(values)
    bases = tuple(_depleted(fam, rng, r) for r in (n // 3, 1 + n // 2))
    for name, how, which, param in steps:
        g, step_rng = bases[which], np.random.default_rng([seed, param])
        if how == "float-prefix":
            fam.min_patch_size(g)  # g becomes the key, or extends it
        if how == "after-empty":
            fam.min_patch_size(())  # never a key that every tuple extends
        if how == "out-of-range":
            bad = g + (int(step_rng.integers(0, fam.ground_size)),
                       (-1, fam.ground_size)[param % 2])
            for solver in (fam, _copy(fam)):
                with pytest.raises(ValueError, match="out of range"):
                    solver.min_patch_size(bad)
            continue
        if how == "mutate":  # a caller's union-find is its own
            classes = fam._classes(g)
            classes.merge(range(fam.ground_size), fam.edge_u.tolist(),
                          fam.edge_v.tolist(), [])
            classes.parent[0], classes.count = n - 1, 0
            continue
        subset = _extended(fam, values, g, how, step_rng)
        read = {"iterator": iter, "ndarray": np.array}.get(how, tuple)(subset)
        expected = _subset_solve(_copy(fam), WeightAssignment(values), name, subset)
        assert _subset_solve(fam, w, name, read) == expected


@st.composite
def _explicit_instances(draw):
    size = draw(st.integers(1, 14))
    members = draw(st.lists(
        st.lists(st.integers(0, size - 1), max_size=size), min_size=1, max_size=6,
    ))
    kind = draw(st.sampled_from(["uniform", "quarters", "all-zero"]))
    seed = draw(st.integers(0, 2**32 - 1))
    calls = draw(st.lists(
        st.tuples(st.sampled_from(SOLVERS[:-1]), st.integers(0, 200), st.booleans()),
        min_size=1, max_size=8,
    ))
    return size, members, kind, seed, calls


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_explicit_instances())
def test_memoised_explicit_answers_match_fresh_objects(instance):
    size, members, kind, seed, calls = instance
    rng = np.random.default_rng(seed)
    values = {
        "uniform": lambda: rng.random(size),
        "quarters": lambda: rng.integers(0, 5, size) / 4.0,
        "all-zero": lambda: np.zeros(size),
    }[kind]()
    w = WeightAssignment(values)
    # Two equal families take the slot from each other.
    families = (ExplicitFamily(size, members), ExplicitFamily(size, members))
    for name, param, which in calls:
        fam = families[which]
        g = _depleted(fam, np.random.default_rng([seed, param]), param % (fam.ell + 1))
        assert _solve(fam, w, name, g, param) == _fresh(fam, values, name, g, param)


@pytest.mark.parametrize("fam", [
    SpanningTreeFamily(6), MatchingFamily(4),
    ExplicitFamily(6, [(0, 1, 2), (2, 3), (0, 4, 5)]),
], ids=["tree", "matching", "explicit"])
def test_distances_beyond_ell_share_one_answer(fam, monkeypatch):
    solved = []
    original = type(fam)._distance_witness

    def counted(self, w, r):
        solved.append(r)
        return original(self, w, r)

    monkeypatch.setattr(type(fam), "_distance_witness", counted)
    values = stream(65).random(fam.ground_size)
    w = WeightAssignment(values)
    for r in (fam.ell + 2, fam.ell, fam.ell + 1, fam.ell + 7):
        found = fam.distance_witness(w, r)
        assert found == _copy(fam).distance_witness(WeightAssignment(values), r)
        assert (found.value, found.witness) == (0.0, ())
    # The empty answer needs no solve, for this vector or a fresh copy.
    assert solved == []


@pytest.mark.parametrize("label, fields", [
    ("matching-dual", dict(family="matchings", n=100, budget=1.0, r=10)),
    ("tree-dual", dict(family="trees", n=400, budget=1.2020569031595942, r=2)),
])
def test_dual_trial_sums_each_witness_once(label, fields, monkeypatch):
    # A dual trial asks for the budget defect, the cheapest set within r
    # and the optimum: every distinct witness of its vector is summed once.
    # Tree witnesses and WeightAssignment.total share one canonical sum.
    summed = []
    original = families._canonical_sum

    def counted(values, idx):
        summed.append(tuple(idx.tolist()))
        return original(values, idx)

    monkeypatch.setattr(families, "_canonical_sum", counted)
    config = montecarlo.ExperimentConfig(kind="dual", trials=1, master_seed=7, **fields)
    montecarlo.run(config)
    assert len(summed) >= 2 and len(summed) == len(set(summed))


def test_explicit_distance_solve_sums_each_candidate_once(monkeypatch):
    # One sum per member's candidate picks the cheapest; the answer keeps it.
    fam = ExplicitFamily(6, [(0, 1, 2), (2, 3), (0, 4, 5)])
    w = WeightAssignment(stream(66).random(fam.ground_size))
    expected = _copy(fam).distance_witness(WeightAssignment(w.values), 1)
    summed = []
    original = WeightAssignment.total

    def counted(self, indices):
        summed.append(tuple(indices))
        return original(self, indices)

    monkeypatch.setattr(WeightAssignment, "total", counted)
    found = fam.distance_witness(w, 1)
    assert found == expected
    assert found.value == original(w, found.witness)
    assert len(summed) == len(fam.enumerate_members())
