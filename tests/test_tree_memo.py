"""The per-vector memo: tree edge orders and Kruskal chains, k-matchings.

A WeightAssignment has one memo slot, owned by the last family that read it:
a spanning-tree family keeps its edge order and unseeded Kruskal chain
there, a matching family its k-matchings by k.  Every answer must equal the
one a fresh family gives on a fresh copy of the weights, whatever the call
order and whichever family owned the slot before.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minweight.dual import cheapest_within_distance, defect_under_budget
from minweight.families import MatchingFamily, SpanningTreeFamily, WeightAssignment
from minweight.patching import component_patch
from minweight.rngs import stream

SOLVERS = ("min_weight", "budget_witness", "distance_witness",
           "cheapest_completion", "component_patch")


def _solve(fam, w, name, g, param):
    """One tree solver call; `param` picks the distance or the budget."""
    if name == "min_weight":
        return fam.min_weight(w)
    if name == "budget_witness":
        opt = type(fam)(fam.n).min_weight(WeightAssignment(w.values))
        return fam.budget_witness(w, (param % 5) / 4 * opt.value)
    if name == "distance_witness":
        return fam.distance_witness(w, param % (fam.n + 2))
    if name == "cheapest_completion":
        return fam.cheapest_completion(g, w)
    return component_patch(fam, g, w)


def _fresh(n, values, name, g, param, cls=SpanningTreeFamily):
    return _solve(cls(n), WeightAssignment(values.copy()), name, g, param)


def _depleted(fam, rng, r):
    member = fam.random_member(rng)
    keep = rng.permutation(len(member))[r:]
    return tuple(sorted(member[int(i)] for i in keep))


class TestTreeOrderMemo:
    def test_dual_trial_runs_kruskal_once(self, monkeypatch):
        fam = SpanningTreeFamily(100)
        w = WeightAssignment(stream(61).random(fam.ground.size))
        seeds = []
        original = SpanningTreeFamily._greedy_forest

        def counted(self, w, subset=()):
            seeds.append(len(subset))
            return original(self, w, subset)

        monkeypatch.setattr(SpanningTreeFamily, "_greedy_forest", counted)
        defect_under_budget(fam, w, 0.6)
        cheapest_within_distance(fam, w, 10)
        fam.min_weight(w)
        assert seeds == [0]

    @pytest.mark.parametrize("n", [12, 100])
    def test_interleaved_vectors_and_families_match_fresh(self, n):
        rng = stream(62, n)
        fam_a, fam_b = SpanningTreeFamily(n), SpanningTreeFamily(n)
        first = rng.random(fam_a.ground.size)
        second = rng.integers(0, 3, fam_a.ground.size) / 2.0
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
            assert _solve(fam, w, name, g, param) == _fresh(n, values, name, g, param)


class TestMatchingMemo:
    @pytest.mark.parametrize("n", [6, 40])
    def test_interleaved_vectors_and_families_match_fresh(self, n):
        rng = stream(63, n)
        fam_a, fam_b = MatchingFamily(n), MatchingFamily(n)
        first = rng.random(fam_a.ground.size)
        second = rng.integers(0, 3, fam_a.ground.size) / 2.0
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
            assert _solve(fam, w, name, g, param) == \
                _fresh(n, values, name, g, param, MatchingFamily)

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
                        _fresh(fam.n, values, name, (), param, type(fam))


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
        assert _solve(fam, w, name, g, param) == _fresh(n, values, name, g, param)
