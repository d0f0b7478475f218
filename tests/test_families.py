"""Exact family solvers against enumeration and hand-computable cases."""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from minweight import montecarlo
from minweight.dual import cheapest_within_distance, defect_under_budget
from minweight.families import (
    ExplicitFamily,
    Family,
    MatchingFamily,
    SolveResult,
    SpanningTreeFamily,
    WeightAssignment,
    complete_graph_edges,
    prufer_decode,
)
from minweight.oracles import oracle_cheapest_within_distance, oracle_min_weight
from minweight.patching import GStrategy, component_patch, sample_depleted_set
from minweight.rngs import stream
from minweight.weights import BaseLaw, InvalidInput, WeightSpec, sample

SPEC = WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER)


def _draw(fam, key):
    return WeightAssignment(sample(SPEC, stream(*key), fam.ground_size))


def _count_sorts(monkeypatch):
    """Record the k of each sort of the tree edge order (_order_prefix): a
    head for k < N, the whole order for k = N."""
    sorts: list[int] = []
    original = SpanningTreeFamily._order_prefix

    def counted(values, k):
        sorts.append(k)
        return original(values, k)

    monkeypatch.setattr(SpanningTreeFamily, "_order_prefix", staticmethod(counted))
    return sorts


def _count_k_matchings(monkeypatch):
    """Record every k that MatchingFamily._k_matching solves."""
    solved: list[int] = []
    original = MatchingFamily._k_matching

    def counted(self, values, k):
        solved.append(k)
        return original(self, values, k)

    monkeypatch.setattr(MatchingFamily, "_k_matching", counted)
    return solved


# (n, weight maker) pairs whose ground sets are larger than the head of the
# weight order (floor((n/2)(ln n + 4)) + 64 edges), so tree solvers first
# scan a proper prefix of the order unless ties fill it.
HEAD_CASES = {
    "uniform": (100, lambda fam, rng: rng.random(fam.ground_size)),
    "half-zero": (200, lambda fam, rng: np.where(
        rng.random(fam.ground_size) < 0.5, 0.0, rng.random(fam.ground_size)
    )),
    "all-ones": (200, lambda fam, rng: np.ones(fam.ground_size)),
    # The 3321 edges inside vertices 0..81 outnumber the head (k = 494) and
    # its fourfold regrowth (k = 1976), so no scan can finish inside either:
    # the first one goes on to the full order, which every later scan of the
    # vector then reads.
    "cheap-clique": (100, lambda fam, rng: np.where(fam.edge_v < 82, 1e-3, 1.0)
                     * rng.random(fam.ground_size)),
}


class TestWeightAssignment:
    @pytest.mark.parametrize("values, message", [
        ([0.5, -0.1], "non-negative"),
        ([[0.5, 1.0]], "one-dimensional"),
        ([], "non-empty"),
    ], ids=["negative", "2-d", "empty"])
    def test_rejects_a_malformed_vector(self, values, message):
        with pytest.raises(ValueError, match=f"^weights must be {message}$"):
            WeightAssignment(values)

    def test_total_is_canonical_ascending_sum(self):
        w = WeightAssignment([0.1, 0.2, 0.3, 0.4, 0.5])
        total = 0.0
        for i in (0, 2, 4):
            total += w.values[i]
        assert w.total((0, 2, 4)) == total
        # order of the index argument must not matter
        assert w.total((4, 0, 2)) == total

    def test_total_rejects_indices_out_of_range(self):
        # Neither end wraps around or reaches past the vector.
        w = WeightAssignment([1.0, 2.0, 4.0])
        assert w.total([2, 0]) == 5.0
        for bad in ([-1], [3], [0, 3], [-1, 2]):
            with pytest.raises(ValueError, match="subset indices out of range"):
                w.total(bad)

    def test_immutability(self):
        w = WeightAssignment([1.0, 2.0])
        with pytest.raises(AttributeError):
            w.values = np.zeros(2)
        with pytest.raises(ValueError):
            w.values[0] = 7.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-negative|finite"):
            WeightAssignment([0.5, bad])

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "non-negative"),
        (-np.nan, "non-negative"),
        (np.inf, "finite"),
        (-np.inf, "non-negative"),
        (-5e-324, "non-negative"),  # the negative float nearest 0
    ], ids=["nan", "-nan", "inf", "-inf", "-5e-324"])
    def test_rejects_with_the_two_checks_messages(self, bad, message):
        # The one-reduction check lets no such bits through, and the two
        # checks behind it name the failure, alone or among valid weights.
        for values in ([bad], [0.5, bad], [bad, 0.0, -0.0, 2.0]):
            for make in (WeightAssignment, lambda v: WeightAssignment.adopt(np.array(v))):
                with pytest.raises(InvalidInput, match=f"^weights must be {message}$"):
                    make(values)

    def test_accepts_negative_zero_as_zero(self):
        # -0.0 fails the one-reduction check (its sign bit is set) and passes
        # the two checks behind it, alone or among other weights, and every
        # solver answers as for +0.0.
        assert WeightAssignment([-0.0]).values.tobytes() == np.array([-0.0]).tobytes()
        rng = stream(72)
        for fam in (SpanningTreeFamily(6), MatchingFamily(4)):
            plain = rng.random(fam.ground_size)
            plain[::3] = 0.0
            signed = plain.copy()
            signed[::3] = -0.0
            g = fam.random_member(rng)[2:]

            def solve(values):
                w = WeightAssignment(values)
                return ([fam.distance_witness(w, r) for r in range(fam.ell + 1)],
                        fam.budget_witness(w, 0.0), fam.cheapest_completion(g, w))

            assert solve(signed) == solve(plain)

    def test_infinite_weights_fail_before_any_solver(self):
        # They leave scipy's assignment solver no finite k-matching.
        with pytest.raises(ValueError, match="weights must be finite"):
            MatchingFamily(5).budget_witness(WeightAssignment(np.full(25, np.inf)), 0)

    def test_copies_caller_arrays_once(self):
        source = np.arange(12.0)
        w = WeightAssignment(source[::3])
        assert w.values.flags.c_contiguous and w.values.base is None
        source[0] = 5.0
        assert w.values.tolist() == [0.0, 3.0, 6.0, 9.0]

    @pytest.mark.parametrize("base", list(BaseLaw))
    @pytest.mark.parametrize("q", [0.01, 0.5, 1.0, 3.0, 50.0])
    def test_draw_equals_a_copied_sample(self, base, q):
        spec = WeightSpec(q=q, base=base)
        for k in range(3):
            drawn = WeightAssignment.draw(spec, stream(70, k), 500).values
            copied = WeightAssignment(sample(spec, stream(70, k), 500)).values
            assert drawn.tobytes() == copied.tobytes()

    def test_drawn_vector_is_immutable(self):
        w = WeightAssignment.draw(SPEC, stream(72), 6)
        with pytest.raises(AttributeError):
            w.values = np.zeros(6)
        with pytest.raises(ValueError):
            w.values[0] = 7.0

    def test_draw_rejects_overflowed_weights(self):
        spec = WeightSpec(q=1e-4, base=BaseLaw.EXPONENTIAL_POWER)
        with pytest.raises(ValueError, match="weights must be finite"):
            WeightAssignment.draw(spec, stream(73), 25)

    def test_overflowed_draw_warns_nothing(self):
        # The overflow leaves inf, which _freeze rejects; numpy stays quiet.
        spec = WeightSpec(q=1e-4, base=BaseLaw.EXPONENTIAL_POWER)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="weights must be finite"):
                WeightAssignment.draw(spec, stream(73), 25)


class TestSpanningTreeFamily:
    def test_ground_set_shape(self):
        fam = SpanningTreeFamily(6)
        assert fam.ground_size == 15
        assert fam.ell == 5
        u, v = complete_graph_edges(6)
        assert (fam.edge_u[0], fam.edge_v[0]) == (0, 1)
        assert (fam.edge_u[-1], fam.edge_v[-1]) == (4, 5)
        assert np.all(u < v)

    @pytest.mark.parametrize("n", [2, 3, 7, 255, 256, 257, 1000])
    def test_endpoints_are_triu_indices_in_the_narrowest_dtype(self, n):
        u, v = complete_graph_edges(n)
        a, b = np.triu_indices(n, k=1)
        assert np.array_equal(u, a) and np.array_equal(v, b)
        assert u.dtype == v.dtype and u.dtype.kind == "u"
        assert u.dtype.itemsize == (1 if n <= 256 else 2)

    def test_build_holds_four_bytes_per_edge_and_peaks_there(self):
        # Two uint16 endpoints per edge at n = 2000, filled row by row; the
        # family's other fields take a few kB.
        tracemalloc.start()
        try:
            fam = SpanningTreeFamily(2000)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 4 * fam.ground_size + 16_384
        assert peak <= 1.25 * held

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
            size = int(rng.integers(0, fam.ground_size))
            g = rng.choice(fam.ground_size, size, replace=False)
            extra = int(rng.integers(fam.ground_size))
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
            shrunk = w.values * rng.uniform(0.0, 1.0, fam.ground_size)
            assert fam.min_weight(WeightAssignment(shrunk)).value <= base

    def test_edge_index_bijection(self):
        fam = SpanningTreeFamily(7)
        seen = set()
        for u in range(7):
            for v in range(u + 1, 7):
                i = fam.edge_index(u, v)
                assert (fam.edge_u[i], fam.edge_v[i]) == (u, v)
                seen.add(i)
        assert seen == set(range(fam.ground_size))
        assert fam.edge_index(5, 2) == fam.edge_index(2, 5)
        with pytest.raises(ValueError):
            fam.edge_index(3, 3)

    def test_distance_beyond_ell_is_empty(self):
        fam = SpanningTreeFamily(4)
        assert fam.distance_witness(_draw(fam, (36,)), fam.ell + 1).witness == ()

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
# (trees n=8, matchings n=7), where halving the bracket [0, ell] can end on
# r = ell, which the search answers without a solve.
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
    "scaled": lambda rng, size: rng.random(size) * 2.0**-70,
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
    between consecutive totals.  The derived optimum min_weight(w) (the
    witness at r = 0) has the enumeration oracle's value; explicit families
    also share its tie rule, so their whole SolveResult matches.  A tree or
    matching witness at distance r has ell - r elements and patch size r,
    zero and tiny weights included."""
    fam = _BUDGET_FAMILIES[which]
    values = _BUDGET_WEIGHTS[kind](np.random.default_rng(seed), fam.ground_size)
    scan = [fam.distance_witness(WeightAssignment(values), r).witness
            for r in range(fam.ell + 1)]
    totals = sorted({WeightAssignment(values).total(s) for s in scan})
    budgets = totals + [0.0] + [(a + b) / 2 for a, b in zip(totals, totals[1:])]
    w = WeightAssignment(values)
    for budget in budgets:
        defect = next(r for r, s in enumerate(scan) if w.total(s) <= budget)
        found = fam.budget_witness(w, budget)
        assert (found.defect, found.witness) == (defect, scan[defect])
    if isinstance(fam, ExplicitFamily):
        assert fam.min_weight(w) == SolveResult(*oracle_min_weight(fam, w))
    else:
        assert [(len(s), fam.min_patch_size(s)) for s in scan] == [
            (fam.ell - r, r) for r in range(fam.ell + 1)]
        if not (isinstance(fam, SpanningTreeFamily) and fam.n > 7):
            assert fam.min_weight(w).value == oracle_min_weight(fam, w)[0]


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    st.sampled_from(range(len(_BUDGET_FAMILIES))),
    st.sampled_from(sorted(_BUDGET_WEIGHTS)),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_budget_witness_does_not_depend_on_the_memo(which, kind, seed, data):
    """budget_witness returns the same DualResult from an empty memo as after
    any set of distances was solved first (each a free probe), at every
    attained total, at 0 and between consecutive totals."""
    fam = _BUDGET_FAMILIES[which]
    values = _BUDGET_WEIGHTS[kind](np.random.default_rng(seed), fam.ground_size)
    first = data.draw(st.sets(st.integers(0, fam.ell - 1)), label="solved first")
    totals = sorted({fam.distance_witness(WeightAssignment(values), r).value
                     for r in range(fam.ell + 1)})
    budgets = totals + [0.0] + [(a + b) / 2 for a, b in zip(totals, totals[1:])]
    for budget in budgets:
        w = WeightAssignment(values)
        for r in first:
            fam.distance_witness(w, r)
        assert fam.budget_witness(w, budget) == fam.budget_witness(
            WeightAssignment(values), budget)


# Families that declare a convex distance curve, and the weight kinds they
# are checked on: every budget kind; q = 0.01, where the solver's optima
# can be off by a rounding (ROADMAP item 14); and weights near 2^1021,
# whose totals are finite but whose chords can overflow.
_CONVEX_FAMILIES = tuple(fam for fam in _BUDGET_FAMILIES
                         if isinstance(fam, (SpanningTreeFamily, MatchingFamily)))
_CONVEX_WEIGHTS = {
    **_BUDGET_WEIGHTS,
    "q=0.01": lambda rng, size: sample(WeightSpec(q=0.01), rng, size),
    "huge": lambda rng, size: rng.uniform(0.9, 1.1, size) * 2.0**1021,
}


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    st.sampled_from(range(len(_CONVEX_FAMILIES))),
    st.sampled_from(sorted(_CONVEX_WEIGHTS)),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_chord_floor_prunes_only_unaffordable_distances(which, kind, seed, data):
    """On a family that declares its curve convex, budget_witness returns
    the same DualResult as with the declaration withdrawn (every probe
    solved), at every attained total, at 0 and between consecutive totals,
    after any set of distances was solved first."""
    fam = _CONVEX_FAMILIES[which]
    assert fam._convex
    values = _CONVEX_WEIGHTS[kind](np.random.default_rng(seed), fam.ground_size)
    first = data.draw(st.sets(st.integers(0, fam.ell - 1)), label="solved first")
    totals = sorted({fam.distance_witness(WeightAssignment(values), r).value
                     for r in range(fam.ell + 1)})
    budgets = totals + [0.0] + [(a + b) / 2 for a, b in zip(totals, totals[1:])]

    def search(budget):
        w = WeightAssignment(values)
        for r in first:
            fam.distance_witness(w, r)
        return fam.budget_witness(w, budget)

    for budget in budgets:
        pruned = search(budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(fam), "_convex", False)
            assert search(budget) == pruned


def test_chord_floor_that_overflows_never_prunes():
    # Seven equal weights near 2^1021 add to a finite optimum, but the chord
    # through r = 4 and the empty witness at ell = 7, extended to r = 1,
    # overflows to inf.  The bracket top is r = 1, which is affordable.
    fam = SpanningTreeFamily(8)
    values = np.full(fam.ground_size, 2.28e307)
    w = WeightAssignment(values)
    fam.distance_witness(w, 4)
    found = fam.budget_witness(w, 1.4e308)
    assert found == fam.budget_witness(WeightAssignment(values), 1.4e308)
    assert found.defect == 1


def test_budget_witness_reads_a_probe_past_the_optimum_size():
    # The optimum (2, 3) has 2 elements and ell = 4: the solved r = 3 tops
    # the bracket, and the aim scales by the optimum's drop there, all of it.
    fam = ExplicitFamily(6, [(0, 1, 2), (2, 3), (0, 1, 4, 5)])
    values = [5.0, 5.0, 1.0, 1.0, 5.0, 5.0]
    w = WeightAssignment(values)
    fam.distance_witness(w, 3)
    found = fam.budget_witness(w, 0.5)
    assert found == fam.budget_witness(WeightAssignment(values), 0.5)
    assert (found.defect, found.witness) == (2, ())


class _ScriptedFamily(Family):
    """A stub whose distance-witness totals follow a scripted integer curve
    c(0) >= c(1) >= ... >= c(ell - 1), recording every r it is asked for.

    Elements 0..ell-1 weigh the curve's drops c(r - 1) - c(r) (the last
    one c(ell - 1)) and together are the witness at r = 0, so the free
    bracket drops the largest drops first: it is exact on convex curves
    and falls short of the defect wherever a larger drop comes later.
    Element ell - 1 + r weighs c(r) and alone is the witness at 0 < r < ell.
    """

    def __init__(self, curve) -> None:
        self.curve = [int(c) for c in curve]
        self.ell = len(self.curve)
        self.ground_size = 2 * self.ell - 1
        self.probes: list[int] = []

    def weights(self) -> WeightAssignment:
        drops = [a - b for a, b in zip(self.curve, self.curve[1:])] + self.curve[-1:]
        return WeightAssignment(drops + self.curve[1:])

    def _distance_witness(self, w, r):
        self.probes.append(r)
        if r == 0:
            witness = tuple(range(self.ell))
        else:
            witness = (self.ell - 1 + r,) if r < self.ell else ()
        return SolveResult(w.total(witness), witness)

    def min_patch_size(self, subset):
        raise NotImplementedError

    def cheapest_completion(self, subset, w):
        raise NotImplementedError

    def random_member(self, rng):
        raise NotImplementedError

    def enumerate_members(self):
        raise NotImplementedError


_CURVES = {
    "convex": lambda r, ell: (ell - r) ** 2,
    "concave": lambda r, ell: ell**2 - r**2 + 1,
    "staircase": lambda r, ell: 4 * ((ell - r + 2) // 3),
    # Flat from ell/4 to ell/2, then falling again: not convex.
    "flat-runs": lambda r, ell: (
        (ell - min(r, ell // 4) - max(0, r - ell // 2)) ** 2 + 1
    ),
    # One sharp drop halfway, larger than the drops before it: not convex.
    # The bracket drops that element first, so it falls short of the defect.
    "dip": lambda r, ell: (ell - r) ** 2 // (1 if r < ell // 2 else 4) + 1,
}
# Curves convex up to c(ell) = 0: each drop c(r - 1) - c(r) is at most the
# one before it.
_CONVEX_CURVES = {
    "convex": _CURVES["convex"],
    "linear": lambda r, ell: 3 * (ell - r),
    "zero-tail": lambda r, ell: max(ell // 2 - r, 0) ** 2,
    "geometric": lambda r, ell: 2 ** (ell - r),
}


@pytest.mark.parametrize("shape", list(_CURVES))
def test_budget_search_on_scripted_curves(shape):
    """The search equals a linear scan over r on every curve, bracket hint
    right or wrong, in at most 2 ceil(log2(ell + 1)) + 2 probes, each r at
    most once and never r = ell; so it does again after r0 in {1, ell // 2,
    ell - 1} was solved first, counting only the probes that come after."""
    for ell in range(1, 65):
        curve = [_CURVES[shape](r, ell) for r in range(ell)]
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        fam = _ScriptedFamily(curve)
        totals = sorted(set(curve) | {0})
        budgets = totals + [(a + b) / 2 for a, b in zip(totals, totals[1:])]
        for budget in budgets:
            defect = next((r for r, c in enumerate(curve) if c <= budget), ell)
            expected = (defect, fam.distance_witness(fam.weights(), defect).witness)
            for r0 in (None, 1, ell // 2, ell - 1):
                w = fam.weights()
                if r0 is not None:
                    fam.distance_witness(w, r0)
                del fam.probes[:]
                found = fam.budget_witness(w, budget)
                assert (found.defect, found.witness) == expected
                assert len(fam.probes) <= 2 * math.ceil(math.log2(ell + 1)) + 2
                assert len(set(fam.probes)) == len(fam.probes)
                assert all(r < ell for r in fam.probes)


class _ConvexScriptedFamily(_ScriptedFamily):
    """The scripted stub, declaring its curve convex."""

    _convex = True


@pytest.mark.parametrize("shape", list(_CONVEX_CURVES))
def test_budget_search_prunes_convex_scripted_curves(shape):
    """Declared convex, the stub's search still equals a linear scan, probes
    each r at most once, and never makes more probes than the undeclared
    stub on the same curve, budget and r0: fewer over all of them."""
    probes = {_ScriptedFamily: 0, _ConvexScriptedFamily: 0}
    for ell in (*range(1, 33), 47, 64):
        curve = [_CONVEX_CURVES[shape](r, ell) for r in range(ell)]
        drops = [a - b for a, b in zip(curve, curve[1:] + [0])]
        assert all(a >= b for a, b in zip(drops, drops[1:]))
        totals = sorted(set(curve) | {0})
        budgets = totals + [(a + b) / 2 for a, b in zip(totals, totals[1:])]
        scan = _ScriptedFamily(curve)
        for budget in budgets:
            defect = next((r for r, c in enumerate(curve) if c <= budget), ell)
            expected = (defect, scan.distance_witness(scan.weights(), defect).witness)
            for r0 in (None, 1, ell // 2, ell - 1):
                made = {}
                for kind in probes:
                    fam = kind(curve)
                    w = fam.weights()
                    if r0 is not None:
                        fam.distance_witness(w, r0)
                    del fam.probes[:]
                    found = fam.budget_witness(w, budget)
                    assert (found.defect, found.witness) == expected
                    assert len(set(fam.probes)) == len(fam.probes)
                    made[kind] = len(fam.probes)
                    probes[kind] += made[kind]
                assert made[_ConvexScriptedFamily] <= made[_ScriptedFamily]
    assert probes[_ConvexScriptedFamily] < probes[_ScriptedFamily]


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

    def test_rejects_sizes_out_of_range(self):
        with pytest.raises(ValueError):
            MatchingFamily(0)
        with pytest.raises(ValueError, match="limited to n <= 8"):
            MatchingFamily(9).enumerate_members()

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
        assert fam.distance_witness(_draw(fam, (37,)), fam.ell + 1).witness == ()

    def test_budget_solves_each_k_once(self, monkeypatch):
        fam = MatchingFamily(100)
        w = WeightAssignment(np.random.default_rng(1).random(fam.ground_size))
        solved = _count_k_matchings(monkeypatch)
        fam.budget_witness(w, 1.0)
        assert solved and len(solved) == len(set(solved))

    def test_budget_never_solves_k_zero(self, monkeypatch):
        # Budget 0 under positive weights: the defect is ell = n, whose
        # witness (k = 0, the empty matching) is known without a solve.
        fam = MatchingFamily(20)
        w = WeightAssignment(1.0 - np.random.default_rng(2).random(fam.ground_size))
        solved = _count_k_matchings(monkeypatch)
        found = fam.budget_witness(w, 0.0)
        assert (found.defect, found.witness, found.weight_used) == (fam.n, (), 0.0)
        assert solved and 0 not in solved and len(solved) == len(set(solved))

    def test_budget_probes_stay_near_the_defect(self, monkeypatch):
        # The aimed search probes r <= 2 defect - 1, never the large
        # padded problems around r = n/2 that a bisect over range(n)
        # starts with.
        fam = MatchingFamily(100)
        w = WeightAssignment(np.random.default_rng(1).random(fam.ground_size))
        solved = _count_k_matchings(monkeypatch)
        defect = defect_under_budget(fam, w, 1.0).defect
        assert min(solved) >= fam.n - max(2 * defect - 1, 0)

    def test_dual_trial_solves(self, monkeypatch):
        # The budget defect, the cheapest set within r = 10 and the
        # optimum, the search first: 4.35 solves a trial here, 3.8 of them
        # the search's.  A dual trial solves r = 10 first and makes fewer
        # (the next test).
        fam = MatchingFamily(100)
        solved = _count_k_matchings(monkeypatch)
        for seed in range(20):
            w = WeightAssignment(np.random.default_rng(seed).random(fam.ground_size))
            defect_under_budget(fam, w, 1.0)
            cheapest_within_distance(fam, w, 10)
            fam.min_weight(w)
        assert len(solved) / 20 <= 5.5

    def test_dual_trial_search_reads_its_r(self, monkeypatch):
        # montecarlo's dual trial solves its r before the budget search,
        # which reads it.  Besides r = 0 and 10 the search solves d, whose
        # witness it returns, and proves d - 1 unaffordable by a probe or
        # by the chord floor of the totals solved so far: 3.29 solves a
        # trial on these 80, at most 4 each (3.76 and up to 7 when every
        # d - 1 was solved, 4.73 when the search came first).
        per_trial, last = [], [None]
        original = MatchingFamily._k_matching

        def counted(self, values, k):
            if values is not last[0]:  # a trial solves one vector's values
                last[0] = values
                per_trial.append(0)
            per_trial[-1] += 1
            return original(self, values, k)

        monkeypatch.setattr(MatchingFamily, "_k_matching", counted)
        for c in range(20):
            montecarlo.run(montecarlo.ExperimentConfig(
                family="matchings", n=100, trials=4, master_seed=7 + c * 2**32,
                kind="dual", budget=1.0, r=10,
            ))
        assert len(per_trial) == 80
        assert sum(per_trial) / 80 <= 3.4
        assert max(per_trial) <= 4

    def test_min_weight_reads_the_budget_probe(self, monkeypatch):
        fam = MatchingFamily(100)
        w = WeightAssignment(np.random.default_rng(1).random(fam.ground_size))
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

    @pytest.mark.parametrize("base", list(BaseLaw))
    @pytest.mark.parametrize("n", [30, 100])
    def test_shifted_solve_matches_the_plain_padded_square(self, n, base):
        # The plain square, 0 from dummy to real, as reference: the shift
        # leaves the witness scipy returns the same at every k.
        fam = MatchingFamily(n)
        for q in (0.5, 1.0, 3.0):
            spec = WeightSpec(q=q, base=base)
            w = WeightAssignment.draw(spec, stream(47, n, int(q * 2)), fam.ground_size)
            for k in (n, n * 9 // 10, n * 8 // 10, n // 2):
                cost = np.zeros((2 * n - k, 2 * n - k))
                cost[:n, :n] = w.values.reshape(n, n)
                cost[n:, n:] = np.inf
                rows, cols = linear_sum_assignment(cost)
                real = (rows < n) & (cols < n)
                plain = tuple(sorted((rows[real] * n + cols[real]).tolist()))
                assert fam.distance_witness(w, n - k).witness == plain, (q, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_distance_witness_matches_oracle_at_every_r(self, n):
        fam = MatchingFamily(n)
        laws = itertools.product((0.1, 0.5, 1.0, 3.0), BaseLaw)
        draws = [sample(WeightSpec(q=q, base=base), stream(48, n, i), fam.ground_size)
                 for i, (q, base) in enumerate(laws)]
        draws += [stream(49, n, i).integers(1, 4, fam.ground_size) * 1.0 for i in range(4)]
        for values in draws:
            w = WeightAssignment(values)
            for r in range(n + 1):
                assert fam.distance_witness(w, r).value == \
                    oracle_cheapest_within_distance(fam, w, r), (values, r)

    @pytest.mark.parametrize("top, shifted", [
        (2.0**26, True), (np.nextafter(2.0**26, np.inf), False),
    ], ids=["ratio-2^26", "just-above"])
    def test_shift_guard_boundary_matches_oracle(self, top, shifted, monkeypatch):
        # Weights from 1 to top are shifted while top / 1 <= 2**26: the
        # dummy rows then hold the negated column shifts, and each real
        # entry is its weight less its column's shift, exactly.  The real
        # rows pay one price for every dummy column, shifted or not.
        fam, n = MatchingFamily(5), 5
        squares = []
        solve = fam._assign
        monkeypatch.setattr(fam, "_assign",
                            lambda cost: squares.append(cost) or solve(cost))
        for seed in range(4):
            values = np.exp2(stream(50, seed).uniform(0.0, 26.0, fam.ground_size))
            values[[seed, 7 + seed]] = 1.0, top
            w = WeightAssignment(values)
            squares.clear()
            for r in range(n + 1):
                assert fam.distance_witness(w, r).value == \
                    oracle_cheapest_within_distance(fam, w, r), (seed, r)
            padded = [cost for cost in squares if len(cost) > n]
            assert len(padded) == n - 1
            for cost in padded:
                assert (cost[n:, :n] == cost[n, :n]).all()
                assert (cost[n, :n] < 0).all() == shifted
                # Each real entry is its weight plus its dummy-row entry, exactly.
                assert all(math.fsum(terms) == 0.0 for terms in zip(
                    values, np.tile(cost[n, :n], n), -cost[:n, :n].ravel()))
                assert np.unique(cost[:n, n:]).size == 1

    @pytest.mark.xfail(strict=True, reason="tied optima with unequal float sums; ROADMAP item 1")
    def test_tied_decimal_optimum_matches_oracle(self):
        # Tenths tie several perfect matchings in exact arithmetic, but their
        # weights add to 0.7 in one order and 0.7000000000000001 in another;
        # the solver returns one of the latter.
        fam = MatchingFamily(4)
        w = WeightAssignment(stream(31, 4, 4).integers(1, 6, 16) / 10)
        assert fam.min_weight(w).value == oracle_cheapest_within_distance(fam, w, 0)

    @pytest.mark.xfail(strict=True, reason="LSAP inexact at extreme q; ROADMAP item 14")
    def test_k_matching_is_exactly_optimal_at_extreme_q(self):
        # At q = 0.01 these weights span 3e-171 to 0.73.  The exact optimum
        # of a k-matching is the least, over every perfect matching, of its
        # k cheapest edges summed as Fractions; scipy's linear_sum_assignment
        # returns a 4-matching (edge 2 where the optimum has edge 4) that
        # costs more by 4e-17 of the total, below a float sum's rounding.
        n, r = 5, 1
        fam = MatchingFamily(n)
        values = sample(WeightSpec(0.01), stream(31, n, 5), n * n)
        exact = [Fraction(float(v)) for v in values]
        optimum = min(sum(sorted(exact[i * n + p[i]] for i in range(n))[:n - r])
                      for p in itertools.permutations(range(n)))
        witness = fam.distance_witness(WeightAssignment(values), r).witness
        assert sum(exact[e] for e in witness) == optimum


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

    @pytest.mark.parametrize("bad", [(0.5, 1.5), (True, 3), (np.float64(1.0),),
                                     (-1,), (4,), (2**70,)],
                             ids=["floats", "bool", "numpy-float", "negative",
                                  "ground-size", "huge"])
    def test_rejects_a_member_it_would_truncate(self, bad):
        # Members are read like subsets: (0.5, 1.5) once became the member
        # (0, 1), and (True, 3) the member (1, 3).
        with pytest.raises(ValueError, match="subset (elements must be integers|"
                                             "indices out of range)"):
            ExplicitFamily(4, [(2, 3), bad])

    def test_reads_numpy_integer_and_repeated_member_elements(self):
        fam = ExplicitFamily(4, [(np.int64(1), np.int32(0), 1), np.array([3, 2, 3])])
        assert fam.members == ((0, 1), (2, 3))
        assert all(type(e) is int for m in fam.members for e in m)


class TestTieHandling:
    def test_equal_weights_deterministic(self):
        # repeated ties must resolve identically run to run
        fam = SpanningTreeFamily(5)
        vals = np.array([0.5] * fam.ground_size)
        first = fam.min_weight(WeightAssignment(vals))
        for _ in range(3):
            again = fam.min_weight(WeightAssignment(vals.copy()))
            assert again.witness == first.witness

    def test_tied_weights_match_oracle(self):
        # Weights in {0, 1/2, 1} force many exact ties.  Every witness is an
        # optimum, the same on each copy of the vector (a matching's need
        # not be the smallest-index one), and has the oracle's value.
        rng = stream(44)
        for fam in (SpanningTreeFamily(5), MatchingFamily(5)):
            for _ in range(20):
                vals = rng.integers(0, 3, fam.ground_size) / 2.0
                first = [fam.distance_witness(WeightAssignment(vals), r)
                         for r in range(fam.ell + 1)]
                for _ in range(2):
                    w = WeightAssignment(vals.copy())
                    assert [fam.distance_witness(w, r)
                            for r in range(fam.ell + 1)] == first
                value, _ = oracle_min_weight(fam, WeightAssignment(vals))
                assert first[0].value == value

    def test_ties_prefer_smallest_index_above_threshold(self):
        # Equal weights: Kruskal in index order picks the star at vertex 0.
        fam = SpanningTreeFamily(200)
        w = WeightAssignment(np.ones(fam.ground_size))
        res = fam.min_weight(w)
        assert res.witness == tuple(range(199))
        # Every edge ties with the k-th, so the head is the whole order.
        assert w._memo.order.size == fam.ground_size

    @pytest.mark.parametrize("make", [
        lambda rng, size: rng.integers(0, 3, size) / 2.0,
        lambda rng, size: rng.integers(0, 30, size) / 10.0,
        lambda rng, size: np.zeros(size),
        lambda rng, size: rng.choice([0.0, -0.0, 0.5], size),
        lambda rng, size: np.where(
            rng.random(size) < 0.05, rng.choice([0.0, -0.0], size), rng.random(size)
        ),
    ], ids=["halves", "tenths", "zero", "signed-zeros", "few-signed-zeros"])
    def test_head_is_a_prefix_of_the_stable_order(self, make):
        # The head is sorted unstably unless its weights tie; a tie, -0.0
        # against 0.0 included, still breaks by the smaller index.
        fam = SpanningTreeFamily(100)
        w = WeightAssignment(make(stream(48), fam.ground_size))
        head = fam._order_memo(w).order
        full = np.argsort(w.values, kind="stable")
        np.testing.assert_array_equal(head, full[:head.size])

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

        sorts = _count_sorts(monkeypatch)
        head = solve(w)
        if case == "cheap-clique":
            # The Kruskal chain (shared by min_weight, distance_witness and
            # budget_forest) ran out of the head and of its regrowth, and
            # sorted the full order once; cheapest_completion and
            # component_patch then read it.
            assert sorts == [fam._head, 4 * fam._head, fam.ground_size]
        # A fresh vector whose memo starts from the full stable argsort.
        full = WeightAssignment(w.values.copy())
        fam._memo(full).order = np.argsort(full.values, kind="stable")
        assert solve(full) == head

    @pytest.mark.parametrize("q", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("base", list(BaseLaw), ids=[b.value for b in BaseLaw])
    @pytest.mark.parametrize("n", [20, 50, 54, 100, 400])
    def test_head_suffices_on_iid_weights(self, n, base, q, monkeypatch):
        # The head is sized so that i.i.d. weights run out of it with
        # probability ~e^-4 and never need the full order; a full sort here
        # means it was cut too short.  G misses r <= n/5 edges of a member.
        # Near r = n - 1 the component patch needs the one edge between the
        # last two singletons, which it takes from their own edges, so it
        # never regrows the head.
        fam = SpanningTreeFamily(n)
        spec = WeightSpec(q=q, base=base)
        strategies = list(GStrategy)
        sorts = _count_sorts(monkeypatch)
        for draw in range(20):
            rng = stream(47, n, list(BaseLaw).index(base), int(2 * q), draw)
            r = 1 + draw % (n // 5)
            g = sample_depleted_set(
                fam, spec, r, strategies[draw % len(strategies)], rng
            )
            w = WeightAssignment(sample(spec, rng, fam.ground_size))
            opt = fam.min_weight(w)
            fam.distance_witness(w, n // 10)
            fam.budget_forest(w, 0.5 * opt.value)
            fam.cheapest_completion(g, w)
            component_patch(fam, g, w)
        # One head sort per weight vector: the 20 draws' w, which the chain
        # (min_weight, distance_witness, budget_forest), cheapest_completion
        # and component_patch share, and the auxiliary weights of the 13
        # draws whose strategy is not a uniform random member.  A vector that
        # runs out of its head regrows it once, fourfold, short of the whole
        # order.
        k0 = fam._head
        assert sorts.count(k0) == 20 + 13
        assert all(k in (k0, 4 * k0) and k < fam.ground_size for k in sorts)


def _textbook_forest(fam, values, seed=()):
    """Kruskal over the full stable argsort with a plain union-find: the
    accepted edges in order, after unioning `seed`'s edges."""
    parent = list(range(fam.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(e):
        a, b = find(int(fam.edge_u[e])), find(int(fam.edge_v[e]))
        parent[a] = b
        return a != b

    for e in seed:
        union(e)
    return [int(e) for e in np.argsort(values, kind="stable") if union(e)]


def _textbook_component_patch(fam, values, seed):
    """For each component but the last in (size, smallest vertex) order, the
    first edge of the full stable order toward a later component."""
    parent = list(range(fam.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in seed:
        parent[find(int(fam.edge_u[e]))] = find(int(fam.edge_v[e]))
    groups = {}
    for v in range(fam.n):
        groups.setdefault(find(v), []).append(v)
    ranked = sorted(groups.values(), key=lambda vs: (len(vs), vs[0]))
    pos = {v: i for i, vs in enumerate(ranked) for v in vs}
    first = {}
    for e in np.argsort(values, kind="stable"):
        a, b = pos[int(fam.edge_u[e])], pos[int(fam.edge_v[e])]
        if a != b:
            first.setdefault(min(a, b), int(e))
    return tuple(sorted(first.values()))


def _every_16th(rng, size, low):
    """i.i.d. weights where every 16th one is below (low) or above all others."""
    values = 1.0 + rng.random(size)
    values[::16] = rng.random(values[::16].size) + (0.0 if low else 2.0)
    return values


LAYOUTS = {
    "ascending": lambda rng, size: np.arange(size, dtype=float),
    "descending": lambda rng, size: np.arange(size, 0, -1, dtype=float),
    "16th-smallest": lambda rng, size: _every_16th(rng, size, low=True),
    "16th-largest": lambda rng, size: _every_16th(rng, size, low=False),
    "all-tied": lambda rng, size: np.full(size, 0.25),
    "signed-zeros": lambda rng, size: rng.choice([-0.0, 0.0, 0.5], size),
    "extremes": lambda rng, size: rng.choice([1e-300, 1.0, 1e300], size),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("n", [2, 3, 16, 17, 54, 100])
def test_tree_solvers_match_textbook_kruskal(n, layout):
    # The head of the order comes from a threshold on every 16th weight, so
    # these layouts make it far too short or nearly everything; n <= 16
    # reads the whole order as its head.  Whatever the head, the solvers
    # must read the full order's answers.
    fam = SpanningTreeFamily(n)
    rng = stream(49, n, list(LAYOUTS).index(layout))
    values = LAYOUTS[layout](rng, fam.ground_size)
    member = fam.random_member(rng)
    keep = rng.permutation(n - 1)[max(1, (n - 1) // 3):]
    g = tuple(sorted(member[int(i)] for i in keep))
    w = WeightAssignment(values)
    assert fam._chain(w).tolist() == _textbook_forest(fam, values)
    completion = fam.cheapest_completion(g, WeightAssignment(values))
    assert completion.witness == tuple(sorted(_textbook_forest(fam, values, g)))
    patch = component_patch(fam, g, WeightAssignment(values))
    assert patch.witness == _textbook_component_patch(fam, values, g)
    assert patch.value == w.total(patch.witness)


# (weight maker, the k of each sort the chain makes) at n = 100, where the
# first head has k0 = 494 of N = 4950 edges.
REGROWTH_CASES = {
    # The 990 edges inside vertices 0..44 outnumber the head but not its
    # fourfold regrowth, which also holds the edges that join the rest.
    "one-regrowth": (lambda fam, rng: np.where(fam.edge_v < 45, 1e-3, 1.0)
                     * rng.random(fam.ground_size), [494, 1976]),
    # Every 16th weight is among the smallest, so a head holds about k/16
    # edges: 31, then 124, then the whole order.  A head regrown from its
    # own length instead of from k would shrink each time.
    "to-full": (lambda fam, rng: _every_16th(rng, fam.ground_size, low=True),
                [494, 1976, 4950]),
}


@pytest.mark.parametrize("case", list(REGROWTH_CASES))
def test_head_regrows_fourfold_up_to_the_full_order(case, monkeypatch):
    fam = SpanningTreeFamily(100)
    make, expected = REGROWTH_CASES[case]
    rng = stream(51, list(REGROWTH_CASES).index(case))
    values = make(fam, rng)
    g = _depleted_member(fam, rng)
    sorts = _count_sorts(monkeypatch)  # each scan reads one sort of the order
    most = math.ceil(math.log(fam.ground_size / fam._head, 4)) + 1
    assert fam._chain(WeightAssignment(values)).tolist() == _textbook_forest(fam, values)
    assert sorts == expected
    assert len(sorts) <= most
    del sorts[:]
    completion = fam.cheapest_completion(g, WeightAssignment(values)).witness
    assert completion == tuple(sorted(_textbook_forest(fam, values, g)))
    assert len(sorts) <= most


def _textbook_labels(fam, subset):
    """Vertex labels of (V, subset) from a plain union-find, each component
    numbered by the order of its smallest vertex."""
    parent = list(range(fam.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in subset:
        parent[find(int(fam.edge_u[e]))] = find(int(fam.edge_v[e]))
    first = {}
    return [first.setdefault(find(v), len(first)) for v in range(fam.n)]


def _last_vertex_dear(fam, rng):
    """Edges at vertex n-1 cost 1 more than every other edge, so once the
    head is shorter than the clique on the rest (n >= 18), the chain and
    every completion with n-1 isolated fall back to the full order."""
    return rng.random(fam.ground_size) + (fam.edge_v == fam.n - 1)


def _depleted_member(fam, rng):
    member = fam.random_member(rng)
    keep = rng.permutation(len(member))[rng.integers(1, len(member) + 1):]
    return tuple(member[int(i)] for i in keep)


_SCAN_WEIGHTS = {
    "zero": lambda fam, rng: np.zeros(fam.ground_size),
    "tied": lambda fam, rng: rng.integers(0, 3, fam.ground_size) / 2.0,
    "extreme": lambda fam, rng: rng.choice([1e-300, 1.0, 1e300], fam.ground_size),
    "cheap-clique": _last_vertex_dear,
}
_SCAN_SUBSETS = {
    "empty": lambda fam, rng: (),
    "spanning": lambda fam, rng: fam.random_member(rng),
    # Mean degree 2.5: a giant component with cycles beside small ones, and
    # vertex n-1 isolated.
    "cycles": lambda fam, rng: tuple(np.flatnonzero(
        (rng.random(fam.ground_size) < 2.5 / fam.n) & (fam.edge_v < fam.n - 1))),
    "depleted": _depleted_member,
    # At most one edge left: the last singleton sources have few edges toward
    # later components, which the head of the order often misses.
    "near-empty": lambda fam, rng: _depleted_member(fam, rng)[:1],
}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 17, 18, 40]),
    st.sampled_from(sorted(_SCAN_WEIGHTS)),
    st.sampled_from(sorted(_SCAN_SUBSETS)),
    st.integers(0, 2**32 - 1),
)
def test_filtered_scans_match_textbook_kruskal(n, kind, subset_kind, seed):
    """The Kruskal scan filters each block of the order down to the edges
    between two classes; it must accept exactly a plain Kruskal's edges, in
    its order.  The completion of a subset (empty, spanning or between)
    must be a plain Kruskal's from the subset's components, and lie on the
    chain.  On cheap-clique weights at n = 40 the chain scans past the
    first block (512 edges) of the full order; n <= 3 reads the whole order
    as its head."""
    fam = SpanningTreeFamily(n)
    rng = np.random.default_rng(seed)
    values = _SCAN_WEIGHTS[kind](fam, rng)
    g = _SCAN_SUBSETS[subset_kind](fam, rng)
    labels = _textbook_labels(fam, g)  # ranked by size, ties by smallest vertex
    ranking = np.argsort(np.argsort(np.bincount(labels), kind="stable"))
    assert fam._component_positions(g).tolist() == ranking[labels].tolist()
    w = WeightAssignment(values)
    assert fam._chain(w).tolist() == _textbook_forest(fam, values)
    completion = _textbook_forest(fam, values, g)
    patch = tuple(sorted(completion))
    assert fam.cheapest_completion(g, WeightAssignment(values)) == SolveResult(
        w.total(patch), patch)
    assert set(patch) <= set(fam._chain(w).tolist())  # the cut property
    heuristic = component_patch(fam, g, WeightAssignment(values))
    assert heuristic.witness == _textbook_component_patch(fam, values, g)


@pytest.mark.parametrize("kept", [0, 1])
def test_component_patch_of_a_near_empty_subset_reads_only_the_head(kept):
    # With at least n - 2 singletons, the last sources have one or two
    # edges toward a later component, and at these seeds the head of the
    # order misses some: such a source takes the least of its own edges,
    # and the memo's order stays the head.
    fam = SpanningTreeFamily(100)
    rng = stream(50, kept)
    values = rng.random(fam.ground_size)
    g = fam.random_member(rng)[:kept]
    w = WeightAssignment(values)
    patch = component_patch(fam, g, w)
    assert patch.witness == _textbook_component_patch(fam, values, g)
    assert patch.value == w.total(patch.witness)
    assert w._memo.order.size < fam.ground_size
    assert not np.isin(patch.witness, w._memo.order).all()


@pytest.mark.parametrize("subset", [
    (3, 1, 3),
    [3, 1],
    (e for e in (1, 3)),
    (np.int64(3), np.int32(1)),
    np.array([3, 1]),
    np.array([3, 1], dtype=np.uint64),
], ids=["tuple", "list", "generator", "numpy-ints", "array", "uint64-array"])
def test_check_subset_reads_any_iterable_of_indices(subset):
    assert SpanningTreeFamily(4)._check_subset(subset).tolist() == [1, 3]


def test_check_subset_empty_and_out_of_range():
    fam = SpanningTreeFamily(4)  # 6 edges
    for empty in [(), [], iter(()), np.array([]), np.array([], dtype=np.uint8)]:
        assert fam._check_subset(empty).dtype == np.intp
        assert fam._check_subset(empty).size == 0
    for bad in [(0, 6), (-1,), [2, 7], (2**70,), (0, -2**70), (np.uint64(2**64 - 1),),
                np.array([2**63], dtype=np.uint64)]:
        with pytest.raises(ValueError, match="out of range"):
            fam._check_subset(bad)


# Elements that are not integers: each is rejected, never truncated.
_NOT_INTEGERS = {
    "float": (1.5,),
    "float-beside-ints": (0, 1, 2.0),
    "numpy-float": (np.float64(1.0),),
    "bool": (True,),
    "bool-beside-ints": (True, 3),
    "numpy-bool": (np.bool_(False),),
    "float-array": np.array([0.0, 1.0]),
    "bool-array": np.array([True, False]),
    "string": ("1",),
    "none": (None,),
}


@pytest.mark.parametrize("bad", _NOT_INTEGERS.values(), ids=_NOT_INTEGERS.keys())
def test_check_subset_rejects_elements_that_are_not_integers(bad):
    with pytest.raises(ValueError, match="subset elements must be integers"):
        SpanningTreeFamily(4)._check_subset(bad)


@pytest.mark.parametrize("fam, bad", [
    (SpanningTreeFamily(5), (1.5,)),
    (SpanningTreeFamily(5), np.array([1.0, 2.0])),
    (SpanningTreeFamily(5), (2**70,)),
    (MatchingFamily(3), (0.9, 4.2, 8.7)),
    (MatchingFamily(3), (True, False)),
    (MatchingFamily(3), (2**70,)),
    (ExplicitFamily(4, [(0, 1), (2, 3)]), (0.5, 1.5)),
    (ExplicitFamily(4, [(0, 1), (2, 3)]), np.array([True, True])),
    (ExplicitFamily(4, [(0, 1), (2, 3)]), (2**70,)),
], ids=["tree-float", "tree-float-array", "tree-huge", "matching-float",
        "matching-bool", "matching-huge", "explicit-float", "explicit-bool-array",
        "explicit-huge"])
def test_every_family_rejects_a_subset_it_would_truncate(fam, bad):
    # A float or bool element once read as the integer it truncates to (the
    # matching and explicit subsets above as members at distance 0), and an
    # integer beyond intp raised OverflowError.
    w = WeightAssignment(np.ones(fam.ground_size))
    with pytest.raises(ValueError):
        fam.min_patch_size(bad)
    with pytest.raises(ValueError):
        fam.cheapest_completion(bad, w)
    assert fam.min_patch_size(()) == fam.ell  # the empty subset stays valid
    assert fam.min_patch_size(np.array([])) == fam.ell


@pytest.mark.parametrize("bad", [(1.5,), (True,), np.array([1.0]), np.array([True]),
                                 (0, 2.0)], ids=["float", "bool", "float-array",
                                                 "bool-array", "float-beside-int"])
def test_total_rejects_elements_that_are_not_integers(bad):
    w = WeightAssignment([1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="subset elements must be integers"):
        w.total(bad)
    with pytest.raises(ValueError, match="subset indices out of range"):
        w.total((2**70,))
    assert w.total(()) == w.total(np.array([])) == 0.0


@pytest.mark.parametrize("as_input", [
    lambda raw: tuple(raw.tolist()),
    lambda raw: raw.tolist(),
    lambda raw: (int(e) for e in raw),
    lambda raw: raw,
    lambda raw: raw.astype(np.int32),
    lambda raw: tuple(raw),
], ids=["tuple", "list", "generator", "array", "int32-array", "numpy-ints"])
def test_check_subset_equals_np_unique(as_input):
    fam = SpanningTreeFamily(30)  # 435 edges
    rng = stream(91)
    for size in (0, 1, 2, 3, 50, 435, 900):
        raw = rng.integers(0, fam.ground_size, size=size)  # unsorted, with repeats
        got = fam._check_subset(as_input(raw))
        assert got.dtype == np.intp
        assert got.tolist() == np.unique(raw).tolist()
