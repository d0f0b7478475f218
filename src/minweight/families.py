"""Minimal set families over a weighted ground set.

A family F of subsets of a ground set S induces, for a weight assignment w,
the optimum M(F) = min over members of the member's total weight.  S is
{0, ..., N-1}; a family keeps only N = ground_size.  Three concrete
families are provided:

* spanning trees of the complete graph K_n (ground set: the n(n-1)/2 edges),
* perfect matchings of the complete bipartite graph K_{n,n} (the n^2 edges),
* an explicit list of members over an abstract ground set (N <= 24).

A family is one class implementing five primitives:

* min_patch_size(G): the fewest elements that must be added to G so that it
  contains a member (Hamming distance to the upward closure);
* cheapest_completion(G, w): the cheapest such addition, as a SolveResult;
* _distance_witness(w, r): the cheapest subset at patch distance r < ell,
  as a SolveResult;
* random_member(rng): a uniformly random member;
* enumerate_members(): every member (small instances only).

The base class builds the rest on _distance_witness, once for every
family: distance_witness(w, r) checks w and r, answers every r >= ell with
the empty witness without a solve, and otherwise returns the memoised
SolveResult, the witness with its canonical total; min_weight(w), the
optimum, is the answer at r = 0; budget_witness(w, L), the smallest patch
distance of a subset of total weight <= L, is its inverse and returns a
DualResult.  Every answer that names a weighted subset carries that
subset's canonical total, summed once where the subset is found.  Every
other module reaches a family only through these seven public methods and
the trees' own two: component_completion, the component heuristic's patch,
and min_outgoing_edge_count, the lemma behind its bound.

budget_witness searches r with few distance_witness calls, since on
matchings each is an assignment solve.  Every distance the memo already
holds is a free probe, and after r = 0 it takes a free upper bracket: the
optimum minus its r heaviest weights bounds the cost at r.  Inside the
bracket it aims at the defect: it scales that bound's drop to the cost
solved at the bracket's end, probes where the scaled curve meets the
budget, then that probe's certifying neighbour.  A bisect step replaces
the aim whenever the bracket falls behind halving every two probes, so any
curve takes O(log ell) probes.  The answer d is certified by r = d probed
affordable and r = d - 1 shown unaffordable (or d = 0), by a probe or by
the chord floor: on a family whose totals are convex in r (trees and
matchings) the chords through the totals solved nearest on either side
bound an unsolved r from below, and a floor above the budget takes no
solve.

A subset (or an explicit family's member, or WeightAssignment.total's
indices) is any iterable or array of integer element indices, read by one
routine, _sorted_indices; a float, a bool or an index out of range raises
ValueError rather than being truncated or wrapped.

Determinism: tree and explicit tie-breaks prefer the smallest element index,
and a matching witness is an optimum fixed by the vector; solver values are
canonical sums (_canonical_sum: numpy's pairwise sum of the witness weights
in ascending element-index order), so equal witnesses give bit-equal values.

A weight vector holds one N-float array: WeightAssignment(values) copies
the caller's once, WeightAssignment.adopt keeps a fresh array handed over
(draw adopts weights.sample's draw), and one routine sorts every prefix of
the tree edge order: its head partitions a strided sample of N/16 weights,
and holds about the (n/2)(ln n + 4) edges that connect K_n but for odds ~e^-4.

A tree family holds K_n's edge endpoints, edge_u and edge_v, in the
narrowest unsigned dtype that holds n - 1 (uint8 up to n = 256, uint16 up
to 65536): 2 to 4 bytes per edge.  They are only indexed with, compared
and turned into lists; arithmetic on vertices widens to intp first, as
_first_outgoing does, since a narrow dtype wraps.

Trees have one scan routine, the filter-Kruskal (Osipov, Sanders & Singler
2009) over a weight vector's edge order from a given union-find: numpy
drops the edges inside a class before the union-find loop sees a block of
the order.  From the empty forest it makes the vector's chain, once: the
optimum and each distance witness are prefixes of it.  Seeded with a
subset's components it makes that subset's cheapest completion, the
minimum spanning tree of K_n with the subset contracted, and builds no
chain.  The same union-find gives a subset's component positions and patch
distance, so tree runs never load scipy; matching families load it when
they are built.

A tree family also keeps one subset memo: the last non-empty subset tuple
it read, as the key, and that subset's components, which every caller gets
a copy of.  A tuple extends the key when its leading elements are the key's
own objects, checked when the key was stored; such a tuple, like the subset
plus its patch that patching checks, merges only its other elements.  An
equal element that is another object (a float, a bool, a numpy integer) is
read afresh, and an empty key is never extended.

A weight vector has one memo slot, owned by the last family that read it
(Family._memo).  The slot holds one _Memo record: every family keeps its
distance answers there by r, and a tree family also its edge order and
Kruskal chain, so the solvers of one trial sort, scan, solve and sum each
once.  A family that finds another owner replaces the record with a fresh
one; the memo cannot go stale because a WeightAssignment never changes.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from . import weights
from .weights import InvalidInput

__all__ = [
    "WeightAssignment",
    "SolveResult",
    "DualResult",
    "Family",
    "SpanningTreeFamily",
    "MatchingFamily",
    "ExplicitFamily",
]

_EXPLICIT_MAX_GROUND = 24
# The random graph process connects K_n by (n/2)(ln n + c) edges except with
# probability ~e^-c (Erdos-Renyi 1960): the tree head's c, and its regrowth.
_HEAD_C = 4
_HEAD_GROWTH = 4
_INF_BITS = np.float64(np.inf).view(np.uint64)  # NaNs and sign bits lie above


def _canonical_sum(values: np.ndarray, idx: np.ndarray) -> float:
    """numpy's pairwise sum of the weights at `idx` (ascending, in range)."""
    return float(values[idx].sum())


def _sorted_indices(subset, size: int) -> np.ndarray:
    """The elements of `subset` (an array or any iterable) as sorted intp,
    repeats kept: the one reader of a subset, a member or total's indices.

    Each must be an integer in [0, size): a float or a bool raises instead
    of being truncated, and an index out of range instead of wrapping (a
    uint64 array's beyond intp wraps to a negative one, which the range
    check rejects)."""
    if isinstance(subset, np.ndarray):
        if subset.size and subset.dtype.kind not in "iu":
            raise ValueError(f"subset elements must be integers, got {subset.dtype}")
        idx = subset.astype(np.intp, copy=False)
    else:
        if not isinstance(subset, (tuple, list)):
            subset = tuple(subset)
        for kind in set(map(type, subset)):
            if kind is bool or not issubclass(kind, (int, np.integer)):
                raise ValueError(f"subset elements must be integers, got {kind.__name__}")
        try:
            idx = np.fromiter(subset, dtype=np.intp, count=len(subset))
        except OverflowError:
            raise ValueError("subset indices out of range") from None
    idx = np.sort(idx, axis=None)
    if idx.size and (idx[0] < 0 or idx[-1] >= size):
        raise ValueError("subset indices out of range")
    return idx


class WeightAssignment:
    """Non-negative finite weights for every ground-set element.  Immutable."""

    __slots__ = ("values", "_memo")

    def __init__(self, values) -> None:
        self._freeze(np.array(values, dtype=float, ndmin=1))  # the caller's copy

    @classmethod
    def adopt(cls, arr: np.ndarray):
        """The float array `arr`, kept without a copy: the caller hands it
        over, and it becomes read-only."""
        w = cls.__new__(cls)
        w._freeze(arr)
        return w

    @classmethod
    def draw(cls, spec: weights.WeightSpec, rng: np.random.Generator, size: int):
        """`size` fresh weights from `spec`, kept without a copy (none exists)."""
        return cls.adopt(weights.sample(spec, rng, size))

    def _freeze(self, arr: np.ndarray) -> None:
        """Check `arr` (which this vector then owns) and make it read-only;
        one reduction over the bits passes float64 weights without -0.0."""
        if arr.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if arr.size == 0:
            raise ValueError("weights must be non-empty")
        if arr.dtype != np.float64 or not arr.view(np.uint64).max() < _INF_BITS:
            if not arr.min() >= 0:  # also rejects NaN; accepts -0.0
                raise InvalidInput("weights must be non-negative")
            if not arr.max() < np.inf:
                raise InvalidInput("weights must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_memo", None)

    def __setattr__(self, name, value):
        raise AttributeError("WeightAssignment is immutable")

    def __len__(self) -> int:
        return int(self.values.size)

    def total(self, indices) -> float:
        """Canonical subset sum: numpy's pairwise sum of the weights gathered
        in ascending index order (_canonical_sum).  Every index must be an
        integer in range."""
        return _canonical_sum(self.values, _sorted_indices(indices, self.values.size))


@dataclass(frozen=True)
class SolveResult:
    """Optimal value and the witness subset attaining it (sorted indices)."""

    value: float
    witness: tuple[int, ...]


@dataclass(frozen=True)
class DualResult:
    """Defect value with its certifying witness.

    witness is affordable (weight_used, its canonical sum, is <= budget),
    has min_patch_size equal to defect, and at most ell elements.
    """

    budget: float
    defect: int
    witness: tuple[int, ...]
    weight_used: float


@dataclass(slots=True, eq=False)
class _Memo:
    """What `family` keeps in a weight vector's memo slot (Family._memo).

    solved maps each distance r < ell asked for to its SolveResult.  Only
    spanning-tree families fill in the rest: order is a prefix of the
    (weight, index) edge order, _order_prefix at k = head, grown while scans
    need more; chain is the Kruskal chain of K_n (_chain), None until a
    solver needs it: a vector only completed (the split trial's red draw)
    has an order but no chain.
    """

    family: Family
    solved: dict[int, SolveResult] = field(default_factory=dict)
    order: np.ndarray | None = None
    head: int = 0
    chain: np.ndarray | None = None


class Family(ABC):
    """A minimal family of subsets of a common ground set."""

    ground_size: int  # N, the elements are 0..N-1
    ell: int  # largest member size
    # Whether the distance totals are convex in r; budget_witness then
    # bounds an unsolved r by the solved ones (_chord_floor).
    _convex = False

    @abstractmethod
    def min_patch_size(self, subset) -> int:
        """Fewest elements to add to `subset` so it contains a member."""

    @abstractmethod
    def cheapest_completion(self, subset, w: WeightAssignment) -> SolveResult:
        """Cheapest addition P with subset + P containing a member.

        The witness is the patch, disjoint from `subset`; the value is its
        canonical sum.
        """

    @abstractmethod
    def _distance_witness(self, w: WeightAssignment, r: int) -> SolveResult:
        """Cheapest subset (sorted indices) at patch distance at most r, for
        checked arguments with r < ell, with its canonical sum."""

    @abstractmethod
    def random_member(self, rng: np.random.Generator) -> tuple[int, ...]:
        """A uniformly random member as a sorted index tuple."""

    @abstractmethod
    def enumerate_members(self):
        """All members as sorted index tuples (small instances only)."""

    def distance_witness(self, w: WeightAssignment, r: int) -> SolveResult:
        """Cheapest subset (sorted indices) at patch distance at most r, with
        its canonical sum.

        Every r >= ell has the same answer, the empty set, without a solve.
        Any other answer is solved and summed on the first call for (w, r)
        only; later calls read it from the memo of w.
        """
        self._check_weights(w)
        if r < 0:
            raise ValueError(f"patch distance must be non-negative, got {r}")
        if r >= self.ell:
            return SolveResult(0.0, ())
        solved = self._memo(w).solved
        if r not in solved:
            solved[r] = self._distance_witness(w, r)
        return solved[r]

    def min_weight(self, w: WeightAssignment) -> SolveResult:
        """Minimum total weight of a member, with witness: r = 0."""
        return self.distance_witness(w, 0)

    def budget_witness(self, w: WeightAssignment, budget: float) -> DualResult:
        """Smallest patch distance among subsets of total weight <= budget.

        The witness is a sorted index tuple of at most ell elements,
        affordable under the canonical sum, whose patch distance equals the
        defect.  By duality the defect is the smallest r whose distance
        witness is affordable; witness totals do not grow with r, so the
        affordable r < ell form a suffix.  At r = ell the empty set is
        always affordable.

        The search probes r = 0 first (the optimum, which a trial needs
        anyway) and returns 0 if it is affordable.  Every other distance
        already solved for w (a trial's r, say) is a free probe: the
        smallest affordable one is the bracket's upper end, the largest
        unaffordable one below it the lower end.  The r = 0 witness gives a
        free upper bracket too: dropping its r heaviest elements leaves a
        subset at patch distance <= r, so the cost at r is at most the
        optimum minus its r heaviest weights, and the first r where that
        bound is <= budget tops the bracket (ell if none is).

        While no r > 0 is solved the probe is the bracket's midpoint.  After
        that each probe aims at the defect: the bound's drop below the
        optimum, scaled to the drop solved at the bracket's lower end (its
        upper end if the lower is r = 0 or unsolved), meets the budget at
        the aimed r.
        The next probe is the aimed one's certifying neighbour, r - 1 if it
        was affordable and r + 1 if not.  On trees the bound is exact (a
        distance witness is the chain less its r heaviest edges), so the
        aim is the defect; on matchings the scale drifts slowly with r, and
        the aim is the defect or next to it in most trials.  The bracket
        must keep pace with halving every two probes (its width against a
        pace that starts at its first width and shrinks by sqrt 2 a probe);
        whenever it falls behind, a bisect step replaces the aimed probe,
        which keeps any curve (an explicit family's need not be anything
        like the bound) to O(log ell) probes.

        A family that declares its totals convex in r (_convex: trees and
        matchings; not explicit families, whose minimum over members need
        not be) gets a probe's answer for free when convexity decides it:
        before solving an r, the search extends the chords through the two
        solved totals nearest below r and the two nearest above (the empty
        witness, 0.0 at ell, counts) to r.  Each bounds the total at r from
        below (_chord_floor), and if the larger is above the budget by more
        than rounding, r is unaffordable and stays unsolved.

        The aim only guides the probes: the defect d is returned once r = d
        was probed affordable and r = d - 1 shown unaffordable, by a probe
        or by the chord floor (or d = 0), so the answer does not depend on
        what was solved before.  The bracket top is a hint, not a proof: if
        it probes unaffordable, say by rounding, the search goes on up to
        ell.  r = ell is never solved; its witness is the empty set.
        """
        self._check_weights(w)
        budget = float(budget)
        if not budget >= 0:  # also rejects NaN
            raise InvalidInput(f"budget must be non-negative, got {budget}")

        def answer(defect: int) -> DualResult:
            found = self.distance_witness(w, defect)
            return DualResult(budget, defect, found.witness, found.value)

        optimum = self.distance_witness(w, 0)
        if optimum.value <= budget:  # always, if ell = 0
            return answer(0)
        solved = self._memo(w).solved
        # tol: each total is within ell 2^-53 D(0) of its exact sum (D(0),
        # the optimum, tops every total and, here, the budget), and a chord
        # extended to r weighs its two ends' errors by 2 ell + 1 at most;
        # 2^10 more covers solver optima that miss by a rounding (q <=
        # 0.02).  A floor or tol that is not finite never prunes.
        tol = (2 * self.ell + 1) * self.ell * 2.0**-43 * optimum.value

        def affordable(r: int) -> bool:
            if self._convex and r not in solved:
                floor = self._chord_floor(solved, r) - tol
                if math.isfinite(floor) and floor > budget:
                    return False  # unaffordable by convexity, left unsolved
            return self.distance_witness(w, r).value <= budget

        # lo: the largest r known unaffordable; hi: the smallest r solved
        # affordable (or ell); top: the bracket's upper end, hi or the
        # unproven bound below it.  Every distance solved before is a probe.
        hi = min((r for r, s in solved.items() if s.value <= budget), default=self.ell)
        lo = max(r for r, s in solved.items() if r < hi and s.value > budget)
        ascending = np.sort(w.values[np.asarray(optimum.witness, dtype=np.intp)])
        drop = np.concatenate(([0.0], np.cumsum(ascending[::-1])))  # r heaviest, summed
        bound_r = int(np.searchsorted(drop, optimum.value - budget))
        top = min(max(bound_r, lo + 1), hi)
        pace = float(top - lo)
        aimed = None  # the last probe aimed at the defect, until its neighbour
        while True:
            width = top - lo
            if width == 1:
                if top == hi or affordable(top):
                    return answer(top)
                lo, top, aimed = top, hi, None
                continue
            probe = (lo + top) // 2
            if aimed is not None:  # the aimed probe's certifying neighbour
                probe, aimed = (lo + 1 if aimed == lo else top - 1), None
            elif width <= pace and (lo > 0 or hi < self.ell):  # on pace: aim
                anchor = lo if lo > 0 and lo in solved else hi  # hi is solved or ell
                gain = optimum.value - self.distance_witness(w, anchor).value
                probe = top - 1
                if gain > 0:  # Python floats: an overflow is inf, not a warning
                    scale = float(drop[min(anchor, drop.size - 1)]) / gain
                    need = (optimum.value - budget) * scale
                    probe = min(max(int(np.searchsorted(drop, need)), lo + 1), top - 1)
                aimed = probe
            if affordable(probe):
                hi = top = probe
            else:
                lo = probe
            pace /= math.sqrt(2)

    def _chord_floor(self, solved: dict[int, SolveResult], r: int) -> float:
        """A lower bound on the total at an unsolved r of a convex distance
        curve, -inf if it has none.  Outside the span of two points a convex
        curve lies above their chord: so the chord through the two solved
        totals nearest below r, extended to r, bounds it, and so does the
        one through the two nearest above (0.0 at ell counts as solved)."""
        totals = {k: s.value for k, s in solved.items()}
        totals[self.ell] = 0.0
        below = sorted(k for k in totals if k < r)[:-3:-1]  # nearest first
        above = sorted(k for k in totals if k > r)[:2]
        floor = -math.inf
        for a, b in (pair for pair in (below, above) if len(pair) == 2):
            floor = max(floor, totals[a] + (totals[a] - totals[b]) * (r - a) / (a - b))
        return floor

    def _memo(self, w: WeightAssignment) -> _Memo:
        """This family's record in the memo slot of `w`; when another family
        (or none) owns the slot, this family takes it with a fresh record."""
        memo = w._memo
        if memo is None or memo.family is not self:
            memo = _Memo(self)
            object.__setattr__(w, "_memo", memo)
        return memo

    def _check_weights(self, w: WeightAssignment) -> None:
        if len(w) != self.ground_size:
            raise ValueError(f"weight vector has {len(w)} entries, ground set has "
                             f"{self.ground_size}")

    def _check_subset(self, subset) -> np.ndarray:
        """The sorted distinct elements of `subset`, each an integer in range."""
        idx = _sorted_indices(subset, self.ground_size)
        # np.unique without its extra passes: drop each repeat of its left neighbour.
        return idx[np.append(True, idx[1:] != idx[:-1])] if idx.size else idx


def complete_graph_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of K_n's edges in lexicographic (u, v) order.

    Both are in the narrowest unsigned dtype that holds n - 1 (uint8 up to
    n = 256, uint16 up to 65536), filled row by row, so the build peaks at
    what it holds.  Index and compare with them; widen before arithmetic.
    """
    dtype = np.min_scalar_type(n - 1)
    u, v = np.empty((2, n * (n - 1) // 2), dtype=dtype)
    vertices = np.arange(n, dtype=dtype)
    end = 0
    for a in range(n - 1):  # row a: the edges (a, a+1), ..., (a, n-1)
        start, end = end, end + n - 1 - a
        u[start:end] = a
        v[start:end] = vertices[a + 1:]
    return u, v


class _UnionFind:
    """Classes of the vertices 0..c-1 under the edges merged so far.

    The union-find runs on local lists (path halving, union by size), so a
    merge makes no call per edge.  count is the number of classes left.
    """

    __slots__ = ("parent", "size", "count")

    def __init__(self, c: int) -> None:
        self.parent, self.size, self.count = list(range(c)), [1] * c, c

    def copy(self) -> _UnionFind:
        """The same classes in lists of their own to merge into."""
        other = object.__new__(_UnionFind)
        other.parent, other.size, other.count = list(self.parent), list(self.size), self.count
        return other

    def merge(self, edges, us, vs, chosen: list) -> bool:
        """Join u and v for each edge (i, u, v) in turn, appending each i that
        joins two classes to `chosen`; stop, returning True, at one class."""
        parent, size, count = self.parent, self.size, self.count
        for i, u, v in zip(edges, us, vs):
            while (p := parent[u]) != u:
                parent[u] = u = parent[p]
            while (p := parent[v]) != v:
                parent[v] = v = parent[p]
            if u == v:
                continue
            if size[u] < size[v]:
                u, v = v, u
            parent[v] = u
            size[u] += size[v]
            chosen.append(i)
            count -= 1
            if count == 1:
                break
        self.count = count
        return count == 1

    def roots(self) -> np.ndarray:
        """Each vertex's class root, by pointer jumping."""
        root = np.fromiter(self.parent, dtype=np.intp, count=len(self.parent))
        while (root != (up := root[root])).any():
            root = up
        return root


class SpanningTreeFamily(Family):
    """Spanning trees of K_n.  Element i is the i-th edge in lexicographic
    order; ell = n - 1."""

    # The witness at r is the chain less its r heaviest edges: each step
    # in r drops a lighter edge than the last.
    _convex = True

    def __init__(self, n: int) -> None:
        self.n = n = self.check_size(n)
        self.edge_u, self.edge_v = complete_graph_edges(n)
        self.ground_size = self.edge_u.size
        self.ell = n - 1
        self._head = int(n / 2 * (math.log(n) + _HEAD_C)) + 64  # the first k
        self._subset_memo = (), None  # _classes' key tuple and its classes

    @staticmethod
    def check_size(n: int) -> int:
        """n as an int, if K_n has a spanning tree with an edge (n >= 2)."""
        n = int(n)
        if n < 2:
            raise ValueError(f"spanning trees need n >= 2 vertices, got {n}")
        return n

    # -- solvers ---------------------------------------------------------

    @staticmethod
    def _order_prefix(values: np.ndarray, k: int) -> np.ndarray:
        """The read-only prefix of the (weight, index) order of `values` up to
        t, the ceil(k/16)-th order statistic (from 0) of every 16th weight:
        about k + 16 indices on i.i.d. weights, the whole order if k >= N
        (t = inf).  Only a tie makes it sort the prefix stably."""
        sample, j = values[::16], -(-k // 16)
        t = np.partition(sample, j)[j] if j < sample.size else np.inf
        cand = np.flatnonzero(values <= t)
        keys = values[cand]
        perm = np.argsort(keys)
        ranked = keys[perm]
        if np.any(ranked[1:] == ranked[:-1]):  # a tie (-0.0 == 0.0 too): by index
            perm = np.argsort(keys, kind="stable")
        order = cand[perm]
        order.flags.writeable = False
        return order

    def _order_memo(self, w: WeightAssignment) -> _Memo:
        """The memo of `w` for this family, its order made on first use: the
        head, _order_prefix at k = floor((n/2)(ln n + 4)) + 64 (the whole
        order for n <= 16).  Any threshold heads a prefix, so the chain is
        the same."""
        memo = self._memo(w)
        if memo.order is None:
            memo.head = self._head
            memo.order = self._order_prefix(w.values, memo.head)
        return memo

    def _kruskal(self, w: WeightAssignment, start: _UnionFind) -> list[int]:
        """The edges a Kruskal scan over the (weight, index) edge order of `w`
        accepts from the classes of `start` (two or more), in acceptance
        order: from the empty forest, the chain; from a subset's components,
        its cheapest patch, the minimum spanning tree of K_n with the subset
        contracted.  The scan merges into a copy; `start` stays as it is.

        The scan reads the memo's head of the order (see _order_memo).  If
        the head runs out first, the memo's k grows fourfold, up to N (the
        whole order), and the scan starts over from a fresh copy of `start`.
        """
        memo = self._order_memo(w)
        step = max(self.n, 512)  # a floor: most chains at n <= 100 end in block one
        while True:  # at most ceil(log4(N / k0)) + 1 scans
            classes, chosen = start.copy(), []
            for s in range(0, memo.order.size, step):
                # A block becomes lists when the loop reaches it, and only its
                # edges between two classes (the loop would reject the rest).
                block = memo.order[s:s + step]
                us, vs = self.edge_u[block], self.edge_v[block]
                if classes.count < self.n:  # a merge happened: map to roots
                    root = classes.roots()
                    us, vs = root[us], root[vs]
                    keep = us != vs
                    block, us, vs = block[keep], us[keep], vs[keep]
                if classes.merge(block.tolist(), us.tolist(), vs.tolist(), chosen):
                    return chosen
            # The whole order spans K_n, so this ends.
            memo.head = min(_HEAD_GROWTH * memo.head, w.values.size)
            memo.order = self._order_prefix(w.values, memo.head)

    def _chain(self, w: WeightAssignment) -> np.ndarray:
        """The Kruskal chain of `w`: the edges _kruskal accepts from the empty
        forest, in acceptance order (read-only intp), made once.

        Its first k edges are the minimum-weight k-edge forest, so the
        optimum, every budget prefix and every distance witness read it.
        """
        memo = self._order_memo(w)
        if memo.chain is None:
            memo.chain = np.array(self._kruskal(w, _UnionFind(self.n)), dtype=np.intp)
            memo.chain.flags.writeable = False
        return memo.chain

    def budget_forest(self, w: WeightAssignment, budget: float) -> list[int]:
        """Largest affordable prefix of the Kruskal chain, in chain order."""
        # Kept only as a trace target of perfbench/tracing.py and a test subject.
        defect = self.budget_witness(w, budget).defect
        return self._chain(w)[:self.n - 1 - defect].tolist()

    def _distance_witness(self, w: WeightAssignment, r: int) -> SolveResult:
        witness = np.sort(self._chain(w)[:self.n - 1 - r])
        return SolveResult(_canonical_sum(w.values, witness), tuple(witness.tolist()))

    def random_member(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Decode a uniform Prufer sequence (Cayley's bijection)."""
        seq = rng.integers(0, self.n, size=self.n - 2)
        return tuple(sorted(self.edge_indices(prufer_decode(seq, self.n))))

    def _classes(self, subset) -> _UnionFind:
        """The components of the spanning subgraph (V, subset), as a union-find
        of the caller's own to merge into.

        The family keeps the classes of the last non-empty subset tuple it
        built them for, under that tuple as the key, and hands out copies.
        A tuple whose leading elements are the key's own objects (`is`, not
        `==`) is read as the key's classes plus its other elements, which
        are checked and merged alone: the key's objects were checked when it
        was stored.  So patching._verify_patch's subset plus its patch
        merges only the patch.  An empty key is never extended, since every
        tuple would extend it.  Any other subset is checked and merged
        whole, and a non-empty tuple becomes the key."""
        key, snapshot = self._subset_memo
        if (isinstance(subset, tuple) and key and len(subset) >= len(key)
                and all(map(operator.is_, subset, key))):
            classes = snapshot.copy()
            if len(subset) > len(key):
                self._merge(classes, self._check_subset(subset[len(key):]))
            return classes
        classes = _UnionFind(self.n)
        self._merge(classes, self._check_subset(subset))
        if isinstance(subset, tuple) and subset:
            self._subset_memo = subset, classes.copy()
        return classes

    def _merge(self, classes: _UnionFind, idx: np.ndarray) -> None:
        """Merge the checked edges `idx` into `classes`."""
        classes.merge(idx.tolist(), self.edge_u[idx].tolist(),
                      self.edge_v[idx].tolist(), [])

    def min_patch_size(self, subset) -> int:
        return self._classes(subset).count - 1

    def _component_positions(self, subset) -> np.ndarray:
        """Position of each vertex's component among those of (V, subset):
        ascending size, ties by smallest vertex, from the Kruskal scan's
        union-find."""
        _, first, label, size = np.unique(self._classes(subset).roots(),
                                          return_index=True, return_inverse=True,
                                          return_counts=True)
        position = np.empty_like(first)
        position[np.lexsort((first, size))] = np.arange(first.size)
        return position[label]

    def cheapest_completion(self, subset, w: WeightAssignment):
        """The cheapest patch is what a Kruskal scan of the edge order accepts
        from the subset's components (_kruskal over the memo's head of the
        order of w): the minimum spanning tree of K_n with the subset
        contracted.  It builds no chain; a spanning subset reads no memo."""
        self._check_weights(w)
        classes = self._classes(subset)
        patch = tuple(sorted(self._kruskal(w, classes))) if classes.count > 1 else ()
        return SolveResult(value=w.total(patch), witness=patch)

    def component_completion(self, subset, w: WeightAssignment) -> SolveResult:
        """The component heuristic's patch, unverified: for each non-largest
        component, the first edge in (weight, index) order toward a later
        one.  It uses exactly min_patch_size(subset) edges and costs at least
        cheapest_completion's patch (patching.component_patch verifies it).

        The memo's edge order (see _order_memo) gives each source it holds
        an edge of; a source that the head misses, such as a singleton with
        few later vertices, takes the least of its own outgoing edges
        instead, so the heuristic never needs a longer order."""
        self._check_weights(w)
        pos = self._component_positions(subset)
        c = int(pos.max()) + 1
        if c == 1:
            return SolveResult(0.0, ())
        order = self._order_memo(w).order
        pu, pv = pos[self.edge_u[order]], pos[self.edge_v[order]]
        cross = pu != pv
        sources, first = np.unique(np.minimum(pu, pv)[cross], return_index=True)
        chosen = order[cross][first]
        if sources.size < c - 1:
            missed = np.ones(c, dtype=bool)  # position c - 1 has no later one
            missed[sources] = False
            chosen = np.concatenate((chosen, self._first_outgoing(w, pos, missed)))
        patch = tuple(sorted(chosen.tolist()))
        return SolveResult(w.total(patch), patch)

    def _first_outgoing(self, w: WeightAssignment, pos: np.ndarray,
                        sources: np.ndarray) -> np.ndarray:
        """For each component position p with sources[p], the first edge in
        (weight, index) order from that component toward a later position:
        each of its vertices is paired with every vertex in a later one."""
        tails = np.flatnonzero(sources[pos])
        a, b = np.nonzero(pos[tails][:, None] < pos[None, :])
        u, v = np.minimum(tails[a], b), np.maximum(tails[a], b)
        edges = u * self.n - u * (u + 1) // 2 + (v - u - 1)  # as edge_index
        source = pos[tails[a]]
        ranked = np.lexsort((edges, w.values[edges], source))
        source, edges = source[ranked], edges[ranked]
        return edges[np.append(True, source[1:] != source[:-1])]

    def min_outgoing_edge_count(self, subset) -> int:
        """Minimum, over non-largest components of (V, subset), of the number
        of edges leaving the component toward later components.  For K_n at
        distance r >= 1 it is provably at least min(n/2, n^2/(4 r^2)); a
        smaller value is a solver bug and raises.

        K_n is complete, so with the component sizes s_0 <= s_1 <= ... in
        position order, the count at p is s_p (n - s_0 - ... - s_p)."""
        sizes = np.bincount(self._component_positions(subset))
        c = sizes.size
        if c == 1:
            raise ValueError("subset already spans; no non-largest components")
        counts = sizes * (self.n - np.cumsum(sizes))
        smallest = int(counts[: c - 1].min())
        bound = min(self.n / 2, self.n**2 / (4 * (c - 1) ** 2))
        if smallest < bound:
            raise RuntimeError(f"outgoing-edge count {smallest} below guaranteed "
                               f"bound {bound}")
        return smallest

    def enumerate_members(self):
        """All n^(n-2) labeled spanning trees, via Prufer sequences (n <= 7)."""
        if self.n > 7:
            raise ValueError("tree enumeration is limited to n <= 7")
        return [
            tuple(sorted(self.edge_indices(prufer_decode(seq, self.n))))
            for seq in itertools.product(range(self.n), repeat=self.n - 2)
        ]

    def edge_index(self, u: int, v: int) -> int:
        """Index of edge (u, v) in lexicographic order."""
        if u > v:
            u, v = v, u
        if not (0 <= u < v < self.n):
            raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
        return u * self.n - u * (u + 1) // 2 + (v - u - 1)

    def edge_indices(self, pairs) -> list[int]:
        return [self.edge_index(u, v) for u, v in pairs]


def prufer_decode(seq, n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree encoded by a Prufer sequence of length n-2."""
    seq = list(seq)
    if len(seq) != n - 2:
        raise ValueError("Prufer sequence must have length n - 2")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return edges


class MatchingFamily(Family):
    """Perfect matchings of K_{n,n}.  Element i*n + j is the edge from left
    vertex i to right vertex j; ell = n.

    Every weighted solver is a minimum-weight k-matching from _k_matching,
    one call to scipy's linear_sum_assignment: k = n for the optimum and
    the completion, and k = n - r for distance r.  Family.distance_witness
    memoises the answers by r, so the optimum, the budget search and the
    assignment ladder solve each k once per vector.  Weights within a ratio
    of 2**26 reach the solver as an exact dual shift of the padded square,
    which has the same optimal assignments and starts the solver near its
    optimal duals; a zero or a wider range reaches it unshifted.
    """

    # A min-cost k-matching's cost is convex in k (successive shortest paths).
    _convex = True

    def __init__(self, n: int) -> None:
        self.n = n = self.check_size(n)
        self.ground_size = n * n
        self.ell = n
        # scipy loads with the first matching family, so a run pays it in
        # set-up; tree runs never load it.
        from scipy.optimize import linear_sum_assignment
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching
        self._assign, self._csr = linear_sum_assignment, csr_matrix
        self._max_matching = maximum_bipartite_matching

    @staticmethod
    def check_size(n: int) -> int:
        """n as an int, if K_{n,n} has an edge (n >= 1)."""
        n = int(n)
        if n < 1:
            raise ValueError(f"matchings need n >= 1, got {n}")
        return n

    def _k_matching(self, values: np.ndarray, k: int) -> tuple[int, ...]:
        """Minimum-weight matching with exactly k edges, as a sorted edge tuple.

        The n x n costs are padded with n - k dummy rows and columns: dummy
        to dummy is forbidden, so every assignment pairs each dummy with a
        real vertex and keeps exactly k real edges.

        The padded square is handed to scipy as an exact dual shift, the
        column reduction that Jonker and Volgenant start from (scipy's
        solver starts from zero duals).  Each real column loses its least
        weight m_j, and its dummy-row entries hold -m_j; each real-row to
        dummy-column entry holds one price p.  An assignment matches every
        real column once and sends exactly n - k real rows to dummy columns,
        so every assignment's cost moves by the same constant,
        (n - k) p - sum_j m_j: the optimal set is unchanged, and the solver
        starts nearer its optimal duals.  The m_j and p are rounded down to
        multiples of spacing(max weight), so every shifted entry is exact.

        p is twice the (k+1)-th smallest of the shifted rows' minima, capped
        so that it stays finite.  The square wants exactly k real edges when
        p lies between the marginal costs of the k-th and (k+1)-th edge,
        C(k) - C(k-1) and C(k+1) - C(k); since rows compete for columns,
        those measured 1.5 to 6 times that row minimum on uniform and
        exponential draws at n = 100.  Twice it starts nearer: one solve at
        k = 0.85n to 0.9n, where a dual trial's solves cluster, took 13-17%
        less time than with p at the minimum itself (9% more at k = 0.98n;
        scipy 1.17 on one x86-64 core).

        Only weights within a ratio of 2**26 are shifted.  A zero or a wider
        range (q <= 0.02, or 1e-300 next to 1) keeps the plain square, 0 at
        dummy to real: there the shift's rounding can change which optimum
        scipy's float duals reach.
        """
        n = self.n
        size = 2 * n - k
        weights = values.reshape(n, n)
        cost = np.zeros((size, size))
        cost[n:, n:] = np.inf
        least, top = weights.min(axis=0), values.max()
        if 0 < top / 2**26 <= least.min():
            grid = np.spacing(top)
            least = np.floor(least / grid) * grid
            np.subtract(weights, least, out=cost[:n, :n])
            cost[n:, :n] = -least
            if k < n:
                slack = np.partition(cost[:n, :n].min(axis=1), k)[k]
                cost[:n, n:] = np.floor(min(slack, top / 2) / grid) * 2 * grid
        else:
            cost[:n, :n] = weights
        rows, cols = self._assign(cost)
        real = (rows < n) & (cols < n)
        return tuple(sorted((rows[real] * n + cols[real]).tolist()))

    def min_patch_size(self, subset) -> int:
        """n minus the maximum matching inside the subset (Hopcroft-Karp)."""
        idx, n = self._check_subset(subset), self.n
        # idx ascends, so its rows are the CSR rows in order.
        indptr = np.searchsorted(idx, np.arange(0, n * n + 1, n))
        graph = self._csr((np.ones(idx.size), idx % n, indptr), shape=(n, n))
        row_match = self._max_matching(graph, perm_type="column")
        return n - int(np.count_nonzero(row_match >= 0))

    def cheapest_completion(self, subset, w: WeightAssignment):
        self._check_weights(w)
        idx = self._check_subset(subset)
        masked = w.values.copy()
        masked[idx] = 0.0
        patch = tuple(sorted(set(self._k_matching(masked, self.n)) - set(idx.tolist())))
        return SolveResult(value=w.total(patch), witness=patch)

    def assignment_ladder(self, w: WeightAssignment):
        """Minimum-weight k-matchings for every cardinality k = 0..n.

        Returns (costs, matchings): matchings[k] is the distance witness at
        r = n - k and costs[k] its canonical value.
        """
        ladder = [self.distance_witness(w, self.n - k) for k in range(self.n + 1)]
        return np.asarray([s.value for s in ladder]), [s.witness for s in ladder]

    def _distance_witness(self, w: WeightAssignment, r: int) -> SolveResult:
        witness = self._k_matching(w.values, self.n - r)
        return SolveResult(value=w.total(witness), witness=witness)

    def random_member(self, rng: np.random.Generator) -> tuple[int, ...]:
        perm = rng.permutation(self.n)
        return tuple(sorted(i * self.n + int(perm[i]) for i in range(self.n)))

    def enumerate_members(self):
        """All n! perfect matchings as sorted edge tuples (n <= 8)."""
        if self.n > 8:
            raise ValueError("matching enumeration is limited to n <= 8")
        n = self.n
        return [
            tuple(sorted(i * n + perm[i] for i in range(n)))
            for perm in itertools.permutations(range(n))
        ]


class ExplicitFamily(Family):
    """Family given by an explicit member list over {0, ..., N-1}, N <= 24.

    Minimality is enforced on construction by dropping supersets of other
    members.
    """

    def __init__(self, ground_size: int, members) -> None:
        self.ground_size = ground_size = int(ground_size)
        if not 1 <= ground_size <= _EXPLICIT_MAX_GROUND:
            raise ValueError(
                f"ground size must be in [1, {_EXPLICIT_MAX_GROUND}], got "
                f"{ground_size}"
            )
        sets = [frozenset(self._check_subset(m).tolist()) for m in members]
        if not sets:
            raise ValueError("family must have at least one member")
        minimal = []
        for fs in sets:
            if any(other < fs for other in sets):
                continue
            if fs not in minimal:
                minimal.append(fs)
        self._members = tuple(tuple(sorted(fs)) for fs in minimal)
        self._member_sets = tuple(minimal)
        self.ell = max(len(m) for m in self._members)

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return self._members

    def min_patch_size(self, subset) -> int:
        idx = set(self._check_subset(subset).tolist())
        return min(len(ms - idx) for ms in self._member_sets)

    def cheapest_completion(self, subset, w: WeightAssignment):
        self._check_weights(w)
        idx = set(self._check_subset(subset).tolist())
        best = None
        for ms in self._member_sets:
            patch = tuple(sorted(ms - idx))
            cand = (w.total(patch), patch)
            if best is None or cand < best:
                best = cand
        return SolveResult(*best)

    def _distance_witness(self, w: WeightAssignment, r: int) -> SolveResult:
        best = None
        for member in self._members:
            keep = max(len(member) - r, 0)
            member_arr = np.asarray(member, dtype=np.intp)
            order = member_arr[np.argsort(w.values[member_arr], kind="stable")]
            witness = tuple(sorted(int(e) for e in order[:keep]))
            cand = (w.total(witness), witness)
            if best is None or cand < best:
                best = cand
        return SolveResult(*best)

    def random_member(self, rng: np.random.Generator) -> tuple[int, ...]:
        return self._members[int(rng.integers(len(self._members)))]

    def enumerate_members(self):
        return list(self._members)

