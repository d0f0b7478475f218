"""Minimal set families over a weighted ground set.

A family F of subsets of a ground set S induces, for a weight assignment w,
the optimum M(F) = min over members of the member's total weight.  Three
concrete families are provided:

* spanning trees of the complete graph K_n (ground set: the n(n-1)/2 edges),
* perfect matchings of the complete bipartite graph K_{n,n} (the n^2 edges),
* an explicit list of members over an abstract ground set (N <= 24).

A family is one class implementing six methods:

* min_weight(w): the optimum and its witness;
* min_patch_size(G): the fewest elements that must be added to G so that it
  contains a member (Hamming distance to the upward closure);
* cheapest_completion(G, w): the cheapest such addition;
* distance_witness(w, r): the cheapest subset at patch distance <= r;
* random_member(rng): a uniformly random member;
* enumerate_members(): every member (small instances only).

The base class adds budget_witness(w, L), the smallest patch distance of a
subset of total weight <= L with a witness, written once for every family
as the inverse of distance_witness.  Every other module reaches a family
only through these seven methods.

Determinism: all tie-breaks prefer the smallest element index; solver values
are canonical sums (witness weights added in ascending element-index order),
so equal witnesses give bit-equal values.

A weight vector has one memo slot, owned by the last family that read it
(Family._memo): a tree family keeps its edge order and Kruskal chain there,
a matching family its k-matchings by k, so the solvers of one trial sort,
scan or solve each once.  A family that finds another owner replaces the
state with its own; the memo cannot go stale because a WeightAssignment
never changes.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

__all__ = [
    "GroundSet",
    "WeightAssignment",
    "SolveResult",
    "Family",
    "SpanningTreeFamily",
    "MatchingFamily",
    "ExplicitFamily",
]

_EXPLICIT_MAX_GROUND = 24


@dataclass(frozen=True)
class GroundSet:
    """Ground set of N elements; labels[i] names element i (an edge, say)."""

    size: int
    labels: tuple

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("ground set must be non-empty")
        if len(self.labels) != self.size:
            raise ValueError("labels must be a bijection with range(size)")


class WeightAssignment:
    """Non-negative weights for every ground-set element.  Immutable."""

    __slots__ = ("values", "_memo")

    def __init__(self, values) -> None:
        arr = np.ascontiguousarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if arr.size == 0:
            raise ValueError("weights must be non-empty")
        if not np.all(arr >= 0):
            raise ValueError("weights must be non-negative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_memo", None)

    def __setattr__(self, name, value):
        raise AttributeError("WeightAssignment is immutable")

    def __len__(self) -> int:
        return int(self.values.size)

    def total(self, indices) -> float:
        """Canonical subset sum: weights added in ascending index order."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            return 0.0
        return float(self.values[np.sort(idx)].sum())


@dataclass(frozen=True)
class SolveResult:
    """Optimal value and the witness subset attaining it (sorted indices)."""

    value: float
    witness: tuple[int, ...]


@dataclass(slots=True, eq=False)
class _TreeOrder:
    """A weight vector's tree edge order and Kruskal chain: the memo state
    a spanning-tree family keeps in the vector's slot (Family._memo).

    head is the partial-selection prefix of the (weight, index) order (None
    at or below the threshold), full the whole order once a scan needed it,
    chain the edges `_greedy_forest` accepts without a seed.
    """

    head: np.ndarray | None
    full: np.ndarray | None = None
    chain: tuple[int, ...] | None = None


class _DisjointSets:
    """Union-find with path halving and union by size."""

    __slots__ = ("parent", "size", "count")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


class Family(ABC):
    """A minimal family of subsets of a common ground set."""

    ground: GroundSet
    ell: int  # largest member size

    @abstractmethod
    def min_weight(self, w: WeightAssignment) -> SolveResult:
        """Minimum total weight of a member, with witness."""

    @abstractmethod
    def min_patch_size(self, subset) -> int:
        """Fewest elements to add to `subset` so it contains a member."""

    @abstractmethod
    def cheapest_completion(self, subset, w: WeightAssignment):
        """Cheapest addition P with subset + P containing a member.

        Returns (cost, patch_indices) with patch disjoint from `subset` and
        cost the canonical sum of the patch.
        """

    @abstractmethod
    def distance_witness(self, w: WeightAssignment, r: int) -> tuple[int, ...]:
        """Cheapest subset (sorted indices) at patch distance at most r."""

    @abstractmethod
    def random_member(self, rng: np.random.Generator) -> tuple[int, ...]:
        """A uniformly random member as a sorted index tuple."""

    @abstractmethod
    def enumerate_members(self):
        """All members as sorted index tuples (small instances only)."""

    def budget_witness(self, w: WeightAssignment, budget: float) -> tuple[int, tuple]:
        """Smallest patch distance among subsets of total weight <= budget.

        Returns (defect, witness): the witness is a sorted index tuple of at
        most ell elements, affordable under the canonical sum, whose patch
        distance equals the defect.  By duality the defect is the smallest r
        whose distance witness is affordable; witness totals do not grow with
        r, so the affordable r < ell form a suffix.  At r = ell the empty set
        is always affordable.

        Budgets of interest leave the defect far below ell, so the search
        gallops: it probes r = 0, 1, 3, 7, ..., 2^j - 1 (clamped to ell)
        until a witness is affordable, then bisects the last gap, so it makes
        O(log defect) probes and solves each r once.  Small r are also the
        cheapest matching probes (an (n + r)^2 assignment problem).  The
        trade-off: a budget far below the optimum, whose defect is a large
        fraction of ell, takes about twice the probes of a bisect over
        range(ell).
        """
        self._check_weights(w)
        self._check_budget(budget)
        witnesses: dict[int, tuple[int, ...]] = {}

        def affordable(r: int) -> bool:
            witnesses[r] = self.distance_witness(w, r)
            return w.total(witnesses[r]) <= budget

        lo, hi = 0, 0
        while hi < self.ell and not affordable(hi):
            lo, hi = hi + 1, min(2 * hi + 1, self.ell)
        defect = bisect.bisect_left(range(self.ell), True, lo, hi, key=affordable)
        return defect, witnesses.get(defect, ())

    def _memo(self, w: WeightAssignment, make):
        """This family's state in the memo slot of `w`.

        The slot holds (owner, state); when another family (or none) owns
        it, `make()` builds fresh state and this family takes the slot.
        """
        memo = w._memo
        if memo is None or memo[0] is not self:
            memo = (self, make())
            object.__setattr__(w, "_memo", memo)
        return memo[1]

    def _check_weights(self, w: WeightAssignment) -> None:
        if len(w) != self.ground.size:
            raise ValueError(
                f"weight vector has {len(w)} entries, ground set has "
                f"{self.ground.size}"
            )

    def _check_distance(self, r: int) -> None:
        if r < 0:
            raise ValueError(f"patch distance must be non-negative, got {r}")

    def _check_budget(self, budget: float) -> None:
        if not budget >= 0:  # also rejects NaN
            raise ValueError(f"budget must be non-negative, got {budget}")

    def _check_subset(self, subset) -> np.ndarray:
        if isinstance(subset, np.ndarray):
            idx = subset.astype(np.intp, copy=False)
        else:
            idx = np.fromiter((int(i) for i in subset), dtype=np.intp)
        idx = np.unique(idx)
        if idx.size and (idx[0] < 0 or idx[-1] >= self.ground.size):
            raise ValueError("subset indices out of range")
        return idx


def complete_graph_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of K_n's edges in lexicographic (u, v) order."""
    u, v = np.triu_indices(n, k=1)
    return u.astype(np.intp), v.astype(np.intp)


class SpanningTreeFamily(Family):
    """Spanning trees of K_n.  Element i is the i-th edge in lexicographic
    order; ell = n - 1."""

    # Below this many edges a full stable sort is as fast as partial selection.
    _PARTITION_THRESHOLD = 4096

    def __init__(self, n: int) -> None:
        n = int(n)
        if n < 2:
            raise ValueError(f"spanning trees need n >= 2 vertices, got {n}")
        self.n = n
        self.edge_u, self.edge_v = complete_graph_edges(n)
        # Kept: without these long-lived tuples trials refault freed heap (~10% slower).
        labels = tuple(zip(self.edge_u.tolist(), self.edge_v.tolist()))
        self.ground = GroundSet(size=len(labels), labels=labels)
        self.ell = n - 1

    # -- solvers ---------------------------------------------------------

    def _order_memo(self, w: WeightAssignment) -> _TreeOrder:
        """The memo of `w` for this family, made (head sorted) on first use."""

        def make() -> _TreeOrder:
            values = w.values
            if values.size <= self._PARTITION_THRESHOLD:
                return _TreeOrder(None)
            # The random graph process connects by (n/2)(ln n + c) edges except with
            # probability ~e^-c (Erdos-Renyi); this k gives c > 11 (min 11.9, n=148).
            k = min(values.size, 2 * self.n * max(1, int(np.log(self.n))) + 64)
            kth = np.partition(values, k - 1)[k - 1]
            cand = np.flatnonzero(values <= kth)
            head = cand[np.argsort(values[cand], kind="stable")]
            head.flags.writeable = False
            return _TreeOrder(head)

        return self._memo(w, make)

    def _in_weight_order(self, w: WeightAssignment, scan):
        """Run `scan` on edge indices in (weight, index) order.

        Every tree solver reads the edges through this method.  Above the
        threshold `scan` first gets only the head of the order: the
        k = 2 n floor(ln n) + 64 cheapest weights plus every weight tied with
        the k-th, which is exactly a prefix of the full order.  If `scan`
        returns None (the head was too short), it runs again on the full order.
        Both orders are sorted once per weight vector.
        """
        memo = self._order_memo(w)
        if memo.head is not None:
            result = scan(memo.head)
            if result is not None:
                return result
        if memo.full is None:
            memo.full = np.argsort(w.values, kind="stable")
            memo.full.flags.writeable = False
        return scan(memo.full)

    def _greedy_forest(self, w: WeightAssignment, subset=()):
        """Kruskal over the weight order, started from `subset`'s edges.

        Unions the subset's edges, then accepts each edge of the order that
        joins two components until one component remains.  Returns the
        accepted edges in acceptance order (their first k form the cheapest
        k-edge forest extending the subset), or None if the order runs out
        first.
        """
        seed = np.asarray(subset, dtype=np.intp)
        seed_u, seed_v = self.edge_u[seed].tolist(), self.edge_v[seed].tolist()

        def scan(order: np.ndarray):
            dsu = _DisjointSets(self.n)
            for u, v in zip(seed_u, seed_v):
                dsu.union(u, v)
            chosen: list[int] = []
            # Blocks of n edges: only the part the loop reaches becomes lists.
            for start in range(0, order.size, self.n):
                block = order[start:start + self.n]
                us, vs = self.edge_u[block].tolist(), self.edge_v[block].tolist()
                for i, u, v in zip(block.tolist(), us, vs):
                    if dsu.count == 1:
                        return chosen
                    if dsu.union(u, v):
                        chosen.append(i)
            return chosen if dsu.count == 1 else None

        return self._in_weight_order(w, scan)

    def _chain(self, w: WeightAssignment) -> tuple[int, ...]:
        """The unseeded Kruskal chain of `w`, computed once per weight vector.

        Its first k edges are the minimum-weight k-edge forest, so the
        optimum, every budget prefix and every distance witness read it.
        """
        memo = self._order_memo(w)
        if memo.chain is None:
            memo.chain = tuple(self._greedy_forest(w))
        return memo.chain

    def budget_forest(self, w: WeightAssignment, budget: float) -> list[int]:
        """Largest affordable prefix of the greedy forest, in chain order."""
        # Kept only as a trace target of perfbench/tracing.py and a test subject.
        defect, _ = self.budget_witness(w, budget)
        return list(self._chain(w)[:self.n - 1 - defect])

    def min_weight(self, w: WeightAssignment) -> SolveResult:
        self._check_weights(w)
        witness = tuple(sorted(self._chain(w)))
        return SolveResult(value=w.total(witness), witness=witness)

    def distance_witness(self, w: WeightAssignment, r: int) -> tuple[int, ...]:
        self._check_weights(w)
        self._check_distance(r)
        return tuple(sorted(self._chain(w)[:max(self.n - 1 - r, 0)]))

    def random_member(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Decode a uniform Prufer sequence (Cayley's bijection)."""
        seq = rng.integers(0, self.n, size=self.n - 2)
        return tuple(sorted(self.edge_indices(prufer_decode(seq, self.n))))

    def component_labels(self, subset) -> np.ndarray:
        """Vertex component labels (0..c-1, first-occurrence order) of the
        spanning subgraph with the given edge subset."""
        idx = self._check_subset(subset)
        graph = csr_matrix(
            (np.ones(idx.size, dtype=np.int8), (self.edge_u[idx], self.edge_v[idx])),
            shape=(self.n, self.n),
        )
        # scipy labels components in order of their smallest vertex.
        _, labels = connected_components(graph, directed=False)
        return labels.astype(np.intp)

    def min_patch_size(self, subset) -> int:
        comp = self.component_labels(subset)
        return int(comp.max())

    def cheapest_completion(self, subset, w: WeightAssignment):
        """Kruskal started from the subset's edges.

        Its accepted edges are the minimum spanning tree of K_n with each
        component of the subset contracted to one vertex, the cheapest patch.
        """
        self._check_weights(w)
        idx = self._check_subset(subset)
        patch = tuple(sorted(self._greedy_forest(w, subset=idx)))
        return w.total(patch), patch

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
    the completion, and k = n - r for distance r.  The optimum is the
    distance witness at r = 0, and distance witnesses keep their
    k-matchings in the memo of the weight vector (Family._memo), so each k
    is solved once per vector.
    """

    def __init__(self, n: int) -> None:
        n = int(n)
        if n < 1:
            raise ValueError(f"matchings need n >= 1, got {n}")
        self.n = n
        labels = tuple((i, j) for i in range(n) for j in range(n))
        self.ground = GroundSet(size=n * n, labels=labels)
        self.ell = n

    def _k_matching(self, values: np.ndarray, k: int) -> tuple[int, ...]:
        """Minimum-weight matching with exactly k edges, as a sorted edge tuple.

        The n x n costs are padded with n - k dummy rows and columns: dummy
        to real costs 0 and dummy to dummy is forbidden, so every assignment
        pairs each dummy with a real vertex and keeps exactly k real edges.
        """
        n = self.n
        size = 2 * n - k
        cost = np.zeros((size, size))
        cost[:n, :n] = values.reshape(n, n)
        cost[n:, n:] = np.inf
        rows, cols = linear_sum_assignment(cost)
        real = (rows < n) & (cols < n)
        return tuple(sorted((rows[real] * n + cols[real]).tolist()))

    def min_weight(self, w: WeightAssignment) -> SolveResult:
        witness = self.distance_witness(w, 0)
        return SolveResult(value=w.total(witness), witness=witness)

    def min_patch_size(self, subset) -> int:
        """n minus the maximum matching inside the subset (Hopcroft-Karp)."""
        idx = self._check_subset(subset)
        graph = csr_matrix(
            (np.ones(idx.size, dtype=np.int8), (idx // self.n, idx % self.n)),
            shape=(self.n, self.n),
        )
        row_match = maximum_bipartite_matching(graph, perm_type="column")
        return self.n - int(np.count_nonzero(row_match >= 0))

    def cheapest_completion(self, subset, w: WeightAssignment):
        self._check_weights(w)
        idx = self._check_subset(subset)
        masked = w.values.copy()
        masked[idx] = 0.0
        patch = tuple(sorted(set(self._k_matching(masked, self.n)) - set(idx.tolist())))
        return w.total(patch), patch

    def assignment_ladder(self, w: WeightAssignment):
        """Minimum-weight k-matchings for every cardinality k = 0..n.

        Returns (costs, matchings): matchings[k] is the sorted edge tuple
        from _k_matching and costs[k] its canonical value.
        """
        self._check_weights(w)
        matchings = [self._k_matching(w.values, k) for k in range(self.n + 1)]
        return np.asarray([w.total(m) for m in matchings]), matchings

    def distance_witness(self, w: WeightAssignment, r: int) -> tuple[int, ...]:
        self._check_weights(w)
        self._check_distance(r)
        k = max(self.n - r, 0)
        matchings = self._memo(w, dict)  # k -> its k-matching
        if k not in matchings:
            matchings[k] = self._k_matching(w.values, k)
        return matchings[k]

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
        ground_size = int(ground_size)
        if not 1 <= ground_size <= _EXPLICIT_MAX_GROUND:
            raise ValueError(
                f"ground size must be in [1, {_EXPLICIT_MAX_GROUND}], got "
                f"{ground_size}"
            )
        sets = []
        for m in members:
            fs = frozenset(int(x) for x in m)
            if any(x < 0 or x >= ground_size for x in fs):
                raise ValueError("member element out of range")
            sets.append(fs)
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
        self.ground = GroundSet(size=ground_size, labels=tuple(range(ground_size)))
        self.ell = max(len(m) for m in self._members)

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return self._members

    def min_weight(self, w: WeightAssignment) -> SolveResult:
        self._check_weights(w)
        best = None
        for member in self._members:
            value = w.total(member)
            cand = (value, member)
            if best is None or cand < best:
                best = cand
        return SolveResult(value=best[0], witness=best[1])

    def min_patch_size(self, subset) -> int:
        idx = set(int(i) for i in self._check_subset(subset))
        return min(len(ms - idx) for ms in self._member_sets)

    def cheapest_completion(self, subset, w: WeightAssignment):
        self._check_weights(w)
        idx = set(int(i) for i in self._check_subset(subset))
        best = None
        for ms in self._member_sets:
            patch = tuple(sorted(ms - idx))
            cand = (w.total(patch), patch)
            if best is None or cand < best:
                best = cand
        return best[0], best[1]

    def distance_witness(self, w: WeightAssignment, r: int) -> tuple[int, ...]:
        self._check_weights(w)
        self._check_distance(r)
        best = None
        for member in self._members:
            keep = max(len(member) - r, 0)
            member_arr = np.asarray(member, dtype=np.intp)
            order = member_arr[np.argsort(w.values[member_arr], kind="stable")]
            witness = tuple(sorted(int(e) for e in order[:keep]))
            cand = (w.total(witness), witness)
            if best is None or cand < best:
                best = cand
        return best[1]

    def random_member(self, rng: np.random.Generator) -> tuple[int, ...]:
        return self._members[int(rng.integers(len(self._members)))]

    def enumerate_members(self):
        return list(self._members)

