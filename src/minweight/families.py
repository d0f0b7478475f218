"""Minimal set families over a weighted ground set.

A family F of subsets of a ground set S induces, for a weight assignment w,
the optimum M(F) = min over members of the member's total weight.  Three
concrete families are provided:

* spanning trees of the complete graph K_n (ground set: the n(n-1)/2 edges),
* perfect matchings of the complete bipartite graph K_{n,n} (the n^2 edges),
* an explicit list of members over an abstract ground set (N <= 24).

A family is one class implementing seven methods, and every other module
reaches it only through them:

* min_weight(w): the optimum and its witness;
* min_patch_size(G): the fewest elements that must be added to G so that it
  contains a member (Hamming distance to the upward closure);
* cheapest_completion(G, w): the cheapest such addition;
* budget_witness(w, L): the smallest patch distance of a subset of total
  weight <= L, with a witness;
* distance_witness(w, r): the cheapest subset at patch distance <= r;
* random_member(rng): a uniformly random member;
* enumerate_members(): every member (small instances only).

Determinism: all tie-breaks prefer the smallest element index; solver values
are canonical sums (witness weights added in ascending element-index order),
so equal witnesses give bit-equal values.
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
    "min_weight",
    "min_patch_size",
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

    __slots__ = ("values",)

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
    def budget_witness(self, w: WeightAssignment, budget: float) -> tuple[int, tuple]:
        """Smallest patch distance among subsets of total weight <= budget.

        Returns (defect, witness): the witness is a sorted index tuple of at
        most ell elements, affordable under the canonical sum, whose patch
        distance equals the defect.
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

    def _check_weights(self, w: WeightAssignment) -> None:
        if len(w) != self.ground.size:
            raise ValueError(
                f"weight vector has {len(w)} entries, ground set has "
                f"{self.ground.size}"
            )

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

    def _in_weight_order(self, values: np.ndarray, scan):
        """Run `scan` on edge indices in (weight, index) order.

        Every tree solver reads the edges through this method.  Above the
        threshold `scan` first gets only the head of the order: the
        k = 2 n floor(ln n) + 64 cheapest weights plus every weight tied with
        the k-th, which is exactly a prefix of the full order.  If `scan`
        returns None (the head was too short), it runs again on the full order.
        """
        size = values.size
        if size > self._PARTITION_THRESHOLD:
            # The random graph process connects by (n/2)(ln n + c) edges except with
            # probability ~e^-c (Erdos-Renyi); this k gives c > 11 (min 11.9, n=148).
            k = min(size, 2 * self.n * max(1, int(np.log(self.n))) + 64)
            kth = np.partition(values, k - 1)[k - 1]
            cand = np.flatnonzero(values <= kth)
            result = scan(cand[np.argsort(values[cand], kind="stable")])
            if result is not None:
                return result
        return scan(np.argsort(values, kind="stable"))

    def _greedy_forest(self, w: WeightAssignment, parts: int, subset=()):
        """Kruskal over the weight order, started from `subset`'s edges.

        Unions the subset's edges, then accepts each edge of the order that
        joins two components until at most `parts` components remain.
        Returns the accepted edges in acceptance order (their first k form
        the cheapest k-edge forest extending the subset), or None if the
        order runs out first.
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
                    if dsu.count <= parts:
                        return chosen
                    if dsu.union(u, v):
                        chosen.append(i)
            return chosen if dsu.count <= parts else None

        return self._in_weight_order(w.values, scan)

    def budget_forest(self, w: WeightAssignment, budget: float) -> list[int]:
        """Largest affordable prefix of the greedy forest.

        The k cheapest greedy edges form the minimum-weight forest of every
        size k, so the budget stop reduces to a prefix scan.  Affordability
        uses the same index-ordered subset sum that `total` reports, so a
        budget equal to an attained value stays affordable bit-for-bit.
        """
        self._check_weights(w)
        chosen = self._greedy_forest(w, 1)
        # Canonical prefix totals only grow, so the affordable ones lead.
        kept = bisect.bisect_right(
            range(1, len(chosen) + 1), budget, key=lambda k: w.total(chosen[:k])
        )
        return chosen[:kept]

    def min_weight(self, w: WeightAssignment) -> SolveResult:
        self._check_weights(w)
        witness = tuple(sorted(self._greedy_forest(w, 1)))
        return SolveResult(value=w.total(witness), witness=witness)

    def budget_witness(self, w: WeightAssignment, budget: float) -> tuple[int, tuple]:
        chosen = self.budget_forest(w, budget)
        return (self.n - 1) - len(chosen), tuple(sorted(chosen))

    def distance_witness(self, w: WeightAssignment, r: int) -> tuple[int, ...]:
        self._check_weights(w)
        return tuple(sorted(self._greedy_forest(w, r + 1)))

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
        patch = tuple(sorted(self._greedy_forest(w, 1, subset=idx)))
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
    the completion, k = n - r for distance r, and a bisection over k for a
    budget.
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
        self._check_weights(w)
        witness = self._k_matching(w.values, self.n)
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

    def budget_witness(self, w: WeightAssignment, budget: float) -> tuple[int, tuple]:
        self._check_weights(w)
        # Non-negative weights make the optimum nondecreasing in k: dropping
        # an edge from an optimal (k+1)-matching gives a k-matching.
        k = bisect.bisect_right(
            range(1, self.n + 1), budget,
            key=lambda k: w.total(self._k_matching(w.values, k)),
        )
        return self.n - k, self._k_matching(w.values, k)

    def distance_witness(self, w: WeightAssignment, r: int) -> tuple[int, ...]:
        self._check_weights(w)
        return self._k_matching(w.values, max(self.n - r, 0))

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

    def budget_witness(self, w: WeightAssignment, budget: float) -> tuple[int, tuple]:
        """Per-member cheapest-prefix scan.

        Any optimal affordable G may be replaced by its intersection with the
        member realizing its patch distance (same distance, no dearer), so it
        suffices to keep, for each member, the longest affordable cheap prefix.
        """
        self._check_weights(w)
        best = None
        for member in self._members:
            member_arr = np.asarray(member, dtype=np.intp)
            order = member_arr[np.argsort(w.values[member_arr], kind="stable")]
            # Canonical prefix totals only grow, so the affordable ones lead.
            kept = bisect.bisect_right(
                range(1, len(order) + 1), budget, key=lambda k: w.total(order[:k])
            )
            cand = (len(member) - kept, tuple(sorted(order[:kept].tolist())))
            if best is None or cand < best:
                best = cand
        return best

    def distance_witness(self, w: WeightAssignment, r: int) -> tuple[int, ...]:
        self._check_weights(w)
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


def min_weight(fam: Family, w: WeightAssignment) -> SolveResult:
    """Module-level convenience wrapper around Family.min_weight."""
    return fam.min_weight(w)


def min_patch_size(fam: Family, subset) -> int:
    """Fewest elements to add to `subset` to contain a member of `fam`."""
    return fam.min_patch_size(subset)
