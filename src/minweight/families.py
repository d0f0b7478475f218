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

    def _sorted_candidates(self, values: np.ndarray) -> np.ndarray:
        """Edge indices in (weight, index) order; possibly a cheap prefix.

        When a prefix is returned it provably contains every edge the full
        scan would accept, because selection puts the k smallest weights
        first; callers must fall back to the full order if the scan does not
        finish inside the prefix.
        """
        size = values.size
        if size <= self._PARTITION_THRESHOLD:
            return np.argsort(values, kind="stable")
        k = min(size, 8 * self.n * max(1, int(np.log(self.n))) + 64)
        cand = np.argpartition(values, k - 1)[:k]
        return cand[np.lexsort((cand, values[cand]))]

    def _kruskal(self, values: np.ndarray, order: np.ndarray, max_edges: int,
                 budget: float | None = None):
        """Accept acyclic edges in `order` until max_edges or budget stops."""
        dsu = _DisjointSets(self.n)
        chosen: list[int] = []
        total = 0.0
        eu, ev = self.edge_u, self.edge_v
        for idx in order:
            if len(chosen) == max_edges:
                break
            i = int(idx)
            if budget is not None and total + values[i] > budget:
                # Ascending order: no later edge fits either.
                break
            if dsu.union(int(eu[i]), int(ev[i])):
                chosen.append(i)
                total += values[i]
        return chosen

    def _greedy_forest(self, w: WeightAssignment, max_edges: int) -> list[int]:
        values = w.values
        order = self._sorted_candidates(values)
        chosen = self._kruskal(values, order, max_edges)
        if len(chosen) < max_edges and order.size < values.size:
            # Prefix did not finish the forest; redo with the full order.
            order = np.argsort(values, kind="stable")
            chosen = self._kruskal(values, order, max_edges)
        return chosen

    def budget_forest(self, w: WeightAssignment, budget: float) -> list[int]:
        """Largest affordable prefix of the greedy forest.

        The k cheapest greedy edges form the minimum-weight forest of every
        size k, so the budget stop reduces to a prefix scan.  Affordability
        uses the same index-ordered subset sum that `total` reports, so a
        budget equal to an attained value stays affordable bit-for-bit.
        """
        self._check_weights(w)
        values = w.values
        order = np.argsort(values, kind="stable")
        chosen = self._kruskal(values, order, self.n - 1)
        kept = 0
        for k in range(1, len(chosen) + 1):
            if w.total(chosen[:k]) > budget:
                break  # canonical prefix totals only grow
            kept = k
        return chosen[:kept]

    def min_weight(self, w: WeightAssignment) -> SolveResult:
        self._check_weights(w)
        chosen = self._greedy_forest(w, self.n - 1)
        witness = tuple(sorted(chosen))
        return SolveResult(value=w.total(witness), witness=witness)

    def budget_witness(self, w: WeightAssignment, budget: float) -> tuple[int, tuple]:
        chosen = self.budget_forest(w, budget)
        return (self.n - 1) - len(chosen), tuple(sorted(chosen))

    def distance_witness(self, w: WeightAssignment, r: int) -> tuple[int, ...]:
        self._check_weights(w)
        return tuple(sorted(self._greedy_forest(w, self.n - 1 - r)))

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
        self._check_weights(w)
        idx = self._check_subset(subset)
        comp = self.component_labels(idx)
        c = int(comp.max()) + 1
        if c == 1:
            return 0.0, ()
        cu = comp[self.edge_u]
        cv = comp[self.edge_v]
        cross = np.nonzero(cu != cv)[0]
        lo = np.minimum(cu[cross], cv[cross])
        hi = np.maximum(cu[cross], cv[cross])
        key = lo * c + hi
        vals = w.values[cross]
        order = np.lexsort((cross, vals, key))
        key_sorted = key[order]
        first = np.ones(key_sorted.size, dtype=bool)
        first[1:] = key_sorted[1:] != key_sorted[:-1]
        reps = cross[order][first]  # cheapest edge for each component pair
        # Minimum spanning tree of the contracted graph over the reps.
        rep_vals = w.values[reps]
        rep_order = np.argsort(rep_vals, kind="stable")
        dsu = _DisjointSets(c)
        patch: list[int] = []
        for pos in rep_order:
            if len(patch) == c - 1:
                break
            e = int(reps[pos])
            if dsu.union(int(comp[self.edge_u[e]]), int(comp[self.edge_v[e]])):
                patch.append(e)
        patch_t = tuple(sorted(patch))
        return w.total(patch_t), patch_t

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
    vertex i to right vertex j; ell = n."""

    def __init__(self, n: int) -> None:
        n = int(n)
        if n < 1:
            raise ValueError(f"matchings need n >= 1, got {n}")
        self.n = n
        labels = tuple((i, j) for i in range(n) for j in range(n))
        self.ground = GroundSet(size=n * n, labels=labels)
        self.ell = n

    def min_weight(self, w: WeightAssignment) -> SolveResult:
        self._check_weights(w)
        cost = w.values.reshape(self.n, self.n)
        rows, cols = linear_sum_assignment(cost)
        witness = tuple(sorted(int(i) * self.n + int(j) for i, j in zip(rows, cols)))
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
        rows, cols = linear_sum_assignment(masked.reshape(self.n, self.n))
        in_subset = np.zeros(self.ground.size, dtype=bool)
        in_subset[idx] = True
        patch = tuple(
            sorted(
                int(i) * self.n + int(j)
                for i, j in zip(rows, cols)
                if not in_subset[int(i) * self.n + int(j)]
            )
        )
        return w.total(patch), patch

    def assignment_ladder(self, w: WeightAssignment):
        """Minimum-weight k-matchings for every cardinality k = 0..n.

        Successive shortest augmenting paths with node potentials; after the
        k-th augmentation the flow is a minimum-cost k-matching over all row
        and column subsets.  Returns (costs, matchings): costs[k] is the
        canonical value and matchings[k] the sorted edge tuple.
        """
        self._check_weights(w)
        n = self.n
        cost = w.values.reshape(n, n)
        row_pot = np.zeros(n)
        col_pot = np.zeros(n)
        match_row = np.full(n, -1, dtype=np.intp)
        match_col = np.full(n, -1, dtype=np.intp)
        costs = [0.0]
        matchings: list[tuple[int, ...]] = [()]
        for _ in range(n):
            reduced = cost + row_pot[:, None] - col_pot[None, :]
            free = match_row < 0
            free_idx = np.nonzero(free)[0]
            dist = reduced[free_idx].min(axis=0)
            src = free_idx[reduced[free_idx].argmin(axis=0)]
            prev_col = np.full(n, -1, dtype=np.intp)
            done = np.zeros(n, dtype=bool)
            target = -1
            while True:
                masked = np.where(done, np.inf, dist)
                j0 = int(masked.argmin())
                done[j0] = True
                if match_col[j0] < 0:
                    target = j0
                    break
                i0 = int(match_col[j0])
                cand = dist[j0] + reduced[i0]
                better = ~done & (cand < dist)
                dist[better] = cand[better]
                src[better] = i0
                prev_col[better] = j0
            reach = dist[target]
            # Potentials shift by min(dist, reach): reached nodes by their
            # distance, the rest by the path length.  Free rows stay at 0.
            col_pot += np.minimum(dist, reach)
            row_shift = np.full(n, reach)
            row_shift[free] = 0.0
            matched = np.nonzero(~free)[0]
            if matched.size:
                mcols = match_row[matched]
                row_shift[matched] = np.where(
                    done[mcols], np.minimum(dist[mcols], reach), reach
                )
            row_pot += row_shift
            j = target
            while True:
                i = int(src[j])
                match_col[j] = i
                prev = int(prev_col[j])
                match_row[i] = j
                if prev < 0:
                    break
                j = prev
            edges = tuple(
                sorted(
                    int(i) * n + int(match_row[i])
                    for i in np.nonzero(match_row >= 0)[0]
                )
            )
            matchings.append(edges)
            costs.append(w.total(edges))
        return np.asarray(costs), matchings

    def budget_witness(self, w: WeightAssignment, budget: float) -> tuple[int, tuple]:
        costs, matchings = self.assignment_ladder(w)
        k = int(np.nonzero(costs <= budget)[0].max())
        return self.n - k, matchings[k]

    def distance_witness(self, w: WeightAssignment, r: int) -> tuple[int, ...]:
        return self.assignment_ladder(w)[1][self.n - r]

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
            kept: list[int] = []
            for e in order:
                step = kept + [int(e)]
                # Affordability in the same index-ordered sum that totals report.
                if w.total(step) > budget:
                    break  # canonical prefix totals only grow
                kept = step
            cand = (len(member) - len(kept), tuple(sorted(kept)))
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
