"""Brute-force reference implementations for small instances.

Every optimized solver in the package has an exhaustive counterpart here:
member enumeration for optima and completions, full subset scans for the
budget duals.  The oracles share nothing with the production algorithms
beyond the canonical-sum convention, so agreement is meaningful.

Scans are table-driven: a component-count (or matching-size) table indexed
by edge-subset bitmask, and a subset-sum table filled by the standard
lowest-bit recursion.  Both are exhaustive over all 2^N subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import (
    ExplicitFamily,
    Family,
    MatchingFamily,
    SpanningTreeFamily,
    WeightAssignment,
)

__all__ = [
    "oracle_min_weight",
    "oracle_min_patch_size",
    "oracle_cheapest_completion",
    "oracle_defect_under_budget",
    "oracle_cheapest_within_distance",
    "tree_component_table",
    "subset_sums",
    "partial_matchings",
    "OracleCheck",
    "oracle_suite",
]

_TREE_SCAN_MAX_N = 6  # 2^15 subset masks; enough for every oracle test


def oracle_min_weight(fam: Family, w: WeightAssignment):
    """Minimum over enumerated members; ties by smallest index tuple."""
    best = None
    for member in fam.enumerate_members():
        cand = (w.total(member), member)
        if best is None or cand < best:
            best = cand
    return best


def oracle_min_patch_size(fam: Family, subset) -> int:
    """min over members of |member - subset| (the cheapest patch is exactly
    the missing part of some member)."""
    got = set(int(i) for i in subset)
    return min(len(set(m) - got) for m in fam.enumerate_members())


def oracle_cheapest_completion(fam: Family, subset, w: WeightAssignment):
    """Cheapest missing part over enumerated members."""
    got = set(int(i) for i in subset)
    best = None
    for member in fam.enumerate_members():
        patch = tuple(sorted(set(member) - got))
        cand = (w.total(patch), patch)
        if best is None or cand < best:
            best = cand
    return best


# -- exhaustive subset scans ---------------------------------------------


@lru_cache(maxsize=None)
def tree_component_table(n: int) -> np.ndarray:
    """Component count of (V, G) for every edge-subset bitmask of K_n."""
    if not 2 <= n <= _TREE_SCAN_MAX_N:
        raise ValueError(f"tree subset scan supports 2 <= n <= {_TREE_SCAN_MAX_N}")
    fam = SpanningTreeFamily(n)
    num_edges = fam.ground.size
    eu = fam.edge_u.tolist()
    ev = fam.edge_v.tolist()
    table = np.empty(1 << num_edges, dtype=np.uint8)
    for mask in range(1 << num_edges):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        count = n
        m = mask
        while m:
            low = m & -m
            e = low.bit_length() - 1
            m ^= low
            ra, rb = find(eu[e]), find(ev[e])
            if ra != rb:
                parent[rb] = ra
                count -= 1
        table[mask] = count
    return table


def subset_sums(values: np.ndarray) -> np.ndarray:
    """Total weight of every subset bitmask (lowest-bit recursion)."""
    values = np.asarray(values, dtype=float)
    num = values.size
    if num > 24:
        raise ValueError("subset-sum table is limited to 24 elements")
    sums = np.zeros(1 << num, dtype=float)
    for e in range(num):
        bit = 1 << e
        # Masks whose top bit is e extend the already-complete lower table,
        # so every subset sum adds its elements in ascending index order.
        sums[bit : 2 * bit] = sums[:bit] + values[e]
    return sums


def oracle_defect_under_budget_tree(n: int, w: WeightAssignment, budget: float):
    """min over ALL affordable edge subsets of (components - 1)."""
    comp = tree_component_table(n)
    sums = subset_sums(w.values)
    afford = sums <= budget
    return int(comp[afford].min()) - 1


def oracle_cheapest_within_distance_tree(n: int, w: WeightAssignment, r: int):
    """min subset weight among ALL subsets with components - 1 <= r."""
    comp = tree_component_table(n)
    sums = subset_sums(w.values)
    ok = comp.astype(np.intp) - 1 <= r
    return float(sums[ok].min())


@lru_cache(maxsize=None)
def partial_matchings(n: int):
    """Every partial matching of K_{n,n} as (size array, padded edge rows).

    Row g lists the edges of matching g in ascending index order, padded
    with a sentinel slot holding weight zero.  Costs are accumulated column
    by column, so every matching's total adds its weights in ascending
    order, bit-identical to the solvers' canonical sums.
    """
    if not 1 <= n <= 6:
        raise ValueError("partial matching enumeration supports 1 <= n <= 6")
    rows: list[list[int]] = []

    def extend(i: int, used_cols: int, edges: list[int]):
        if i == n:
            rows.append(list(edges))
            return
        extend(i + 1, used_cols, edges)  # leave row i unmatched
        for j in range(n):
            if not used_cols >> j & 1:
                edges.append(i * n + j)
                extend(i + 1, used_cols | 1 << j, edges)
                edges.pop()

    extend(0, 0, [])
    sizes = np.array([len(r) for r in rows], dtype=np.intp)
    padded = np.full((len(rows), n), n * n, dtype=np.intp)
    for g, r in enumerate(rows):
        padded[g, : len(r)] = r
    return sizes, padded


def _matching_costs(padded: np.ndarray, values: np.ndarray) -> np.ndarray:
    extended = np.append(np.asarray(values, dtype=float), 0.0)
    costs = np.zeros(len(padded))
    for col in range(padded.shape[1]):
        costs = costs + extended[padded[:, col]]
    return costs


def oracle_defect_under_budget_matching(
    n: int, w: WeightAssignment, budget: float
) -> int:
    sizes, padded = partial_matchings(n)
    costs = _matching_costs(padded, w.values)
    afford = costs <= budget
    return n - int(sizes[afford].max())


def oracle_cheapest_within_distance_matching(
    n: int, w: WeightAssignment, r: int
) -> float:
    sizes, padded = partial_matchings(n)
    costs = _matching_costs(padded, w.values)
    ok = n - sizes <= r
    return float(costs[ok].min())


def oracle_defect_under_budget(fam: Family, w: WeightAssignment, budget: float):
    if isinstance(fam, SpanningTreeFamily):
        return oracle_defect_under_budget_tree(fam.n, w, budget)
    if isinstance(fam, MatchingFamily):
        return oracle_defect_under_budget_matching(fam.n, w, budget)
    if isinstance(fam, ExplicitFamily):
        return _oracle_defect_explicit(fam, w, budget)
    raise TypeError(f"no defect oracle for {type(fam).__name__}")


def oracle_cheapest_within_distance(fam: Family, w: WeightAssignment, r: int):
    if isinstance(fam, SpanningTreeFamily):
        return oracle_cheapest_within_distance_tree(fam.n, w, r)
    if isinstance(fam, MatchingFamily):
        return oracle_cheapest_within_distance_matching(fam.n, w, r)
    if isinstance(fam, ExplicitFamily):
        return _oracle_cheapest_explicit(fam, w, r)
    raise TypeError(f"no distance oracle for {type(fam).__name__}")


def _explicit_tables(fam: ExplicitFamily, w: WeightAssignment):
    if fam.ground.size > 20:
        raise ValueError("explicit subset scan is limited to 20 elements")
    sums = subset_sums(w.values)
    member_masks = [sum(1 << i for i in m) for m in fam.members]
    num = fam.ground.size
    defect = np.empty(1 << num, dtype=np.intp)
    for mask in range(1 << num):
        defect[mask] = min(
            (mm & ~mask).bit_count() for mm in member_masks
        )
    return sums, defect


def _oracle_defect_explicit(fam, w, budget):
    sums, defect = _explicit_tables(fam, w)
    return int(defect[sums <= budget].min())


def _oracle_cheapest_explicit(fam, w, r):
    sums, defect = _explicit_tables(fam, w)
    return float(sums[defect <= r].min())


# -- agreement driver ----------------------------------------------------


@dataclass(frozen=True)
class OracleCheck:
    """Outcome of one solver-vs-oracle comparison.

    agreed counts the weight vectors on which the solver matched the
    enumeration oracle exactly (all sub-comparisons of the operation).
    """

    family: str
    n: int
    operation: str
    trials: int
    agreed: int


def oracle_suite(vectors: int = 20, master_seed: int = 7) -> list[OracleCheck]:
    """Compare every solver against its oracle on seeded random weights.

    Trees at n = 2..5 and matchings at n = 1..6; `vectors` weight vectors
    per size; exact agreement (integers exactly, values bit-for-bit through
    canonical sums).  Import here avoids a module cycle.
    """
    if vectors < 1:
        raise ValueError(f"oracle suite needs at least one vector, got {vectors}")
    from . import dual, weights
    from .patching import exact_patch
    from .rngs import stream

    spec = weights.WeightSpec(q=1.0, base=weights.BaseLaw.UNIFORM_POWER)
    checks: list[OracleCheck] = []
    instances = [("tree", SpanningTreeFamily(k)) for k in range(2, 6)]
    instances += [("matching", MatchingFamily(k)) for k in range(1, 7)]
    for name, fam in instances:
        size = fam.n
        members = fam.enumerate_members()
        agree = {op: 0 for op in
                 ("min_weight", "min_patch_size", "exact_patch",
                  "defect_under_budget", "cheapest_within_distance")}
        for trial in range(vectors):
            rng = stream(master_seed, 101 if name == "tree" else 102, size, trial)
            w = WeightAssignment(weights.sample(spec, rng, fam.ground.size))
            solved = fam.min_weight(w)
            ov, om = oracle_min_weight(fam, w)
            agree["min_weight"] += solved.value == ov and solved.witness == om
            member = members[int(rng.integers(len(members)))]
            drop = min(len(member), max(1, len(member) // 2))
            keep_pos = sorted(
                rng.choice(len(member), len(member) - drop, replace=False)
            )
            kept = tuple(member[i] for i in keep_pos)
            agree["min_patch_size"] += (
                fam.min_patch_size(kept) == oracle_min_patch_size(fam, kept)
            )
            got = exact_patch(fam, kept, w)
            oc, _ = oracle_cheapest_completion(fam, kept, w)
            agree["exact_patch"] += got.cost == oc
            full = solved.value
            agree["defect_under_budget"] += all(
                dual.defect_under_budget(fam, w, frac * full).defect
                == oracle_defect_under_budget(fam, w, frac * full)
                for frac in (0.0, 0.4, 0.8, 1.2)
            )
            agree["cheapest_within_distance"] += all(
                dual.cheapest_within_distance(fam, w, r).value
                == oracle_cheapest_within_distance(fam, w, r)
                for r in range(fam.ell + 1)
            )
        for op, count in agree.items():
            checks.append(
                OracleCheck(
                    family=name, n=size, operation=op, trials=vectors,
                    agreed=int(count),
                )
            )
    return checks
