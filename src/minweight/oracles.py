"""Brute-force reference implementations for small instances.

Every optimized solver in the package has an exhaustive counterpart here:
member enumeration for optima and completions, and one scan over the
subsets of members for both budget duals and for the worst-case
patchability.  The oracles share nothing with the production algorithms
beyond enumerate_members() and the canonical-sum convention, so agreement
is meaningful.

Why the member-subset scan is exhaustive: take any subset S of the ground
set and a member M* attaining its defect min over members of |M - S|.
Then S & M* has the same defect (M* misses the same elements, and no
member misses fewer from a smaller set), and its total is no larger: sums
add in ascending index order, and inserting a non-negative term never
lowers a later partial sum, since rounding is monotone.  So the cheapest
subset within distance r, and the smallest defect within a budget, are
both attained on a subset of some member, for every family alike.  By the
same monotonicity each patch M - (S & M*) costs at least M - S, so the
costliest depleted set at distance <= r is a subset of a member too.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import dual
from .families import (
    Family,
    MatchingFamily,
    SpanningTreeFamily,
    WeightAssignment,
)
from .patching import PatchabilityEstimate, exact_patch
from .rngs import stream
from .weights import BaseLaw, InvalidInput, WeightSpec

__all__ = [
    "oracle_min_weight",
    "oracle_min_patch_size",
    "oracle_cheapest_completion",
    "oracle_defect_under_budget",
    "oracle_cheapest_within_distance",
    "oracle_patchability",
    "member_subsets",
    "MemberSubsets",
    "OracleCheck",
    "oracle_suite",
]

# Subset masks enumerated before deduplication (members x 2^ell), at most
# 8 MB of uint64: trees to n = 6, matchings to n = 7, and explicit
# families of up to 16 members of up to 16 elements fit.
_MAX_SUBSET_MASKS = 1 << 20


_MEMBERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _per_family(cache: weakref.WeakKeyDictionary, fam: Family, make):
    """make(fam), built once per family object and kept while it lives."""
    value = cache.get(fam)
    if value is None:
        value = cache[fam] = make(fam)
    return value


def _members(fam: Family) -> tuple[tuple[int, ...], ...]:
    """fam.enumerate_members(), enumerated once per family object."""
    return _per_family(_MEMBERS, fam, lambda f: tuple(f.enumerate_members()))


def oracle_min_weight(fam: Family, w: WeightAssignment):
    """Minimum over enumerated members; ties by smallest index tuple."""
    best = None
    for member in _members(fam):
        cand = (w.total(member), member)
        if best is None or cand < best:
            best = cand
    return best


def oracle_min_patch_size(fam: Family, subset) -> int:
    """min over members of |member - subset| (the cheapest patch is exactly
    the missing part of some member)."""
    got = set(int(i) for i in subset)
    return min(len(set(m) - got) for m in _members(fam))


def oracle_cheapest_completion(fam: Family, subset, w: WeightAssignment):
    """Cheapest missing part over enumerated members."""
    got = set(int(i) for i in subset)
    best = None
    for member in _members(fam):
        patch = tuple(sorted(set(member) - got))
        cand = (w.total(patch), patch)
        if best is None or cand < best:
            best = cand
    return best


# -- exhaustive subset scans ---------------------------------------------


@dataclass(frozen=True)
class MemberSubsets:
    """The distinct subsets of a family's members, one row each.

    member_masks are the members as uint64 bitmasks, in enumeration order;
    masks are the subsets as ascending uint64 bitmasks; defect[g] is
    min over members of |M - subset g|; rows[g] lists subset g's elements
    in ascending order, padded to ell columns with the sentinel index
    size (the ground-set size N), whose weight is zero.
    """

    size: int
    member_masks: np.ndarray
    masks: np.ndarray
    defect: np.ndarray
    rows: np.ndarray

    def costs(self, w: WeightAssignment) -> np.ndarray:
        """Every row's total, added column by column: each subset's weights
        in ascending index order, as the canonical sum adds them."""
        extended = np.zeros(self.size + 1)
        extended[: self.size] = w.values  # a vector of another length raises
        costs = np.zeros(len(self.rows))
        for col in self.rows.T:
            costs = costs + extended[col]
        return costs


def member_subsets(fam: Family) -> MemberSubsets:
    """The member-subset table of `fam`, built once per family object."""
    return _per_family(_TABLES, fam, _build_member_subsets)


def _build_member_subsets(fam: Family) -> MemberSubsets:
    members = _members(fam)
    if len(members) << fam.ell > _MAX_SUBSET_MASKS:
        raise ValueError(
            f"member-subset table would enumerate {len(members)} x 2^{fam.ell} "
            f"masks, above the limit of {_MAX_SUBSET_MASKS}"
        )
    num = fam.ground_size
    bits = np.zeros((len(members), fam.ell), dtype=np.uint64)
    for i, member in enumerate(members):
        bits[i, : len(member)] = np.left_shift(
            np.uint64(1), np.asarray(member, dtype=np.uint64)
        )
    member_masks = np.bitwise_or.reduce(bits, axis=1)
    # Subsets by the lowest-bit recursion; short members pad with bit 0.
    subsets = np.zeros((len(members), 1), dtype=np.uint64)
    for col in bits.T:
        subsets = np.hstack([subsets, subsets | col[:, None]])
    masks = np.unique(subsets)
    if all(len(member) == fam.ell for member in members):
        # Each subset S of a member M has defect ell - |S|: M misses that
        # many, and any member misses at least its ell less |S|.
        defect = fam.ell - np.bitwise_count(masks).astype(np.intp)
    else:
        defect = _reduce_defects(member_masks, masks)
    rows = np.full((masks.size, fam.ell), num, dtype=np.uint8)
    rest = masks.copy()
    for col in range(fam.ell):
        low = rest & (~rest + np.uint64(1))  # lowest set bit, 0 when none
        rows[:, col] = np.where(low != 0, np.bitwise_count(low - np.uint64(1)), num)
        rest ^= low
    for arr in (member_masks, masks, defect, rows):
        arr.setflags(write=False)  # one table serves every caller
    return MemberSubsets(size=num, member_masks=member_masks, masks=masks,
                         defect=defect, rows=rows)


def _reduce_defects(member_masks: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """min over members M of |M - S| for each subset mask S, member by
    member."""
    return reduce(
        np.minimum, (np.bitwise_count(mm & ~masks) for mm in member_masks)
    ).astype(np.intp)


def oracle_defect_under_budget(fam: Family, w: WeightAssignment, budget: float):
    """min over ALL subsets of total weight <= budget of the patch distance."""
    table = member_subsets(fam)
    return int(table.defect[table.costs(w) <= budget].min())


def oracle_cheapest_within_distance(fam: Family, w: WeightAssignment, r: int):
    """min total weight over ALL subsets at patch distance <= r."""
    table = member_subsets(fam)
    return float(table.costs(w)[table.defect <= r].min())


def oracle_patchability(
    fam: Family, spec: WeightSpec, r: int, eps: float, trials: int,
    master_seed: int = 7,
) -> PatchabilityEstimate:
    """estimate_patchability over every depleted set G at distance <= r.

    One row per member subset G at defect <= r, which is enough: cutting
    any G to G & M*, for a member M* attaining its defect, keeps the
    defect and lowers no patch cost (see the module docstring), so no
    other G has a larger quantile.  The `trials` draws come from the
    streams (master_seed, 303, t) and are shared by every row; each cost
    is the least canonical total of a patch M - G over the members M.
    """
    if not (0 < eps < 1 and 0 <= r <= fam.ell and trials >= 1):
        raise ValueError(f"need 0 < eps < 1, 0 <= r <= {fam.ell} and trials >= 1, "
                         f"got eps={eps}, r={r}, trials={trials}")
    table = member_subsets(fam)
    depleted = table.masks[table.defect <= r]
    # M - G is itself a member subset: its row, for every G (rows) and M.
    patches = np.searchsorted(table.masks, table.member_masks & ~depleted[:, None])
    costs = np.empty((depleted.size, trials))
    for t in range(trials):
        w = WeightAssignment.draw(spec, stream(master_seed, 303, t), fam.ground_size)
        costs[:, t] = table.costs(w)[patches].min(axis=1)
    return PatchabilityEstimate(r, eps, costs)


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
    canonical sums).
    """
    if vectors < 1:
        raise InvalidInput(f"oracle suite needs at least one vector, got {vectors}")
    spec = WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER)
    checks: list[OracleCheck] = []
    instances = [("tree", SpanningTreeFamily(k)) for k in range(2, 6)]
    instances += [("matching", MatchingFamily(k)) for k in range(1, 7)]
    for name, fam in instances:
        size = fam.n
        members = _members(fam)
        agree = {op: 0 for op in
                 ("min_weight", "min_patch_size", "exact_patch",
                  "defect_under_budget", "cheapest_within_distance")}
        for trial in range(vectors):
            rng = stream(master_seed, 101 if name == "tree" else 102, size, trial)
            w = WeightAssignment.draw(spec, rng, fam.ground_size)
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
            agree["exact_patch"] += got.value == oc
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
