"""Patch costs: completing a depleted set back into the family.

For a subset G of the ground set, a patch is any set P with G + P containing
a member; the distance min_patch_size(G) counts the fewest added elements,
and exact_patch finds the cheapest patch under a weight assignment.  The
component heuristic for trees adds, for each connected component except the
largest, the cheapest edge leading to a later component (components ordered
by ascending size, ties by smallest vertex label); it uses exactly
min_patch_size(G) edges and never beats the exact patch.

estimate_patchability samples depleted sets G at distance r, redraws fresh
weights per trial, and reports the largest per-G empirical (1-eps)-quantile
of the exact patch cost; oracles.oracle_patchability gives the same result
over every G at distance <= r on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .families import (
    Family,
    InvalidInput,
    SolveResult,
    SpanningTreeFamily,
    WeightAssignment,
)
from .rngs import stream
from .weights import WeightSpec, sample  # noqa: F401  (a perfbench trace target)

__all__ = [
    "GStrategy",
    "PatchabilityEstimate",
    "exact_patch",
    "component_patch",
    "min_outgoing_edge_count",
    "sample_depleted_set",
    "estimate_patchability",
]


class GStrategy(Enum):
    """How a depleted set G at distance r is generated."""

    REMOVE_FROM_OPTIMUM = "remove-from-optimum"
    REMOVE_FROM_RANDOM_MEMBER = "remove-from-random-member"
    ADVERSARIAL_HEAVIEST = "adversarial-heaviest"


def _verify_patch(fam: Family, subset, patch) -> None:
    merged = tuple(subset) + tuple(patch)
    if fam.min_patch_size(merged) != 0:
        raise RuntimeError("patch failed to complete the subset; solver bug")


def exact_patch(fam: Family, subset, w: WeightAssignment) -> SolveResult:
    """Cheapest patch for `subset` under w (exact for every family): the
    witness is the patch, checked to complete `subset`; the value its cost."""
    found = fam.cheapest_completion(subset, w)
    _verify_patch(fam, subset, found.witness)
    return found


def _component_order(fam: SpanningTreeFamily, comp: np.ndarray) -> np.ndarray:
    """Position of each component id: ascending size, ties by smallest vertex."""
    c = int(comp.max()) + 1
    sizes = np.bincount(comp, minlength=c)
    first_vertex = np.full(c, fam.n, dtype=np.intp)
    np.minimum.at(first_vertex, comp, np.arange(fam.n, dtype=np.intp))
    order = np.lexsort((first_vertex, sizes))
    pos = np.empty(c, dtype=np.intp)
    pos[order] = np.arange(c, dtype=np.intp)
    return pos


def component_patch(fam: Family, subset, w: WeightAssignment) -> SolveResult:
    """Per-component heuristic patch (spanning trees only).

    One edge per non-largest component: the cheapest edge toward any later
    component in the size ordering.  It scans the family's (weight, index)
    edge order and keeps, for each source position, the first cross edge.
    Uses exactly min_patch_size(subset) edges; cost dominates the exact
    patch.
    """
    if not isinstance(fam, SpanningTreeFamily):
        raise TypeError("component_patch is defined for spanning-tree families")
    fam._check_weights(w)
    idx = fam._check_subset(subset)
    comp = fam.component_labels(idx)
    c = int(comp.max()) + 1
    if c == 1:
        return SolveResult(0.0, ())
    pos = _component_order(fam, comp)

    def first_per_source(order: np.ndarray):
        pu = pos[comp[fam.edge_u[order]]]
        pv = pos[comp[fam.edge_v[order]]]
        cross = pu != pv
        # Complete graph: each of the c - 1 non-largest positions has an
        # outgoing edge, so only a short head of the order can miss one.
        sources, first = np.unique(np.minimum(pu, pv)[cross], return_index=True)
        return order[cross][first] if sources.size == c - 1 else None

    chosen = fam._in_weight_order(w, first_per_source)
    if chosen is None:
        raise RuntimeError("component patch size mismatch; solver bug")
    patch = tuple(sorted(chosen.tolist()))
    _verify_patch(fam, idx, patch)
    return SolveResult(w.total(patch), patch)


def min_outgoing_edge_count(fam: Family, subset) -> int:
    """Minimum, over non-largest components of (V, subset), of the number of
    edges leaving the component toward later components.

    For K_n with distance r >= 1 the count is provably at least
    min(n/2, n^2/(4 r^2)); a smaller value indicates a solver bug and raises.
    """
    if not isinstance(fam, SpanningTreeFamily):
        raise TypeError("outgoing-edge counts are defined for spanning trees")
    idx = fam._check_subset(subset)
    comp = fam.component_labels(idx)
    c = int(comp.max()) + 1
    if c == 1:
        raise ValueError("subset already spans; no non-largest components")
    pos = _component_order(fam, comp)
    pu = pos[comp[fam.edge_u]]
    pv = pos[comp[fam.edge_v]]
    cross = pu != pv
    source = np.minimum(pu[cross], pv[cross])
    counts = np.bincount(source, minlength=c)[: c - 1]
    smallest = int(counts.min())
    r = c - 1
    bound = min(fam.n / 2, fam.n**2 / (4 * r * r))
    if smallest < bound:
        raise RuntimeError(
            f"outgoing-edge count {smallest} below guaranteed bound {bound}"
        )
    return smallest


def sample_depleted_set(
    fam: Family,
    spec: WeightSpec,
    r: int,
    strategy: GStrategy,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Generate G by removing r elements from a member.

    The member comes from an auxiliary weight draw (optimum / adversarial
    strategies) or is uniform; removal is uniform except for
    ADVERSARIAL_HEAVIEST, which removes the member's r heaviest elements
    under the auxiliary weights.  For trees and matchings the result is at
    distance exactly r; for explicit families at most r (another member may
    be closer).
    """
    if not 0 <= r <= fam.ell:
        raise InvalidInput(f"removal count r={r} outside [0, {fam.ell}]")
    if strategy is GStrategy.REMOVE_FROM_RANDOM_MEMBER:
        member = fam.random_member(rng)
        aux = None
    else:
        aux = WeightAssignment.draw(spec, rng, fam.ground_size)
        member = fam.min_weight(aux).witness
    if r == 0:
        return tuple(member)
    if strategy is GStrategy.ADVERSARIAL_HEAVIEST:
        member_arr = np.asarray(member, dtype=np.intp)
        heavy = np.argsort(aux.values[member_arr], kind="stable")[::-1][:r]
        removed = set(int(member_arr[i]) for i in heavy)
    else:
        positions = rng.choice(len(member), size=r, replace=False)
        removed = set(int(member[int(p)]) for p in positions)
    return tuple(e for e in member if e not in removed)


@dataclass(frozen=True)
class PatchabilityEstimate:
    """Empirical patch-cost level: with probability about 1 - eps the cheapest
    patch of a depleted set at distance r costs at most lam.

    costs[g, t] is the cheapest patch of depleted set g under weight draw t.
    """

    r: int
    eps: float
    costs: np.ndarray  # shape (g_samples, trials)

    @property
    def g_samples(self) -> int:
        return self.costs.shape[0]

    @property
    def trials(self) -> int:
        return self.costs.shape[1]

    @property
    def per_g_quantiles(self) -> tuple[float, ...]:
        """The midpoint (1 - eps)-quantile of each depleted set's costs."""
        quantiles = np.quantile(self.costs, 1.0 - self.eps, axis=1, method="midpoint")
        return tuple(float(q) for q in quantiles)

    @property
    def lam(self) -> float:
        """The largest per-G quantile: the level the estimate reports."""
        return max(self.per_g_quantiles)


def estimate_patchability(
    fam: Family,
    spec: WeightSpec,
    r: int,
    eps: float,
    g_strategy: GStrategy,
    trials: int,
    g_samples: int = 10,
    master_seed: int = 7,
) -> PatchabilityEstimate:
    """Monte Carlo patchability level at distance r: g_samples depleted sets,
    `trials` fresh weight draws each (all streams independent)."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0 <= r <= fam.ell:
        raise ValueError(f"r={r} outside [0, {fam.ell}]")
    if trials < 1:
        raise ValueError("trials must be positive")
    if g_samples < 1:
        raise ValueError("g_samples must be positive")
    if r == 0:
        return PatchabilityEstimate(0, eps, np.zeros((1, trials)))
    costs = np.empty((g_samples, trials))
    for g in range(g_samples):
        g_rng = stream(master_seed, 301, g)
        depleted = sample_depleted_set(fam, spec, r, g_strategy, g_rng)
        for t in range(trials):
            w = WeightAssignment.draw(spec, stream(master_seed, 302, g, t),
                                      fam.ground_size)
            costs[g, t] = fam.cheapest_completion(depleted, w).value
    return PatchabilityEstimate(r, eps, costs)
