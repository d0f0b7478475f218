"""Budget duals of the patch distance, and their concentration certificates.

For a weight assignment w and budget L, defect_under_budget finds the
smallest patch distance among affordable subsets,

    defect(L) = min { min_patch_size(G) : total weight of G <= L },

and cheapest_within_distance is its inverse: the cheapest subset at patch
distance at most r.  They satisfy the duality

    cheapest_within_distance(r) <= L  <=>  defect_under_budget(L) <= r.

Each family finds the distance witness in its own distance_witness
method, and Family.budget_witness, shared by every family, checks the
budget and inverts it for the budget witness; this module checks r,
reports canonical totals, and adds the concentration certificates below.

The defect is 1-Lipschitz in every single weight and certified by its
witness: the witness has at most ell elements, total weight <= L, and patch
distance equal to the defect, so freezing the witness weights caps the
defect whatever the other weights do.  Those two facts drive the
self-bounding concentration product

    Pr(defect <= 0) * Pr(defect >= t * sqrt(ell)) <= exp(-t^2 / 4),

whose right-hand side talagrand_product_bound evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import Family, SolveResult, WeightAssignment
from .rngs import stream

__all__ = [
    "DualResult",
    "CertificateReport",
    "defect_under_budget",
    "cheapest_within_distance",
    "talagrand_product_bound",
    "talagrand_threshold",
    "talagrand_certificate_check",
]

_SURROGATE_INFINITY = 1e18  # stands in for an unbounded weight increase


@dataclass(frozen=True)
class DualResult:
    """Defect value with its certifying witness.

    witness is affordable (weight_used <= budget), has min_patch_size equal
    to defect, and at most ell elements.
    """

    budget: float
    defect: int
    witness: tuple[int, ...]
    weight_used: float


def defect_under_budget(fam: Family, w: WeightAssignment, budget: float) -> DualResult:
    """Smallest patch distance among subsets of total weight <= budget."""
    budget = float(budget)
    defect, witness = fam.budget_witness(w, budget)
    return DualResult(
        budget=budget, defect=int(defect), witness=witness,
        weight_used=w.total(witness),
    )


def cheapest_within_distance(fam: Family, w: WeightAssignment, r: int) -> SolveResult:
    """Cheapest subset whose patch distance is at most r."""
    r = int(r)
    if not 0 <= r <= fam.ell:
        raise ValueError(f"distance r={r} outside [0, {fam.ell}]")
    witness = fam.distance_witness(w, r)
    return SolveResult(value=w.total(witness), witness=witness)


def talagrand_product_bound(t: float) -> float:
    """exp(-t^2/4): certified-Lipschitz concentration product bound."""
    t = float(t)
    if t < 0:
        raise ValueError("t must be non-negative")
    return math.exp(-t * t / 4.0)


def talagrand_threshold(ell: int, t: float) -> float:
    """Defect gap t * sqrt(ell) matching talagrand_product_bound(t)."""
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if t < 0:
        raise ValueError("t must be non-negative")
    return float(t) * math.sqrt(ell)


@dataclass(frozen=True)
class CertificateReport:
    """Perturbation evidence for the Lipschitz and certificate properties."""

    budget: float
    base_defect: int
    witness_size: int
    perturbations: int
    max_abs_delta: int
    lipschitz_ok: bool
    nonwitness_increase_ok: bool
    certificate_ok: bool


def talagrand_certificate_check(
    fam: Family,
    w: WeightAssignment,
    budget: float,
    perturbations: int = 200,
    master_seed: int = 7,
) -> CertificateReport:
    """Empirically verify the two concentration ingredients on one instance.

    Lipschitz: any single-weight change (including the 1e18 surrogate for
    infinity, and decreases) moves the defect by at most 1.  Certificate:
    with the witness weights frozen, arbitrary changes elsewhere never raise
    the defect; in particular increasing one non-witness weight leaves it
    unchanged.
    """
    base = defect_under_budget(fam, w, budget)
    if len(base.witness) > fam.ell:
        raise RuntimeError("witness larger than ell; solver bug")
    rng = stream(master_seed, 401)
    size = fam.ground.size
    max_delta = 0
    lipschitz_ok = True
    nonwitness_ok = True
    witness = set(base.witness)
    scale = float(w.values.max())
    for _ in range(perturbations):
        coord = int(rng.integers(size))
        mode = int(rng.integers(3))
        if mode == 0:
            new_value = _SURROGATE_INFINITY
        elif mode == 1:
            new_value = w.values[coord] * (1.0 + 9.0 * rng.random())
        else:
            new_value = scale * rng.random()
        perturbed = w.values.copy()
        perturbed[coord] = new_value
        moved = defect_under_budget(fam, WeightAssignment(perturbed), budget)
        delta = abs(moved.defect - base.defect)
        max_delta = max(max_delta, delta)
        if delta > 1:
            lipschitz_ok = False
        increased = new_value >= w.values[coord]
        if coord not in witness and increased and moved.defect != base.defect:
            nonwitness_ok = False
    certificate_ok = True
    for _ in range(max(1, perturbations // 4)):
        reshuffled = scale * (1.0 + 9.0 * rng.random(size))
        reshuffled[rng.random(size) < 0.5] = _SURROGATE_INFINITY
        frozen = reshuffled
        if witness:
            widx = np.asarray(sorted(witness), dtype=np.intp)
            frozen[widx] = w.values[widx]
        moved = defect_under_budget(fam, WeightAssignment(frozen), budget)
        if moved.defect > base.defect:
            certificate_ok = False
    return CertificateReport(
        budget=float(budget),
        base_defect=base.defect,
        witness_size=len(base.witness),
        perturbations=perturbations,
        max_abs_delta=max_delta,
        lipschitz_ok=lipschitz_ok,
        nonwitness_increase_ok=nonwitness_ok,
        certificate_ok=certificate_ok,
    )
