"""The budget dual: how broken is the best structure you can afford?

defect(L) counts the elements missing from a spanning tree after
spending at most L; near(r) is the cheapest cost at defect <= r.  The
two are exact inverses: near(r) <= L exactly when defect(L) <= r.  The
defect also moves by at most 1 under any single weight change, and is
certified by the witness's weights alone -- the two properties behind
its concentration.
"""

import numpy as np

from minweight.dual import (
    cheapest_within_distance,
    defect_under_budget,
    talagrand_certificate_check,
)
from minweight.families import SpanningTreeFamily, WeightAssignment
from minweight.rngs import stream
from minweight.weights import BaseLaw, WeightSpec, sample

fam = SpanningTreeFamily(40)
spec = WeightSpec(q=1.0, base=BaseLaw.UNIFORM_POWER)
w = WeightAssignment(sample(spec, stream(99), fam.ground_size))

best = fam.min_weight(w)
print(f"n=40: optimum {best.value:.4f} using {len(best.witness)} edges")
print()
print("budget sweep:")
print(f"{'L':>8} {'defect':>7} {'spent':>8}")
for frac in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
    L = frac * best.value
    res = defect_under_budget(fam, w, L)
    print(f"{L:>8.4f} {res.defect:>7} {res.weight_used:>8.4f}")

print()
print("distance sweep (cheapest cost at defect <= r):")
for r in (0, 1, 2, 5, 10, 20, 39):
    res = cheapest_within_distance(fam, w, r)
    print(f"  r={r:>2}  cost={res.value:.4f}")

# duality spot check across a fine budget grid
grid = np.linspace(0.0, 1.2 * best.value, 60)
mismatches = 0
for L in grid:
    d = defect_under_budget(fam, w, L).defect
    for r in (0, 1, 3, 7):
        near = cheapest_within_distance(fam, w, r).value
        mismatches += (near <= L) != (d <= r)
print()
print(f"duality mismatches over {grid.size} budgets x 4 radii: {mismatches}")

report = talagrand_certificate_check(fam, w, 0.5 * best.value, perturbations=200)
print(f"single-weight perturbations: max |defect change| = {report.max_abs_delta}")
print(f"witness frozen, rest scrambled: defect never rises = {report.certificate_ok}")
