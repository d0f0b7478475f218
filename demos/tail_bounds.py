"""Tail of the optimum against the 2^(1-t^q) median-relative bound.

Half the trials estimate the median, the other half measure survival
Pr(value > t * median).  The bound needs no family structure at all,
only that members have at most ell elements, so it is loose in the bulk
and kicks in fast past t=1.
"""

import numpy as np

from minweight.bounds import mean_to_median_ratio_bound
from minweight.montecarlo import ExperimentConfig, run, tail_experiment
from minweight.weights import BaseLaw, WeightSpec

for q in (1.0, 2.0):
    config = ExperimentConfig(
        family="trees", n=50, trials=3000,
        spec=WeightSpec(q=q, base=BaseLaw.UNIFORM_POWER),
        t_grid=(1.0, 1.1, 1.25, 1.5, 2.0, 2.5),
    )
    report = tail_experiment(config, run(config))
    print(f"q={q}  median estimate {report.mu_hat:.4f}")
    print("    t   survival      bound")
    for t, surv, bnd in zip(report.t_grid, report.survival, report.bound):
        marker = "" if surv <= bnd else "  <-- above"
        print(f"  {t:4.2f}   {surv:8.4f}   {bnd:8.4f}{marker}")
    ratio = mean_to_median_ratio_bound(q)
    print(f"  mean {report.mean_value:.4f} <= {ratio:.4f} * median = "
          f"{report.mean_bound:.4f}: {report.mean_ok}")
    print()

print("survival drops far below the bound: the tree optimum concentrates")
print("much harder than certifiability alone can promise.")
