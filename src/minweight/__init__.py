"""Random minimum-weight subsets of set families, with patching bounds.

Given a family of subsets of a ground set with i.i.d. random element
weights, the central quantity is the minimum total weight of a member
(spanning trees of a complete graph, perfect matchings of a complete
bipartite graph, or an explicit list).  The package provides:

- exact solvers and brute-force enumeration oracles for the optimum, the
  patch distance of a partial subset, the cheapest completion, and the
  budget-constrained defect,
- the coupled weight construction that splits one weight into a green and
  a red copy, and the resulting sure two-round bound on the optimum,
- closed-form concentration, first-moment and tail bounds,
- a seeded Monte Carlo engine with summary statistics and experiments,
  exposed through the `minweight` command-line tool.
"""

from .bounds import (
    FirstMomentBound,
    SplitCostMinimum,
    cheap_set_prob_bound,
    concentration_upper_bound,
    first_moment_lower_bound,
    fluctuation_exponent_bound,
    mean_to_median_ratio_bound,
    required_patch_radius,
    split_cost,
    split_cost_minimum,
    upper_tail_bound,
)
from .dual import (
    CertificateReport,
    DualResult,
    cheapest_within_distance,
    defect_under_budget,
    talagrand_certificate_check,
    talagrand_product_bound,
    talagrand_threshold,
)
from .families import (
    ExplicitFamily,
    Family,
    MatchingFamily,
    SolveResult,
    SpanningTreeFamily,
    WeightAssignment,
)
from .montecarlo import (
    ASSIGNMENT_LIMIT,
    SPANNING_TREE_LIMIT,
    CouplingReport,
    ExperimentConfig,
    ExponentFit,
    SplitReport,
    SummaryStats,
    TailReport,
    TrialRecord,
    build_family,
    coupling_experiment,
    fit_exponent,
    run,
    split_experiment,
    summarize,
    tail_experiment,
)
from .patching import (
    GStrategy,
    PatchabilityEstimate,
    PatchResult,
    component_patch,
    estimate_patchability,
    exact_patch,
    min_outgoing_edge_count,
    sample_depleted_set,
)
from .rngs import stream, stream_id
from .weights import (
    BaseLaw,
    WeightSpec,
    cdf,
    coupling_violations,
    iterated_coupling_batch,
    quantile,
    sample,
    split_coupling_batch,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # weights
    "BaseLaw", "WeightSpec", "sample", "cdf", "quantile",
    "split_coupling_batch", "iterated_coupling_batch", "coupling_violations",
    # families
    "WeightAssignment", "SolveResult", "Family",
    "SpanningTreeFamily", "MatchingFamily", "ExplicitFamily",
    # patching
    "GStrategy", "PatchResult", "PatchabilityEstimate",
    "exact_patch", "component_patch", "min_outgoing_edge_count",
    "sample_depleted_set", "estimate_patchability",
    # dual
    "DualResult", "CertificateReport",
    "defect_under_budget", "cheapest_within_distance",
    "talagrand_certificate_check", "talagrand_product_bound",
    "talagrand_threshold",
    # bounds
    "SplitCostMinimum", "FirstMomentBound",
    "split_cost", "split_cost_minimum", "concentration_upper_bound",
    "required_patch_radius", "first_moment_lower_bound",
    "cheap_set_prob_bound", "upper_tail_bound",
    "fluctuation_exponent_bound", "mean_to_median_ratio_bound",
    # montecarlo
    "SPANNING_TREE_LIMIT", "ASSIGNMENT_LIMIT",
    "ExperimentConfig", "TrialRecord", "SummaryStats", "ExponentFit",
    "SplitReport", "TailReport", "CouplingReport",
    "build_family", "run", "summarize", "fit_exponent",
    "split_experiment", "tail_experiment", "coupling_experiment",
    # rngs
    "stream", "stream_id",
]
