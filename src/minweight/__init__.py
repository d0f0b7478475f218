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

from . import bounds, dual, families, montecarlo, patching, rngs, weights
from .bounds import *  # noqa: F403
from .dual import *  # noqa: F403
from .families import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .patching import *  # noqa: F403
from .rngs import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"

# Each public name is declared once, in its submodule's __all__.
__all__ = ["__version__", *dict.fromkeys(
    name
    for module in (weights, families, patching, dual, bounds, montecarlo, rngs)
    for name in module.__all__
)]
