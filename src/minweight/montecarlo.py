"""Seeded Monte Carlo experiments over random weight assignments.

Every trial draws its generator from (master_seed, n, trial) through one
SeedSequence, so records are reproducible bit for bit and independent of
execution order; trials(config) yields each record as its trial finishes.
The experiments, the first four the trial kinds of one table (KINDS):

- value: distribution of the minimum member weight (limit constants,
  fluctuation scaling via fit_exponent),
- patch: cost of re-completing a depleted near-optimal subset,
- dual: the defect (patch distance of the best affordable subset) at a
  fixed budget,
- split: the green/red coupled two-round bound, its violations counted
  (the CLI exits 1 on any),
- tail: empirical survival against the 2^(1-t^q) median tail bound,
- coupling: distributional checks of the coupled triple construction.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from . import bounds, dual, patching, weights
from .families import (
    Family,
    InvalidInput,
    MatchingFamily,
    SpanningTreeFamily,
    WeightAssignment,
)
from .patching import GStrategy
from .rngs import stream, stream_id
from .weights import WeightSpec

__all__ = [
    "SPANNING_TREE_LIMIT",
    "ASSIGNMENT_LIMIT",
    "COUPLING_MIN_TRIALS",
    "ExperimentConfig",
    "TrialRecord",
    "SummaryStats",
    "ExponentFit",
    "SplitReport",
    "TailReport",
    "CouplingReport",
    "KINDS",
    "build_family",
    "trials",
    "run",
    "summarize",
    "fit_exponent",
    "split_experiment",
    "tail_experiment",
    "coupling_experiment",
]

# Limits of the mean optimum for q=1: Apery's constant zeta(3) for spanning
# trees on the complete graph, pi^2/6 for the bipartite assignment problem.
SPANNING_TREE_LIMIT = 1.2020569031595942
ASSIGNMENT_LIMIT = math.pi ** 2 / 6.0

_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
_FAMILIES = {"trees": SpanningTreeFamily, "matchings": MatchingFamily}
COUPLING_MIN_TRIALS = 100
_COUPLING_ALPHA = 0.01  # significance level of every coupling p-value


def build_family(family: str, n: int) -> Family:
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {tuple(_FAMILIES)}"
        )
    return _FAMILIES[family](n)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: family, sizes, weight law, trial count, parameters."""

    family: str
    n: int | None = None
    n_grid: tuple[int, ...] = ()
    spec: WeightSpec = WeightSpec(q=1.0)
    trials: int = 100
    master_seed: int = 7
    kind: str = "value"
    r: int | None = None
    budget: float | None = None
    s: float | None = None
    t_grid: tuple[float, ...] = ()
    g_strategy: GStrategy = GStrategy.REMOVE_FROM_OPTIMUM

    def __post_init__(self) -> None:
        # A string names its strategy; an unknown one fails here.
        object.__setattr__(self, "g_strategy", GStrategy(self.g_strategy))
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        grid = tuple(int(v) for v in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if (self.n is None) == (len(grid) == 0):
            raise ValueError("exactly one of n and n_grid must be set")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        for n in self.sizes:
            _FAMILIES[self.family].check_size(n)
        tgrid = tuple(float(t) for t in self.t_grid)
        object.__setattr__(self, "t_grid", tgrid)
        _, requires, takes = KINDS[self.kind]
        for f in fields(self):
            if f.name in requires and getattr(self, f.name) is None:
                raise ValueError(f"{self.kind} experiment needs {f.name}")
            if (f.name in _KIND_PARAMETERS.difference(requires, takes)
                    and getattr(self, f.name) != f.default):
                raise ValueError(f"{self.kind} experiment does not take {f.name}")
        if any(b <= a for a, b in zip(tgrid, tgrid[1:])):
            raise ValueError("t_grid must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if tgrid:  # the tail experiment
            if not all(t >= 0 for t in tgrid):  # also rejects NaN
                raise ValueError(f"t_grid must be non-negative, got {tgrid}")
            if len(self.sizes) != 1:
                raise ValueError("tail experiment runs at a single size")
            if self.trials < 2:
                raise ValueError("tail experiment needs at least 2 trials")
        if int(self.master_seed) < 0:
            raise ValueError("master_seed must be non-negative")
        if self.s is not None:
            weights.split_constants(self.s, self.spec.q)

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.n,) if self.n is not None else self.n_grid


@dataclass(frozen=True)
class TrialRecord:
    """One trial's derived quantities; unused fields stay None."""

    trial: int
    n: int
    q: float
    seed: int
    value: float
    defect: int | None = None
    near_value: float | None = None
    patch_cost: float | None = None
    component_cost: float | None = None
    w_green: float | None = None
    w_red: float | None = None
    bound: float | None = None
    envelope_bound: float | None = None
    slack: float | None = None


def trials(config: ExperimentConfig) -> Iterator[TrialRecord]:
    """Yield each record as its trial finishes; it depends only on (seed, n, i)."""
    for n in config.sizes:
        fam = build_family(config.family, n)
        for i in range(config.trials):
            rng = stream(config.master_seed, n, i)
            sid = stream_id(config.master_seed, n, i)
            try:
                record = _trial(config, fam, n, i, sid, rng)
            except Exception as exc:
                raise RuntimeError(
                    f"{config.kind} trial {i} at n={n} failed: {exc}"
                ) from exc
            yield record


def run(config: ExperimentConfig) -> list[TrialRecord]:
    """Execute all trials: the records trials(config) yields, in order."""
    return list(trials(config))


def _trial(
    config: ExperimentConfig,
    fam: Family,
    n: int,
    i: int,
    sid: int,
    rng: np.random.Generator,
) -> TrialRecord:
    kind_trial = KINDS[config.kind][0]
    return TrialRecord(trial=i, n=n, q=config.spec.q, seed=sid,
                       **kind_trial(config, fam, rng))


def _value_trial(config, fam, rng) -> dict:
    w = WeightAssignment.draw(config.spec, rng, fam.ground_size)
    return dict(value=fam.min_weight(w).value)


def _dual_trial(config, fam, rng) -> dict:
    w = WeightAssignment.draw(config.spec, rng, fam.ground_size)
    # r first: the budget search reads every distance already solved, and
    # the defect often lies next to r.
    near = (None if config.r is None
            else dual.cheapest_within_distance(fam, w, config.r).value)
    defect = dual.defect_under_budget(fam, w, config.budget).defect
    return dict(value=fam.min_weight(w).value, defect=defect, near_value=near)


def _patch_trial(config, fam, rng) -> dict:
    g = patching.sample_depleted_set(fam, config.spec, config.r, config.g_strategy, rng)
    w = WeightAssignment.draw(config.spec, rng, fam.ground_size)
    cost = patching.exact_patch(fam, g, w).value
    comp_cost = (patching.component_patch(fam, g, w).value
                 if config.family == "trees" and config.r > 0 else None)
    return dict(value=fam.min_weight(w).value, patch_cost=cost,
                component_cost=comp_cost)


def _split_trial(config, fam, rng) -> dict:
    spec = config.spec
    x, y, y_prime = weights.split_coupling_batch(spec, config.s, rng, fam.ground_size)
    # Rows of one fresh block that nothing else holds: the weight vectors
    # keep them uncopied.
    value = fam.min_weight(WeightAssignment.adopt(x)).value
    green = dual.cheapest_within_distance(fam, WeightAssignment.adopt(y), config.r)
    red = patching.exact_patch(fam, green.witness, WeightAssignment.adopt(y_prime))
    c_green, c_red = weights.split_constants(config.s, spec.q)
    bound = green.value * c_green + red.value * c_red
    # The envelope bound sums the per-element coupling bounds over the
    # completed witness; the chain value <= sum(x over member subset)
    # <= envelope holds exactly in floats, with no tolerance.  The union is
    # sorted and holds a member, so the canonical sum runs over all of it.
    union = np.unique(np.asarray(green.witness + red.witness, dtype=np.intp))
    per_element = np.minimum(y[union] * c_green, y_prime[union] * c_red)
    envelope = WeightAssignment(per_element).total(range(union.size))
    return dict(value=value, w_green=green.value, w_red=red.value, bound=bound,
                envelope_bound=envelope, slack=bound - value)


# kind -> (trial function, parameters it requires, parameters it may take); a
# trial returns its record's value and kind fields.
KINDS = {
    "value": (_value_trial, (), ("t_grid",)),
    "dual": (_dual_trial, ("budget",), ("r",)),
    "patch": (_patch_trial, ("r",), ("g_strategy",)),
    "split": (_split_trial, ("r", "s"), ()),
}
_KIND_PARAMETERS = {name for _, requires, takes in KINDS.values()
                    for name in requires + takes}


@dataclass(frozen=True)
class SummaryStats:
    """Order-independent summary; median is the midpoint 0.5-quantile."""

    count: int
    mean: float
    std: float
    se: float
    median: float
    quantiles: tuple[tuple[float, float], ...]


def summarize(values) -> SummaryStats:
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValueError("nothing to summarize")
    qs = np.quantile(arr, _QUANTILES, method="midpoint")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=std,
        se=std / math.sqrt(arr.size),
        median=float(qs[_QUANTILES.index(0.5)]),
        quantiles=tuple((p, float(v)) for p, v in zip(_QUANTILES, qs)),
    )


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    residual: float


def fit_exponent(points) -> ExponentFit:
    """Least-squares slope of log(statistic) against log(n)."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit an exponent")
    if any(n <= 0.0 or v <= 0.0 for n, v in pts):
        raise ValueError("exponent fit needs positive sizes and statistics")
    log_n = np.log([n for n, _ in pts])
    if np.unique(log_n).size < 2:
        raise ValueError("need at least 2 distinct sizes")
    log_v = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(log_n, log_v, 1)
    resid = float(np.sqrt(np.mean((intercept + slope * log_n - log_v) ** 2)))
    return ExponentFit(slope=float(slope), intercept=float(intercept), residual=resid)


@dataclass(frozen=True)
class SplitReport:
    """Per-trial sure bound value <= W_green/(1-s)^(1/q) + W_red/s^(1/q)."""

    records: list[TrialRecord]
    violations: int
    median_value: float
    median_green: float
    median_red: float
    best_split: float
    composite_bound: float
    composite_holds: bool


def split_experiment(
    config: ExperimentConfig, records: list[TrialRecord]
) -> SplitReport:
    """The report on `records`, the split config's trials (run(config))."""
    violations = sum(
        1
        for rec in records
        if rec.value > rec.bound or rec.value > rec.envelope_bound
    )
    median_value = summarize(r.value for r in records).median
    median_green = summarize(r.w_green for r in records).median
    median_red = summarize(r.w_red for r in records).median
    q = config.spec.q
    composite = bounds.concentration_upper_bound(median_green, median_red, q)
    if median_red == 0.0:
        best_split = 0.0
    elif median_green == 0.0:
        best_split = 1.0
    elif median_green >= median_red:
        best_split = bounds.split_cost_minimum(median_green, median_red, 1.0 / q).split
    else:
        best_split = 1.0 - bounds.split_cost_minimum(
            median_red, median_green, 1.0 / q
        ).split
    return SplitReport(
        records=records,
        violations=violations,
        median_value=median_value,
        median_green=median_green,
        median_red=median_red,
        best_split=best_split,
        composite_bound=composite,
        composite_holds=median_value <= composite,
    )


@dataclass(frozen=True)
class TailReport:
    """Survival of value/median-estimate against the 2^(1-t^q) bound."""

    records: list[TrialRecord]
    mu_hat: float
    t_grid: tuple[float, ...]
    survival: np.ndarray
    bound: np.ndarray
    std_error: np.ndarray
    within_bound: np.ndarray
    mean_value: float
    mean_bound: float
    mean_ok: bool


def tail_experiment(
    config: ExperimentConfig, records: list[TrialRecord]
) -> TailReport:
    """Calibrate the median on the first half of `records`, the value config's
    trials (run(config)), test tails on the second."""
    if not config.t_grid:
        raise ValueError("tail experiment needs t_grid")
    values = np.array([rec.value for rec in records])
    half = values.size // 2
    calibration, evaluation = values[:half], values[half:]
    mu_hat = summarize(calibration).median
    q = config.spec.q
    grid = config.t_grid
    survival = np.array([float((evaluation > t * mu_hat).mean()) for t in grid])
    bound = np.array([bounds.upper_tail_bound(t, q) for t in grid])
    std_error = np.sqrt(bound * (1.0 - bound) / evaluation.size)
    mean_value = summarize(evaluation).mean
    mean_bound = bounds.mean_to_median_ratio_bound(q) * mu_hat
    return TailReport(
        records=records,
        mu_hat=mu_hat,
        t_grid=grid,
        survival=survival,
        bound=bound,
        std_error=std_error,
        within_bound=survival <= bound + 3.0 * std_error,
        mean_value=mean_value,
        mean_bound=mean_bound,
        mean_ok=mean_value <= mean_bound,
    )


@dataclass(frozen=True)
class CouplingReport:
    """Soundness and distributional checks for coupled triples.

    violations counts failures of the sure inequality (always 0).  The KS
    p-values test each marginal against the analytic cdf and green vs red
    against each other; pearson/chi2 test green-red independence.
    """

    q: float
    base: str
    s: float
    trials: int
    violations: int
    ks_x_p: float
    ks_green_p: float
    ks_red_p: float
    ks_pair_p: float
    pearson_p: float
    chi2_p: float
    alpha: float
    marginals_ok: bool
    independence_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.violations == 0 and self.marginals_ok and self.independence_ok


def coupling_experiment(
    spec: WeightSpec,
    s: float,
    trials: int,
    master_seed: int = 7,
) -> CouplingReport:
    if trials < COUPLING_MIN_TRIALS:
        raise InvalidInput(
            f"coupling experiment needs at least {COUPLING_MIN_TRIALS} trials, "
            f"got {trials}"
        )
    rng = stream(master_seed, 501)
    x, y, y_prime = weights.split_coupling_batch(spec, s, rng, trials)
    if not all(np.isfinite(a).all() for a in (x, y, y_prime)):
        raise InvalidInput("weights must be finite")
    # independence on a 4x4 grid of empirical-quartile cells
    bins_y = np.searchsorted(np.quantile(y, (0.25, 0.5, 0.75)), y, side="right")
    bins_r = np.searchsorted(
        np.quantile(y_prime, (0.25, 0.5, 0.75)), y_prime, side="right"
    )
    table = np.bincount(4 * bins_y + bins_r, minlength=16).reshape(4, 4)
    if not (table.any(axis=0).all() and table.any(axis=1).all()):
        raise InvalidInput(
            f"coupling draws tie at q={spec.q}: {trials - np.unique(y).size} green "
            f"and {trials - np.unique(y_prime).size} red draws repeat another "
            "(they underflow to 0 or round to 1), so a quartile of the 4x4 "
            "independence table is empty"
        )
    from scipy import stats as scipy_stats  # only here: it slows every import

    violations = weights.coupling_violations(x, y, y_prime, s, spec.q)

    def law_cdf(v):
        return weights.cdf(spec, v)

    ks_x = float(scipy_stats.kstest(x, law_cdf).pvalue)
    ks_green = float(scipy_stats.kstest(y, law_cdf).pvalue)
    ks_red = float(scipy_stats.kstest(y_prime, law_cdf).pvalue)
    ks_pair = float(scipy_stats.ks_2samp(y, y_prime).pvalue)
    pearson_p = float(scipy_stats.pearsonr(y, y_prime).pvalue)
    chi2_p = float(scipy_stats.chi2_contingency(table).pvalue)
    return CouplingReport(
        q=spec.q,
        base=spec.base.value,
        s=float(s),
        trials=trials,
        violations=violations,
        ks_x_p=ks_x,
        ks_green_p=ks_green,
        ks_red_p=ks_red,
        ks_pair_p=ks_pair,
        pearson_p=pearson_p,
        chi2_p=chi2_p,
        alpha=_COUPLING_ALPHA,
        marginals_ok=min(ks_x, ks_green, ks_red, ks_pair) >= _COUPLING_ALPHA,
        independence_ok=min(pearson_p, chi2_p) >= _COUPLING_ALPHA,
    )
