"""Closed-form bounds for random min-weight set optimization.

All functions here are pure and stateless.  They cover:

- the split-cost minimum min_s a/(1-s)^p + b/s^p and its secant upper bound,
- the concentration upper bound combining a quantile level with a patch
  cost scale,
- the patch radius required for a target failure probability,
- a first-moment (union bound) lower bound for families with controlled
  set counts,
- the orthant volume bound on the probability that m weights sum below L,
- the upper tail bound 2^(1 - t^q) relative to the median, and the
  companion mean-to-median ratio bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import InvalidInput

__all__ = [
    "SplitCostMinimum",
    "FirstMomentBound",
    "split_cost",
    "split_cost_minimum",
    "concentration_upper_bound",
    "required_patch_radius",
    "first_moment_lower_bound",
    "cheap_set_prob_bound",
    "upper_tail_bound",
    "fluctuation_exponent_bound",
    "mean_to_median_ratio_bound",
]


def split_cost(a: float, b: float, p: float, s: float) -> float:
    """Evaluate f(s) = a/(1-s)^p + b/s^p for s in (0,1)."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s={s} outside (0,1)")
    return a / (1.0 - s) ** p + b / s ** p


@dataclass(frozen=True)
class SplitCostMinimum:
    """Minimizer of f(s) = a/(1-s)^p + b/s^p over s in (0,1).

    minimum is exact: ((a^(1/(p+1)) + b^(1/(p+1)))^(p+1).  secant_bound is
    the cruder a*(1 + (2^(p+1)-1)*(b/a)^(1/(p+1))), always >= minimum and
    tight as b/a -> 0 or 1.
    """

    split: float
    minimum: float
    secant_bound: float


def split_cost_minimum(a: float, b: float, p: float) -> SplitCostMinimum:
    """Unique minimum of a/(1-s)^p + b/s^p; requires a >= b > 0, p >= 0.

    Setting f'(s) = 0 gives (s/(1-s))^(p+1) = b/a, so the minimizer is
    s = v/(u+v) with u = a^(1/(p+1)), v = b^(1/(p+1)), where f collapses
    to (u+v)^(p+1).  For p = 0, f is constant a+b and the same formulas
    return split b/(a+b) by convention.
    """
    a = float(a)
    b = float(b)
    p = float(p)
    if not b > 0.0 or not a >= b:
        raise ValueError(f"need a >= b > 0, got a={a}, b={b}")
    if not (p >= 0.0 and math.isfinite(p)):
        raise ValueError(f"need p >= 0, got p={p}")
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    inv = 1.0 / (p + 1.0)
    u = a ** inv
    v = b ** inv
    split = v / (u + v)
    try:
        minimum = (u + v) ** (p + 1.0)
    except OverflowError:  # beyond double range
        minimum = math.inf
    try:
        secant = a * (1.0 + (2.0 ** (p + 1.0) - 1.0) * (b / a) ** inv)
    except OverflowError:  # 2^(p+1) is beyond double range, but with a tiny a
        # the bound may not be: it is a (b/a)^inv 2^(p+1) to its last bit.
        k = math.floor(p)
        try:
            secant = math.ldexp(a * (b / a) ** inv * 2.0 ** (p + 1.0 - k), k)
        except OverflowError:
            secant = math.inf
    return SplitCostMinimum(split=split, minimum=minimum, secant_bound=secant)


def concentration_upper_bound(level: float, patch_scale: float, q: float) -> float:
    """High-probability bound (level^(q/(q+1)) + patch_scale^(q/(q+1)))^((q+1)/q).

    level is a lower-quantile scale of the optimum, patch_scale the typical
    cost of re-completing a depleted near-optimal subset.  Delegates to
    split_cost_minimum with exponent 1/q, whose minimum equals this
    expression identically, so the two code paths agree bit for bit.
    """
    if not q > 0.0:
        raise ValueError(f"need q > 0, got q={q}")
    if not (level >= 0.0 and patch_scale >= 0.0):  # also rejects NaN
        raise ValueError("level and patch_scale must be non-negative")
    if patch_scale == 0.0:
        return float(level)
    if level == 0.0:
        return float(patch_scale)
    hi, lo = (level, patch_scale) if level >= patch_scale else (patch_scale, level)
    return split_cost_minimum(hi, lo, 1.0 / q).minimum


def required_patch_radius(ell: int, eps: float) -> float:
    """Patch radius sqrt(8 * ln(1/eps) * ell) needed at failure level eps."""
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0,1)")
    return math.sqrt(8.0 * math.log(1.0 / eps) * ell)


@dataclass(frozen=True)
class FirstMomentBound:
    """Union-bound certificate that the optimum is rarely below l_lower.

    Pr(optimum < l_lower) <= failure_prob_bound = exp(-ell0 * t).  The
    per-size arrays bound the expected number of sets of each size m with
    weight <= l_lower; log_markov_sum is the log of their total, which the
    geometric-series construction keeps below -ell0 * t.
    """

    l_lower: float
    failure_prob_bound: float
    c0: float
    c1: float
    small_sets_dominate: bool
    sizes: np.ndarray
    log_size_bounds: np.ndarray
    log_size_bounds_refined: np.ndarray
    log_markov_sum: float


def _solve_geometric_constant(q: float, ell0: int, t: float) -> float:
    """Largest c1 in (0,1) with c1^(q*ell0) / (1 - c1^q) <= exp(-t*ell0)."""
    target = -t * ell0

    def log_excess(c1: float) -> float:
        return q * ell0 * math.log(c1) - math.log1p(-c1 ** q) - target

    lo = 1e-300
    hi = 1.0 - 1e-12
    if log_excess(lo) > 0.0:
        raise ValueError(f"t={t} too large: no representable c1 satisfies the tail condition")
    if log_excess(hi) <= 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_excess(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _gamma_root(q: float) -> float:
    """Gamma(1+q)^(1/q).  Gamma(1+q) leaves the double range above q ~ 170,
    and only there is the root taken from lgamma: below, the log form would
    move the last bits of c0 (q = 2, c = 3: 3.3292017284021669 -> ...660)."""
    try:
        return math.gamma(1.0 + q) ** (1.0 / q)
    except OverflowError:
        return math.exp(math.lgamma(1.0 + q) / q)


def first_moment_lower_bound(
    q: float, ell0: int, ell1: int, beta: float, c: float, t: float
) -> FirstMomentBound:
    """Lower bound on the optimum when size-m set counts are <= c^m m^(beta*m).

    The expected number of sets of size m cheaper than L is at most
    (c0*L / m^(1-beta/q))^(q*m) with c0 = c^(1/q) * Gamma(1+q)^(1/q) * e/q
    (Stirling on the orthant-volume denominator).  Choosing
    L = c1/c0 * min(ell0, ell1 sides) makes each term <= c1^(q*m), and c1
    is sized so the geometric total stays below exp(-t*ell0).
    """
    if not q > 0.0:
        raise ValueError(f"need q > 0, got q={q}")
    ell0 = int(ell0)
    ell1 = int(ell1)
    if not 1 <= ell0 <= ell1:
        raise ValueError(f"need 1 <= ell0 <= ell1, got {ell0}, {ell1}")
    if not beta > 0.0:
        raise ValueError(f"need beta > 0, got {beta}")
    if not c > 0.0:
        raise ValueError(f"need c > 0, got {c}")
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t}")
    from scipy.special import gammaln, logsumexp  # only here: slow to import

    try:
        c0 = c ** (1.0 / q) * _gamma_root(q) * math.e / q
    except OverflowError:
        c0 = math.inf
    if not 0.0 < c0 < math.inf:
        raise InvalidInput(f"c0 = c^(1/q) Gamma(1+q)^(1/q) e/q overflows or "
                           f"underflows at c={c}, q={q}")
    c1 = _solve_geometric_constant(q, ell0, t)
    expo = 1.0 - beta / q
    scale = min(ell0 ** expo, ell1 ** expo)
    l_lower = c1 / c0 * scale
    sizes = np.arange(ell0, ell1 + 1)
    m = sizes.astype(float)
    log_l = math.log(l_lower)
    log_size_bounds = q * m * (math.log(c0) + log_l - expo * np.log(m))
    # exact per-size form: c^m m^(beta m) * Gamma(1+q)^m / Gamma(1+q m) * L^(q m)
    log_refined = (
        m * math.log(c)
        + beta * m * np.log(m)
        + m * gammaln(1.0 + q)
        - gammaln(1.0 + q * m)
        + q * m * log_l
    )
    return FirstMomentBound(
        l_lower=l_lower,
        failure_prob_bound=math.exp(-ell0 * t),
        c0=c0,
        c1=c1,
        small_sets_dominate=beta < q,
        sizes=sizes,
        log_size_bounds=log_size_bounds,
        log_size_bounds_refined=log_refined,
        log_markov_sum=float(logsumexp(log_refined)),
    )


def cheap_set_prob_bound(q: float, m: int, L: float) -> float:
    """Bound Pr(sum of m independent base weights <= L) via orthant volume.

    Equals min(1, Gamma(1+q)^m / Gamma(1+q*m) * L^(q*m)).  Uses the direct
    Gamma ratio when every factor fits in double range (making the q=1
    simplex volumes 1/m! exact), otherwise evaluates in log space.
    """
    if not q > 0.0:
        raise ValueError(f"need q > 0, got q={q}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if not L >= 0.0:  # also rejects NaN
        raise ValueError(f"need L >= 0, got {L}")
    if L == 0.0:
        return 0.0
    log_num = m * math.lgamma(1.0 + q)
    log_pow = q * m * math.log(L)
    log_val = log_num - math.lgamma(1.0 + q * m) + log_pow
    if log_val >= 0.0:
        return 1.0
    if 1.0 + q * m <= 170.0 and abs(log_num) < 700.0 and abs(log_pow) < 700.0:
        val = math.gamma(1.0 + q) ** m / math.gamma(1.0 + q * m) * L ** (q * m)
        return min(1.0, val)
    return math.exp(log_val)


def upper_tail_bound(t: float, q: float) -> float:
    """Bound Pr(optimum > t * median) <= min(1, 2^(1 - t^q))."""
    if not t >= 0.0:  # also rejects NaN
        raise ValueError(f"need t >= 0, got {t}")
    if not q > 0.0:
        raise ValueError(f"need q > 0, got q={q}")
    try:
        exponent = 1.0 - t ** q
    except OverflowError:  # t^q beyond double range: 2^(1 - t^q) is 0
        return 0.0
    if exponent >= 0.0:
        return 1.0
    return 2.0 ** exponent


def fluctuation_exponent_bound(q: float) -> float:
    """Exponent -q/(2(q+1)): relative fluctuations decay at least this fast.

    A fitted log-log slope of the optimum's spread against n should lie at
    or below this value (up to fit noise).
    """
    if not q > 0.0:
        raise ValueError(f"need q > 0, got q={q}")
    return -q / (2.0 * (q + 1.0))


def mean_to_median_ratio_bound(q: float) -> float:
    """Bound mean(optimum) <= C(q) * median with C(q) = 2 ln(2)^(-1/q) Gamma(1+1/q).

    Integrates the upper tail bound: int_0^inf 2^(1-(x/mu)^q) dx.  C(q)
    decreases to 2 as q grows.
    """
    if not q > 0.0:
        raise ValueError(f"need q > 0, got q={q}")
    try:
        return 2.0 * math.log(2.0) ** (-1.0 / q) * math.gamma(1.0 + 1.0 / q)
    except OverflowError:  # beyond double range
        return math.inf
