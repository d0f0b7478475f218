"""Weight laws and sure-inequality couplings.

A :class:`WeightSpec` describes a non-negative weight whose q-th power is
either Uniform(0, 1) or Exponential(1).  Both laws satisfy a splitting
property: a draw X can be coupled to two independent copies (Y, Y') of itself
so that

    X <= min(Y / (1 - s)^(1/q), Y' / s^(1/q))    surely, for any s in (0, 1).

The construction works in q-power space.  Let V = Y^q and V' = Y'^q, and set
W = min(V / (1 - s), V' / s).  For the exponential base, W is again
Exponential(1) (min-stability), so X = W^(1/q) directly.  For the uniform
base, X^q = F_W(W) where

    F_W(w) = 1 - max(0, 1 - (1 - s) w) * max(0, 1 - s w),

the exact CDF of W; the probability-integral transform restores the uniform
marginal, and F_W(w) <= w gives the sure inequality.  On the interior the
product expands to w - s(1-s)w^2, which is the numerically stable form.

Iterating the split k - 1 times with the equal schedule s_i = 1/k couples one
draw to k independent copies with X <= k^(1/q) * min_i Y_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "InvalidInput",
    "BaseLaw",
    "WeightSpec",
    "sample",
    "cdf",
    "quantile",
    "split_coupling_batch",
    "iterated_coupling_batch",
    "coupling_violations",
]


class InvalidInput(ValueError):
    """An argument outside its allowed range: the caller's input, not a bug."""


class BaseLaw(Enum):
    """Law of the q-th power of a weight."""

    UNIFORM_POWER = "uniform"
    EXPONENTIAL_POWER = "exponential"


@dataclass(frozen=True)
class WeightSpec:
    """Weight distribution: the q-th power of a draw follows `base`.

    q > 0.  Uniform base gives samples in (0, 1]; exponential base in (0, inf).
    """

    q: float
    base: BaseLaw = BaseLaw.UNIFORM_POWER

    def __post_init__(self) -> None:
        if not (self.q > 0 and np.isfinite(self.q)):
            raise ValueError(f"q must be a positive finite number, got {self.q}")
        if not isinstance(self.base, BaseLaw):
            raise ValueError(f"base must be a BaseLaw, got {self.base!r}")


def split_constants(s: float, q: float) -> tuple[float, float]:
    """((1 - s)^(-1/q), s^(-1/q)); InvalidInput if s is not in (0, 1) or they overflow."""
    s = float(s)
    if not 0.0 < s < 1.0:
        raise InvalidInput(f"split fraction s must lie in (0, 1), got {s}")
    inv_q = 1.0 / q
    try:
        return (1.0 - s) ** (-inv_q), s ** (-inv_q)
    except OverflowError:
        raise InvalidInput(f"split constants overflow at s={s}, q={q}") from None


def _power_in_place(values: np.ndarray, expo: float) -> np.ndarray:
    """`values ** expo` written over `values` (the same numpy fast paths).

    An overflow leaves inf, which WeightAssignment rejects with its own error.
    """
    if expo != 1.0:
        with np.errstate(over="ignore"):
            values **= expo
    return values


def _base_draw(spec: WeightSpec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` with draws of the base law (the law of a weight's q-th power)."""
    if spec.base is BaseLaw.UNIFORM_POWER:
        # 1 - U keeps draws inside (0, 1]; rng.random() can return 0.0.
        return np.subtract(1.0, rng.random(out=out), out=out)
    return rng.standard_exponential(out=out)


def sample(spec: WeightSpec, rng: np.random.Generator, size) -> np.ndarray:
    """Draw `size` weights from `spec` into one fresh array: `_base_draw`
    fills it and `_power_in_place` raises it to 1/q, so no second array is made."""
    return _power_in_place(_base_draw(spec, rng, np.empty(size)), 1.0 / spec.q)


def cdf(spec: WeightSpec, x):
    """Distribution function of the weight law, vectorized over x."""
    arr = np.asarray(x, dtype=float)
    xq = np.where(arr > 0, arr, 0.0) ** spec.q
    if spec.base is BaseLaw.UNIFORM_POWER:
        out = np.clip(xq, 0.0, 1.0)
    else:
        out = -np.expm1(-xq)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def quantile(spec: WeightSpec, p):
    """Inverse of :func:`cdf` on [0, 1]."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError("quantile argument must lie in [0, 1]")
    if spec.base is BaseLaw.UNIFORM_POWER:
        out = arr ** (1.0 / spec.q)
    else:
        with np.errstate(divide="ignore"):
            out = (-np.log1p(-arr)) ** (1.0 / spec.q)
    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out


def _couple_base(
    g: np.ndarray, r: np.ndarray, s: float, base: BaseLaw, out=None
) -> np.ndarray:
    """Couple in q-power space: given independent base draws (g, r), return a
    base-law draw wx with wx <= min(g / (1-s), r / s) surely, written into
    `out` (a fresh array when None); g and r are left as they are."""
    w = np.divide(g, 1.0 - s, out=out)
    np.minimum(w, r / s, out=w)
    if base is BaseLaw.EXPONENTIAL_POWER:
        return w
    exterior = w * max(s, 1.0 - s) >= 1.0
    # w - s (1 - s) w^2 in place, in the float steps of w - s * (1 - s) * w * w.
    quad = (s * (1.0 - s)) * w
    quad *= w
    np.subtract(w, quad, out=w)
    w[exterior] = 1.0
    return w


def split_coupling_batch(
    spec: WeightSpec, s: float, rng: np.random.Generator, size: int
):
    """Vectorized coupling: arrays (x, y, y_prime) of length `size`.

    y and y_prime are i.i.d. `spec` draws, x is a `spec` draw, and
    x <= min(y/(1-s)^(1/q), y_prime/s^(1/q)) holds elementwise with exact
    float comparison (the bound itself is the clamp).

    x, y and y_prime are the three rows of one C-contiguous (3, size)
    block, so a call makes one large allocation, not three.  `_base_draw`,
    the one draw routine `sample` also uses, fills rows 1 and 2 with the
    green and red base draws (so y, y_prime read as
    `sample(spec, rng, 2 * size).reshape(2, size)`), and every later step
    writes over a row or into one temporary, so the block, one weight-sized
    temporary and a boolean mask are the most alive at once.  x is
    min(F, y c_green) and then min(x, y' c_red), where F is the coupled draw
    (uniform base only); min is associative, so no separate bound array is
    needed.
    """
    c_green, c_red = split_constants(s, spec.q)
    block = np.empty((3, size))
    x, y, y_prime = block
    draws = _base_draw(spec, rng, block[1:])
    inv_q = 1.0 / spec.q
    if spec.base is BaseLaw.UNIFORM_POWER:  # F reads rows 1-2 before they are raised
        _power_in_place(_couple_base(y, y_prime, s, spec.base, out=x), inv_q)
    _power_in_place(draws, inv_q)
    with np.errstate(over="ignore"):  # as in `sample`
        if spec.base is BaseLaw.UNIFORM_POWER:
            np.minimum(x, y * c_green, out=x)
        else:
            np.multiply(y, c_green, out=x)
        np.minimum(x, y_prime * c_red, out=x)
    return x, y, y_prime


def iterated_coupling_batch(
    spec: WeightSpec, k: int, rng: np.random.Generator, size: int
):
    """Vectorized iterated split with the equal schedule s_i = 1/k.

    Returns (x, copies) with copies of shape (k, size); elementwise
    x <= k^(1/q) * copies.min(axis=0) holds with exact float comparison.

    Built by k - 1 nested couplings: at stage j the split fraction is the
    remaining-mass share 1/(k - j + 1), so copy j ends up with overall mass
    1/k.  The copies are the `_base_draw` block raised in place, so they read
    as `sample(spec, rng, k * size).reshape(k, size)`.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    inv_q = 1.0 / spec.q
    try:
        scale = k ** inv_q
    except OverflowError:
        raise InvalidInput(f"coupling constant k^(1/q) overflows at k={k}, "
                           f"q={spec.q}") from None
    copies = _base_draw(spec, rng, np.empty((k, size)))
    x = copies[k - 1]
    for j in range(k - 1, 0, -1):
        # Stage j couples the running green draw to copy j-1 (0-based).
        x = _couple_base(x, copies[j - 1], 1.0 / (k - j + 1), spec.base)
    _power_in_place(copies, inv_q)
    if k == 1:  # x is copy 0, raised with the block
        return x, copies
    _power_in_place(x, inv_q)
    with np.errstate(over="ignore"):  # as in `_power_in_place`
        np.minimum(x, scale * copies.min(axis=0), out=x)
    return x, copies


def coupling_violations(x, y, y_prime, s: float, q: float) -> int:
    """Count elementwise failures of the sure inequality (exact comparison)."""
    c_green, c_red = split_constants(s, q)
    bound = np.minimum(np.asarray(y) * c_green, np.asarray(y_prime) * c_red)
    return int(np.count_nonzero(~(np.asarray(x) <= bound)))
