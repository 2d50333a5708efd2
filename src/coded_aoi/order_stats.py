"""Shifted exponential distributions and their order statistics.

The completion time of a worker computing a 1/m share of a task follows a
shifted exponential: dividing a ``ShiftedExp(shift, rate)`` workload into m
equal pieces speeds each piece up to ``ShiftedExp(shift/m, m*rate)``.  The
time until the k-th fastest of n such workers finishes is an order
statistic whose mean and variance have closed forms in terms of harmonic
numbers, computed here exactly (direct summation, memoized).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

PI2_OVER_6 = math.pi**2 / 6

# Prefix tables for the (generalized) harmonic sums, grown on demand.
# Extension is a plain sequential loop so values never depend on the chunk
# sizes a caller happened to request.
_lock = threading.Lock()
_h1 = [0.0]
_h2 = [0.0]


def _extend(n: int) -> None:
    with _lock:
        for j in range(len(_h1), n + 1):
            _h1.append(_h1[-1] + 1.0 / j)
            _h2.append(_h2[-1] + 1.0 / (j * j))


def harmonic(n: int) -> float:
    """Return the n-th harmonic number, sum of 1/j for j = 1..n (0 for n = 0)."""
    if n < 0:
        raise ValueError(f"harmonic requires n >= 0, got {n}")
    if n >= len(_h1):
        _extend(n)
    return _h1[n]


def gen_harmonic2(n: int) -> float:
    """Return the generalized harmonic number of order 2, sum of 1/j^2 for j = 1..n.

    Nondecreasing in n and bounded above by pi^2/6.
    """
    if n < 0:
        raise ValueError(f"gen_harmonic2 requires n >= 0, got {n}")
    if n >= len(_h2):
        _extend(n)
    return _h2[n]


@dataclass(frozen=True)
class ShiftedExp:
    """Shifted exponential distribution: shift + Exp(rate)."""

    shift: float
    rate: float

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def split(self, m: int) -> "ShiftedExp":
        """Distribution of one of m equal pieces of this workload."""
        if m < 1:
            raise ValueError(f"cannot split into {m} pieces")
        return ShiftedExp(self.shift / m, self.rate * m)

    def quantile(self, u: "float | np.ndarray") -> "float | np.ndarray":
        """Inverse CDF at u in [0, 1): shift - log(1 - u)/rate.

        Nondecreasing in u, so an order statistic of draws can be selected
        on the uniforms and transformed once; the log argument is never zero.
        """
        return self.shift - np.log1p(-u) / self.rate


def _check_order(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"order statistic requires 1 <= k <= n, got k={k}, n={n}")


def os_mean(d: ShiftedExp, n: int, k: int) -> float:
    """Mean of the k-th smallest of n i.i.d. draws from d."""
    _check_order(n, k)
    return d.shift + (harmonic(n) - harmonic(n - k)) / d.rate


def os_var(d: ShiftedExp, n: int, k: int) -> float:
    """Variance of the k-th smallest of n i.i.d. draws from d (shift drops out)."""
    _check_order(n, k)
    return (gen_harmonic2(n) - gen_harmonic2(n - k)) / d.rate**2


def os_second_moment(d: ShiftedExp, n: int, k: int) -> float:
    """Second moment of the k-th smallest of n i.i.d. draws from d."""
    m = os_mean(d, n, k)
    return m * m + os_var(d, n, k)


def sample_batch(d: ShiftedExp, rng: np.random.Generator,
                 size: "int | tuple[int, ...]") -> np.ndarray:
    """Draw ``size`` i.i.d. values from d by inverse CDF (see ShiftedExp.quantile)."""
    return d.quantile(rng.random(size))


def sample(d: ShiftedExp, rng: np.random.Generator) -> float:
    """Draw one value from d."""
    return float(sample_batch(d, rng, 1)[0])


def sample_kth_of_n(d: ShiftedExp, n: int, k: int, rng: np.random.Generator) -> float:
    """Draw n i.i.d. values from d and return the k-th smallest.

    Uses introselect on the uniforms, expected O(n), then transforms only the
    selected one; the inverse CDF is monotone, so this is the k-th smallest
    draw.  Ties have probability zero and are broken arbitrarily.
    """
    _check_order(n, k)
    u = rng.random(n)
    u.partition(k - 1)
    return float(d.quantile(u[k - 1]))
