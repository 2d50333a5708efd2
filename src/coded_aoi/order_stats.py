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

# Prefix tables for the (generalized) harmonic sums, grown on demand: row 0
# holds H_n = sum 1/j, row 1 holds sum 1/j^2.  np.cumsum adds strictly left
# to right, so every entry is the float a sequential loop gives and values
# never depend on the sizes the table grew through.  The table is replaced,
# never written in place, so readers need no lock.
_lock = threading.Lock()
_tables = np.zeros((2, 1))


def _prefix(row: int, n: int) -> float:
    tables = _tables
    if n >= tables.shape[1]:
        tables = _extend(n)
    return float(tables[row, n])


def _extend(n: int) -> np.ndarray:
    global _tables
    with _lock:
        old = _tables
        size = old.shape[1]
        if n < size:
            return old
        top = max(n + 1, 2 * size)
        j = np.arange(size, top, dtype=float)
        new = np.empty((2, top))
        new[:, :size] = old
        new[0, size:] = 1.0 / j
        new[1, size:] = 1.0 / (j * j)
        np.cumsum(new[:, size - 1:], axis=1, out=new[:, size - 1:])
        _tables = new
        return new


def harmonic(n: int) -> float:
    """Return the n-th harmonic number, sum of 1/j for j = 1..n (0 for n = 0)."""
    if n < 0:
        raise ValueError(f"harmonic requires n >= 0, got {n}")
    return _prefix(0, n)


def gen_harmonic2(n: int) -> float:
    """Return the generalized harmonic number of order 2, sum of 1/j^2 for j = 1..n.

    Nondecreasing in n and bounded above by pi^2/6.
    """
    if n < 0:
        raise ValueError(f"gen_harmonic2 requires n >= 0, got {n}")
    return _prefix(1, n)


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
