"""Shifted exponential distributions and their order statistics.

The completion time of a worker computing a 1/m share of a task follows a
shifted exponential: dividing a ``ShiftedExp(shift, rate)`` workload into m
equal pieces speeds each piece up to ``ShiftedExp(shift/m, m*rate)``.  The
time until the k-th fastest of n such workers finishes is an order
statistic whose mean and variance are sums of 1/j and 1/j^2 over
j = n-k+1..n.  These take O(1) time and memory at any n, within a few 1e-16
relative error: the Euler-Maclaurin expansions of the digamma and trigamma
functions (Abramowitz & Stegun 6.3.18, 6.4.12) give all but the first terms.
Those, j <= _DIRECT, enter as the exact two-double sum of their reciprocals,
and fsum rounds the whole correctly (Shewchuk 1997), so a sum is the double
that fsum over every direct term and the tail gives.  A sum is kept per
(order, n, m) in a bounded LRU once its arguments are checked.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .levels import require_int

# Terms 1/j**order with j <= _DIRECT are summed directly; above it the
# expansion's first omitted term is below 1e-17 of the sum.
_DIRECT = 32
_RECIPROCALS = {p: tuple(1 / j**p for j in range(1, _DIRECT + 1)) for p in (1, 2)}
# psi(x+1) = log(x) + 1/(2x) - sum_i B_2i/(2i x**2i) and psi'(x+1) = 1/x -
# 1/(2x**2) + sum_i B_2i/x**(2i+1): the coefficients of the sums over the
# Bernoulli numbers B_2..B_10, highest power first, for Horner's rule.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)
_SERIES = {1: [b / (2 * i) for i, b in enumerate(_BERNOULLI, 1)][::-1], 2: _BERNOULLI[::-1]}


def _tail(n: int, m: int, order: int) -> float:
    """Sum of 1/j**order over m < j <= n, for n > m >= _DIRECT.

    This is psi(n + 1) - psi(m + 1) for order 1 and psi'(m + 1) - psi'(n + 1)
    for order 2.  Their leading terms enter as correctly rounded ratios of
    integers, log(n/m) as log1p((n - m)/m), so nothing cancels; the Bernoulli
    sums are below 1/(12 m) of the result, so their rounding is negligible.
    """
    d, nm, um, un = n - m, n * m, 1 / m, 1 / n
    sm = sn = 0.0
    for coef in _SERIES[order]:
        sm, sn = sm * um * um + coef, sn * un * un + coef
    series = sm * um ** (order + 1) - sn * un ** (order + 1)
    if order == 1:
        return math.log1p(d / m) - d / (2 * nm) + series
    return d / nm - d * (n + m) / (2 * nm * nm) + series


def _power_sum(name: str, order: int, n: int, m: int) -> float:
    if type(n) is not int or type(m) is not int:  # the common case skips two calls
        require_int("n", n)
        require_int("m", m)
        n, m = int(n), int(m)
    if not 0 <= m <= n:
        raise ValueError(f"{name} requires 0 <= m <= n, got n={n}, m={m}")
    return _checked_sum(order, n, m)


# An age and a sweep row ask for the same sums again: fig4b repeats fig4a's
# (n, m), since mu enters only through the rate.  An entry is one float.
@functools.lru_cache(maxsize=1024)
def _checked_sum(order: int, n: int, m: int) -> float:
    """_power_sum on checked integers: the direct part j = m+1..min(n, _DIRECT)
    as its exact two-double value hi + lo, then the tail.  fsum rounds the
    exact sum of its inputs correctly, so this is the double that fsum over
    the direct terms and the tail gives."""
    hi, lo = _direct(order, min(m, _DIRECT), min(n, _DIRECT))
    if n <= max(m, _DIRECT):
        return hi
    return math.fsum((hi, lo, _tail(n, max(m, _DIRECT), order)))


@functools.cache
def _direct(order: int, m: int, top: int) -> tuple[float, float]:
    """(hi, lo) with hi = fsum of 1/j**order over m < j <= top and hi + lo
    that sum exactly (0.0, 0.0 when empty).  Each term is a multiple of the
    last term's ulp, so their exact sum minus hi is too; that remainder is
    at most half an ulp of hi, and hi is below 2**11 times the last term,
    so it fits in a double and fsum returns it exactly.  At most
    2 (_DIRECT + 1)**2 entries."""
    terms = _RECIPROCALS[order][m:top]
    hi = math.fsum(terms)
    return hi, math.fsum(terms + (-hi,))


def harmonic(n: int, m: int = 0) -> float:
    """Return the sum of 1/j for j = m+1..n, the harmonic number H_n - H_m.

    0 for n = m; H_n for the default m = 0.  O(1) time and memory at any n.
    """
    return _power_sum("harmonic", 1, n, m)


def gen_harmonic2(n: int, m: int = 0) -> float:
    """Return the sum of 1/j^2 for j = m+1..n (order-2 harmonic numbers).

    Nondecreasing in n and bounded above by pi^2/6.
    """
    return _power_sum("gen_harmonic2", 2, n, m)


@dataclass(frozen=True)
class ShiftedExp:
    """Shifted exponential distribution: shift + Exp(rate)."""

    shift: float
    rate: float

    def __post_init__(self) -> None:
        # "not >=" refuses NaN too; an infinite rate is allowed
        if not self.shift >= 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def split(self, m: int) -> "ShiftedExp":
        """Distribution of one of m equal pieces of this workload."""
        if m < 1:
            raise ValueError(f"cannot split into {m} pieces")
        return ShiftedExp(self.shift / m, self.rate * m)


def _check_order(n: int, k: int) -> tuple[int, int]:
    """n and k as Python ints, so that n - k is exact for numpy integers too."""
    if type(n) is not int or type(k) is not int:
        require_int("n", n)
        require_int("k", k)
        n, k = int(n), int(k)
    if not 1 <= k <= n:
        raise ValueError(f"order statistic requires 1 <= k <= n, got k={k}, n={n}")
    return n, k


def os_mean(d: ShiftedExp, n: int, k: int) -> float:
    """Mean of the k-th smallest of n i.i.d. draws from d."""
    n, k = _check_order(n, k)
    return d.shift + harmonic(n, n - k) / d.rate


def os_var(d: ShiftedExp, n: int, k: int) -> float:
    """Variance of the k-th smallest of n i.i.d. draws from d (shift drops out)."""
    n, k = _check_order(n, k)
    return gen_harmonic2(n, n - k) / d.rate / d.rate


def _log1m(u: np.ndarray) -> np.ndarray:
    """log1p(-u) of standard uniforms u, in place: minus standard exponentials,
    the exponential inverse CDF at unit rate.  u lies below 1, so none is
    infinite."""
    return np.log1p(np.negative(u, out=u), out=u)


def sample_batch(d: ShiftedExp, rng: np.random.Generator,
                 size: "int | tuple[int, ...]") -> np.ndarray:
    """Draw ``size`` values from d: the inverse CDF shift - log1p(-u)/rate of
    standard uniforms u (see ``_log1m``), in place."""
    u = _log1m(rng.random(size))
    u /= -d.rate
    if d.shift:
        u += d.shift
    return u
