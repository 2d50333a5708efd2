"""Age-optimal code parameters.

For a large pool, minimizing the average age is equivalent to minimizing
the mean service time, which yields closed-form optima for the repetition
fraction (min(1, shift*straggling)) and the MDS fraction (via the lower
branch of the Lambert W function, solved in log form).  The multi-message
problem has no closed form and is searched numerically over the first
level's log-gap.  All continuous optima are refined against the exact
integer-k age, since rounding the continuous solution can land one step off
the true argmin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .age import age_of
from .levels import chain_alphas, chain_alphas_at, level_counts, solve_levels
from .schemes import MDS, MultiMDS, Repetition, Scheme, SystemParams, service_moments

_BRANCH_POINT = -math.exp(-1.0)


@dataclass(frozen=True)
class OptResult:
    k_star: int
    alpha_star: float
    delta_star: float
    continuous_objective: float  # E[S] at the continuous optimum (large-pool formula)
    levels: Optional[tuple[int, ...]] = None


def lambert_w_m1(x: float) -> float:
    """Lower real branch of the Lambert W function: w <= -1 with w*exp(w) = x.

    Defined for x in [-1/e, 0); solved in log form (see _branch_excess), so
    the error is relative to x however close x is to 0.
    """
    if not _BRANCH_POINT <= x < 0.0:
        raise ValueError(f"lambert_w_m1 requires -1/e <= x < 0, got {x}")
    return -1.0 - _branch_excess(max(-math.log(-x) - 1.0, 0.0))


def _branch_excess(d: float) -> float:
    """The u >= 0 with u - log1p(u) = d, so that W_{-1}(-exp(-1 - d)) = -1 - u.

    This is w + log(-w) = -1 - d in u = -1 - w; it forms no exp(-d), so any
    d >= 0 works.  The left side is increasing and convex, and the start
    u0 - sqrt(u0) = d lies right of the root (log1p(u) <= sqrt(u)), so the
    Newton steps fall monotonically onto it; they stop when u stops falling.
    """
    u = (0.5 * (1.0 + math.sqrt(1.0 + 4.0 * d))) ** 2
    for _ in range(200):
        nxt = u - (u - math.log1p(u) - d) * (1.0 + u) / u
        if not 0.0 < nxt < u:
            break
        u = nxt
    return u


def refine_discrete(age_fn: Callable[[int], float], k_seed: int,
                    k_min: int, k_max: int, verify_full_sweep: bool = False) -> int:
    """Integer argmin by hill descent from k_seed; ties move toward smaller k.

    With verify_full_sweep=True the full range is also scanned and the two
    answers must agree (test mode).
    """
    if not k_min <= k_seed <= k_max:
        raise ValueError(f"need k_min <= k_seed <= k_max, got {k_min}, {k_seed}, {k_max}")
    cache: dict[int, float] = {}

    def f(k: int) -> float:
        if k not in cache:
            cache[k] = age_fn(k)
        return cache[k]

    k = k_seed
    if k > k_min and f(k - 1) <= f(k):
        while k > k_min and f(k - 1) <= f(k):
            k -= 1
    else:
        while k < k_max and f(k + 1) < f(k):
            k += 1

    if verify_full_sweep:
        sweep = min(range(k_min, k_max + 1), key=lambda j: (f(j), j))
        if sweep != k:
            raise AssertionError(
                f"hill descent found k={k} but full sweep found k={sweep}")
    return k


def _clamp(k: int, lo: int, hi: int) -> int:
    return min(max(k, lo), hi)


def opt_repetition(params: SystemParams, objective: str = "age") -> OptResult:
    """Optimal subpacket count for the repetition scheme.

    Continuous optimum: fraction min(1, shift*straggling); refined over all
    integers 1..n against the exact age (objective="age", default) or the
    mean service time (objective="service").
    """
    cm = params.mu_c
    alpha = 1.0 if cm >= 1.0 else cm
    n = params.nworkers
    seed = _clamp(round(alpha * n), 1, n)
    fn = _objective_fn(params, Repetition, objective)
    k_star = refine_discrete(fn, seed, 1, n)
    es_cont = params.shift / (alpha * n) + math.log(alpha * n) / (params.straggling * n)
    return OptResult(k_star, alpha, age_of(Repetition(k_star), params).delta, es_cont)


def opt_mds(params: SystemParams, objective: str = "age",
            full_sweep: bool = False) -> OptResult:
    """Optimal k for the MDS scheme.

    Continuous optimum: alpha = 1 + 1/W_{-1}(-exp(-mu*c - 1)) = u/(1 + u)
    with u - log1p(u) = mu*c, which holds at any mu*c; refined over
    integers 1..n-1 against the exact age (or mean service time).  Raises
    OverflowError when shift*straggling overflows a double.
    """
    cm = params.mu_c
    if math.isinf(cm):
        raise OverflowError(f"mds optimization: shift*straggling = {params.shift:g}*"
                            f"{params.straggling:g} overflows a double")
    alpha = 1.0 / (1.0 + 1.0 / _branch_excess(cm))
    n = params.nworkers
    if n < 2:
        raise ValueError("mds optimization needs at least 2 workers")
    seed = _clamp(round(alpha * n), 1, n - 1)
    fn = _objective_fn(params, MDS, objective)
    k_star = refine_discrete(fn, seed, 1, n - 1, verify_full_sweep=full_sweep)
    es_cont = params.shift / (alpha * n) - math.log1p(-alpha) / (params.straggling * alpha * n)
    return OptResult(k_star, alpha, age_of(MDS(k_star), params).delta, es_cont)


def opt_mm_mds(params: SystemParams, load: int, objective: str = "age",
               grid_points: int = 10_000) -> OptResult:
    """Optimal k for the multi-message MDS scheme with the given load.

    The constrained problem collapses to one dimension: the first level's
    log-gap beta = -log(1 - a1) fixes every level (levels.chain_alphas),
    hence the average fraction alpha(beta) and the (scaled) mean service time

        (shift + beta / straggling) / alpha(beta).

    Grid segment m sweeps level m's own fraction over grid_points values in
    (0, 1), which puts beta at (m - 1)*shift*straggling + m*b for the grid's
    log-gaps b; it keeps the points past the end of segment m - 1, where the
    earlier levels are full.  Segment 1 is a uniform grid over a1.  One
    chain_alphas call evaluates the grid, golden-section search over the
    best segment's fraction refines it to 1e-8, and the integer k is refined
    against the exact age.
    """
    if load < 1:
        raise ValueError(f"load must be >= 1, got {load}")
    mu_c = params.mu_c

    def alpha_of(beta: float) -> float:  # summed in numpy's order, as on the grid
        return float(np.sum(chain_alphas_at(beta, load, mu_c))) / load

    def cont(beta: float) -> float:
        alpha = alpha_of(beta)
        return params.shift / alpha + beta / (params.straggling * alpha)

    eps = 1e-9
    step = (1.0 - 2 * eps) / (grid_points - 1)
    fractions = eps + np.arange(grid_points) * step
    starts = np.zeros(load)
    starts[1:] = np.arange(1, load) * mu_c
    segments = starts[:, None] - np.arange(1, load + 1)[:, None] * np.log1p(-fractions)
    ends = np.concatenate(([-np.inf], segments[:-1, -1]))
    seg, idx = np.nonzero((segments > ends[:, None]) & np.isfinite(segments))
    beta = segments[seg, idx]
    alpha = chain_alphas(beta, load, mu_c).sum(axis=1) / load
    best = int(np.argmin(params.shift / alpha + beta / (params.straggling * alpha)))
    m, i = int(seg[best]), int(idx[best])

    def beta_of(x: float) -> float:  # segment m at fraction x of level m + 1
        return float(starts[m]) - (m + 1) * math.log1p(-x)

    lo, hi = float(fractions[max(i - 1, 0)]), float(fractions[min(i + 1, grid_points - 1)])
    beta1 = beta_of(_golden_section(lambda x: cont(beta_of(x)), lo, hi, tol=1e-8))
    alpha = alpha_of(beta1)
    n, kmax = params.nworkers, params.nworkers * load - 1
    seed = _clamp(round(alpha * n * load), 1, kmax)
    fn = _objective_fn(params, lambda k: MultiMDS(k, load), objective)
    k_star = refine_discrete(fn, seed, 1, kmax)
    split = solve_levels(load, k_star / (n * load), mu_c)
    counts = tuple(level_counts(split, n, k_star))
    return OptResult(k_star, alpha, age_of(MultiMDS(k_star, load), params).delta,
                     cont(beta1) / (n * load), levels=counts)


def _objective_fn(params: SystemParams, make: Callable[[int], Scheme],
                  objective: str) -> Callable[[int], float]:
    """k -> the age (or mean service time) of the scheme ``make(k)``."""
    if objective not in ("age", "service"):
        raise ValueError(f"objective must be 'age' or 'service', got {objective!r}")
    if objective == "age":
        return lambda k: age_of(make(k), params).delta
    return lambda k: service_moments(make(k), params).es


def _golden_section(fn: Callable[[float], float], lo: float, hi: float,
                    tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)
