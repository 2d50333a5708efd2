"""Age-optimal code parameters.

For a large pool, minimizing the average age is equivalent to minimizing
the mean service time, which yields closed-form optima for the repetition
fraction (min(1, shift*straggling)) and the MDS fraction (via the lower
branch of the Lambert W function).  The multi-message problem has no closed
form and is searched numerically over the first-level fraction.  All
continuous optima are refined against the exact integer-k age, since
rounding the continuous solution can land one step off the true argmin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .age import age_of
from .levels import chain_alphas, level_counts, solve_levels
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

    Defined for x in [-1/e, 0).  Halley steps safeguarded by a maintained
    bracket; any step leaving the bracket falls back to bisection, so the
    residual |w*exp(w) - x| is driven below 1e-13 (or to the floating-point
    floor near the branch point).
    """
    if not _BRANCH_POINT <= x < 0.0:
        raise ValueError(f"lambert_w_m1 requires -1/e <= x < 0, got {x}")

    # g(w) = w*exp(w) - x is decreasing on (-inf, -1]: positive far left,
    # nonpositive at -1.
    hi = -1.0
    lo = -2.0
    while lo * math.exp(lo) - x < 0.0:
        lo *= 2.0

    if x > -0.1:
        w = math.log(-x) - math.log(-math.log(-x))
    else:
        p = math.sqrt(max(0.0, 2.0 * (1.0 + math.e * x)))
        w = -1.0 - p - p * p / 3.0
    w = min(max(w, lo), hi)

    for _ in range(200):
        ew = math.exp(w)
        g = w * ew - x
        if abs(g) < 1e-13:
            break
        if g > 0.0:
            lo = w
        else:
            hi = w
        if hi - lo <= 0.0 or math.nextafter(lo, hi) >= hi:
            break
        gp = ew * (w + 1.0)
        gpp = ew * (w + 2.0)
        denom = gp - g * gpp / (2.0 * gp) if gp != 0.0 else 0.0
        step_ok = denom != 0.0 and math.isfinite(denom)
        w_new = w - g / denom if step_ok else 0.5 * (lo + hi)
        if not (lo < w_new < hi):
            w_new = 0.5 * (lo + hi)
        if w_new == w:
            break
        w = w_new
    return w


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
    cm = params.shift * params.straggling
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

    Continuous optimum: alpha = 1 + 1/W_{-1}(-exp(-mu*c - 1)); refined over
    integers 1..n-1 against the exact age (or mean service time).
    """
    cm = params.shift * params.straggling
    alpha = 1.0 + 1.0 / lambert_w_m1(-math.exp(-cm - 1.0))
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

    The constrained problem collapses to one dimension: a first-level
    fraction a1 determines the remaining levels through the chain recursion
    and hence the average fraction alpha and the (scaled) mean service time

        shift/alpha - log(1 - a1) / (straggling * alpha).

    A coarse grid locates the basin, golden-section search refines it to
    1e-6 in alpha, and the integer k is refined against the exact age.
    """
    if load < 1:
        raise ValueError(f"load must be >= 1, got {load}")
    mu_c = params.shift * params.straggling

    def alpha_of(a1: float) -> float:
        return float(chain_alphas(a1, load, mu_c).sum()) / load

    def cont(a1: float) -> float:
        alpha = alpha_of(a1)
        return params.shift / alpha - math.log1p(-a1) / (params.straggling * alpha)

    eps = 1e-9
    step = (1.0 - 2 * eps) / (grid_points - 1)
    best_i, best_v = 0, math.inf
    for i in range(grid_points):
        v = cont(eps + i * step)
        if v < best_v:
            best_i, best_v = i, v
    lo = eps + max(best_i - 1, 0) * step
    hi = eps + min(best_i + 1, grid_points - 1) * step
    a1 = _golden_section(cont, lo, hi, tol=1e-8)

    alpha = alpha_of(a1)
    n, kmax = params.nworkers, params.nworkers * load - 1
    seed = _clamp(round(alpha * n * load), 1, kmax)
    fn = _objective_fn(params, lambda k: MultiMDS(k, load), objective)
    k_star = refine_discrete(fn, seed, 1, kmax)
    split = solve_levels(load, k_star / (n * load), mu_c)
    counts = tuple(level_counts(split, n, k_star))
    return OptResult(k_star, alpha, age_of(MultiMDS(k_star, load), params).delta,
                     cont(a1) / (n * load), levels=counts)


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
