"""Level splits for multi-message task queues.

When every worker queues ``load`` coded subtasks and computes them back to
back with identical per-subtask duration, the subtasks finished at queue
position m ("level" m) by the time k results are in number k_m = alpha_m * n.
For a large worker pool the active levels finish their last counted subtask
at the same instant, which pins the fractions down to a chain of equalities

    (1 - alpha_m)^m = exp(mu_c) * (1 - alpha_{m-1})^(m-1),   m = 2..load,

together with the total-work constraint sum(alpha_m) = load * alpha.  In the
log-gaps beta_m = -log(1 - alpha_m) the chain is linear, m * beta_m =
beta_1 - (m - 1) * mu_c, so each level follows from the first in closed form,

    alpha_m = -expm1(-(beta_1 - (m - 1) * mu_c) / m)   if beta_1 > (m - 1) * mu_c,

and 0 otherwise: empty levels trail, and exp(mu_c) is never formed.  The
level sum rises from 0 to load as beta_1 grows, so every total below load
has a split, also where 1 - alpha_1 is below double resolution.  Multi-
message optima can therefore sit at k = n*load - 1, where the large-pool
model is least accurate (the README's paragraph on ``optimize --family
mm-mds`` sets the analytic age at MultiMDS(399, 4), n=100, c=1, mu=2
against seeded simulations).
"""
from __future__ import annotations

import functools
import math
import numbers
from typing import Callable, Optional

CHAIN_TOL = 1e-10
MAX_ITER = 100  # newton_root's evaluation cap


class Infeasible(Exception):
    """(ell - 1) * mu_c is not finite, so no level past the first can fill,
    and the total ell * alpha >= 1 needs one."""


class NoConvergence(Exception):
    """No double beta_1 brings the level sum within CHAIN_TOL of its target;
    only when (ell - 1) * mu_c is above about 4e6."""


class InconsistentK(ValueError):
    """After the first count, no largest remainder of the level fractions sums to k."""


def require_int(name: str, value) -> None:
    """Raise ValueError unless value is an integer (numpy integers too).

    bool is an Integral, but True as a worker count or a load is a caller's
    mistake, not a 1.
    """
    if type(value) is int:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def chain_alphas(beta1: float, load: int, mu_c: float) -> list[float]:
    """Level fractions for the first level's log-gap beta1.

    The offset of the first level is 0, never 0 * mu_c, so mu_c = inf
    empties levels 2 on.
    """
    out = [0.0] * load
    for m in range(1, load + 1):
        excess = beta1 - (m - 1) * mu_c if m > 1 else beta1
        if not excess > 0.0:
            break
        out[m - 1] = -math.expm1(-excess / m)
    return out


def newton_root(fn: Callable[[float], tuple[float, float]], lo: float,
                hi: float) -> tuple[float, float]:
    """Root in [lo, hi] of fn, negative left of it and positive right, by
    Newton steps from lo; fn(x) is (value, slope).  Each evaluation narrows
    the bracket, and a step that leaves it, or a slope that is not positive
    and finite, bisects.  Stops at a zero value, a step below one ulp, a
    bracket with no double inside, or MAX_ITER evaluations.  Returns the
    evaluated (x, value) with the smallest |value|.
    """
    x, best, best_val = lo, lo, math.inf
    for _ in range(MAX_ITER):
        val, slope = fn(x)
        if abs(val) < abs(best_val):
            best, best_val = x, val
        if val == 0.0:
            break
        lo, hi = (x, hi) if val < 0.0 else (lo, x)
        newton = x - val / slope if 0.0 < slope < math.inf else math.nan
        if newton == x:  # the step is below one ulp of x
            break
        x = newton if lo < newton < hi else 0.5 * (lo + hi)
        if not lo < x < hi:  # no double left inside the bracket
            break
    return best, best_val


def solve_levels(ell: int, alpha: float, mu_c: float) -> tuple[float, ...]:
    """Solve for the level fractions alpha_1..alpha_ell: nonincreasing,
    trailing zeros allowed.

    The level sum is continuous and increasing in beta_1, and reaches
    ell * alpha by beta_1 = (ell - 1) * mu_c - ell * log1p(-alpha), where
    every level is at least alpha.  If the sum already reaches it at
    beta_1 = mu_c, where level 2 opens, the first level alone holds the
    total.  Otherwise newton_root solves on all of (0, hi] with the exact
    slope, the sum of exp(-x_m / m) / m = (1 - alpha_m) / m over the open
    levels (none at beta_1 = 0, so the first step bisects).  The sum is
    concave between two level starts and its slope jumps up at each, so a
    step past a start can overshoot the root; the bracket then closes from
    the right.  That takes 8 or 9 level sums of O(ell) each at ell = 300 to
    10**4, and at most 28 over 5000 random (ell <= 1000, alpha, mu_c).
    The root is kept per (ell, alpha, mu_c) after the checks (see
    _level_root), so a repeated split costs one level sum.

    Args:
        ell: number of subtasks queued per worker (levels), >= 1.
        alpha: target per-level average fraction, in (0, 1).
        mu_c: product of straggling rate and shift of the whole-task
            runtime; the chain offset between consecutive levels.
    """
    require_int("ell", ell)
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not mu_c > 0:
        raise ValueError(f"mu_c must be > 0, got {mu_c}")
    ell, alpha, mu_c = int(ell), float(alpha), float(mu_c)
    beta = _level_root(ell, alpha, mu_c, math.log1p(-alpha))
    if beta is None:
        return (ell * alpha,) + (0.0,) * (ell - 1)
    return tuple(chain_alphas(beta, ell, mu_c))


def _mm_split(n: int, ell: int, k: int, mu_c: float) -> tuple[float, ...]:
    """solve_levels(ell, k / (n * ell), mu_c) for counts that MultiMDS.check
    has passed.  Past n * ell = 2**53 that ratio can round to 1.0, where
    solve_levels' bracket -log1p(-alpha) is infinite; the integer complement
    (n * ell - k) / (n * ell) then closes it."""
    total = n * ell
    alpha = k / total
    if alpha < 1.0:
        return solve_levels(ell, alpha, mu_c)
    return tuple(chain_alphas(_level_root(ell, alpha, mu_c, math.log((total - k) / total)),
                              ell, mu_c))


# An optimizer's search over k, a sweep and a k1 column solve the same split
# again and again; an entry is one float at any ell, so 1024 of them stay
# small where a cached --l 2000 split would hold 2000.
@functools.lru_cache(maxsize=1024)
def _level_root(ell: int, alpha: float, mu_c: float, log_gap: float) -> Optional[float]:
    """The Newton root beta_1 of solve_levels' split on checked arguments, or
    None where the first level alone holds the total; log_gap is log(1 - alpha),
    which closes the bracket."""
    target = ell * alpha
    hi = (ell - 1) * mu_c - ell * log_gap
    if not math.isfinite(hi) and target >= 1.0:
        raise Infeasible(
            f"total fraction {target} not reachable with {ell} levels at mu_c={mu_c}")
    # the level sum at beta_1 = mu_c is the first level's alone
    if ell == 1 or -math.expm1(-mu_c) >= target:
        return None

    # chain_alphas' level offsets: beta - 0.0 is beta, so level 1 takes 0.0
    starts = [(1, 0.0)] + [(m, (m - 1) * mu_c) for m in range(2, ell + 1)]

    def residual(beta: float) -> tuple[float, float]:
        # chain_alphas' open levels, and the slope's terms over those above 0
        a, slopes = [], []
        for m, start in starts:
            excess = beta - start
            if not excess > 0.0:
                break
            x = -math.expm1(-excess / m)
            a.append(x)
            if x > 0.0:
                slopes.append((1.0 - x) / m)
        return math.fsum(a) - target, sum(slopes)

    beta, resid = newton_root(residual, 0.0, hi)
    if not abs(resid) <= CHAIN_TOL:
        raise NoConvergence(
            f"level solver residual {abs(resid):.3e} above {CHAIN_TOL} "
            f"at ell={ell}, alpha={alpha}, mu_c={mu_c}")
    return beta


def level_counts(alphas: tuple[float, ...], n: int, k: int) -> list[int]:
    """Integer subtask counts per level, summing to k exactly.

    The first count is _first_count's k1, which the age uses; the rest of k
    goes to levels 2 on by largest remainder of alpha_m * n, ties first.

    Raises:
        InconsistentK: k - k1 is too far from the deeper levels' alpha_m * n.
    """
    if n < 1 or k < 1 or not alphas:
        raise ValueError(f"need n >= 1, k >= 1 and a level, got n={n}, k={k}, {alphas}")
    raw = [a * n for a in alphas]
    counts = [_first_count(alphas[0], n)] + [math.floor(r) for r in raw[1:]]
    deficit = k - sum(counts)
    if deficit < 0 or deficit >= len(raw):
        raise InconsistentK(
            f"cannot round level fractions {raw} to integers summing to {k}")
    by_remainder = sorted(range(1, len(raw)), key=lambda m: (counts[m] - raw[m], m))
    for m in by_remainder[:deficit]:
        counts[m] += 1
    return counts


def _first_count(alpha1: float, n: int) -> int:
    """k1 = round(alpha_1 * n) in [1, n]: any result at all brings a first-level one."""
    return min(max(round(alpha1 * n), 1), n)
