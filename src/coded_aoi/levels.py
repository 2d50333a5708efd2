"""Level splits for multi-message task queues.

When every worker queues ``load`` coded subtasks and computes them back to
back with identical per-subtask duration, the subtasks finished at queue
position m ("level" m) by the time k results are in number k_m = alpha_m * n.
For a large worker pool the active levels finish their last counted subtask
at the same instant, which pins the fractions down to a chain of equalities

    (1 - alpha_m)^m = exp(mu_c) * (1 - alpha_{m-1})^(m-1),   m = 2..load,

together with the total-work constraint sum(alpha_m) = load * alpha.  Levels
that never produce a counted result sit at alpha_m = 0, and once one level
is empty all deeper levels are too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHAIN_TOL = 1e-10


class Infeasible(Exception):
    """The requested total fraction cannot be reached by any level split."""


class NoConvergence(Exception):
    """Solver hit its iteration cap; carries the best residual found."""


class InconsistentK(ValueError):
    """No integer rounding of the level fractions sums to the requested k."""


@dataclass(frozen=True)
class LevelSplit:
    """Per-level completion fractions, nonincreasing, trailing zeros allowed."""

    alphas: tuple[float, ...]

    @property
    def load(self) -> int:
        return len(self.alphas)


def chain_alphas(alpha1: float, load: int, mu_c: float) -> np.ndarray:
    """Forward recursion: level fractions implied by the first-level fraction.

    Each alpha_m is 1 - (exp(mu_c) * (1 - alpha_{m-1})^(m-1))^(1/m), clamped
    to 0 when nonpositive; a clamped level empties every deeper level.
    """
    out = np.zeros(load)
    out[0] = alpha1
    try:
        gap = math.exp(mu_c)
    except OverflowError:
        # past mu_c ~ 709.78; exp(709) * (1 - alpha1) > 1 already holds for
        # every double alpha1 < 1, so levels 2 on stay empty, as they would
        # with the exact constant
        gap = math.exp(709.0)
    prev_pow = 1.0 - alpha1  # (1 - alpha_{m-1})^(m-1)
    for m in range(2, load + 1):
        base = gap * prev_pow
        a = 1.0 - base ** (1.0 / m)
        if a <= 0.0:
            break
        out[m - 1] = a
        prev_pow = base
    return out


def solve_levels(ell: int, alpha: float, mu_c: float, max_iter: int = 200,
                 interval_tol: float = 1e-12) -> LevelSplit:
    """Solve for the level fractions alpha_1..alpha_ell.

    Bisects on alpha_1 in (0, 1): the summed fractions of the forward chain
    are continuous and strictly increasing in alpha_1, so the root of
    sum(alpha_m) = ell * alpha is unique.

    Args:
        ell: number of subtasks queued per worker (levels), >= 1.
        alpha: target per-level average fraction, in (0, 1).
        mu_c: product of straggling rate and shift of the whole-task
            runtime; sets the chain constant exp(mu_c).
        max_iter: bisection iteration cap.
        interval_tol: stop once the bracket is this narrow and the sum
            residual is below CHAIN_TOL.

    Raises:
        Infeasible: ell * alpha is at or above the supremum of reachable sums.
        NoConvergence: residual still above CHAIN_TOL at the iteration cap.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if mu_c <= 0:
        raise ValueError(f"mu_c must be > 0, got {mu_c}")
    if ell == 1:
        # No chain; the sum constraint alone gives alpha_1 = alpha exactly.
        return LevelSplit((alpha,))

    target = ell * alpha
    lo, hi = 0.0, 1.0 - 1e-16
    if chain_alphas(hi, ell, mu_c).sum() < target:
        raise Infeasible(
            f"total fraction {target} not reachable with {ell} levels at mu_c={mu_c}")

    best = hi
    best_resid = math.inf
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        s = chain_alphas(mid, ell, mu_c).sum()
        resid = s - target
        if abs(resid) < best_resid:
            best, best_resid = mid, abs(resid)
        if resid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= interval_tol and best_resid <= CHAIN_TOL:
            break
    if best_resid > CHAIN_TOL:
        raise NoConvergence(
            f"level solver residual {best_resid:.3e} above {CHAIN_TOL} "
            f"after {max_iter} iterations")
    return LevelSplit(tuple(chain_alphas(best, ell, mu_c)))


def chain_residuals(split: LevelSplit, mu_c: float) -> list[float]:
    """Chain equation residuals for each consecutive pair of nonzero levels."""
    gap = math.exp(-mu_c)
    out = []
    a = split.alphas
    for m in range(2, len(a) + 1):
        if a[m - 1] <= 0.0:
            break
        out.append((1.0 - a[m - 1]) ** m * gap - (1.0 - a[m - 2]) ** (m - 1))
    return out


def level_counts(split: LevelSplit, n: int, k: int) -> list[int]:
    """Integer subtask counts per level, summing to k exactly.

    Largest-remainder rounding of alpha_m * n; ties go to the earlier level
    so the counts stay nonincreasing.

    Raises:
        InconsistentK: k is too far from sum(alpha_m * n) for any rounding.
    """
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    raw = [a * n for a in split.alphas]
    counts = [math.floor(r) for r in raw]
    deficit = k - sum(counts)
    if deficit < 0 or deficit > len(raw):
        raise InconsistentK(
            f"cannot round level fractions {raw} to integers summing to {k}")
    by_remainder = sorted(range(len(raw)), key=lambda m: (counts[m] - raw[m], m))
    for m in by_remainder[:deficit]:
        counts[m] += 1
    return counts
