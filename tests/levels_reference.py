"""Reference checks on level splits.

With beta_m = -log1p(-alpha_m), a split solves the chain exactly when
m * beta_m - (m - 1) * beta_{m-1} + mu_c = 0 for every consecutive pair of
non-empty levels.  This module recomputes those residuals from the returned
fractions alone, with no reference to how the solver found them.  An array
form of the closed form serves the dense scans over beta_1, and the level
residual as chain_alphas, fsum and a generator sum gives the solver's roots
bit for bit.
"""
import math

import numpy as np

from coded_aoi.levels import chain_alphas, newton_root

EPS = 2.0 ** -52


def chain_residuals(a, mu_c):
    """(residual, bound) for each consecutive pair of non-empty levels of
    the fractions a.

    ``bound`` is how far the residual can sit from 0 on an exact split once
    each fraction is rounded to a double: 1 - alpha_m carries a relative
    error of about EPS / (1 - alpha_m), and the chain offsets one of EPS
    times m * mu_c.  A pair whose earlier level is at alpha = 1.0 is skipped:
    that level's log-gap is past what a double resolves, and the sum check
    on the split still covers it.
    """
    out = []
    for m in range(2, len(a) + 1):
        if a[m - 1] <= 0.0:
            break
        if a[m - 2] >= 1.0:
            continue
        beta_prev, beta = -math.log1p(-a[m - 2]), -math.log1p(-a[m - 1])
        resid = m * beta - (m - 1) * beta_prev + mu_c
        bound = 8 * EPS * (m / (1.0 - a[m - 1]) + (m - 1) / (1.0 - a[m - 2])
                           + m * beta + (m - 1) * beta_prev + m * mu_c)
        out.append((resid, bound))
    return out


def chain_alphas_grid(beta1, load, mu_c):
    """levels.chain_alphas at every beta1 of an array: shape s -> s + (load,)."""
    starts = np.zeros(load)
    starts[1:] = np.arange(1, load) * mu_c  # level 1 starts at 0, also at mu_c = inf
    excess = np.maximum(np.asarray(beta1, dtype=float)[..., None] - starts, 0.0)
    return -np.expm1(-excess / np.arange(1, load + 1))


def level_residual(beta, ell, mu_c, target):
    """(value, slope) of levels._level_root's residual at beta: the level
    sum's excess over target by fsum, and sum((1 - alpha_m) / m) over the
    levels above 0, each from the fractions that chain_alphas returns."""
    a = chain_alphas(beta, ell, mu_c)
    return math.fsum(a) - target, sum((1.0 - x) / m for m, x in enumerate(a, 1) if x > 0.0)


def level_root(ell, alpha, mu_c):
    """levels._level_root's (beta_1, residual) from newton_root on
    level_residual, or None where the first level alone holds the total."""
    target = ell * alpha
    if ell == 1 or -math.expm1(-mu_c) >= target:
        return None
    hi = (ell - 1) * mu_c - ell * math.log1p(-alpha)
    return newton_root(lambda beta: level_residual(beta, ell, mu_c, target), 0.0, hi)
