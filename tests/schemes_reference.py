"""Reference service laws: each scheme's S as an order statistic (d, n, k).

S is the k-th smallest of n i.i.d. draws from the shifted exponential d.
This is how the moments were computed before each scheme owned its
``moments`` method; the library must keep giving the same floats.  The
multi-message k1 comes straight from the level solver, not from
``schemes.mm_k1``; it is 0 where the first level rounds to no subtask.
"""
from coded_aoi import MDS, MultiMDS, Repetition, ServiceMoments, ShiftedExp, Uncoded
from coded_aoi.levels import solve_levels
from coded_aoi.order_stats import os_mean, os_var


def order_stat(scheme, params):
    """(d, n, k) with S the k-th smallest of n draws from d."""
    n = params.nworkers
    whole = ShiftedExp(params.shift, params.straggling)
    if isinstance(scheme, Uncoded):
        return whole.split(n), n, n
    if isinstance(scheme, Repetition):
        per_subtask = whole.split(scheme.k)
        return ShiftedExp(per_subtask.shift, params.straggling * n), scheme.k, scheme.k
    if isinstance(scheme, MDS):
        return whole.split(scheme.k), n, scheme.k
    if isinstance(scheme, MultiMDS):
        return whole.split(scheme.k), n, first_level_count(params, scheme.k, scheme.load)
    raise TypeError(f"unknown scheme {scheme!r}")


def first_level_count(params, k, load):
    """k1 = round(alpha_1 * n), capped at n."""
    n = params.nworkers
    split = solve_levels(load, k / (n * load), params.mu_c)
    return min(round(split.alphas[0] * n), n)


def moments(scheme, params):
    d, n, k = order_stat(scheme, params)
    m = os_mean(d, n, k)
    return ServiceMoments(m, m * m + os_var(d, n, k))
