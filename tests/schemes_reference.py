"""Reference service laws: each scheme's S as an order statistic (d, n, k).

S is the k-th smallest of n i.i.d. draws from the shifted exponential d.
This is how the moments were computed before each scheme owned its
``moments`` method; the library must keep giving the same floats.  The
multi-message k1 comes straight from the level solver, not from
``MultiMDS.order_stat``, clamped to [1, n] as there; ``model_k1`` reads the
library's.

``reference_sample`` is the worker-level reference sampler: it simulates
every worker, where the library draws single-level service times from their
order-statistic law (``law_sample``).  ``with_mechanism`` hands it to the
simulator as a subclass of the scheme; ``ZeroService`` is a scheme whose
service time is always 0.

``windows`` is the MultiMDS sampler's window rule with the level counts'
load x load covariance matrix written out, and ``pooled_kth`` its
selection by a sort of every window's elements.
"""
import dataclasses
import math

import numpy as np

from coded_aoi import MDS, MultiMDS, Repetition, ServiceMoments, ShiftedExp, Uncoded
from coded_aoi.levels import solve_levels
from coded_aoi import schemes
from coded_aoi.order_stats import os_mean, os_var, sample_batch

# worker draws per row chunk of mechanism_sample
SCRATCH_DOUBLES = 1 << 16


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
    """k1 = round(alpha_1 * n), clamped to [1, n]: the first result is always
    a first-level one."""
    n = params.nworkers
    return min(max(round(solve_levels(load, k / (n * load), params.mu_c)[0] * n), 1), n)


def model_k1(params, k, load):
    """The library's k1 of MultiMDS(k, load): its order statistic's rank."""
    return MultiMDS(k, load).order_stat(params)[2]


def moments(scheme, params):
    d, n, k = order_stat(scheme, params)
    m = os_mean(d, n, k)
    return ServiceMoments(m, m * m + os_var(d, n, k))


def reference_sample(scheme, params, rng, size):
    """Transform every worker draw, then select: the worker-level mechanism.

    The n worker draws of a sample fill one row, drawn in row order.
    Repetition groups are contiguous: the first n mod k groups hold
    ceil(n/k) workers and the others floor(n/k).
    """
    n = params.nworkers
    task = params.whole_task()
    if isinstance(scheme, Uncoded):
        return sample_batch(task.split(n), rng, (size, n)).max(axis=1)
    if isinstance(scheme, Repetition):
        k = scheme.k
        x = sample_batch(task.split(k), rng, (size, n))
        q, r = divmod(n, k)
        wide = q + (r > 0)
        # a short group's missing replica never finishes
        groups = np.full((size, k, wide), np.inf)
        groups[:, :r] = x[:, :r * wide].reshape(size, r, wide)
        groups[:, r:, :q] = x[:, r * wide:].reshape(size, k - r, q)
        return groups.min(axis=2).max(axis=1)
    if isinstance(scheme, MDS):
        x = sample_batch(task.split(scheme.k), rng, (size, n))
        return np.partition(x, scheme.k - 1, axis=1)[:, scheme.k - 1]
    x = sample_batch(task.split(scheme.k), rng, (size, n))
    return multiset_kth(x, scheme.k, scheme.load)


def multiset_kth(x, k, load):
    """k-th smallest of each row's multiset {m * x_i : m = 1..load}.

    Level m holds every worker's m-th result, in the m-th block of n columns;
    the k-th smallest does not depend on the column order.
    """
    rows, n = x.shape
    multiset = np.empty((rows, n * load))
    for m in range(1, load + 1):
        np.multiply(x, m, out=multiset[:, (m - 1) * n:m * n])
    multiset.partition(k - 1, axis=1)
    return multiset[:, k - 1]


def mechanism_sample(scheme, params, rng, size):
    """reference_sample a bounded chunk of rows at a time.

    Rows are drawn in order, so the chunk size never changes the values.
    """
    rows = max(1, SCRATCH_DOUBLES // (params.nworkers * scheme.load))
    out = np.empty(size)
    for a in range(0, size, rows):
        b = min(a + rows, size)
        out[a:b] = reference_sample(scheme, params, rng, b - a)
    return out


def with_mechanism(scheme):
    """The scheme as an instance of a subclass whose ``sample`` is mechanism_sample."""
    cls = type(scheme)
    sub = type(f"Mechanism{cls.__name__}", (cls,), {"sample": mechanism_sample})
    return sub(*(getattr(scheme, f.name) for f in dataclasses.fields(scheme)))


class ZeroService(Uncoded):
    """S = 0 always: the limit in which the average age is 2 / lambda."""

    def sample(self, params, rng, size):
        return np.zeros(size)


def law_sample(scheme, params, rng, size):
    """``size`` draws from the law of the scheme's order statistic.

    At most ``schemes._TOP_RANKS`` ranks from the top, j = n - k + 1, the
    k-th of n uniforms is the product of V_i^(1/(n-i)) over j independent
    uniforms, whose log the inverse CDF maps to shift - log(-expm1(sum of
    log(V_i)/(n-i))) / rate; at j = 1, the largest, that inverts F(x)^n at
    one uniform.  Further down, the k-th of n uniforms is G_k / (G_k +
    G_{n-k+1}) for independent standard gammas, which the inverse CDF maps
    to shift + log1p(G_k / G_{n-k+1}) / rate; a call draws all of its G_k,
    then all of its G_{n-k+1}.
    Repetition takes the larger of one such draw per group size: the groups
    of floor(n/k) replicas, then the n mod k of ceil(n/k), if any; where k
    divides n that is the law of ``order_stat``.
    """
    if isinstance(scheme, Repetition):
        k = scheme.k
        q, r = divmod(params.nworkers, k)
        sizes = [(q, k - r), (q + 1, r)] if r else [(q, k)]
        return np.max([os_law(ShiftedExp(params.shift / k, m * k * params.straggling),
                              groups, groups, rng, size) for m, groups in sizes], axis=0)
    return os_law(*order_stat(scheme, params), rng, size)


def os_law(d, n, k, rng, size):
    j = n - k + 1
    if j <= schemes._TOP_RANKS:
        # the top j ranks: U_(k) is the product of V_i^(1/(n-i)) over j
        # uniforms, a row of each in turn; a zero uniform is d.shift
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random(size)) / float(n)
            for i in range(1, j):
                log_u += np.log(rng.random(size)) / float(n - i)
        return d.shift - np.log(-np.expm1(log_u)) / d.rate
    g_k = rng.standard_gamma(float(k), size)
    g_rest = rng.standard_gamma(float(n - k + 1), size)
    return d.shift + np.log1p(g_k / g_rest) / d.rate


def windows(n, k, load, mu_c):
    """Each level's window [a_m, b_m] of worker ranks, from the covariance matrix.

    Level m holds N_m(t) ~ Bin(n, p_m) elements by time t, with Cov(N_m, N_l)
    = n (p_max(m,l) - p_m p_l).  At the crossing time t0 of E[sum N_m] = k the
    p_m are the level split solve_levels(load, k / (n load), mu_c), and level
    m's rate is proportional to rho_m = (1 - p_m)/m where p_m > 0.  c_m = N_m
    + w_m (k - sum N_l) for w_m = rho_m / sum rho, and the window is n p_m +-
    (Z sd(c_m) + 1) for Z = schemes.WINDOW_Z, cut to 1..n.  O(load^2) per
    call.
    """
    p = solve_levels(load, k / (n * load), mu_c)
    rho = [(1 - q) / m if q > 0 else 0.0 for m, q in enumerate(p, 1)]
    rate = math.fsum(rho) or 1.0
    w = [r / rate for r in rho]
    cov = [[n * (p[max(i, j)] - p[i] * p[j]) for j in range(load)] for i in range(load)]
    sums = [math.fsum(c) for c in cov]
    total = math.fsum(sums)
    out = []
    for i in range(load):
        var = cov[i][i] - 2 * w[i] * sums[i] + w[i] * w[i] * total
        half = schemes.WINDOW_Z * math.sqrt(max(var, 0.0)) + 1
        out.append((max(1, math.floor(n * p[i] - half)), min(n, math.ceil(n * p[i] + half))))
    return out


def pooled_kth(x, windows, k):
    """Each row's k-th multiset element from its window order statistics, by a
    sort of the pooled window elements, and whether the windows settle it.

    x holds a row's worker order statistics X_(1..n), ascending.  The pooled
    row holds m X_(j) for every rank j of level m's window [a_m, b_m], and
    v is its element at col = k - sum(a_m - 1) - 1 once sorted; the windows
    settle v where it lies between every m X_(a_m) with a_m > 1 and every
    m X_(b_m) with b_m < n.  Where col falls outside the pooled row, v is
    NaN and no row is settled.
    """
    rows, n = x.shape
    pooled = np.concatenate([x[:, a - 1:b] * m for m, (a, b) in enumerate(windows, 1)], axis=1)
    col = k - sum(a - 1 for a, _ in windows) - 1
    if not 0 <= col < pooled.shape[1]:
        return np.full(rows, np.nan), np.zeros(rows, dtype=bool)
    lo = np.max([x[:, a - 1] * m for m, (a, _) in enumerate(windows, 1) if a > 1]
                + [np.full(rows, -np.inf)], axis=0)
    hi = np.min([x[:, b - 1] * m for m, (_, b) in enumerate(windows, 1) if b < n]
                + [np.full(rows, np.inf)], axis=0)
    pooled.sort(axis=1)
    v = pooled[:, col]
    return v, (lo <= v) & (v <= hi)
