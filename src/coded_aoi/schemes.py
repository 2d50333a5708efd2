"""Service-time models for the task distribution schemes.

An accepted update is processed by a pool of n workers.  One worker
computing the whole task would take ``ShiftedExp(shift, straggling)``;
splitting the task into m subtasks speeds each one up to
``ShiftedExp(shift/m, m*straggling)``.  The service time S of an update is
the completion time of enough subtasks to recover the result, which depends
on how the master distributes work:

    Uncoded      n subtasks, one per worker, all n must finish.
    Repetition   k subtasks, each replicated on n/k workers; all k distinct
                 results are needed, each arriving as the min of its replicas.
    MDS          n coded subtasks, one per worker; any k decode.
    MultiMDS     n*load coded subtasks, ``load`` queued per worker; any k
                 decode.  A worker that finishes m of its queue took m equal
                 per-subtask durations, so fast workers contribute several
                 results while stragglers contribute none.

Each scheme class carries its CLI ``label``, its ``load`` (subtasks queued
per worker) and three methods.  ``check(params, sampling)`` raises
ValueError for parameters the scheme cannot take (with sampling=True: cannot
simulate); on checked parameters, ``moments(params)`` gives the exact E[S]
and E[S^2], the only properties of S that the average age depends on, and
``sample(params, rng, size)`` draws service times.  The module functions
below check and then call these methods, so no other code dispatches on the
scheme type.

Every scheme states its service time as one order statistic, the k-th
smallest of N i.i.d. draws from a shifted exponential d, in an
``order_stat`` triple (d, N, k); its moments follow from that triple.  For
MultiMDS the triple is the large-pool model: the k-th result overall
arrives with the first level's k1-th (see ``mm_k1``), and at load 1 it is
the MDS triple.  Samples come from the law of the order statistic in O(1)
per service time (see ``_os_sample``), not from N worker draws, except for
MultiMDS at load >= 2, where the model is exact only as n grows.  Its
sampler draws from the law of the worker mechanism itself, but only the
elements of the n*load multiset near the k-th (see ``_multiset_sample``):
one multinomial of cell counts per service time, then the elements inside
a bracket of about six standard deviations of the multiset count, sorted.
That costs about 1.8 us per service time at n = 100 and 3.0 us at
n = 1000, against 1.3 and 10.3 us for drawing every worker (MultiMDS(129, 2)
and MultiMDS(1287, 2), 2-core Intel Xeon VM, numpy 2.4).  Seeded MultiMDS
output at load >= 2 differs from versions that drew every worker.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .levels import chain_alphas, require_int, solve_levels
from .order_stats import (
    ShiftedExp,
    os_mean,
    os_var,
    sample_batch,
)


# Largest n*load at which MultiMDS at load >= 2 may be sampled: a row whose
# k-th result falls outside the sampler's bracket draws every worker, and one
# row of its multiset holds n*load doubles (128 MiB at the limit).  The
# order-statistic law of the other schemes draws two gammas per service time
# at any n, so they have no such limit.
MAX_SAMPLE_DRAWS = 1 << 24
# Doubles of scratch per row chunk of the MultiMDS sampler at load >= 2:
# 512 KiB, so the scratch stays in a core's L2 cache.
SCRATCH_DOUBLES = 1 << 16
# Half-width of the MultiMDS sampler's bracket, in standard deviations of the
# multiset count (see _bracket); about 0.3% of rows fall outside it.
BRACKET_Z = 3.0
# MultiMDS service times whose cell counts are drawn together: the sampler
# draws a block's counts, then its in-bracket points, then the workers of its
# rows outside the bracket, so the values depend on this block size but not
# on SCRATCH_DOUBLES.
ROW_BLOCK = 1 << 10


class DegenerateLevels(Exception):
    """The level split leaves the first level empty (k too small for the load)."""


@dataclass(frozen=True)
class SystemParams:
    """Transmission rate plus the whole-task runtime model of one worker."""

    arrival_rate: float  # rate of update transmissions from the source
    shift: float         # minimum whole-task computation time
    straggling: float    # exponential tail rate of the whole-task time
    nworkers: int

    def __post_init__(self) -> None:
        for name in ("arrival_rate", "shift", "straggling"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be > 0, got {self.arrival_rate}")
        if self.shift <= 0:
            raise ValueError(f"shift must be > 0, got {self.shift}")
        if self.straggling <= 0:
            raise ValueError(f"straggling must be > 0, got {self.straggling}")
        require_int("nworkers", self.nworkers)
        if self.nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {self.nworkers}")

    @property
    def mu_c(self) -> float:
        """shift * straggling; if that underflows to 0, which the level solver
        rejects, the smallest subnormal, which gives the same split."""
        return self.shift * self.straggling or math.ulp(0.0)

    def whole_task(self) -> ShiftedExp:
        """Runtime distribution of the entire task on a single worker."""
        return ShiftedExp(self.shift, self.straggling)


@dataclass(frozen=True)
class ServiceMoments:
    """First and second moments of the per-update service time."""

    es: float
    es2: float


def _os_sample(d: ShiftedExp, n: int, k: int, rng: np.random.Generator,
               size: int) -> np.ndarray:
    """``size`` draws of the k-th smallest of n i.i.d. draws from d, from its law.

    The k-th of n uniforms is B = G_k / (G_k + G_{n-k+1}) for independent
    standard gammas (David & Nagaraja, Order Statistics, 2003), and the
    inverse CDF maps it to d.shift - log(1 - B)/d.rate, which is d.shift +
    log1p(G_k / G_{n-k+1})/d.rate: no difference cancels at any n.  Each
    sample's two gammas are drawn together, row by row, so the values do not
    depend on how a run is split into calls.
    """
    g = rng.standard_gamma([k, n - k + 1], (size, 2))
    x = np.divide(g[:, 0], g[:, 1])
    np.log1p(x, out=x)
    x /= d.rate
    x += d.shift
    return x


class _OrderStat:
    """A scheme whose S is modelled as the k-th smallest of N draws from d."""

    load: ClassVar[int] = 1  # subtasks per worker

    def order_stat(self, params: SystemParams) -> tuple[ShiftedExp, int, int]:
        """The triple (d, N, k) of the service time's order statistic."""
        raise NotImplementedError

    def moments(self, params: SystemParams) -> ServiceMoments:
        d, n, k = self.order_stat(params)
        m = os_mean(d, n, k)
        return ServiceMoments(m, m * m + os_var(d, n, k))

    def sample(self, params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
        return _os_sample(*self.order_stat(params), rng, size)


@dataclass(frozen=True)
class Uncoded(_OrderStat):
    label: ClassVar[str] = "uncoded"

    def check(self, params: SystemParams, sampling: bool = False) -> None:
        pass

    def order_stat(self, params: SystemParams) -> tuple[ShiftedExp, int, int]:
        n = params.nworkers
        return params.whole_task().split(n), n, n


@dataclass(frozen=True)
class Repetition(_OrderStat):
    k: int
    label: ClassVar[str] = "repetition"

    def check(self, params: SystemParams, sampling: bool = False) -> None:
        n = params.nworkers
        require_int("repetition: k", self.k)
        if not 1 <= self.k <= n:
            raise ValueError(f"repetition: k must satisfy 1 <= k <= n, got k={self.k}, n={n}")
        if sampling and n % self.k != 0:
            raise ValueError(f"repetition sampling: k must divide n, got k={self.k}, n={n}")

    def order_stat(self, params: SystemParams) -> tuple[ShiftedExp, int, int]:
        # min over n/k replicas of a (shift/k, k*rate) piece is a
        # (shift/k, n*rate) shifted exponential; all k results are needed
        fastest = ShiftedExp(params.shift / self.k, params.straggling * params.nworkers)
        return fastest, self.k, self.k


@dataclass(frozen=True)
class MDS(_OrderStat):
    k: int
    label: ClassVar[str] = "mds"

    def check(self, params: SystemParams, sampling: bool = False) -> None:
        require_int("mds: k", self.k)
        if self.k < 1:
            raise ValueError(f"mds: k must be >= 1, got k={self.k}")
        if self.k >= params.nworkers:
            raise ValueError(f"mds: k must be < n, got k={self.k}, n={params.nworkers}")

    def order_stat(self, params: SystemParams) -> tuple[ShiftedExp, int, int]:
        return params.whole_task().split(self.k), params.nworkers, self.k


@dataclass(frozen=True)
class MultiMDS(_OrderStat):
    k: int
    # coded subtasks queued per worker; field() keeps it required instead of
    # defaulting to the class constant load = 1 inherited from _OrderStat
    load: int = field()
    label: ClassVar[str] = "mm-mds"

    def check(self, params: SystemParams, sampling: bool = False) -> None:
        n = params.nworkers
        require_int("mm-mds: k", self.k)
        require_int("mm-mds: load", self.load)
        if self.load < 1:
            raise ValueError(f"mm-mds: load must be >= 1, got {self.load}")
        draws = n * self.load
        if not 1 <= self.k < draws:
            raise ValueError(
                f"mm-mds: k must satisfy 1 <= k < n*load, got k={self.k}, "
                f"n={n}, load={self.load}")
        if sampling and self.load >= 2 and draws > MAX_SAMPLE_DRAWS:
            raise ValueError(f"{self.label} sampling: n*load = {draws} worker draws per "
                             f"service time exceed the limit of {MAX_SAMPLE_DRAWS}")

    def order_stat(self, params: SystemParams) -> tuple[ShiftedExp, int, int]:
        # the large-pool model: the k-th result overall is the first
        # level's k1-th; at load 1 that is k itself, which is MDS
        k1 = mm_k1(params, self.k, self.load)
        return params.whole_task().split(self.k), params.nworkers, k1

    def sample(self, params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.load == 1:
            return super().sample(params, rng, size)
        d = params.whole_task().split(self.k)
        return _multiset_sample(d, params.nworkers, self.k, self.load, rng, size)


def _cdf(d: ShiftedExp, x: float) -> float:
    return -math.expm1(-d.rate * (x - d.shift)) if x > d.shift else 0.0


def _bracket(d: ShiftedExp, n: int, k: int, load: int) -> tuple[float, float]:
    """Bracket (lo, hi] of service times likely to hold the k-th multiset element.

    The multiset is {m * X_i} over n workers i, with X_i ~ d, and queue
    positions m = 1..load.  By time t worker i has delivered N_i(t) results,
    i.i.d. on 0..load with P(N >= m) = F(t/m), and the multiset holds
    C(t) = sum_i N_i(t) elements at or below t.  lo and hi solve
    E[C] + Z sd(C) = k and E[C] - Z sd(C) = k for Z = BRACKET_Z, by
    bisection.  hi is capped at lo * load / (load - 1), so that the level
    cells (lo/m, hi/m] of the worker times are disjoint.  Any bracket leaves
    the sampler exact; this one only makes it fast.
    """
    def excess(t: float, z: float) -> float:
        p = [_cdf(d, t / m) for m in range(1, load + 1)]
        mean = sum(p)
        var = sum((2 * m - 1) * q for m, q in enumerate(p, 1)) - mean * mean
        return n * mean + z * math.sqrt(n * max(var, 0.0)) - k

    def root(z: float) -> float:
        # C(t) is 0 at d.shift and n * load (in doubles) past load * (shift + 40/rate)
        a, b = d.shift, load * (d.shift + 40 / d.rate)
        while b - a > 1e-7 * b:
            mid = 0.5 * (a + b)
            a, b = (mid, b) if excess(mid, z) < 0 else (a, mid)
        return b

    lo = root(BRACKET_Z)
    return lo, min(max(root(-BRACKET_Z), lo), lo * load / (load - 1))


def _multiset_sample(d: ShiftedExp, n: int, k: int, load: int,
                     rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws of the k-th smallest of the multiset {m * X_i}, by cells.

    The multiset is that of ``_bracket``, at load >= 2.  The worker times
    are cut into 2*load + 1 cells at lo/m and hi/m for the bracket (lo, hi].
    A worker time in the level cell (lo/m, hi/m] puts exactly one element,
    m * X_i, in the bracket; one in any other cell puts none there, and the
    cell fixes how many of its elements lie at or below lo.  So a row draws
    its n cell counts from one multinomial, which gives C(lo) and C(hi).
    Given the counts, the worker times in a cell are i.i.d. from d truncated
    to the cell.  If C(lo) < k <= C(hi), the answer is the (k - C(lo))-th
    smallest in-bracket element, and only those are drawn; otherwise every
    worker time is drawn in its cell and the whole multiset is partitioned.
    The law is that of the worker mechanism, for any bracket.
    """
    lo, hi = _bracket(d, n, k, load)
    cuts = [t / m for m in range(load, 0, -1) for t in (lo, hi)]
    edges = np.maximum.accumulate([0.0] + [_cdf(d, x) for x in cuts] + [1.0])
    below = load - (np.arange(2 * load + 1) + 1) // 2  # elements <= lo per cell
    per_level = np.array([edges[1:-1:2], edges[2::2], np.arange(load, 0, -1.0)])
    leftover_rows = max(1, SCRATCH_DOUBLES // (n * (load + 4)))
    out = np.empty(size)
    for a in range(0, size, ROW_BLOCK):
        block = out[a:a + ROW_BLOCK]
        counts = rng.multinomial(n, np.diff(edges), size=block.size)
        rank = k - counts @ below
        level = counts[:, 1::2]  # the level cells, m = load..1
        points = level.sum(axis=1)
        inside = (rank > 0) & (rank <= points)
        rows = np.flatnonzero(inside)
        # rows per chunk within the scratch budget at the widest row (see
        # _bracket_kth), and each level cell's CDF interval and scale per row
        step = max(1, SCRATCH_DOUBLES // (6 * int(points.max(initial=1))))
        cells = np.tile(per_level, (1, min(step, rows.size)))
        for i in range(0, rows.size, step):
            r = rows[i:i + step]
            block[r] = _bracket_kth(d, rng, level[r], rank[r], cells)
        rows = np.flatnonzero(~inside)
        for i in range(0, rows.size, leftover_rows):
            r = rows[i:i + leftover_rows]
            block[r] = _leftover_kth(d, rng, counts[r], edges, k, load)
    return out


def _bracket_kth(d: ShiftedExp, rng: np.random.Generator, level: np.ndarray,
                 rank: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Each row's rank-th smallest in-bracket element, given its level counts.

    ``cells`` holds the lower and upper CDF bound and the scale m of each
    level cell, for at least as many rows.  A row's points are drawn level by
    level in their cells and scaled by m, then padded with inf to the widest
    row and sorted.  Scratch: four doubles per point while drawing, then two
    per point and one and a bit per padded slot.
    """
    flat = level.ravel()
    lower, upper, scale = (t[:flat.size] for t in cells)
    x = sample_batch(d, rng, flat.sum(), np.repeat(lower, flat), np.repeat(upper, flat))
    x *= np.repeat(scale, flat)
    points = level.sum(axis=1)
    padded = np.full((points.size, points.max()), np.inf)
    padded[np.arange(padded.shape[1]) < points[:, None]] = x
    padded.sort(axis=1)
    return padded[np.arange(points.size), rank - 1]


def _leftover_kth(d: ShiftedExp, rng: np.random.Generator, counts: np.ndarray,
                  edges: np.ndarray, k: int, load: int) -> np.ndarray:
    """Each row's k-th multiset element, from every worker time drawn in its cell."""
    rows, flat = counts.shape[0], counts.ravel()
    lower, upper = (np.repeat(np.tile(e, rows), flat) for e in (edges[:-1], edges[1:]))
    x = sample_batch(d, rng, flat.sum(), lower, upper)
    del lower, upper  # room for the multiset
    return _multiset_kth(x.reshape(rows, -1), k, load)


def _multiset_kth(x: np.ndarray, k: int, load: int) -> np.ndarray:
    """k-th smallest of each row's multiset {m * x_i : m = 1..load}.

    The k-th smallest does not depend on the column order of the multiset,
    so level m fills the m-th block of n columns.
    """
    rows, n = x.shape
    multiset = np.empty((rows, n * load))
    for m in range(1, load + 1):
        np.multiply(x, m, out=multiset[:, (m - 1) * n:m * n])
    multiset.partition(k - 1, axis=1)
    return multiset[:, k - 1]


Scheme = Uncoded | Repetition | MDS | MultiMDS


def validate(scheme: Scheme, params: SystemParams, sampling: bool = False) -> None:
    """Check scheme parameters against the worker pool; raise ValueError if bad.

    With sampling=True the repetition scheme additionally requires k to
    divide n (the replica groups must be equal), and MultiMDS at load >= 2
    may need at most MAX_SAMPLE_DRAWS worker draws per service time; the
    analytic moments are defined at any n.
    """
    if not isinstance(scheme, Scheme):
        raise TypeError(f"unknown scheme {scheme!r}")
    scheme.check(params, sampling)


def mm_k1(params: SystemParams, k: int, load: int) -> int:
    """First-level completion count k1 = round(alpha_1 * n), at most n.

    The k-th overall result arrives exactly when the first level delivers
    its k1-th, so the analytic service time is the k1-th order statistic of
    the per-subtask runtimes.
    """
    validate(MultiMDS(k, load), params)
    if load == 1:
        # one level holds every result; the solver's alpha_1 = k/n would
        # round back to k only while k/n is exact
        return k
    n = params.nworkers
    k1 = round(solve_levels(load, k / (n * load), params.mu_c).alphas[0] * n)
    if k1 == 0:
        raise DegenerateLevels(
            f"first level rounds to zero subtasks (k={k}, n={n}, "
            f"load={load}); no order statistic represents the service time")
    return min(k1, n)


def mm_k_min(params: SystemParams, load: int) -> int:
    """Smallest k at which mm_k1 leaves the first level non-empty.

    k1 = round(alpha_1 * n) is 0 up to alpha_1 = 0.5 / n, where beta_1 =
    -log1p(-0.5 / n); the level sum there, times n, is the largest k with an
    empty first level, since the sum k / n rises with beta_1.
    """
    n = params.nworkers
    beta = -math.log1p(-0.5 / n)
    return math.floor(n * math.fsum(chain_alphas(beta, load, params.mu_c))) + 1


def service_moments(scheme: Scheme, params: SystemParams) -> ServiceMoments:
    """Exact (E[S], E[S^2]) of the scheme's service time."""
    validate(scheme, params)
    return scheme.moments(params)


def sample_service_batch(scheme: Scheme, params: SystemParams,
                         rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. service times.

    Every scheme but MultiMDS at load >= 2 draws from the law of its order
    statistic: two gammas per service time at any n.  MultiMDS at load >= 2
    draws from the law of the worker mechanism: per service time, one
    multinomial of cell counts, then only the multiset elements inside a
    bracket around the k-th, or, for the rows whose k-th falls outside it
    (about 0.3%), every worker time and the whole n*load multiset.  About
    1.8 us per service time at n = 100 and 3.0 us at n = 1000; seeded output
    differs from versions that drew every worker.
    """
    validate(scheme, params, sampling=True)
    return scheme.sample(params, rng, size)
