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
per worker) and three methods.  ``check(params)`` raises ValueError for
parameters the scheme cannot take; on checked parameters,
``moments(params)`` gives the E[S] and E[S^2] of the paper's model, the
only properties of S that the average age depends on, and
``sample(params, rng, size)`` draws service times from the mechanism's
exact law.  The module functions below check and then call these methods,
so no other code dispatches on the scheme type.

Every scheme states its modelled service time as one order statistic, the
k-th smallest of N i.i.d. draws from a shifted exponential d, in an
``order_stat`` triple (d, N, k); its moments follow from that triple.  For
Repetition the triple gives every group n/k replicas, exact only where k
divides n; for MultiMDS it is the large-pool model: the k-th result overall
arrives with the first level's k1-th (see ``mm_k1``), and at load 1 it is
the MDS triple.  Samples come from order-statistic laws in O(1) per service
time (see ``_os_sample``), not from N worker draws: Repetition takes the
larger of two, one per group size.  MultiMDS at load >= 2 draws only the
worker order statistics in a window of ranks around each level's share of
the k-th result (see ``_multiset_sample``): two gammas per run of
consecutive ranks and one exponential per rank, then a sort of the windows'
elements.  That costs about 1.2 us per service time at n = 100 and 2.4 us
at n = 1000 (MultiMDS(129, 2) and MultiMDS(1287, 2), medians of interleaved
4097-sample calls, 2-core Intel Xeon VM, numpy 2.4).
"""
from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .levels import newton_root, require_int, solve_levels
from .order_stats import (
    ShiftedExp,
    os_mean,
    os_var,
    sample_batch,
)


# Most doubles a row of the MultiMDS sampler at load >= 2 may hold: X_(j) at
# each window rank and m X_(j) per level, twice the windows' summed widths.
# That grows as WINDOW_Z sqrt(n): MultiMDS(1.287 n, 2) at c = mu = 1 reaches
# it near n = 2.7e13.  The order-statistic laws have no such bound.
MAX_SAMPLE_DRAWS = 1 << 24
# Doubles of scratch per row chunk of the MultiMDS sampler at load >= 2:
# 512 KiB, so the scratch stays in a core's L2 cache.
SCRATCH_DOUBLES = 1 << 16
# Half-width of each level's window of worker ranks in the MultiMDS sampler,
# in standard deviations of the level's crossing rank, plus one rank (see
# _windows), and the factor by which each round widens the windows of the
# rows they leave unsettled (see _multiset_sample).  A first-pass rank costs
# about 25 ns and a widened row about 3 us at n = 1000, plus about 0.2 ms
# per round, so narrow windows win: these leave about 1.8% of rows
# unsettled at n = 100 and 4.8% at n = 1000 (MultiMDS(129, 2) and
# MultiMDS(1287, 2)).  Of the pairs tried, Z from 1 to 3 and growth from
# 1.25 to 3, they gave the least geometric mean time per service time over
# n = 100, 1000 and 1e4 at loads 2 and 4.
WINDOW_Z = 1.75
WINDOW_GROWTH = 1.5
# MultiMDS service times whose segment-start gammas are drawn together: the
# sampler draws a block's gammas, then its in-window spacings.
ROW_BLOCK = 1 << 10
# First-pass doubles of the MultiMDS sampler between widening rounds: the
# rows the windows leave unsettled wait for theirs until the end, or the
# next multiple of WIDEN_DOUBLES // (window ranks) rows, so 8 MiB of rows
# wait at most, and 4097 service times at n <= 1e4 and load 2 widen once.
# With ROW_BLOCK, this fixes the order of the draws, so the values do not
# depend on SCRATCH_DOUBLES.
WIDEN_DOUBLES = 1 << 20


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


def _os_sample(d: ShiftedExp, n: "int | np.ndarray", k: "int | np.ndarray",
               rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws of the k-th smallest of n i.i.d. draws from d, from its law.

    The k-th of n uniforms is B = G_k / (G_k + G_{n-k+1}) for independent
    standard gammas (David & Nagaraja, Order Statistics, 2003), and the
    inverse CDF maps it to d.shift - log(1 - B)/d.rate, which is d.shift +
    log1p(G_k / G_{n-k+1})/d.rate: no difference cancels at any n.  n and k
    may be arrays of one shape s, which gives (size,) + s draws.  Each
    sample's gammas are drawn together, row by row, so the values do not
    depend on how a run is split into calls.  The shapes are converted to
    doubles first, so Python integers past 2**63 work too.
    """
    shapes = np.stack([k, n - k + 1], axis=-1).astype(float)
    g = rng.standard_gamma(shapes, (size,) + shapes.shape)
    x = np.divide(g[..., 0], g[..., 1])
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

    def check(self, params: SystemParams) -> None:
        pass

    def order_stat(self, params: SystemParams) -> tuple[ShiftedExp, int, int]:
        n = params.nworkers
        return params.whole_task().split(n), n, n


@dataclass(frozen=True)
class Repetition(_OrderStat):
    k: int
    label: ClassVar[str] = "repetition"

    def check(self, params: SystemParams) -> None:
        n = params.nworkers
        require_int("repetition: k", self.k)
        if not 1 <= self.k <= n:
            raise ValueError(f"repetition: k must satisfy 1 <= k <= n, got k={self.k}, n={n}")

    def order_stat(self, params: SystemParams) -> tuple[ShiftedExp, int, int]:
        # the paper's model: min over n/k replicas of a (shift/k, k*rate)
        # piece is a (shift/k, n*rate) shifted exponential; all k results
        # are needed
        fastest = ShiftedExp(params.shift / self.k, params.straggling * params.nworkers)
        return fastest, self.k, self.k

    def sample(self, params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
        # the real split: n mod k groups of q + 1 replicas, the others of q;
        # m replicas finish at shift/k + Exp(m*k*rate), S at the slowest group
        k = self.k
        q, r = divmod(params.nworkers, k)
        x = _os_sample(ShiftedExp(params.shift / k, q * k * params.straggling),
                       k - r, k - r, rng, size)
        if r:
            np.maximum(x, _os_sample(ShiftedExp(params.shift / k, (q + 1) * k * params.straggling),
                                     r, r, rng, size), out=x)
        return x


@dataclass(frozen=True)
class MDS(_OrderStat):
    k: int
    label: ClassVar[str] = "mds"

    def check(self, params: SystemParams) -> None:
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

    def check(self, params: SystemParams) -> None:
        n = params.nworkers
        require_int("mm-mds: k", self.k)
        require_int("mm-mds: load", self.load)
        if self.load < 1:
            raise ValueError(f"mm-mds: load must be >= 1, got {self.load}")
        if not 1 <= self.k < n * self.load:
            raise ValueError(
                f"mm-mds: k must satisfy 1 <= k < n*load, got k={self.k}, "
                f"n={n}, load={self.load}")

    def order_stat(self, params: SystemParams) -> tuple[ShiftedExp, int, int]:
        # the large-pool model: the k-th result overall is the first
        # level's k1-th; at load 1 that is k itself, which is MDS
        k1 = mm_k1(params, self.k, self.load)
        return params.whole_task().split(self.k), params.nworkers, k1

    def sample(self, params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.load == 1:
            return super().sample(params, rng, size)
        n, d = params.nworkers, params.whole_task().split(self.k)
        # the scratch bound, before any array is built; ranks reach n + 2
        windows = _windows(d, n, self.k, self.load)
        held = 2 * sum(b - a + 1 for a, b in windows)
        if held > MAX_SAMPLE_DRAWS or n + 2 > np.iinfo(np.int64).max:
            raise ValueError(f"{self.label} sampler: a row of its windows holds {held} doubles "
                             f"at n = {n}; the limits are {MAX_SAMPLE_DRAWS} and n < 2**63 - 2")
        return _multiset_sample(d, n, self.k, windows, rng, size)


def _cdf(d: ShiftedExp, x: float) -> float:
    return -math.expm1(-d.rate * (x - d.shift)) if x > d.shift else 0.0


def _windows(d: ShiftedExp, n: int, k: int, load: int) -> list[tuple[int, int]]:
    """Each level's window [a_m, b_m] of worker ranks near its crossing rank.

    The multiset is {m * X_i} over n workers i, with X_i ~ d, and queue
    positions m = 1..load; its k-th element S takes c_m elements from level
    m, the c_m smallest worker times times m, with sum c_m = k.  By time t
    level m holds N_m(t) ~ Bin(n, p_m) elements, p_m = F(t/m).  newton_root
    finds t0 with E[sum N_m(t0)] = k, with the slope n sum f(t/m) / m, in a
    median of 8 evaluations over random systems; to first order S = t0 +
    (k - sum N_m(t0)) / sum rho, with rho_m = n f(t0/m) / m the rate of
    level m, so c_m = N_m(t0) + w_m (k - sum N_l(t0)), w_m = rho_m / sum
    rho.  Its variance follows from Cov(N_m, N_l) = n (p_max(m,l) - p_m
    p_l), and the window is n p_m +- (Z sd(c_m) + 1) for Z = WINDOW_Z, cut
    to 1..n.  Any windows leave the sampler exact; these only make it fast.
    """
    levels = range(1, load + 1)

    def rates(t: float) -> list[float]:
        # rho_m over its common factor n * rate, which cannot overflow; from
        # a level's start on, so the first step, at t = shift, has a slope
        return [math.exp(-d.rate * (t / m - d.shift)) / m if t / m >= d.shift else 0.0
                for m in levels]

    def excess(t: float) -> tuple[float, float]:
        return n * sum(_cdf(d, t / m) for m in levels) - k, n * d.rate * math.fsum(rates(t))

    # the count is 0 at d.shift and n * load (in doubles) past load * (shift + 40/rate)
    t0 = newton_root(excess, d.shift, load * (d.shift + 40 / d.rate))[0]
    p = [_cdf(d, t0 / m) for m in levels]
    # where rho underflows at every level, each window keeps its level's own spread
    rho = rates(t0)
    rate = math.fsum(rho) or 1.0
    w = [r / rate for r in rho]
    # p falls with m, so p_max(m,l) is p at the larger index
    cov = [[n * (p[max(i, j)] - p[i] * p[j]) for j in range(load)] for i in range(load)]
    sums = [math.fsum(c) for c in cov]
    total = math.fsum(sums)
    out = []
    for i in range(load):
        var = cov[i][i] - 2 * w[i] * sums[i] + w[i] * w[i] * total
        half = WINDOW_Z * math.sqrt(max(var, 0.0)) + 1
        out.append((max(1, math.floor(n * p[i] - half)), min(n, math.ceil(n * p[i] + half))))
    return out


@dataclass(frozen=True)
class _WindowPlan:
    """Where a row's window order statistics sit, and how the k-th is read off them.

    ``ranks`` is the union of the windows' worker ranks, ascending; a row
    holds X_(j) for j in ``ranks``.  The union falls into segments of
    consecutive ranks; ``edges`` holds the positions in ``ranks`` of each
    segment's first and last rank, interleaved.  The pooled elements are
    m X_(j) for every rank j of level m's window: a pooled row holds each
    rank of ``ranks`` once, times ``scale``, the lowest level whose window
    holds it, then the ranks at the positions ``extra`` times
    ``extra_scale``, one column for each further window that shares a rank.
    ``lower`` and ``upper`` are the pooled columns of m X_(a_m) for a_m > 1
    and of m X_(b_m) for b_m < n, and ``col`` = k - sum(a_m - 1) - 1 is the
    column of the k-th element among the pooled ones once they are sorted.
    """

    ranks: np.ndarray
    edges: np.ndarray
    scale: np.ndarray
    extra: np.ndarray
    extra_scale: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    col: int


def _window_plan(windows: list[tuple[int, int]], n: int, k: int) -> _WindowPlan:
    """The plan of windows [a_m, b_m], level m = 1.. in order, at n workers."""
    # the union's segments of consecutive ranks, ascending
    segments: list[list[int]] = []
    for a, b in sorted(windows):
        if segments and a <= segments[-1][1] + 1:
            segments[-1][1] = max(segments[-1][1], b)
        else:
            segments.append([a, b])
    firsts = [a for a, _ in segments]
    offsets = list(itertools.accumulate((b - a + 1 for a, b in segments), initial=0))

    def column(rank: int) -> int:
        i = bisect.bisect_right(firsts, rank) - 1
        return offsets[i] + rank - firsts[i]

    ranks = np.concatenate([np.arange(a, b + 1) for a, b in segments])
    # each rank at the lowest level whose window holds it, so the windows
    # are written from the top level down; then the ranks each window
    # shares with a lower one, level by level
    spans = [(column(a), column(b) + 1) for a, b in windows]
    scale = np.empty(ranks.size)
    for m in range(len(windows), 0, -1):
        scale[slice(*spans[m - 1])] = m
    shared = [np.flatnonzero(scale[c:e] < m) + c for m, (c, e) in enumerate(spans, 1)]
    lower, upper, at = [], [], ranks.size
    for m, ((a, b), (c, e), extra) in enumerate(zip(windows, spans, shared), 1):
        # a window's lowest and highest ranks, if shared, are its first and
        # last extra columns
        if a > 1:
            lower.append(c if scale[c] == m else at)
        if b < n:
            upper.append(e - 1 if scale[e - 1] == m else at + extra.size - 1)
        at += extra.size
    return _WindowPlan(
        ranks=ranks,
        edges=np.array([[c, e - 1] for c, e in zip(offsets, offsets[1:])]).ravel(),
        scale=scale,
        extra=np.concatenate(shared),
        extra_scale=np.repeat(np.arange(1.0, len(windows) + 1), [e.size for e in shared]),
        lower=np.array(lower, dtype=np.intp),
        upper=np.array(upper, dtype=np.intp),
        col=k - sum(a for a, _ in windows) + len(windows) - 1)


def _window_kth(x: np.ndarray, plan: _WindowPlan) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k-th multiset element from its window order statistics, and
    whether the windows settle it.

    x holds a row's X_(j) at the plan's ranks.  The pooled elements m X_(j)
    are sorted and v is the one at ``col``.  v is the k-th of the whole
    multiset if it lies between every m X_(a_m) with a_m > 1 and every
    m X_(b_m) with b_m < n: then each level's elements below its window are
    at or below v and those above it at or above v, so exactly k elements
    are at or below v.  Rows where that fails are not settled, and neither
    is any row when ``col`` falls outside the pooled columns.
    """
    once = plan.ranks.size
    pooled = np.empty((x.shape[0], once + plan.extra.size))
    if not 0 <= plan.col < pooled.shape[1]:
        return np.full(x.shape[0], np.nan), np.zeros(x.shape[0], dtype=bool)
    np.multiply(x, plan.scale, out=pooled[:, :once])
    if plan.extra.size:
        np.multiply(np.take(x, plan.extra, axis=1), plan.extra_scale, out=pooled[:, once:])
    lo = pooled[:, plan.lower].max(axis=1, initial=-np.inf)
    hi = pooled[:, plan.upper].min(axis=1, initial=np.inf)
    pooled.sort(axis=1)
    v = pooled[:, plan.col]
    return v, (lo <= v) & (v <= hi)


def _multiset_sample(d: ShiftedExp, n: int, k: int, windows: list[tuple[int, int]],
                     rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws of the k-th smallest of the multiset {m * X_i}, by windows.

    The multiset is that of ``_windows``, at load = len(windows) >= 2.  A
    row draws the worker order statistics X_(j) at the windows' ranks from
    their joint law (Renyi 1953; David & Nagaraja, Order Statistics, 2003):
    the spacing X_(j) - X_(j-1) is an exponential of rate (n - j + 1) d.rate,
    independent across j.  So inside a segment of consecutive ranks the
    order statistics are scaled exponentials summed up, and the first rank
    u of a segment lies above the last known rank j (or d.shift) by the
    (u - j)-th smallest of n - j exponentials, log1p(G / G')/d.rate for
    gammas of shape u - j and n - u + 1 (see ``_os_sample``).  The windows
    settle most rows (see ``_window_kth``); the others widen their windows
    until they settle (see ``_settle``), after the last row or every
    WIDEN_DOUBLES first-pass doubles.  Every row is the worker mechanism's
    k-th in law, for any windows.
    """
    plan = _window_plan(windows, n, k)
    ranks, starts, ends = plan.ranks, plan.edges[0::2], plan.edges[1::2]
    # the spacing scale 1/(n - j + 1) of each rank j; a segment's first rank
    # takes its gamma jump instead, which overwrites that column's draw
    gaps = 1.0 / (n + 1 - ranks)
    # the last rank j below each segment's first rank u (0 for the first)
    below = np.concatenate([[0], ranks[ends][:-1]])
    spacing = ShiftedExp(0.0, d.rate)
    step = max(1, SCRATCH_DOUBLES // (2 * ranks.size + plan.extra.size))
    wait = max(1, WIDEN_DOUBLES // ranks.size)
    out = np.empty(size)
    missed, known = [], []
    rounds = [(windows, plan)]
    for a in range(0, size, ROW_BLOCK):
        block = out[a:a + ROW_BLOCK]
        jumps = _os_sample(spacing, n - below, ranks[starts] - below, rng, block.size)
        jumps[:, 0] += d.shift  # the cumulative sums carry it to every rank
        i = 0
        while i < block.size:
            rows = min(step, block.size - i, wait - (a + i) % wait)
            x = sample_batch(spacing, rng, (rows, ranks.size))
            x *= gaps
            x[:, starts] = jumps[i:i + rows]
            np.cumsum(x, axis=1, out=x)
            block[i:i + rows], ok = _window_kth(x, plan)
            missed.append(np.flatnonzero(~ok) + a + i)
            known.append(x[~ok])
            i += rows
            if (a + i) % wait == 0 or a + i == size:
                _settle(d, n, k, rng, rounds, out, missed, known)
                missed, known = [], []
    return out


def _settle(d: ShiftedExp, n: int, k: int, rng: np.random.Generator,
            rounds: list[tuple[list[tuple[int, int]], _WindowPlan]], out: np.ndarray,
            missed: list[np.ndarray], known: list[np.ndarray]) -> None:
    """Widen the windows of the rows at ``missed`` until each one settles.

    ``rounds`` holds the windows and plan of the first pass, then those of
    each round so far, and ``known`` the rows' X_(j) at the first plan's
    ranks.  Each round widens every window about its centre by
    WINDOW_GROWTH, and by one rank at least on each side, cut to [1, n]; a
    round past the end of ``rounds`` appends its own, so a call plans each
    round once.  A round draws the new ranks of the rows left (see
    ``_widen``) and writes the ones it settles to ``out``.
    """
    for r in itertools.count(1):
        if not (missed := np.concatenate(missed)).size:
            return
        if r == len(rounds):
            windows = rounds[-1][0]
            grow = [max(1, math.ceil((WINDOW_GROWTH - 1) * (b - a + 1) / 2)) for a, b in windows]
            windows = [(max(1, a - g), min(n, b + g)) for (a, b), g in zip(windows, grow)]
            rounds.append((windows, _window_plan(windows, n, k)))
        plan, wide = rounds[r - 1][1], rounds[r][1]
        step = max(1, SCRATCH_DOUBLES // (2 * wide.ranks.size + wide.extra.size))
        rows, x, missed, known = missed, np.concatenate(known), [], []
        for i in range(0, rows.size, step):
            wider = _widen(d, n, rng, plan, wide, x[i:i + step])
            out[rows[i:i + step]], ok = _window_kth(wider, wide)
            missed.append(rows[i:i + step][~ok])
            known.append(wider[~ok])


def _widen(d: ShiftedExp, n: int, rng: np.random.Generator, plan: _WindowPlan,
           wide: _WindowPlan, x: np.ndarray) -> np.ndarray:
    """Each row's X_(j) at the ranks of ``wide``, given x at those of ``plan``.

    Given the known order statistics, the ranks in a gap between known
    X_(i) < X_(h) (X_(0) = d.shift, X_(n+1) = inf) are those of h - i - 1
    i.i.d. draws from d truncated to (X_(i), X_(h)).  The t-th of them is the
    truncated inverse CDF X_(i) - log1p(q expm1(-rate (X_(h) - X_(i))))/rate
    at q = G_t / G_(h-i), for G_t the sum of t standard exponentials (David &
    Nagaraja, Order Statistics, 2003): each new rank takes one gamma, of
    shape its offset from the rank before it, and each gap one more.  Each
    segment of ``plan`` lies inside one of ``wide``, so the known ranks and
    each gap's new ones are runs of consecutive columns.
    """
    # the widened ranks between 0 and n + 1, whose X_(0) and X_(n+1) are known
    ranks = np.concatenate([[0], wide.ranks, [n + 1]])
    out = np.empty((x.shape[0], ranks.size))
    out[:, 0], out[:, -1] = d.shift, np.inf
    # each known segment's columns: [start, stop) in out, first column in x
    firsts = plan.edges[0::2].tolist()
    starts = np.searchsorted(ranks, plan.ranks[plan.edges[0::2]]).tolist()
    stops = [c + e - f + 1 for c, f, e in zip(starts, firsts, plan.edges[1::2].tolist())]
    for c, e, f in zip(starts, stops, firsts):
        out[:, c:e] = x[:, f:f + e - c]
    # each gap's new columns [a, b); column b holds the known rank above them
    gaps = [(a, b) for a, b in zip([1, *stops], [*starts, ranks.size - 1]) if a < b]
    # a gamma for each new rank and for the known rank that closes its gap,
    # of shape the rank's offset from the column before it, drawn row by
    # row, so the values do not depend on how the rows are split
    cols = np.concatenate([np.arange(0)] + [np.arange(a, b + 1) for a, b in gaps])
    g = rng.standard_gamma((ranks[cols] - ranks[cols - 1]).astype(float),
                           (x.shape[0], cols.size))
    i = 0
    for a, b in gaps:
        # G_t at the new ranks, then q = G_t / G_(h-i)
        new = np.cumsum(g[:, i:i + b - a], axis=1, out=out[:, a:b])
        new /= new[:, -1:] + g[:, i + b - a:i + b - a + 1]
        i += b - a + 1
        low = out[:, a - 1:a]
        new *= np.expm1(-d.rate * (out[:, b:b + 1] - low))
        np.log1p(new, out=new)
        new /= -d.rate
        new += low
    return out[:, 1:-1]


Scheme = Uncoded | Repetition | MDS | MultiMDS


def validate(scheme: Scheme, params: SystemParams) -> None:
    """Check scheme parameters against the worker pool; raise ValueError if bad."""
    if not isinstance(scheme, Scheme):
        raise TypeError(f"unknown scheme {scheme!r}")
    scheme.check(params)


def mm_k1(params: SystemParams, k: int, load: int) -> int:
    """First-level completion count k1 = round(alpha_1 * n), clamped to [1, n].

    The k-th overall result arrives exactly when the first level delivers
    its k1-th, so the analytic service time is the k1-th order statistic of
    the per-subtask runtimes.  A worker's m-th result follows its first, so
    any result at all brings a first-level one: k1 >= 1 even where the
    large-pool fraction rounds to 0.
    """
    validate(MultiMDS(k, load), params)
    if load == 1:
        # one level holds every result; the solver's alpha_1 = k/n would
        # round back to k only while k/n is exact
        return k
    n = params.nworkers
    return min(max(round(solve_levels(load, k / (n * load), params.mu_c)[0] * n), 1), n)


def service_moments(scheme: Scheme, params: SystemParams) -> ServiceMoments:
    """Exact (E[S], E[S^2]) of the scheme's service time."""
    validate(scheme, params)
    return scheme.moments(params)


def sample_service_batch(scheme: Scheme, params: SystemParams,
                         rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. service times from the mechanism's exact law.

    Every scheme but MultiMDS at load >= 2 draws from order-statistic laws:
    two gammas per service time (four for Repetition where k does not divide
    n) at any n.  MultiMDS at load >= 2 draws the worker order statistics in
    a window of ranks per level, and widens the windows of the rows they do
    not settle (about 1.8% at n = 100 and 4.8% at n = 1000), about 1.2 us
    per service time at n = 100 and 2.4 us at n = 1000.  Past its scratch
    bound (see MAX_SAMPLE_DRAWS) it raises ValueError.
    """
    validate(scheme, params)
    return scheme.sample(params, rng, size)
