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
so no other code dispatches on the scheme type.  ``order_stat``,
``moments`` and ``sample`` check nothing themselves: they assume parameters
that a public entry point (``service_moments``, ``sample_service_batch``,
or ``age_of`` through ``service_moments``) has already checked, so each
public call validates once.

Every scheme states its modelled service time as one order statistic, the
k-th smallest of N i.i.d. draws from a shifted exponential d, in an
``order_stat`` triple (d, N, k); its moments follow from that triple.  For
Repetition the triple gives every group n/k replicas, exact only where k
divides n; for MultiMDS it is the large-pool model: the k-th result overall
arrives with the first level's k1-th (see ``levels._first_count``), and at
load 1 it is the MDS triple.  Samples come from order-statistic laws in
O(1) per service time (see ``_os_sample``), not from N worker draws: one
uniform for the largest of N, Uncoded's, at any n; two for Repetition
where k does not divide n (the larger of two group maxima); j uniforms for
the j-th largest up to j = _TOP_RANKS, MDS's at k > N - _TOP_RANKS; two
gammas further down.  MultiMDS at load >= 2 draws only the worker
order statistics in a window of ranks around each level's share of the
k-th result (see ``_multiset_sample``): one jump per run of consecutive
ranks, by the law above, and one exponential per rank, summed a rank at a
time over a rank-major chunk; the k-th is read off the ascending windows
by a min of maxima, with a sort only of the windows above level 1 at load
>= 3 (see ``_window_kth``).  A row the windows leave unsettled draws one
uniform per rank it adds (see ``_widen``).  The plans are kept for calls
at one point (see ``_Layout``).
The README gives the measured time per service time of each.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .levels import Infeasible, NoConvergence, _first_count, _mm_split, require_int
from .order_stats import ShiftedExp, _log1m, os_mean, os_var


# Most doubles a row of the MultiMDS sampler at load >= 2 may hold: X_(j) at
# each window rank and m X_(j) per level, twice the windows' summed widths.
# That grows as WINDOW_Z sqrt(n): MultiMDS(1.287 n, 2) at c = mu = 1 reaches
# it near n = 2.7e13.  The order-statistic laws have no such bound.
MAX_SAMPLE_DRAWS = 1 << 24
# Doubles of scratch per row chunk of the MultiMDS sampler at load >= 2:
# 512 KiB, so the scratch stays in a core's L2 cache.  numpy holds more on
# top of these doubles.  Under numpy 2.4.6 a ufunc call buffers 64 KiB for
# each broadcast or reversed 2-D operand, so ``u *= coef`` on a chunk's
# draws holds 64 KiB more; a ufunc with a transposed operand, such as
# writing ``u.T * coef`` into the rank-major chunk, held 128 KiB, while the
# copy ``x[...] = u.T`` holds none, so the chunk takes its draws by a copy
# once they are scaled.  At load >= 3, np.take gathers the other windows
# from a row-major copy of the chunk that it makes first, and
# ``chunk_rows`` counts that copy.
SCRATCH_DOUBLES = 1 << 16
# Half-width of each level's window of worker ranks in the MultiMDS sampler,
# in standard deviations of the level's crossing rank, plus one rank (see
# _windows), and the factor by which each round widens the windows of the
# rows they leave unsettled (see _multiset_sample).  A first-pass rank costs
# about 11 ns at n = 1000 (15 ns at n = 100) and a widened row about 0.7 us,
# plus about 65 us per round, so narrow windows win: these leave about 1.8%
# of rows unsettled at n = 100 and 4.8% at n = 1000 (MultiMDS(129, 2) and
# MultiMDS(1287, 2)).  Of the pairs tried, Z from 1 to 3 and growth from
# 1.25 to 3, they gave the least geometric mean time per service time over
# n = 100, 1000 and 1e4 at loads 2 and 4.
WINDOW_Z = 1.75
WINDOW_GROWTH = 1.5
# First-pass doubles of a block of the MultiMDS sampler: a block of
# WIDEN_DOUBLES // (window ranks) service times draws its jump to each
# segment's first rank, segment by segment (see _os_sample), then its
# in-window spacings, and then widens the windows of the rows they leave
# unsettled.  So 8 MiB of rows wait at most, 4097 service times at n <= 1e4
# and load 2 widen once, and the values do not depend on SCRATCH_DOUBLES.
WIDEN_DOUBLES = 1 << 20
# Columns of a rank-major chunk from which _sum_ranks adds its rows one numpy
# call each rather than in one np.cumsum down axis 0 (see _sum_ranks)
_ROW_ADDS = 256

# Most ranks from the top, j = n - k + 1, at which _os_sample draws the k-th
# of n from j uniforms rather than two gammas.  Each uniform costs about 5 to
# 8 ns per service time and the two gammas 45 to 70 ns, whatever the ranks:
# at n = 10, 100 and 1000, j uniforms took 0.91 to 0.95 times as long as two
# gammas at j = 8 and 1.02 to 1.06 times at j = 9 (see the README's table)
_TOP_RANKS = 8


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

    Near the top, at j = n - k + 1 <= _TOP_RANKS, the k-th of n uniforms is
    U_(k) = prod_{i<j} V_i^(1/(n-i)) for j independent uniforms V_i (David &
    Nagaraja, Order Statistics, 2003), so the inverse CDF maps it to d.shift
    - log(-expm1(sum_{i<j} log(V_i)/(n-i)))/d.rate.  The call draws its V_i
    a ``size`` row at a time into one scratch row, and a V_i = 0 gives
    d.shift itself, so no draw is infinite.  At j = 1, the largest, that is
    the inverse of F(x)^n at one uniform.  Further down, the k-th of n
    uniforms is B = G_k / (G_k + G_{n-k+1}) for independent standard gammas,
    and the inverse CDF maps it to d.shift - log(1 - B)/d.rate, which is
    d.shift + log1p(G_k / G_{n-k+1})/d.rate: no difference cancels at any
    n.  n and k are scalars: the call draws all ``size`` of its G_k at one
    scalar shape, then all of its G_{n-k+1}, since numpy draws gammas at an
    array of shapes through a slower per-element loop.  So a sample's values
    depend on the size of the call that drew it; the MultiMDS segment jumps,
    drawn a block of rows per call, do not depend on how a run is chunked.
    n, n - i and the shapes are converted to doubles first, so Python
    integers past 2**63 work too.
    """
    if n - k < _TOP_RANKS:
        x = rng.random(size)
        with np.errstate(divide="ignore"):  # log(0) = -inf, which maps to d.shift
            np.log(x, out=x)
            x /= float(n)
            if n > k:
                v = np.empty(size)
                for i in range(1, n - k + 1):
                    np.log(rng.random(out=v), out=v)
                    v /= float(n - i)
                    x += v
        np.expm1(x, out=x)
        np.negative(x, out=x)
        np.log(x, out=x)
        x /= -d.rate
        x += d.shift
        return x
    x = rng.standard_gamma(float(k), size)
    x /= rng.standard_gamma(float(n - k + 1), size)
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
        require_int(f"{self.label}: k", self.k)
        if not 1 <= self.k <= n:
            raise ValueError(f"{self.label}: k must satisfy 1 <= k <= n, got k={self.k}, n={n}")

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
        require_int(f"{self.label}: k", self.k)
        if self.k < 1:
            raise ValueError(f"{self.label}: k must be >= 1, got k={self.k}")
        if self.k >= params.nworkers:
            raise ValueError(f"{self.label}: k must be < n, got k={self.k}, n={params.nworkers}")

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
        require_int(f"{self.label}: k", self.k)
        require_int(f"{self.label}: load", self.load)
        if self.load < 1:
            raise ValueError(f"{self.label}: load must be >= 1, got {self.load}")
        if not 1 <= self.k < n * self.load:
            raise ValueError(
                f"{self.label}: k must satisfy 1 <= k < n*load, got k={self.k}, "
                f"n={n}, load={self.load}")

    def order_stat(self, params: SystemParams) -> tuple[ShiftedExp, int, int]:
        # the large-pool model: the k-th result overall is the first
        # level's k1-th.  At load 1 that is k itself, which is MDS; the
        # split's alpha_1 = k/n would round back to k only while k/n is exact
        n = params.nworkers
        k1 = self.k if self.load == 1 else _first_count(
            _mm_split(n, self.load, self.k, params.mu_c)[0], n)
        return params.whole_task().split(self.k), n, k1

    def sample(self, params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.load == 1:
            return super().sample(params, rng, size)
        layout = _layout(params.nworkers, self.k, self.load, params.mu_c, WINDOW_Z,
                         WINDOW_GROWTH, MAX_SAMPLE_DRAWS)
        return _multiset_sample(params.whole_task().split(self.k), layout, rng, size)


def _windows(n: int, k: int, load: int, mu_c: float, z: float) -> list[tuple[int, int]]:
    """Each level's window [a_m, b_m] of worker ranks near its crossing rank.

    The multiset is {m * X_i} over n workers i, with X_i ~ d = ShiftedExp(c/k,
    k mu), and queue positions m = 1..load; its k-th element S takes c_m
    elements from level m, the c_m smallest worker times times m, with sum
    c_m = k.  By time t level m holds N_m(t) ~ Bin(n, p_m), p_m = F(t/m),
    and -log(1 - p_m) = (k mu t - m mu c)/m is the chain's beta_m at beta_1
    = k mu t - mu c: so at the time t0 with E[sum N_m(t0)] = k the p_m are
    the large-pool level split (levels._mm_split), and level m's rate n
    f(t0/m)/m is proportional to rho_m = (1 - p_m)/m over the open levels.
    To first order S = t0 + (k - sum N_m(t0)) / sum rho, so c_m = N_m(t0) +
    w_m (k - sum N_l(t0)), w_m = rho_m / sum rho.  p falls with m, so one
    worker's level count L has P(L >= m) = p_m, and the variance of c_m
    follows from L's moments in O(load): Var(sum N) = n Var(L) and
    Cov(N_m, sum N) = n (m p_m + sum_{j>m} p_j - p_m E[L]).  The window is n
    p_m +- (z sd(c_m) + 1), cut to 1..n.  Where the split raises, only where
    (load - 1) mu c is above about 4e6 or overflows, p takes its mu c -> inf
    limit, in which the levels fill in turn.  Any windows leave the sampler
    exact; these only make it fast.
    """
    levels = range(1, load + 1)
    try:
        p = _mm_split(n, load, k, mu_c)
    except (Infeasible, NoConvergence):
        p = [min(1.0, max(0.0, k / n - m + 1)) for m in levels]
    rho = [(1.0 - q) / m if q > 0.0 else 0.0 for m, q in zip(levels, p)]
    # where every open level is full, each window keeps its level's own spread
    rate = math.fsum(rho) or 1.0
    mean = math.fsum(p)
    total = n * (math.fsum((2 * m - 1) * q for m, q in zip(levels, p)) - mean * mean)
    # sum_{j>m} p_j at each level m
    above = list(itertools.accumulate(reversed(p), initial=0.0))[-2::-1]
    out = []
    for m, q, r, rest in zip(levels, p, rho, above):
        w, cov = r / rate, n * (m * q + rest - q * mean)  # cov = Cov(N_m, sum N)
        var = n * (q - q * q) - 2 * w * cov + w * w * total
        half = z * math.sqrt(max(var, 0.0)) + 1
        out.append((max(1, math.floor(n * q - half)), min(n, math.ceil(n * q + half))))
    return out


@dataclass(frozen=True)
class _WindowPlan:
    """Where a chunk's window order statistics sit, and how the k-th is read off them.

    A chunk is rank-major: its row c holds X_(j) at rank j = ``ranks[c]``
    for each of its service times.  ``ranks`` is the union of the level
    ``windows`` [a_m, b_m], ascending, in segments of consecutive ranks
    whose first and last rows are ``starts`` and ``ends``.  Level 1's
    window is rows ``head``; ``rest`` are the rows of the other windows,
    window by window, and ``rest_scale`` their levels m, so a rank that
    two windows share appears once per window.  ``edges`` are the rows of
    X_(a_m) for a_m > 1, the first ``lows`` of them, then of X_(b_m) for
    b_m < n, and ``edge_scale`` their levels, a column.  ``col`` = k -
    sum(a_m - 1) - 1 is the k-th's position among the windows' pooled
    elements m X_(j).  The arrays are read-only.
    """

    windows: tuple[tuple[int, int], ...]
    ranks: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    head: tuple[int, int]
    rest: np.ndarray
    rest_scale: np.ndarray
    edges: np.ndarray
    edge_scale: np.ndarray
    lows: int
    col: int

    def __post_init__(self) -> None:
        for array in (v for v in vars(self).values() if isinstance(v, np.ndarray)):
            array.setflags(write=False)

    def chunk_rows(self) -> int:
        """Rows per chunk of at most SCRATCH_DOUBLES doubles: each row's
        X_(j) at ``ranks``, and with them its uniforms while the chunk is
        drawn, then what ``_window_kth`` holds while the k-th is read off:
        its window ends, and its other windows' elements at load >= 3 with
        the row-major copy of the chunk that np.take gathers them from, or
        at most one element per rank at load 2."""
        ranks, rest = self.ranks.size, self.rest.size
        if len(self.windows) > 2:
            rest += ranks
        return max(1, SCRATCH_DOUBLES // (ranks + max(ranks, rest, self.edges.size)))


def _window_plan(windows: list[tuple[int, int]], n: int, k: int) -> _WindowPlan:
    """The plan of windows [a_m, b_m], level m = 1.. in order, at n workers."""
    # the union's segments of consecutive ranks, ascending
    segments: list[list[int]] = []
    for a, b in sorted(windows):
        if segments and a <= segments[-1][1] + 1:
            segments[-1][1] = max(segments[-1][1], b)
        else:
            segments.append([a, b])
    ranks = np.concatenate([np.arange(a, b + 1) for a, b in segments])
    starts, ends = np.searchsorted(ranks, np.array(segments).T)
    # each window's first and last rows; the rows and levels of windows 2..
    lows, highs = np.array(windows).T
    firsts, lasts = np.searchsorted(ranks, (lows, highs))
    sizes = (lasts - firsts + 1)[1:]
    stops = np.cumsum(sizes)
    levels = np.arange(1.0, len(windows) + 1)
    lower, upper = lows > 1, highs < n
    return _WindowPlan(
        windows=tuple(windows), ranks=ranks, starts=starts, ends=ends,
        head=(int(firsts[0]), int(lasts[0]) + 1),
        rest=np.arange(sizes.sum()) + np.repeat(firsts[1:] + sizes - stops, sizes),
        rest_scale=np.repeat(levels[1:], sizes),
        edges=np.concatenate([firsts[lower], lasts[upper]]),
        edge_scale=np.concatenate([levels[lower], levels[upper]])[:, None],
        lows=int(lower.sum()), col=k - sum(a for a, _ in windows) + len(windows) - 1)


@dataclass(frozen=True)
class _Widening(_WindowPlan):
    """A widening round's plan, and how ``_widen`` fills it: among its ranks framed by 0
    and n + 1, the round before's are rows ``known``.  ``gaps`` holds (c, i, h, m, s1, s2)
    for each gap between known ranks i < h that holds new ones: c is the row of X_(i),
    and of its m = h - i - 1 ranks the round draws the bottom run i + 1..i + s1 and the
    top run h - s2..h - 1.  ``scales`` holds the spacing scales of the bottom runs,
    1/(m - t) for t = 0..s1 - 1, gap by gap, then of the top runs, 1/(m - s1 - q) for
    q = 0..s2 - 1 from rank h - 1 down, in the order ``_widen`` draws them, and
    ``drawn`` the framed row of each."""

    known: np.ndarray
    gaps: tuple[tuple[int, int, int, int, int, int], ...]
    scales: np.ndarray
    drawn: np.ndarray


def _widening(below: _WindowPlan, windows: list[tuple[int, int]], n: int,
              k: int) -> _Widening:
    """The plan of a round whose ``windows`` widen those of ``below``.

    Each window contains its old one, so the new ranks of a gap are a run
    from its lower known rank up and a run from its upper one down; a gap
    of any other shape, or a round that drops a known rank, raises
    ValueError.  Where the runs meet, the gap is one bottom run.
    """
    plan = _window_plan(windows, n, k)
    framed = np.concatenate([[0], plan.ranks, [n + 1]])
    known = np.searchsorted(framed, below.ranks)
    if framed[known].tolist() != below.ranks.tolist():
        raise ValueError("a widening round must keep the ranks of the round before")
    # the known rows c < e around each gap: the frame, then the segments'
    heads, tails = known[below.starts].tolist(), known[below.ends].tolist()
    ranks, gaps, bottoms, tops, ups, downs = framed.tolist(), [], [], [], [], []
    for c, e in zip([0, *tails], [*heads, framed.size - 1]):
        i, h, new = ranks[c], ranks[e], ranks[c + 1:e]
        if not new:
            continue
        # the ranks are ascending and distinct: the bottom run is the longest
        # prefix i + 1, i + 2, ..., and the rest a top run if it ends at h - 1
        s1 = next((t for t, j in enumerate(new) if j != i + 1 + t), len(new))
        s2 = len(new) - s1
        if s2 and new[s1] != h - s2:
            raise ValueError(f"the new ranks {new} between known ranks {i} and {h} "
                             "are not a bottom run and a top run")
        m = h - i - 1
        gaps.append((c, i, h, m, s1, s2))
        bottoms.append(1.0 / (m - np.arange(s1, dtype=float)))
        tops.append(1.0 / (m - s1 - np.arange(s2, dtype=float)))
        ups.append(np.arange(c + 1, c + 1 + s1))
        downs.append(np.arange(e - 1, e - 1 - s2, -1))
    return _Widening(**vars(plan), known=known, gaps=tuple(gaps),
                     scales=np.concatenate([np.empty(0), *bottoms, *tops]),
                     drawn=np.concatenate([np.empty(0, dtype=np.intp), *ups, *downs]))


def _grown(windows: "tuple[tuple[int, int], ...]", n: int,
           growth: float) -> list[tuple[int, int]]:
    """``windows`` widened about their centres by ``growth``, a rank at least
    each side, cut to [1, n]."""
    grow = [max(1, math.ceil((growth - 1) * (b - a + 1) / 2)) for a, b in windows]
    return [(max(1, a - g), min(n, b + g)) for (a, b), g in zip(windows, grow)]


class _Layout:
    """The window sampler's read-only plans at a point, a pure function of it:
    ``first``, over ``_windows`` at Z, with each rank j's ``spacing_scale``
    1/(n - j + 1) and each segment's ``jumps`` (see ``_multiset_sample``), and
    ``widening(r)``, built once, round r - 1's windows widened by ``growth``
    (see ``_grown``).  Past ``limit`` doubles a row it raises before it
    builds an array.  ``_layout`` keeps the last point's: callers sample one
    point many times in a row, and a layout can hold 256 MiB and more."""

    def __init__(self, n: int, k: int, load: int, mu_c: float, z: float, growth: float,
                 limit: int):
        windows = _windows(n, k, load, mu_c, z)
        if (held := 2 * sum(b - a + 1 for a, b in windows)) > limit or n + 2 > 2**63 - 1:
            raise ValueError(f"{MultiMDS.label} sampler: a row of its windows holds {held} doubles "
                             f"at n = {n}; the limits are {limit} and n < 2**63 - 2")
        self.n, self.k, self.growth = n, k, growth
        self.first = plan = _window_plan(windows, n, k)
        self.spacing_scale = 1.0 / (n + 1 - plan.ranks)
        self.spacing_scale.setflags(write=False)
        # the last rank j below each segment's first rank u, or 0
        prior = np.concatenate([[0], plan.ranks[plan.ends][:-1]])
        self.jumps = tuple(zip((n - prior).tolist(), (plan.ranks[plan.starts] - prior).tolist()))
        self._widenings: dict[int, _Widening] = {}

    def widening(self, r: int) -> _Widening:
        if (got := self._widenings.get(r)) is not None:
            return got
        below = self.first if r == 1 else self.widening(r - 1)
        windows = _grown(below.windows, self.n, self.growth)
        # setdefault keeps one plan per round where threads race to build it
        return self._widenings.setdefault(r, _widening(below, windows, self.n, self.k))


_layout = functools.lru_cache(maxsize=1)(_Layout)


def _sum_ranks(x: np.ndarray) -> np.ndarray:
    """x[j] += x[j - 1] down the rows of a rank-major chunk, in place: each
    rank's spacing sum.  A row add costs about 0.6 us a call and 0.3 ns a
    value, np.cumsum down axis 0 about 3 ns a value, so a chunk of fewer
    than _ROW_ADDS columns takes the cumsum; both make the same additions in
    the same order, so the values do not depend on the chunk's width."""
    if x.shape[1] < _ROW_ADDS:
        return np.cumsum(x, axis=0, out=x)
    for j in range(1, x.shape[0]):
        x[j] += x[j - 1]
    return x


def _window_kth(x: np.ndarray, plan: _WindowPlan) -> tuple[np.ndarray, np.ndarray]:
    """Each column's k-th multiset element from its window order statistics,
    and whether the windows settle it.

    x is a rank-major chunk at the plan's ranks: a column per service time.
    Each window's elements m X_(j) are ascending, so the K-th of the pooled
    elements, K = ``col`` + 1, is the K-th of the union of level 1's window
    A and the rest B, min over i of max(A_i, B_{K-i}) with A_0 = B_0 = -inf,
    for 0 <= i <= |A| and 0 <= K - i <= |B|.  At load 2, B is level 2's
    window times 2, ascending as drawn; at load >= 3 it pools the other
    windows and is sorted first.  v is the k-th of the whole multiset if it
    lies between every m X_(a_m) with a_m > 1 and every m X_(b_m) with
    b_m < n: then each level's elements below its window are at or below v
    and those above it at or above v, so exactly k elements are at or below
    v.  Columns where that fails are not settled, and neither is any column
    when ``col`` falls outside the pooled elements.
    """
    a = x[plan.head[0]:plan.head[1]]
    p, q, k = a.shape[0], plan.rest.size, plan.col + 1
    if not 0 < k <= p + q:
        return np.full(x.shape[1], np.nan), np.zeros(x.shape[1], dtype=bool)
    ends = np.take(x, plan.edges, axis=0)
    ends *= plan.edge_scale
    lo = ends[:plan.lows].max(axis=0, initial=-np.inf)
    hi = ends[plan.lows:].min(axis=0, initial=np.inf)
    del ends
    if len(plan.windows) == 2:  # B_i is b[i - 1] times 2
        b, scale = x[plan.rest[0]:plan.rest[-1] + 1], 2.0
    else:
        b = np.take(x.T, plan.rest, axis=1)
        b *= plan.rest_scale
        b.sort(axis=1)
        b, scale = b.T, 1.0
    # the terms max(A_i, B_{K-i}) a row each from i = i0 to min(|A|, K - 1):
    # B_K alone first where i0 = 0, then one pair a row; A_K last.  numpy
    # runs its inner loops along the last axis, and a loop costs more than a
    # strided read, so a chunk narrower than its terms transposes them
    i0, j, first = max(0, k - q), min(p, k - 1), int(k <= q)
    bk, ai = b[k - j - 1:k - i0][::-1], a[i0 - 1 + first:j]  # B_{K-i} and A_i
    axis = int(x.shape[1] < bk.shape[0])
    if axis:
        bk, ai = bk.T, ai.T
    terms = np.multiply(bk, scale, out=np.empty(bk.shape))
    pairs = terms[:, first:] if axis else terms[first:]
    np.maximum(pairs, ai, out=pairs)
    v = terms.min(axis=axis)
    if k <= p:
        np.minimum(v, a[k - 1], out=v)
    return v, (lo <= v) & (v <= hi)


def _multiset_sample(d: ShiftedExp, layout: _Layout, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """``size`` draws of the k-th smallest of the multiset {m * X_i}, by windows.

    The multiset is that of ``_windows``, at load >= 2, and ``layout`` its
    point's plans (see ``_Layout``).  A row draws the worker order
    statistics X_(j) at the windows' ranks from their joint law (Renyi 1953;
    David & Nagaraja, Order Statistics, 2003): the spacing X_(j) - X_(j-1)
    is an exponential of rate (n - j + 1) d.rate, independent across j.  So
    inside a segment of consecutive ranks the order statistics are unit
    exponentials -log1p(-u), each times spacing_scale/d.rate, summed up,
    and the first rank u of a segment lies above the last known rank j (or
    d.shift) by the (u - j)-th smallest of n - j exponentials,
    log1p(G / G')/d.rate for gammas of shape u - j and n - u + 1, or from
    n - u + 1 uniforms where that is at most _TOP_RANKS (see
    ``_os_sample``).  A block of WIDEN_DOUBLES first-pass doubles draws its
    jumps, a row per segment, then its rows chunk by chunk into one
    rank-major buffer, a row per rank and a column per service time: a
    chunk's uniforms are drawn a row per service time, scaled, and copied in
    transposed, so each rank's spacing sum is one contiguous row add (see
    ``_sum_ranks``).  The windows settle most rows (see ``_window_kth``); at
    the end of the block the others widen their windows until they settle
    (see ``_settle``).  Every row is the worker mechanism's k-th in law, for
    any windows.
    """
    plan, spacing = layout.first, ShiftedExp(0.0, d.rate)
    step, wait = plan.chunk_rows(), max(1, WIDEN_DOUBLES // plan.ranks.size)
    coef = layout.spacing_scale / -d.rate
    out = np.empty(size)
    for a in range(0, size, wait):
        block = out[a:a + wait]
        jumps = np.empty((plan.starts.size, block.size))
        for c, (m, u) in enumerate(layout.jumps):
            jumps[c] = _os_sample(spacing, m, u, rng, block.size)
        jumps[0] += d.shift  # the spacing sums carry it to every rank
        missed, known = [], []
        chunk = np.empty((plan.ranks.size, min(step, block.size)))
        for i in range(0, block.size, step):
            u = _log1m(rng.random((min(step, block.size - i), plan.ranks.size)))
            u *= coef
            x = chunk[:, :u.shape[0]]
            x[...] = u.T
            del u
            # a segment's first rank takes its jump, which overwrites its spacing
            x[plan.starts] = jumps[:, i:i + step]
            block[i:i + step], ok = _window_kth(_sum_ranks(x), plan)
            miss = (~ok).nonzero()[0]
            missed.append(miss + a + i)
            known.append(x[:, miss])
        del jumps, chunk, x
        _settle(d, rng, layout, out, missed, known)
    return out


def _settle(d: ShiftedExp, rng: np.random.Generator, layout: _Layout, out: np.ndarray,
            missed: list[np.ndarray], known: list[np.ndarray]) -> None:
    """Widen the windows of the rows at ``missed``, whose X_(j) at the ranks of
    ``layout.first`` are the rank-major columns ``known``, until each settles: round r
    draws the new ranks of ``layout.widening(r)`` (see ``_widen``) and writes the rows it
    settles to ``out``."""
    for r in itertools.count(1):
        if not (missed := np.concatenate(missed)).size:
            return
        wide = layout.widening(r)
        step = wide.chunk_rows()
        rows, x, missed, known = missed, np.concatenate(known, axis=1), [], []
        for i in range(0, rows.size, step):
            wider = _widen(d, rng, wide, x[:, i:i + step])
            out[rows[i:i + step]], ok = _window_kth(wider, wide)
            miss = (~ok).nonzero()[0]
            missed.append(rows[i:i + step][miss])
            known.append(wider[:, miss])


def _widen(d: ShiftedExp, rng: np.random.Generator, wide: _Widening, x: np.ndarray) -> np.ndarray:
    """Each column's X_(j) at the ranks of round ``wide``, given x at the round before's.

    x and the result are rank-major, a column per row of the sample.  Given
    the known order statistics, the m = h - i - 1 ranks in a gap between
    known X_(i) < X_(h) (X_(0) = d.shift, X_(n+1) = inf) are those of m
    i.i.d. draws from d truncated to (X_(i), X_(h)): the truncated inverse
    CDF X_(i) - log((1 - P) + (1 - U) P)/d.rate, at P = -expm1(-d.rate
    (X_(h) - X_(i))), of the order statistics U of m uniforms.  A gap's
    bottom run takes Renyi's spacings upward: 1 - U at rank i + t + 1 is
    exp(-Y), Y the sum of E_q/(m - q) over q <= t for standard exponentials
    E_q.  Its top run takes the top-rank product form downward over the
    m - s1 uniforms the bottom run leaves above its U = u0 (or 0): 1 - U at
    rank h - p - 1 is (1 - u0)(-expm1(log W)), log W the sum of
    log(W_q)/(m - s1 - q) over q <= p for uniforms W_q (David & Nagaraja,
    Order Statistics, 2003).  At h = n + 1, P = 1, and a bottom rank is
    X_(i) + Y/d.rate, so no difference cancels at the top ranks.  Each
    column draws its uniforms in turn, a row of them, and each scaled draw
    moves to its rank's row, so the values do not depend on how the columns
    are split, and every run's sum is contiguous row adds (see
    ``_sum_ranks``); the arithmetic runs in place in the returned rows.
    """
    if not wide.gaps:  # a round that adds no rank draws nothing
        return x
    rate = d.rate
    out = np.empty((wide.ranks.size + 2, x.shape[1]))
    out[0], out[-1] = d.shift, np.inf
    out[wide.known] = x
    # minus exponentials for the bottom runs, then log W for the top runs,
    # each times its scale, at its rank's row: top runs from rank h - 1 down
    u = rng.random((x.shape[1], wide.scales.size))
    top = sum(s1 for *_, s1, _ in wide.gaps)
    _log1m(u[:, :top])
    with np.errstate(divide="ignore"):  # log(0) = -inf puts a top rank at u0
        np.log(u[:, top:], out=u[:, top:])
    u *= wide.scales
    out[wide.drawn] = u.T
    del u
    for c, _, _, _, s1, s2 in wide.gaps:
        e = c + s1 + s2 + 1
        low = out[c]
        p = out[e] - low
        p *= -rate
        q = np.exp(p)  # 1 - P
        np.expm1(p, out=p)  # -P
        if s1:
            y = _sum_ranks(out[c + 1:c + 1 + s1])
            np.exp(y, out=y)  # 1 - U
        if s2:
            w = _sum_ranks(out[e - s2:e][::-1])  # log W, from rank h - 1 down
            np.expm1(w, out=w)
            w *= p * y[-1] if s1 else p  # (1 - U) P
        if s1:
            y *= -p  # (1 - U) P
        new = out[c + 1:e]
        new += q
        np.log(new, out=new)
        new /= -rate
        new += low
    return out[1:-1]


Scheme = Uncoded | Repetition | MDS | MultiMDS


def validate(scheme: Scheme, params: SystemParams) -> None:
    """Check scheme parameters against the worker pool; raise ValueError if bad."""
    if not isinstance(scheme, Scheme):
        raise TypeError(f"unknown scheme {scheme!r}")
    scheme.check(params)


def service_moments(scheme: Scheme, params: SystemParams) -> ServiceMoments:
    """Exact (E[S], E[S^2]) of the scheme's service time."""
    validate(scheme, params)
    return scheme.moments(params)


def sample_service_batch(scheme: Scheme, params: SystemParams,
                         rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. service times from the mechanism's exact law.

    Every scheme but MultiMDS at load >= 2 draws from order-statistic laws
    at any n: one uniform per service time for Uncoded and Repetition (two
    where k does not divide n); for MDS and MultiMDS at load 1, n - k + 1
    uniforms where that is at most 8 (see ``_os_sample``), two gammas below.
    MultiMDS at load >= 2 draws the worker order statistics in a window of
    ranks per level, one exponential spacing per rank, and widens the
    windows of the rows they do not settle (about 1.8% at n = 100 and 4.8%
    at n = 1000) by one uniform per new rank, with no gamma.  The README
    gives the measured time per service time.  Past its scratch bound (see
    MAX_SAMPLE_DRAWS) it raises ValueError.
    """
    validate(scheme, params)
    return scheme.sample(params, rng, size)
