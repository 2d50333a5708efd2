"""Service-time moments and samplers for every distribution scheme."""
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, PCG64

from coded_aoi import (
    MDS,
    MultiMDS,
    Repetition,
    SystemParams,
    Uncoded,
    harmonic,
    os_var,
    sample_service_batch,
    service_moments,
)
from coded_aoi import schemes
from coded_aoi.levels import NoConvergence, solve_levels
from coded_aoi.schemes import MAX_SAMPLE_DRAWS, validate
from schemes_reference import (
    law_sample,
    mechanism_sample,
    model_k1,
    multiset_kth,
    order_stat,
    pooled_kth,
    windows as reference_windows,
    with_mechanism,
)


# most ranks from the top, j = n - k + 1, that the order-statistic law draws
# from j uniforms
TOP_RANKS = schemes._TOP_RANKS


def rng(seed):
    return Generator(PCG64(seed))


def params(lam=1.0, c=1.0, mu=1.0, n=100):
    return SystemParams(lam, c, mu, n)


def sampler_windows(scheme, p):
    """The windows a sample call of MultiMDS ``scheme`` at ``p`` starts from."""
    return schemes._windows(p.nworkers, scheme.k, scheme.load, p.mu_c, schemes.WINDOW_Z)


class FixedUniform:
    """Hands out the given uniform value for every draw of a random call."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None, out=None):
        if out is None:
            return np.full(size, self.value)
        out.fill(self.value)
        return out


class GammaShapes:
    """A generator that records the shape of every standard_gamma call."""

    def __init__(self, rng, shapes):
        self.rng, self.shapes = rng, shapes

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)

    def standard_gamma(self, shape, size=None):
        self.shapes.append(shape)
        return self.rng.standard_gamma(shape, size)


@pytest.mark.parametrize("scheme, n", [
    (Uncoded(), 1), (Uncoded(), 100),
    (Repetition(1), 100), (Repetition(4), 100), (Repetition(50), 100),
    (Repetition(100), 100), (Repetition(1), 1000), (Repetition(500), 1000),
    (MDS(1), 100), (MDS(69), 100), (MDS(99), 100),
    (MultiMDS(30, 1), 100),
])
def test_sampler_is_bitwise_equal_to_reference(scheme, n):
    # single-level service times come from the order statistic's law, here
    # written out from the tests' own (d, n, k) triples; MultiMDS at load
    # >= 2 is checked in distribution against the worker mechanism below
    p = params(mu=0.5, n=n)
    for seed, size in ((31, 1), (32, 7), (33, 700)):
        got = sample_service_batch(scheme, p, rng(seed), size)
        want = law_sample(scheme, p, rng(seed), size)
        assert got.shape == want.shape
        assert (got == want).all()


# MultiMDS at load >= 2 draws only the elements of its multiset near the
# k-th; with MultiMDS(399, 4) at n = 100, mu = 2 below, these points cover
# loads 2, 3 and 4 and pools of 7 to 1000 workers
MULTISET_POINTS = [
    (MultiMDS(129, 2), params(n=100)),
    (MultiMDS(1287, 2), params(n=1000)),
    (MultiMDS(30, 2), params(n=20)),
    (MultiMDS(5, 3), params(n=7)),
    (MultiMDS(129, 3), params(mu=0.5, n=100)),
]


def against_mechanism(scheme, p, seeds=8, size=20_000):
    """Pooled sampler draws, after multi-seed KS and moment gates against the mechanism.

    Each seed pairs a sampler run with an independent mechanism run; for one
    law the KS p-values are uniform, so their own KS test against U(0, 1)
    must not reject, and the pooled first and second moments must agree
    within four standard errors.
    """
    stats = pytest.importorskip("scipy.stats")
    got, want, pvalues = [], [], []
    for seed in range(seeds):
        got.append(sample_service_batch(scheme, p, rng(300 + seed), size))
        want.append(mechanism_sample(scheme, p, rng(400 + seed), size))
        pvalues.append(stats.ks_2samp(got[-1], want[-1]).pvalue)
    assert stats.kstest(pvalues, "uniform").pvalue > 1e-3, pvalues
    x, y = np.concatenate(got), np.concatenate(want)
    for power in (1, 2):
        a, b = x**power, y**power
        se = math.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) < 4 * se, (power, a.mean(), b.mean(), se)
    return x


@pytest.mark.parametrize("scheme, p", MULTISET_POINTS)
def test_multiset_sampler_matches_the_worker_mechanism(scheme, p):
    against_mechanism(scheme, p)


def test_multiset_sampler_is_exact_where_the_model_is_not():
    # at MultiMDS(399, 4), n = 100, mu = 2 the exact finite-n E[S] is
    # 0.031508 (numerical integration of P(S > t)); the large-pool model
    # behind service_moments gives 0.0090, and the sampler must not follow it
    scheme, p = MultiMDS(399, 4), params(mu=2.0, n=100)
    x = against_mechanism(scheme, p)
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - 0.031508) < 4 * se + 1e-6
    assert service_moments(scheme, p).es < 0.01


def test_multiset_sampler_is_exact_outside_its_windows(monkeypatch):
    # windows of +-(0.1 sd + 1) ranks leave most rows unsettled, so most
    # service times come from widened windows, whose new ranks are drawn
    # between the known order statistics; no row holds all n*load elements
    monkeypatch.setattr(schemes, "WINDOW_Z", 0.1)
    scheme, p = MultiMDS(129, 2), params(n=100)
    widened = []
    original = schemes._widen

    def counted(d, rng, wide, x):
        out = original(d, rng, wide, x)
        widened.append((x.shape[0], x.shape[1], out.shape[0]))
        return out

    monkeypatch.setattr(schemes, "_widen", counted)
    against_mechanism(scheme, p)
    first = [rows for known, rows, _ in widened if known == widened[0][0]]
    assert sum(first) > 0.5 * 8 * 20_000
    assert max(cols for _, _, cols in widened) < p.nworkers * scheme.load


@pytest.mark.parametrize("scheme, p", [
    (MultiMDS(129, 2), params(n=100)), (MultiMDS(5, 3), params(n=7)),
    (MultiMDS(399, 4), params(mu=2.0, n=100)), (MultiMDS(1287, 2), params(n=1000))])
def test_widened_windows_keep_the_mechanism_law(monkeypatch, scheme, p):
    # windows of one rank or so: nearly every row widens, some of them
    # several times, up to windows that cover every worker
    monkeypatch.setattr(schemes, "WINDOW_Z", 0.0)
    against_mechanism(scheme, p, seeds=4, size=10_000)


def test_widening_between_first_pass_rows_keeps_the_law_and_the_values(monkeypatch):
    # unsettled rows wait for their widening rounds at most WIDEN_DOUBLES
    # first-pass doubles: here 40 rows, with windows of +-(0.5 sd + 1) ranks,
    # so a call runs many rounds between its rows; their order is fixed, so
    # the values do not depend on the row chunks either
    monkeypatch.setattr(schemes, "WINDOW_Z", 0.5)
    scheme, p = MultiMDS(129, 2), params(n=100)
    windows = sampler_windows(scheme, p)
    ranks = schemes._window_plan(windows, p.nworkers, scheme.k).ranks.size
    monkeypatch.setattr(schemes, "WIDEN_DOUBLES", 40 * ranks)
    x = sample_service_batch(scheme, p, rng(5), 3000)
    for scratch in (1, 1 << 30):
        with monkeypatch.context() as m:
            m.setattr(schemes, "SCRATCH_DOUBLES", scratch)
            assert (sample_service_batch(scheme, p, rng(5), 3000) == x).all()
    against_mechanism(scheme, p, seeds=4, size=10_000)


def test_windows_sit_at_the_crossing_rank_where_the_count_slope_overflows():
    # n * rate = 1000 * 1e306 overflows: the expected count jumps from 0 to
    # n within 1e-306 of the shift, and the split puts every result on the
    # first level, so its window sits at the top ranks, not at rank 1, where
    # every row would widen
    scheme, p = MultiMDS(1000, 2), params(mu=1e303, n=1000)
    assert sampler_windows(scheme, p) == [(999, 1000), (1, 1)]


def test_windows_fill_the_levels_in_turn_where_the_split_does_not_converge():
    # (load - 1) mu c = 2e7: the split's residual stays above its tolerance,
    # so the windows take its mu c -> inf limit, p = (1, 1, 1/2)
    with pytest.raises(NoConvergence):
        solve_levels(3, 250 / 300, 1e7)
    assert schemes._windows(100, 250, 3, 1e7, schemes.WINDOW_Z) == [(99, 100), (99, 100), (49, 51)]


# (n, k, load, mu) of the mm-mds golden, benchmark and CI points
WINDOW_POINTS = [
    (20, 30, 2, 1.0), (100, 129, 2, 1.0), (1000, 1287, 2, 1.0), (10**6, 1287000, 2, 1.0),
    (10**6, 3999999, 4, 2.0), (10**6, 2999990, 3, 1.0), (10**8, 128700000, 2, 1.0),
    (100, 399, 4, 2.0), (100, 100000, 2000, 0.01),
]


@pytest.mark.parametrize("n, k, load, mu", WINDOW_POINTS)
def test_windows_equal_the_covariance_matrix_form(n, k, load, mu):
    # the level-count moments give the same windows as the load x load
    # covariance matrix at every point the goldens, benchmark and CI sample
    mu_c = params(mu=mu, n=n).mu_c
    got = schemes._windows(n, k, load, mu_c, schemes.WINDOW_Z)
    assert got == reference_windows(n, k, load, mu_c)


def test_window_setup_is_linear_in_the_load():
    # MultiMDS(150000, 2000) at n = 100: a load x load covariance matrix
    # took 1.3-2.1 s per sample call, the level-count moments about 16 ms
    n, k, load = 100, 150_000, 2000

    def setup():
        start = time.perf_counter()
        schemes._window_plan(schemes._windows(n, k, load, 1.0, schemes.WINDOW_Z), n, k)
        return time.perf_counter() - start

    assert min(setup() for _ in range(3)) < 0.25


def fixed_worker_times(d, rows, n):
    """Worker times from d at fixed, distinct uniforms that vary from row to row.

    The uniforms are ((A i^2 mod P) + 1/2) / P, a quadratic residue
    sequence for the prime P = 2^31 - 1 and A = 48271, computed in
    integers, so no generator is involved.
    """
    prime = 2**31 - 1
    i = np.arange(1, rows * n + 1, dtype=np.int64)
    u = ((i * i % prime) * 48271 % prime + 0.5) / prime
    return (d.shift - np.log1p(-u) / d.rate).reshape(rows, n)


# (n, load, k, mu, windows): None takes the sampler's own windows; then
# narrow, overlapping and rank-1 or rank-n windows, and windows wholly above
# the k-th, which leave no column to pick
SELECTION_CASES = [
    (7, 3, 5, 1.0, None),
    (20, 2, 30, 1.0, None),
    (100, 2, 129, 1.0, None),
    (100, 4, 399, 2.0, None),
    (7, 2, 6, 1.0, [(3, 5), (1, 2)]),
    (7, 4, 12, 1.0, [(4, 7), (2, 5), (1, 3), (1, 2)]),
    (20, 2, 30, 1.0, [(17, 19), (10, 13)]),
    (20, 3, 25, 1.0, [(15, 19), (6, 16), (1, 3)]),
    (20, 2, 10, 1.0, [(15, 20), (15, 20)]),
    (100, 2, 129, 1.0, [(84, 90), (38, 44)]),
    (100, 3, 129, 0.5, [(70, 83), (33, 43), (9, 20)]),
    (100, 4, 399, 2.0, [(99, 100), (99, 100), (99, 100), (98, 100)]),
]


@pytest.mark.parametrize("n, load, k, mu, windows", SELECTION_CASES)
def test_window_selection_is_the_multiset_kth(n, load, k, mu, windows):
    # the window pick of fixed worker times against the whole multiset: the
    # check accepts exactly when every level's crossing count lies in its
    # window, and then the pick is the k-th
    d = params(mu=mu, n=n).whole_task().split(k)
    windows = windows or schemes._windows(n, k, load, params(mu=mu, n=n).mu_c,
                                           schemes.WINDOW_Z)
    x = np.sort(fixed_worker_times(d, 2000, n), axis=1)
    plan = schemes._window_plan(windows, n, k)
    got, ok = schemes._window_kth(x[:, plan.ranks - 1].T.copy(), plan)
    want = multiset_kth(x, k, load)
    settled = np.ones(x.shape[0], dtype=bool)
    inside = np.zeros(x.shape[0], dtype=bool)
    for m, (a, b) in enumerate(windows, 1):
        level = x * m
        settled &= (a == 1) | ((level <= want[:, None]).sum(axis=1) >= a)
        settled &= (b == n) | ((level < want[:, None]).sum(axis=1) < b)
        hit = level == want[:, None]
        rank = np.argmax(hit, axis=1) + 1
        inside |= hit.any(axis=1) & (a <= rank) & (rank <= b)
    assert (ok == settled).all()
    assert (got[ok] == want[ok]).all()
    assert not ok[~inside].any()
    if sum(a - 1 for a, _ in windows) >= k:
        assert not ok.any()
    else:
        assert ok.sum() > 100


def test_window_selection_equals_a_pooled_sort_bit_for_bit():
    # random windows at loads 2-6, sharing ranks and touching rank 1 and rank
    # n, with col at both ends of the pooled elements, one past each end
    # (NaN, unsettled) and inside.  The worker times lie on a grid of
    # quarters above the shift, half the spacings zero as from zero uniforms,
    # so elements tie at the shift, within a level and across levels.  The
    # min over i of max(A_i, B_{K-i}) gives the pooled sort's values and
    # settled mask, bit for bit, in a chunk wider than its terms and in one
    # narrower, which holds them transposed
    gen = rng(77)
    kinds = set()
    for load in range(2, 7):
        for case in range(40):
            n = int(gen.integers(2, 30))
            windows = [tuple(sorted(gen.integers(1, n + 1, 2).tolist())) for _ in range(load)]
            w = int(gen.integers(load))
            windows[w] = (1, windows[w][1]) if case % 2 else (windows[w][0], n)
            spacings = gen.choice([0.0, 0.25, 0.5], size=(300, n), p=[0.5, 0.3, 0.2])
            x = 0.5 + np.cumsum(spacings, axis=1)
            below = sum(a - 1 for a, _ in windows)
            pooled = sum(b - a + 1 for a, b in windows)
            for col in sorted({-1, 0, int(gen.integers(pooled)), pooled - 1, pooled}):
                k = col + 1 + below
                plan = schemes._window_plan(windows, n, k)
                want, settled = pooled_kth(x, windows, k)
                for rows in (300, 2):
                    got, ok = schemes._window_kth(x[:rows, plan.ranks - 1].T.copy(), plan)
                    bits = want[:rows].view(np.uint64).tolist()
                    assert got.view(np.uint64).tolist() == bits, (windows, col, rows)
                    assert ok.tolist() == settled[:rows].tolist(), (windows, col, rows)
                terms = min(k - 1, plan.head[1] - plan.head[0]) - max(0, k - plan.rest.size) + 1
                kinds |= {"nan"} if np.isnan(want).all() else {"settled"} if settled.any() else set()
                kinds |= {"unsettled"} if 0 <= col < pooled and not settled.all() else set()
                kinds |= {"transposed"} if 0 <= col < pooled and terms > 2 else set()
            kinds |= {f"load {load}", "rank 1" if case % 2 else "rank n"}
            held = plan.rest.size + plan.head[1] - plan.head[0]
            kinds |= {"shared"} if held > plan.ranks.size else set()
            elements = np.concatenate(
                [x[:, a - 1:b] * m for m, (a, b) in enumerate(windows, 1)], axis=1)
            kinds |= {"tie"} if (np.diff(np.sort(elements), axis=1) == 0).any() else set()
    assert kinds == {"nan", "settled", "unsettled", "transposed", "rank 1", "rank n", "shared",
                     "tie", *(f"load {load}" for load in range(2, 7))}


def plan_from_sets(windows):
    """ranks, segment starts and segment ends of a window plan, built from
    Python sets, and the (rank, level) pairs of each window's elements,
    window by window."""
    ranks = sorted(set().union(*(range(a, b + 1) for a, b in windows)))
    column = {rank: i for i, rank in enumerate(ranks)}
    starts = [i for i, rank in enumerate(ranks) if rank - 1 not in column]
    ends = [i for i, rank in enumerate(ranks) if rank + 1 not in column]
    elements = [[(rank, m) for rank in range(a, b + 1)] for m, (a, b) in enumerate(windows, 1)]
    return ranks, starts, ends, elements


def plan_windows():
    """Every SELECTION_CASES window list, then the sampler's own windows."""
    for n, load, k, mu, windows in SELECTION_CASES:
        if windows is not None:
            yield windows, n, k
    points = MULTISET_POINTS + [(MultiMDS(399, 4), params(mu=2.0, n=100)),
                                (MultiMDS(1287000, 2), params(n=10**6))]
    for scheme, p in points:
        n = p.nworkers
        yield sampler_windows(scheme, p), n, scheme.k


def test_window_plan_matches_a_set_construction():
    for windows, n, k in plan_windows():
        plan = schemes._window_plan(windows, n, k)
        ranks, starts, ends, elements = plan_from_sets(windows)
        assert plan.ranks.tolist() == ranks, windows
        assert plan.starts.tolist() == starts, windows
        assert plan.ends.tolist() == ends, windows
        # level 1's window is a slice of rows; the others are gathered
        head = plan.ranks[plan.head[0]:plan.head[1]].tolist()
        assert list(zip(head, [1.0] * len(head))) == elements[0], windows
        rest = list(zip(plan.ranks[plan.rest].tolist(), plan.rest_scale.tolist()))
        assert rest == [e for window in elements[1:] for e in window], windows
        # each window's lowest element above rank 1, then highest below rank n
        got = list(zip(plan.ranks[plan.edges].tolist(), plan.edge_scale.ravel().tolist()))
        lower = [window[0] for window in elements if window[0][0] > 1]
        assert got == lower + [window[-1] for window in elements if window[-1][0] < n], windows
        assert plan.lows == len(lower), windows
        assert plan.col == k - sum(a - 1 for a, _ in windows) - 1, windows


def test_multiset_sampler_draws_fewer_worker_order_statistics(monkeypatch):
    # a seeded MultiMDS(1287, 2) call at n = 1000 draws the window ranks of
    # every row (one spacing each through _log1m in the first pass) and the
    # new ranks of the rows it widens; windows of +-(3 sd + 1) ranks drew 96
    # per row
    scheme, p, size = MultiMDS(1287, 2), params(n=1000), 4097
    first, widened, widening = [], [], []
    spacings, widen = schemes._log1m, schemes._widen

    def counted_spacings(u):
        if not widening:
            first.append(u.size)
        return spacings(u)

    def counted_widen(d, rng, wide, x):
        widened.append(x.shape[1] * (wide.ranks.size - x.shape[0]))
        widening.append(True)
        try:
            return widen(d, rng, wide, x)
        finally:
            widening.pop()

    monkeypatch.setattr(schemes, "_log1m", counted_spacings)
    monkeypatch.setattr(schemes, "_widen", counted_widen)
    sample_service_batch(scheme, p, rng(12), size)
    assert sum(widened) > 0
    ranks = schemes._window_plan(sampler_windows(scheme, p), p.nworkers, scheme.k).ranks.size
    assert sum(first) == size * ranks
    assert (sum(first) + sum(widened)) / size < 96


def test_widening_draws_no_gamma(monkeypatch):
    # the widening rounds draw only uniforms: exponential spacings for the
    # bottom runs and the top-rank product form for the top runs
    shapes, widened, widen = [], [], schemes._widen

    def recorded(d, gen, wide, x):
        widened.append(x.shape[1])
        return widen(d, GammaShapes(gen, shapes), wide, x)

    monkeypatch.setattr(schemes, "_widen", recorded)
    monkeypatch.setattr(schemes, "WINDOW_Z", 0.0)
    sample_service_batch(MultiMDS(129, 2), params(n=100), rng(3), 2000)
    assert sum(widened) > 1000
    assert shapes == []


def test_widening_fills_each_gap_with_its_order_statistics():
    # one random column of sorted worker times at the first plan's ranks of
    # each plan_windows() list, repeated, widened once.  Each column stays
    # sorted with its known ranks kept, every new rank lies between its known
    # neighbours, and in its gap's uniform scale, (1 - exp(-rate (X -
    # X_(i)))) / P, rank i + t is the t-th of m uniforms, Beta(t, m + 1 - t)
    stats = pytest.importorskip("scipy.stats")
    d = schemes.ShiftedExp(0.5, 2.0)
    kinds, pvalues = set(), []
    for case, (windows, n, k) in enumerate(plan_windows()):
        first = schemes._window_plan(windows, n, k)
        wide = schemes._widening(first, schemes._grown(first.windows, n, schemes.WINDOW_GROWTH),
                                 n, k)
        gen = rng(500 + case)
        worker = np.sort(d.shift - np.log1p(-gen.random(n)) / d.rate)
        rows = 4000 if n <= 1000 else 200
        x = np.repeat(worker[first.ranks - 1][:, None], rows, axis=1)
        got = schemes._widen(d, gen, wide, x)
        assert (got[wide.known - 1] == x).all()
        assert (np.diff(got, axis=0) >= 0).all()
        framed = np.concatenate([[d.shift], worker, [np.inf]])
        for c, i, h, m, s1, s2 in wide.gaps:
            kinds.update({"bottom frame"} if i == 0 else set())
            kinds.update({"top frame"} if h == n + 1 else set())
            kinds.update({"both runs"} if s1 and s2 else set())
            new = got[c:c + s1 + s2]
            assert (framed[i] <= new).all() and (new <= framed[h]).all()
            gap = -math.expm1(-d.rate * (framed[h] - framed[i]))
            u = -np.expm1(-d.rate * (new - framed[i])) / gap
            # the ends of each run, and the middle of the gap's new ranks
            for col in sorted({0, s1 - 1, s1, s1 + s2 - 1, (s1 + s2) // 2} & set(range(s1 + s2))):
                t = col + 1 if col < s1 else m - (s1 + s2) + col + 1
                pvalues.append(stats.kstest(u[col], stats.beta(t, m + 1 - t).cdf).pvalue)
    assert kinds == {"bottom frame", "top frame", "both runs"}
    assert min(pvalues) > 1e-6, (len(pvalues), sorted(pvalues)[:5])
    assert stats.kstest(pvalues, "uniform").pvalue > 1e-3


def test_widening_round_of_another_gap_shape_raises():
    # new ranks inside a gap that touch neither known neighbour, or a round
    # that drops a known rank, cannot come from widening the windows
    below = schemes._window_plan([(10, 12), (30, 32)], 50, 40)
    with pytest.raises(ValueError, match="not a bottom run and a top run"):
        schemes._widening(below, [(10, 12), (30, 32), (20, 22)], 50, 40)
    with pytest.raises(ValueError, match="keep the ranks"):
        schemes._widening(below, [(10, 11), (30, 32)], 50, 40)
    # (column of X_(i), i, h, m, s1, s2): ranks 8-9 below 10, 13-14 above 12
    # with 27-29 below 30, and none above 32
    assert schemes._widening(below, [(8, 14), (27, 32)], 50, 40).gaps == (
        (0, 0, 10, 9, 0, 2), (5, 12, 30, 17, 2, 3))


def test_multiset_sampler_leaves_numpy_ma_unloaded():
    # np.unique, np.union1d and np.isin import numpy.ma, about 18 ms on the
    # first call of a fresh process; the window plan uses none of them
    src = str(Path(schemes.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, numpy as np; "
            "from coded_aoi import MultiMDS, SystemParams, sample_service_batch; "
            "sample_service_batch(MultiMDS(129, 2), SystemParams(1.0, 1.0, 1.0, 100), "
            "np.random.default_rng(1), 4097); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"


def test_multiset_sampler_scratch_is_bounded(monkeypatch):
    # a 4097-sample call holds at most SCRATCH_DOUBLES doubles of row-chunk
    # scratch, plus O(size) for the output and a block's gamma draws; without
    # row chunks its window draws alone would exceed that bound.  At loads 3
    # and 4 np.take gathers the other windows from a row-major copy of the
    # chunk, which the chunks count too; windows at Z = 4 settle every row,
    # so no row waits for a widening round
    p, size = params(n=1000), 4097
    bound = 8 * schemes.SCRATCH_DOUBLES + 64 * size

    def peak(scheme):
        tracemalloc.start()
        try:
            sample_service_batch(scheme, p, rng(8), size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    points = [(MultiMDS(1287, 2), schemes.WINDOW_Z), (MultiMDS(1800, 3), 4.0),
              (MultiMDS(2400, 4), 4.0)]
    for scheme, z in points:
        monkeypatch.setattr(schemes, "WINDOW_Z", z)
        assert peak(scheme) <= bound, scheme
    monkeypatch.setattr(schemes, "SCRATCH_DOUBLES", 1 << 30)
    for scheme, z in points:
        monkeypatch.setattr(schemes, "WINDOW_Z", z)
        assert peak(scheme) > bound, scheme


def test_multiset_sampler_scratch_stays_within_its_windows(monkeypatch):
    # at n = 10**8 one row of the whole n*load multiset would be 1.6 GB; the
    # sampler holds at most some doubles per window rank, also in the rows
    # whose windows it widens, plus O(size) for the output and the gammas
    scheme, p, size = MultiMDS(128_700_000, 2), params(n=10**8), 1000
    ranks = sum(b - a + 1 for a, b in sampler_windows(scheme, p))
    widened = []
    original = schemes._widen

    def counted(*args):
        widened.append(args[-1].shape[1])
        return original(*args)

    monkeypatch.setattr(schemes, "_widen", counted)
    tracemalloc.start()
    try:
        x = sample_service_batch(scheme, p, rng(9), size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(x).all()
    assert sum(widened) > 0
    assert peak <= 8 * 48 * ranks + 64 * size


def cold_draw(scheme, p, seed, size):
    """A seeded draw from an empty layout cache, which it leaves with its own plans."""
    schemes._layout.cache_clear()
    return sample_service_batch(scheme, p, rng(seed), size)


# the benchmark and golden points, then a chain in which each point's layout
# key differs from the one before's in n, k, load or mu c alone, so a key
# without that input would reuse the plans of the point before
KEY_POINTS = [
    (MultiMDS(1287, 2), params(n=1000)), (MultiMDS(399, 4), params(mu=2.0, n=100)),
    (MultiMDS(129, 2), params(n=100)), (MultiMDS(129, 2), params(n=101)),
    (MultiMDS(130, 2), params(n=101)), (MultiMDS(130, 3), params(n=101)),
    (MultiMDS(130, 3), params(mu=1.5, n=101)),
]


def test_layout_cache_key_covers_every_input(monkeypatch):
    # a draw from warm plans equals a cold-cache draw at its seed: with the
    # points interleaved, after cache_clear, and with WINDOW_GROWTH, WINDOW_Z
    # and then MAX_SAMPLE_DRAWS changed while the plans of the old values are
    # cached
    size = 4097
    cold = [cold_draw(s, p, 30 + i, size) for i, (s, p) in enumerate(KEY_POINTS)]
    for clear in (False, True):
        if clear:
            schemes._layout.cache_clear()
        for i, (s, p) in enumerate(KEY_POINTS):
            assert (sample_service_batch(s, p, rng(30 + i), size) == cold[i]).all(), i
    scheme, p = KEY_POINTS[2]
    for name, value in (("WINDOW_GROWTH", 2.0), ("WINDOW_Z", 1.0)):
        before = sample_service_batch(scheme, p, rng(7), size)  # the plans of the old value
        monkeypatch.setattr(schemes, name, value)
        warm = sample_service_batch(scheme, p, rng(7), size)
        assert (warm == cold_draw(scheme, p, 7, size)).all(), name
        assert not (warm == before).all(), name  # the setting reaches the values
    held = 2 * sum(b - a + 1 for a, b in sampler_windows(scheme, p))
    monkeypatch.setattr(schemes, "MAX_SAMPLE_DRAWS", held - 1)
    with pytest.raises(ValueError, match=f"holds {held} doubles"):
        sample_service_batch(scheme, p, rng(7), size)


def test_layout_arrays_are_read_only_and_the_cache_is_bounded():
    scheme, p = MultiMDS(1287, 2), params(n=1000)
    cold_draw(scheme, p, 3, 4097)
    layout = schemes._layout(p.nworkers, scheme.k, scheme.load, p.mu_c, schemes.WINDOW_Z,
                             schemes.WINDOW_GROWTH, schemes.MAX_SAMPLE_DRAWS)
    # the draw planned the first pass and a widening round
    assert schemes._layout.cache_info().misses == 1 and 1 in layout._widenings
    arrays = [layout.spacing_scale] + [v for plan in (layout.first, layout.widening(1))
                                       for v in vars(plan).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 + 7 + 10  # a widening round adds its known rows, scales and rows drawn
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    # one point more than the cache holds, each with its own plans
    maxsize = schemes._layout.cache_info().maxsize
    for n in range(10, 11 + maxsize):
        sample_service_batch(MultiMDS(n + 1, 2), params(n=n), rng(n), 3)
    info = schemes._layout.cache_info()
    assert info.misses > maxsize and info.currsize <= maxsize


def test_layout_cache_memory_stays_flat_over_a_sweep():
    # a sweep keeps the plans of its last point only, so the memory held
    # past each call stays flat rather than growing by a layout a point
    schemes._layout.cache_clear()
    tracemalloc.start()
    try:
        base, held = tracemalloc.get_traced_memory()[0], []
        for k in range(1_287_000, 1_293_000, 1000):
            sample_service_batch(MultiMDS(k, 2), params(n=10**6), rng(k), 3)
            held.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    ranks = sum(b - a + 1 for a, b in sampler_windows(MultiMDS(1_287_000, 2), params(n=10**6)))
    assert held[0] > 8 * 2 * ranks  # a layout, of at least 16 bytes a rank
    assert max(held) < 1.5 * held[0], held  # one layout at most


def test_layout_cache_is_shared_safely_by_threads():
    # four threads sample two points in turn under a short switch interval,
    # so they replace each other's layouts and race to build widening rounds;
    # each draw is still the cold-cache draw at its seed
    points, size = KEY_POINTS[2:4], 4097
    want = [cold_draw(s, p, 40 + i, size) for i, (s, p) in enumerate(points)]
    got, errors = [], []

    def work(t):
        try:
            for j in range(3):
                s, p = points[i := (t + j) % 2]
                got.append((i, sample_service_batch(s, p, rng(40 + i), size)))
        except Exception as e:  # reported by the assertions below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        schemes._layout.cache_clear()
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors, errors
    assert len(got) == 12
    for i, x in got:
        assert (x == want[i]).all(), i

LAW_CASES = [(Uncoded(), 1), (Repetition(1), 1)] + [
    (scheme, n) for n in (100, 1000)
    for scheme in (Uncoded(), Repetition(n), Repetition(n // 4),
                   MDS(1), MDS(69 * n // 100), MDS(n - 1))] + [
    (Repetition(33), 100), (Repetition(60), 100)]


@pytest.mark.parametrize("scheme, n", LAW_CASES)
def test_law_sampler_matches_the_worker_mechanism(scheme, n):
    # the order-statistic laws against every worker simulated, at fixed seeds
    stats = pytest.importorskip("scipy.stats")
    p = params(mu=0.5, n=n)
    size = 20_000
    law = sample_service_batch(scheme, p, rng(61), size)
    mechanism = mechanism_sample(scheme, p, rng(62), size)
    assert stats.ks_2samp(law, mechanism).pvalue > 1e-3
    if isinstance(scheme, Repetition) and n % scheme.k:
        # the real split, n mod k groups of ceil(n/k) replicas and the rest
        # of floor(n/k): E[S] = c/k + integral of P(max of the groups > t)
        quad = pytest.importorskip("scipy.integrate").quad
        k, (q, r) = scheme.k, divmod(n, scheme.k)

        def tail(t):
            return 1 - ((-math.expm1(-(q + 1) * k * 0.5 * t))**r
                        * (-math.expm1(-q * k * 0.5 * t))**(k - r))

        es = 1 / k + quad(tail, 0, math.inf, epsabs=1e-13, epsrel=1e-12)[0]
        assert abs(law.mean() - es) < 4 * law.std() / math.sqrt(size)
        # the paper's model gives every group n/k replicas: 21% low at k = 60
        assert service_moments(scheme, p).es < es
        return
    se = math.sqrt(os_var(*order_stat(scheme, p)) / size)
    assert abs(law.mean() - service_moments(scheme, p).es) < 4 * se


@pytest.mark.parametrize("scheme, mu", [
    (Uncoded(), 1.0), (MDS(10**20 - 1), 1.0), (Repetition(3), 1e-20),
], ids=["scheme0", "scheme1", "scheme2"])
def test_law_sampler_runs_past_int64_workers(scheme, mu):
    # n = 10**20 exceeds every numpy integer type; the law's n - i and gamma
    # shapes must still reach the generator as doubles.  Repetition(3)'s
    # groups take rate n mu, so mu = 1e-20 keeps it near 1: at mu = 1 every
    # draw rounds to the shift 1/3 and the comparison would hold for any
    # sampler
    p = params(mu=mu, n=10**20)
    got = sample_service_batch(scheme, p, rng(64), 1000)
    assert np.isfinite(got).all()
    assert (got != got[0]).any()
    assert got.tobytes() == law_sample(scheme, p, rng(64), 1000).tobytes()


@pytest.mark.parametrize("n", [10, 20, 100])
@pytest.mark.parametrize("j", [2, 4, TOP_RANKS, TOP_RANKS + 1])
def test_top_rank_sampler_matches_the_worker_mechanism(j, n):
    # the k-th of n at j = n - k + 1 ranks from the top: j uniforms per
    # service time up to TOP_RANKS, two gammas past it, both against every
    # worker simulated
    stats = pytest.importorskip("scipy.stats")
    scheme, p, size = MDS(n - j + 1), params(mu=0.5, n=n), 20_000
    law = sample_service_batch(scheme, p, rng(81), size)
    mechanism = mechanism_sample(scheme, p, rng(82), size)
    assert stats.ks_2samp(law, mechanism).pvalue > 1e-3
    se = math.sqrt(os_var(*order_stat(scheme, p)) / size)
    assert abs(law.mean() - service_moments(scheme, p).es) < 4 * se


@pytest.mark.parametrize("scheme", [Uncoded(), Repetition(50), MDS(69)])
def test_with_mechanism_simulates_every_worker(scheme):
    # criterion 05 simulates these through with_mechanism: the library must
    # call the subclass's sample, not the order-statistic law
    p = params()
    got = sample_service_batch(with_mechanism(scheme), p, rng(63), 5000)
    assert got.tobytes() == mechanism_sample(scheme, p, rng(63), 5000).tobytes()
    assert got.tobytes() != sample_service_batch(scheme, p, rng(63), 5000).tobytes()


@pytest.mark.parametrize("mu_c", [1e-6, 1e6])
@pytest.mark.parametrize("scheme, n", [
    (Uncoded(), MAX_SAMPLE_DRAWS), (MDS(1), 10**6), (MDS(10**6 - 1), 10**6),
    (Uncoded(), 10**12)])
def test_law_sampler_is_precise_at_extreme_parameters(scheme, n, mu_c):
    p = SystemParams(1.0, 1.0, mu_c, n)
    size = 20_000
    x = sample_service_batch(scheme, p, rng(71), size)
    d = order_stat(scheme, p)[0]
    assert np.isfinite(x).all() and (x >= d.shift).all()
    se = math.sqrt(os_var(*order_stat(scheme, p)) / size)
    assert abs(x.mean() - service_moments(scheme, p).es) < 4 * se


def test_system_params_rejects_non_finite():
    for name in ("arrival_rate", "shift", "straggling"):
        for bad in (math.nan, math.inf, -math.inf):
            kwargs = dict(arrival_rate=1.0, shift=1.0, straggling=1.0, nworkers=10)
            kwargs[name] = bad
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SystemParams(**kwargs)


def test_system_params_rejects_non_numeric_rates():
    for name in ("arrival_rate", "shift", "straggling"):
        for bad in ("1", None, True, [1.0], complex(1, 0)):
            kwargs = dict(arrival_rate=1.0, shift=1.0, straggling=1.0, nworkers=10)
            kwargs[name] = bad
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                SystemParams(**kwargs)
        for good in (2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2)):
            kwargs = dict(arrival_rate=1.0, shift=1.0, straggling=1.0, nworkers=10)
            kwargs[name] = good
            assert getattr(SystemParams(**kwargs), name) == 2


def test_uncoded_single_worker_moments():
    m = service_moments(Uncoded(), params(n=1))
    assert m.es == pytest.approx(2.0, abs=1e-14)
    assert m.es2 == pytest.approx(5.0, abs=1e-14)


def test_mds_two_workers_one_needed():
    # min of 2 draws from (1, 1): rate doubles, es = 1 + 1/2
    m = service_moments(MDS(1), params(n=2))
    assert m.es == pytest.approx(1.5, rel=1e-14, abs=0.0)


def test_mds_best_k_from_sweep_figure():
    # frozen from the harmonic oracle: 1/69 + (H_100 - H_31)/69
    m = service_moments(MDS(69), params(n=100))
    assert m.es == pytest.approx(0.03130626553917537, rel=1e-13, abs=0.0)
    assert m.es == pytest.approx((1 + harmonic(100) - harmonic(31)) / 69, rel=1e-15, abs=0.0)


def test_scheme_validation_errors():
    p = params(n=100)
    with pytest.raises(ValueError, match="k must be < n"):
        validate(MDS(100), p)
    with pytest.raises(ValueError):
        validate(MDS(0), p)
    with pytest.raises(ValueError):
        validate(Repetition(0), p)
    with pytest.raises(ValueError):
        validate(Repetition(101), p)
    with pytest.raises(ValueError):
        validate(MultiMDS(200, 2), p)
    with pytest.raises(ValueError):
        validate(MultiMDS(5, 0), p)
    with pytest.raises(TypeError, match="unknown scheme"):
        validate(object(), p)
    # any 1 <= k <= n is a repetition code, a divisor of n or not
    validate(Repetition(33), p)


@pytest.mark.parametrize("build", [
    lambda: validate(MDS(True), params(n=10)),
    lambda: validate(MDS(5.0), params(n=10)),
    lambda: validate(Repetition(True), params(n=10)),
    lambda: validate(MultiMDS(5.0, 2), params(n=10)),
    lambda: validate(MultiMDS(5, 2.0), params(n=10)),
    lambda: validate(MultiMDS(5, True), params(n=10)),
    lambda: SystemParams(1.0, 1.0, 1.0, True),
    lambda: SystemParams(1.0, 1.0, 1.0, 10.0),
])
def test_integer_parameters_reject_bool_and_float(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_integer_parameters_accept_numpy_integers():
    p = SystemParams(1.0, 1.0, 1.0, np.int64(10))
    validate(MultiMDS(np.int32(5), np.int64(2)), p)
    assert service_moments(MDS(np.int64(7)), p) == service_moments(MDS(7), params(n=10))


@pytest.mark.parametrize("size, match", [
    (True, "must be an integer"), (2.0, "must be an integer"), ((2, 3), "must be an integer"),
    (-1, "must be >= 0")])
def test_sample_size_must_be_an_integer_at_least_zero(size, match):
    # numpy raised its own TypeError for True and 2.0 and a "negative
    # dimensions" ValueError for -1, and a shape drew an array of that shape
    # for every scheme but MultiMDS at load >= 2
    with pytest.raises(ValueError, match=f"size {match}"):
        sample_service_batch(MDS(7), params(n=10), rng(1), size)


def test_sample_size_accepts_a_numpy_integer():
    got = sample_service_batch(MDS(7), params(n=10), rng(1), np.int64(3))
    assert got.tobytes() == sample_service_batch(MDS(7), params(n=10), rng(1), 3).tobytes()


def test_system_params_validation():
    for bad in [dict(arrival_rate=0), dict(shift=0), dict(straggling=-1), dict(nworkers=0)]:
        kwargs = dict(arrival_rate=1.0, shift=1.0, straggling=1.0, nworkers=10)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


@pytest.mark.parametrize("n", [2, 3, 100, 10**9, 10**18])
def test_repetition_one_equals_mds_one(n):
    # one group of n replicas and any 1 of n coded workers: the min of n
    # draws from the whole task, in both models, to the bit
    p = params(n=n)
    assert service_moments(Repetition(1), p) == service_moments(MDS(1), p)


def test_repetition_full_k_equals_uncoded():
    p = params(c=2.0, mu=0.5, n=20)
    assert Repetition(20).moments(p) == Uncoded().moments(p)
    assert service_moments(Repetition(20), p) == service_moments(Uncoded(), p)


def test_multi_mds_single_load_equals_mds():
    p = params(mu=0.7, n=50)
    for k in (1, 10, 33, 49):
        assert service_moments(MultiMDS(k, 1), p) == service_moments(MDS(k), p)


def test_multi_mds_k_one_equals_mds_one():
    # nearly uniform levels (tiny shift*rate): k = 1 spread over 4 levels
    # leaves alpha_1 * n below one half, yet the first result is always a
    # first-level one, so k1 is clamped to 1 and S is X_(1), as for MDS(1)
    p = params(mu=0.0001, n=100)
    assert round(solve_levels(4, 1 / 400, p.mu_c)[0] * 100) == 0
    assert model_k1(p, 1, 4) == 1
    assert service_moments(MultiMDS(1, 4), p) == service_moments(MDS(1), p)


def test_variance_identity_for_single_level_schemes():
    p = params(lam=2.0, c=0.5, mu=1.5, n=40)
    for scheme in (Uncoded(), Repetition(8), MDS(13)):
        m = scheme.moments(p)
        d, n, k = order_stat(scheme, p)
        assert m.es2 - m.es**2 == pytest.approx(os_var(d, n, k), abs=1e-12)


def test_multiset_enumeration_fixed_draws():
    # worker times [1, 2] at load 2: multiset {1, 2, 2, 4}, third smallest 2;
    # at load 3 {1, 2, 2, 3, 4, 6}, fifth smallest 4
    x = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert (multiset_kth(x, 3, 2) == 2.0).all()
    assert (multiset_kth(x, 5, 3) == 4.0).all()


def test_uncoded_single_worker_sampling_law():
    # one worker, whole task: the largest of one draw is the inverse CDF,
    # shift - log(1 - u)/rate, and u = 1 - exp(-0.7) is the draw 1 + 0.7
    p = params(n=1)
    out = sample_service_batch(Uncoded(), p, FixedUniform(-math.expm1(-0.7)), 1)
    assert out[0] == pytest.approx(1.7, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scheme", [Uncoded(), Repetition(6), MDS(18)])
def test_largest_order_statistic_maps_a_zero_uniform_to_the_shift(scheme):
    # log(0) = -inf is the one infinity on the way, and it maps to the
    # shift exactly, with no warning from the public entry point; MDS(18),
    # three ranks from the top, sums three of them
    p = params(n=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sample_service_batch(scheme, p, FixedUniform(0.0), 5)
    assert (out == order_stat(scheme, p)[0].shift).all()


@pytest.mark.parametrize("n", [TOP_RANKS, 2**62, 10**20])
@pytest.mark.parametrize("j", [2, TOP_RANKS])
def test_top_rank_draws_are_finite_past_int64_workers(j, n):
    scheme, p = MDS(n - j + 1), params(n=n)
    x = sample_service_batch(scheme, p, rng(67), 5000)
    assert np.isfinite(x).all() and (x >= order_stat(scheme, p)[0].shift).all()


@pytest.mark.parametrize("n", [1, 2, 2**62, 10**20])
def test_largest_order_statistic_is_finite_past_int64_workers(n):
    p = params(n=n)
    x = sample_service_batch(Uncoded(), p, rng(65), 5000)
    assert np.isfinite(x).all() and (x >= order_stat(Uncoded(), p)[0].shift).all()


def test_uncoded_sampler_matches_the_written_out_max_law():
    # two workers each take c/2 + Exp(2 mu): S - c/2 has CDF (1 - exp(-2 mu x))^2
    stats = pytest.importorskip("scipy.stats")
    p = params(c=1.0, mu=0.5, n=2)
    x = sample_service_batch(Uncoded(), p, rng(66), 20_000) - 0.5
    assert stats.kstest(x, lambda t: (-np.expm1(-np.maximum(t, 0.0)))**2).pvalue > 1e-3


@pytest.mark.parametrize("scheme, n", [
    (Uncoded(), 100), (Repetition(60), 100), (MDS(69), 100), (MultiMDS(14, 1), 20),
    (MultiMDS(129, 2), 100), (MDS(101 - TOP_RANKS), 100), (MDS(100 - TOP_RANKS), 100),
])
def test_order_statistic_draws_take_scalar_gamma_shapes(scheme, n, monkeypatch):
    # numpy draws gammas at an array of shapes through a slower per-element
    # loop, so each order-statistic draw, the MultiMDS segment jumps too,
    # takes one scalar shape per call.  The top j = n - k + 1 <= TOP_RANKS
    # ranks, every uncoded and repetition draw among them, take uniforms and
    # no gamma at all; MDS further down takes G_k, then G_{n-k+1}.
    # Recording the shapes moves no value
    p, size = params(n=n), 3000
    want = sample_service_batch(scheme, p, rng(41), size)
    shapes, real = [], schemes._os_sample

    def recorded(d, n, k, gen, size):
        return real(d, n, k, GammaShapes(gen, shapes), size)

    monkeypatch.setattr(schemes, "_os_sample", recorded)
    assert (sample_service_batch(scheme, p, rng(41), size) == want).all()
    assert all(np.ndim(s) == 0 for s in shapes)
    if scheme.load > 1:
        assert shapes
    elif isinstance(scheme, (Uncoded, Repetition)) or n - scheme.k < TOP_RANKS:
        assert shapes == []
    else:
        assert shapes == [float(scheme.k), float(n - scheme.k + 1)]


def test_scalar_sampler_matches_batch():
    p = params(n=16)
    for scheme in (Uncoded(), Repetition(4), MDS(5), MultiMDS(20, 2)):
        a = float(scheme.sample(p, rng(123), 1)[0])
        b = sample_service_batch(scheme, p, rng(123), 1)[0]
        assert a == b


def test_sampler_moments_match_analytic():
    p = params(n=100)
    draws = 200_000
    for scheme in (Uncoded(), Repetition(50), MDS(50)):
        m = service_moments(scheme, p)
        x = sample_service_batch(scheme, p, rng(17), draws)
        se = math.sqrt((m.es2 - m.es**2) / draws)
        assert abs(x.mean() - m.es) < 3 * se


def test_multi_mds_sampler_matches_levels_at_large_n():
    # the analytic first-level identification is asymptotic; at n = 1000 the
    # sampled multiset mean sits within 1% of it
    p = params(mu=0.1, n=1000)
    k = 600
    m = service_moments(MultiMDS(k, 2), p)
    x = sample_service_batch(MultiMDS(k, 2), p, rng(5), 100_000)
    assert abs(x.mean() - m.es) / m.es < 0.01


def test_mm_k1_counts():
    p = params(mu=0.1, n=1000)
    k1 = model_k1(p, 600, 2)
    assert k1 == round(solve_levels(2, 600 / 2000, p.mu_c)[0] * 1000)
    assert k1 >= 1


def test_mm_k1_where_k_over_n_load_rounds_to_one():
    # at n * load = 2**61, k / (n * load) rounds to 1.0; the split is
    # bracketed by the integer complement, and with one subtask missing every
    # level but the last is full
    n = 2**60
    p = params(n=n)
    assert (2 * n - 1) / (2 * n) == 1.0
    assert model_k1(p, 2 * n - 1, 2) == n
    assert math.isfinite(service_moments(MultiMDS(2 * n - 1, 2), p).es)


def test_system_params_store_python_numbers():
    # numpy scalars were kept, so n * load wrapped in int64 at n = 2**62 and
    # MultiMDS(5, 4) was refused as k >= n*load
    p = SystemParams(np.float64(1), np.float32(1), np.int64(1), np.int64(2**62))
    fields = ("arrival_rate", "shift", "straggling", "nworkers")
    assert [type(getattr(p, f)) for f in fields] == [float, float, float, int]
    python = service_moments(MultiMDS(5, 4), params(n=2**62))
    assert python.es == 0.2
    assert service_moments(MultiMDS(5, 4), p) == python
    assert service_moments(MultiMDS(np.int64(5), np.int64(4)), p) == python


def test_system_params_take_an_int_past_the_double_range_as_infinite():
    # math.isfinite raised OverflowError
    with pytest.raises(ValueError, match="shift must be finite"):
        SystemParams(1.0, 10**400, 1.0, 10)


def test_validate_returns_the_scheme_with_python_int_counts():
    # numpy counts met Python ints past int64 in the sampler's divmod
    p = params(n=2**70)
    scheme = validate(Repetition(np.int64(3)), p)
    assert scheme == Repetition(3) and type(scheme.k) is int
    got = sample_service_batch(Repetition(np.int64(3)), p, rng(1), 4)
    assert got.tobytes() == sample_service_batch(Repetition(3), p, rng(1), 4).tobytes()
    mds = MDS(7)
    assert validate(mds, params(n=10)) is mds
