"""Service-time moments and samplers for every distribution scheme."""
import math
import os
import subprocess
import sys
import tracemalloc
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
    mm_k1,
    os_var,
    sample_service_batch,
    service_moments,
)
from coded_aoi import schemes
from coded_aoi.levels import solve_levels
from coded_aoi.schemes import MAX_SAMPLE_DRAWS, validate
from schemes_reference import (
    law_sample,
    mechanism_sample,
    multiset_kth,
    order_stat,
    with_mechanism,
)


def rng(seed):
    return Generator(PCG64(seed))


def params(lam=1.0, c=1.0, mu=1.0, n=100):
    return SystemParams(lam, c, mu, n)


class FixedGamma:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_gamma(self, shape, size=None):
        return self.values.reshape(size)


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

    def counted(d, n, rng, plan, wide, x):
        out = original(d, n, rng, plan, wide, x)
        widened.append((plan.ranks.size, x.shape[0], out.shape[1]))
        return out

    monkeypatch.setattr(schemes, "_widen", counted)
    against_mechanism(scheme, p, seeds=4)
    first = [rows for known, rows, _ in widened if known == widened[0][0]]
    assert sum(first) > 0.5 * 4 * 20_000
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
    d = p.whole_task().split(scheme.k)
    windows = schemes._windows(d, p.nworkers, scheme.k, scheme.load)
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
    # n within 1e-306 of the shift, and the root solve bisects onto the jump
    # instead of stopping at the shift, where every window would sit at rank 1
    # and every row would widen
    scheme, p = MultiMDS(1000, 2), params(mu=1e303, n=1000)
    d = p.whole_task().split(scheme.k)
    assert schemes._windows(d, p.nworkers, scheme.k, scheme.load) == [(999, 1000), (1, 1)]


def fixed_worker_times(d, rows, n):
    """Worker times from d at fixed, distinct uniforms that vary from row to row.

    The uniforms are ((A i^2 mod P) + 1/2) / P, a quadratic residue
    sequence for the prime P = 2^31 - 1 and A = 48271, computed in
    integers, so no generator is involved.
    """
    prime = 2**31 - 1
    i = np.arange(1, rows * n + 1, dtype=np.int64)
    u = ((i * i % prime) * 48271 % prime + 0.5) / prime
    return d.quantile(u).reshape(rows, n)


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
    windows = windows or schemes._windows(d, n, k, load)
    x = np.sort(fixed_worker_times(d, 2000, n), axis=1)
    plan = schemes._window_plan(windows, n, k)
    got, ok = schemes._window_kth(x[:, plan.ranks - 1], plan)
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


def plan_from_sets(windows):
    """ranks and edges of a window plan, built from Python sets, and each
    rank's levels, ascending."""
    ranks = sorted(set().union(*(range(a, b + 1) for a, b in windows)))
    column = {rank: i for i, rank in enumerate(ranks)}
    edges = []
    for i, rank in enumerate(ranks):
        if rank - 1 not in column:
            edges.append(i)
        if rank + 1 not in column:
            edges.append(i)
    levels = {rank: [m for m, (a, b) in enumerate(windows, 1) if a <= rank <= b]
              for rank in ranks}
    return ranks, edges, levels


def plan_windows():
    """Every SELECTION_CASES window list, then the sampler's own windows."""
    for n, load, k, mu, windows in SELECTION_CASES:
        if windows is not None:
            yield windows, n, k
    points = MULTISET_POINTS + [(MultiMDS(399, 4), params(mu=2.0, n=100)),
                                (MultiMDS(1287000, 2), params(n=10**6))]
    for scheme, p in points:
        n = p.nworkers
        d = p.whole_task().split(scheme.k)
        yield schemes._windows(d, n, scheme.k, scheme.load), n, scheme.k


def test_window_plan_matches_a_set_construction():
    for windows, n, k in plan_windows():
        plan = schemes._window_plan(windows, n, k)
        ranks, edges, levels = plan_from_sets(windows)
        assert plan.ranks.tolist() == ranks, windows
        assert plan.edges.tolist() == edges, windows
        # a pooled row: each rank at its lowest level, then one column per
        # further level that shares it
        pooled = list(zip(ranks, plan.scale.tolist()))
        pooled += zip(plan.ranks[plan.extra].tolist(), plan.extra_scale.tolist())
        assert [m for _, m in pooled[:len(ranks)]] == [levels[r][0] for r in ranks], windows
        assert sorted(pooled) == sorted((r, m) for r in ranks for m in levels[r]), windows
        assert [pooled[c] for c in plan.lower] == [
            (a, m) for m, (a, _) in enumerate(windows, 1) if a > 1], windows
        assert [pooled[c] for c in plan.upper] == [
            (b, m) for m, (_, b) in enumerate(windows, 1) if b < n], windows


def test_multiset_sampler_draws_fewer_worker_order_statistics(monkeypatch):
    # a seeded MultiMDS(1287, 2) call at n = 1000 draws the window ranks of
    # every row (one spacing each in sample_batch) and the new ranks of the
    # rows it widens; windows of +-(3 sd + 1) ranks drew 96 per row
    scheme, p, size = MultiMDS(1287, 2), params(n=1000), 4097
    first, widened = [], []
    draw, widen = schemes.sample_batch, schemes._widen

    def counted_draw(d, rng, shape):
        first.append(shape[0] * shape[1])
        return draw(d, rng, shape)

    def counted_widen(d, n, rng, plan, wide, x):
        widened.append(x.shape[0] * (wide.ranks.size - plan.ranks.size))
        return widen(d, n, rng, plan, wide, x)

    monkeypatch.setattr(schemes, "sample_batch", counted_draw)
    monkeypatch.setattr(schemes, "_widen", counted_widen)
    sample_service_batch(scheme, p, rng(12), size)
    assert sum(widened) > 0
    assert (sum(first) + sum(widened)) / size < 96


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
    # row chunks its window draws alone would exceed that bound
    scheme, p, size = MultiMDS(1287, 2), params(n=1000), 4097
    bound = 8 * schemes.SCRATCH_DOUBLES + 64 * size

    def peak():
        tracemalloc.start()
        try:
            sample_service_batch(scheme, p, rng(8), size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= bound
    monkeypatch.setattr(schemes, "SCRATCH_DOUBLES", 1 << 30)
    assert peak() > bound


def test_multiset_sampler_scratch_stays_within_its_windows(monkeypatch):
    # at n = 10**8 one row of the whole n*load multiset would be 1.6 GB; the
    # sampler holds at most some doubles per window rank, also in the rows
    # whose windows it widens, plus O(size) for the output and the gammas
    scheme, p, size = MultiMDS(128_700_000, 2), params(n=10**8), 1000
    d = p.whole_task().split(scheme.k)
    ranks = sum(b - a + 1 for a, b in schemes._windows(d, p.nworkers, scheme.k, scheme.load))
    widened = []
    original = schemes._widen

    def counted(*args):
        widened.append(args[-1].shape[0])
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


@pytest.mark.parametrize("scheme", [Uncoded(), MDS(10**20 - 1), Repetition(3)])
def test_law_sampler_runs_past_int64_workers(scheme):
    # n = 10**20 exceeds every numpy integer type; the law's gamma shapes
    # must still reach the generator as doubles
    p = params(n=10**20)
    got = sample_service_batch(scheme, p, rng(64), 1000)
    assert np.isfinite(got).all()
    assert got.tobytes() == law_sample(scheme, p, rng(64), 1000).tobytes()


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
    assert mm_k1(p, 1, 4) == 1
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
    # one worker, whole task: shift + log1p(G / G')/rate with the two
    # gammas in the ratio expm1(0.7) is the draw 1 + 0.7
    p = params(n=1)
    g = np.array([[math.expm1(0.7), 1.0]])
    out = sample_service_batch(Uncoded(), p, FixedGamma(g), 1)
    assert out[0] == pytest.approx(1.7, rel=1e-12, abs=0.0)


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
    k1 = mm_k1(p, 600, 2)
    assert k1 == round(solve_levels(2, 600 / 2000, p.mu_c)[0] * 1000)
    assert k1 >= 1
