"""Simulator checks: exact limits, determinism, mode agreement, moment recovery."""
import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, PCG64, SeedSequence

from coded_aoi import (
    MDS,
    InsufficientCycles,
    MultiMDS,
    Repetition,
    SystemParams,
    Uncoded,
    age_of,
    run,
    run_parallel,
    sample_service_batch,
    service_moments,
)
import coded_aoi
from coded_aoi import schemes, simulate
from coded_aoi.simulate import (
    BATCHES,
    MAX_DROPS_PER_CYCLE,
    _T_QUANTILE,
    _cycles,
    batch_means_ci,
)
from schemes_reference import ZeroService
from simulate_reference import round_walk


def params(lam=1.0, c=1.0, mu=1.0, n=100):
    return SystemParams(lam, c, mu, n)


# the full-stream walk of zero-wait sending, as (scheme, params, rng, cycles)
stream_cycles = functools.partial(_cycles, mode="full_stream", policy="zero-wait")


def test_zero_service_gives_twice_inverse_rate():
    for lam in (0.5, 1.0, 2.0):
        r = run(ZeroService(), params(lam=lam, n=1), 200_000, seed=42)
        assert abs(r.mean_age - 2 / lam) <= r.ci95_halfwidth
        assert r.empirical_es == 0.0


def test_insufficient_cycles():
    with pytest.raises(InsufficientCycles):
        run(Uncoded(), params(n=1), 10, seed=1)
    with pytest.raises(InsufficientCycles):
        run_parallel(MDS(69), params(), 14, 2, seed=1)
    # the batches span replications, so 3 x 10 cycles make 30 one-cycle batches
    r = run_parallel(MDS(69), params(), 10, 3, seed=1)
    assert r.cycles == 30 and math.isfinite(r.ci95_halfwidth)


def test_nondivisor_repetition_simulates_the_real_split():
    # 40 groups of one replica and 20 of two: E[S] = 0.0778 at c = mu = 1
    # (integral of the real split's tail), where the paper's model gives 0.0635
    r = run(Repetition(60), params(), 20_000, seed=1)
    se = math.sqrt((r.empirical_es2 - r.empirical_es**2) / r.cycles)
    assert abs(r.empirical_es - 0.07784643800851959) < 4 * se
    assert service_moments(Repetition(60), params()).es < r.empirical_es - 20 * se


def test_run_is_deterministic():
    a = run(MDS(69), params(), 5000, seed=7)
    b = run(MDS(69), params(), 5000, seed=7)
    assert repr(a) == repr(b)


def test_run_parallel_is_deterministic_and_extends_run():
    a = run_parallel(MDS(69), params(), 5000, 4, seed=7)
    b = run_parallel(MDS(69), params(), 5000, 4, seed=7)
    assert repr(a) == repr(b)
    assert repr(run_parallel(MDS(69), params(), 5000, 1, seed=7)) == repr(
        run(MDS(69), params(), 5000, seed=7))


def test_replications_pool_consistently():
    pooled = run_parallel(MDS(69), params(), 12_500, 8, seed=8)
    single = run(MDS(69), params(), 100_000, seed=9)
    joint = math.hypot(pooled.ci95_halfwidth, single.ci95_halfwidth)
    assert abs(pooled.mean_age - single.mean_age) <= joint
    assert pooled.cycles == 100_000


def test_fast_and_full_stream_agree():
    for scheme in (MDS(69), Uncoded()):
        a = run(scheme, params(), 100_000, seed=11, mode="fast")
        b = run(scheme, params(), 100_000, seed=12, mode="full_stream")
        joint = math.hypot(a.ci95_halfwidth, b.ci95_halfwidth)
        assert abs(a.mean_age - b.mean_age) <= joint
        assert a.dropped_fraction is None
        assert b.dropped_fraction is not None


def test_full_stream_delay_and_idle_wait_are_exponential_means():
    r = run(MDS(69), params(), 100_000, seed=11, mode="full_stream")
    se = 1.0 / math.sqrt(100_000)
    assert abs(r.empirical_ed - 1.0) < 3 * se
    assert abs(r.empirical_ez - 1.0) < 3 * se


def test_fast_mode_idle_wait_matches_rate():
    p = params(lam=2.0)
    r = run(MDS(69), p, 100_000, seed=14)
    se = 0.5 / math.sqrt(100_000)
    assert abs(r.empirical_ed - 0.5) < 3 * se
    assert abs(r.empirical_ez - 0.5) < 3 * se


def test_full_stream_drop_fraction_consistent():
    for scheme in (Uncoded(), MDS(69)):
        r = run(scheme, params(), 100_000, seed=12, mode="full_stream")
        es = service_moments(scheme, params()).es
        predicted = es / (es + 1.0)
        assert 0.0 < r.dropped_fraction < 1.0
        se = math.sqrt(predicted / 100_000)
        assert abs(r.dropped_fraction - predicted) < 4 * se


def test_empirical_service_moments_match_analytic():
    p = params()
    for scheme in (Uncoded(), Repetition(50), MDS(69)):
        m = service_moments(scheme, p)
        r = run(scheme, p, 100_000, seed=21)
        se = math.sqrt((m.es2 - m.es**2) / 100_000)
        assert abs(r.empirical_es - m.es) < 3 * se


def test_multi_message_moment_gap_shrinks_with_pool():
    # the analytic service moments use the asymptotic level split; the
    # sampled gap is a finite-pool effect and drops below 1% by n = 1000
    gaps = {}
    for n, k in ((100, 120), (1000, 1200)):
        p = params(n=n)
        m = service_moments(MultiMDS(k, 2), p)
        r = run(MultiMDS(k, 2), p, 100_000, seed=5)
        gaps[n] = abs(r.empirical_es - m.es) / m.es
    assert gaps[1000] < 0.01


def test_multi_message_at_k_one_matches_analytic():
    # alpha_1 * n rounds to 0 at this point, yet k1 = 1 makes the model exact:
    # the first of all results is the fastest worker's first subtask
    p = params(c=0.02, mu=0.01, n=20)
    scheme = MultiMDS(1, 4)
    m = service_moments(scheme, p)
    r = run_parallel(scheme, p, 20_000, 2, seed=19)
    se = math.sqrt((m.es2 - m.es**2) / 40_000)
    assert abs(r.empirical_es - m.es) < 3 * se
    assert abs(r.mean_age - age_of(scheme, p).delta) <= 1.5 * r.ci95_halfwidth


def test_return_triggered_policy_matches_analytic():
    p = params()
    r = run(MDS(69), p, 200_000, seed=21, policy="return-triggered")
    assert abs(r.mean_age - age_of(MDS(69), p).delta) <= 1.5 * r.ci95_halfwidth


def test_simulated_age_tracks_analytic_quickly():
    p = params()
    for scheme, ana in [(Uncoded(), None), (MDS(69), None)]:
        expected = {Uncoded: 2.0637534065120195, MDS: 2.0317836502582427}[type(scheme)]
        r = run(scheme, p, 100_000, seed=33)
        assert abs(r.mean_age - expected) / expected < 0.01


def jackknife_ci(area_batches, time_batches):
    """95% half-width for the ratio estimator by leave-one-batch-out jackknife.

    A reference for batch_means_ci; both should give comparable widths.
    """
    nb = len(area_batches)
    a_tot, t_tot = area_batches.sum(), time_batches.sum()
    loo = (a_tot - area_batches) / (t_tot - time_batches)
    se = math.sqrt((nb - 1) / nb * ((loo - loo.mean()) ** 2).sum())
    return float(_T_QUANTILE * se)


def test_jackknife_matches_batch_means_scale():
    rng = Generator(PCG64(SeedSequence(3)))
    cycles = 60_000
    s, d_used, z, _ = _cycles(MDS(69), params(), rng, cycles, "fast", "zero-wait")
    # run_parallel's batches: cycle i lasts z_i + s_{i+1} from the age d_i + s_i
    length = z + s[1:]
    edges = (np.arange(BATCHES) * cycles) // BATCHES
    area = np.add.reduceat(length * (d_used + s[:-1] + 0.5 * length), edges)
    time = np.add.reduceat(length, edges)
    bm = batch_means_ci(area, time)
    jk = jackknife_ci(area, time)
    assert 0.5 < jk / bm < 2.0


def pooled_batches_ci(scheme, p, cycles_per_rep, reps, seed):
    """(mean age, 95% half-width) of BATCHES batches over the concatenated replications.

    A reference for run_parallel: it holds every replication's cycles at once
    and cuts the pooled arrays at the global batch edges.
    """
    lengths, areas = [], []
    for child in SeedSequence(seed).spawn(reps):
        s, d_used, z, _ = _cycles(scheme, p, Generator(PCG64(child)), cycles_per_rep,
                                  "fast", "zero-wait")
        length = z + s[1:]
        lengths.append(length)
        areas.append(length * (d_used + s[:-1] + 0.5 * length))
    length, area = np.concatenate(lengths), np.concatenate(areas)
    edges = (np.arange(BATCHES) * length.size) // BATCHES
    area, time = np.add.reduceat(area, edges), np.add.reduceat(length, edges)
    return area.sum() / time.sum(), batch_means_ci(area, time)


@pytest.mark.parametrize("cycles_per_rep,reps", [(100, 1), (100, 7), (31, 3), (10, 3)])
def test_run_parallel_cuts_the_pooled_cycles_into_batches(cycles_per_rep, reps):
    # the edges fall inside replications, and batches span two of them
    mean_age, ci95 = pooled_batches_ci(MDS(69), params(), cycles_per_rep, reps, 5)
    r = run_parallel(MDS(69), params(), cycles_per_rep, reps, seed=5)
    assert r.mean_age == pytest.approx(mean_age, rel=1e-12, abs=0.0)
    assert r.ci95_halfwidth == pytest.approx(ci95, rel=1e-12, abs=0.0)


def test_t_quantile_literal_matches_scipy():
    scipy = pytest.importorskip("scipy")
    from scipy import stats

    ref = stats.t.ppf(0.975, BATCHES - 1)
    assert _T_QUANTILE == pytest.approx(ref, rel=1e-13, abs=0.0), scipy.__version__


def test_import_loads_no_scipy():
    src = str(Path(coded_aoi.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, coded_aoi, coded_aoi.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"


def test_bad_mode_and_policy_rejected():
    with pytest.raises(ValueError):
        run(MDS(69), params(), 1000, seed=1, mode="warp")
    with pytest.raises(ValueError):
        run(MDS(69), params(), 1000, seed=1, policy="psychic")
    with pytest.raises(ValueError, match="reps must be >= 1, got 0"):
        run_parallel(MDS(69), params(), 1000, reps=0, seed=1)


@pytest.mark.parametrize("mode", ["fast", "full_stream"])
def test_report_does_not_depend_on_chunk_size(monkeypatch, mode):
    p = params(n=20)
    tested = (Uncoded(), Repetition(4), MDS(13), MultiMDS(30, 2))

    def reports():
        return [repr(run_parallel(s, p, 2000, 2, seed=41, mode=mode)) for s in tested]

    # only the MultiMDS sampler at load >= 2 walks row chunks; the
    # order-statistic laws draw a replication's service times in one call,
    # with no row chunks, so SCRATCH_DOUBLES does not reach them
    default = reports()
    monkeypatch.setattr(schemes, "SCRATCH_DOUBLES", 1)  # one row per chunk
    few_rows = reports()
    monkeypatch.setattr(schemes, "SCRATCH_DOUBLES", 1 << 30)  # one chunk per replication
    whole_run = reports()
    assert few_rows == default
    assert whole_run == default


def test_seed_sequence_entropy_is_reported_as_given():
    r = run(MDS(69), params(), 1000, seed=SeedSequence([1, 2]))
    assert r.seed == (1, 2)
    assert repr(r) == repr(run(MDS(69), params(), 1000, seed=SeedSequence([1, 2])))
    assert run(MDS(69), params(), 1000, seed=SeedSequence(5)).seed == 5
    assert run(MDS(69), params(), 1000, seed=5).seed == 5


WALK_BLOCK = 1 << 14  # arrivals per draw of the reference walk; any size draws the same values


def _reference_stream_cycles(scheme, params, rng, cycles):
    """The global per-arrival event walk whose law the full-stream _cycles must follow.

    One arrival stream for the whole run, every arrival carrying a drawn
    transit age, the dropped ones too.
    """
    lam = params.arrival_rate
    s = sample_service_batch(scheme, params, rng, cycles + 1)
    d_used = np.empty(cycles)
    z = np.empty(cycles)
    dropped = 0

    def exponentials() -> np.ndarray:
        # the inverse CDF on 1 - U, U in [0, 1), written out here so the
        # walk does not share the library's exponential sampler
        return -np.log1p(-rng.random(2 * WALK_BLOCK)) / lam

    buf = exponentials()
    pos = 0

    def draw() -> float:
        nonlocal buf, pos
        if pos == len(buf):
            buf = exponentials()
            pos = 0
        pos += 1
        return buf[pos - 1]

    # Each arrival consumes two exponentials: the interarrival gap and the
    # transit age the packet carries.  The first update finds the pool idle
    # by construction.
    t = draw()
    d_cur = draw()
    completion = t + s[0]
    for j in range(cycles):
        while True:
            t += draw()
            age = draw()
            if t >= completion:
                break
            dropped += 1
        d_used[j] = d_cur
        z[j] = t - completion
        d_cur = age
        completion = t + s[j + 1]
    return s, d_used, z, cycles + 1 + dropped


class GammaService(Uncoded):
    """Service times no scheme gives: Gamma(2, 0.05), continuous and unshifted."""

    def sample(self, params, rng, size):
        return rng.gamma(2.0, 0.05, size)


class SlowService(Uncoded):
    """S = 1e6 always: lambda * E[S] is far past the full-stream drop cap."""

    def sample(self, params, rng, size):
        return np.full(size, 1e6)


# the case ids name the service-time source after the scheme; they stay fixed
# so a case can be compared across revisions
STREAM_SCHEMES = pytest.mark.parametrize("scheme", [
    Uncoded(), MDS(7), MultiMDS(13, 2), GammaService(), ZeroService(),
], ids=["scheme0-None", "scheme1-None", "scheme2-None",
        "scheme3-gamma_service", "scheme4-zero_service"])
STREAM_RATES = pytest.mark.parametrize("lam", [0.05, 1.0, 20.0, 200.0])


@STREAM_SCHEMES
@STREAM_RATES
def test_stream_cycles_bitwise_equal_to_event_walk(scheme, lam):
    p = params(lam=lam, n=10)
    for seed, cycles in ((51, 30), (52, 8192), (53, 1)):
        got = stream_cycles(scheme, p, Generator(PCG64(seed)), cycles)
        want = round_walk(scheme, p, Generator(PCG64(seed)), cycles)
        assert len(got) == len(want)
        assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in want[:3]]
        assert got[3] == want[3]


def _stream_law_sample(walk, scheme, p, seeds, cycles):
    """Pooled Z and D draws, dropped arrivals and their conditional mean."""
    z, d, dropped, expected = [], [], 0, 0.0
    for seed in seeds:
        s, d_used, z_used, arrivals = walk(scheme, p, Generator(PCG64(seed)), cycles)
        z.append(z_used)
        d.append(d_used)
        dropped += arrivals - (cycles + 1)
        # given S_j, the arrivals a cycle drops are Poisson(lambda * S_j)
        expected += p.arrival_rate * float(s[:-1].sum())
    return np.concatenate(z), np.concatenate(d), dropped, expected


def _assert_same_stream_law(scheme, p, seeds, cycles):
    stats = pytest.importorskip("scipy.stats")
    z, d, dropped, expected = _stream_law_sample(stream_cycles, scheme, p, seeds, cycles)
    z_ref, d_ref, dropped_ref, expected_ref = _stream_law_sample(
        _reference_stream_cycles, scheme, p, [seed + 100 for seed in seeds], cycles)
    assert stats.ks_2samp(z, z_ref).pvalue > 1e-4
    assert stats.ks_2samp(d, d_ref).pvalue > 1e-4
    # the two walks' drop counts less their Poisson means, in standard errors
    excess = (dropped - expected) - (dropped_ref - expected_ref)
    assert abs(excess) <= 4.0 * math.sqrt(expected + expected_ref)


@STREAM_SCHEMES
@STREAM_RATES
def test_stream_cycles_follow_the_event_walk_law(scheme, lam):
    _assert_same_stream_law(scheme, params(lam=lam, n=10), range(61, 65), 3000)


def test_stream_cycles_follow_the_event_walk_law_when_heavy_tailed():
    # one worker with E[S] = 101: about 808 dropped arrivals per cycle, and
    # the cycles still waiting after a round are the long ones
    _assert_same_stream_law(Uncoded(), SystemParams(8, 1, 0.01, 1), range(71, 73), 1000)


def test_full_stream_report_does_not_depend_on_arrival_block(monkeypatch):
    points = [(s, params(lam=lam, n=20)) for s in (Uncoded(), MDS(13), MultiMDS(30, 2))
              for lam in (1.0, 20.0)]

    def reports():
        return [repr(run_parallel(s, p, 2000, 2, seed=43, mode="full_stream"))
                for s, p in points]

    default = reports()
    # one gap column per slice: each slice goes on from the sums the last one
    # ended on
    monkeypatch.setattr(simulate, "WAIT_SLICE", 1)
    one_row = reports()
    monkeypatch.setattr(simulate, "WAIT_SLICE", 1 << 30)  # one slice per round
    one_slice = reports()
    assert one_row == default
    assert one_slice == default


def test_stream_cycles_scratch_is_bounded(monkeypatch):
    # about 909 arrivals per cycle, near the cap: 2000 cycles draw some 1.8e6
    # gaps, but the walk holds one slice of at most WAIT_SLICE of them, its
    # comparison bytes and O(cycles) per-cycle arrays; with one slice per
    # round the first round alone is larger
    p, cycles = SystemParams(9, 1, 0.01, 1), 2000
    bound = 10 * simulate.WAIT_SLICE + 128 * cycles

    def peak():
        tracemalloc.start()
        try:
            arrivals = stream_cycles(Uncoded(), p, Generator(PCG64(5)), cycles)[3]
            return tracemalloc.get_traced_memory()[1], arrivals
        finally:
            tracemalloc.stop()

    scratch, arrivals = peak()
    assert scratch <= bound < 8 * arrivals
    monkeypatch.setattr(simulate, "WAIT_SLICE", 1 << 30)
    assert peak()[0] > bound


# the benchmark's stream-drops points (n = 10, 8192 cycles a replication) and
# the most rounds their walks may take at seeds 0-19 (measured: 5 or 6 at
# lambda = 20, 3 or 4 at lambda = 1); a walk that gives each small round a
# draw of its own takes up to 13 and 7
@pytest.mark.parametrize("scheme, lam, most_rounds", [
    (MDS(7), 1.0, 4), (Uncoded(), 1.0, 4), (MDS(7), 20.0, 6), (Uncoded(), 20.0, 6)])
def test_stream_walk_rounds_and_gaps_are_bounded(monkeypatch, scheme, lam, most_rounds):
    draw, rounds = simulate.sample_batch, []

    def counted(d, rng, size):
        # the walk's gap draws are 2-D, d_used's is not
        if isinstance(size, tuple):
            rounds.append(math.prod(size))
        return draw(d, rng, size)

    monkeypatch.setattr(simulate, "sample_batch", counted)
    # one slice per round, so each 2-D draw is a round; the slice size moves
    # no value
    monkeypatch.setattr(simulate, "WAIT_SLICE", 1 << 30)
    p = params(lam=lam, n=10)
    for seed in range(20):
        rounds.clear()
        arrivals = stream_cycles(scheme, p, Generator(PCG64(seed)), 8192)[3]
        assert len(rounds) <= most_rounds
        # the gaps a row holds past its cycle's ending arrival go unused: at
        # most a quarter more gaps than arrivals (measured: up to 1.22 times)
        assert sum(rounds) <= 1.25 * arrivals


def test_full_stream_refuses_more_than_the_drop_cap():
    # lambda * E[S] is about 1e6 here: the walk would draw 1e8 arrivals
    p = SystemParams(1, 1, 1e-6, 9)
    with pytest.raises(ValueError, match=f"limit of {MAX_DROPS_PER_CYCLE};"):
        run(Uncoded(), p, 100, 1156, mode="full_stream")
    assert math.isfinite(run(Uncoded(), p, 100, 1156).mean_age)
    with pytest.raises(ValueError, match="lambda\\*E\\[S\\] = 1e\\+06 "):
        run(SlowService(), params(), 100, 1, mode="full_stream")
    # nothing is dropped under return-triggered sending, so nothing is capped
    r = run(Uncoded(), p, 100, 1156, mode="full_stream", policy="return-triggered")
    assert r.dropped_fraction is None


@pytest.mark.parametrize("kwargs", [
    dict(cycles_per_rep=100.5), dict(cycles_per_rep=True), dict(cycles_per_rep="100"),
    dict(reps=2.0), dict(reps=True),
])
def test_run_parallel_rejects_non_integer_counts(kwargs):
    args = dict(cycles_per_rep=100, reps=1) | kwargs
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run_parallel(MDS(5), SystemParams(1, 1, 1, 10), args["cycles_per_rep"], args["reps"],
                     seed=1)


def test_run_parallel_accepts_numpy_integer_counts():
    p = SystemParams(1, 1, 1, 10)
    want = repr(run_parallel(MDS(5), p, 100, 2, seed=1))
    got = repr(run_parallel(MDS(5), p, np.int64(100), np.int32(2), seed=1))
    assert got == want


def test_report_a_double_cannot_hold_raises_without_warning():
    # cycle lengths near 1e200 square to areas past the largest double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"simulated age of Uncoded\(\) overflows"):
            run_parallel(Uncoded(), SystemParams(1e-200, 1, 1, 3), 100, 1, 1)


@pytest.mark.parametrize("seed", [None, True, 1.5, "7", -1])
def test_run_parallel_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be a SeedSequence or an integer >= 0"):
        run(MDS(5), SystemParams(1, 1, 1, 10), 100, seed)


def test_run_parallel_accepts_integer_and_seed_sequence_seeds():
    p = SystemParams(1, 1, 1, 10)
    assert repr(run(MDS(5), p, 100, np.int64(7))) == repr(run(MDS(5), p, 100, 7))
    assert run(MDS(5), p, 100, np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert repr(run(MDS(5), p, 100, SeedSequence(7))) == repr(run(MDS(5), p, 100, 7))
    fresh = SeedSequence()
    assert run(MDS(5), p, 100, fresh).seed == fresh.entropy


SCALING_SCHEMES = [Uncoded(), Repetition(5), Repetition(6), MDS(14), MultiMDS(14, 1),
                   MultiMDS(30, 2), MultiMDS(70, 4)]


@pytest.mark.parametrize("j", [-3, 5])
@pytest.mark.parametrize("mode, policy", [
    ("fast", "zero-wait"), ("fast", "return-triggered"),
    ("full_stream", "zero-wait"), ("full_stream", "return-triggered")])
@pytest.mark.parametrize("scheme", SCALING_SCHEMES, ids=repr)
def test_power_of_two_time_scaling_is_exact(monkeypatch, scheme, mode, policy, j):
    # lambda and mu times 2**-j and c times 2**j scale every time by 2**j
    # with no change of rounding: every draw, window and sum scales exactly.
    # Windows of +-(0.1 sd + 1) ranks make most mm-mds rows widen, so the
    # widening is under the property too; repetition at k = 6 does not
    # divide n = 20
    monkeypatch.setattr(schemes, "WINDOW_Z", 0.1)
    base = params(lam=3.0, c=0.7, mu=1.3, n=20)
    scaled = params(lam=math.ldexp(3.0, -j), c=math.ldexp(0.7, j), mu=math.ldexp(1.3, -j), n=20)
    a = run_parallel(scheme, base, 300, 2, seed=5, mode=mode, policy=policy)
    b = run_parallel(scheme, scaled, 300, 2, seed=5, mode=mode, policy=policy)
    for name in ("mean_age", "ci95_halfwidth", "empirical_es", "empirical_ed", "empirical_ez"):
        assert getattr(b, name) == math.ldexp(getattr(a, name), j), name
    assert b.empirical_es2 == math.ldexp(a.empirical_es2, 2 * j)
    assert (b.dropped_fraction, b.cycles, b.seed) == (a.dropped_fraction, a.cycles, a.seed)
    assert age_of(scheme, scaled).delta == math.ldexp(age_of(scheme, base).delta, j)
