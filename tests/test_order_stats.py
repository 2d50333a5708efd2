"""Order-statistic moments against exact-sum and Monte Carlo oracles."""
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, PCG64

from coded_aoi import (
    ShiftedExp,
    gen_harmonic2,
    harmonic,
    os_mean,
    os_var,
)
from coded_aoi import MDS, MultiMDS, Repetition, SystemParams, Uncoded, age_of
from coded_aoi import order_stats
from coded_aoi.order_stats import _DIRECT, _check_order, _tail, sample_batch

PI2_OVER_6 = math.pi**2 / 6


def rng(seed):
    return Generator(PCG64(seed))


class FixedUniform:
    """Stub generator returning preset uniform draws."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size=None):
        if size is None:
            return float(self.values[0])
        # a fresh array, like Generator.random: sample_batch transforms it in place
        return self.values.reshape(size).copy()


def sample(d, rng):
    """Draw one value from d."""
    return float(sample_batch(d, rng, 1)[0])


def sample_kth_of_n(d, n, k, rng):
    """Draw n i.i.d. values from d and return the k-th smallest.

    Introselect on the uniforms, then one inverse-CDF transform: the inverse
    CDF is monotone, so this is the k-th smallest draw.
    """
    _check_order(n, k)
    u = rng.random(n)
    u.partition(k - 1)
    return float(d.shift - np.log1p(-u[k - 1]) / d.rate)


def exact_sum(lo, hi, order):
    """Sum of 1/j**order for lo <= j < hi as an unreduced (p, q), by binary splitting."""
    if hi - lo == 1:
        return 1, lo**order
    mid = (lo + hi) // 2
    a, b = exact_sum(lo, mid, order)
    c, d = exact_sum(mid, hi, order)
    return a * d + c * b, b * d


def rel_error(value, exact):
    """|value - p/q| / (p/q) for exact = (p, q) with p > 0, in exact arithmetic."""
    p, q = exact
    v = Fraction(value)
    return Fraction(abs(v.numerator * q - p * v.denominator), p * v.denominator)


SUMS = ((harmonic, 1), (gen_harmonic2, 2))


def test_harmonic_matches_direct_summation():
    for n in (1, 2, 7, 100, 1234):
        for fn, order in SUMS:
            assert rel_error(fn(n), exact_sum(1, n + 1, order)) <= 1e-15, (fn.__name__, n)
    assert harmonic(0) == 0.0
    assert harmonic(2) == 1.5
    assert harmonic(7, 7) == gen_harmonic2(40, 40) == 0.0
    # frozen from the summation oracle
    assert harmonic(100) == pytest.approx(5.187377517639621, abs=1e-14)
    assert type(harmonic(5000)) is float
    assert type(gen_harmonic2(5000, 17)) is float


def test_harmonic_sums_match_exact_sums_for_small_n():
    # every range below 100, which crosses the direct/expansion cutoff
    prefix = {order: [Fraction(0)] for _, order in SUMS}
    for j in range(1, 101):
        for order, p in prefix.items():
            p.append(p[-1] + Fraction(1, j**order))
    for n in range(1, 101):
        for m in range(n):
            for fn, order in SUMS:
                exact = prefix[order][n] - prefix[order][m]
                err = abs(Fraction(fn(n, m)) - exact) / exact
                assert err <= 1e-15, (fn.__name__, n, m, float(err))


def test_harmonic_sums_match_exact_sums_at_sampled_ranges():
    rng = random.Random(7)
    ns = [rng.randrange(2, 20_001) for _ in range(12)]
    pairs = [(n, rng.randrange(n)) for n in ns]
    # the whole range, its last term, and ranges on each side of the cutoff
    pairs += [(20_000, 0), (20_000, 19_999), (_DIRECT + 1, _DIRECT), (_DIRECT + 1, _DIRECT - 1),
              (_DIRECT, _DIRECT - 1), (5 * _DIRECT, _DIRECT // 2)]
    for n, m in pairs:
        for fn, order in SUMS:
            err = rel_error(fn(n, m), exact_sum(m + 1, n + 1, order))
            assert err <= 1e-15, (fn.__name__, n, m, float(err))


@pytest.mark.parametrize("n", [10**7, 10**9, 10**12])
def test_last_term_at_huge_n_within_two_ulps(n):
    # a difference of prefix sums would keep only about 16 - log10(n) digits
    assert abs(harmonic(n, n - 1) - 1 / n) <= 2 * math.ulp(1 / n)
    assert abs(gen_harmonic2(n, n - 1) - 1 / n**2) <= 2 * math.ulp(1 / n**2)


def test_age_at_a_billion_workers_needs_no_table():
    tracemalloc.start()
    try:
        res = age_of(Uncoded(), SystemParams(1, 1, 1, 10**9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert math.isfinite(res.delta)
    for scheme in (Repetition(10**8), MDS(7 * 10**8), MultiMDS(2 * 10**9, 3)):
        assert math.isfinite(age_of(scheme, SystemParams(1, 1, 1, 10**9)).delta)


def test_harmonic_sums_from_racing_threads():
    # the sums are pure functions, so concurrent callers see the same floats
    ns = [n for offset in range(6) for n in range(offset, 20_001, 997)]
    expected = {n: (harmonic(n), gen_harmonic2(n)) for n in ns}
    mismatches = []

    def reader(offset):
        for n in range(offset, 20_001, 997):
            if (harmonic(n), gen_harmonic2(n)) != expected[n]:
                mismatches.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic(-1)
    with pytest.raises(ValueError):
        gen_harmonic2(-3)
    with pytest.raises(ValueError):
        harmonic(3, 4)
    with pytest.raises(ValueError):
        gen_harmonic2(5, -1)


def reference_power_sum(order, n, m):
    """The sum of 1/j**order over m < j <= n as fsum over every direct term
    1/j**order, j <= _DIRECT, and the expansion's tail: order_stats'
    arithmetic before the direct part became a two-double (hi, lo) and the
    sums were kept."""
    direct = tuple(1 / j**order for j in range(m + 1, min(n, _DIRECT) + 1))
    tail = (_tail(n, max(m, _DIRECT), order),) if n > max(m, _DIRECT) else ()
    return math.fsum(direct + tail)


def power_sum_grid(seed):
    """(n, m) pairs: every n <= 2 _DIRECT, then random ranges with m >= _DIRECT,
    m = n, m just below n, n past 2**53 and numpy integers."""
    rng = random.Random(seed)
    pairs = [(n, m) for n in range(2 * _DIRECT + 1) for m in range(n + 1)]
    for _ in range(3000):
        n = rng.randrange(1, 2 ** rng.randrange(1, 64))
        pairs += [(n, rng.randrange(n + 1)), (n, rng.randrange(min(n, _DIRECT) + 1)), (n, n),
                  (n, max(0, n - rng.randrange(1, 50)))]
        if n > _DIRECT:
            pairs.append((n, rng.randrange(_DIRECT, n + 1)))
    for _ in range(300):
        n = rng.randrange(2**53, 2**62)
        pairs += [(n, rng.randrange(_DIRECT)), (n, n - rng.randrange(1, 100))]
    pairs += [(np.int64(n), np.int64(m)) for n, m in pairs[-200:]]
    pairs += [(np.uint64(2**63 + 7), np.int32(5)), (np.int64(40), np.uint8(3))]
    return pairs


def test_power_sums_equal_the_direct_fsum_bit_for_bit():
    # fsum rounds correctly, so fsum((hi, lo, tail)) is fsum over the direct
    # terms and the tail whenever hi + lo is the direct part exactly
    for n, m in power_sum_grid(11):
        for fn, order in SUMS:
            got, want = fn(n, m), reference_power_sum(order, int(n), int(m))
            assert type(got) is float and got.hex() == want.hex(), (fn.__name__, n, m)
            # a repeat is a memo hit and returns the same bits
            assert fn(n, m).hex() == want.hex(), (fn.__name__, n, m)


def test_direct_part_is_exact_in_two_doubles():
    for order in (1, 2):
        for m in range(_DIRECT + 1):
            for top in range(m, _DIRECT + 1):
                hi, lo = order_stats._direct(order, m, top)
                # the sum of the doubles 1/j**order, not of the exact 1/j**order
                terms = sum(Fraction(1 / j**order) for j in range(m + 1, top + 1))
                assert Fraction(hi) + Fraction(lo) == terms, (order, m, top)
                assert abs(lo) <= math.ulp(hi) / 2


def test_power_sum_memo_is_bounded():
    maxsize = order_stats._checked_sum.cache_info().maxsize
    assert maxsize == 1024
    for n in range(10**5):
        harmonic(10**6 + n, 7)
    info = order_stats._checked_sum.cache_info()
    assert info.currsize == maxsize and info.maxsize == maxsize
    # the direct parts are kept per (order, m, top) with m and top at most _DIRECT
    for m in range(10**4):
        gen_harmonic2(10**9, m)
    assert order_stats._direct.cache_info().currsize <= 2 * (_DIRECT + 1) ** 2


@pytest.mark.parametrize("bad", [True, False, 2.0, 7.5, "3", None, Fraction(3), np.float64(4)])
def test_counts_must_be_integers(bad):
    # bool is refused before the memo, where True would hit the entry of 1
    harmonic(1), gen_harmonic2(1), harmonic(5, 0)
    d = ShiftedExp(0, 1)
    calls = [lambda: harmonic(bad), lambda: harmonic(5, bad), lambda: gen_harmonic2(bad),
             lambda: gen_harmonic2(5, bad), lambda: os_mean(d, bad, 1),
             lambda: os_mean(d, 5, bad), lambda: os_var(d, bad, 1), lambda: os_var(d, 5, bad)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_numpy_integer_orders_are_python_ints_inside():
    # numpy takes uint64 - int64 to float64 and int64 products past 2**63
    # wrap; as Python ints, n - k is an integer and n * m exact
    d, n = ShiftedExp(0, 1), 2**40 + 3
    assert os_mean(d, np.uint64(9), np.int64(4)) == os_mean(d, 9, 4)
    assert os_var(d, np.uint64(9), np.int64(4)) == os_var(d, 9, 4)
    assert os_mean(d, np.int64(n), np.int64(n // 2)) == os_mean(d, n, n // 2)


def test_gen_harmonic2_values_and_bound():
    assert gen_harmonic2(1) == 1.0
    assert gen_harmonic2(2) == 1.25
    for n in (1, 10, 1000, 100_000):
        assert gen_harmonic2(n) < PI2_OVER_6
    # approaches pi^2/6 from below, gap ~ 1/n
    assert PI2_OVER_6 - gen_harmonic2(100_000) < 2e-5


def test_shifted_exp_invariants():
    ShiftedExp(0.0, 1.0)  # zero shift is a permitted degenerate case
    with pytest.raises(ValueError):
        ShiftedExp(-0.1, 1.0)
    with pytest.raises(ValueError):
        ShiftedExp(1.0, 0.0)
    d = ShiftedExp(1.0, 1.0).split(4)
    assert d == ShiftedExp(0.25, 4.0)


def test_shifted_exp_rejects_nan():
    # a NaN parameter would turn every moment and draw into NaN, silently
    for shift, rate in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError):
            ShiftedExp(shift, rate)
    # an infinite rate stays allowed: it is the point mass at the shift,
    # which splits at extreme rates reach
    d = ShiftedExp(1.0, math.inf)
    assert os_mean(d, 3, 2) == 1.0
    assert (sample_batch(d, rng(3), 5) == 1.0).all()


def test_os_mean_examples():
    assert os_mean(ShiftedExp(1, 1), 1, 1) == pytest.approx(2.0, abs=1e-15)
    assert os_mean(ShiftedExp(1, 1), 2, 2) == pytest.approx(2.5, abs=1e-15)
    # frozen from the harmonic summation oracle: 1 + (H_10 - H_5)/2
    assert os_mean(ShiftedExp(1, 2), 10, 5) == pytest.approx(1.3228174603174603,
                                                            rel=1e-13, abs=0.0)


def test_os_var_examples():
    assert os_var(ShiftedExp(1, 1), 1, 1) == pytest.approx(1.0, abs=1e-15)
    # the shift never affects the spread
    assert os_var(ShiftedExp(5, 1), 1, 1) == pytest.approx(1.0, abs=1e-15)
    # frozen: G_4 - G_2 = 1/9 + 1/16
    assert os_var(ShiftedExp(0, 1), 4, 2) == pytest.approx(0.1736111111111111, rel=1e-13, abs=0.0)


def test_order_index_validation():
    d = ShiftedExp(1, 1)
    for n, k in [(0, 0), (5, 0), (5, 6), (3, -1)]:
        with pytest.raises(ValueError):
            os_mean(d, n, k)


def test_os_mean_strictly_increasing_in_k():
    for shift, rate, n in [(0.0, 1.0, 25), (0.5, 2.0, 25), (3.0, 0.1, 8)]:
        d = ShiftedExp(shift, rate)
        means = [os_mean(d, n, k) for k in range(1, n + 1)]
        assert all(b > a for a, b in zip(means, means[1:]))


def test_os_var_vanishes_for_proportional_k():
    d = ShiftedExp(1, 1)
    assert os_var(d, 10_000, 5_000) < 0.01 * os_var(d, 10, 5)


def test_sample_inverse_cdf_transform():
    # U = 1 exactly: zero exponential part
    assert sample(ShiftedExp(3.0, 2.0), FixedUniform([0.0])) == 3.0
    # U = exp(-1), (shift=1, rate=2) -> 1 + 1/2
    u = 1.0 - math.exp(-1.0)
    assert sample(ShiftedExp(1.0, 2.0), FixedUniform([u])) == pytest.approx(
        1.5, rel=1e-12, abs=0.0)


def test_sample_batch_is_the_plain_inverse_cdf():
    d = ShiftedExp(0.5, 2.0)
    got = sample_batch(d, rng(11), (300, 7))
    want = d.shift - np.log1p(-rng(11).random((300, 7))) / d.rate
    assert got.tobytes() == want.tobytes()


def test_sample_never_below_shift():
    x = sample_batch(ShiftedExp(2.0, 3.0), rng(0), 10_000)
    assert (x >= 2.0).all()


def test_sample_mean_large_sample():
    x = sample_batch(ShiftedExp(1, 1), rng(1), 1_000_000)
    assert abs(x.mean() - 2.0) < 0.01


def test_sample_kth_of_n_single_draw_matches_sample():
    d = ShiftedExp(1.0, 0.5)
    assert sample_kth_of_n(d, 1, 1, rng(9)) == sample(d, rng(9))


def test_sample_kth_of_n_moments_match_analytic():
    d = ShiftedExp(1, 1)
    n, k, draws = 10, 5, 100_000
    xs = np.array([sample_kth_of_n(d, n, k, r) for r in (rng(3),) for _ in range(draws)])
    true_mean = os_mean(d, n, k)
    true_var = os_var(d, n, k)
    se = math.sqrt(true_var / draws)
    assert abs(xs.mean() - true_mean) < 3 * se
    assert abs(xs.var(ddof=1) - true_var) / true_var < 0.05


def test_batch_empirical_moments_within_three_sigma():
    # larger-scale version of the same check on the vectorized path
    d = ShiftedExp(0.5, 2.0)
    n, k, draws = 12, 4, 1_000_000
    x = sample_batch(d, rng(4), (draws, n))
    kth = np.partition(x, k - 1, axis=1)[:, k - 1]
    se = math.sqrt(os_var(d, n, k) / draws)
    assert abs(kth.mean() - os_mean(d, n, k)) < 3 * se
    assert abs(kth.var(ddof=1) - os_var(d, n, k)) / os_var(d, n, k) < 0.05


@pytest.mark.parametrize("shift, rate", [(True, 1.0), (1.0, False), (1.0, "a"), (None, 1.0),
                                         (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)])
def test_shifted_exp_refuses_bool_non_numbers_and_an_infinite_shift(shift, rate):
    # True ran as a shift of 1, and "a" raised TypeError
    with pytest.raises(ValueError, match="shift|rate"):
        ShiftedExp(shift, rate)


def test_shifted_exp_keeps_python_floats():
    d = ShiftedExp(np.float32(0.5), np.int64(2))
    assert (type(d.shift), type(d.rate)) == (float, float) and d == ShiftedExp(0.5, 2.0)
    assert ShiftedExp(0, math.inf).rate == math.inf
