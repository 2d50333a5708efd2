"""Optimizers against bisection, exhaustive-sweep, and closed-form oracles."""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from coded_aoi import (
    SystemParams,
    age_of,
    lambert_w_m1,
    opt_mds,
    opt_mm_mds,
    opt_repetition,
    refine_discrete,
    service_moments,
)
from coded_aoi import optimize
from coded_aoi.levels import solve_levels
from levels_reference import chain_alphas_grid, chain_residuals
from coded_aoi.schemes import MDS, MultiMDS, Repetition
from schemes_reference import model_k1


def params(lam=1.0, c=1.0, mu=1.0, n=100):
    return SystemParams(lam, c, mu, n)


def lambert_bisect_oracle(x, lo=-700.0, hi=-1.0):
    """Bisection on w*exp(w) = x over the lower branch."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid * math.exp(mid) - x > 0:
            lo = mid
        else:
            hi = mid
    return hi


def test_lambert_branch_point():
    assert lambert_w_m1(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-8)


def test_lambert_known_value():
    # frozen from the bisection oracle on w*exp(w) = -exp(-2)
    w = lambert_w_m1(-math.exp(-2.0))
    assert w == pytest.approx(-3.1461932206205825, abs=1e-10)
    assert w == pytest.approx(lambert_bisect_oracle(-math.exp(-2.0), -10.0, -1.0), abs=1e-10)


def test_lambert_self_consistency_random_points():
    rng = np.random.default_rng(2024)
    xs = -math.exp(-1.0) * rng.uniform(1e-9, 1.0, 100)
    for x in xs:
        w = lambert_w_m1(float(x))
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) < 1e-12


def test_lambert_domain_errors():
    for x in (-0.5, 0.0, 0.1, -1.0):
        with pytest.raises(ValueError):
            lambert_w_m1(x)


EPS = 2.0 ** -52


def decimal_branch_excess(d):
    """The u >= 0 with u - ln(1 + u) = d, for d < 1 (0 for d <= 0), by Newton
    steps in decimal arithmetic with enough digits that 1 + u keeps 60 of u's.
    The left side is convex, so the steps fall onto the root from the right."""
    d = Decimal(d)
    if d <= 0:
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 60 - 2 * d.adjusted()
        u = 2 * (2 * d).sqrt()
        for _ in range(200):
            step = (u - (1 + u).ln() - d) * (1 + u) / u
            u -= step
            if step <= u.scaleb(-60):
                break
        return u


@pytest.mark.parametrize("cm", [1e-10, 1e-20, 1e-200])
def test_opt_mds_alpha_at_small_shift_times_straggling(cm):
    # u - log1p(u) = cm cancels in doubles once u is small: the fraction
    # u / (1 + u) came out 1.5e-7 low at cm = 1e-20, and 1.24e-16 at any cm
    # below about 1e-32, where it is about sqrt(2 cm)
    u = decimal_branch_excess(cm)
    with localcontext() as ctx:
        ctx.prec = 80
        expected = float(u / (1 + u))
    alpha = opt_mds(SystemParams(1.0, cm, 1.0, 100)).alpha_star
    assert alpha == pytest.approx(expected, rel=4 * EPS, abs=0.0)


@pytest.mark.parametrize("cm", [1e-10, 1e-20, 1e-200])
def test_lambert_near_the_branch_point_matches_a_decimal_solve(cm):
    # x = -exp(-1 - cm) rounds to the branch point for the two smaller cm.
    # W at the double x is -1 - u with u - log1p(u) = d = -log(-x) - 1,
    # which lambert_w_m1 forms within 2 EPS; u must lie between the exact
    # solutions at the two ends of that range
    x = -math.exp(-1.0 - cm)
    with localcontext() as ctx:
        ctx.prec = 80
        d = -(-Decimal(x)).ln() - 1
        low, high = (float(decimal_branch_excess(d + Decimal(e))) for e in (-2 * EPS, 2 * EPS))
    u = -1.0 - lambert_w_m1(x)
    assert low * (1 - 4 * EPS) <= u <= high * (1 + 4 * EPS)


def decimal_lambert_w_m1(x):
    """W_{-1} at the double x, as -1 - u with u - ln(1 + u) = -ln(-x) - 1, by
    Newton steps in 120-digit decimal arithmetic from u = d + 2 sqrt(2 d),
    right of the root, onto which the convex left side's steps fall."""
    with localcontext() as ctx:
        ctx.prec = 120
        d = -(-Decimal(x)).ln() - 1
        u = d + 2 * (2 * d).sqrt()
        for _ in range(500):
            step = (u - (1 + u).ln() - d) * (1 + u) / u
            u -= step
            if abs(step) <= u.scaleb(-70):
                break
        return float(-1 - u)


def doubles_above_the_branch_point(count):
    x = [math.nextafter(-math.exp(-1.0), 0.0)]
    while len(x) < count:
        x.append(math.nextafter(x[-1], 0.0))
    return x


@pytest.mark.parametrize("x", doubles_above_the_branch_point(6)
                         + [-0.36, -0.3, -0.1, -1e-3, -1e-100])
def test_lambert_matches_a_decimal_w_at_every_distance_from_the_branch_point(x):
    # the double -exp(-1) lies below -1/e, so the six after it are the first
    # six in the domain; d = -log(-x) - 1 in doubles put w up to 5.8e-9 off there
    assert lambert_w_m1(x) == pytest.approx(decimal_lambert_w_m1(x), rel=2 * EPS, abs=0.0)


def log_form_bisection(y):
    """Root w <= -1 of w + log(-w) = -y by plain bisection (left side increasing)."""
    lo, hi = -2.0 * y - 1.0, -1.0
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid + math.log(-mid) + y > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_lambert_relative_accuracy_near_zero():
    # |x| far below 1e-13: an absolute residual test on w*exp(w) would pass
    # any w here, so check the log form to relative precision
    for y in (20.0, 31.0, 101.0, 701.0):
        x = -math.exp(-y)
        w = lambert_w_m1(x)
        assert w + math.log(-w) == pytest.approx(math.log(-x), rel=1e-15, abs=0.0)
        assert w == pytest.approx(log_form_bisection(y), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("cm", [20.0, 28.0, 30.0, 100.0, 700.0, 1e4])
def test_opt_mds_alpha_at_large_shift_times_straggling(cm):
    # -exp(-cm - 1) loses relative accuracy (cm >= 20) and then underflows
    # (cm >= 745); the log form w + log(-w) = -(cm + 1) holds throughout
    r = opt_mds(SystemParams(1.0, cm, 1.0, 100))
    expected = 1.0 + 1.0 / log_form_bisection(cm + 1.0)
    assert r.alpha_star == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert r.delta_star == age_of(MDS(r.k_star), SystemParams(1.0, cm, 1.0, 100)).delta


def test_opt_mds_at_thirty_alpha_value():
    assert opt_mds(params(c=30.0, mu=1.0)).alpha_star == pytest.approx(0.971050, abs=5e-7)


def test_opt_repetition_reference_points():
    assert opt_repetition(params(mu=1.0)).k_star == 100
    assert opt_repetition(params(mu=1.0)).alpha_star == 1.0
    r = opt_repetition(params(mu=0.5))
    assert r.k_star == 50
    assert r.alpha_star == 0.5


def test_opt_repetition_continuous_fraction_sends_one_subpacket():
    # c * mu = 1e-6 is below 1/n: the large-pool formula needs alpha * n >= 1
    r = opt_repetition(params(c=1e-3, mu=1e-3))
    assert r.alpha_star == 0.01
    assert r.continuous_objective == pytest.approx(1e-3, rel=1e-12, abs=0.0)
    assert r.continuous_objective >= 0.0
    assert r.k_star == 1


def test_opt_repetition_against_exhaustive_sweep():
    p = params(c=2.0, mu=0.25, n=1000)
    r = opt_repetition(p)
    assert r.alpha_star == 0.5
    sweep = min(range(1, 1001), key=lambda k: (age_of(Repetition(k), p).delta, k))
    assert abs(r.k_star - sweep) <= 1
    assert r.delta_star == age_of(Repetition(r.k_star), p).delta


def sweep_argmin(fn, k_min, k_max):
    """Brute-force integer argmin, ties to the smaller k."""
    return min(range(k_min, k_max + 1), key=lambda k: (fn(k), k))


def test_opt_mds_reference_points():
    r1 = opt_mds(params(mu=1.0))
    assert r1.k_star == 69 == sweep_argmin(lambda k: age_of(MDS(k), params(mu=1.0)).delta, 1, 99)
    assert r1.alpha_star == pytest.approx(0.6821555671006273, abs=1e-9)
    r2 = opt_mds(params(mu=0.5))
    assert r2.k_star == 58 == sweep_argmin(lambda k: age_of(MDS(k), params(mu=0.5)).delta, 1, 99)
    assert r2.delta_star == age_of(MDS(58), params(mu=0.5)).delta


def test_opt_mds_continuous_near_integer_optimum():
    r = opt_mds(params(mu=1.0))
    assert abs(round(r.alpha_star * 100) - r.k_star) <= 1


def test_opt_mm_mds_single_load_reduces_to_mds():
    a = opt_mds(params(mu=1.0))
    b = opt_mm_mds(params(mu=1.0), 1)
    assert abs(a.k_star - b.k_star) <= 1
    assert b.levels == (b.k_star,)


def test_opt_mm_mds_two_loads_reference():
    r = opt_mm_mds(params(mu=1.0), 2)
    # frozen: stationary point in the first level's log-gap, refined on exact age
    assert r.k_star == 129
    assert r.levels is not None
    assert sum(r.levels) == r.k_star
    assert r.delta_star == age_of(MultiMDS(r.k_star, 2), params(mu=1.0)).delta


def test_opt_mm_mds_k_grows_with_pool():
    ks = [opt_mm_mds(params(mu=1.0, n=n), 2).k_star for n in (100, 200, 300, 400, 500)]
    assert all(b > a for a, b in zip(ks, ks[1:]))


def test_opt_mm_mds_three_levels_satisfies_chain():
    r = opt_mm_mds(params(mu=1.0), 3)
    alphas = solve_levels(3, r.k_star / 300, 1.0)
    for resid, _ in chain_residuals(alphas, 1.0):
        assert abs(resid) < 1e-10


@pytest.mark.parametrize("c, mu, load", [(20.0, 1.0, 2), (10.0, 10.0, 3), (1.0, 1.0, 3),
                                          (1.0, 3.0, 4)])
def test_opt_mm_mds_continuous_optimum_matches_dense_scan(c, mu, load):
    # at c * mu = 20 and 100 the optimum needs 1 - a1 below 1e-9, past the
    # end of a grid over a1 alone; at c * mu = 3, load = 4 it lies on the
    # fourth level's piece; a dense scan over beta finds both
    r = opt_mm_mds(SystemParams(1.0, c, mu, 1000), load, objective="service")
    mu_c = c * mu
    beta = np.linspace(1e-6, (load - 1) * mu_c + 40.0 * load, 400_001)
    alpha = chain_alphas_grid(beta, load, mu_c).sum(axis=1) / load
    objective = (c + beta / mu) / alpha
    best = int(np.argmin(objective))
    assert r.continuous_objective * 1000 * load == pytest.approx(objective[best],
                                                                 rel=1e-9, abs=0.0)
    assert r.alpha_star == pytest.approx(alpha[best], abs=1e-4)


@pytest.mark.parametrize("c, mu, load, n", [(20.0, 1.0, 2, 200), (10.0, 10.0, 3, 100)])
def test_opt_mm_mds_k_matches_full_sweep_at_large_shift_times_straggling(c, mu, load, n):
    p = SystemParams(1.0, c, mu, n)
    r = opt_mm_mds(p, load, objective="service")
    es = {k: service_moments(MultiMDS(k, load), p).es for k in range(1, n * load)}
    assert r.k_star == min(es, key=lambda k: (es[k], k))


def test_opt_mm_mds_optimum_on_the_last_level_piece():
    # the minimum is the stationary point on the piece where all four levels
    # fill (beta > 3 * c * mu); a grid over a1 that dropped the points between
    # the later pieces reported the third piece's optimum scaled by 3/4
    r = opt_mm_mds(params(c=1.0, mu=3.0), 4)
    assert r.alpha_star == pytest.approx(0.793190, abs=1e-6)
    assert r.continuous_objective * 100 * 4 == pytest.approx(0.0146456855443 * 400,
                                                             rel=1e-9, abs=0.0)
    assert r.k_star == 399
    assert r.levels == (100, 100, 100, 99)


def test_opt_mm_mds_where_bisection_on_alpha1_failed():
    # c * mu = 2: the optimum sits at k = n*load - 1 with every level nearly full
    r = opt_mm_mds(SystemParams(1.0, 1.0, 2.0, 1000), 5)
    assert 1 <= r.k_star <= 4999
    assert sum(r.levels) == r.k_star
    assert r.delta_star == age_of(MultiMDS(r.k_star, 5), SystemParams(1.0, 1.0, 2.0, 1000)).delta


def dict_memo_refine(age_fn, k_seed, k_min, k_max):
    """refine_discrete with a hand-kept memo dict: strictly lower steps only."""
    if not k_min <= k_seed <= k_max:
        raise ValueError(f"need k_min <= k_seed <= k_max, got {k_min}, {k_seed}, {k_max}")
    cache = {}

    def f(k):
        if k not in cache:
            cache[k] = age_fn(k)
        return cache[k]

    k = k_seed
    if k > k_min and f(k - 1) < f(k):
        while k > k_min and f(k - 1) < f(k):
            k -= 1
    else:
        while k < k_max and f(k + 1) < f(k):
            k += 1
    return k


def test_refine_discrete_matches_the_dict_memo_loop():
    # few distinct values make plateaus and ties; every start and range
    rng = np.random.default_rng(1910)
    for values in rng.integers(0, 4, (60, 9)).tolist() + [[0] * 9, list(range(9)),
                                                          list(range(9, 0, -1))]:
        for k_min in range(9):
            for k_max in range(k_min, 9):
                for seed in range(k_min, k_max + 1):
                    seen, seen_ref = [], []
                    got = refine_discrete(lambda k: seen.append(k) or values[k],
                                          seed, k_min, k_max)
                    ref = dict_memo_refine(lambda k: seen_ref.append(k) or values[k],
                                           seed, k_min, k_max)
                    assert (got, seen) == (ref, seen_ref), (values, seed, k_min, k_max)


def test_refine_discrete_synthetic():
    assert refine_discrete(lambda k: (k - 69) ** 2, 68, 1, 99) == 69
    assert refine_discrete(lambda k: (k - 69) ** 2, 90, 1, 99) == 69
    assert refine_discrete(lambda k: 1.0, 40, 10, 99) == 40  # a tie stops the walk
    with pytest.raises(ValueError):
        refine_discrete(lambda k: k, 5, 10, 20)


@pytest.mark.parametrize("optimizer", [
    optimize.opt_repetition, optimize.opt_mds, lambda p: optimize.opt_mm_mds(p, 2)],
    ids=["rep", "mds", "mm-mds"])
def test_integer_walk_stops_at_ties_at_a_billion_workers(monkeypatch, optimizer):
    # neighbouring ages tie in doubles over long runs of k at n = 1e9; a walk
    # that stepped on ties took about 3e5 age evaluations through them
    calls, real = [], optimize.age_of

    def counted(scheme, p):
        calls.append(scheme)
        assert len(calls) <= 10, "the integer walk does not stop"
        return real(scheme, p)

    monkeypatch.setattr(optimize, "age_of", counted)
    optimizer(params(n=10**9))


@pytest.mark.parametrize("objective", ["age", "service"])
@pytest.mark.parametrize("optimizer, make", [
    (optimize.opt_repetition, Repetition), (optimize.opt_mds, MDS),
    (lambda p, objective: optimize.opt_mm_mds(p, 3, objective), lambda k: MultiMDS(k, 3))],
    ids=["rep", "mds", "mm-mds"])
def test_optimum_reads_its_age_from_the_search(monkeypatch, optimizer, make, objective):
    # an age search evaluates each k once, k_star among them, and returns
    # that age; a service search evaluates one age, k_star's
    for n in (1, 2, 7, 100, 1000):
        p = params(mu=0.3, n=n)
        calls, real = [], optimize.age_of
        monkeypatch.setattr(optimize, "age_of",
                            lambda scheme, q: calls.append(scheme) or real(scheme, q))
        try:
            r = optimizer(p, objective=objective)
        except ValueError:  # one worker has no mds or mm-mds optimum
            continue
        finally:
            monkeypatch.setattr(optimize, "age_of", real)
        assert r.delta_star == age_of(make(r.k_star), p).delta
        assert len(calls) == len(set(calls)) and make(r.k_star) in calls
        if objective == "service":
            assert calls == [make(r.k_star)]


def test_refine_discrete_full_sweep_agreement_on_age():
    p = params(mu=1.0)
    fn = lambda k: age_of(MDS(k), p).delta
    assert refine_discrete(fn, 68, 1, 99) == 69 == sweep_argmin(fn, 1, 99)


def test_mm_k1_is_clamped_to_one_through_n():
    # the first result is always a first-level one, so k1 >= 1 also where
    # alpha_1 * n rounds to 0: at small k and small shift*straggling
    rng = np.random.default_rng(10)
    points = [(SystemParams(1.0, 0.02, 0.01, 20), 4)]
    points += [(SystemParams(1.0, float(c), float(mu), int(n)), int(load)) for n, load, c, mu in
               zip(rng.choice([1, 2, 5, 20, 100, 1000], 400), rng.integers(1, 9, 400),
                   np.exp(rng.uniform(-7.0, 3.4, 400)), np.exp(rng.uniform(-7.0, 3.4, 400)))]
    clamped = 0
    for p, load in points:
        n = p.nworkers
        for k in {k for k in (1, 2, n * load // 2, n * load - 1) if 1 <= k < n * load}:
            k1 = model_k1(p, k, load)
            assert 1 <= k1 <= n
            if load > 1:
                raw = round(solve_levels(load, k / (n * load), p.mu_c)[0] * n)
                assert k1 == min(max(raw, 1), n)
                clamped += raw == 0
    assert clamped > 50


def test_opt_mm_mds_refines_only_over_a_non_empty_first_level():
    # every k from 1 on has a first level of at least one subtask; at k = 1
    # the service time is X_(1), as for MDS(1), whose age is far above the
    # optimum's
    p = SystemParams(1.0, 0.02, 0.01, 20)
    assert all(model_k1(p, k, 4) >= 1 for k in range(1, 80))
    ages = [age_of(MultiMDS(k, 4), p).delta for k in range(1, 7)]
    assert ages == pytest.approx([11.1895, 6.2978, 4.7166, 5.9574, 5.0934, 5.9159], abs=1e-4)
    assert ages[0] == age_of(MDS(1), p).delta
    r = opt_mm_mds(p, 4)
    assert r.k_star == 3
    assert r.delta_star == ages[2]
    assert r.levels == (1, 1, 1, 0)


@pytest.mark.parametrize("load", [2.0, True, "2", np.float64(2)])
def test_opt_mm_mds_rejects_a_non_integer_load(load):
    with pytest.raises(ValueError, match="must be an integer"):
        opt_mm_mds(params(), load)


def test_unknown_objective_is_rejected():
    with pytest.raises(ValueError, match="objective must be 'age' or 'service', got 'speed'"):
        opt_mds(params(), "speed")


def test_opt_mm_mds_accepts_a_numpy_integer_load():
    assert opt_mm_mds(params(), np.int64(2)) == opt_mm_mds(params(), 2)


def test_reported_levels_sum_to_k_star_and_start_at_k1():
    # levels rounds alpha_1 * n by the k1 rule of the age, and
    # splits the rest of k_star over the deeper levels
    rng = np.random.default_rng(116)
    for n, load, c, mu in zip(rng.integers(2, 301, 80), rng.integers(2, 6, 80),
                              np.exp(rng.uniform(-4.6, 3.4, 80)), np.exp(rng.uniform(-4.6, 3.4, 80))):
        p = SystemParams(1.0, float(c), float(mu), int(n))
        r = opt_mm_mds(p, int(load))
        assert sum(r.levels) == r.k_star
        assert r.levels[0] == model_k1(p, r.k_star, int(load))
    # rounding all five levels by largest remainder would start this split at 159
    p = SystemParams(1.0, 0.827263658631598, 1.2711609403944863, 159)
    r = opt_mm_mds(p, 5)
    assert (r.k_star, r.levels[0], model_k1(p, r.k_star, 5)) == (533, 158, 158)


def test_age_and_service_argmins_agree_at_large_n():
    p = params(n=1000)
    for family, kmax, age_fn, scheme in [
            ("mds", 999, lambda k: age_of(MDS(k), p).delta, MDS),
            ("repetition", 1000, lambda k: age_of(Repetition(k), p).delta, Repetition)]:
        k_age = min(range(1, kmax + 1), key=lambda k: (age_fn(k), k))
        k_es = min(range(1, kmax + 1),
                   key=lambda k: (service_moments(scheme(k), p).es, k))
        assert abs(k_age - k_es) <= 1, family


def test_mm_age_and_service_objectives_agree():
    p = params(n=1000)
    a = opt_mm_mds(p, 2, objective="age")
    b = opt_mm_mds(p, 2, objective="service")
    assert abs(a.k_star - b.k_star) <= 1


def test_mapped_objective_monotone_in_mean_service():
    for lam in (0.5, 1.0, 2.0):
        es = np.linspace(0.0, 10.0, 400)
        g = 3 / (2 * lam) + 1.5 * es + (1 / lam**2) / (2 * es + 2 / lam)
        assert (np.diff(g) >= 0).all()


def test_mds_optimum_beats_all_k():
    for mu in (1.0, 0.5):
        p = params(mu=mu)
        r = opt_mds(p)
        best = r.delta_star
        for k in range(1, 100):
            assert best <= age_of(MDS(k), p).delta + 1e-15
