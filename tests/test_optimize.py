"""Optimizers against bisection, exhaustive-sweep, and closed-form oracles."""
import math

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
from coded_aoi.levels import chain_residuals, solve_levels
from coded_aoi.schemes import MDS, MultiMDS, Repetition


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


def test_opt_repetition_reference_points():
    assert opt_repetition(params(mu=1.0)).k_star == 100
    assert opt_repetition(params(mu=1.0)).alpha_star == 1.0
    r = opt_repetition(params(mu=0.5))
    assert r.k_star == 50
    assert r.alpha_star == 0.5


def test_opt_repetition_against_exhaustive_sweep():
    p = params(c=2.0, mu=0.25, n=1000)
    r = opt_repetition(p)
    assert r.alpha_star == 0.5
    sweep = min(range(1, 1001), key=lambda k: (age_of(Repetition(k), p).delta, k))
    assert abs(r.k_star - sweep) <= 1
    assert r.delta_star == age_of(Repetition(r.k_star), p).delta


def test_opt_mds_reference_points():
    r1 = opt_mds(params(mu=1.0), full_sweep=True)
    assert r1.k_star == 69
    assert r1.alpha_star == pytest.approx(0.6821555671006273, abs=1e-9)
    r2 = opt_mds(params(mu=0.5), full_sweep=True)
    assert r2.k_star == 58
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
    # frozen: grid+golden over the first-level fraction, refined on exact age
    assert r.k_star == 129
    assert r.levels is not None
    assert sum(r.levels) == r.k_star
    assert r.delta_star == age_of(MultiMDS(r.k_star, 2), params(mu=1.0)).delta


def test_opt_mm_mds_k_grows_with_pool():
    ks = [opt_mm_mds(params(mu=1.0, n=n), 2).k_star for n in (100, 200, 300, 400, 500)]
    assert all(b > a for a, b in zip(ks, ks[1:]))


def test_opt_mm_mds_three_levels_satisfies_chain():
    r = opt_mm_mds(params(mu=1.0), 3)
    split = solve_levels(3, r.k_star / 300, 1.0)
    for resid in chain_residuals(split, 1.0):
        assert abs(resid) < 1e-10


def test_refine_discrete_synthetic():
    assert refine_discrete(lambda k: (k - 69) ** 2, 68, 1, 99) == 69
    assert refine_discrete(lambda k: (k - 69) ** 2, 90, 1, 99) == 69
    assert refine_discrete(lambda k: 1.0, 40, 10, 99) == 10  # ties go low
    with pytest.raises(ValueError):
        refine_discrete(lambda k: k, 5, 10, 20)


def test_refine_discrete_full_sweep_agreement_on_age():
    p = params(mu=1.0)
    fn = lambda k: age_of(MDS(k), p).delta
    assert refine_discrete(fn, 68, 1, 99, verify_full_sweep=True) == 69


def test_refine_discrete_full_sweep_detects_strays():
    bumpy = {3: 0.0, 7: -1.0}
    fn = lambda k: bumpy.get(k, float(k))
    with pytest.raises(AssertionError):
        refine_discrete(fn, 1, 1, 10, verify_full_sweep=True)


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
