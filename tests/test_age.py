"""Closed-form age values, the shared moment formula, and asymptotic behavior."""
import math

import pytest

from coded_aoi import (
    MDS,
    MultiMDS,
    Repetition,
    SystemParams,
    Uncoded,
    age_from_moments,
    age_of,
    gen_harmonic2,
    harmonic,
)
from coded_aoi.schemes import ServiceMoments
from schemes_reference import model_k1


def params(lam=1.0, c=1.0, mu=1.0, n=100):
    return SystemParams(lam, c, mu, n)


# Direct transcriptions of the displayed closed forms, kept deliberately
# separate from the moment-based implementation so a transcription error in
# either one shows up as a mismatch.

def _age_expr(lam, es, g_term):
    return (1 / lam + es
            + (es**2 + g_term + (2 / lam) * es + 2 / lam**2) / (2 * (es + 1 / lam)))


def age_uncoded_direct(lam, c, mu, n):
    es = c / n + harmonic(n) / (n * mu)
    return _age_expr(lam, es, gen_harmonic2(n) / (n**2 * mu**2))


def age_repetition_direct(lam, c, mu, n, k):
    es = c / k + harmonic(k) / (n * mu)
    return _age_expr(lam, es, gen_harmonic2(k) / (n**2 * mu**2))


def age_mds_direct(lam, c, mu, n, k):
    es = c / k + (harmonic(n) - harmonic(n - k)) / (k * mu)
    return _age_expr(lam, es, (gen_harmonic2(n) - gen_harmonic2(n - k)) / (k**2 * mu**2))


def age_mm_mds_direct(lam, c, mu, n, k, k1):
    es = c / k + (harmonic(n) - harmonic(n - k1)) / (k * mu)
    return _age_expr(lam, es, (gen_harmonic2(n) - gen_harmonic2(n - k1)) / (k**2 * mu**2))


def test_age_from_moments_zero_service_limit():
    assert age_from_moments(1.0, ServiceMoments(0.0, 0.0)) == pytest.approx(2.0, abs=1e-14)
    assert age_from_moments(2.0, ServiceMoments(0.0, 0.0)) == pytest.approx(1.0, abs=1e-14)


def test_age_from_moments_deterministic_service():
    # S identically 1 at unit rate: 1 + 1 + (1 + 2 + 2)/4
    assert age_from_moments(1.0, ServiceMoments(1.0, 1.0)) == pytest.approx(3.25, abs=1e-14)


def test_uncoded_single_worker_value():
    assert age_of(Uncoded(), params(n=1)).delta == pytest.approx(29 / 6, rel=1e-14, abs=0.0)


def test_mds_two_workers_hand_value():
    res = age_of(MDS(1), params(n=2))
    assert res.es == pytest.approx(1.5, rel=1e-14, abs=0.0)
    assert res.es2 == pytest.approx(2.5, rel=1e-14, abs=0.0)
    assert res.delta == pytest.approx(4.0, rel=1e-14, abs=0.0)


def test_moment_formula_agrees_with_direct_transcriptions():
    for lam in (0.5, 1.0, 2.0):
        for c in (0.5, 1.0, 2.0):
            for mu in (0.25, 1.0, 2.0):
                for n in (2, 10, 100):
                    p = params(lam, c, mu, n)
                    assert age_of(Uncoded(), p).delta == pytest.approx(
                        age_uncoded_direct(lam, c, mu, n), rel=1e-12, abs=0.0)
                    for k in {1, n // 2, n}:
                        if 1 <= k <= n:
                            assert age_of(Repetition(k), p).delta == pytest.approx(
                                age_repetition_direct(lam, c, mu, n, k), rel=1e-12, abs=0.0)
                    for k in {1, n // 2, n - 1}:
                        if 1 <= k < n:
                            assert age_of(MDS(k), p).delta == pytest.approx(
                                age_mds_direct(lam, c, mu, n, k), rel=1e-12, abs=0.0)


def test_multi_message_agrees_with_direct_transcription():
    for load in (2, 3):
        for mu in (0.1, 1.0):
            p = params(mu=mu, n=100)
            for k in (40, 90, 130):
                if k >= 100 * load:
                    continue
                k1 = model_k1(p, k, load)
                assert age_of(MultiMDS(k, load), p).delta == pytest.approx(
                    age_mm_mds_direct(1.0, 1.0, mu, 100, k, k1), rel=1e-12, abs=0.0)


def test_repetition_full_k_equals_uncoded_age():
    p = params(c=0.7, mu=1.3, n=24)
    assert age_of(Repetition(24), p).delta == age_of(Uncoded(), p).delta


def test_multi_message_single_load_equals_mds_age():
    p = params(mu=0.5, n=60)
    for k in (5, 30, 59):
        assert age_of(MultiMDS(k, 1), p).delta == age_of(MDS(k), p).delta


def test_age_floor_two_over_rate():
    for lam in (0.5, 1.0, 3.0):
        for n in (1, 10, 100):
            p = params(lam=lam, n=n)
            assert age_of(Uncoded(), p).delta > 2 / lam
            if n > 1:
                assert age_of(MDS(n // 2), p).delta > 2 / lam
            assert age_of(Repetition(max(1, n // 2)), p).delta > 2 / lam


def test_invalid_k_errors():
    p = params(n=10)
    with pytest.raises(ValueError):
        age_of(MDS(10), p)
    with pytest.raises(ValueError):
        age_of(Repetition(11), p)
    with pytest.raises(ValueError):
        age_of(MultiMDS(20, 2), p)


def test_uncoded_asymptotic_ratio_bounded_and_decreasing():
    # (age - 2/lam) * n / log(n) settles toward a constant from above
    ratios = [(age_of(Uncoded(), params(n=n)).delta - 2.0) * n / math.log(n)
              for n in (100, 1000, 10_000)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert all(1.0 < r < 2.0 for r in ratios)


def test_repetition_asymptotic_ratio_bounded_and_decreasing():
    ratios = [(age_of(Repetition(n // 2), params(n=n)).delta - 2.0) * n / math.log(n)
              for n in (100, 1000, 10_000)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert all(0.0 < r < 4.0 for r in ratios)


def test_mds_asymptotic_one_over_n():
    a = (age_of(MDS(5_000), params(n=10_000)).delta - 2.0) * 10_000
    b = (age_of(MDS(10_000), params(n=20_000)).delta - 2.0) * 20_000
    assert abs(a - b) / a < 0.05


def test_multi_message_gap_scales_inverse_load():
    # matched fraction 0.1 at n = 1e4: each load doubling shrinks the gap
    # to the floor by roughly half
    n = 10_000
    gaps = [age_of(MultiMDS(1000 * load, load), params(n=n)).delta - 2.0 for load in (1, 2, 4)]
    assert 1.5 < gaps[0] / gaps[1] < 2.4
    assert 1.5 < gaps[1] / gaps[2] < 2.4


def test_mds_dominates_at_reference_point():
    p = params(n=100)
    best_mds = min(age_of(MDS(k), p).delta for k in range(1, 100))
    best_rep = min(age_of(Repetition(k), p).delta for k in range(1, 101))
    assert best_mds < best_rep <= age_of(Uncoded(), p).delta


def test_multi_message_age_with_second_level_past_alpha1_resolution():
    # c * mu = 28.2: the second level needs 1 - alpha_1 ~ 5.6e-13, finer than
    # a double alpha_1 resolves near 1
    delta = age_of(MultiMDS(117, 4), SystemParams(1, 9.4, 3.0, 112)).delta
    assert math.isfinite(delta)
    assert delta >= 2.0


def test_age_that_overflows_a_double_raises():
    # 2/lambda^2 and E[S^2] ~ (c/n)^2 are beyond double range
    with pytest.raises(OverflowError, match="overflows a double"):
        age_of(Uncoded(), SystemParams(1e-200, 1.0, 1.0, 10))
    with pytest.raises(OverflowError, match="overflows a double"):
        age_of(MDS(5), SystemParams(1.0, 1e200, 1.0, 10))


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf, True, "1"])
def test_age_from_moments_refuses_a_bad_arrival_rate(rate):
    # 0.0 raised ZeroDivisionError
    with pytest.raises(ValueError, match="arrival_rate"):
        age_from_moments(rate, ServiceMoments(0.5, 0.5))
