"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""
import math
import time

import numpy as np

from coded_aoi import (
    MDS,
    MultiMDS,
    Repetition,
    SystemParams,
    Uncoded,
    age_of,
    lambert_w_m1,
    level_counts,
    opt_mds,
    opt_mm_mds,
    opt_repetition,
    run,
    run_parallel,
    service_moments,
    solve_levels,
)
from coded_aoi.cli import main as cli_main
from levels_reference import chain_residuals
from schemes_reference import ZeroService, with_mechanism


def check(cid, description, ok):
    print(f"ACCEPTANCE {cid:>2} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {cid} failed: {description}"


def params(lam=1.0, c=1.0, mu=1.0, n=100):
    return SystemParams(lam, c, mu, n)


def argmin_k(fn, lo, hi):
    return min(range(lo, hi + 1), key=lambda k: (fn(k), k))


def test_criterion_01_mds_optimum_mu_one():
    t0 = time.perf_counter()
    p = params(mu=1.0)
    best = argmin_k(lambda k: age_of(MDS(k), p).delta, 1, 99)
    elapsed = time.perf_counter() - t0
    check(1, f"MDS argmin at n=100, mu=1 is 69 (got {best}, {elapsed*1e3:.0f} ms)",
          best == 69 and elapsed < 1.0)


def test_criterion_02_fig4b_optima():
    t0 = time.perf_counter()
    p_half = params(mu=0.5)
    best_mds = argmin_k(lambda k: age_of(MDS(k), p_half).delta, 1, 99)
    best_rep_half = argmin_k(lambda k: age_of(Repetition(k), p_half).delta, 1, 100)
    best_rep_one = argmin_k(lambda k: age_of(Repetition(k), params(mu=1.0)).delta, 1, 100)
    elapsed = time.perf_counter() - t0
    check(2, f"mu=0.5: MDS argmin {best_mds}=58, repetition argmin {best_rep_half}=50; "
             f"mu=1: repetition argmin {best_rep_one}=100 ({elapsed*1e3:.0f} ms)",
          best_mds == 58 and best_rep_half == 50 and best_rep_one == 100
          and elapsed < 1.0)


def test_criterion_03_closed_forms_near_sweep_argmin():
    ok = True
    detail = []
    for c, mu in [(1.0, 1.0), (1.0, 0.5), (2.0, 0.25)]:
        for n in (100, 1000):
            p = params(c=c, mu=mu, n=n)
            cm = c * mu
            alpha_rep = 1.0 if cm >= 1.0 else cm
            alpha_mds = 1.0 + 1.0 / lambert_w_m1(-math.exp(-cm - 1.0))
            k_rep_cf = min(max(round(alpha_rep * n), 1), n)
            k_mds_cf = min(max(round(alpha_mds * n), 1), n - 1)
            k_rep_sw = argmin_k(lambda k: age_of(Repetition(k), p).delta, 1, n)
            k_mds_sw = argmin_k(lambda k: age_of(MDS(k), p).delta, 1, n - 1)
            if abs(k_rep_cf - k_rep_sw) > 1 or abs(k_mds_cf - k_mds_sw) > 1:
                ok = False
                detail.append(f"(c={c},mu={mu},n={n}): rep {k_rep_cf}vs{k_rep_sw} "
                              f"mds {k_mds_cf}vs{k_mds_sw}")
    check(3, "closed-form optima within +-1 of full sweeps on all 6 cells"
             + ("" if ok else "; " + "; ".join(detail)), ok)


def test_criterion_04_lambert_w():
    branch_ok = abs(lambert_w_m1(-math.exp(-1.0)) - (-1.0)) < 1e-8
    rng = np.random.default_rng(77)
    xs = -math.exp(-1.0) * rng.uniform(1e-9, 1.0, 100)
    resid_ok = all(
        abs(lambert_w_m1(float(x)) * math.exp(lambert_w_m1(float(x))) - x) < 1e-12
        and lambert_w_m1(float(x)) <= -1.0
        for x in xs)
    check(4, "W_-1(-1/e) = -1 to 1e-8 and residual < 1e-12 on 100 random points",
          branch_ok and resid_ok)


def test_criterion_05_simulation_matches_analytic_at_million_cycles():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for mu in (1.0, 0.5):
        p = params(mu=mu)
        k_mm = opt_mm_mds(p, 2).k_star
        cases = [
            (Uncoded(), p, age_of(Uncoded(), p).delta, 0.005, "uncoded"),
            (Repetition(50), p, age_of(Repetition(50), p).delta, 0.005, "rep(50)"),
            (MDS(69), p, age_of(MDS(69), p).delta, 0.005, "mds(69)"),
            (MultiMDS(k_mm, 2), p, age_of(MultiMDS(k_mm, 2), p).delta, 0.015,
             f"mm-mds({k_mm})"),
        ]
        for scheme, pp, analytic, tol, label in cases:
            # the simulator stays an independent check: every worker is
            # simulated, not only the order statistic's law or the mm-mds
            # elements near the k-th
            r = run(with_mechanism(scheme), pp, 1_000_000, seed=97)
            rel = abs(r.mean_age - analytic) / analytic
            detail.append(f"mu={mu} {label} {rel*100:.3f}%")
            ok = ok and rel < tol
    # finite-pool tolerance tightens to 1% at n = 1000
    p1k = params(n=1000)
    k1k = opt_mm_mds(p1k, 2).k_star
    r = run(with_mechanism(MultiMDS(k1k, 2)), p1k, 1_000_000, seed=97)
    analytic = age_of(MultiMDS(k1k, 2), p1k).delta
    rel = abs(r.mean_age - analytic) / analytic
    detail.append(f"n=1000 mm-mds({k1k}) {rel*100:.3f}%")
    ok = ok and rel < 0.01
    elapsed = time.perf_counter() - t0
    check(5, f"1e6-cycle fast-mode sims within tolerance ({'; '.join(detail)}; "
             f"{elapsed:.0f} s)", ok and elapsed < 120.0)


def test_criterion_06_zero_service_limit():
    ok = True
    for lam in (0.5, 1.0, 2.0):
        r = run(ZeroService(), params(lam=lam, n=1), 200_000, seed=42)
        ok = ok and abs(r.mean_age - 2 / lam) <= r.ci95_halfwidth
    check(6, "zero-service simulation covers 2/lambda for lambda in {0.5, 1, 2}", ok)


def test_criterion_07_mode_equivalence():
    ok = True
    detail = []
    for scheme in (MDS(69), Uncoded()):
        a = run(scheme, params(), 100_000, seed=11, mode="fast")
        b = run(scheme, params(), 100_000, seed=12, mode="full_stream")
        joint = math.hypot(a.ci95_halfwidth, b.ci95_halfwidth)
        ok = ok and abs(a.mean_age - b.mean_age) <= joint
        detail.append(f"{type(scheme).__name__}: |diff|={abs(a.mean_age-b.mean_age):.4f} "
                      f"joint={joint:.4f}")
    check(7, "fast and full-stream agree within joint 95% CI; " + "; ".join(detail), ok)


def test_criterion_08_level_solver():
    single = all(solve_levels(1, a, 1.0) == (a,) for a in (0.1, 0.5, 0.9))
    residuals_ok = True
    for ell in (2, 3, 5):
        for mu_c in (0.01, 0.5, 1.0):
            for alpha in (0.1, 0.3, 0.6):
                alphas = solve_levels(ell, alpha, mu_c)
                residuals_ok = residuals_ok and abs(sum(alphas) - ell * alpha) < 1e-10
                residuals_ok = residuals_ok and all(
                    abs(r) < 1e-10 for r, _ in chain_residuals(alphas, mu_c))
    fig3 = level_counts(solve_levels(3, 7 / 30, 0.01), 10, 7) == [4, 2, 1]
    check(8, "single level exact, chain and sum residuals < 1e-10, "
             "7-of-10 three-level instance splits 4/2/1",
          single and residuals_ok and fig3)


def test_criterion_09_age_equals_service_argmin_at_large_n():
    p = params(n=1000)
    k_age_mds = argmin_k(lambda k: age_of(MDS(k), p).delta, 1, 999)
    k_es_mds = argmin_k(lambda k: service_moments(MDS(k), p).es, 1, 999)
    k_age_rep = argmin_k(lambda k: age_of(Repetition(k), p).delta, 1, 1000)
    k_es_rep = argmin_k(lambda k: service_moments(Repetition(k), p).es, 1, 1000)
    check(9, f"argmin(age) vs argmin(E[S]) at n=1000: mds {k_age_mds}/{k_es_mds}, "
             f"repetition {k_age_rep}/{k_es_rep}",
          abs(k_age_mds - k_es_mds) <= 1 and abs(k_age_rep - k_es_rep) <= 1)


def test_criterion_10_asymptotic_orders():
    unc = [(age_of(Uncoded(), params(n=n)).delta - 2.0) * n / math.log(n)
           for n in (100, 1000, 10_000)]
    unc_ok = max(unc) / min(unc) < 1.5 and all(r < 2.0 for r in unc)
    a = (age_of(MDS(5_000), params(n=10_000)).delta - 2.0) * 10_000
    b = (age_of(MDS(10_000), params(n=20_000)).delta - 2.0) * 20_000
    mds_ok = abs(a - b) / a < 0.05
    g1 = age_of(MultiMDS(1_000, 1), params(n=10_000)).delta - 2.0
    g2 = age_of(MultiMDS(2_000, 2), params(n=10_000)).delta - 2.0
    mm_ok = 1.6 < g1 / g2 < 2.4
    check(10, f"orders: uncoded ratio spread {max(unc)/min(unc):.3f} (<1.5), "
              f"mds n-scaled change {abs(a-b)/a*100:.2f}% (<5%), "
              f"mm load-doubling factor {g1/g2:.3f} (in [1.6, 2.4])",
          unc_ok and mds_ok and mm_ok)


def test_criterion_11_load_sweep_trend():
    p = params(mu=0.01)
    deltas = [opt_mm_mds(p, load).delta_star for load in (1, 2, 3, 4, 5)]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))
    check(11, "optimized age nonincreasing in load 1..5 and strictly lower at 2: "
              + ", ".join(f"{d:.4f}" for d in deltas),
          nonincreasing and deltas[1] < deltas[0])


def test_criterion_12_determinism(tmp_path, capsys):
    r1 = run(MDS(69), params(), 5_000, seed=7)
    r2 = run(MDS(69), params(), 5_000, seed=7)
    p1 = run_parallel(MDS(69), params(), 2_500, 4, seed=7)
    p2 = run_parallel(MDS(69), params(), 2_500, 4, seed=7)
    reports_ok = repr(r1) == repr(r2) and repr(p1) == repr(p2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--preset", "fig4a", "--seed", "3"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    csv_ok = a.read_bytes() == b.read_bytes()
    check(12, "same seeds give byte-identical reports and sweep CSVs",
          reports_ok and csv_ok)
