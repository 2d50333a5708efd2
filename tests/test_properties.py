"""Invariants of the analytic and sampling paths over generated valid inputs."""
import argparse
import contextlib
import csv
import io
import json
import math
import os
import tempfile
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
import numpy as np  # noqa: E402
from numpy.random import Generator, PCG64  # noqa: E402

from coded_aoi import (  # noqa: E402
    MDS,
    MultiMDS,
    Repetition,
    SystemParams,
    Uncoded,
    age_of,
    level_counts,
    opt_mds,
    opt_mm_mds,
    opt_repetition,
    run_parallel,
    sample_service_batch,
    service_moments,
    solve_levels,
)
from coded_aoi import cli, order_stats, schemes, simulate  # noqa: E402
from coded_aoi.levels import CHAIN_TOL, Infeasible, NoConvergence  # noqa: E402
from levels_reference import chain_alphas_grid, chain_residuals  # noqa: E402
import schemes_reference  # noqa: E402
import simulate_reference  # noqa: E402

# Few examples keep the module to about a second.  derandomize fixes the
# examples, so a run is repeatable; a wider search is one edit of max_examples.
FEW = settings(max_examples=40, deadline=None, database=None, derandomize=True)

rates = st.floats(min_value=1e-2, max_value=1e2)


@st.composite
def systems(draw):
    return SystemParams(draw(rates), draw(rates), draw(rates), draw(st.integers(2, 200)))


@st.composite
def valid_points(draw):
    """(scheme, params) with parameters that pass the scheme's own check."""
    p = draw(systems())
    n = p.nworkers
    load = draw(st.integers(1, 4))
    scheme = draw(st.one_of(
        st.just(Uncoded()),
        st.builds(Repetition, st.integers(1, n)),
        st.builds(MDS, st.integers(1, n - 1)),
        st.builds(MultiMDS, st.integers(1, n * load - 1), st.just(load)),
    ))
    return scheme, p


@FEW
@given(valid_points())
def test_age_is_finite_and_above_two_over_rate(point):
    scheme, p = point
    delta = age_of(scheme, p).delta
    assert math.isfinite(delta)
    assert delta >= 2 / p.arrival_rate


@FEW
@given(st.integers(1, 7),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(1e-3, 1e4))
def test_level_split_solves_the_chain(ell, alpha, mu_c):
    a = solve_levels(ell, alpha, mu_c)
    assert len(a) == ell
    assert abs(sum(a) - ell * alpha) <= 1e-10
    assert all(x >= y for x, y in zip(a, a[1:]))
    assert all(0.0 <= x <= 1.0 for x in a)
    # zeros trail: once a level is empty every deeper one is
    assert all(y == 0.0 for x, y in zip(a, a[1:]) if x == 0.0)
    assert a[0] > 0.0
    for r, bound in chain_residuals(a, mu_c):
        assert abs(r) <= bound


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 1000), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(math.log(1e-12), math.log(1e8)))
@example(2000, 0.5, math.log(0.01))
@example(2, 1.0 - 1e-12, 0.0)
@example(4, 117 / 448, math.log(28.2))
@example(2, 0.6, math.log(5e6))  # NoConvergence: one ulp of beta_1 moves the sum by more
def test_level_split_sums_to_its_target_on_the_chain(ell, alpha, log_mu_c):
    # up to 1000 levels and mu_c over 20 decades; past (ell - 1) * mu_c of
    # about 4e6 the solver may refuse, but never returns a split off target
    mu_c = math.exp(log_mu_c)
    try:
        alphas = solve_levels(ell, alpha, mu_c)
    except (Infeasible, NoConvergence):
        return
    assert len(alphas) == ell
    assert all(a >= b for a, b in zip(alphas, alphas[1:]))
    assert abs(math.fsum(alphas) - ell * alpha) <= CHAIN_TOL
    assert all(abs(r) <= bound for r, bound in chain_residuals(alphas, mu_c))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(valid_points())
def test_service_moments_match_the_order_statistic_reference(point):
    # each scheme's moments are the same floats as those of its (d, n, k)
    # order statistic
    scheme, p = point
    assert service_moments(scheme, p) == schemes_reference.moments(scheme, p)


@FEW
@given(valid_points())
@example((MultiMDS(1, 4), SystemParams(1.0, 0.02, 0.01, 20)))
def test_first_level_count_is_between_one_and_n(point):
    scheme, p = point
    if isinstance(scheme, MultiMDS):
        assert 1 <= schemes_reference.model_k1(p, scheme.k, scheme.load) <= p.nworkers


log_uniform = st.floats(math.log(1e-2), math.log(30.0)).map(math.exp)


@FEW
@given(st.integers(2, 6), st.integers(1, 300), log_uniform, log_uniform)
@example(5, 159, 0.827263658631598, 1.2711609403944863)  # k_star 533, k1 158
def test_level_counts_start_at_the_first_level_count_of_the_age(load, n, c, mu):
    # one rounding rule: at every k the reported split starts at the k1 the
    # age uses, and the rest of k fills the deeper levels
    p = SystemParams(1.0, c, mu, n)
    for k in range(1, n * load):
        counts = level_counts(solve_levels(load, k / (n * load), p.mu_c), n, k)
        assert sum(counts) == k
        assert counts[0] == schemes_reference.model_k1(p, k, load)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert all(0 <= x <= n for x in counts)
    r = opt_mm_mds(p, load)
    assert r.levels[0] == schemes_reference.model_k1(p, r.k_star, load)


@FEW
@given(st.integers(1, 6), st.floats(1e-2, 1e2), st.floats(1e-6, 1e2), st.integers(2, 10**6))
@example(4, 0.02, 0.02 * 0.01, 20)
@example(4, 1.0, 1e-6, 100)
def test_first_result_of_any_load_is_mds_one(load, c, mu_c, n):
    # a worker's later results follow its first, so the first of all
    # results is a first-level one at every load: S = X_(1)
    p = SystemParams(1.0, c, mu_c / c, n)
    assert service_moments(MultiMDS(1, load), p) == service_moments(MDS(1), p)


@FEW
@given(systems(), st.integers(0, 2**32), st.integers(1, 16))
def test_full_repetition_has_uncoded_moments(p, seed, size):
    assert service_moments(Repetition(p.nworkers), p) == service_moments(Uncoded(), p)
    a = sample_service_batch(Repetition(p.nworkers), p, Generator(PCG64(seed)), size)
    b = sample_service_batch(Uncoded(), p, Generator(PCG64(seed)), size)
    assert a.tobytes() == b.tobytes()


@st.composite
def single_load_points(draw):
    """(params, k) of a MultiMDS(k, 1); about half the draws put n past 2**53, where k/n rounds."""
    n = draw(st.one_of(st.integers(2, 200), st.integers(2, 2**62)))
    return SystemParams(draw(rates), draw(rates), draw(rates), n), draw(st.integers(1, n - 1))


@FEW
@given(single_load_points(), st.integers(0, 2**32), st.integers(1, 16))
@example((SystemParams(1.0, 1.0, 1.0, 2**60), 2**60 - 1), 0, 16)
@example((SystemParams(1.0, 1.0, 1.0, 6327292262462506), 3937903690167497), 0, 16)
def test_single_load_multi_message_is_mds(point, seed, size):
    p, k = point
    assert service_moments(MultiMDS(k, 1), p) == service_moments(MDS(k), p)
    a = sample_service_batch(MultiMDS(k, 1), p, Generator(PCG64(seed)), size)
    b = sample_service_batch(MDS(k), p, Generator(PCG64(seed)), size)
    assert a.tobytes() == b.tobytes()


@FEW
@given(st.integers(1, 5), st.floats(math.log(1e-3), math.log(1e3)), st.floats(0.1, 10.0))
def test_mm_continuous_optimum_is_below_a_dense_scan(load, log_mu_c, c):
    mu_c = math.exp(log_mu_c)
    p = SystemParams(1.0, c, mu_c / c, 100)
    r = opt_mm_mds(p, load, objective="service")
    mu_c = p.mu_c
    beta = np.concatenate([np.geomspace(1e-9, 1.0, 20_001),
                           np.linspace(1.0, (load - 1) * mu_c + 40.0 * load, 200_001)])
    alpha = chain_alphas_grid(beta, load, mu_c).sum(axis=1) / load
    scan = float(np.min((p.shift + beta / p.straggling) / alpha))
    assert r.continuous_objective * p.nworkers * load <= scan * (1 + 1e-12)


@FEW
@given(st.sampled_from([Uncoded(), MDS(7)]), st.floats(0.05, 200.0), st.integers(1, 5000),
       st.integers(0, 2**32), st.sampled_from([1, 7, simulate.WAIT_SLICE, 1 << 30]))
# a first round of _ROW_ADDS waiting cycles adds its gaps a column at a
# time, and one of a cycle fewer takes one cumsum
@example(Uncoded(), 19.2, order_stats._ROW_ADDS, 9, simulate.WAIT_SLICE)
@example(Uncoded(), 19.2, order_stats._ROW_ADDS - 1, 9, simulate.WAIT_SLICE)
@example(MDS(7), 24.8, order_stats._ROW_ADDS, 9, simulate.WAIT_SLICE)
@example(MDS(7), 24.8, order_stats._ROW_ADDS - 1, 9, simulate.WAIT_SLICE)
@example(MDS(7), 24.8, 512, 9, 1)  # one gap a round per waiting cycle
# one gap a round while more than 7 cycles wait, then up to 7 // m a row
@example(MDS(7), 24.8, 512, 9, 7)
# the CI's point: WAIT_SLICE caps its first rounds at 16 gaps a cycle, and
# lifting the cap draws a first round of 60
@example(MDS(7), 200.0, 4000, 1, simulate.WAIT_SLICE)
@example(MDS(7), 200.0, 4000, 1, 1 << 30)
def test_stream_cycles_equal_the_round_walk(scheme, lam, cycles, seed, wait_slice):
    # the walk's scan layout, round cap and compaction leave its bits as
    # the reference's, which reads the same WAIT_SLICE
    p = SystemParams(lam, 1.0, 1.0, 10)
    with mock.patch.object(simulate, "WAIT_SLICE", wait_slice):
        got = simulate._cycles(scheme, p, Generator(PCG64(seed)), cycles,
                               "full_stream", "zero-wait")
        want = simulate_reference.round_walk(scheme, p, Generator(PCG64(seed)), cycles)
    assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in want[:3]]
    assert got[3] == want[3]


def scaled_report(scheme, p, j, mode):
    """run_parallel at p with every time scaled by 2**j, or the ValueError it raises."""
    p = SystemParams(math.ldexp(p.arrival_rate, -j), math.ldexp(p.shift, j),
                     math.ldexp(p.straggling, -j), p.nworkers)
    try:
        return run_parallel(scheme, p, 300, 2, seed=5, mode=mode)
    except ValueError as e:  # past the full-stream drop cap
        return str(e)


@FEW
@given(valid_points(), st.integers(-8, 8), st.sampled_from(["fast", "full_stream"]))
@example((Uncoded(), SystemParams(100.0, 100.0, 1.0, 2)), 3, "full_stream")  # past the cap
def test_power_of_two_time_scaling_is_exact_everywhere(point, j, mode):
    # lambda and mu times 2**-j and c times 2**j scale every time by 2**j
    # with no change of rounding; no tolerance, the same seed on both sides
    scheme, p = point
    a, b = scaled_report(scheme, p, 0, mode), scaled_report(scheme, p, j, mode)
    if isinstance(a, str):
        assert b == a
        return
    for name in ("mean_age", "ci95_halfwidth", "empirical_es", "empirical_ed", "empirical_ez"):
        assert getattr(b, name) == math.ldexp(getattr(a, name), j), name
    assert b.empirical_es2 == math.ldexp(a.empirical_es2, 2 * j)
    assert (b.dropped_fraction, b.cycles, b.seed) == (a.dropped_fraction, a.cycles, a.seed)


@FEW
@given(systems(), st.integers(1, 5), st.sampled_from(["age", "service"]))
def test_optimizers_under_power_of_two_time_scaling(p, load, objective):
    # lambda/2, 2c, mu/2 doubles every time: the same codes, and ages and
    # service times doubled with no change of rounding
    q = SystemParams(p.arrival_rate / 2, 2 * p.shift, p.straggling / 2, p.nworkers)
    for opt in (opt_repetition, opt_mds, lambda s, objective: opt_mm_mds(s, load, objective)):
        a, b = opt(p, objective=objective), opt(q, objective=objective)
        assert (b.k_star, b.levels, b.alpha_star) == (a.k_star, a.levels, a.alpha_star)
        assert (b.delta_star, b.continuous_objective) == \
            (2 * a.delta_star, 2 * a.continuous_objective)


@FEW
@given(st.integers(2, 8), st.integers(1, 10**6), st.floats(0.0, 1.0, exclude_max=True),
       st.floats(-3.0, 2.0), st.floats(-3.0, 2.0))
def test_windows_within_one_rank_of_the_covariance_matrix_form(load, n, at, log_c, log_mu):
    # the level-count moments round differently from the covariance matrix,
    # which moves a window end by at most one rank; the sampler is exact for
    # any windows
    k = 1 + int(at * (n * load - 1))
    mu_c = SystemParams(1.0, 10**log_c, 10**log_mu, n).mu_c
    got = schemes._windows(n, k, load, mu_c, schemes.WINDOW_Z)
    want = schemes_reference.windows(n, k, load, mu_c)
    assert len(got) == len(want) == load
    for (a, b), (a_ref, b_ref) in zip(got, want):
        assert abs(a - a_ref) <= 1 and abs(b - b_ref) <= 1, (got, want)


@pytest.mark.parametrize("label", list(cli._SCHEMES))
def test_cli_labels_round_trip(label):
    args = cli._build_parser().parse_args(["age", "--scheme", label, "--k", "3", "--l", "2"])
    scheme = cli._build_scheme(args)
    assert type(scheme) is cli._SCHEMES[label]
    assert scheme.label == label
    assert cli._build_scheme(argparse.Namespace(scheme=scheme.label, k=3, l=2)) == scheme


# The CLI's exit-code contract: 0, 2 (usage) or 3 (numerical failure), never
# a traceback, with finite numbers on success and one line on failure.
def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def exit_code_and_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the flags
            code = e.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    assert_outcome(argv, *exit_code_and_output(argv))


NUMBER_KEYS = ("age", "es", "es2", "delta_star", "alpha_star", "es_continuous",
               "mean_age", "ci95", "ed", "ez", "dropped")


def assert_outcome(what, code, out, err):
    assert code in (0, 2, 3), (what, code, err)
    if code == 0:
        numbers = [float(t.split("=", 1)[1]) for t in out.split()
                   if "=" in t and t.split("=", 1)[0] in NUMBER_KEYS]
        assert numbers and all(math.isfinite(x) for x in numbers), (what, out)
    elif code == 3:
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, (what, err)


@st.composite
def rates_argv(draw, lo=1e-3, hi=1e3, mu_c_max=1e4):
    """--lambda/--c/--mu, each in [lo, hi] but with c*mu in [1e-4, mu_c_max]
    unless mu_c_max is None."""
    lam, c = draw(log_uniform(lo, hi)), draw(log_uniform(lo, hi))
    mu = draw(log_uniform(lo, hi)) if mu_c_max is None else draw(log_uniform(1e-4, mu_c_max)) / c
    return ["--lambda", repr(lam), "--c", repr(c), "--mu", repr(mu)]


@st.composite
def age_argv(draw, rates=rates_argv()):
    label = draw(st.sampled_from(sorted(cli._SCHEMES)))
    n = draw(st.one_of(st.integers(1, 200), st.integers(1, 10**9)))
    load = draw(st.integers(1, 6))
    k = draw(st.one_of(st.integers(1, min(n, 50)), st.integers(-1, n * load + 1)))
    return ["age", "--scheme", label, "--n", str(n), "--k", str(k), "--l", str(load),
            *draw(rates)]


@st.composite
def optimize_argv(draw, rates=rates_argv()):
    family = draw(st.sampled_from(["rep", "mds", "mm-mds"]))
    argv = ["optimize", "--family", family, "--n", str(draw(st.integers(1, 10**4))),
            *draw(rates)]
    if family == "mm-mds":
        argv += ["--l", str(draw(st.integers(1, 5)))]
    return argv + ["--objective", draw(st.sampled_from(["age", "service"]))]


EXTREME = rates_argv(1e-300, 1e300, None)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(age_argv())
def test_age_cli_keeps_exit_code_contract(argv):
    assert_contract(argv)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(optimize_argv())
def test_optimize_cli_keeps_exit_code_contract(argv):
    assert_contract(argv)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.one_of(age_argv(EXTREME), optimize_argv(EXTREME)))
def test_cli_keeps_exit_code_contract_at_extreme_rates(argv):
    # shift, straggling and arrival rate anywhere in 1e-300..1e300: their
    # products and squares overflow or underflow
    assert_contract(argv)


# simulate and sweep at bounded sizes: every flag has its type, so exit 2 comes
# from a violated invariant and is one line, like exit 3
def assert_one_line_failure(what, code, err):
    assert code in (2, 3), (what, code, err)
    prefix = "error: " if code == 2 else "numerical failure: "
    assert err.startswith(prefix) and err.count("\n") == 1, (what, err)


def assert_typed_contract(argv):
    code, out, err = exit_code_and_output(argv)
    assert_outcome(argv, code, out, err)
    if code:
        assert_one_line_failure(argv, code, err)


# a replication needs at least its 30 batches of cycles
CYCLES = st.integers(20, 300)


@st.composite
def simulate_argv(draw, rates=rates_argv(1e-1, 1e1)):
    # rates default to 0.1..10, where most runs succeed; at extreme rates a
    # full-stream cycle would walk through about lambda * E[S] arrivals, and
    # runs past MAX_DROPS_PER_CYCLE of them are refused with exit 2
    label = draw(st.sampled_from(sorted(cli._SCHEMES)))
    n, load = draw(st.integers(1, 64)), draw(st.integers(1, 4))
    k = draw(st.one_of(st.integers(1, min(n, 20)), st.integers(-1, n * load + 1)))
    return ["simulate", "--scheme", label, "--n", str(n), "--k", str(k), "--l", str(load),
            "--cycles", str(draw(CYCLES)),
            "--seed", str(draw(st.integers(-1, 2**64))), "--reps", str(draw(st.integers(1, 2))),
            "--mode", draw(st.sampled_from(["fast", "full-stream"])),
            "--policy", draw(st.sampled_from(["zero-wait", "return-triggered"])),
            *draw(rates)]


@st.composite
def sweep_argv(draw, rates=rates_argv(1e-1, 1e1)):
    """A custom sweep of at most ten rows, with or without a simulation overlay."""
    label = draw(st.sampled_from(sorted(cli._SCHEMES)))
    n, load = draw(st.integers(1, 64)), draw(st.integers(1, 4))
    flag, start = draw(st.sampled_from([("--k-range", st.integers(-1, n * load + 1)),
                                        ("--n-range", st.integers(0, 64)),
                                        ("--l-range", st.integers(0, 5))]))
    a = draw(start)
    bounds = [a, a + draw(st.integers(-1, 9))] + draw(st.lists(st.integers(-1, 3), max_size=1))
    argv = ["sweep", "--scheme", label, "--n", str(n), "--k", str(draw(st.integers(1, 20))),
            "--l", str(load), flag, ":".join(map(str, bounds)),
            "--seed", str(draw(st.integers(-1, 2**32))), *draw(rates)]
    cycles = draw(st.one_of(st.none(), CYCLES))
    if cycles is not None:
        argv += ["--cycles", str(cycles), "--reps", str(draw(st.integers(1, 2)))]
    return argv


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(simulate_argv())
def test_simulate_cli_keeps_exit_code_contract(argv):
    assert_typed_contract(argv)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(simulate_argv(EXTREME))
def test_simulation_keeps_exit_code_contract_at_extreme_rates(argv):
    # areas of squared cycle lengths overflow where the arrival rate is tiny;
    # full-stream runs past MAX_DROPS_PER_CYCLE are refused with exit 2
    assert_typed_contract(argv)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(sweep_argv())
def test_sweep_cli_keeps_exit_code_contract(argv):
    assert_sweep_contract(argv)


def assert_sweep_contract(argv):
    """A sweep into a temporary --out fails in one line and writes no file, or
    reports the rows it wrote, each with finite numbers."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        code, out, err = exit_code_and_output(argv + ["--out", path])
        if code:
            assert_one_line_failure(argv, code, err)
            assert not os.path.exists(path), argv
            return
        with open(path) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert out == f"wrote {path} ({len(rows)} rows)\n" and rows, (argv, out)
    for row in rows:
        for key in ("es", "es2", "age_analytic", "age_sim_mean", "age_sim_ci95"):
            assert row[key] == "" or math.isfinite(float(row[key])), (argv, key, row)
        assert (row["age_sim_mean"] == "") == ("--cycles" not in argv) or \
            row["scheme"] == "repetition", (argv, row)


# --config values go through each flag's own parser: any JSON value, valid or
# not, must give exit 0, 2 or 3 with one line of error and no traceback.
def junk():
    # integers stay small: level solving costs grow with the square of --l,
    # and an --l in the hundreds makes one optimize run take about a minute
    return st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]),
                     st.integers(-3, 3), st.text(max_size=6), st.booleans(), st.none(),
                     st.lists(st.integers(0, 9), max_size=2))


RATE = log_uniform(1e-2, 1e2)
CONFIG_FLAGS = {
    "age": {"lambda": RATE, "c": RATE, "mu": RATE, "n": st.integers(1, 200),
            "scheme": st.sampled_from(sorted(cli._SCHEMES)), "k": st.integers(1, 50),
            "l": st.integers(1, 4)},
    "optimize": {"lambda": RATE, "c": RATE, "mu": RATE, "n": st.integers(1, 200),
                 "family": st.sampled_from(sorted(cli._OPTIMIZERS)), "l": st.integers(1, 5),
                 "objective": st.sampled_from(["age", "service"])},
    # one custom axis of at most four rows; the test adds --out in a
    # temporary directory
    "sweep": {"lambda": RATE, "c": RATE, "mu": RATE, "n": st.integers(1, 200),
              "scheme": st.sampled_from(sorted(cli._SCHEMES)), "k": st.integers(1, 50),
              "l": st.integers(1, 4), "seed": st.integers(0, 2**32),
              "k-range": st.builds(lambda a, w: f"{a}:{a + w}", st.integers(1, 20),
                                   st.integers(0, 3))},
}


@st.composite
def configs(draw):
    """(command, config): every flag valid except up to two junk values and one
    left out."""
    command = draw(st.sampled_from(sorted(CONFIG_FLAGS)))
    flags = CONFIG_FLAGS[command]
    broken = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    missing = draw(st.sets(st.sampled_from(sorted(flags)), max_size=1))
    return command, {key: draw(junk() if key in broken else valid)
                     for key, valid in flags.items() if key not in missing}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(configs())
def test_config_values_keep_exit_code_contract(config):
    command, values = config
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(values, fh)  # inf and nan are written as Infinity and NaN
        if command == "sweep":
            assert_sweep_contract([command, "--config", path])
            return
        code, out, err = exit_code_and_output([command, "--config", path])
    finally:
        os.unlink(path)
    assert_outcome(values, code, out, err)
    if code == 2:  # no argparse usage block: the error comes from the config
        assert err.startswith("error: ") and err.count("\n") == 1, (values, err)
