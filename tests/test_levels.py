"""Level-split solver against closed-form and substitution oracles."""
import math

import numpy as np
import pytest

from coded_aoi import Infeasible, InconsistentK, NoConvergence, level_counts, levels, solve_levels
from coded_aoi.levels import chain_alphas
from levels_reference import chain_residuals, level_residual, level_root
from coded_aoi.order_stats import ShiftedExp, os_mean


def two_level_oracle(alpha, mu_c):
    """Closed form for two levels: quadratic in gamma = 1 - alpha_2."""
    e = math.exp(mu_c)
    s = 2.0 - 2.0 * alpha
    gamma = (-e + math.sqrt(e * e + 4.0 * e * s)) / 2.0
    a1, a2 = 1.0 - (s - gamma), 1.0 - gamma
    if a2 < 0.0:
        return 2.0 * alpha, 0.0
    return a1, a2


def test_single_level_is_exact():
    for alpha in (0.01, 0.25, 0.5, 0.9, 0.999):
        alphas = solve_levels(1, alpha, 1.0)
        assert alphas == (alpha,)


def test_two_levels_match_quadratic_oracle():
    for mu_c, alpha in [(0.1, 0.3), (1.0, 0.5), (0.01, 0.2), (0.5, 0.45)]:
        alphas = solve_levels(2, alpha, mu_c)
        a1, a2 = two_level_oracle(alpha, mu_c)
        assert alphas[0] == pytest.approx(a1, abs=1e-10)
        assert alphas[1] == pytest.approx(a2, abs=1e-10)


def test_second_level_unreachable_for_large_straggling():
    # with a steep chain constant the whole quota lands in level one
    alphas = solve_levels(2, 0.3, 5.0)
    assert alphas[0] == pytest.approx(0.6, abs=1e-10)
    assert alphas[1] == 0.0
    # mu_c = 1 at alpha = 0.3 is already degenerate (quadratic oracle agrees)
    alphas = solve_levels(2, 0.3, 1.0)
    assert alphas[0] == pytest.approx(0.6, abs=1e-10)
    assert alphas[1] == 0.0
    assert two_level_oracle(0.3, 1.0) == (0.6, 0.0)


def test_chain_and_sum_residuals_on_grid():
    for ell in (2, 3, 5):
        for mu_c in (0.01, 0.1, 0.5, 1.0, 2.0):
            for alpha in (0.05, 0.2, 0.4, 0.6, 0.8):
                alphas = solve_levels(ell, alpha, mu_c)
                assert abs(sum(alphas) - ell * alpha) < 1e-10
                for r, _ in chain_residuals(alphas, mu_c):
                    assert abs(r) < 1e-10
                a = alphas
                assert all(x >= y for x, y in zip(a, a[1:]))
                # zeros only trail
                seen_zero = False
                for x in a:
                    if x == 0.0:
                        seen_zero = True
                    else:
                        assert not seen_zero


def test_level_roots_equal_the_reference_residual_bit_for_bit(monkeypatch):
    # one loop forms the fractions, their fsum and the slope, with the same
    # additions in the same order as chain_alphas, fsum and a generator sum
    rng = np.random.default_rng(17)
    residuals = []
    original = levels.newton_root

    def recorded(fn, lo, hi):
        residuals.append((fn, hi))
        return original(fn, lo, hi)

    monkeypatch.setattr(levels, "newton_root", recorded)
    solved = 0
    for _ in range(1500):
        ell = int(rng.choice([1, 2, 3, 4, 5, 8, 20, 300, rng.integers(1, 1000)]))
        alpha, mu_c = float(rng.uniform(0.001, 0.999)), float(10.0 ** rng.uniform(-6, 3))
        want = level_root(ell, alpha, mu_c)
        residuals.clear()
        try:
            got = levels._level_root.__wrapped__(ell, alpha, mu_c, math.log1p(-alpha))
        except NoConvergence:
            assert want is not None and not abs(want[1]) <= levels.CHAIN_TOL
            continue
        if want is None:
            assert got is None and not residuals
            continue
        solved += 1
        assert got.hex() == want[0].hex(), (ell, alpha, mu_c)
        (fn, hi), = residuals
        target = ell * alpha
        for beta in [0.0, got, hi, *rng.uniform(0.0, hi, 4).tolist()]:
            # repr tells every double apart, and the int 0 of an empty slope
            assert repr(fn(beta)) == repr(level_residual(beta, ell, mu_c, target)), (ell, beta)
    assert solved > 500


def test_alpha1_strictly_increasing_in_alpha():
    for mu_c in (0.1, 1.0):
        grid = [solve_levels(3, a, mu_c)[0] for a in
                (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)]
        assert all(b > a for a, b in zip(grid, grid[1:]))


def test_invalid_arguments():
    with pytest.raises(ValueError):
        solve_levels(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        solve_levels(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_levels(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_levels(2, 0.5, 0.0)


@pytest.mark.parametrize("ell", [2.0, True, "2", np.float64(2)])
def test_non_integer_level_count_is_rejected(ell):
    # the checks run before the root is looked up, so a split cached under
    # an equal key does not let a wrong type through
    solve_levels(2, 0.3, 1.0)
    with pytest.raises(ValueError, match="must be an integer"):
        solve_levels(ell, 0.3, 1.0)


@pytest.mark.parametrize("args, error", [((3, 0.5, math.inf), Infeasible),
                                         ((2, 0.6, 5e6), NoConvergence)])
def test_a_failed_split_fails_again(args, error):
    # an exception is never cached
    for _ in range(2):
        with pytest.raises(error):
            solve_levels(*args)


@pytest.mark.parametrize("args", [(2, 0.3, 1.0), (3, 7 / 30, 0.01), (2000, 0.5, 0.01),
                                  (3, 0.2, 1.0), (1, 0.4, 1.0)])
def test_a_cached_split_equals_a_cold_solve(args):
    # the first call, with numpy arguments, fills the cache; the split is
    # rebuilt from the normalised key, so every caller gets Python floats
    levels._level_root.cache_clear()
    ell, alpha, mu_c = args
    cold = solve_levels(np.int64(ell), np.float64(alpha), np.float64(mu_c))
    warm = solve_levels(*args)
    assert levels._level_root.cache_info().hits == 1
    assert len(warm) == len(cold) == ell
    assert all(type(a) is float and type(b) is float and a == b for a, b in zip(cold, warm))


def test_numpy_integer_level_count_is_accepted():
    assert solve_levels(np.int64(2), 0.3, 0.1) == solve_levels(2, 0.3, 0.1)


def test_near_saturation_is_solved():
    # 1 - alpha_1 ~ 1.7e-24 is below double resolution, but beta_1 ~ 54.8 is
    # not: the split is found, and alpha_2 matches the two-level quadratic
    # (1 - alpha_2)^2 = e * (1 - alpha_1), solved without cancellation
    alpha, mu_c = 1.0 - 1e-12, 1.0
    alphas = solve_levels(2, alpha, mu_c)
    assert abs(sum(alphas) - 2 * alpha) <= 1e-15
    e, s = math.exp(mu_c), 2.0 - 2.0 * alpha
    gamma = 2.0 * e * s / (e + math.sqrt(e * e + 4.0 * e * s))
    assert alphas == (1.0, pytest.approx(1.0 - gamma, abs=1e-15))
    for r, bound in chain_residuals(alphas, mu_c):
        assert abs(r) <= bound
    # further from saturation every log-gap is a finite double
    alphas = solve_levels(3, 1.0 - 1e-4, mu_c)
    residuals = chain_residuals(alphas, mu_c)
    assert len(residuals) == 2
    assert all(abs(r) <= bound for r, bound in residuals)
    assert abs(sum(alphas) - 3 * (1.0 - 1e-4)) <= 1e-15


def test_level_counts_trivial_and_exact():
    assert level_counts((0.5,), 100, 50) == [50]
    assert level_counts((0.35, 0.25), 100, 60) == [35, 25]


def test_level_counts_seven_of_ten_three_levels():
    # low-straggling regime (shift*rate = 0.01): 7 subtasks over 10 workers,
    # 3 per queue, split 4/2/1
    alphas = solve_levels(3, 7 / 30, 0.01)
    assert level_counts(alphas, 10, 7) == [4, 2, 1]


def test_level_counts_sum_exact_on_grid():
    for ell in (2, 3, 4):
        for mu_c in (0.01, 0.5, 1.5):
            for n in (10, 100, 997):
                for alpha in (0.1, 0.33, 0.61):
                    k = round(ell * alpha * n)
                    alphas = solve_levels(ell, alpha, mu_c)
                    counts = level_counts(alphas, n, k)
                    assert sum(counts) == k
                    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_level_counts_inconsistent_k():
    with pytest.raises(InconsistentK):
        level_counts((0.5,), 10, 9)
    with pytest.raises(InconsistentK):
        level_counts((0.5, 0.3), 10, 3)
    # the first count is at least 1, so no split holds k = 0
    for args in [((0.0,), 10, 0), ((), 10, 3)]:
        with pytest.raises(ValueError):
            level_counts(*args)


def test_sandwich_ordering_at_rounded_counts():
    # on a solved split, the last counted subtask of every active level
    # finishes within one order-statistic step of every other level's
    n, ell, alpha, shift, rate = 1000, 3, 0.2, 1.0, 0.5
    k = round(ell * alpha * n)
    alphas = solve_levels(ell, alpha, shift * rate)
    counts = level_counts(alphas, n, k)
    d = ShiftedExp(shift / k, k * rate)
    active = [(m + 1, km) for m, km in enumerate(counts) if km > 0]
    for m, km in active:
        for mb, kmb in active:
            if m == mb or kmb + 1 > n:
                continue
            assert m * os_mean(d, n, km) <= mb * os_mean(d, n, kmb + 1)


def test_chain_constant_beyond_float_range():
    # exp(mu_c) overflows a float past mu_c ~ 709.78, and the closed form
    # never forms it; every level after the first is empty there, as it
    # already is at mu_c = 708
    assert solve_levels(3, 0.2, 800.0) == solve_levels(3, 0.2, 708.0)
    assert chain_alphas(math.log(2.0), 3, 1e6) == [0.5, 0.0, 0.0]


def test_closed_form_matches_forward_recursion():
    # the chain in exponential form, stepped level by level with exp(mu_c)
    for ell, mu_c, beta1 in [(2, 0.3, 0.9), (4, 0.05, 2.0), (7, 0.01, 0.5), (3, 2.0, 5.5)]:
        expected = [-math.expm1(-beta1)]
        prev = math.exp(-beta1)  # (1 - alpha_{m-1})^(m-1)
        for m in range(2, ell + 1):
            base = math.exp(mu_c) * prev
            expected.append(max(1.0 - base ** (1.0 / m), 0.0))
            prev = base
        assert chain_alphas(beta1, ell, mu_c) == pytest.approx(expected, abs=1e-15)


def test_levels_fill_once_beta1_passes_their_start():
    assert chain_alphas(0.0, 4, 1.0) == [0.0, 0.0, 0.0, 0.0]
    # level m fills exactly once beta_1 > (m - 1) * mu_c
    assert [a > 0 for a in chain_alphas(3.0, 4, 1.0)] == [True, True, True, False]
    for m, beta1 in enumerate((0.0, 1.0, 2.0, 3.0), start=1):
        assert chain_alphas(beta1, 4, 1.0)[m - 1] == 0.0
        assert chain_alphas(math.nextafter(beta1, math.inf), 4, 1.0)[m - 1] > 0.0


def test_infinite_chain_offset():
    # shift * straggling can overflow to inf while both factors are finite;
    # 0 * inf must not reach the formula, and only the first level can fill
    mu_c = 1e200 * 1e200
    assert mu_c == math.inf
    assert chain_alphas(math.log(2.0), 3, mu_c) == [0.5, 0.0, 0.0]
    alphas = solve_levels(3, 0.2, mu_c)
    assert alphas == (pytest.approx(0.6, abs=1e-15), 0.0, 0.0)
    assert not any(math.isnan(a) for a in alphas)
    with pytest.raises(Infeasible):
        solve_levels(3, 0.5, mu_c)


def test_second_level_past_first_level_resolution():
    # mu_c = 28.2: level 2 opens only at 1 - alpha_1 = exp(-28.2) ~ 5.6e-13,
    # finer than a double alpha_1 resolves near 1
    mu_c = 9.4 * 3.0
    alphas = solve_levels(4, 117 / 448, mu_c)
    assert alphas[2:] == (0.0, 0.0)
    assert 0.0 < alphas[1] < 0.1
    assert abs(sum(alphas) - 4 * 117 / 448) <= 1e-12
    assert all(abs(r) <= bound for r, bound in chain_residuals(alphas, mu_c))


def test_newton_root_returns_a_root_at_lo():
    calls = []

    def fn(x):
        calls.append(x)
        return x - 2.0, 1.0

    assert levels.newton_root(fn, 2.0, 5.0) == (2.0, 0.0)
    assert calls == [2.0]


@pytest.mark.parametrize("slope", [0.0, -1.0, math.inf, math.nan])
def test_newton_root_bisects_without_a_usable_slope(slope):
    # a slope that is not positive and finite at lo gives no Newton step:
    # the next point is the middle of the bracket
    calls = []

    def fn(x):
        calls.append(x)
        return x - 3.0, (slope if x == 0.0 else 1.0)

    assert levels.newton_root(fn, 0.0, 8.0) == (3.0, 0.0)
    assert calls == [0.0, 4.0, 3.0]


def test_newton_root_solves_an_increasing_function_with_kinks():
    # concave pieces whose slope jumps up at 1 and 2, as the level sum's does
    # at each level start: the step from 1.5 passes the kink at 2 and the
    # root, and the bracket closes from the right
    calls = []

    def fn(x):
        calls.append(x)
        value = -math.expm1(-x) + sum(-math.expm1(-(x - s) / 2) for s in (1.0, 2.0) if x > s)
        slope = math.exp(-x) + sum(0.5 * math.exp(-(x - s) / 2) for s in (1.0, 2.0) if x >= s)
        return value - 1.5, slope

    x, value = levels.newton_root(fn, 0.0, 10.0)
    assert calls[:2] == [0.0, 1.5] and calls[2] > x and len(calls) <= 8
    assert fn(math.nextafter(x, 0.0))[0] < 0.0 <= value < fn(math.nextafter(x, 10.0))[0]


def test_newton_root_stops_on_a_bracket_with_no_double_inside():
    # the root 1 + 2**-53 lies between two adjacent doubles, and the
    # value at either never reaches 0
    lo, hi = 1.0, math.nextafter(1.0, 2.0)
    calls = []

    def fn(x):
        calls.append(x)
        return (x - 1.0) - 2.0**-53, 1.0

    assert levels.newton_root(fn, lo, hi) == (lo, -2.0**-53)
    assert calls == [lo]


def test_newton_root_stops_after_max_iter_evaluations():
    # a slope 1000 times too steep: each step closes 1/1000 of the gap to
    # the root, so only the cap ends the loop, at the last and best point
    calls = []

    def fn(x):
        calls.append(x)
        return x - 1.0, 1000.0

    x, value = levels.newton_root(fn, 0.0, 2.0)
    assert len(calls) == levels.MAX_ITER
    assert x == calls[-1] and value == x - 1.0 and 0.09 < x < 0.1


def test_many_levels_take_few_level_sums(monkeypatch):
    # each level sum costs O(load); walking the piece starts in order took
    # about 1000 of them here, and the Newton steps take 8
    sums = []
    original = levels.newton_root

    def counted(fn, lo, hi):
        def residual(beta1):
            sums.append(beta1)
            return fn(beta1)
        return original(residual, lo, hi)

    monkeypatch.setattr(levels, "newton_root", counted)
    # a root cached by an earlier call with this key would count no Newton step
    levels._level_root.cache_clear()
    alphas = solve_levels(2000, 0.5, 0.01)
    assert 0 < len(sums) <= 40
    assert abs(math.fsum(alphas) - 1000.0) <= 1e-10
    for r, bound in chain_residuals(alphas, 0.01):
        assert abs(r) <= bound
