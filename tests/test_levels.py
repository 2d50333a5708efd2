"""Level-split solver against closed-form and substitution oracles."""
import math

import pytest

from coded_aoi import Infeasible, InconsistentK, LevelSplit, level_counts, solve_levels
from coded_aoi.levels import chain_alphas, chain_residuals
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
        split = solve_levels(1, alpha, 1.0)
        assert split.alphas == (alpha,)


def test_two_levels_match_quadratic_oracle():
    for mu_c, alpha in [(0.1, 0.3), (1.0, 0.5), (0.01, 0.2), (0.5, 0.45)]:
        split = solve_levels(2, alpha, mu_c)
        a1, a2 = two_level_oracle(alpha, mu_c)
        assert split.alphas[0] == pytest.approx(a1, abs=1e-10)
        assert split.alphas[1] == pytest.approx(a2, abs=1e-10)


def test_second_level_unreachable_for_large_straggling():
    # with a steep chain constant the whole quota lands in level one
    split = solve_levels(2, 0.3, 5.0)
    assert split.alphas[0] == pytest.approx(0.6, abs=1e-10)
    assert split.alphas[1] == 0.0
    # mu_c = 1 at alpha = 0.3 is already degenerate (quadratic oracle agrees)
    split = solve_levels(2, 0.3, 1.0)
    assert split.alphas[0] == pytest.approx(0.6, abs=1e-10)
    assert split.alphas[1] == 0.0
    assert two_level_oracle(0.3, 1.0) == (0.6, 0.0)


def test_chain_and_sum_residuals_on_grid():
    for ell in (2, 3, 5):
        for mu_c in (0.01, 0.1, 0.5, 1.0, 2.0):
            for alpha in (0.05, 0.2, 0.4, 0.6, 0.8):
                split = solve_levels(ell, alpha, mu_c)
                assert abs(sum(split.alphas) - ell * alpha) < 1e-10
                for r in chain_residuals(split, mu_c):
                    assert abs(r) < 1e-10
                a = split.alphas
                assert all(x >= y for x, y in zip(a, a[1:]))
                # zeros only trail
                seen_zero = False
                for x in a:
                    if x == 0.0:
                        seen_zero = True
                    else:
                        assert not seen_zero


def test_alpha1_strictly_increasing_in_alpha():
    for mu_c in (0.1, 1.0):
        grid = [solve_levels(3, a, mu_c).alphas[0] for a in
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


def test_infeasible_near_saturation():
    with pytest.raises(Infeasible):
        solve_levels(2, 1.0 - 1e-12, 1.0)


def test_level_counts_trivial_and_exact():
    assert level_counts(LevelSplit((0.5,)), 100, 50) == [50]
    assert level_counts(LevelSplit((0.35, 0.25)), 100, 60) == [35, 25]


def test_level_counts_seven_of_ten_three_levels():
    # low-straggling regime (shift*rate = 0.01): 7 subtasks over 10 workers,
    # 3 per queue, split 4/2/1
    split = solve_levels(3, 7 / 30, 0.01)
    assert level_counts(split, 10, 7) == [4, 2, 1]


def test_level_counts_sum_exact_on_grid():
    for ell in (2, 3, 4):
        for mu_c in (0.01, 0.5, 1.5):
            for n in (10, 100, 997):
                for alpha in (0.1, 0.33, 0.61):
                    k = round(ell * alpha * n)
                    split = solve_levels(ell, alpha, mu_c)
                    counts = level_counts(split, n, k)
                    assert sum(counts) == k
                    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_level_counts_inconsistent_k():
    with pytest.raises(InconsistentK):
        level_counts(LevelSplit((0.5,)), 10, 9)
    with pytest.raises(InconsistentK):
        level_counts(LevelSplit((0.5, 0.3)), 10, 3)


def test_sandwich_ordering_at_rounded_counts():
    # on a solved split, the last counted subtask of every active level
    # finishes within one order-statistic step of every other level's
    n, ell, alpha, shift, rate = 1000, 3, 0.2, 1.0, 0.5
    k = round(ell * alpha * n)
    split = solve_levels(ell, alpha, shift * rate)
    counts = level_counts(split, n, k)
    d = ShiftedExp(shift / k, k * rate)
    active = [(m + 1, km) for m, km in enumerate(counts) if km > 0]
    for m, km in active:
        for mb, kmb in active:
            if m == mb or kmb + 1 > n:
                continue
            assert m * os_mean(d, n, km) <= mb * os_mean(d, n, kmb + 1)


def test_chain_constant_beyond_float_range():
    # exp(mu_c) overflows a float past mu_c ~ 709.78; every level after the
    # first is empty there, as it already is at mu_c = 708
    assert solve_levels(3, 0.2, 800.0) == solve_levels(3, 0.2, 708.0)
    assert chain_alphas(0.5, 3, 1e6).tolist() == [0.5, 0.0, 0.0]
