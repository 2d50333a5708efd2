"""Age-optimal code parameters.

For a large pool, minimizing the average age is equivalent to minimizing
the mean service time, which yields closed-form optima for the repetition
fraction (shift*straggling, clamped to [1/n, 1]) and the MDS fraction (via
the lower branch of the Lambert W function, solved in log form).  The
multi-message optimum has no closed form, but its objective, a function of
the first level's log-gap, has at most one stationary point between two
consecutive level starts; each is solved by a bracketed Newton iteration and
the best one is kept.  All continuous optima are refined against the exact
integer-k age, since rounding the continuous solution can land one step off
the true argmin.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .age import age_of
from .levels import _mm_split, chain_alphas, level_counts, newton_root, require_int, require_real
from .schemes import MDS, MultiMDS, Repetition, Scheme, SystemParams, service_moments

_BRANCH_POINT = -math.exp(-1.0)
# e = _E_HI + _E_LO to about 1e-32, and Veltkamp's constant 2**27 + 1, which
# splits a double into two halves whose products are exact
_E_HI, _E_LO = math.e, 1.4456468917292502e-16
_SPLIT = 134217729.0


@dataclass(frozen=True)
class OptResult:
    k_star: int
    alpha_star: float
    delta_star: float
    continuous_objective: float  # E[S] at the continuous optimum (large-pool formula)
    levels: Optional[tuple[int, ...]] = None


def lambert_w_m1(x: float) -> float:
    """Lower real branch of the Lambert W function: w <= -1 with w*exp(w) = x.

    Defined for x in [-1/e, 0); solved in log form (see _branch_excess), so
    the error is relative to x however close x is to 0.
    """
    x = require_real("x", x)
    if not _BRANCH_POINT <= x < 0.0:
        raise ValueError(f"lambert_w_m1 requires -1/e <= x < 0, got {x}")
    # d = -log(-x) - 1 is off by about EPS, and w by about sqrt(2 EPS) next
    # to the branch point; there d is -log1p(t) for t = -x e - 1, formed in
    # double-double.  Near x = 0, t rounds to -1, so d keeps its log form
    p, err = _two_product(-x, _E_HI)
    t = (p - 1.0 + err) - x * _E_LO
    d = -math.log1p(t) if t > -0.5 else -math.log(-x) - 1.0
    return -1.0 - _branch_excess(max(d, 0.0))


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, err) with p = fl(a * b) and p + err = a * b exactly (Dekker 1971)."""
    p = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    a_hi, b_hi = ca - (ca - a), cb - (cb - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _branch_excess(d: float) -> float:
    """The u >= 0 with u - log1p(u) = d, so that W_{-1}(-exp(-1 - d)) = -1 - u.

    This is w + log(-w) = -1 - d in u = -1 - w; it forms no exp(-d), so any
    d >= 0 works.  newton_root solves sqrt(u - log1p(u)) = sqrt(d), whose
    left side rises from 0 with slope 1 / sqrt(2) and is concave, so the
    steps climb onto the root from u = 0: 3 to 8 evaluations at d <= 100,
    and 19 at most at any d.  Below u = 0.1 the difference would cancel, so
    the left side is u * sqrt(q) there, with q = (u - log1p(u)) / u**2 =
    1/2 - u/3 + u**2/4 - ... summed to u**16.  The bracket ends at
    d + 2 sqrt(d) + 1, the square of 1 + sqrt(d) without its rounding,
    where u - log1p(u) >= u - sqrt(u) > d.
    """
    def excess(u: float) -> tuple[float, float]:
        if u < 0.1:
            q = 0.0
            for j in range(18, 1, -1):
                q = 1.0 / j - u * q
            return u * math.sqrt(q) - root_d, 0.5 / ((1.0 + u) * math.sqrt(q))
        rho = math.sqrt(u - math.log1p(u))
        return rho - root_d, 0.5 * u / (1.0 + u) / rho

    root_d = math.sqrt(d)
    return newton_root(excess, 0.0, d + 2.0 * root_d + 1.0)[0]


def refine_discrete(age_fn: Callable[[int], float], k_seed: int,
                    k_min: int, k_max: int) -> int:
    """Integer argmin by hill descent from k_seed, one step at a time to a
    strictly lower neighbour; a tie stops the walk, and a NaN age, which
    would compare as one, raises ValueError."""
    k_seed = require_int("k_seed", k_seed)
    k_min = require_int("k_min", k_min)
    k_max = require_int("k_max", k_max)
    if not k_min <= k_seed <= k_max:
        raise ValueError(f"need k_min <= k_seed <= k_max, got {k_min}, {k_seed}, {k_max}")
    @functools.cache
    def f(k: int) -> float:
        if math.isnan(age := age_fn(k)):
            raise ValueError(f"refine_discrete: the age at k={k} is NaN")
        return age

    k = k_seed
    while k > k_min and f(k - 1) < f(k):
        k -= 1
    if k == k_seed:
        while k < k_max and f(k + 1) < f(k):
            k += 1
    return k


def _refined(params: SystemParams, make: Callable[[int], Scheme], objective: str,
             k_cont: float, k_min: int, k_max: int, alpha: float,
             continuous_objective: float) -> OptResult:
    """The OptResult at the integer k nearest k_cont, clamped to [k_min, k_max]
    and refined against the exact age (objective="age") or the mean service
    time (objective="service") of the scheme make(k)."""
    if objective not in ("age", "service"):
        raise ValueError(f"objective must be 'age' or 'service', got {objective!r}")

    # the search's ages are kept, so an age-objective k_star reads its own
    @functools.cache
    def age(k: int) -> float:
        return age_of(make(k), params).delta

    def service(k: int) -> float:
        return service_moments(make(k), params).es

    seed = min(max(round(k_cont), k_min), k_max)
    k_star = refine_discrete(age if objective == "age" else service, seed, k_min, k_max)
    return OptResult(k_star, alpha, age(k_star), continuous_objective)


def opt_repetition(params: SystemParams, objective: str = "age") -> OptResult:
    """Optimal subpacket count for the repetition scheme.

    Continuous optimum: fraction shift*straggling clamped to [1/n, 1], since
    at least one subpacket is sent; refined over all integers 1..n against
    the exact age (objective="age", default) or the mean service time
    (objective="service").
    """
    n = params.nworkers
    alpha = min(max(params.mu_c, 1.0 / n), 1.0)
    es_cont = params.shift / (alpha * n) + math.log(alpha * n) / (params.straggling * n)
    return _refined(params, Repetition, objective, alpha * n, 1, n, alpha, es_cont)


def opt_mds(params: SystemParams, objective: str = "age") -> OptResult:
    """Optimal k for the MDS scheme.

    Continuous optimum: alpha = 1 + 1/W_{-1}(-exp(-mu*c - 1)) = u/(1 + u)
    with u - log1p(u) = mu*c, which holds at any mu*c; refined over
    integers 1..n-1 against the exact age (or mean service time).  Raises
    OverflowError when shift*straggling overflows a double.
    """
    cm = params.mu_c
    if math.isinf(cm):
        raise OverflowError(f"mds optimization: shift*straggling = {params.shift:g}*"
                            f"{params.straggling:g} overflows a double")
    u = _branch_excess(cm)
    alpha = 1.0 / (1.0 + 1.0 / u)
    n = params.nworkers
    if n < 2:
        raise ValueError("mds optimization needs at least 2 workers")
    # -log(1 - alpha) = log1p(u), which stays finite where alpha rounds to 1;
    # log1p(u) / alpha is near 1 where straggling * alpha would underflow
    es_cont = params.shift / (alpha * n) + math.log1p(u) / alpha / (params.straggling * n)
    return _refined(params, MDS, objective, alpha * n, 1, n - 1, alpha, es_cont)


def opt_mm_mds(params: SystemParams, load: int, objective: str = "age") -> OptResult:
    """Optimal k for the multi-message MDS scheme with the given load.

    The first level's log-gap beta = -log(1 - a1) fixes every level
    (levels.chain_alphas), hence the level sum A(beta) = load * alpha and the
    scaled mean service time (shift + beta / straggling) / alpha, whose slope
    has the sign of G = A - (mu_c + beta) * A'.  Between two level starts A is
    concave, so G' = (mu_c + beta) * sum((1 - a_m) / m^2) > 0: each such
    piece holds at most one local minimum, at the root of G.  The smallest
    objective over these roots is the continuous optimum; k is then refined
    against the exact age (or mean service time) over integers
    1..n*load-1.  OverflowError: no piece has a finite root.
    """
    load = require_int("load", load, 1)
    n = params.nworkers
    if n * load < 2:
        raise ValueError(f"mm-mds optimization needs n*load >= 2, got n={n}, load={load}")
    mu_c = params.mu_c
    roots = _piece_roots(load, mu_c)
    if not roots:
        raise OverflowError(f"mm-mds optimization: no finite optimum at shift*straggling = "
                            f"{params.shift:g}*{params.straggling:g}")

    def scaled_es(beta: float) -> tuple[float, float]:
        alpha = math.fsum(chain_alphas(beta, load, mu_c)) / load
        return params.shift / alpha + beta / (params.straggling * alpha), alpha

    cont, alpha = min(map(scaled_es, roots), key=lambda pair: pair[0])
    result = _refined(params, lambda k: MultiMDS(k, load), objective, alpha * n * load,
                      1, n * load - 1, alpha, cont / (n * load))
    alphas = _mm_split(n, load, result.k_star, mu_c)
    return replace(result, levels=tuple(level_counts(alphas, n, result.k_star)))


# A fig5a sweep asks for the same roots at each of its n; a tuple of at most
# load floats per entry
@functools.lru_cache(maxsize=256)
def _piece_roots(load: int, mu_c: float) -> tuple[float, ...]:
    """The root of G (see opt_mm_mds) on each piece where G changes sign.

    Piece p starts at (p - 1) * mu_c.  Past that start every 1 - a_m is at
    most E = exp(-y / p), y = beta - (p - 1) * mu_c, so with H = sum(1/m) over
    m <= p, G >= p - E * (p + (p * mu_c + y) * H), which is positive once
    y / p = log(2 + 2 * H * mu_c) + 2 * log(4 * H); that point, or p * mu_c if
    sooner, closes the bracket.  Newton runs on log(A) - log((mu_c + beta) * A'),
    which has G's sign and is nearly linear where the newest level is nearly full.
    """
    roots, harmonic = [], 0.0
    for p in range(1, load + 1):
        def h(beta: float, p: int = p) -> tuple[float, float]:
            a = chain_alphas(beta, load, mu_c)
            total, weight = math.fsum(a), mu_c + beta
            d1 = sum((1.0 - a[m - 1]) / m for m in range(1, p + 1))
            d2 = sum((1.0 - a[m - 1]) / (m * m) for m in range(1, p + 1))
            if not (total > 0.0 and d1 > 0.0):  # G = -weight * d1 or G = total
                return (math.inf if total > 0.0 else -math.inf), math.inf
            return (math.log(total) - math.log(weight) - math.log(d1),
                    d1 / total - 1.0 / weight + d2 / d1)

        harmonic += 1.0 / p
        lo = (p - 1) * mu_c if p > 1 else 0.0
        # that bound, as log(32 H^3) + log(mu_c + 1/H) so that nothing overflows
        hi = lo + p * (math.log(32.0 * harmonic**3) + math.log(mu_c + 1.0 / harmonic))
        if p < load:
            hi = min(hi, p * mu_c)
        if math.isfinite(hi) and h(lo)[0] < 0.0 < h(hi)[0]:
            roots.append(newton_root(h, lo, hi)[0])
    return tuple(roots)
