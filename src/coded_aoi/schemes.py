"""Service-time models for the task distribution schemes.

An accepted update is processed by a pool of n workers.  One worker
computing the whole task would take ``ShiftedExp(shift, straggling)``;
splitting the task into m subtasks speeds each one up to
``ShiftedExp(shift/m, m*straggling)``.  The service time S of an update is
the completion time of enough subtasks to recover the result, which depends
on how the master distributes work:

    Uncoded      n subtasks, one per worker, all n must finish.
    Repetition   k subtasks, each replicated on n/k workers; all k distinct
                 results are needed, each arriving as the min of its replicas.
    MDS          n coded subtasks, one per worker; any k decode.
    MultiMDS     n*load coded subtasks, ``load`` queued per worker; any k
                 decode.  A worker that finishes m of its queue took m equal
                 per-subtask durations, so fast workers contribute several
                 results while stragglers contribute none.

Each scheme class carries its CLI ``label``, its ``load`` (subtasks queued
per worker) and three methods.  ``check(params, sampling)`` raises
ValueError for parameters the scheme cannot take (with sampling=True: cannot
simulate); on checked parameters, ``moments(params)`` gives the exact E[S]
and E[S^2], the only properties of S that the average age depends on, and
``sample(params, rng, size)`` draws service times by simulating the workers.
The module functions below check and then call these methods, so no other
code dispatches on the scheme type.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .levels import chain_alphas, require_int, solve_levels
from .order_stats import (
    ShiftedExp,
    os_mean,
    os_var,
    sample_batch,
)


# Largest n*load a service time may be sampled at: the sampler holds at
# least one row of that many worker draws (128 MiB of doubles at the limit).
MAX_SAMPLE_DRAWS = 1 << 24


class DegenerateLevels(Exception):
    """The level split leaves the first level empty (k too small for the load)."""


@dataclass(frozen=True)
class SystemParams:
    """Transmission rate plus the whole-task runtime model of one worker."""

    arrival_rate: float  # rate of update transmissions from the source
    shift: float         # minimum whole-task computation time
    straggling: float    # exponential tail rate of the whole-task time
    nworkers: int

    def __post_init__(self) -> None:
        for name in ("arrival_rate", "shift", "straggling"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be > 0, got {self.arrival_rate}")
        if self.shift <= 0:
            raise ValueError(f"shift must be > 0, got {self.shift}")
        if self.straggling <= 0:
            raise ValueError(f"straggling must be > 0, got {self.straggling}")
        require_int("nworkers", self.nworkers)
        if self.nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {self.nworkers}")

    @property
    def mu_c(self) -> float:
        """shift * straggling; if that underflows to 0, which the level solver
        rejects, the smallest subnormal, which gives the same split."""
        return self.shift * self.straggling or math.ulp(0.0)

    def whole_task(self) -> ShiftedExp:
        """Runtime distribution of the entire task on a single worker."""
        return ShiftedExp(self.shift, self.straggling)


@dataclass(frozen=True)
class ServiceMoments:
    """First and second moments of the per-update service time."""

    es: float
    es2: float


def _os_moments(d: ShiftedExp, n: int, k: int) -> ServiceMoments:
    """Moments of the k-th smallest of n i.i.d. draws from d."""
    m = os_mean(d, n, k)
    return ServiceMoments(m, m * m + os_var(d, n, k))


@dataclass(frozen=True)
class Uncoded:
    label: ClassVar[str] = "uncoded"
    load: ClassVar[int] = 1  # subtasks per worker

    def check(self, params: SystemParams, sampling: bool = False) -> None:
        pass

    def moments(self, params: SystemParams) -> ServiceMoments:
        n = params.nworkers
        return _os_moments(params.whole_task().split(n), n, n)

    def sample(self, params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
        n = params.nworkers
        u = rng.random((size, n))
        return params.whole_task().split(n).quantile(u.max(axis=1))


@dataclass(frozen=True)
class Repetition:
    k: int
    label: ClassVar[str] = "repetition"
    load: ClassVar[int] = 1

    def check(self, params: SystemParams, sampling: bool = False) -> None:
        n = params.nworkers
        require_int("repetition: k", self.k)
        if not 1 <= self.k <= n:
            raise ValueError(f"repetition: k must satisfy 1 <= k <= n, got k={self.k}, n={n}")
        if sampling and n % self.k != 0:
            raise ValueError(f"repetition sampling: k must divide n, got k={self.k}, n={n}")

    def moments(self, params: SystemParams) -> ServiceMoments:
        # min over n/k replicas of a (shift/k, k*rate) piece is a
        # (shift/k, n*rate) shifted exponential; all k results are needed
        fastest = ShiftedExp(params.shift / self.k, params.straggling * params.nworkers)
        return _os_moments(fastest, self.k, self.k)

    def sample(self, params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
        k, r = self.k, params.nworkers // self.k
        groups = rng.random((size, params.nworkers)).reshape(size, k, r)
        if r <= k:
            # few replicas: an elementwise minimum over strided replica
            # columns beats a reduction over a short trailing axis
            fastest = groups[:, :, 0].copy()
            for j in range(1, r):
                np.minimum(fastest, groups[:, :, j], out=fastest)
        else:
            fastest = groups.min(axis=2)
        return params.whole_task().split(k).quantile(fastest.max(axis=1))


@dataclass(frozen=True)
class MDS:
    k: int
    label: ClassVar[str] = "mds"
    load: ClassVar[int] = 1

    def check(self, params: SystemParams, sampling: bool = False) -> None:
        require_int("mds: k", self.k)
        if self.k < 1:
            raise ValueError(f"mds: k must be >= 1, got k={self.k}")
        if self.k >= params.nworkers:
            raise ValueError(f"mds: k must be < n, got k={self.k}, n={params.nworkers}")

    def moments(self, params: SystemParams) -> ServiceMoments:
        return _os_moments(params.whole_task().split(self.k), params.nworkers, self.k)

    def sample(self, params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random((size, params.nworkers))
        u.partition(self.k - 1, axis=1)
        return params.whole_task().split(self.k).quantile(u[:, self.k - 1])


@dataclass(frozen=True)
class MultiMDS:
    k: int
    load: int  # coded subtasks queued per worker
    label: ClassVar[str] = "mm-mds"

    def check(self, params: SystemParams, sampling: bool = False) -> None:
        n = params.nworkers
        require_int("mm-mds: k", self.k)
        require_int("mm-mds: load", self.load)
        if self.load < 1:
            raise ValueError(f"mm-mds: load must be >= 1, got {self.load}")
        if not 1 <= self.k < n * self.load:
            raise ValueError(
                f"mm-mds: k must satisfy 1 <= k < n*load, got k={self.k}, "
                f"n={n}, load={self.load}")

    def moments(self, params: SystemParams) -> ServiceMoments:
        k1 = mm_k1(params, self.k, self.load)
        return _os_moments(params.whole_task().split(self.k), params.nworkers, k1)

    def sample(self, params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
        # the real finite-n mechanism, unlike the analytic first-level
        # identification: the k-th smallest of the multiset {m * X_i} over
        # workers i and queue positions m = 1..load
        n = params.nworkers
        x = sample_batch(params.whole_task().split(self.k), rng, (size, n))
        # level m holds every worker's m-th result at m * X_i; the k-th
        # smallest does not depend on the column order of the multiset
        multiset = np.empty((size, n * self.load))
        for m in range(1, self.load + 1):
            np.multiply(x, m, out=multiset[:, (m - 1) * n:m * n])
        multiset.partition(self.k - 1, axis=1)
        return multiset[:, self.k - 1]


Scheme = Uncoded | Repetition | MDS | MultiMDS


def validate(scheme: Scheme, params: SystemParams, sampling: bool = False) -> None:
    """Check scheme parameters against the worker pool; raise ValueError if bad.

    With sampling=True the repetition scheme additionally requires k to
    divide n (the replica groups must be equal), and no scheme may need more
    than MAX_SAMPLE_DRAWS worker draws per service time; the analytic moments
    are defined at any n.
    """
    if not isinstance(scheme, Scheme):
        raise TypeError(f"unknown scheme {scheme!r}")
    scheme.check(params, sampling)
    draws = params.nworkers * scheme.load
    if sampling and draws > MAX_SAMPLE_DRAWS:
        raise ValueError(f"{scheme.label} sampling: n*load = {draws} worker draws per "
                         f"service time exceed the limit of {MAX_SAMPLE_DRAWS}")


def mm_k1(params: SystemParams, k: int, load: int) -> int:
    """First-level completion count k1 = round(alpha_1 * n), at most n.

    The k-th overall result arrives exactly when the first level delivers
    its k1-th, so the analytic service time is the k1-th order statistic of
    the per-subtask runtimes.
    """
    validate(MultiMDS(k, load), params)
    n = params.nworkers
    k1 = round(solve_levels(load, k / (n * load), params.mu_c).alphas[0] * n)
    if k1 == 0:
        raise DegenerateLevels(
            f"first level rounds to zero subtasks (k={k}, n={n}, "
            f"load={load}); no order statistic represents the service time")
    return min(k1, n)


def mm_k_min(params: SystemParams, load: int) -> int:
    """Smallest k at which mm_k1 leaves the first level non-empty.

    k1 = round(alpha_1 * n) is 0 up to alpha_1 = 0.5 / n, where beta_1 =
    -log1p(-0.5 / n); the level sum there, times n, is the largest k with an
    empty first level, since the sum k / n rises with beta_1.
    """
    n = params.nworkers
    beta = -math.log1p(-0.5 / n)
    return math.floor(n * math.fsum(chain_alphas(beta, load, params.mu_c))) + 1


def service_moments(scheme: Scheme, params: SystemParams) -> ServiceMoments:
    """Exact (E[S], E[S^2]) of the scheme's service time."""
    validate(scheme, params)
    return scheme.moments(params)


def sample_service_batch(scheme: Scheme, params: SystemParams,
                         rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. service times by simulating the workers.

    Every scheme draws n*load uniforms per service time, row by row.  The
    single-level schemes select their order statistic on the uniforms and
    transform only the selected value; the inverse CDF is nondecreasing, so
    this returns the same float as transforming every draw first.
    """
    validate(scheme, params, sampling=True)
    return scheme.sample(params, rng, size)
