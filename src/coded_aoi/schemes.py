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

Each scheme exposes exact service moments (for the analytic age path) and a
sampler (for the simulation path).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .levels import LevelSplit, solve_levels
from .order_stats import (
    ShiftedExp,
    os_mean,
    os_second_moment,
    sample_batch,
)


class DegenerateLevels(Exception):
    """The level split leaves the first level empty (k too small for the load)."""


def _require_int(name: str, value) -> None:
    # bool is an int subclass, but True as a worker count or code dimension
    # is a caller's mistake, not a 1
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        _require_int("nworkers", self.nworkers)
        if self.nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {self.nworkers}")

    def whole_task(self) -> ShiftedExp:
        """Runtime distribution of the entire task on a single worker."""
        return ShiftedExp(self.shift, self.straggling)


@dataclass(frozen=True)
class Uncoded:
    pass


@dataclass(frozen=True)
class Repetition:
    k: int


@dataclass(frozen=True)
class MDS:
    k: int


@dataclass(frozen=True)
class MultiMDS:
    k: int
    load: int  # coded subtasks queued per worker


Scheme = Union[Uncoded, Repetition, MDS, MultiMDS]


@dataclass(frozen=True)
class ServiceMoments:
    """First and second moments of the per-update service time."""

    es: float
    es2: float


def validate(scheme: Scheme, params: SystemParams, sampling: bool = False) -> None:
    """Check scheme parameters against the worker pool; raise ValueError if bad.

    With sampling=True the repetition scheme additionally requires k to
    divide n (the replica groups must be equal); the analytic moments are
    defined for any 1 <= k <= n.
    """
    n = params.nworkers
    if isinstance(scheme, Uncoded):
        return
    if isinstance(scheme, Repetition):
        _require_int("repetition: k", scheme.k)
        if not 1 <= scheme.k <= n:
            raise ValueError(f"repetition: k must satisfy 1 <= k <= n, got k={scheme.k}, n={n}")
        if sampling and n % scheme.k != 0:
            raise ValueError(f"repetition sampling: k must divide n, got k={scheme.k}, n={n}")
        return
    if isinstance(scheme, MDS):
        _require_int("mds: k", scheme.k)
        if scheme.k < 1:
            raise ValueError(f"mds: k must be >= 1, got k={scheme.k}")
        if scheme.k >= n:
            raise ValueError(f"mds: k must be < n, got k={scheme.k}, n={n}")
        return
    if isinstance(scheme, MultiMDS):
        _require_int("mm-mds: k", scheme.k)
        _require_int("mm-mds: load", scheme.load)
        if scheme.load < 1:
            raise ValueError(f"mm-mds: load must be >= 1, got {scheme.load}")
        if not 1 <= scheme.k < n * scheme.load:
            raise ValueError(
                f"mm-mds: k must satisfy 1 <= k < n*load, got k={scheme.k}, "
                f"n={n}, load={scheme.load}")
        return
    raise TypeError(f"unknown scheme {scheme!r}")


def mm_level_split(params: SystemParams, k: int, load: int) -> tuple[int, LevelSplit]:
    """First-level completion count k1 and the solved level fractions.

    k1 = round(alpha_1 * n); the k-th overall result arrives exactly when
    the first level delivers its k1-th, so the analytic service time is the
    k1-th order statistic of the per-subtask runtimes.
    """
    validate(MultiMDS(k, load), params)
    alpha = k / (params.nworkers * load)
    split = solve_levels(load, alpha, params.shift * params.straggling)
    k1 = round(split.alphas[0] * params.nworkers)
    if k1 == 0:
        raise DegenerateLevels(
            f"first level rounds to zero subtasks (k={k}, n={params.nworkers}, "
            f"load={load}); no order statistic represents the service time")
    return min(k1, params.nworkers), split


def service_order_stat(scheme: Scheme, params: SystemParams) -> tuple[ShiftedExp, int, int]:
    """Distribution d and indices (n, k) with service time S = k-th smallest of n draws."""
    validate(scheme, params)
    n = params.nworkers
    task = params.whole_task()
    if isinstance(scheme, Uncoded):
        return task.split(n), n, n
    if isinstance(scheme, Repetition):
        # min over n/k replicas of a (shift/k, k*rate) piece is a
        # (shift/k, n*rate) shifted exponential
        per_subtask = task.split(scheme.k)
        return ShiftedExp(per_subtask.shift, params.straggling * n), scheme.k, scheme.k
    if isinstance(scheme, MDS):
        return task.split(scheme.k), n, scheme.k
    k1, _ = mm_level_split(params, scheme.k, scheme.load)
    return task.split(scheme.k), n, k1


def service_moments(scheme: Scheme, params: SystemParams) -> ServiceMoments:
    """Exact (E[S], E[S^2]) of the scheme's service time."""
    d, n, k = service_order_stat(scheme, params)
    return ServiceMoments(os_mean(d, n, k), os_second_moment(d, n, k))


def sample_service_batch(scheme: Scheme, params: SystemParams,
                         rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. service times by simulating the workers.

    Unlike the analytic moments, the MultiMDS path here samples the real
    finite-n mechanism: the k-th smallest of the multiset {m * X_i} over
    workers i and queue positions m = 1..load.

    Every scheme draws n*load uniforms per service time, row by row.  The
    single-level schemes select their order statistic on the uniforms and
    transform only the selected value; the inverse CDF is nondecreasing, so
    this returns the same float as transforming every draw first.
    """
    validate(scheme, params, sampling=True)
    n = params.nworkers
    task = params.whole_task()
    if isinstance(scheme, MultiMDS):
        x = sample_batch(task.split(scheme.k), rng, (size, n))
        # level m holds every worker's m-th result at m * X_i; the k-th
        # smallest does not depend on the column order of the multiset
        multiset = np.empty((size, n * scheme.load))
        for m in range(1, scheme.load + 1):
            np.multiply(x, m, out=multiset[:, (m - 1) * n:m * n])
        multiset.partition(scheme.k - 1, axis=1)
        return multiset[:, scheme.k - 1]
    u = rng.random((size, n))
    if isinstance(scheme, Uncoded):
        return task.split(n).quantile(u.max(axis=1))
    if isinstance(scheme, Repetition):
        k, r = scheme.k, n // scheme.k
        groups = u.reshape(size, k, r)
        if r <= k:
            # few replicas: an elementwise minimum over strided replica
            # columns beats a reduction over a short trailing axis
            fastest = groups[:, :, 0].copy()
            for j in range(1, r):
                np.minimum(fastest, groups[:, :, j], out=fastest)
        else:
            fastest = groups.min(axis=2)
        return task.split(k).quantile(fastest.max(axis=1))
    u.partition(scheme.k - 1, axis=1)
    return task.split(scheme.k).quantile(u[:, scheme.k - 1])


def sample_service(scheme: Scheme, params: SystemParams, rng: np.random.Generator) -> float:
    """Draw one service time."""
    return float(sample_service_batch(scheme, params, rng, 1)[0])
