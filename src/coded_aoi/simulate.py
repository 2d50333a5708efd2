"""Monte Carlo simulation of the full update pipeline.

The source transmits updates over an exponential-delay link; the worker
pool drops arrivals while busy and serves each accepted update with the
configured scheme.  The destination's age is a sawtooth that resets to
(delay + service time) of an update the moment its result is returned, and
the long-run average is estimated cycle by cycle as total sawtooth area
over total elapsed time.  Its 95% interval takes the batch means of
BATCHES = 30 equal batches of the pooled cycles, whatever the number of
replications, so its Student-t quantile is one constant.

Two modes:

    fast         draws the per-cycle triple (delay D, service S, idle wait Z)
                 directly, using the fact that the residual wait for the next
                 arrival after an exponential interarrival process is again
                 exponential.
    full_stream  generates the arrival stream the pool actually sees (every
                 transmission, including the ones the busy pool throws away)
                 and reads Z off it: the idle wait is the overshoot of real
                 interarrival-gap sums past the service completion, never
                 a draw from the residual-exponential shortcut.  Each
                 accepted arrival is a regeneration point: the gaps after
                 it are fresh draws, so every cycle walks its own arrivals
                 and all cycles advance together, a round at a time.  In a
                 round each cycle still waiting draws a row of gaps, about
                 as many as the average waiting cycle still needs; the
                 first partial sum at or after its service time ends the
                 cycle, and the gaps before it are dropped arrivals.  A
                 round that would draw fewer than 2048 gaps widens its rows
                 to cover the longest remaining wait, so the last few
                 waiting cycles end in one round, not in one each.  A
                 round's gaps are drawn gap column by gap column, each
                 column contiguous; rounds of at least 128 waiting cycles
                 add them one column at a time, smaller ones by one cumsum
                 along each row, in the same order and to the same bits.
                 After each round the cycles still waiting are gathered
                 through one index array.  Only the accepted arrivals'
                 transit ages D are drawn: a dropped update's age is never
                 read.  Also records the dropped-arrival fraction.  A cycle
                 costs about lambda * E[S] drawn gaps, so a run whose drawn
                 service times give more than MAX_DROPS_PER_CYCLE is
                 refused with ValueError (exit 2 from the CLI); fast mode
                 estimates the same age.

The alternative source policy "return-triggered" (send the next update when
the processed result comes back, rather than on acceptance of the previous
transmission) is available for empirical comparison; nothing is ever
dropped under it, so both modes coincide there.  ``_cycles`` is the one
place of a replication's draw order, for every mode and policy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .levels import require_int
from .order_stats import ShiftedExp, sample_batch
from .schemes import Scheme, SystemParams, sample_service_batch, validate

# most arrival gaps the full-stream walk holds at once, or one gap column (a
# gap of every waiting cycle) if that is more; the results do not depend on it
WAIT_SLICE = 1 << 16
# a round with at least this many waiting cycles, the rows of its gap matrix,
# adds its gaps one contiguous gap column at a time; a smaller round sums them
# with one cumsum along each cycle's gaps, which costs more per gap but makes
# no Python iteration per column (measured, scan and count together: 8.3
# against 9.3 us at 128 cycles of 8 gaps, 16 against 46 us at 1024 of 8, 71
# against 16 us at 32 of 64).  Both give the same bits
_COLUMN_SCAN_ROWS = 128
# a round that would draw fewer gaps than this widens its rows to cover the
# longest remaining wait in one draw: a round costs about 20 us in numpy
# calls, as much as drawing a few thousand gaps
_ROUND_GAPS = 2048
# largest lambda * E[S], the expected dropped arrivals per cycle, that a
# full-stream run accepts, and the widest row of gaps a waiting cycle draws
# in one round; the walk draws every arrival, about lambda * E[S] per cycle
MAX_DROPS_PER_CYCLE = 1 << 10
# batch means behind the 95% interval: a run's pooled cycles, in replication
# order, cut into this many batches of equal size (one cycle more or less)
BATCHES = 30
# t_{0.975}(BATCHES - 1), the Student-t quantile of that interval
_T_QUANTILE = 2.0452296421327043

SeedLike = Union[int, SeedSequence]


class InsufficientCycles(ValueError):
    """Fewer cycles than confidence-interval batches."""


@dataclass(frozen=True)
class SimReport:
    """Empirical age estimate with its 95% confidence half-width.

    empirical_es/es2/ed/ez are the per-cycle sample moments of service
    time, squared service time, transmission delay, and idle wait.
    dropped_fraction is populated in full_stream mode only.
    """

    mean_age: float
    ci95_halfwidth: float
    cycles: int
    empirical_es: float
    empirical_es2: float
    empirical_ed: float
    empirical_ez: float
    seed: Union[int, tuple[int, ...]]  # root SeedSequence entropy, as given
    dropped_fraction: Optional[float] = None


def _round_width(lam: float, rest: np.ndarray) -> int:
    """Gaps each of the full-stream walk's waiting cycles draws in a round.

    ``rest`` holds the cycles' service times less the gaps they have summed.
    A row holds about the arrivals the average waiting cycle still needs, so
    a large round draws little past them; the cap bounds a row's memory.  A
    round that would draw fewer than _ROUND_GAPS gaps widens its rows, within
    that budget, to the longest wait's mean arrival count plus four standard
    deviations and four, so the last waiting cycles end in one draw, not in
    a round each.
    """
    m = rest.size
    # the sum over the count is the double .mean() gives, without its
    # Python-level wrapper
    w = 1 + int(min(lam * (rest.sum() / m), MAX_DROPS_PER_CYCLE))
    if m * w < _ROUND_GAPS:
        x = lam * float(rest.max())
        w = max(w, int(min(x + 4.0 * math.sqrt(x) + 5.0, MAX_DROPS_PER_CYCLE,
                           _ROUND_GAPS // m)))
    return w


def _cycles(scheme: Scheme, params: SystemParams, rng: Generator, cycles: int,
            mode: str, policy: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One replication's draws, in the draw order of every mode and policy.

    Returns the cycles + 1 service times s, the transit ages d_used and idle
    waits z of the first ``cycles`` updates, and the arrivals the pool saw
    (0 unless the full stream counts them).  s is drawn first; then
    return-triggered sending draws cycles + 1 transit ages, each update's
    idle wait being the next one's, fast mode d_used and then z, and the
    full stream checks the cost cap, draws d_used and walks z.
    """
    lam = params.arrival_rate
    exp = ShiftedExp(0.0, lam)
    s = sample_service_batch(scheme, params, rng, cycles + 1)
    if policy == "return-triggered":
        d = sample_batch(exp, rng, cycles + 1)
        return s, d[:-1], d[1:], 0
    if mode == "fast":
        return s, sample_batch(exp, rng, cycles), sample_batch(exp, rng, cycles), 0
    # "not <=" refuses an infinite or NaN mean too
    if not lam * s.mean() <= MAX_DROPS_PER_CYCLE:
        raise ValueError(
            f"full-stream simulation: lambda*E[S] = {lam * s.mean():.6g} dropped arrivals per "
            f"cycle exceed the limit of {MAX_DROPS_PER_CYCLE}; fast mode gives the same age")
    # the transit ages of the accepted arrivals but the last, which only
    # ends the run
    d_used = sample_batch(exp, rng, cycles)
    z = np.empty(cycles)
    # the cycles still waiting for their next arrival, their service times
    # and the gaps they have summed so far
    idx, need, waited = np.arange(cycles), s[:-1], np.zeros(cycles)
    dropped = 0
    while idx.size:
        m = idx.size
        w = _round_width(lam, need - waited)
        # the round's m rows of w gaps, drawn gap column by gap column, each
        # column contiguous, in slices of whole columns; a slice goes on
        # from the sums the last one ended on, so the slice size moves no draw
        cols = max(1, WAIT_SLICE // m)
        early = np.zeros(m, dtype=np.intp)
        for a in range(0, w, cols):
            t = sample_batch(exp, rng, (min(cols, w - a), m))
            t[0] += waited
            # gap sums in order, as t += gap would
            if m >= _COLUMN_SCAN_ROWS:
                for i in range(1, len(t)):
                    t[i] += t[i - 1]
            else:
                np.cumsum(t, axis=0, out=t)
            # arrivals before the service completes find the pool busy, and
            # the first one at or after it ends the cycle; the sums never
            # fall, so a cycle's count stops there.  A row holds at most
            # MAX_DROPS_PER_CYCLE + 1 gaps, so the count fits a uint16 sum,
            # which is 2.2 times as fast as an intp one at 8192 cycles of 8
            count = (t < need).sum(axis=0, dtype=np.uint16)
            # each cycle's sum at its ending arrival, or at the slice's last
            # gap if it waits on, a stand-in that a later slice or round
            # overwrites.  Only the cycles still waiting when a slice begins,
            # early == a, can end in it: all of them in the first slice
            if a == 0:
                early += count
                at = np.minimum(early, len(t) - 1)
                at *= m
                at += np.arange(m)
                ends = t.ravel().take(at)
            else:
                on = (early == a).nonzero()[0]
                early += count
                at = np.minimum(early.take(on) - a, len(t) - 1)
                at *= m
                at += on
                ends[on] = t.ravel().take(at)
            del at  # freed before waited is copied, the slice's peak
            waited = t[-1].copy()
            del t  # freed before the next slice is drawn, not after
        ends -= need
        z[idx] = ends
        dropped += int(early.sum())
        wait = (early == w).nonzero()[0]
        idx, need, waited = idx.take(wait), need.take(wait), waited.take(wait)
    return s, d_used, z, cycles + 1 + dropped


def batch_means_ci(area_batches: np.ndarray, time_batches: np.ndarray) -> float:
    """95% half-width for the ratio estimator from BATCHES batch means."""
    ratios = area_batches / time_batches
    return float(_T_QUANTILE * ratios.std(ddof=1) / math.sqrt(BATCHES))


def _root_seq(seed: SeedLike) -> SeedSequence:
    if isinstance(seed, SeedSequence):
        return seed
    # None would draw fresh OS entropy and True would run as seed 1; callers
    # who want fresh entropy pass SeedSequence() and get it reported
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a SeedSequence or an integer >= 0, got {seed!r}")
    return SeedSequence(seed)


@np.errstate(all="ignore")  # the finite check at the end reports what overflowed
def run_parallel(scheme: Scheme, params: SystemParams, cycles_per_rep: int,
                 reps: int, seed: SeedLike, mode: str = "fast",
                 policy: str = "zero-wait") -> SimReport:
    """Run independent replications on split substreams and pool the cycles.

    ``seed`` is a SeedSequence or an integer >= 0.  The replications draw
    from SeedSequence children of ``seed`` in replication order, so the
    pooled report depends only on (seed, reps, cycles_per_rep), not on
    execution interleaving.  The 95% interval takes BATCHES batch means of
    the pooled cycles, in replication order, so a run needs at least that
    many cycles in all (InsufficientCycles otherwise); a batch may span two
    replications, which are independent.  A report whose age or moments a
    double cannot hold raises OverflowError, as age_of does for the analytic
    age.

    Each replication's draws come from ``_cycles``, the one place of their
    order.  Service times come from the scheme alone: each replication calls
    ``sample_service_batch`` once, for all of its cycles_per_rep + 1 of
    them, so a ``sample`` override must bound its own scratch memory, as
    MultiMDS at load >= 2 does: its window sampler holds its draws in row
    chunks of at most SCRATCH_DOUBLES doubles, at widened windows too, plus
    the ufunc buffers and gather copies numpy adds (see
    ``schemes.SCRATCH_DOUBLES``).
    """
    require_int("cycles_per_rep", cycles_per_rep)
    require_int("reps", reps)
    # numpy integers would otherwise leak numpy scalars into the report
    cycles_per_rep, reps = int(cycles_per_rep), int(reps)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if mode not in ("fast", "full_stream"):
        raise ValueError(f"mode must be 'fast' or 'full_stream', got {mode!r}")
    if policy not in ("zero-wait", "return-triggered"):
        raise ValueError(f"policy must be 'zero-wait' or 'return-triggered', got {policy!r}")
    cycles = reps * cycles_per_rep
    if cycles < BATCHES:
        raise InsufficientCycles(
            f"need at least {BATCHES} cycles in all, got {reps} x {cycles_per_rep}")
    validate(scheme, params)

    root = _root_seq(seed)
    # the pooled cycles are cut at every batch edge and every replication
    # start; each replication sums its pieces, and each batch the pieces
    # from its edge on.  In Python ints: at some 30 cuts numpy calls cost
    # more, and np.union1d's first call imports numpy.ma (13 ms)
    edges = [b * cycles // BATCHES for b in range(BATCHES)]
    cuts = sorted({*edges, *range(0, cycles, cycles_per_rep)})
    pieces = [[] for _ in range(reps)]
    for cut in cuts:
        pieces[cut // cycles_per_rep].append(cut % cycles_per_rep)
    area, time, sums, arrivals = [], [], [0.0] * 4, 0
    for child, at in zip(root.spawn(reps), pieces):
        s, d_used, z, seen = _cycles(scheme, params, Generator(PCG64(child)),
                                     cycles_per_rep, mode, policy)
        s_used = s[:-1]
        # cycle i starts at the age v = d_i + s_i of update i and lasts until
        # update i+1 returns, z_i + s_{i+1} later
        length = z + s[1:]
        area.append(np.add.reduceat(length * (d_used + s_used + 0.5 * length), at))
        time.append(np.add.reduceat(length, at))
        moments = (s_used.sum(), (s_used * s_used).sum(), d_used.sum(), z.sum())
        sums = [total + float(m) for total, m in zip(sums, moments)]
        arrivals += seen
        del s, d_used, z, s_used, length  # freed before the next replication draws
    first = np.searchsorted(cuts, edges)
    area = np.add.reduceat(np.concatenate(area), first)
    time = np.add.reduceat(np.concatenate(time), first)
    es, es2, ed, ez = (total / cycles for total in sums)
    # every replication accepts cycles_per_rep + 1 of its arrivals
    frac = (arrivals - reps * (cycles_per_rep + 1)) / arrivals if arrivals else None
    entropy = root.entropy
    seed_out = int(entropy) if np.ndim(entropy) == 0 else tuple(int(e) for e in entropy)
    report = SimReport(
        mean_age=float(area.sum() / time.sum()),
        ci95_halfwidth=batch_means_ci(area, time),
        cycles=cycles,
        empirical_es=es, empirical_es2=es2, empirical_ed=ed, empirical_ez=ez,
        seed=seed_out,
        dropped_fraction=frac,
    )
    values = (report.mean_age, report.ci95_halfwidth, report.empirical_es,
              report.empirical_es2, report.empirical_ed, report.empirical_ez)
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"simulated age of {scheme} overflows a double "
                            f"(mean_age={report.mean_age:.6g}, "
                            f"E[S^2]={report.empirical_es2:.6g})")
    return report


def run(scheme: Scheme, params: SystemParams, cycles: int, seed: SeedLike,
        mode: str = "fast", policy: str = "zero-wait") -> SimReport:
    """Single-replication simulation; see run_parallel for the contract."""
    return run_parallel(scheme, params, cycles, 1, seed, mode=mode, policy=policy)
