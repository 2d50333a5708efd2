"""Monte Carlo validation of the analytic age formulas.

The simulator never sees the closed forms: it draws delays, service times,
and idle waits, integrates the age sawtooth cycle by cycle, and reports a
batch-means confidence interval.  fast mode draws the per-cycle triple
directly.  full_stream mode draws every transmission, dropping the ones
that find the pool busy: each accepted update starts a fresh arrival
stream, so every cycle walks its own arrivals, all cycles together in
numpy rounds, until a gap sum reaches its service time.  That costs the
gaps drawn, about lambda*E[S] + 1 per cycle, in a few rounds: a round that
would draw fewer than 2048 gaps widens its rows to cover the longest
remaining wait, and none draws more than WAIT_SLICE gaps.  Each round is
one draw; rounds of many cycles add their gaps one contiguous gap column
at a time, small ones by one cumsum, to the same bits.  The cycles still
waiting after a round are gathered by index.
Only accepted updates carry a drawn transit delay, since a dropped
update's age is never read.
"""
from coded_aoi import (
    MDS,
    Repetition,
    SystemParams,
    Uncoded,
    age_of,
    run,
    service_moments,
)

p = SystemParams(arrival_rate=1.0, shift=1.0, straggling=1.0, nworkers=100)
cycles = 200_000

print(f"{cycles} cycles per run\n")
print(f"{'scheme':<18}{'analytic':>11}{'simulated':>11}{'ci95':>9}")
for scheme in (Uncoded(), Repetition(50), MDS(69)):
    analytic = age_of(scheme, p).delta
    rep = run(scheme, p, cycles, seed=101)
    print(f"{str(scheme):<18}{analytic:>11.5f}{rep.mean_age:>11.5f}"
          f"{rep.ci95_halfwidth:>9.5f}")

print("\nfull event stream for MDS(69): drops measured, not assumed")
rep = run(MDS(69), p, cycles, seed=102, mode="full_stream")
es = service_moments(MDS(69), p).es
print(f"  simulated age      {rep.mean_age:.5f}")
print(f"  mean carried delay {rep.empirical_ed:.4f}  (expect 1/lambda = 1)")
print(f"  mean idle wait     {rep.empirical_ez:.4f}  (expect 1/lambda = 1)")
print(f"  dropped fraction   {rep.dropped_fraction:.4f}  "
      f"(busy-time share predicts {es / (es + 1):.4f})")

print("\nsame seed, same report (bit-for-bit):")
a = run(MDS(69), p, 10_000, seed=5)
b = run(MDS(69), p, 10_000, seed=5)
print(f"  {a.mean_age!r} == {b.mean_age!r}: {repr(a) == repr(b)}")
